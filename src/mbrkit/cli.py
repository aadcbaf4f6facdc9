"""Batch command-line interface.

Subcommands: `decode` runs the full pipeline over a JSONL instance file;
`matrix` emits per-instance gain matrices for inspection or for external
rescoring workflows; `fixtures` writes the reproducible toy instance set
with golden decode outputs; `selfcheck` runs the built-in invariant
suite. Exit codes: 0 success, 1 at least one instance failed (the rest
are still processed) or the reader closed standard output, 2
configuration error, a path that cannot be opened or a standard stream
closed at start and not replaced by a path included. Error lines go to
standard error only: when it is closed they are dropped, and the run and
its exit code are as they would be with it open.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import deque
from contextlib import ExitStack
from dataclasses import asdict, dataclass
from itertools import chain, repeat
from typing import TYPE_CHECKING

from .decoder import decode
from .errors import ConfigError, MbrError, ParseError, SchemaError, with_instance_id
from .io import RawJson, dumps, iter_lines, parse_instance_line, result_record, write_instances
from .metrics import gain_matrix
from .oracle import build_fixture_instances
from .types import (TIE_BREAKS, TOKENIZERS, WEIGHT_KINDS, GainSpec, Instance, WeightSpec,
                    validate_instance)

if TYPE_CHECKING:
    from concurrent.futures import Executor

#: The gain kind of each --metric name. Every other kind is spelled on the
#: command line as it is in ``mbrkit.types``, with ``-`` for ``_``.
METRIC_NAMES = {
    "exact": "exact_match",
    "answer": "answer_match",
    "rouge": "rouge_n_kernel",
    "bleu": "sentence_bleu",
    "external": "external",
}

#: The gain/weighting grid the fixture writer materializes golden outputs for.
GOLDEN_GAINS = (
    ("exact", GainSpec(kind="exact_match")),
    ("rouge1", GainSpec(kind="rouge_n_kernel", n=1)),
    ("bleu4", GainSpec(kind="sentence_bleu", max_order=4)),
)
GOLDEN_WEIGHTINGS = (
    ("uniform", WeightSpec(kind="uniform")),
    ("temperature", WeightSpec(kind="temperature", tau=0.5)),
    ("length_norm", WeightSpec(kind="length_norm", beta=1.0)),
    ("length_reward", WeightSpec(kind="length_reward", gamma=0.5)),
    ("mixture", WeightSpec(kind="mixture", mixture_weights={"m0": 0.7, "m1": 0.3})),
)


@dataclass(frozen=True)
class RunConfig:
    """Everything one CLI invocation needs beyond the input data."""

    gain: GainSpec
    weighting: WeightSpec
    tie_break: str = "first"
    dedup_hypotheses: bool = False
    jobs: int = 1
    input: str | None = None
    output: str | None = None


def parse_mixture(text: str) -> dict[str, float]:
    """Parse "id=w,id=w" into a model weight mapping; each id once."""
    weights: dict[str, float] = {}
    for part in text.split(","):
        model, sep, value = part.partition("=")
        if not sep or not model:
            raise ConfigError(f"mixture term {part!r} is not of the form id=weight")
        if model in weights:
            raise ConfigError(f"mixture id {model!r} is given more than once")
        try:
            weights[model] = float(value)
        except ValueError:
            raise ConfigError(f"mixture weight {value!r} for {model!r} is not a number")
    return weights


def _flag_names(kinds: tuple[str, ...]) -> tuple[str, ...]:
    """The command-line names of ``kinds``: ``-`` for ``_``."""
    return tuple(kind.replace("_", "-") for kind in kinds)


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run configuration of parsed ``decode`` or ``matrix`` arguments;
    each kind is its flag's value with ``_`` for ``-``."""
    gain = GainSpec(
        kind=METRIC_NAMES[args.metric],
        n=args.ngram,
        max_order=args.bleu_order,
        lowercase=not args.no_lowercase,
        tokenizer=args.tokenizer.replace("-", "_"),
    )
    weighting = WeightSpec(
        kind=args.weighting.replace("-", "_"),
        tau=args.tau,
        beta=args.beta,
        gamma=args.gamma,
        mixture_weights=None if args.mixture is None else parse_mixture(args.mixture),
    )
    jobs = args.jobs
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    # Output lines are written while the input is still being read. A
    # missing input is reported when it is opened.
    if args.input and args.output and os.path.exists(args.input) \
            and os.path.exists(args.output) and os.path.samefile(args.input, args.output):
        raise ConfigError("--output must not be the --input file")
    return RunConfig(
        gain=gain,
        weighting=weighting,
        tie_break=args.tie_break.replace("-", "_"),
        dedup_hypotheses=args.dedup_hypotheses,
        jobs=jobs,
        input=args.input,
        output=args.output,
    )


def config_echo(config: RunConfig) -> dict:
    """The run configuration as a JSON-ready dict with a fixed key order:
    the specs' fields in their declared order, the mixture sorted by id.

    Sufficient to reproduce the run; jobs is deliberately absent because
    results do not depend on it.
    """
    weighting = asdict(config.weighting)
    mixture = weighting["mixture_weights"]
    weighting["mixture_weights"] = dict(sorted(mixture.items())) if mixture else None
    return {"metric": asdict(config.gain), "weighting": weighting,
            "tie_break": config.tie_break, "dedup_hypotheses": config.dedup_hypotheses}


def _matrix_echo(config: RunConfig) -> dict:
    return {"metric": asdict(config.gain), "dedup_hypotheses": config.dedup_hypotheses}


def _add_gain_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metric", choices=tuple(METRIC_NAMES), default="rouge",
                        help="pairwise gain function (default rouge)")
    parser.add_argument("--ngram", type=int, default=1, metavar="N",
                        help="n-gram order for the rouge kernel (default 1)")
    parser.add_argument("--bleu-order", type=int, default=4, metavar="N",
                        help="maximum n-gram order for sentence BLEU (default 4)")
    parser.add_argument("--no-lowercase", action="store_true",
                        help="keep case when tokenizing")
    parser.add_argument("--tokenizer", choices=_flag_names(TOKENIZERS),
                        default="whitespace", help="tokenizer for candidates without tokens")
    parser.add_argument("--dedup-hypotheses", action="store_true",
                        help="drop hypotheses with duplicate token sequences")


def _add_io_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the instance batch, at most one per "
                             "CPU core (default 1)")
    parser.add_argument("--input", metavar="PATH", default=None,
                        help="input JSONL file (default standard input)")
    parser.add_argument("--output", metavar="PATH", default=None,
                        help="output JSONL file (default standard output)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbrkit",
        description="Minimum Bayes risk decoding over pre-sampled candidate sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_decode = sub.add_parser("decode", help="select one hypothesis per instance")
    _add_gain_options(p_decode)
    decode_only = [
        p_decode.add_argument("--weighting", choices=_flag_names(WEIGHT_KINDS), default="uniform",
                              help="evidence weighting (default uniform)"),
        p_decode.add_argument("--tau", type=float, default=1.0, metavar="F",
                              help="temperature for temperature weighting (default 1)"),
        p_decode.add_argument("--beta", type=float, default=0.0, metavar="F",
                              help="length-normalization exponent (default 0)"),
        p_decode.add_argument("--gamma", type=float, default=0.0, metavar="F",
                              help="per-token length reward (default 0)"),
        p_decode.add_argument("--mixture", metavar="ID=W,ID=W", default=None,
                              help="per-model mixture weights"),
        p_decode.add_argument("--tie-break", choices=_flag_names(TIE_BREAKS), default="first",
                              help="rule for gain ties (default first)"),
    ]
    _add_io_options(p_decode)
    p_decode.set_defaults(record=_decode_record, echo=config_echo)

    p_matrix = sub.add_parser("matrix", help="emit the gain matrix of each instance")
    _add_gain_options(p_matrix)
    _add_io_options(p_matrix)
    # decode's weighting and tie-break defaults, so both commands make one RunConfig.
    p_matrix.set_defaults(record=_matrix_record, echo=_matrix_echo,
                          **{action.dest: action.default for action in decode_only})

    p_fixtures = sub.add_parser("fixtures", help="write the toy fixture set and golden outputs")
    p_fixtures.add_argument("--seed", type=int, default=7, metavar="N",
                            help="generator seed (default 7)")
    p_fixtures.add_argument("--output", metavar="DIR", required=True,
                            help="directory to write toy.jsonl and golden/ into")

    sub.add_parser("selfcheck", help="run the built-in invariant suite")
    return parser


def _decode_record(inst: Instance, config: RunConfig, echo: RawJson) -> dict:
    result = decode(
        inst,
        config.gain,
        config.weighting,
        tie_break=config.tie_break,
        dedup_hypotheses=config.dedup_hypotheses,
    )
    return result_record(inst.id, result, echo)


def _matrix_record(inst: Instance, config: RunConfig, echo: RawJson) -> dict:
    try:
        checked = validate_instance(inst, config.gain, WeightSpec(), config.dedup_hypotheses)
        matrix = gain_matrix(checked, config.gain)
    except MbrError as exc:
        raise with_instance_id(exc, inst.id) from exc
    return {
        "id": inst.id,
        "gain_matrix": matrix.tolist(),
        "config_echo": echo,
    }


def _process_line(numbered: tuple[int, str], config: RunConfig,
                  record_fn, echo: RawJson) -> tuple[bool, bytes | str]:
    """One input line as (True, UTF-8 output line) or (False, error text).

    The only place a per-line failure becomes an error: any exception is
    caught here, in the worker that raised it, so one bad line never stops
    the batch and every ``--jobs`` count reports it the same way. Results
    are UTF-8 whatever the locale; an escaped lone surrogate fails its line.
    """
    line_no, raw = numbered
    try:
        text = dumps(record_fn(parse_instance_line(raw, line_no), config, echo)) + "\n"
        return True, text.encode("utf-8")
    except (ParseError, SchemaError) as exc:
        return False, str(exc)
    except MbrError as exc:
        return False, f"line {line_no}: {exc}"
    except Exception as exc:
        return False, f"line {line_no}: {type(exc).__name__}: {exc}"


def _process_task(task: list[tuple[int, str]], config: RunConfig,
                  record_fn, echo: RawJson) -> list[tuple[bool, bytes | str]]:
    """``_process_line`` of each line of one pool task, in order."""
    return [_process_line(numbered, config, record_fn, echo) for numbered in task]


#: Pool tasks in flight per worker process with ``--jobs`` > 1.
_WINDOW_PER_JOB = 4
#: With ``--jobs`` > 1 a pool task is a run of consecutive lines that
#: closes once it holds ``_TASK_BYTES`` characters of input (its bytes, for
#: ASCII input) or ``_TASK_LINES`` lines.
_TASK_BYTES = 64 * 1024
_TASK_LINES = 256


def _tasks(lines, max_bytes: int, max_lines: int):
    """Consecutive ``(line_no, text)`` items in lists: each list closes once
    it holds ``max_bytes`` characters of text or ``max_lines`` items."""
    task, size = [], 0
    for numbered in lines:
        task.append(numbered)
        size += len(numbered[1])
        if size >= max_bytes or len(task) == max_lines:
            yield task
            task, size = [], 0
    if task:
        yield task


def _windowed_map(pool: Executor, fn, items, window: int, *args):
    """``fn(item, *args)`` for each item on ``pool``, yielded in order.

    Unlike ``Executor.map``, which submits every item before it yields
    the first result, at most ``window`` tasks are submitted and not yet
    yielded, so the parent holds a bounded part of the batch.
    """
    pending: deque = deque()
    try:
        for item in items:
            pending.append(pool.submit(fn, item, *args))
            if len(pending) == window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def _open_path(flag: str, path: str | int, mode: str, **kwargs):
    """``open(path, mode)``; a path that cannot be opened is a ConfigError
    naming ``flag``, ``path`` and the reason."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise ConfigError(f"{flag} {path}: {exc.strerror or exc}") from None


def _to_null(stream) -> None:
    """Point ``stream``'s file descriptor at the null device: what is still
    buffered for it, what is written to it later and the interpreter's last
    flush all succeed and are dropped."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _report(text: str) -> None:
    """Write ``text`` as one line to standard error. A standard error that
    is closed (``None``, where ``print`` would write to standard output)
    or that fails the write drops the line, and an unwritable one this and
    every later line (:func:`_to_null`): it never stops the run, reaches
    the results or changes the exit code."""
    if sys.stderr is None:
        return
    try:
        sys.stderr.write(text + "\n")
    except OSError:
        _to_null(sys.stderr)


def _run_batch(config: RunConfig, record_fn, echo: dict) -> int:
    """Stream the input through ``_process_line``, writing each outcome in
    input order as it arrives; results go to the output, errors to stderr.
    With ``jobs`` > 1 the lines go to at most ``os.cpu_count()`` worker
    processes in tasks of consecutive lines (:func:`_tasks`; one line each
    when a terminal reads the output), through a window of
    ``_WINDOW_PER_JOB * jobs`` tasks (:func:`_windowed_map`), so the parent
    reads at most ``_WINDOW_PER_JOB * jobs * _TASK_LINES`` lines past the
    last line it has written. The pool's modules are imported only then.

    ``echo`` is the same on every line, so it is serialized once here.
    """
    echo = RawJson(dumps(echo))
    # A standard stream closed when the process started is None.
    if config.input is None and sys.stdin is None:
        raise ConfigError("standard input is closed; name a file with --input")
    if config.output is None and sys.stdout is None:
        raise ConfigError("standard output is closed; name a file with --output")
    failed = 0
    with ExitStack() as stack:
        # Bytes that are not UTF-8 decode to lone surrogates, which
        # parse_instance_line reports as a line error. Only "\n" ends a
        # line: a bare "\r" is JSON whitespace, and so is a CRLF's "\r".
        source = stack.enter_context(_open_path(
            "--input", sys.stdin.fileno() if config.input is None else config.input, "r",
            encoding="utf-8", errors="surrogateescape", newline="\n",
            closefd=config.input is not None,
        ))
        # A terminal still sees each result as soon as it is written.
        flush_lines = config.output is None and sys.stdout.line_buffering
        if config.output is None:
            sys.stdout.flush()
            sink = sys.stdout.buffer
        else:
            sink = stack.enter_context(_open_path("--output", config.output, "wb"))
        lines = iter_lines(source)
        if config.jobs > 1:
            import multiprocessing as mp
            from concurrent.futures import ProcessPoolExecutor

            methods = mp.get_all_start_methods()
            ctx = mp.get_context("fork" if "fork" in methods else methods[0])
            # Under fork every worker starts at the first submit, so the
            # pool has at most one per core; the window stays in jobs.
            workers = min(config.jobs, os.cpu_count() or 1)
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers, mp_context=ctx))
            tasks = _tasks(lines, _TASK_BYTES, 1 if flush_lines else _TASK_LINES)
            outcomes = chain.from_iterable(_windowed_map(
                pool, _process_task, tasks, _WINDOW_PER_JOB * config.jobs,
                config, record_fn, echo))
        else:
            outcomes = map(_process_line, lines, repeat(config), repeat(record_fn), repeat(echo))
        for ok, text in outcomes:
            if ok:
                sink.write(text)
                if flush_lines:
                    sink.flush()
            else:
                failed += 1
                _report(text)
    return 1 if failed else 0


def cmd_fixtures(args: argparse.Namespace) -> int:
    """Write toy.jsonl, then decode it into each golden file as ``mbrkit decode`` does."""
    try:
        os.makedirs(os.path.join(args.output, "golden"), exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--output {args.output}: {exc.strerror or exc}") from None
    toy_path = os.path.join(args.output, "toy.jsonl")
    with _open_path("--output", toy_path, "w", encoding="utf-8", newline="\n") as stream:
        write_instances(build_fixture_instances(seed=args.seed), stream)
    print(toy_path)
    failed = 0
    for gain_name, gain in GOLDEN_GAINS:
        for weight_name, weighting in GOLDEN_WEIGHTINGS:
            path = os.path.join(args.output, "golden", f"{gain_name}_{weight_name}.jsonl")
            config = RunConfig(gain=gain, weighting=weighting, input=toy_path, output=path)
            failed |= _run_batch(config, _decode_record, config_echo(config))
            print(path)
    return failed


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "fixtures":
            return cmd_fixtures(args)
        if args.command == "selfcheck":
            from .selfcheck import run_selfcheck

            return run_selfcheck()
        config = config_from_args(args)
        return _run_batch(config, args.record, args.echo(config))
    except ConfigError as exc:
        _report(f"error: {exc}")
        return 2
    except BrokenPipeError:
        # The reader closed standard output: what is still buffered for it
        # goes to the null device, so the interpreter's last flush is quiet.
        _to_null(sys.stdout)
        return 1


def main() -> None:
    sys.exit(run())
