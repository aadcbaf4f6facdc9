"""Per-layer spans around the public functions of each `mbrkit` module.

The traced pass replays what `mbrkit decode` does for a batch, in the
CLI's order: parse every line, decode every instance, serialize every
result. Each call into a module is wrapped in a span from here, outside the
package, so the package runs unchanged:

    io.parse_instance_line -> types.validate_instance -> metrics.gain_matrix
    -> weighting.compute_weights -> decoder.expected_gains -> decoder.select
    -> io.dumps(io.result_record(...))

Its output bytes must equal those of the CLI. The untraced pass does the
same work through `decoder.decode` with one timer per instance; the
difference between the two passes' wall times is the tracing overhead.
Put the checkout's `src` first on `sys.path` before importing this module.
"""

from __future__ import annotations

import time
from collections import defaultdict

from mbrkit import cli, decoder, io, metrics, types, weighting


class Spans:
    """Summed seconds per span name, kept in memory until the run ends."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[name] += time.perf_counter() - start


def run_config(flags: tuple[str, ...]) -> cli.RunConfig:
    """The CLI's configuration for `mbrkit` arguments `flags`."""
    return cli.config_from_args(cli.build_parser().parse_args(list(flags)))


def _parse(path: str, spans: Spans | None) -> list:
    with open(path, encoding="utf-8") as stream:
        lines = list(io.iter_lines(stream))
    if spans is None:
        return [io.parse_instance_line(raw, no) for no, raw in lines]
    return [spans.call("io.parse_s", io.parse_instance_line, raw, no) for no, raw in lines]


def traced_pass(path: str, config: cli.RunConfig) -> tuple[str, Spans, dict]:
    """(output text, spans, counts) of one traced pass over the batch."""
    spans = Spans()
    start = time.perf_counter()
    instances = _parse(path, spans)
    echo = cli.config_echo(config)
    results = []
    counts = defaultdict(int)
    for inst in instances:
        checked = spans.call("types.validate_s", types.validate_instance, inst,
                             config.gain, config.weighting, config.dedup_hypotheses)
        matrix = spans.call("metrics.gain_matrix_s", metrics.gain_matrix, checked, config.gain)
        wv = spans.call("weighting.compute_weights_s", weighting.compute_weights,
                        checked, config.weighting, config.gain)
        gains = spans.call("decoder.expected_gains_s", decoder.expected_gains, matrix, wv.weights)
        index, tie = spans.call("decoder.select_s", decoder.select, gains,
                                checked.hypotheses, config.tie_break, config.gain)
        results.append((inst.id, types.DecodeResult(
            selected_index=index,
            selected_text=checked.hypotheses[index].text,
            gain_estimates=tuple(float(g) for g in gains),
            weights=tuple(float(w) for w in wv.weights),
            tie_broken=tie,
            ess=wv.ess,
        )))
        counts["decoder.ties"] += int(tie)
    out = [spans.call("io.serialize_s", io.dumps, io.result_record(i, r, echo)) + "\n"
           for i, r in results]
    spans.seconds["trace.pass_s"] = time.perf_counter() - start
    text = "".join(out)
    counts["io.bytes_out"] = len(text.encode("utf-8"))
    return text, spans, dict(counts)


def untraced_pass(path: str, config: cli.RunConfig) -> tuple[str, float, list[float]]:
    """(output text, wall seconds, seconds of each `decoder.decode` call)."""
    start = time.perf_counter()
    instances = _parse(path, None)
    echo = cli.config_echo(config)
    results, per_call = [], []
    for inst in instances:
        t = time.perf_counter()
        results.append(decoder.decode(inst, config.gain, config.weighting,
                                      tie_break=config.tie_break,
                                      dedup_hypotheses=config.dedup_hypotheses))
        per_call.append(time.perf_counter() - t)
    text = "".join(io.dumps(io.result_record(inst.id, r, echo)) + "\n"
                   for inst, r in zip(instances, results))
    return text, time.perf_counter() - start, per_call


def _gain_keys(cands, spec: types.GainSpec) -> list:
    # What the gain compares: stripped answers for answer match, token
    # sequences otherwise.
    if spec.kind == "answer_match":
        return [c.answer.strip() for c in cands]
    return [metrics.candidate_tokens(c, spec) for c in cands]


def prep_pass(path: str, config: cli.RunConfig) -> tuple[float, dict]:
    """(seconds of candidate_tokens plus n-gram counting over every candidate,
    candidate and gain-cell counts with and without duplicates).

    BLEU counts every order up to its maximum with the per-order counters
    its path in `metrics.gain_matrix` builds; every other gain counts order
    `n` with `ngram_counts`, including gains that use no n-grams, where the
    time is what the work would cost and should move nothing end to end.
    """
    spec = config.gain
    if spec.kind == "sentence_bleu":
        def count(toks):
            metrics._order_counters(toks, spec.max_order)
    else:
        def count(toks):
            metrics.ngram_counts(toks, spec.n)
    checked = [types.validate_instance(inst, spec, types.WeightSpec(), config.dedup_hypotheses)
               for inst in _parse(path, None)]
    start = time.perf_counter()
    for inst in checked:
        for c in inst.evidence + inst.hypotheses:
            count(metrics.candidate_tokens(c, spec))
    seconds = time.perf_counter() - start
    counts = defaultdict(int)
    for inst in checked:
        ev = len(set(_gain_keys(inst.evidence, spec)))
        hy = len(set(_gain_keys(inst.hypotheses, spec)))
        counts["metrics.candidates"] += len(inst.evidence) + len(inst.hypotheses)
        counts["metrics.distinct_candidates"] += ev + hy
        counts["metrics.gain_cells"] += len(inst.evidence) * len(inst.hypotheses)
        counts["metrics.distinct_gain_cells"] += ev * hy
    return seconds, dict(counts)
