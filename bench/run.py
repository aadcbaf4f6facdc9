"""Whole-batch decode benchmark for `mbrkit decode`.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's batch from the seed, then, with --trace 0, runs
`mbrkit decode` on it in a fresh process per batch until S seconds have
passed and reports the end-to-end metrics: lines per second of decode time
over all batches, the median set-up time over every launch, and the median
peak memory per batch. S defaults to `run_seconds` in BENCHMARK.json.
With --trace 1 it instead repeats a round of one untraced CLI run plus
traced and untraced in-process passes over the same batch, and reports
per-layer metrics.
Every output is checked against an MBR reference that imports nothing
from `mbrkit`. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Scratch files go to `.bench_work/` in the checkout. Exits 2 without a
result when the checkout has no `src/mbrkit`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import RefSpec, check_output  # noqa: E402
from workloads import WORKLOADS, write_batch  # noqa: E402

#: Seconds one run measures when --seconds is not given.
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

REFERENCE = {
    "rouge1-dup": RefSpec("rouge1", "length_norm", 1.0),
    "bleu4-distinct": RefSpec("bleu4"),
    "vote-batch": RefSpec("answer"),
}
#: Leading lines of the bleu4-distinct batch decoded again with the other
#: --jobs count (2 against the workload's 1) and byte-compared.
JOBS_CHECK_LINES = 6


def report(problems: list[str]) -> None:
    """Print the first correctness problems found; any one makes a run incorrect."""
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)


def launch(work: Path, argv: list[str]) -> dict:
    """Run bench/launch.py with mbrkit arguments `argv`; return its stamp
    plus ``setup_s``, the time from starting the process to `ready`."""
    stamp = work / "stamp.json"
    stamp.unlink(missing_ok=True)
    err = work / "stderr.txt"
    start = time.monotonic()
    with open(err, "w", encoding="utf-8") as stderr:
        proc = subprocess.run([sys.executable, str(HERE / "launch.py"), str(stamp), *argv],
                              stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=stderr, cwd=ROOT, check=False)
    if not stamp.is_file():
        sys.stderr.write(err.read_text(encoding="utf-8", errors="replace")[-2000:])
        raise SystemExit(f"mbrkit exited with {proc.returncode} before finishing")
    info = json.loads(stamp.read_text(encoding="utf-8"))
    info["setup_s"] = info["ready"] - start
    info["stderr"] = err.read_text(encoding="utf-8", errors="replace")
    return info


def decode_batch(work: Path, flags, src: Path, out: Path) -> dict:
    return launch(work, [*flags, "--input", str(src), "--output", str(out)])


def read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines() if path.is_file() else []


def check_batch(name: str, records: list[dict], out: Path, info: dict,
                problems: list[str]) -> int:
    """Reference-check one CLI output; return the number of failed lines."""
    lines = read_lines(out)
    if info["code"] != 0 or info["stderr"].strip():
        problems.append(f"mbrkit exited {info['code']}: {info['stderr'].strip()[:500]}")
    problems.extend(check_output(records, lines, REFERENCE[name], WORKLOADS[name].config_echo))
    return max(0, len(records) - len(lines)) if info["code"] != 0 else 0


def check_jobs_identity(work: Path, flags, src: Path, out: Path, problems: list[str]) -> None:
    """Decode the first lines again with the other --jobs count (1 in-line,
    2 through the process pool); the bytes must match."""
    if "--jobs" not in flags:
        return
    head = src.read_text(encoding="utf-8").splitlines(keepends=True)[:JOBS_CHECK_LINES]
    sub_in, sub_out = work / "jobs.jsonl", work / "jobs.out"
    sub_in.write_text("".join(head), encoding="utf-8")
    other = list(flags)
    at = other.index("--jobs") + 1
    other[at] = "2" if other[at] == "1" else "1"
    decode_batch(work, other, sub_in, sub_out)
    want = out.read_bytes().splitlines(keepends=True)[:len(head)]
    if sub_out.read_bytes() != b"".join(want):
        problems.append(f"--jobs {other[at]} output differs from {' '.join(flags)} on the "
                        f"first {len(head)} lines")


def end_to_end(name: str, seconds: float, work: Path, src: Path,
               records: list[dict]) -> dict:
    flags = WORKLOADS[name].flags
    problems: list[str] = []
    launch(work, [])  # writes bytecode caches, so set-up is timed warm
    first, out = work / "first.out", work / "batch.out"
    decode_s, rss, setups, batches = 0.0, [], [], 0
    begin = time.monotonic()
    while batches == 0 or time.monotonic() - begin < seconds:
        info = decode_batch(work, flags, src, first if batches == 0 else out)
        # An import-only launch after each batch doubles the set-up samples.
        setups += [info["setup_s"], launch(work, [])["setup_s"]]
        decode_s += info["done"] - info["ready"]
        rss.append(info["rss_kb"] / 1024.0)
        if batches == 0:
            info0 = info
        elif info["code"] != 0 or out.read_bytes() != first.read_bytes():
            problems.append(f"batch {batches} output differs from batch 0")
        batches += 1
    failed = check_batch(name, records, first, info0, problems)
    check_jobs_identity(work, flags, src, first, problems)
    report(problems)
    return {
        "correct": not problems,
        "attempted": batches * len(records),
        "failed": batches * failed,
        "metrics": {
            # Lines over decode time summed across batches: single batches
            # scatter by about 20 % on this host, and the total uses them all.
            "instances_per_s": {"value": batches * len(records) / decode_s, "unit": "inst/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        },
    }


def import_times() -> dict[str, float]:
    """Cumulative import seconds of mbrkit.metrics and mbrkit.cli in a fresh
    process, from `python -X importtime`."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import mbrkit.cli"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                          stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, check=True)
    found = {}
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] in ("mbrkit.metrics", "mbrkit.cli"):
            found[parts[2]] = int(parts[1]) / 1e6
    return found


def per_layer(name: str, seconds: float, work: Path, src: Path,
              records: list[dict]) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import tracing

    flags = WORKLOADS[name].flags
    config = tracing.run_config(flags)
    problems: list[str] = []
    launch(work, [])
    first, out = work / "first.out", work / "batch.out"
    rounds: list[dict] = []
    per_call: list[float] = []
    begin = time.monotonic()
    while not rounds or time.monotonic() - begin < seconds:
        target = first if not rounds else out
        info = decode_batch(work, flags, src, target)
        if not rounds:
            info0 = info
        cli_bytes = target.read_text(encoding="utf-8")
        if cli_bytes != first.read_text(encoding="utf-8"):
            problems.append(f"round {len(rounds)} CLI output differs from round 0")
        # The second pass in a process runs in memory the first one freed,
        # so the two passes take turns going first.
        if len(rounds) % 2:
            untraced, untraced_s, calls = tracing.untraced_pass(str(src), config)
        traced, spans, counts = tracing.traced_pass(str(src), config)
        if not len(rounds) % 2:
            untraced, untraced_s, calls = tracing.untraced_pass(str(src), config)
        prep_s, shape = tracing.prep_pass(str(src), config)
        if traced != cli_bytes:
            problems.append("traced pass output differs from the CLI output")
        if untraced != cli_bytes:
            problems.append("untraced pass output differs from the CLI output")
        layer_s = sum(v for k, v in spans.seconds.items() if not k.startswith("trace."))
        pool = "--jobs" in flags and int(flags[flags.index("--jobs") + 1]) > 1
        worker_cpu = info["children_cpu_s"] if pool else info["cpu_s"]
        worker_rss = info["children_rss_kb"] if pool else info["rss_kb"]
        row = dict(spans.seconds)
        row.update({
            "metrics.ngram_prep_s": prep_s,
            "cli.run_s": info["done"] - info["ready"],
            "cli.parent_cpu_s": info["cpu_s"],
            "cli.worker_cpu_s": worker_cpu,
            "cli.worker_peak_rss_mb": worker_rss / 1024.0,
            "cli.unaccounted_s": info["cpu_s"] + (worker_cpu if pool else 0.0) - layer_s,
            "trace.overhead_s": spans.seconds["trace.pass_s"] - untraced_s,
        })
        imports = import_times()
        row["metrics.import_s"] = imports["mbrkit.metrics"]
        row["cli.import_s"] = imports["mbrkit.cli"]
        rounds.append(row)
        per_call.extend(calls)
    failed = check_batch(name, records, first, info0, problems)
    check_jobs_identity(work, flags, src, first, problems)
    report(problems)
    metrics = {}
    for key in rounds[0]:
        if key == "trace.pass_s":
            continue
        unit = "MB" if key.endswith("_mb") else "s"
        metrics[key] = {"value": statistics.median(r[key] for r in rounds), "unit": unit}
    metrics["decoder.decode_p50_ms"] = {"value": 1000.0 * statistics.median(per_call),
                                        "unit": "ms"}
    metrics["io.bytes_in"] = {"value": src.stat().st_size, "unit": "bytes"}
    for key, value in {**counts, **shape}.items():
        unit = "bytes" if key.startswith("io.bytes") else "count"
        metrics[key] = {"value": value, "unit": unit}
    return {
        "correct": not problems,
        "attempted": len(rounds) * len(records),
        "failed": len(rounds) * failed,
        "metrics": dict(sorted(metrics.items())),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mbrkit" / "cli.py").is_file():
        print(f"no mbrkit sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    src = work / "input.jsonl"
    workload = WORKLOADS[args.workload]
    records = write_batch(workload, args.seed, workload.batch_lines, str(src))
    run = per_layer if args.trace else end_to_end
    result = run(args.workload, args.seconds, work, src, records)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
