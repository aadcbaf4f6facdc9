"""Reference figures quoted in bench/README.md.

Usage (from the root of a checkout): python3 bench/figures.py [--seed N]

Prints, as JSON:

- `gain_matrix` seconds with `jobs=1` and `jobs=2` (its thread pool) on the
  middle instance of the rouge1-dup and bleu4-distinct batches, median of
  nine alternating calls each;
- `mbrkit decode` instances/s with `--jobs 1` and `--jobs 2` (the CLI's
  process pool) on the bleu4-distinct and vote-batch batches, median of
  three alternating runs each;
- the share of candidates and of gain cells that are distinct, per
  workload;
- per rouge1-dup line, the largest token count of any candidate and the
  `gain_matrix` seconds, median of three calls.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from mbrkit import io, metrics, types  # noqa: E402
from workloads import WORKLOADS, write_batch  # noqa: E402


def thread_speedup(name: str, seed: int, work: Path) -> dict:
    src = work / f"{name}.jsonl"
    workload = WORKLOADS[name]
    write_batch(workload, seed, workload.batch_lines, str(src))
    # The middle line of the batch has the median base length.
    line = workload.batch_lines // 2
    raw = src.read_text(encoding="utf-8").splitlines()[line]
    config = tracing.run_config(workload.flags)
    inst = types.validate_instance(io.parse_instance_line(raw, line + 1),
                                   config.gain, config.weighting)
    # The two settings take turns, so that drift of the host's speed falls
    # on both alike.
    times = {1: [], 2: []}
    for _ in range(9):
        for jobs in (1, 2):
            start = time.perf_counter()
            metrics.gain_matrix(inst, config.gain, jobs=jobs)
            times[jobs].append(time.perf_counter() - start)
    return {f"jobs{jobs}_s": statistics.median(t) for jobs, t in times.items()}


def cli_jobs(name: str, seed: int, work: Path) -> dict:
    workload = WORKLOADS[name]
    src = work / f"{name}.jsonl"
    lines = len(write_batch(workload, seed, workload.batch_lines, str(src)))
    rates = {"1": [], "2": []}
    for _ in range(3):
        for jobs in rates:
            # A later --jobs overrides the workload's own.
            info = run.decode_batch(work, [*workload.flags, "--jobs", jobs], src,
                                    work / f"{name}.out")
            rates[jobs].append(lines / (info["done"] - info["ready"]))
    return {"lines": lines,
            **{f"jobs{jobs}_inst_per_s": statistics.median(r) for jobs, r in rates.items()}}


def distinct_shares(seed: int, work: Path) -> dict:
    out = {}
    for name, workload in WORKLOADS.items():
        src = work / f"{name}.jsonl"
        write_batch(workload, seed, workload.batch_lines, str(src))
        _, counts = tracing.prep_pass(str(src), tracing.run_config(workload.flags))
        out[name] = {
            "distinct_candidates": counts["metrics.distinct_candidates"] / counts["metrics.candidates"],
            "distinct_gain_cells": counts["metrics.distinct_gain_cells"] / counts["metrics.gain_cells"],
        }
    return out


def repeat_costs(seed: int, work: Path) -> dict:
    workload = WORKLOADS["rouge1-dup"]
    src = work / "rouge1-dup.jsonl"
    write_batch(workload, seed, workload.batch_lines, str(src))
    config = tracing.run_config(workload.flags)
    largest, seconds = [], []
    for no, raw in enumerate(src.read_text(encoding="utf-8").splitlines(), 1):
        inst = types.validate_instance(io.parse_instance_line(raw, no),
                                       config.gain, config.weighting)
        largest.append(max(max(metrics.ngram_counts(metrics.candidate_tokens(c, config.gain),
                                                    1).counts.values())
                           for c in inst.evidence))
        times = []
        for _ in range(3):
            start = time.perf_counter()
            metrics.gain_matrix(inst, config.gain)
            times.append(time.perf_counter() - start)
        seconds.append(statistics.median(times))
    return {"largest_count": largest, "gain_matrix_s": seconds}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    work = ROOT / ".bench_work" / "figures"
    work.mkdir(parents=True, exist_ok=True)
    print(json.dumps({
        "gain_matrix_threads": {name: thread_speedup(name, args.seed, work)
                                for name in ("rouge1-dup", "bleu4-distinct")},
        "cli_jobs": {name: cli_jobs(name, args.seed, work)
                     for name in ("bleu4-distinct", "vote-batch")},
        "distinct_share": distinct_shares(args.seed, work),
        "rouge1_dup_repeats": repeat_costs(args.seed, work),
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
