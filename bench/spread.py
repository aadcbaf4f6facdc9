"""Run the benchmark once per seed and summarise each metric's spread.

Usage (from the root of a checkout):

    python3 bench/spread.py --workload NAME --seeds 1-10 [--seconds S] [--trace 0|1]

Prints each run's result line, then per metric the median, the first and
third quartiles (`statistics.quantiles(values, n=4)`) and the spread
(Q3 - Q1) / median, plus whether every run was correct and the share of
failed operations. This is how the figures in bench/README.md were made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import RUN_SECONDS  # noqa: E402


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        line = proc.stdout.strip().splitlines()[-1]
        print(f"seed {seed}: {line}", flush=True)
        results.append(json.loads(line))
    print(f"workload {args.workload}, {len(results)} runs of {args.seconds} s: "
          f"all correct {all(r['correct'] for r in results)}, failed/attempted "
          f"{sorted({r['failed'] / r['attempted'] for r in results})}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{name}: median {statistics.median(values):.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {(q3 - q1) / statistics.median(values):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
