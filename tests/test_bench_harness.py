"""The benchmark's trace harness (bench/tracing.py) against the CLI.

The harness calls the package's functions positionally, outside the CLI,
so a change of their signatures or of their output would break the
benchmark without failing any other test. Each workload decodes a small
batch here in process through the CLI and through the harness's passes.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from mbrkit.cli import run

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name: str):
    """bench/<name>.py as a module, registered in sys.modules only while
    it loads (its dataclasses look their module up there)."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def harness():
    return load_bench_module("workloads"), load_bench_module("tracing")


@pytest.mark.parametrize("name, lines", [("rouge1-dup", 3), ("bleu4-distinct", 3),
                                         ("vote-batch", 200)])
def test_trace_passes_give_the_cli_output(tmp_path, harness, name, lines):
    workloads, tracing = harness
    workload = workloads.WORKLOADS[name]
    batch, out = tmp_path / "batch.jsonl", tmp_path / "out.jsonl"
    workloads.write_batch(workload, 1, lines, str(batch))
    assert run([*workload.flags, "--input", str(batch), "--output", str(out)]) == 0
    cli_text = out.read_text(encoding="utf-8")
    records = [json.loads(line) for line in cli_text.splitlines()]
    assert len(records) == lines
    assert all(r["config_echo"] == workload.config_echo for r in records)

    config = tracing.run_config(workload.flags)
    traced, spans, counts = tracing.traced_pass(str(batch), config)
    untraced, _, per_call = tracing.untraced_pass(str(batch), config)
    assert traced == cli_text
    assert untraced == cli_text
    assert len(per_call) == lines
    assert counts["io.bytes_out"] == len(cli_text.encode("utf-8"))
    assert "io.parse_s" in spans.seconds and "decoder.select_s" in spans.seconds

    prep_s, shape = tracing.prep_pass(str(batch), config)
    assert prep_s >= 0.0
    assert 0 < shape["metrics.distinct_candidates"] <= shape["metrics.candidates"]
