"""The benchmark's trace harness (bench/tracing.py) against the CLI.

The harness calls the package's functions positionally, outside the CLI,
so a change of their signatures or of their output would break the
benchmark without failing any other test. Each workload decodes a small
batch here in process through the CLI and through the harness's passes.
"""

import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from mbrkit import metrics, types
from mbrkit.cli import run
from mbrkit.io import parse_instance_line

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


# SHA-256 of the CLI output of each workload's seed-1 batch (3, 3 and 200
# lines): a change that moves any byte of the three workloads' output
# fails here, and only a change meant to move them re-pins these.
CLI_DIGESTS = {
    "rouge1-dup": "d953d6d1c3b8025c3d3299877d6d17feb28287e46d96caa3f043260763466545",
    "bleu4-distinct": "90dd3c4a51fdf04e98ceb343a49ad9511e0a6a3c27e93c91f4982ab91e7e8279",
    "vote-batch": "f14d59b1335bc4ded0bea30684222354b0dba459651a85e3d5378399ba09d5e8",
}

# The same digests for the batches of seeds 2 and 3, of the same sizes.
MORE_CLI_DIGESTS = {
    ("rouge1-dup", 2): "c88da04756ffe794b519665d5733ea28e002e30b642edac2f39ebccfab3ca816",
    ("rouge1-dup", 3): "9cdf81abdf13703aaec28881073892c31c95de014e4ae694f0057d74da12d92d",
    ("bleu4-distinct", 2): "48c23b976048fa8efddaaa4d28e9315d1127fc2e5adec2d94a066118cae38d85",
    ("bleu4-distinct", 3): "b0677d6a5b9cf0c31ad28f6014296b08106c03882cb42ae7aed3d215e15f388f",
    ("vote-batch", 2): "34a4106efc46e8537819cc14c80a85a15e144abee364e418878a2c6463d46d5c",
    ("vote-batch", 3): "8e9ad12d0fc30f69e7471477ac1b0cc7d5b03233c58b4f398f788bb704e5a7c0",
}
BATCH_LINES = {"rouge1-dup": 3, "bleu4-distinct": 3, "vote-batch": 200}


@pytest.mark.parametrize("name, lines", [("rouge1-dup", 3), ("bleu4-distinct", 3),
                                         ("vote-batch", 200)])
def test_trace_passes_give_the_cli_output(tmp_path, harness, name, lines):
    workloads, tracing = harness
    workload = workloads.WORKLOADS[name]
    batch, out = tmp_path / "batch.jsonl", tmp_path / "out.jsonl"
    workloads.write_batch(workload, 1, lines, str(batch))
    assert run([*workload.flags, "--input", str(batch), "--output", str(out)]) == 0
    cli_text = out.read_text(encoding="utf-8")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CLI_DIGESTS[name]
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
    # The benchmark's distinct counters count the keys the gain table is built on.
    checked = [types.validate_instance(parse_instance_line(raw, no), config.gain,
                                       config.weighting, config.dedup_hypotheses)
               for no, raw in enumerate(batch.read_text(encoding="utf-8").splitlines(), 1)]
    cells = sum(math.prod(metrics.gain_table(inst, config.gain).shape) for inst in checked)
    assert cells == shape["metrics.distinct_gain_cells"]


@pytest.mark.parametrize("name, seed", sorted(MORE_CLI_DIGESTS))
def test_cli_output_is_pinned_at_more_seeds(tmp_path, harness, name, seed):
    workloads, _ = harness
    workload = workloads.WORKLOADS[name]
    batch, out = tmp_path / "batch.jsonl", tmp_path / "out.jsonl"
    workloads.write_batch(workload, seed, BATCH_LINES[name], str(batch))
    assert run([*workload.flags, "--input", str(batch), "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MORE_CLI_DIGESTS[name, seed]
