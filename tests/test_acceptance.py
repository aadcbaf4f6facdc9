"""Acceptance gate: one test per criterion, thresholds pinned.

Each test prints a single PASS line with its measured margin when it
succeeds; a failing criterion shows up as a failing test. Randomized
criteria use fixed seeds so the margins are reproducible.
"""

import math
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mbrkit import (
    Candidate,
    GainSpec,
    Instance,
    ToyDistribution,
    WeightSpec,
    compute_weights,
    decode,
    expected_gains,
    gain_matrix,
    ngram_counts,
    range_vote,
    rouge_kernel,
    self_consistency,
    validate_instance,
)
from mbrkit.cli import run
from mbrkit.metrics import gain_table

FIXTURES = Path(__file__).parent / "fixtures"
ROUGE1 = GainSpec(kind="rouge_n_kernel", n=1)
EXACT = GainSpec(kind="exact_match")
UNIFORM = WeightSpec()


def report(num, detail):
    print(f"[criterion {num:02d}] PASS - {detail}")


def random_token_pair(rng, vocab_size, max_len):
    def tokens():
        length = int(rng.integers(0, max_len + 1))
        return tuple(f"t{int(i)}" for i in rng.integers(0, vocab_size, size=length))

    return tokens(), tokens()


def overlap_form(a, b, n):
    """The 2*sum(min)/totals form, computed independently of the package."""
    a_counts = Counter(tuple(a[i:i + n]) for i in range(len(a) - n + 1))
    b_counts = Counter(tuple(b[i:i + n]) for i in range(len(b) - n + 1))
    total = sum(a_counts.values()) + sum(b_counts.values())
    if total == 0:
        return 1.0
    return 2.0 * sum((a_counts & b_counts).values()) / total


def test_criterion_01_kernel_identity():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    pairs = 10_000
    worst = 0.0
    for _ in range(pairs):
        n = int(rng.integers(1, 4))
        a, b = random_token_pair(rng, vocab_size=20, max_len=30)
        l1_form = rouge_kernel(ngram_counts(a, n), ngram_counts(b, n))
        worst = max(worst, abs(l1_form - overlap_form(a, b, n)))
        assert abs(l1_form - overlap_form(a, b, n)) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(1, f"{pairs} pairs, max |L1 - overlap| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_mode_recovery():
    rng = np.random.default_rng(102)
    pool = [("a",), ("a", "b"), ("b",), ("b", "a"), ("a", "a", "b"), ("b", "b")]
    for _ in range(1000):
        size = int(rng.integers(1, 12))
        draws = [pool[int(i)] for i in rng.integers(0, len(pool), size=size)]
        inst = Instance(
            id="m",
            evidence=tuple(Candidate(text=" ".join(t), tokens=t) for t in draws),
        )
        result = decode(inst, EXACT, UNIFORM)
        counts = Counter(draws)
        assert counts[draws[result.selected_index]] == max(counts.values())
    report(2, "1000 random multisets, selection always modal")


def test_criterion_03_self_consistency_equivalence():
    rng = np.random.default_rng(103)
    for _ in range(1000):
        size = int(rng.integers(1, 14))
        answers = [str(int(a)) for a in rng.integers(0, 5, size=size)]
        inst = Instance(
            id="v",
            evidence=tuple(Candidate(text=a, answer=a) for a in answers),
        )
        result = self_consistency(inst, tie_break="first")
        counts = Counter(answers)
        top = max(counts.values())
        assert counts[result.answer] == top
        assert result.votes == top
        first_modal = min(i for i, a in enumerate(answers) if counts[a] == top)
        assert result.selected_index == first_modal
    report(3, "1000 answer multisets, winner always has maximal votes, ties go first")


def test_criterion_04_range_voting_equivalence():
    rng = np.random.default_rng(104)
    vocab = ("a", "b", "c")
    for _ in range(1000):
        def tokens():
            length = int(rng.integers(1, 6))
            return tuple(vocab[int(i)] for i in rng.integers(0, 3, size=length))

        evidence = tuple(
            Candidate(text=" ".join(t), tokens=t)
            for t in (tokens() for _ in range(int(rng.integers(1, 8))))
        )
        hypotheses = tuple(
            Candidate(text=" ".join(t), tokens=t)
            for t in (tokens() for _ in range(int(rng.integers(1, 6))))
        )
        inst = Instance(id="rv", evidence=evidence, hypotheses=hypotheses)
        assert range_vote(inst, ROUGE1).selected_index == \
            decode(inst, ROUGE1, UNIFORM).selected_index
    report(4, "1000 instances, range_vote and uniform decode always agree")


def test_criterion_05_degeneracy_exact():
    rng = np.random.default_rng(105)
    degenerate = [
        WeightSpec(kind="temperature", tau=1.0),
        WeightSpec(kind="length_norm", beta=0.0),
        WeightSpec(kind="length_reward", gamma=0.0),
    ]
    for _ in range(100):
        n = int(rng.integers(2, 10))
        evidence = tuple(
            Candidate(
                text=" ".join("w" for _ in range(int(rng.integers(1, 7)))),
                score=float(-rng.exponential(3.0)),
            )
            for _ in range(n)
        )
        inst = Instance(id="d", evidence=evidence)
        checked = validate_instance(inst, ROUGE1, UNIFORM)
        base_weights = compute_weights(checked, UNIFORM, ROUGE1).weights
        base_result = decode(inst, ROUGE1, UNIFORM)
        for spec in degenerate:
            weights = compute_weights(checked, spec, ROUGE1).weights
            assert np.array_equal(weights, base_weights)
            assert decode(inst, ROUGE1, spec) == base_result
    report(5, "100 instances x 3 degenerate settings, weights and decodes bit-equal")


def test_criterion_06_monte_carlo_consistency():
    rng = np.random.default_rng(66)
    start = time.monotonic()
    n = 10_000
    matches = 0
    se_ok = 0
    se_total = 0
    for k in range(100):
        dist = ToyDistribution.random(("a", "b"), 4, rng, scale=1.0)
        space = [s for s, _ in dist.enumerate_space()]
        evidence = tuple(dist.sample(n, seed=3000 + k))
        hypotheses = tuple(dist.candidate(s) for s in space)
        inst = Instance(id=f"mc{k}", evidence=evidence, hypotheses=hypotheses)
        result = decode(inst, ROUGE1, UNIFORM)
        matches += result.selected_text == dist.exact_mbr(space, ROUGE1)

        checked = validate_instance(inst, ROUGE1, UNIFORM)
        matrix = gain_matrix(checked, ROUGE1)
        mc_gains = np.asarray(result.gain_estimates)
        exact_gains = np.array([dist.expected_gain(s, ROUGE1) for s in space])
        se = matrix.std(axis=0, ddof=1) / math.sqrt(n)
        within = np.abs(mc_gains - exact_gains) <= 5.0 * se + 1e-12
        se_ok += int(within.sum())
        se_total += within.size
    elapsed = time.monotonic() - start
    assert matches >= 95
    assert se_ok / se_total >= 0.99
    assert elapsed < 120.0
    report(6, f"exact-MBR match {matches}/100, gains within 5 SE "
              f"{se_ok}/{se_total}, {elapsed:.1f}s")


def test_criterion_07_importance_sampling_correctness():
    rng = np.random.default_rng(77)
    start = time.monotonic()
    specs = [
        WeightSpec(kind="length_reward", gamma=0.5),
        WeightSpec(kind="length_reward", gamma=1.0),
        WeightSpec(kind="length_norm", beta=0.5),
        WeightSpec(kind="length_norm", beta=1.0),
    ]
    n = 100_000
    worst = 0.0
    for k in range(20):
        dist = ToyDistribution.random(("a", "b"), 4, rng, scale=1.0)
        space = [s for s, _ in dist.enumerate_space()]
        evidence = tuple(dist.sample(n, seed=9000 + k))
        hypotheses = tuple(dist.candidate(s) for s in space)
        inst = validate_instance(
            Instance(id=f"is{k}", evidence=evidence, hypotheses=hypotheses),
            ROUGE1, UNIFORM,
        )
        # One table per distribution: the token sequences it keeps on the
        # instance's evidence Side give every correction its lengths, so
        # the 100k samples are interned and tokenized once.
        table = gain_table(inst, ROUGE1)
        matrix = table.matrix()
        for spec in specs:
            weights = compute_weights(inst, spec, ROUGE1)
            estimate = expected_gains(matrix, weights)
            target = dist.corrected(spec)
            exact = np.array([target.expected_gain(s, ROUGE1) for s in space])
            rel = np.abs(estimate - exact) / np.abs(exact)
            worst = max(worst, float(rel.max()))
            assert np.all(rel <= 0.05)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(7, f"20 dists x 4 corrections, worst relative error "
              f"{worst:.4f} (limit 0.05), {elapsed:.1f}s")


def test_criterion_08_sampler_fidelity():
    rng = np.random.default_rng(108)
    n = 100_000
    dists = [
        ToyDistribution(vocab=("a", "b"), max_len=1,
                        logits={"a": math.log(3.0), "b": 0.0}),
    ]
    dists += [ToyDistribution.random(("a", "b"), 4, rng, scale=1.5) for _ in range(4)]
    worst = 0.0
    for k, dist in enumerate(dists):
        space = dist.enumerate_space()
        assert len(space) <= 30
        freq = Counter(c.text for c in dist.sample(n, seed=500 + k))
        for seq, p in space:
            gap = abs(freq[seq] / n - p)
            worst = max(worst, gap)
            assert gap <= 0.01
    report(8, f"{len(dists)} distributions, worst |freq - p| = {worst:.4f} (limit 0.01)")


def test_criterion_09_throughput():
    rng = np.random.default_rng(109)
    vocab = [f"w{i}" for i in range(20)]
    def candidate():
        tokens = tuple(vocab[int(i)] for i in rng.integers(0, 20, size=30))
        return Candidate(text=" ".join(tokens), tokens=tokens)

    cands = tuple(candidate() for _ in range(1000))
    inst = validate_instance(
        Instance(id="big", evidence=cands, hypotheses=cands), ROUGE1, UNIFORM
    )
    start = time.monotonic()
    parallel = gain_matrix(inst, ROUGE1, jobs=8)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    sequential = gain_matrix(inst, ROUGE1, jobs=1)
    assert np.array_equal(parallel, sequential)
    report(9, f"1000x1000 matrix in {elapsed:.2f}s with jobs=8, identical to sequential")


GOLDEN_GRID = [
    ("exact", ["--metric", "exact"]),
    ("rouge1", ["--metric", "rouge", "--ngram", "1"]),
    ("bleu4", ["--metric", "bleu", "--bleu-order", "4"]),
]
WEIGHTING_GRID = [
    ("uniform", ["--weighting", "uniform"]),
    ("temperature", ["--weighting", "temperature", "--tau", "0.5"]),
    ("length_norm", ["--weighting", "length-norm", "--beta", "1.0"]),
    ("length_reward", ["--weighting", "length-reward", "--gamma", "0.5"]),
    ("mixture", ["--weighting", "mixture", "--mixture", "m0=0.7,m1=0.3"]),
]


def test_criterion_10_cli_golden(tmp_path):
    toy = FIXTURES / "toy.jsonl"
    checked = 0
    for gain_name, gain_flags in GOLDEN_GRID:
        for weight_name, weight_flags in WEIGHTING_GRID:
            out = tmp_path / f"{gain_name}_{weight_name}.jsonl"
            code = run(["decode", *gain_flags, *weight_flags,
                        "--input", str(toy), "--output", str(out)])
            assert code == 0
            golden = FIXTURES / "golden" / f"{gain_name}_{weight_name}.jsonl"
            assert out.read_bytes() == golden.read_bytes(), (gain_name, weight_name)
            checked += 1
    assert checked == 15
    report(10, "15 metric x weighting runs byte-identical to committed golden files")
