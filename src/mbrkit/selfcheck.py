"""Built-in invariant suite behind the `selfcheck` subcommand.

Small, fast, seeded spot checks of the properties the engine leans on:
kernel identities against an independent Counter form, gain-matrix cells
that do not depend on the batch around them (each equals its own 1x1
matrix), voting equivalences, weight normalization, sampler fidelity,
and IO round-tripping. These duplicate
a slice of the test suite on purpose so a deployed copy can vouch for
itself without a test runner installed.
"""

from __future__ import annotations

import io as stdio
import sys
from collections import Counter
from dataclasses import replace
from typing import IO

import numpy as np

from .decoder import decode, range_vote, self_consistency
from .io import read_instances, write_instances
from .metrics import gain_matrix, ngram_counts, pair_gain, rouge_kernel
from .oracle import ToyDistribution
from .types import Candidate, GainSpec, Instance, WeightSpec
from .weighting import compute_weights


def _random_tokens(rng: np.random.Generator, vocab=("a", "b", "c"), max_len=6) -> tuple[str, ...]:
    length = int(rng.integers(0, max_len + 1))
    return tuple(str(vocab[int(i)]) for i in rng.integers(0, len(vocab), size=length))


def _random_instance(rng: np.random.Generator, n_evidence=6, with_extras=False) -> Instance:
    def cand() -> Candidate:
        tokens = _random_tokens(rng)
        extras = {}
        if with_extras:
            extras = {
                "score": float(-rng.exponential(1.0)),
                "answer": tokens[0] if tokens else "none",
                "model_id": f"m{int(rng.integers(0, 2))}",
            }
        return Candidate(text=" ".join(tokens), tokens=tokens, **extras)

    return Instance(id="chk", evidence=tuple(cand() for _ in range(n_evidence)))


def _scored_instance(rng: np.random.Generator) -> Instance:
    """A random instance with extras whose zero-token candidates are padded
    to "a": the length-corrected kinds reject zero-token candidates."""
    inst = _random_instance(rng, with_extras=True)
    return replace(inst, evidence=tuple(c if c.tokens else replace(c, text="a", tokens=("a",))
                                        for c in inst.evidence))


def check_kernel_identity() -> None:
    rng = np.random.default_rng(11)
    spec = GainSpec(kind="rouge_n_kernel", n=1)
    for _ in range(300):
        a = Candidate(text="", tokens=_random_tokens(rng))
        b = Candidate(text="", tokens=_random_tokens(rng))
        got = pair_gain(a, b, spec)
        ca, cb = Counter(a.tokens), Counter(b.tokens)
        overlap = sum((ca & cb).values())
        total = len(a.tokens) + len(b.tokens)
        want = 1.0 if total == 0 else 2.0 * overlap / total
        assert abs(got - want) <= 1e-12, f"{got} != {want}"
        assert 0.0 <= got <= 1.0
        assert got == pair_gain(b, a, spec), "kernel must be symmetric"


def check_kernel_edges() -> None:
    spec = GainSpec(kind="rouge_n_kernel", n=1)
    empty = Candidate(text="", tokens=())
    full = Candidate(text="a", tokens=("a",))
    assert pair_gain(empty, empty, spec) == 1.0
    assert pair_gain(empty, full, spec) == 0.0
    counts = ngram_counts(("a", "b", "a"), 1)
    assert rouge_kernel(counts, counts) == 1.0


def check_matrix_matches_scalar() -> None:
    rng = np.random.default_rng(12)
    specs = [
        GainSpec(kind="rouge_n_kernel", n=2),
        GainSpec(kind="exact_match"),
        GainSpec(kind="sentence_bleu"),
    ]
    for spec in specs:
        inst = _random_instance(rng, n_evidence=8)
        matrix = gain_matrix(inst, spec)
        for i, ev in enumerate(inst.evidence):
            for j, hyp in enumerate(inst.evidence):
                assert matrix[i, j] == pair_gain(ev, hyp, spec), (
                    f"matrix[{i},{j}] disagrees with the scalar gain for {spec.kind}"
                )


def check_mode_recovery() -> None:
    rng = np.random.default_rng(13)
    spec = GainSpec(kind="exact_match")
    for _ in range(100):
        pool = [("a",), ("a", "b"), ("b",), ("b", "b", "a")]
        draws = [pool[int(i)] for i in rng.integers(0, len(pool), size=9)]
        inst = Instance(
            id="chk",
            evidence=tuple(Candidate(text=" ".join(t), tokens=t) for t in draws),
        )
        result = decode(inst, spec, WeightSpec(kind="uniform"))
        counts = Counter(draws)
        assert counts[draws[result.selected_index]] == max(counts.values())


def check_majority_equivalence() -> None:
    rng = np.random.default_rng(14)
    for _ in range(100):
        answers = [str(int(a)) for a in rng.integers(0, 4, size=11)]
        inst = Instance(
            id="chk",
            evidence=tuple(
                Candidate(text=a, tokens=(a,), answer=a) for a in answers
            ),
        )
        result = self_consistency(inst)
        counts = Counter(answers)
        assert counts[result.answer] == max(counts.values())
        assert result.votes == counts[result.answer]


def check_range_vote_agreement() -> None:
    rng = np.random.default_rng(15)
    spec = GainSpec(kind="rouge_n_kernel", n=1)
    for _ in range(100):
        inst = _random_instance(rng, n_evidence=5)
        a = decode(inst, spec, WeightSpec(kind="uniform"))
        b = range_vote(inst, spec)
        assert a.selected_index == b.selected_index


def check_degeneracy() -> None:
    rng = np.random.default_rng(16)
    gain = GainSpec()
    uniform = WeightSpec(kind="uniform")
    degenerate = [
        WeightSpec(kind="temperature", tau=1.0),
        WeightSpec(kind="length_norm", beta=0.0),
        WeightSpec(kind="length_reward", gamma=0.0),
    ]
    for _ in range(30):
        inst = _scored_instance(rng)
        base = compute_weights(inst, uniform, gain).weights
        for spec in degenerate:
            w = compute_weights(inst, spec, gain).weights
            assert np.array_equal(w, base), f"{spec.kind} must reduce to uniform exactly"


def check_weight_normalization() -> None:
    rng = np.random.default_rng(17)
    gain = GainSpec()
    specs = [
        WeightSpec(kind="temperature", tau=0.3),
        WeightSpec(kind="length_norm", beta=1.0),
        WeightSpec(kind="length_reward", gamma=0.7),
        WeightSpec(kind="mixture", mixture_weights={"m0": 0.6, "m1": 0.4}),
    ]
    for _ in range(50):
        inst = _scored_instance(rng)
        for spec in specs:
            wv = compute_weights(inst, spec, gain)
            assert abs(float(np.sum(wv.weights)) - 1.0) <= 1e-9
            assert np.all(wv.weights >= 0.0)
            assert 1.0 <= wv.ess <= len(inst.evidence) + 1e-12


def check_sampler() -> None:
    rng = np.random.default_rng(18)
    dist = ToyDistribution.random(("a", "b"), 3, rng)
    sample = dist.sample(20_000, seed=5)
    for c in sample[:50]:
        assert c.score == dist.log_prob(c.text)
    freq = Counter(c.text for c in sample)
    for seq, p in dist.enumerate_space():
        assert abs(freq[seq] / 20_000 - p) <= 0.02, f"frequency of {seq!r} off"


def check_io_round_trip() -> None:
    rng = np.random.default_rng(19)
    instances = []
    for k in range(10):
        inst = _random_instance(rng, with_extras=bool(k % 2))
        instances.append(Instance(id=f"rt-{k}", evidence=inst.evidence))
    buffer = stdio.StringIO()
    write_instances(instances, buffer)
    buffer.seek(0)
    assert read_instances(buffer) == instances


CHECKS = [
    ("kernel_identity", check_kernel_identity),
    ("kernel_edges", check_kernel_edges),
    ("matrix_matches_scalar", check_matrix_matches_scalar),
    ("mode_recovery", check_mode_recovery),
    ("majority_equivalence", check_majority_equivalence),
    ("range_vote_agreement", check_range_vote_agreement),
    ("degenerate_weights_uniform", check_degeneracy),
    ("weight_normalization", check_weight_normalization),
    ("sampler_fidelity", check_sampler),
    ("io_round_trip", check_io_round_trip),
]


def run_selfcheck(stream: IO[str] | None = None) -> int:
    """Run every check, print one line each, return a process exit code."""
    stream = stream if stream is not None else sys.stdout
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:
            failures += 1
            stream.write(f"FAIL {name}: {exc}\n")
        else:
            stream.write(f"ok   {name}\n")
    total = len(CHECKS)
    stream.write(f"{total - failures}/{total} checks passed\n")
    return 0 if failures == 0 else 1
