"""Tests for tokenization, n-gram counts, and the built-in gain functions."""

import ast
import hashlib
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest

from mbrkit import (
    Candidate,
    GainSpec,
    Instance,
    MatrixShapeMismatchError,
    MbrError,
    MissingAnswerError,
    OrderMismatchError,
    WeightSpec,
    ZeroLengthCandidateError,
    candidate_tokens,
    compute_weights,
    decode,
    expected_gains,
    gain_matrix,
    ngram_counts,
    pair_gain,
    rouge_kernel,
    tokenize,
    validate_instance,
)
from mbrkit import metrics

ROUGE1 = GainSpec(kind="rouge_n_kernel", n=1)
ROUGE2 = GainSpec(kind="rouge_n_kernel", n=2)
EXACT = GainSpec(kind="exact_match")
BLEU4 = GainSpec(kind="sentence_bleu", max_order=4)
SRC = Path(metrics.__file__).resolve().parents[1]

# Gapped and large repeat counts: x repeated k times, then y repeated k % 4 times.
GAPPED_EVIDENCE = tuple(("x",) * k + ("y",) * (k % 4) for k in (1, 3, 7, 1000))
GAPPED_HYPOTHESES = tuple(("x",) * k + ("y",) * (k % 4) for k in (2, 999, 1001))


def counted_rows(counts, side, seed):
    """One shuffled row per column of ``counts`` ({token: per-row counts}),
    plus a token of the row's own so that the rows are distinct."""
    rng = np.random.default_rng(seed)
    rows = []
    for r in range(len(next(iter(counts.values())))):
        row = [f"{side}{r}"] + [tok for tok, per_row in counts.items() for _ in range(per_row[r])]
        rows.append(tuple(row[i] for i in rng.permutation(len(row))))
    return tuple(rows)


# Five rows a side, so a gram is heavy when fan_ev * fan_hyp >= 10: "all" is
# on every row of both sides, "at" is on the line (2 x 5), "under" one below
# it (3 x 3) and "over" above it (3 x 4). Counts vary, so grams have levels.
LINE_EVIDENCE = counted_rows({"all": (1, 2, 1, 3, 1), "at": (3, 0, 0, 1, 0),
                              "under": (0, 2, 1, 0, 3), "over": (1, 0, 2, 1, 0)}, "e", 1)
LINE_HYPOTHESES = counted_rows({"all": (2, 1, 1, 1, 4), "at": (1, 2, 3, 1, 2),
                                "under": (1, 0, 2, 1, 0), "over": (0, 1, 1, 2, 3)}, "h", 2)
# A reduced criterion-09 shape, where every unigram is heavy, and rows that
# share so few words that every gram is light.
_shape_rng = np.random.default_rng(14)
ALL_HEAVY = tuple(tuple(f"w{int(i)}" for i in _shape_rng.integers(0, 20, size=30))
                  for _ in range(32))
ALL_LIGHT = tuple(tuple(f"v{int(i)}" for i in _shape_rng.integers(0, 2000, size=8))
                  for _ in range(24))


def heavy_unigrams(evidence, hypotheses):
    """Unigrams with fan_ev * fan_hyp >= E + H, and all unigrams."""
    fan_ev = Counter(t for row in set(evidence) for t in set(row))
    fan_hyp = Counter(t for row in set(hypotheses) for t in set(row))
    line = len(set(evidence)) + len(set(hypotheses))
    return {t for t in fan_ev if fan_ev[t] * fan_hyp[t] >= line}, set(fan_ev) | set(fan_hyp)


def cand(text, **kwargs):
    return Candidate(text=text, **kwargs)


def token_cand(tokens):
    return Candidate(text=" ".join(tokens), tokens=tuple(tokens))


def token_instance(evidence, hypotheses):
    return Instance(id="t", evidence=tuple(map(token_cand, evidence)),
                    hypotheses=tuple(map(token_cand, hypotheses)))


def random_tokens(rng, vocab_size=20, max_len=30):
    length = int(rng.integers(0, max_len + 1))
    return tuple(f"t{int(i)}" for i in rng.integers(0, vocab_size, size=length))


def kernel_by_overlap(a_tokens, b_tokens, n):
    """Independent kernel route: clipped overlap, 2 * sum(min) / totals."""
    a_grams = Counter(tuple(a_tokens[i:i + n]) for i in range(len(a_tokens) - n + 1))
    b_grams = Counter(tuple(b_tokens[i:i + n]) for i in range(len(b_tokens) - n + 1))
    total = sum(a_grams.values()) + sum(b_grams.values())
    if total == 0:
        return 1.0
    return 2.0 * sum((a_grams & b_grams).values()) / total


def rouge_by_matches(a_tokens, b_tokens, n):
    """The kernel from Counter clipped matches, in the matrix's float
    operations: 1 - (denom - 2 * matches) / denom, 1.0 for two empty sides."""
    a_grams = Counter(tuple(a_tokens[i:i + n]) for i in range(len(a_tokens) - n + 1))
    b_grams = Counter(tuple(b_tokens[i:i + n]) for i in range(len(b_tokens) - n + 1))
    denom = float(sum(a_grams.values()) + sum(b_grams.values()))
    if denom == 0.0:
        return 1.0
    return 1.0 - (denom - 2.0 * sum((a_grams & b_grams).values())) / denom


def reference_sentence_bleu(hyp, ref, max_order):
    """Independent sentence BLEU: clipped precisions over the orders the
    hypothesis supports, exponential smoothing on zero-match orders, and a
    brevity penalty for short hypotheses."""
    if not hyp:
        return 0.0
    log_total = 0.0
    orders_used = 0
    smoothing = 1.0
    for n in range(1, max_order + 1):
        h_grams = [tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1)]
        if not h_grams:
            break
        r_counts = {}
        for i in range(len(ref) - n + 1):
            g = tuple(ref[i:i + n])
            r_counts[g] = r_counts.get(g, 0) + 1
        h_counts = {}
        for g in h_grams:
            h_counts[g] = h_counts.get(g, 0) + 1
        matched = sum(min(c, r_counts.get(g, 0)) for g, c in h_counts.items())
        if matched == 0:
            smoothing *= 2.0
            precision = 1.0 / (smoothing * len(h_grams))
        else:
            precision = matched / len(h_grams)
        log_total += math.log(precision)
        orders_used += 1
    geo_mean = math.exp(log_total / orders_used)
    if len(hyp) >= len(ref):
        return geo_mean
    return geo_mean * math.exp(1.0 - len(ref) / len(hyp))


class TestTokenize:
    def test_lowercase_whitespace(self):
        assert tokenize("The cat sat", GainSpec()) == ("the", "cat", "sat")

    def test_empty_text(self):
        assert tokenize("", GainSpec()) == ()

    def test_whitespace_runs_collapse(self):
        assert tokenize("a  b\tc", GainSpec()) == ("a", "b", "c")

    def test_no_lowercase(self):
        assert tokenize("The Cat", GainSpec(lowercase=False)) == ("The", "Cat")

    def test_unicode_word_mode(self):
        spec = GainSpec(tokenizer="unicode_word")
        assert tokenize("a,b!c", spec) == ("a", "b", "c")
        assert tokenize("x9 -- y", spec) == ("x9", "y")


class TestNgramCounts:
    def test_unigrams(self):
        counts = ngram_counts(("the", "cat", "sat"), 1)
        assert counts.counts == {("the",): 1, ("cat",): 1, ("sat",): 1}
        assert counts.total == 3

    def test_overlapping_bigrams(self):
        counts = ngram_counts(("a", "a", "a"), 2)
        assert counts.counts == {("a", "a"): 2}
        assert counts.total == 2

    def test_short_sequence(self):
        counts = ngram_counts(("a",), 2)
        assert counts.counts == {}
        assert counts.total == 0

    def test_total_matches_count_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            tokens = random_tokens(rng, vocab_size=5, max_len=12)
            for n in (1, 2, 3):
                counts = ngram_counts(tokens, n)
                assert counts.total == sum(counts.counts.values())
                assert all(v > 0 for v in counts.counts.values())


class TestRougeKernel:
    def test_identity(self):
        counts = ngram_counts(("the", "cat", "sat"), 1)
        assert rouge_kernel(counts, counts) == 1.0

    def test_disjoint(self):
        a = ngram_counts(("a", "b"), 1)
        b = ngram_counts(("c", "d"), 1)
        assert rouge_kernel(a, b) == 0.0

    def test_hand_derived_value(self):
        a = ngram_counts(("the", "cat", "sat"), 1)
        b = ngram_counts(("the", "cat"), 1)
        assert rouge_kernel(a, b) == 0.8

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            rouge_kernel(ngram_counts(("a",), 1), ngram_counts(("a", "b"), 2))

    def test_empty_cases(self):
        empty = ngram_counts((), 1)
        full = ngram_counts(("a",), 1)
        assert rouge_kernel(empty, empty) == 1.0
        assert rouge_kernel(empty, full) == 0.0
        assert rouge_kernel(full, empty) == 0.0

    def test_matches_overlap_form_on_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            n = int(rng.integers(1, 4))
            a = random_tokens(rng, vocab_size=6, max_len=15)
            b = random_tokens(rng, vocab_size=6, max_len=15)
            got = rouge_kernel(ngram_counts(a, n), ngram_counts(b, n))
            assert abs(got - kernel_by_overlap(a, b, n)) <= 1e-12
            assert 0.0 <= got <= 1.0
        # Gapped and large repeat counts, through the batched matrix too.
        for n in (1, 2):
            matrix = gain_matrix(token_instance(GAPPED_EVIDENCE, GAPPED_HYPOTHESES),
                                 GainSpec(kind="rouge_n_kernel", n=n))
            for i, a in enumerate(GAPPED_EVIDENCE):
                for j, b in enumerate(GAPPED_HYPOTHESES):
                    want = kernel_by_overlap(a, b, n)
                    assert abs(rouge_kernel(ngram_counts(a, n), ngram_counts(b, n)) - want) <= 1e-12
                    assert abs(matrix[i, j] - want) <= 1e-12

    def test_symmetry_and_self_maximality(self):
        rng = np.random.default_rng(5)
        spec = GainSpec(kind="rouge_n_kernel", n=2)
        for _ in range(100):
            a = token_cand(random_tokens(rng, vocab_size=4, max_len=10))
            b = token_cand(random_tokens(rng, vocab_size=4, max_len=10))
            assert pair_gain(a, b, spec) == pair_gain(b, a, spec)
            assert pair_gain(a, a, spec) == 1.0
            assert pair_gain(a, a, spec) >= pair_gain(a, b, spec)

    def test_order_past_every_sequence_is_all_ones_without_postings(self, monkeypatch):
        # Both count vectors of every pair are empty, and two empty vectors
        # are identical, so no n-gram of any order needs building.
        inst = token_instance((("a", "b", "c"), ("a", "b"), ()), (("a", "b"), ("c",)))
        spec = GainSpec(kind="rouge_n_kernel", n=200000)
        assert rouge_kernel(ngram_counts(("a", "b", "c"), 200000),
                            ngram_counts(("a", "b"), 200000)) == 1.0

        def forbidden(*args):
            raise AssertionError("postings built")

        monkeypatch.setattr(metrics, "_ngram_postings", forbidden)
        assert gain_matrix(inst, spec).tolist() == [[1.0, 1.0]] * 3


class TestMatchGains:
    def test_exact_match_normalizes_whitespace(self):
        assert pair_gain(cand("a b"), cand("a  b"), EXACT) == 1.0

    def test_exact_match_distinct(self):
        assert pair_gain(cand("a"), cand("b"), EXACT) == 0.0

    def test_exact_match_casing(self):
        assert pair_gain(cand("A"), cand("a"), EXACT) == 1.0
        assert pair_gain(cand("A"), cand("a"), GainSpec(kind="exact_match", lowercase=False)) == 0.0

    def test_answer_match(self):
        spec = GainSpec(kind="answer_match")
        assert pair_gain(cand("x", answer="4"), cand("y", answer="4"), spec) == 1.0
        assert pair_gain(cand("x", answer="4"), cand("y", answer="7"), spec) == 0.0
        assert pair_gain(cand("x", answer=" 4 "), cand("y", answer="4"), spec) == 1.0

    def test_answer_match_requires_answers(self):
        spec = GainSpec(kind="answer_match")
        with pytest.raises(MissingAnswerError):
            pair_gain(cand("x", answer="4"), cand("y"), spec)


class TestSentenceBleu:
    def test_identity_long_enough(self):
        long = cand("w1 w2 w3 w4 w5")
        assert pair_gain(long, long, BLEU4) == 1.0

    def test_empty_hypothesis(self):
        assert pair_gain(cand("a b"), cand(""), BLEU4) == 0.0

    def test_frozen_truncation_case(self):
        # Hypothesis is a strict prefix: precisions are all 1 over the
        # three supported orders, so the score reduces to the brevity
        # penalty exp(1 - 6/3).
        ref = cand("the cat sat on the mat")
        hyp = cand("the cat sat")
        got = pair_gain(ref, hyp, BLEU4)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert got == pytest.approx(
            reference_sentence_bleu(("the", "cat", "sat"),
                                    ("the", "cat", "sat", "on", "the", "mat"), 4),
            abs=1e-15,
        )

    def test_smoothing_on_zero_match_orders(self):
        # Single shared unigram, no shared bigrams: p1 = 1/2, p2 smoothed
        # to 1/(2*1), equal lengths so no brevity penalty.
        ref = cand("a c")
        hyp = cand("a d")
        want = math.exp((math.log(0.5) + math.log(0.5)) / 2.0)
        assert pair_gain(ref, hyp, GainSpec(kind="sentence_bleu", max_order=2)) == pytest.approx(
            want, abs=1e-15
        )

    def test_not_symmetric(self):
        a = cand("the cat sat on the mat")
        b = cand("the cat sat")
        assert pair_gain(a, b, BLEU4) != pair_gain(b, a, BLEU4)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(6)
        for _ in range(400):
            ref = random_tokens(rng, vocab_size=8, max_len=12)
            hyp = random_tokens(rng, vocab_size=8, max_len=12)
            order = int(rng.integers(1, 5))
            got = pair_gain(token_cand(ref), token_cand(hyp),
                            GainSpec(kind="sentence_bleu", max_order=order))
            want = reference_sentence_bleu(hyp, ref, order)
            assert got == pytest.approx(want, abs=1e-12)
            assert 0.0 <= got <= 1.0
        # Gapped and large repeat counts.
        gapped = GAPPED_EVIDENCE + GAPPED_HYPOTHESES
        for order in range(1, 5):
            spec = GainSpec(kind="sentence_bleu", max_order=order)
            for ref in gapped:
                for hyp in gapped:
                    got = pair_gain(token_cand(ref), token_cand(hyp), spec)
                    assert got == pytest.approx(reference_sentence_bleu(hyp, ref, order), abs=1e-12)

    def test_matrix_cells_equal_reference_exactly(self, monkeypatch):
        # The array finish performs the scalar formula's IEEE operations in
        # its order with libm's log and exp, so cells are equal, not close.
        rng = np.random.default_rng(12)
        edges = (
            (),  # empty hypothesis
            ("a",), ("a", "b"), ("b", "a", "c"),  # shorter than max_order
            ("p", "q", "r", "s", "t"), ("a", "b", "c", "d", "e"),  # no gram shared
            ("a", "b", "c", "d", "e", "f", "g", "h"), ("a", "b", "c"),  # longer, shorter
        )
        pool = edges + tuple(random_tokens(rng, vocab_size=8, max_len=12) for _ in range(40))
        gapped = GAPPED_EVIDENCE + GAPPED_HYPOTHESES
        # Both sides of the heavy-gram line, every gram heavy, every gram light.
        sides = [(pool, pool), (gapped, gapped), (LINE_EVIDENCE, LINE_HYPOTHESES),
                 (ALL_HEAVY, ALL_HEAVY), (ALL_LIGHT, ALL_LIGHT)]
        for evidence, hypotheses in sides:
            inst = token_instance(evidence, hypotheses)
            for order in range(1, 5):
                spec = GainSpec(kind="sentence_bleu", max_order=order)
                want = np.array([[reference_sentence_bleu(hyp, ref, order) for hyp in hypotheses]
                                 for ref in evidence])
                for chunk in (1, 19, metrics._PAIR_CHUNK):
                    with monkeypatch.context() as patch:
                        patch.setattr(metrics, "_PAIR_CHUNK", chunk)
                        for jobs in (1, 3):
                            got = gain_matrix(inst, spec, jobs=jobs)
                            assert got.tolist() == want.tolist(), (order, chunk, jobs)
        # Zero matches at every order: smoothing 2, 4, 8 and 16.
        disjoint = pair_gain(token_cand(edges[5]), token_cand(edges[4]), BLEU4)
        assert disjoint == math.exp(sum(math.log(1.0 / (2.0 ** k * (6 - k)))
                                        for k in range(1, 5)) / 4)

    def test_orders_past_the_longest_sequence_change_nothing(self):
        # Every order longer than both sides is unsupported for every
        # hypothesis, so 200000 orders score as the 5 the longest supports.
        rng = np.random.default_rng(14)
        seqs = ((), ("a",), ("a", "b", "c", "d", "e")) + tuple(
            random_tokens(rng, vocab_size=6, max_len=5) for _ in range(12))
        inst = token_instance(seqs, seqs)
        huge = GainSpec(kind="sentence_bleu", max_order=200000)
        got = gain_matrix(inst, huge)
        assert got.tobytes() == gain_matrix(inst, GainSpec(kind="sentence_bleu",
                                                           max_order=5)).tobytes()
        assert got.tolist() == [[reference_sentence_bleu(h, r, 200000) for h in seqs]
                                for r in seqs]

    def test_smoothing_past_the_double_range_scores_zero(self):
        # 1100 zero-match orders double the smoothing past 2**1024: the
        # precision is 0.0, its log -inf, and the score exp(-inf) = 0.0.
        a = token_cand(tuple(f"a{i}" for i in range(1100)))
        b = token_cand(tuple(f"b{i}" for i in range(1100)))
        spec = GainSpec(kind="sentence_bleu", max_order=1100)
        assert pair_gain(a, b, spec) == 0.0
        assert pair_gain(a, a, spec) == 1.0

    def test_finish_uses_libm_not_numpy_log_exp(self, monkeypatch):
        # numpy's vectorized log and exp differ from libm's in the last bit
        # on some inputs, which would change the BLEU goldens.
        rng = np.random.default_rng(13)
        seqs = tuple(random_tokens(rng, vocab_size=6, max_len=10) for _ in range(20))
        inst = token_instance(seqs, seqs)
        want = gain_matrix(inst, BLEU4)

        def forbidden(*args, **kwargs):
            raise AssertionError("numpy log/exp called")

        monkeypatch.setattr(np, "log", forbidden)
        monkeypatch.setattr(np, "exp", forbidden)
        assert gain_matrix(inst, BLEU4).tobytes() == want.tobytes()

    def test_self_gain_is_one(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            tokens = random_tokens(rng, vocab_size=5, max_len=10)
            if not tokens:
                continue
            c = token_cand(tokens)
            assert pair_gain(c, c, BLEU4) == 1.0


class TestGainMatrix:
    def test_exact_match_identity_matrix(self):
        inst = validate_instance(
            Instance(id="t", evidence=(cand("a"), cand("b"))), EXACT, WeightSpec()
        )
        assert np.array_equal(gain_matrix(inst, EXACT), np.eye(2))

    @pytest.mark.parametrize("spec", [EXACT, GainSpec(kind="answer_match"), ROUGE1, ROUGE2,
                                      GainSpec(kind="rouge_n_kernel", n=5), BLEU4,
                                      GainSpec(kind="sentence_bleu", max_order=1)],
                             ids=["exact", "answer", "rouge1", "rouge2", "rouge5", "bleu4", "bleu1"])
    def test_an_empty_side_gives_an_empty_matrix(self, spec):
        # Only validation rejects an empty side; the gains themselves give an
        # (E, 0) or (0, H) matrix, the n-gram gains included.
        side = (Candidate(text="a b", answer="1"), Candidate(text="a b c", answer="2"),
                Candidate(text="a b", answer="1"))
        for inst, shape in ((Instance(id="t", evidence=side, hypotheses=()), (3, 0)),
                            (Instance(id="t", evidence=(), hypotheses=side), (0, 3))):
            matrix = gain_matrix(inst, spec)
            assert matrix.shape == shape and matrix.dtype == np.float64
            assert metrics.gain_table(inst, spec).matrix().shape == shape

    def test_external_gain_with_no_hypotheses_is_empty(self):
        inst = Instance(id="t", evidence=(cand("a"), cand("b")), hypotheses=(),
                        external_gain=((), ()))
        assert gain_matrix(inst, GainSpec(kind="external")).shape == (2, 0)

    def test_external_passthrough(self):
        matrix = ((0.1, 0.9), (0.7, 0.3))
        inst = validate_instance(
            Instance(id="t", evidence=(cand("a"), cand("b")), external_gain=matrix),
            GainSpec(kind="external"),
            WeightSpec(),
        )
        assert np.array_equal(gain_matrix(inst, GainSpec(kind="external")), np.array(matrix))

    def test_hand_derived_rouge_cell(self):
        inst = validate_instance(
            Instance(
                id="t",
                evidence=(cand("the cat sat"),),
                hypotheses=(cand("the cat"),),
            ),
            ROUGE1,
            WeightSpec(),
        )
        assert gain_matrix(inst, ROUGE1).tolist() == [[0.8]]

    def test_matrix_equals_scalar_gains(self):
        rng = np.random.default_rng(8)
        specs = [
            ROUGE1,
            GainSpec(kind="rouge_n_kernel", n=3),
            EXACT,
            BLEU4,
            GainSpec(kind="answer_match"),
        ]
        for spec in specs:
            evidence = tuple(
                Candidate(
                    text=" ".join(t),
                    tokens=t,
                    answer=(t[0] if t else "none"),
                )
                for t in (random_tokens(rng, vocab_size=4, max_len=8) for _ in range(7))
            )
            hypotheses = evidence[:4]
            inst = validate_instance(
                Instance(id="t", evidence=evidence, hypotheses=hypotheses), spec, WeightSpec()
            )
            matrix = gain_matrix(inst, spec)
            for i, ev in enumerate(inst.evidence):
                for j, hyp in enumerate(inst.hypotheses):
                    assert matrix[i, j] == pair_gain(ev, hyp, spec)

    def test_jobs_do_not_change_values(self, monkeypatch):
        rng = np.random.default_rng(9)
        random_rows = tuple(random_tokens(rng, vocab_size=6, max_len=20) for _ in range(60))
        line_heavy, _ = heavy_unigrams(LINE_EVIDENCE, LINE_HYPOTHESES)
        assert line_heavy == {"all", "at", "over"}
        heavy, grams = heavy_unigrams(ALL_HEAVY, ALL_HEAVY)
        assert heavy == grams
        assert heavy_unigrams(ALL_LIGHT, ALL_LIGHT)[0] == set()
        sides = ((random_rows, random_rows), (GAPPED_EVIDENCE, GAPPED_HYPOTHESES),
                 (LINE_EVIDENCE, LINE_HYPOTHESES), (ALL_HEAVY, ALL_HEAVY),
                 (ALL_LIGHT, ALL_LIGHT))
        pools, all_pools, product_threads = [], [], []

        class RecordingPool(futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        matmul = np.matmul

        def recording_matmul(*args, **kwargs):
            product_threads.append(threading.get_ident())
            return matmul(*args, **kwargs)

        monkeypatch.setattr(futures, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(np, "matmul", recording_matmul)
        for evidence, hypotheses in sides:
            inst = token_instance(evidence, hypotheses)
            for spec in (ROUGE1, ROUGE2, BLEU4):
                sequential = gain_matrix(inst, spec, jobs=1)
                if spec.kind == "rouge_n_kernel":
                    want = [[rouge_by_matches(ev, hyp, spec.n) for hyp in hypotheses]
                            for ev in evidence]
                else:
                    want = [[reference_sentence_bleu(hyp, ev, 4) for hyp in hypotheses]
                            for ev in evidence]
                assert sequential.tolist() == want, spec
                # One row per block, a small odd budget, and the default.
                for chunk in (1, 19, metrics._PAIR_CHUNK):
                    with monkeypatch.context() as patch:
                        patch.setattr(metrics, "_PAIR_CHUNK", chunk)
                        for jobs in (1, 2, 3, 8):
                            pools.clear()
                            product_threads.clear()
                            got = gain_matrix(inst, spec, jobs=jobs)
                            assert got.tobytes() == sequential.tobytes(), (spec, chunk, jobs)
                            all_pools.extend(pools)
                            if evidence is ALL_HEAVY and spec == ROUGE1 and chunk == 19:
                                # Every gram is heavy, so the level products
                                # are all the work, and jobs > 1 runs them
                                # on a pool of at least two threads.
                                assert product_threads, jobs
                                main = {threading.get_ident()}
                                if jobs == 1:
                                    assert not pools and set(product_threads) == main
                                else:
                                    assert pools and min(pools) >= 2
                                    assert not set(product_threads) & main
        # Small budgets split the instances into blocks that jobs > 1 runs on
        # a real pool of up to ``jobs`` threads.
        assert all_pools and min(all_pools) >= 2 and max(all_pools) == 8

    def test_one_pool_per_call(self, monkeypatch):
        # Every order's clipped matches and the finish run per block of
        # evidence rows, so all orders share the blocks and their pool.
        pools = []

        class RecordingPool(futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        inst = token_instance(ALL_HEAVY, ALL_HEAVY)
        want = gain_matrix(inst, BLEU4, jobs=1)
        monkeypatch.setattr(futures, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(metrics, "_PAIR_CHUNK", 19)
        assert gain_matrix(inst, BLEU4, jobs=3).tobytes() == want.tobytes()
        assert pools == [3]

    def test_bleu_peak_memory_at_scale(self):
        # Criterion 09's shape: no full table is held per order, so one
        # BLEU-4 call peaks well under four 8 MB tables plus the output.
        rng = np.random.default_rng(109)
        rows = tuple(tuple(f"w{int(i)}" for i in rng.integers(0, 20, size=30))
                     for _ in range(1000))
        inst = token_instance(rows, rows)
        tracemalloc.start()
        try:
            gain_matrix(inst, BLEU4, jobs=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30e6, peak

    def test_unique_always_sorts(self, monkeypatch):
        # Without a return flag, np.unique takes numpy's hash path, whose
        # first call in a process costs milliseconds and about 1 MB of RSS.
        flags = ("return_index", "return_inverse", "return_counts")
        unique = np.unique
        calls = []

        def guarded(ar, *args, **kwargs):
            asked = {**dict(zip(flags, args)), **kwargs}
            assert any(asked.get(flag) for flag in flags), "np.unique without a return flag"
            calls.append(1)
            return unique(ar, *args, **kwargs)

        monkeypatch.setattr(np, "unique", guarded)
        for evidence, hypotheses in ((ALL_HEAVY, ALL_HEAVY), (LINE_EVIDENCE, LINE_HYPOTHESES),
                                     (GAPPED_EVIDENCE, GAPPED_HYPOTHESES)):
            for spec in (ROUGE1, ROUGE2, BLEU4):
                gain_matrix(token_instance(evidence, hypotheses), spec)
        assert calls

    def test_zero_postings_edges(self):
        empty = ((), ())
        one_token = (("a",), ("b",), ("a",))
        words = (("a", "b", "c", "d"), ("b", "a"), ("c",))
        disjoint = (("x", "y", "z", "w"), ("y", "x"), ("w", "w", "w", "w", "w"))
        cases = [
            (ROUGE1, empty, words), (ROUGE1, words, empty), (ROUGE1, empty, empty),
            (BLEU4, empty, words), (BLEU4, words, empty), (BLEU4, empty, empty),
            (ROUGE2, one_token, one_token), (ROUGE2, one_token, words),
            (BLEU4, words, disjoint), (BLEU4, disjoint, words),
        ]
        for spec, evidence, hypotheses in cases:
            matrix = gain_matrix(token_instance(evidence, hypotheses), spec)
            assert matrix.shape == (len(evidence), len(hypotheses))
            for i, ev in enumerate(evidence):
                for j, hyp in enumerate(hypotheses):
                    if spec.kind == "rouge_n_kernel":
                        want = kernel_by_overlap(ev, hyp, spec.n)
                    else:
                        want = reference_sentence_bleu(hyp, ev, spec.max_order)
                    assert matrix[i, j] == pytest.approx(want, abs=1e-12), (spec, ev, hyp)

    def test_external_needs_the_instance_matrix(self):
        with pytest.raises(MbrError, match="no pairwise scalar form"):
            pair_gain(cand("a"), cand("b"), GainSpec(kind="external"))
        with pytest.raises(MatrixShapeMismatchError):
            gain_matrix(Instance(id="t", evidence=(cand("a"),)), GainSpec(kind="external"))

    def test_tokens_absent_falls_back_to_text(self):
        inst = validate_instance(
            Instance(id="t", evidence=(cand("The  cat"), cand("the cat"))),
            EXACT,
            WeightSpec(),
        )
        assert np.array_equal(gain_matrix(inst, EXACT), np.ones((2, 2)))


def float_bleu_finish(ref_lens, hyp_lens, correct, max_order):
    """The per-order float BLEU finish that the integer-keyed one replaced,
    kept as its byte reference: each order's precisions are a float array,
    and libm's log and exp run once per distinct float of each array."""

    def per_distinct(fn, values):
        distinct, inverse = np.unique(values, return_inverse=True)
        return np.array([fn(v) for v in distinct.tolist()])[inverse].reshape(values.shape)

    hyp_f = hyp_lens.astype(np.float64)
    orders = np.arange(1, len(correct) + 1)[:, None]
    totals = hyp_f - orders + 1.0
    supported = totals > 0.0
    safe_totals = np.where(supported, totals, 1.0)
    smooth = np.ones((len(ref_lens), len(hyp_lens)))
    log_sum = np.zeros_like(smooth)
    for n, matches in enumerate(correct):
        zero = matches == 0.0
        precision = matches / safe_totals[n]
        with np.errstate(over="ignore"):
            np.multiply(smooth, 2.0, out=smooth, where=zero)
            np.divide(1.0, smooth * safe_totals[n], out=precision, where=zero)
        precision[:, ~supported[n]] = 1.0
        log_sum += per_distinct(lambda p: math.log(p) if p else -math.inf, precision)
    log_sum /= np.minimum(np.maximum(hyp_f, 1.0), max_order)
    score = per_distinct(math.exp, log_sum)
    ref_f = ref_lens[:, None].astype(np.float64)
    brevity = np.where(hyp_f < ref_f, 1.0 - ref_f / np.maximum(hyp_f, 1.0), 0.0)
    score *= per_distinct(math.exp, brevity)
    score[:, hyp_lens == 0] = 0.0
    return score


def clip_totals(ref_lens, hyp_lens, orders):
    """``(orders, rows, width)`` bounds of clipped matches: the smaller of
    the two sides' n-gram totals at each order."""
    n = np.arange(orders)[:, None]
    return np.minimum(np.maximum(ref_lens - n, 0)[:, :, None],
                      np.maximum(hyp_lens - n, 0)[:, None, :])


def random_matches(rng, ref_lens, hyp_lens, orders, zero_rate):
    """``(orders, rows, width)`` clipped matches, each at most both sides'
    totals at its order, with about ``zero_rate`` of them zero."""
    totals = clip_totals(ref_lens, hyp_lens, orders)
    matches = rng.integers(0, totals + 1)
    matches[rng.random(matches.shape) < zero_rate] = 0
    return matches.astype(np.float64)


class TestOneJoin:
    def test_finish_bytes_equal_the_float_finish(self):
        rng = np.random.default_rng(2301)
        cases = []
        for _ in range(300):
            longest = int(rng.choice([0, 1, 3, 12, 40]))
            rows, width = (int(k) for k in rng.integers(1, 10, size=2))
            ref_lens = rng.integers(0, longest + 1, size=rows)
            hyp_lens = rng.integers(0, longest + 1, size=width)
            hyp_lens[0] = 0 if rng.random() < 0.3 else hyp_lens[0]  # an empty hypothesis
            # Orders past the longest sequence when it is short, and max_order above them.
            orders = int(rng.integers(1, 7))
            zero_rate = float(rng.choice([0.0, 0.3, 0.7, 1.0]))
            max_order = orders + int(rng.integers(0, 3))
            cases.append((ref_lens, hyp_lens, random_matches(rng, ref_lens, hyp_lens, orders,
                                                             zero_rate), max_order))
        # Repetition-heavy: long rows of few lengths, every gram matched or
        # all but a few.
        lens = rng.choice([997, 1000, 4000], size=12)
        full = clip_totals(lens[:5], lens, 4)
        full[:, 1::2] -= rng.integers(0, 3, size=full[:, 1::2].shape)
        cases.append((lens[:5], lens, full.astype(np.float64), 4))
        # More than 1023 zero-match orders: some cells match at their first
        # orders only, the rest never.
        lens = np.array([1100, 1150, 1200, 0])
        deep = np.zeros((1100, 3, 4))
        deep[:5, 0] = 1.0
        deep[:, 1, 1] = 1.0
        cases.append((lens[:3], lens, deep, 1100))
        for ref_lens, hyp_lens, matches, max_order in cases:
            want = float_bleu_finish(ref_lens, hyp_lens, list(matches), max_order)
            got = metrics._bleu_finish(ref_lens, hyp_lens, matches, max_order)
            assert got.tobytes() == want.tobytes(), (ref_lens, hyp_lens, max_order)
        # The deep case reaches the overflowing smoothing: exp(-inf) == 0.0.
        assert want[2, 0] == 0.0 and want[0, 0] == 0.0 and want[1, 1] > 0.0

    def test_one_join_per_table_and_one_libm_call_per_block(self, monkeypatch):
        calls = Counter()
        clipped, libm = metrics._clipped_matches, metrics._libm_per_distinct

        def counted_clipped(*args):
            calls["join"] += 1
            cost, fill = clipped(*args)

            def counted_fill(first, stop):
                calls["block"] += 1
                return fill(first, stop)

            return cost, counted_fill

        def counted_libm(fn, values):
            calls["libm"] += 1
            return libm(fn, values)

        monkeypatch.setattr(metrics, "_clipped_matches", counted_clipped)
        monkeypatch.setattr(metrics, "_libm_per_distinct", counted_libm)
        sides = ((LINE_EVIDENCE, LINE_HYPOTHESES), (ALL_HEAVY, ALL_HEAVY),
                 (GAPPED_EVIDENCE, GAPPED_HYPOTHESES))
        for chunk in (19, metrics._PAIR_CHUNK):
            monkeypatch.setattr(metrics, "_PAIR_CHUNK", chunk)
            for evidence, hypotheses in sides:
                inst = token_instance(evidence, hypotheses)
                for spec in (BLEU4, ROUGE1, ROUGE2):
                    calls.clear()
                    table = metrics.gain_table(inst, spec)
                    assert calls["block"] == 0, spec  # blocks are made as they are read
                    table.matrix()
                    assert calls["join"] == 1, spec
                    blocks = calls["block"]
                    assert blocks > 1 if chunk == 19 else blocks == 1
                    assert calls["libm"] == (blocks if spec is BLEU4 else 0), spec

    def test_one_long_sample_keeps_linear_memory(self):
        # BLEU's keys are offsets over the distinct hypothesis lengths, never
        # a table over (longest + 1) ** 2 cells, which would need about 300
        # GiB here. The per-order join before this one peaked at 58.5 MB for
        # BLEU-4 and 28.6 MB for ROUGE-2 on this line, and gave these bytes.
        rng = np.random.default_rng(2300)
        words = [f"w{i}" for i in range(50)]
        lengths = rng.integers(5, 40, size=64)
        lengths[17] = 200_000  # one sample of 200 000 tokens over 50 words
        inst = Instance(id="long", evidence=tuple(
            Candidate(text="", tokens=tuple(words[i] for i in rng.integers(0, 50, size=n)))
            for n in lengths))
        for spec, digest, peak_before in (
                (BLEU4, "bca9564711898039939f5ae6d1f636e65864e714608a384dd13eb6c1f82aa26a", 58.5e6),
                (ROUGE2, "451f160e72743e579bc775aaf9e32096de42d8743b788d63b80420f8e9f8bb61", 28.6e6)):
            tracemalloc.start()
            try:
                matrix = gain_matrix(inst, spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert hashlib.sha256(matrix.tobytes()).hexdigest() == digest, spec
            assert peak <= 1.1 * peak_before, (spec, peak)


# Candidates that intern apart although some share tokens: the same text
# with different tokens, texts differing only in case or spacing, and
# empty candidates with and without tokens.
DUPLICATE_POOL = (
    Candidate(text="the cat sat"),
    Candidate(text="The Cat sat"),
    Candidate(text="the  cat sat"),
    Candidate(text="the cat sat", tokens=("the", "cat", "sat")),
    Candidate(text="the cat sat", tokens=("a", "dog")),
    Candidate(text="a b a b a"),
    Candidate(text="a dog ran off the mat"),
    Candidate(text=""),
    Candidate(text="", tokens=()),
    Candidate(text="", tokens=("a",)),
)


def draw_candidates(rng, size, pool=DUPLICATE_POOL):
    # A fresh object per draw: duplicates are equal, never identical.
    return tuple(Candidate(text=pool[k].text, tokens=pool[k].tokens)
                 for k in rng.integers(0, len(pool), size=size))


def per_sample_rows(inst, spec):
    """Uncompressed reference: one gain_matrix call per evidence sample on
    a one-row sub-instance, rows stacked in evidence order."""
    return np.vstack([gain_matrix(Instance(id="r", evidence=(ev,), hypotheses=inst.hypotheses),
                                  spec) for ev in inst.evidence])


def per_sample_columns(inst, spec):
    """The same with one call per hypothesis on a one-column sub-instance."""
    return np.hstack([gain_matrix(Instance(id="c", evidence=inst.evidence, hypotheses=(hyp,)),
                                  spec) for hyp in inst.hypotheses])


class TestMultisetCompression:
    SPECS = (
        ROUGE1,
        GainSpec(kind="rouge_n_kernel", n=2),
        BLEU4,
        EXACT,
        GainSpec(kind="exact_match", lowercase=False),
    )

    def test_matrix_bytes_equal_per_sample_reference(self):
        rng = np.random.default_rng(61)
        evidence = draw_candidates(rng, 48)
        # Explicit slates repeat the evidence's keys, as fresh objects or as
        # the evidence's own, and the last adds a key the evidence lacks.
        for hypotheses in (None, draw_candidates(rng, 20), draw_candidates(rng, 12)
                           + (Candidate(text="not drawn"),) + evidence[:3]):
            for spec in self.SPECS:
                inst = validate_instance(Instance(id="t", evidence=evidence,
                                                  hypotheses=hypotheses), spec, WeightSpec())
                rows = per_sample_rows(inst, spec)
                columns = per_sample_columns(inst, spec)
                assert rows.shape == (len(inst.evidence), len(inst.hypotheses))
                for jobs in (1, 3):
                    compressed = gain_matrix(inst, spec, jobs=jobs)
                    assert compressed.shape == rows.shape
                    assert compressed.tobytes() == rows.tobytes(), (spec, jobs)
                    assert compressed.tobytes() == columns.tobytes(), (spec, jobs)

    def test_answer_match_interns_answers(self):
        spec = GainSpec(kind="answer_match")
        pool = ("4", " 4", "4 ", "5", "x")
        rng = np.random.default_rng(62)
        evidence = tuple(Candidate(text="same", answer=pool[k])
                         for k in rng.integers(0, len(pool), size=40))
        inst = validate_instance(Instance(id="t", evidence=evidence), spec, WeightSpec())
        for jobs in (1, 3):
            assert gain_matrix(inst, spec, jobs).tobytes() == per_sample_rows(inst, spec).tobytes()
        missing = evidence[:3] + (Candidate(text="same"),) + evidence[3:6] + (Candidate(text="z"),)
        with pytest.raises(MissingAnswerError, match=r"evidence\[3\]"):
            gain_matrix(Instance(id="t", evidence=missing), spec)

    def test_list_tokens_are_interned_as_tuples(self):
        a = Candidate(text="", tokens=["a", "b"])
        c = Candidate(text="", tokens=["a", "c"])
        assert pair_gain(a, c, ROUGE1) == 0.5
        assert pair_gain(a, c, BLEU4) == reference_sentence_bleu(("a", "c"), ("a", "b"), 4)
        as_tuples = Instance(id="t", evidence=(token_cand("ab"), token_cand("ac"), token_cand("ab")))
        as_lists = Instance(id="t", evidence=(a, c, Candidate(text="", tokens=["a", "b"])))
        for spec in (ROUGE1, BLEU4):
            want = gain_matrix(as_tuples, spec)
            assert gain_matrix(as_lists, spec).tobytes() == want.tobytes()
            assert want[0, 2] == want[2, 0] == 1.0

    def test_length_weights_equal_per_sample_lengths(self):
        rng = np.random.default_rng(63)
        pool = tuple(c for c in DUPLICATE_POOL if c.text and c.tokens != ())
        # Scores repeat, and 0.0 and -0.0 are equal but not the same bits.
        score_pool = (-10.5, -3.25, -7.0, 0.0, -0.0, -1e-300)
        evidence = tuple(Candidate(text=c.text, tokens=c.tokens, score=score_pool[k])
                         for c, k in zip(draw_candidates(rng, 64, pool),
                                         rng.integers(0, len(score_pool), size=64)))
        inst = Instance(id="t", evidence=evidence)
        scores = [c.score for c in evidence]
        powers = []

        class Beta(float):
            """A beta that counts the powers taken of it."""

            def __rpow__(self, base):
                powers.append(base)
                return float.__rpow__(self, base)

        def reference(score, length, spec):
            """The scalar formula in plain Python floats, independent of numpy."""
            if spec.kind == "length_reward":
                return score + spec.gamma * length
            try:
                return score / float(length) ** spec.beta
            except OverflowError:
                return score / math.inf

        for wspec in (WeightSpec(kind="length_norm", beta=Beta(1.0)),
                      WeightSpec(kind="length_norm", beta=Beta(-0.5)),
                      WeightSpec(kind="length_reward", gamma=0.5)):
            for gspec in (ROUGE1, GainSpec(lowercase=False, tokenizer="unicode_word")):
                lengths = [len(candidate_tokens(c, gspec)) for c in evidence]
                corrected = [reference(s, n, wspec) for s, n in zip(scores, lengths)]
                log_w = np.array(corrected) - np.array(scores)
                w = np.exp(log_w - np.max(log_w))
                w = w / np.sum(w)
                powers.clear()
                got = compute_weights(inst, wspec, gspec)
                assert got.weights.tobytes() == w.tobytes()
                assert got.log_unnormalized.tobytes() == log_w.tobytes()
                # One power per distinct length, and none for a reward.
                if wspec.kind == "length_norm":
                    assert sorted(powers) == sorted(map(float, set(lengths)))
                    assert len(powers) < len(evidence)
                else:
                    assert powers == []
        # A zero-length sample anywhere raises before any power is taken.
        empty = Candidate(text="", tokens=(), score=-7.0)
        for wspec in (WeightSpec(kind="length_norm", beta=Beta(1.0)),
                      WeightSpec(kind="length_reward", gamma=0.5)):
            powers.clear()
            with pytest.raises(ZeroLengthCandidateError):
                compute_weights(Instance(id="t", evidence=evidence[:5] + (empty,) * 2
                                         + evidence), wspec, ROUGE1)
            assert powers == []

    SHARED_SPECS = (EXACT, GainSpec(kind="answer_match"), ROUGE1, ROUGE2, BLEU4)

    def test_shared_sides_equal_an_explicit_copy(self):
        rng = np.random.default_rng(65)
        answers = ("4", " 4", "4 ", "5", "x", "")
        evidence = tuple(Candidate(text=c.text, tokens=c.tokens, answer=answers[k])
                         for c, k in zip(draw_candidates(rng, 48),
                                         rng.integers(0, len(answers), size=48)))
        copy = tuple(Candidate(text=c.text, tokens=c.tokens, answer=c.answer) for c in evidence)
        for spec in self.SHARED_SPECS:
            omitted = validate_instance(Instance(id="t", evidence=evidence), spec, WeightSpec())
            assert omitted.hypotheses is omitted.evidence
            explicit = Instance(id="t", evidence=evidence, hypotheses=copy)
            for jobs in (1, 3):
                want = gain_matrix(explicit, spec, jobs)
                assert want.shape == (48, 48)
                for inst in (omitted, Instance(id="t", evidence=evidence)):
                    got = gain_matrix(inst, spec, jobs)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (spec, jobs)

    def test_missing_answer_names_the_first_sample_on_either_side(self):
        spec = GainSpec(kind="answer_match")
        answered = tuple(Candidate(text="t", answer=str(k % 3)) for k in range(6))
        bare = Candidate(text="t")
        evidence = answered[:4] + (bare,) + answered[4:] + (bare,)
        for hypotheses in (None, answered):
            with pytest.raises(MissingAnswerError, match=r"^evidence\[4\] has no extracted answer$"):
                gain_matrix(Instance(id="t", evidence=evidence, hypotheses=hypotheses), spec)
        hypotheses = answered[:2] + (bare,) + answered + (bare,)
        with pytest.raises(MissingAnswerError, match=r"^hypotheses\[2\] has no extracted answer$"):
            gain_matrix(Instance(id="t", evidence=answered, hypotheses=hypotheses), spec)
        # The evidence is checked first.
        with pytest.raises(MissingAnswerError, match=r"^evidence\[4\]"):
            gain_matrix(Instance(id="t", evidence=evidence, hypotheses=hypotheses), spec)

    def test_counting_runs_once_per_distinct_candidate(self, monkeypatch):
        texts = ("the cat sat", "a dog ran off", "the cat sat on the mat")
        rng = np.random.default_rng(64)
        evidence = tuple(Candidate(text=texts[k], score=-1.0)
                         for k in rng.integers(0, len(texts), size=512))
        inst = validate_instance(Instance(id="t", evidence=evidence), ROUGE1, WeightSpec())
        distinct = sorted(tuple(t.split()) for t in texts)
        calls = Counter()
        sides = []
        tokens, postings = metrics.candidate_tokens, metrics._ngram_postings

        def counted_tokens(*args, **kwargs):
            calls["candidate_tokens"] += 1
            return tokens(*args, **kwargs)

        def recorded_postings(ev_seqs, hyp_seqs, max_order):
            sides.append((sorted(ev_seqs), hyp_seqs is ev_seqs))
            return postings(ev_seqs, hyp_seqs, max_order)

        monkeypatch.setattr(metrics, "candidate_tokens", counted_tokens)
        monkeypatch.setattr(metrics, "_ngram_postings", recorded_postings)
        # Hypotheses default to the evidence: one interning of three
        # distinct candidates serves both sides, and the builder gets that
        # one list as both.
        for spec in (ROUGE1, BLEU4, EXACT):
            gain_matrix(inst, spec)
            assert calls["candidate_tokens"] == 3, spec
            assert sides == ([] if spec is EXACT else [(distinct, True)]), spec
            calls.clear()
            sides.clear()
        # Explicit hypotheses are their own side.
        gain_matrix(Instance(id="t", evidence=evidence, hypotheses=evidence[:40]), ROUGE1)
        assert calls["candidate_tokens"] == 3 + len({c.text for c in evidence[:40]})
        assert sides == [(distinct, False)]
        calls.clear()
        # The length weights read the sequences the table kept on the
        # instance's Side, and tokenize a fresh instance once per distinct
        # candidate.
        length_norm = WeightSpec(kind="length_norm", beta=1.0)
        compute_weights(inst, length_norm, ROUGE1)
        assert calls["candidate_tokens"] == 0
        compute_weights(validate_instance(Instance(id="t", evidence=evidence), ROUGE1, length_norm),
                        length_norm, ROUGE1)
        assert calls["candidate_tokens"] == 3


    # Raw twins: three raw (text, tokens) pairs, in other casing and
    # spacing or as tokens, with one token sequence.
    TWINS = (Candidate(text="The cat sat"), Candidate(text="the  cat sat"),
             Candidate(text="x", tokens=["the", "cat", "sat"]))

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "own-hypotheses"])
    @pytest.mark.parametrize("spec", [ROUGE1, ROUGE2, BLEU4, EXACT],
                             ids=["rouge1", "rouge2", "bleu4", "exact"])
    def test_raw_twins_share_one_key(self, spec, shared):
        evidence = (self.TWINS + (Candidate(text="a dog ran"),) + self.TWINS[::-1]
                    + (Candidate(text="the dog sat"),))
        hypotheses = None if shared else ((Candidate(text="A dog ran"),) + self.TWINS
                                          + (Candidate(text="a  dog ran"),))
        inst = validate_instance(Instance(id="t", evidence=evidence, hypotheses=hypotheses),
                                 spec, WeightSpec())
        table = metrics.gain_table(inst, spec)

        def distinct(cands):
            return len({candidate_tokens(c, spec) for c in cands})

        assert table.shape == (distinct(inst.evidence), distinct(inst.hypotheses))
        assert table.shape == ((3, 3) if shared else (3, 2))
        want = np.array([[pair_gain(e, h, spec) for h in inst.hypotheses] for e in inst.evidence])
        assert table.matrix().tobytes() == want.tobytes()
        result = decode(inst, spec)
        gains = expected_gains(gain_matrix(inst, spec), np.array(result.weights))
        assert np.array(result.gain_estimates).tobytes() == gains.tobytes()

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "own-hypotheses"])
    @pytest.mark.parametrize("spec", [ROUGE1, BLEU4, EXACT, GainSpec(kind="answer_match")],
                             ids=lambda s: s.kind)
    def test_gain_table_is_over_distinct_keys(self, spec, shared):
        # Three distinct raw candidates; the last has the tokens and answer
        # of the first, so every gain sees two distinct keys.
        evidence = (Candidate(text="a b", answer="1"), Candidate(text="c", answer="2"),
                    Candidate(text="a b", answer="1"), Candidate(text="x", tokens=("a", "b"),
                                                                 answer=" 1 "))
        hypotheses = None if shared else (Candidate(text="c", answer="2"),
                                          Candidate(text="d e", answer="3"),
                                          Candidate(text="c", answer="2"))
        inst = validate_instance(Instance(id="t", evidence=evidence, hypotheses=hypotheses),
                                 spec, WeightSpec())
        table = metrics.gain_table(inst, spec)
        assert table.ev_inv.tolist() == [0, 1, 0, 0]
        if not shared:
            assert table.hyp_inv.tolist() == [0, 1, 0]
        assert table.shape == (table.ev_inv.max() + 1, table.hyp_inv.max() + 1)
        if spec.kind != "answer_match":  # the token sequences stay on the instance's Sides
            seqs, inverse = metrics.distinct_tokens(inst.sides()[0], spec)
            assert [seqs[k] for k in inverse] == [candidate_tokens(c, spec) for c in evidence]
            seqs, inverse = metrics.distinct_tokens(inst.sides()[1], spec)
            assert [seqs[k] for k in inverse] == [candidate_tokens(c, spec)
                                                  for c in inst.hypotheses]
        want = [[pair_gain(e, h, spec) for h in inst.hypotheses] for e in evidence]
        matrix = table.matrix()
        assert matrix.flags.c_contiguous and matrix.tolist() == want
        assert gain_matrix(inst, spec).tobytes() == matrix.tobytes()


class TestDependencies:
    def test_cli_import_does_not_load_scipy(self):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", "import mbrkit.cli, sys; print('scipy' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=120, check=True)
        assert proc.stdout.strip() == "False"

    def test_third_party_imports_match_declared_dependencies(self):
        tomllib = pytest.importorskip("tomllib")
        imported = set()
        for path in sorted((SRC / "mbrkit").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                imported |= {name.split(".")[0] for name in names}
        third_party = imported - set(sys.stdlib_module_names) - {"mbrkit"}
        pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))
        declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower().replace("-", "_")
                    for dep in pyproject["project"]["dependencies"]}
        assert third_party == declared
