"""Tests for the brute-force toy-distribution oracle and fixture builder."""

import math

import numpy as np
import pytest

from mbrkit import (
    Candidate,
    ConfigError,
    GainSpec,
    NonFiniteValueError,
    SpaceTooLargeError,
    ToyDistribution,
    WeightSpec,
    build_fixture_instances,
    pair_gain,
)
from mbrkit import oracle

ROUGE1 = GainSpec(kind="rouge_n_kernel", n=1)
EXACT = GainSpec(kind="exact_match")


class TestConstruction:
    def test_single_symbol_space(self):
        dist = ToyDistribution(vocab=("a",), max_len=2, logits={"a": 0.0, "aa": 0.0})
        assert dist.enumerate_space() == [("a", 0.5), ("aa", 0.5)]

    def test_hand_derived_softmax(self):
        dist = ToyDistribution(
            vocab=("a", "b"), max_len=1, logits={"a": math.log(3.0), "b": 0.0}
        )
        space = dict(dist.enumerate_space())
        assert space["a"] == pytest.approx(0.75, abs=1e-15)
        assert space["b"] == pytest.approx(0.25, abs=1e-15)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            dist = ToyDistribution.random(("a", "b"), 4, rng, scale=2.0)
            total = sum(p for _, p in dist.enumerate_space())
            assert abs(total - 1.0) <= 1e-12

    def test_missing_sequence_rejected(self):
        with pytest.raises(ConfigError):
            ToyDistribution(vocab=("a",), max_len=2, logits={"a": 0.0})

    def test_unknown_sequence_rejected(self):
        with pytest.raises(ConfigError):
            ToyDistribution(vocab=("a",), max_len=1, logits={"a": 0.0, "b": 0.0})

    def test_nonfinite_logit_rejected(self):
        with pytest.raises(NonFiniteValueError):
            ToyDistribution(vocab=("a",), max_len=1, logits={"a": math.inf})

    def test_bad_vocab_rejected(self):
        with pytest.raises(ConfigError):
            ToyDistribution(vocab=(), max_len=1, logits={})
        with pytest.raises(ConfigError):
            ToyDistribution(vocab=("a", "a"), max_len=1, logits={"a": 0.0})
        with pytest.raises(ConfigError):
            ToyDistribution(vocab=("ab",), max_len=1, logits={"ab": 0.0})

    def test_space_bound_enforced(self):
        logits = {}
        with pytest.raises(SpaceTooLargeError):
            ToyDistribution(vocab=("a", "b", "c", "d"), max_len=9, logits=logits)

    def test_enumeration_order_by_length_then_vocab(self):
        dist = ToyDistribution(
            vocab=("b", "a"),
            max_len=2,
            logits={s: 0.0 for s in ("b", "a", "bb", "ba", "ab", "aa")},
        )
        assert [s for s, _ in dist.enumerate_space()] == ["b", "a", "bb", "ba", "ab", "aa"]


class TestExpectedGain:
    def test_indicator_gain_recovers_probability(self):
        rng = np.random.default_rng(42)
        dist = ToyDistribution.random(("a", "b"), 3, rng)
        for seq, p in dist.enumerate_space():
            assert dist.expected_gain(seq, EXACT) == pytest.approx(p, abs=1e-15)

    def test_two_term_sum(self):
        dist = ToyDistribution(vocab=("a", "b"), max_len=1, logits={"a": 0.0, "b": 0.0})
        assert dist.expected_gain("a", ROUGE1) == pytest.approx(0.5, abs=1e-15)

    def test_matches_reversed_summation(self):
        rng = np.random.default_rng(43)
        dist = ToyDistribution.random(("a", "b"), 3, rng)
        for seq in ("a", "ab", "bba"):
            forward = dist.expected_gain(seq, ROUGE1)
            backward = 0.0
            hyp = Candidate(text=seq, tokens=tuple(seq))
            for other, p in reversed(dist.enumerate_space()):
                backward += p * pair_gain(
                    Candidate(text=other, tokens=tuple(other)), hyp, ROUGE1
                )
            assert abs(forward - backward) <= 1e-12

    def test_log_prob_matches_enumeration(self):
        rng = np.random.default_rng(44)
        dist = ToyDistribution.random(("a", "b"), 3, rng)
        for seq, p in dist.enumerate_space():
            assert math.exp(dist.log_prob(seq)) == pytest.approx(p, rel=1e-12)


class TestExactMbr:
    def test_indicator_gain_returns_mode(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            dist = ToyDistribution.random(("a", "b"), 3, rng, scale=1.5)
            space = dist.enumerate_space()
            mode = max(space, key=lambda sp: sp[1])[0]
            assert dist.exact_mbr([s for s, _ in space], EXACT) == mode

    def test_singleton_hypothesis(self):
        rng = np.random.default_rng(46)
        dist = ToyDistribution.random(("a", "b"), 2, rng)
        assert dist.exact_mbr(["ba"], ROUGE1) == "ba"

    def test_exact_tie_lexicographic(self):
        dist = ToyDistribution(vocab=("b", "a"), max_len=1, logits={"a": 0.0, "b": 0.0})
        assert dist.exact_mbr(["b", "a"], EXACT) == "a"


class TestCorrected:
    def test_temperature_squares_probabilities(self):
        dist = ToyDistribution(
            vocab=("a", "b"), max_len=1, logits={"a": math.log(3.0), "b": 0.0}
        )
        sharpened = dist.corrected(WeightSpec(kind="temperature", tau=0.5))
        space = dict(sharpened.enumerate_space())
        assert space["a"] == pytest.approx(0.9, abs=1e-12)
        assert space["b"] == pytest.approx(0.1, abs=1e-12)

    def test_length_reward_tilts_toward_long(self):
        dist = ToyDistribution(vocab=("a",), max_len=2, logits={"a": 0.0, "aa": 0.0})
        tilted = dist.corrected(WeightSpec(kind="length_reward", gamma=1.0))
        space = dict(tilted.enumerate_space())
        want_long = math.exp(2.0) / (math.exp(1.0) + math.exp(2.0))
        assert space["aa"] == pytest.approx(want_long, abs=1e-12)

    def test_length_norm_matches_hand_renormalization(self):
        rng = np.random.default_rng(47)
        dist = ToyDistribution.random(("a", "b"), 3, rng)
        spec = WeightSpec(kind="length_norm", beta=1.0)
        corrected = dist.corrected(spec)
        raw = {s: dist.log_prob(s) / len(s) for s, _ in dist.enumerate_space()}
        z = sum(math.exp(v) for v in raw.values())
        for seq, p in corrected.enumerate_space():
            assert p == pytest.approx(math.exp(raw[seq]) / z, rel=1e-10)

    def test_uniform_returns_self(self):
        dist = ToyDistribution(vocab=("a",), max_len=1, logits={"a": 0.0})
        assert dist.corrected(WeightSpec()) is dist


class TestSample:
    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(48)
        dist = ToyDistribution.random(("a", "b"), 3, rng)
        assert dist.sample(50, seed=9) == dist.sample(50, seed=9)
        assert dist.sample(50, seed=9) != dist.sample(50, seed=10)

    def test_scores_are_exact_log_probs(self):
        rng = np.random.default_rng(49)
        dist = ToyDistribution.random(("a", "b"), 3, rng)
        for c in dist.sample(200, seed=1):
            assert c.score == dist.log_prob(c.text)
            assert c.tokens == tuple(c.text)
            assert c.answer == c.text[0]

    def test_empirical_frequency(self):
        dist = ToyDistribution(
            vocab=("a", "b"), max_len=1, logits={"a": math.log(3.0), "b": 0.0}
        )
        sample = dist.sample(100_000, seed=2)
        freq_a = sum(1 for c in sample if c.text == "a") / 100_000
        assert abs(freq_a - 0.75) <= 0.01

    def test_one_candidate_per_distinct_sequence_drawn(self, monkeypatch):
        dist = ToyDistribution.random(("a", "b", "c"), 3, np.random.default_rng(50))
        space, probs = zip(*dist.enumerate_space())
        built = []

        def counted(*args, **kwargs):
            built.append(Candidate(*args, **kwargs))
            return built[-1]

        for seed in (1, 2, 3):
            u = np.random.default_rng(seed).random(500)
            drawn = np.minimum(np.searchsorted(np.cumsum(probs), u, side="right"),
                               len(space) - 1).tolist()
            for model_id in (None, "m1"):
                want = [Candidate(text=space[i], tokens=tuple(space[i]),
                                  score=dist.log_prob(space[i]), answer=space[i][0],
                                  model_id=model_id) for i in drawn]
                built.clear()
                monkeypatch.setattr(oracle, "Candidate", counted)
                got = dist.sample(500, seed=seed, model_id=model_id)
                monkeypatch.undo()
                assert got == want
                assert len(built) <= len(set(drawn)) < len(drawn)

    def test_model_id_passthrough(self):
        dist = ToyDistribution(vocab=("a",), max_len=1, logits={"a": 0.0})
        assert all(c.model_id == "mX" for c in dist.sample(3, seed=0, model_id="mX"))


class TestFixtureBuilder:
    def test_deterministic(self):
        assert build_fixture_instances(seed=7) == build_fixture_instances(seed=7)

    def test_seed_changes_content(self):
        assert build_fixture_instances(seed=7) != build_fixture_instances(seed=8)

    def test_shape_of_the_set(self):
        instances = build_fixture_instances(seed=7)
        assert [inst.id for inst in instances] == [f"toy-{k:03d}" for k in range(8)]
        first = instances[0]
        assert [c.text for c in first.evidence] == ["a", "a", "b"]
        assert first.evidence[0].score == pytest.approx(math.log(2 / 3), abs=1e-15)
        for k, inst in enumerate(instances):
            for c in inst.evidence:
                assert c.tokens is not None and c.score is not None
                assert c.answer is not None and c.model_id is not None
            if k % 2 == 1 and k > 0:
                assert inst.hypotheses is not None
        last = instances[-1]
        assert last.external_gain is not None
        assert len(last.external_gain) == len(last.evidence)
        assert len(last.external_gain[0]) == len(last.hypotheses)
