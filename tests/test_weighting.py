"""Tests for evidence weighting: corrections, normalization, diagnostics."""

import math
import weakref
from decimal import Decimal, getcontext

import numpy as np
import pytest

from mbrkit import (
    Candidate,
    DegenerateWeightsError,
    EmptyEvidenceError,
    NonFiniteValueError,
    ToyDistribution,
    GainSpec,
    Instance,
    MissingModelIdError,
    MissingScoreError,
    WeightSpec,
    ZeroLengthCandidateError,
    compute_weights,
    corrected_score,
    decode,
)
from mbrkit import weighting

GAIN = GainSpec()


def scored(text, score, model_id=None):
    return Candidate(text=text, tokens=tuple(text.split()), score=score, model_id=model_id)


def instance(cands):
    return Instance(id="t", evidence=tuple(cands))


def decimal_softmax(log_weights):
    """Independent high-precision softmax, rounded to doubles at the end."""
    getcontext().prec = 60
    raw = [Decimal(x).exp() for x in log_weights]
    total = sum(raw)
    return [float(r / total) for r in raw]


class TestCorrectedScore:
    def test_length_norm(self):
        assert corrected_score(-4.0, 2, WeightSpec(kind="length_norm", beta=1.0)) == -2.0

    def test_length_reward(self):
        assert corrected_score(-4.0, 2, WeightSpec(kind="length_reward", gamma=0.5)) == -3.0

    def test_beta_zero_is_identity(self):
        assert corrected_score(-4.0, 5, WeightSpec(kind="length_norm", beta=0.0)) == -4.0

    def test_zero_length_rejected(self):
        with pytest.raises(ZeroLengthCandidateError):
            corrected_score(-4.0, 0, WeightSpec(kind="length_norm", beta=1.0))
        with pytest.raises(ZeroLengthCandidateError):
            corrected_score(-4.0, 0, WeightSpec(kind="length_reward", gamma=0.5))

    def test_out_of_range_powers_give_ieee_values_for_any_score_type(self):
        # 30 ** 1000 is above the float range and 30 ** -1000 underflows
        # to +0.0: the score divides by inf, or by +0.0, as in IEEE 754.
        cases = (
            (1000.0, -3.5, -0.0),
            (1000.0, 2.0, 0.0),
            (-1000.0, -3.5, -math.inf),
            (-1000.0, 2.0, math.inf),
            (-1000.0, 0.0, math.nan),
            (0.7, -3.5, -3.5 / 30.0**0.7),
        )
        for beta, score, want in cases:
            spec = WeightSpec(kind="length_norm", beta=beta)
            got = [corrected_score(typed, 30, spec) for typed in (score, np.float64(score))]
            assert [type(g) for g in got] == [float, float]
            assert np.float64(got[0]).tobytes() == np.float64(got[1]).tobytes(), (beta, score)
            if math.isnan(want):
                assert math.isnan(got[0])
            else:
                assert np.float64(got[0]).tobytes() == np.float64(want).tobytes(), (beta, score)


class TestExtremeBeta:
    LONG = tuple(f"w{i}" for i in range(30))

    def test_decode_gives_a_result_or_an_instance_error(self):
        inst = Instance(id="long", evidence=(Candidate(text="", tokens=self.LONG, score=-12.5),
                                             Candidate(text="", tokens=("a", "b"), score=-1.5)))
        # 2 ** 1000 is finite and 30 ** 1000 is not: log weights 12.5 and
        # 1.5 up to about 1e-301.
        result = decode(inst, GAIN, WeightSpec(kind="length_norm", beta=1000.0))
        assert result.weights == pytest.approx(decimal_softmax([12.5, 1.5]), rel=1e-12)
        only_long = Instance(id="long", evidence=(inst.evidence[0], inst.evidence[0]))
        with pytest.raises(DegenerateWeightsError, match="^instance 'long': "):
            decode(only_long, GAIN, WeightSpec(kind="length_norm", beta=-1000.0))

    def test_oracle_correction_rejects_nonfinite_logits(self):
        dist = ToyDistribution.random(("a", "b"), 4, np.random.default_rng(5))
        with pytest.raises(NonFiniteValueError):
            dist.corrected(WeightSpec(kind="length_norm", beta=-1000.0))


class TestUniform:
    def test_four_items(self):
        inst = instance(scored(t, -1.0) for t in ("a", "b", "c", "d"))
        wv = compute_weights(inst, WeightSpec(), GAIN)
        assert wv.weights.tolist() == [0.25, 0.25, 0.25, 0.25]
        assert wv.ess == 4.0
        assert wv.log_unnormalized.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_no_scores_needed(self):
        inst = instance([Candidate(text="a"), Candidate(text="b")])
        wv = compute_weights(inst, WeightSpec(), GAIN)
        assert wv.weights.tolist() == [0.5, 0.5]

    @staticmethod
    def uniform(n: int):
        return compute_weights(instance(Candidate(text=f"c{i}") for i in range(n)),
                               WeightSpec(), GAIN)

    def test_cached_arrays_are_read_only(self):
        wv = self.uniform(5)
        assert self.uniform(5) is wv
        for array in (wv.weights, wv.log_unnormalized):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
            with pytest.raises(ValueError):
                array += 1.0
        assert wv.weights.tolist() == [0.2] * 5 and wv.log_unnormalized.tolist() == [0.0] * 5

    def test_cached_vector_equals_a_fresh_one_bit_for_bit(self):
        # Up to 130 crosses numpy's pairwise-sum unroll edges at 8 and 128.
        for n in range(1, 131):
            wv = self.uniform(n)
            fresh = np.full(n, 1.0 / n)
            assert wv.weights.tobytes() == fresh.tobytes()
            assert wv.log_unnormalized.tobytes() == np.zeros(n).tobytes()
            assert wv.ess.hex() == weighting._ess(fresh).hex()

    def test_next_n_frees_the_last_vector(self):
        big = weakref.ref(self.uniform(100_000))
        assert big() is not None
        small = self.uniform(3)
        assert big() is None
        assert self.uniform(3) is small


class TestTemperature:
    def test_frozen_softmax_values(self):
        inst = instance([scored("a", -1.0), scored("b", -2.0)])
        wv = compute_weights(inst, WeightSpec(kind="temperature", tau=0.5), GAIN)
        assert wv.weights.tolist() == pytest.approx(
            [0.7310585786300049, 0.2689414213699951], abs=1e-15
        )
        assert wv.log_unnormalized.tolist() == [-1.0, -2.0]

    def test_matches_decimal_softmax(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            scores = [float(s) for s in -rng.exponential(2.0, size=5)]
            tau = float(rng.uniform(0.2, 3.0))
            inst = instance(scored(f"w{i}", s) for i, s in enumerate(scores))
            wv = compute_weights(inst, WeightSpec(kind="temperature", tau=tau), GAIN)
            want = decimal_softmax([s * (1.0 / tau - 1.0) for s in scores])
            assert wv.weights.tolist() == pytest.approx(want, abs=1e-13)

    def test_shift_invariance(self):
        scores = [-1.3, -0.2, -4.0]
        spec = WeightSpec(kind="temperature", tau=0.4)
        base = compute_weights(instance(scored(f"w{i}", s) for i, s in enumerate(scores)),
                               spec, GAIN).weights
        shifted = compute_weights(
            instance(scored(f"w{i}", s + 7.5) for i, s in enumerate(scores)), spec, GAIN
        ).weights
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_missing_score_rejected(self):
        inst = instance([scored("a", -1.0), Candidate(text="b")])
        with pytest.raises(MissingScoreError):
            compute_weights(inst, WeightSpec(kind="temperature", tau=0.5), GAIN)


class TestLengthCorrections:
    def test_length_norm_frozen_values(self):
        # Corrected scores are both -2, so log weights are [2, 0].
        inst = instance([scored("a b", -4.0), scored("c", -2.0)])
        wv = compute_weights(inst, WeightSpec(kind="length_norm", beta=1.0), GAIN)
        assert wv.log_unnormalized.tolist() == [2.0, 0.0]
        assert wv.weights.tolist() == pytest.approx(
            [0.8807970779778824, 0.11920292202211756], abs=1e-15
        )

    def test_length_reward_shift_invariance(self):
        spec = WeightSpec(kind="length_reward", gamma=0.8)
        cands = [scored("a b c", -3.0), scored("d", -1.0), scored("e f", -2.5)]
        base = compute_weights(instance(cands), spec, GAIN).weights
        shifted_cands = [
            Candidate(text=c.text, tokens=c.tokens, score=c.score - 11.0) for c in cands
        ]
        shifted = compute_weights(instance(shifted_cands), spec, GAIN).weights
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_zero_length_candidate_rejected(self):
        inst = instance([scored("a", -1.0), Candidate(text="", tokens=(), score=-2.0)])
        with pytest.raises(ZeroLengthCandidateError):
            compute_weights(inst, WeightSpec(kind="length_norm", beta=1.0), GAIN)

    def test_length_counts_under_active_tokenizer(self):
        # Token count comes from the gain spec's tokenizer, not len(text).
        inst = instance([scored("a b c d", -2.0), scored("e", -2.0)])
        wv = compute_weights(inst, WeightSpec(kind="length_reward", gamma=1.0), GAIN)
        want = decimal_softmax([4.0, 1.0])
        assert wv.weights.tolist() == pytest.approx(want, abs=1e-13)


class TestDegeneracy:
    def test_each_kind_reduces_to_uniform_exactly(self):
        rng = np.random.default_rng(22)
        degenerate = [
            WeightSpec(kind="temperature", tau=1.0),
            WeightSpec(kind="length_norm", beta=0.0),
            WeightSpec(kind="length_reward", gamma=0.0),
        ]
        for _ in range(50):
            n = int(rng.integers(2, 9))
            cands = [
                scored(" ".join("w" for _ in range(int(rng.integers(1, 6)))),
                       float(-rng.exponential(3.0)))
                for _ in range(n)
            ]
            uniform = compute_weights(instance(cands), WeightSpec(), GAIN).weights
            for spec in degenerate:
                weights = compute_weights(instance(cands), spec, GAIN).weights
                assert np.array_equal(weights, uniform)


class TestMixture:
    def test_hand_derived_split(self):
        inst = instance([
            scored("a", -1.0, "m1"),
            scored("b", -9.0, "m1"),
            scored("c", -1.0, "m2"),
        ])
        spec = WeightSpec(kind="mixture", mixture_weights={"m1": 0.5, "m2": 0.5})
        wv = compute_weights(inst, spec, GAIN)
        assert wv.weights.tolist() == [0.25, 0.25, 0.5]

    def test_pi_renormalized(self):
        inst = instance([scored("a", -1.0, "m1"), scored("b", -1.0, "m2")])
        wv = compute_weights(
            inst, WeightSpec(kind="mixture", mixture_weights={"m1": 2.0, "m2": 6.0}), GAIN
        )
        assert wv.weights.tolist() == [0.25, 0.75]

    def test_defaults_to_uniform_over_models(self):
        inst = instance([
            scored("a", -1.0, "m0"),
            scored("b", -1.0, "m0"),
            scored("c", -1.0, "m1"),
        ])
        wv = compute_weights(inst, WeightSpec(kind="mixture"), GAIN)
        assert wv.weights.tolist() == [0.25, 0.25, 0.5]

    def test_scores_never_consulted(self):
        spec = WeightSpec(kind="mixture", mixture_weights={"m0": 0.3, "m1": 0.7})
        a = instance([scored("a", -1.0, "m0"), scored("b", -2.0, "m1")])
        b = instance([scored("a", -50.0, "m0"), scored("b", -0.5, "m1")])
        assert np.array_equal(
            compute_weights(a, spec, GAIN).weights,
            compute_weights(b, spec, GAIN).weights,
        )

    def test_unknown_model_rejected(self):
        inst = instance([scored("a", -1.0, "mX")])
        with pytest.raises(MissingModelIdError):
            compute_weights(inst, WeightSpec(kind="mixture", mixture_weights={"m0": 1.0}), GAIN)

    def test_missing_model_id_rejected(self):
        inst = instance([scored("a", -1.0)])
        with pytest.raises(MissingModelIdError):
            compute_weights(inst, WeightSpec(kind="mixture"), GAIN)

    def test_all_zero_mass_degenerate(self):
        inst = instance([scored("a", -1.0, "m0"), scored("b", -1.0, "m0")])
        spec = WeightSpec(kind="mixture", mixture_weights={"m0": 0.0, "m1": 1.0})
        with pytest.raises(DegenerateWeightsError):
            compute_weights(inst, spec, GAIN)


class TestEmptyEvidence:
    @pytest.mark.parametrize("spec", [
        WeightSpec(),
        WeightSpec(kind="temperature", tau=0.5),
        WeightSpec(kind="length_norm", beta=1.0),
        WeightSpec(kind="length_reward", gamma=0.5),
        WeightSpec(kind="mixture"),
        WeightSpec(kind="mixture", mixture_weights={"m0": 1.0}),
    ], ids=lambda s: s.kind)
    def test_every_kind_rejects_an_instance_without_evidence(self, spec):
        # decode validates first; a direct call must raise the same error.
        with pytest.raises(EmptyEvidenceError, match="no evidence candidates"):
            compute_weights(Instance(id="x", evidence=()), spec, GAIN)


class TestInvariants:
    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(23)
        specs = [
            WeightSpec(),
            WeightSpec(kind="temperature", tau=0.25),
            WeightSpec(kind="temperature", tau=4.0),
            WeightSpec(kind="length_norm", beta=1.5),
            WeightSpec(kind="length_reward", gamma=1.2),
            WeightSpec(kind="mixture"),
        ]
        for _ in range(40):
            n = int(rng.integers(1, 10))
            cands = [
                scored(" ".join("w" for _ in range(int(rng.integers(1, 7)))),
                       float(-rng.exponential(4.0)),
                       model_id=f"m{int(rng.integers(0, 3))}")
                for _ in range(n)
            ]
            for spec in specs:
                wv = compute_weights(instance(cands), spec, GAIN)
                assert abs(float(np.sum(wv.weights)) - 1.0) <= 1e-9
                assert np.all(wv.weights >= 0.0)
                assert np.all(np.isfinite(wv.weights))
                assert 1.0 <= wv.ess <= n + 1e-12

    def test_ess_is_n_only_for_uniform_weights(self):
        inst = instance([scored("a", -1.0), scored("b", -5.0)])
        uniform = compute_weights(inst, WeightSpec(), GAIN)
        assert uniform.ess == 2.0
        sharpened = compute_weights(inst, WeightSpec(kind="temperature", tau=0.5), GAIN)
        assert sharpened.ess < 2.0

    @pytest.mark.parametrize("tau, scores", [(0.1, (-1e308, -1e307)), (0.5, (-1e308, 1e308))])
    def test_extreme_scores_weigh_as_ieee_arithmetic(self, tau, scores):
        # s * (1/tau - 1) and the max-subtraction overflow to -inf, whose
        # exp is 0: all the mass goes to the larger score, with no warning.
        inst = instance([scored("a", scores[0]), scored("b", scores[1])])
        wv = compute_weights(inst, WeightSpec(kind="temperature", tau=tau), GAIN)
        assert wv.weights.tolist() == [0.0, 1.0]
        assert wv.ess == 1.0

    def test_infinite_log_weights_share_the_mass(self):
        # 3 * 1e308 overflows to +inf: the target puts all its mass on the
        # longest candidates, equally, rather than on none of them.
        spec = WeightSpec(kind="length_reward", gamma=1e308)
        for texts, want in [(("a b c", "b"), [1.0, 0.0]),
                            (("a b c", "x y z", "b"), [0.5, 0.5, 0.0])]:
            inst = instance([scored(t, -1.0 - k) for k, t in enumerate(texts)])
            assert compute_weights(inst, spec, GAIN).weights.tolist() == want
            assert decode(inst, GAIN, spec).weights == tuple(want)
        # A peak of -inf or nan still has nothing to normalize.
        for log_w in ([-math.inf, -math.inf], [math.nan, 0.0]):
            with pytest.raises(DegenerateWeightsError):
                weighting._normalize_log(np.array(log_w))

    def test_extreme_temperature_concentrates(self):
        inst = instance([scored("a", -1.0), scored("b", -30.0)])
        wv = compute_weights(inst, WeightSpec(kind="temperature", tau=0.01), GAIN)
        assert wv.weights[0] == pytest.approx(1.0, abs=1e-12)
        assert wv.ess == pytest.approx(1.0, abs=1e-9)
