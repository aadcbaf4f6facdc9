"""Tests for domain types and instance validation."""

import math

import pytest

from mbrkit import (
    Candidate,
    ConfigError,
    EmptyEvidenceError,
    EmptyHypothesesError,
    GainSpec,
    Instance,
    MatrixShapeMismatchError,
    MissingModelIdError,
    MissingScoreError,
    NonFiniteValueError,
    WeightSpec,
    gain_matrix,
    validate_instance,
)
from mbrkit import metrics


def make_instance(texts=("a", "a", "b"), **kwargs):
    return Instance(
        id="t",
        evidence=tuple(Candidate(text=t, tokens=tuple(t.split())) for t in texts),
        **kwargs,
    )


class TestGainSpec:
    def test_defaults(self):
        spec = GainSpec()
        assert spec.kind == "rouge_n_kernel"
        assert spec.n == 1
        assert spec.max_order == 4
        assert spec.lowercase is True
        assert spec.tokenizer == "whitespace"

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            GainSpec(kind="levenshtein")

    def test_rejects_bad_orders(self):
        with pytest.raises(ConfigError):
            GainSpec(n=0)
        with pytest.raises(ConfigError):
            GainSpec(max_order=0)

    def test_rejects_unknown_tokenizer(self):
        with pytest.raises(ConfigError):
            GainSpec(tokenizer="bpe")


class TestWeightSpec:
    def test_defaults_to_uniform(self):
        assert WeightSpec().kind == "uniform"

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            WeightSpec(kind="entropy")

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ConfigError):
            WeightSpec(kind="temperature", tau=0.0)
        with pytest.raises(ConfigError):
            WeightSpec(kind="temperature", tau=-1.0)

    def test_rejects_bad_mixture_weights(self):
        with pytest.raises(ConfigError):
            WeightSpec(kind="mixture", mixture_weights={"m0": -0.1, "m1": 1.0})
        with pytest.raises(ConfigError):
            WeightSpec(kind="mixture", mixture_weights={"m0": 0.0})

    @pytest.mark.parametrize("kwargs", [
        {"kind": "length_norm", "beta": math.inf},
        {"kind": "length_norm", "beta": math.nan},
        {"kind": "length_reward", "gamma": math.nan},
        {"kind": "length_reward", "gamma": -math.inf},
        {"kind": "temperature", "tau": math.inf},
        {"kind": "temperature", "tau": 1e-320},  # 1 / tau is inf
        {"kind": "mixture", "mixture_weights": {"m0": math.inf, "m1": 1.0}},
        {"kind": "mixture", "mixture_weights": {"m0": math.nan, "m1": 1.0}},
        # The config echo carries every parameter, whatever the kind.
        {"kind": "uniform", "beta": math.inf},
        {"kind": "uniform", "tau": math.nan},
    ])
    def test_rejects_non_finite_parameters(self, kwargs):
        with pytest.raises(ConfigError):
            WeightSpec(**kwargs)

    def test_accepts_finite_extremes(self):
        WeightSpec(kind="temperature", tau=1e-300)
        WeightSpec(kind="length_norm", beta=-1000.0)
        WeightSpec(kind="mixture", mixture_weights={"m0": 1e308, "m1": 0.0})


class TestValidateInstance:
    def test_defaults_hypotheses_to_evidence(self):
        inst = make_instance()
        checked = validate_instance(inst, GainSpec(), WeightSpec())
        assert checked.hypotheses == checked.evidence
        assert [c.text for c in checked.hypotheses] == ["a", "a", "b"]

    def test_defaulting_preserves_order_and_multiplicity(self):
        inst = make_instance(texts=("x", "y", "x", "x"))
        checked = validate_instance(inst, GainSpec(), WeightSpec())
        assert [c.text for c in checked.hypotheses] == ["x", "y", "x", "x"]

    def test_empty_evidence_rejected(self):
        with pytest.raises(EmptyEvidenceError):
            validate_instance(Instance(id="t", evidence=()), GainSpec(), WeightSpec())

    def test_empty_hypotheses_rejected(self):
        inst = Instance(id="t", evidence=(Candidate(text="a"),), hypotheses=())
        with pytest.raises(EmptyHypothesesError):
            validate_instance(inst, GainSpec(), WeightSpec())

    def test_external_matrix_shape_checked(self):
        inst = make_instance(external_gain=((0.1, 0.2, 0.3), (0.4, 0.5, 0.6)))
        with pytest.raises(MatrixShapeMismatchError):
            validate_instance(inst, GainSpec(), WeightSpec())

    def test_external_kind_requires_matrix(self):
        with pytest.raises(MatrixShapeMismatchError):
            validate_instance(make_instance(), GainSpec(kind="external"), WeightSpec())

    def test_external_matrix_must_be_finite(self):
        rows = tuple(tuple(0.0 for _ in range(3)) for _ in range(3))
        rows = (rows[0], (0.0, math.nan, 0.0), rows[2])
        inst = make_instance(external_gain=rows)
        with pytest.raises(NonFiniteValueError):
            validate_instance(inst, GainSpec(), WeightSpec())

    def test_nonfinite_score_rejected(self):
        inst = Instance(id="t", evidence=(Candidate(text="a", score=math.inf),))
        with pytest.raises(NonFiniteValueError):
            validate_instance(inst, GainSpec(), WeightSpec())

    def test_score_required_for_length_weighting(self):
        inst = make_instance()
        with pytest.raises(MissingScoreError):
            validate_instance(inst, GainSpec(), WeightSpec(kind="length_norm", beta=1.0))

    def test_model_id_required_for_mixture(self):
        inst = make_instance()
        with pytest.raises(MissingModelIdError):
            validate_instance(inst, GainSpec(), WeightSpec(kind="mixture"))

    def test_model_id_must_be_known_to_mixture(self):
        inst = Instance(id="t", evidence=(Candidate(text="a", model_id="m9"),))
        spec = WeightSpec(kind="mixture", mixture_weights={"m0": 1.0})
        with pytest.raises(MissingModelIdError):
            validate_instance(inst, GainSpec(), spec)

    def test_idempotent(self):
        inst = make_instance(external_gain=tuple(tuple(0.5 for _ in range(3)) for _ in range(3)))
        once = validate_instance(inst, GainSpec(), WeightSpec())
        twice = validate_instance(once, GainSpec(), WeightSpec())
        assert once == twice

    def test_duplicates_retained_in_evidence(self):
        checked = validate_instance(make_instance(), GainSpec(), WeightSpec())
        assert len(checked.evidence) == 3

    def test_dedup_hypotheses_keeps_first(self):
        inst = Instance(
            id="t",
            evidence=(Candidate(text="a"),),
            hypotheses=(
                Candidate(text="a b", score=-1.0),
                Candidate(text="a  b", score=-2.0),
                Candidate(text="c"),
            ),
        )
        checked = validate_instance(inst, GainSpec(), WeightSpec(), dedup_hypotheses=True)
        assert [c.text for c in checked.hypotheses] == ["a b", "c"]
        assert checked.hypotheses[0].score == -1.0

    def test_dedup_tokenizes_each_distinct_hypothesis_once(self, monkeypatch):
        texts = ("a b", "a  b", "c", "A b")
        hypotheses = tuple(Candidate(text=texts[k % 4]) for k in (0, 1, 2, 0, 3, 2, 1, 0, 3, 2))
        inst = Instance(id="t", evidence=(Candidate(text="a"),), hypotheses=hypotheses)
        tokens, calls = metrics.candidate_tokens, []

        def counted(c, spec):
            calls.append(c.text)
            return tokens(c, spec)

        monkeypatch.setattr(metrics, "candidate_tokens", counted)
        checked = validate_instance(inst, GainSpec(), WeightSpec(), dedup_hypotheses=True)
        assert [c.text for c in checked.hypotheses] == ["a b", "c"]
        assert sorted(calls) == sorted(texts)
        calls.clear()
        cased = validate_instance(inst, GainSpec(lowercase=False), WeightSpec(),
                                  dedup_hypotheses=True)
        assert [c.text for c in cased.hypotheses] == ["a b", "c", "A b"]
        assert sorted(calls) == sorted(texts)

    def test_missing_external_matrix_is_one_message(self):
        inst = make_instance()
        spec = GainSpec(kind="external")
        with pytest.raises(MatrixShapeMismatchError) as by_validation:
            validate_instance(inst, spec, WeightSpec())
        with pytest.raises(MatrixShapeMismatchError) as by_matrix:
            gain_matrix(inst, spec)
        assert str(by_validation.value) == str(by_matrix.value) == (
            "gain kind 'external' requires the instance to carry an external_gain matrix")

    def test_dedup_slices_external_columns(self):
        inst = Instance(
            id="t",
            evidence=(Candidate(text="a"), Candidate(text="b")),
            hypotheses=(Candidate(text="a"), Candidate(text="a"), Candidate(text="b")),
            external_gain=((0.1, 0.2, 0.3), (0.4, 0.5, 0.6)),
        )
        checked = validate_instance(
            inst, GainSpec(kind="external"), WeightSpec(), dedup_hypotheses=True
        )
        assert checked.external_gain == ((0.1, 0.3), (0.4, 0.6))

    def test_list_fields_coerced_to_tuples(self):
        inst = Instance(
            id="t",
            evidence=(Candidate(text="a b", tokens=["a", "b"]),),
        )
        checked = validate_instance(inst, GainSpec(), WeightSpec())
        assert checked.evidence[0].tokens == ("a", "b")
