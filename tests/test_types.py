"""Tests for domain types and instance validation."""

import dataclasses
import inspect
import json
import math
import pickle
from decimal import Decimal

import numpy as np
import pytest

from mbrkit import (
    Candidate,
    ConfigError,
    EmptyEvidenceError,
    EmptyHypothesesError,
    GainSpec,
    Instance,
    MatrixShapeMismatchError,
    MbrError,
    MissingModelIdError,
    MissingScoreError,
    NonFiniteValueError,
    WeightSpec,
    compute_weights,
    decode,
    gain_matrix,
    validate_instance,
)
from mbrkit import metrics
from mbrkit.io import parse_instance_line


def make_instance(texts=("a", "a", "b"), **kwargs):
    return Instance(
        id="t",
        evidence=tuple(Candidate(text=t, tokens=tuple(t.split())) for t in texts),
        **kwargs,
    )


class TestCandidate:
    def test_tokens_are_a_tuple_from_construction(self):
        c = Candidate(text="a b", tokens=["a", "b"])
        assert type(c.tokens) is tuple and c.tokens == ("a", "b")
        twin = Candidate(text="a b", tokens=("a", "b"))
        assert c == twin and hash(c) == hash(twin)
        replaced = dataclasses.replace(twin, tokens=["b", "a"])
        assert type(replaced.tokens) is tuple and replaced.tokens == ("b", "a")
        assert Candidate("a", iter(["a"])).tokens == ("a",)
        assert Candidate(text="a").tokens is None
        assert Candidate(text="a b", tokens=twin.tokens).tokens is twin.tokens

    def test_parsed_candidate_is_a_dataclass_built_one(self):
        line = ('{"id":"p","evidence":[{"text":"a b","tokens":["a","b"],"score":-1.5,'
                '"answer":"7","model_id":"m"},{"text":"c"}]}')
        parsed = parse_instance_line(line, 1).evidence
        built = (Candidate("a b", ("a", "b"), -1.5, "7", "m"), Candidate("c"))
        for got, want in zip(parsed, built):
            assert type(got) is Candidate and type(got.tokens) is type(want.tokens)
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
            assert vars(got) == vars(want) and list(vars(got)) == list(vars(want))
            assert pickle.loads(pickle.dumps(got)) == want
            for changes in ({}, {"text": "z"}, {"tokens": ["x"]}, {"score": 0.5}):
                again = dataclasses.replace(got, **changes)
                assert again == dataclasses.replace(want, **changes)
                assert repr(again) == repr(dataclasses.replace(want, **changes))
            with pytest.raises(dataclasses.FrozenInstanceError):
                got.text = "z"

    FIELDS = ("text", "tokens", "score", "answer", "model_id")

    def test_constructor_signature_and_fields(self):
        params = inspect.signature(Candidate).parameters
        assert tuple(params) == self.FIELDS
        assert params["text"].default is inspect.Parameter.empty
        assert all(params[name].default is None for name in self.FIELDS[1:])
        assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params.values())
        fields = dataclasses.fields(Candidate)
        assert tuple(f.name for f in fields) == self.FIELDS
        assert fields[0].default is dataclasses.MISSING
        assert all(f.default is None for f in fields[1:])
        assert Candidate.__match_args__ == self.FIELDS
        match Candidate("a b", ["a", "b"], -1.0):
            case Candidate(text, tokens, score, None, None):
                assert (text, tokens, score) == ("a b", ("a", "b"), -1.0)
            case _:
                pytest.fail("positional pattern did not match")

    def test_constructor_rejects_missing_and_unknown_arguments(self):
        with pytest.raises(TypeError):
            Candidate()
        with pytest.raises(TypeError):
            Candidate("a", bogus=1)
        with pytest.raises(TypeError):
            Candidate("a", None, None, None, None, None)

    def test_keyword_and_positional_construction_agree(self):
        by_keyword = Candidate(model_id="m", answer="7", score=-1.5, tokens=["a"], text="a")
        by_position = Candidate("a", ["a"], -1.5, "7", "m")
        assert list(vars(by_keyword).items()) == list(vars(by_position).items())
        assert list(vars(by_keyword)) == list(self.FIELDS)
        assert list(vars(Candidate("a"))) == list(self.FIELDS)


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

    @pytest.mark.parametrize("bad", [1.5, 2.0, "2", True, None])
    def test_rejects_orders_that_are_not_integers(self, bad):
        # A non-integer order would fail every gain call with a bare
        # TypeError, not an MbrError; a bool is refused as the parser does.
        with pytest.raises(ConfigError, match=r"^n must be an integer"):
            GainSpec(n=bad)
        with pytest.raises(ConfigError, match=r"^max_order must be an integer"):
            GainSpec(kind="sentence_bleu", max_order=bad)


    @pytest.mark.parametrize("bad", ["no", "", 0, 1, 1.0, None])
    def test_rejects_lowercase_that_is_not_a_bool(self, bad):
        # A truthy string would lowercase and echo as "lowercase":"no".
        with pytest.raises(ConfigError, match=r"^lowercase must be a bool"):
            GainSpec(lowercase=bad)

    def test_accepts_lowercase_bools(self):
        assert GainSpec(lowercase=False).lowercase is False
        assert GainSpec(lowercase=True).lowercase is True


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
        {"kind": "mixture", "mixture_weights": {"m0": 1e308, "m1": 1e308}},  # the sum is inf
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

    @pytest.mark.parametrize("kwargs", [
        {"tau": "0.5"},
        {"kind": "temperature", "tau": None},
        {"kind": "temperature", "tau": True},
        {"beta": True},
        {"kind": "length_norm", "beta": "1"},
        {"kind": "length_reward", "gamma": False},
        {"gamma": [0.5]},
        {"kind": "mixture", "mixture_weights": [("a", 1.0)]},
        {"kind": "mixture", "mixture_weights": {"a": "1"}},
        {"kind": "mixture", "mixture_weights": {"a": True, "b": 1.0}},
        {"kind": "mixture", "mixture_weights": {"a": None}},
        {"kind": "mixture", "mixture_weights": {1: 1.0}},
    ], ids=str)
    def test_rejects_parameters_of_the_wrong_type(self, kwargs):
        # Each would raise a bare TypeError or AttributeError, or (a bool)
        # construct and be echoed as ``true``.
        with pytest.raises(ConfigError, match=r"must be a real number|must map str model ids"):
            WeightSpec(**kwargs)

    def test_accepts_real_numbers_that_are_not_floats(self):
        spec = WeightSpec(kind="temperature", tau=np.float64(0.5), beta=1, gamma=np.int64(2))
        assert (spec.tau, spec.beta, spec.gamma) == (0.5, 1, 2)
        WeightSpec(kind="mixture", mixture_weights={"m0": 1, "m1": np.float64(0.5)})


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

    def test_ragged_external_matrix_names_its_first_wrong_row(self):
        inst = make_instance(texts=("a", "b"), external_gain=((1.0, 2.0), (3.0,)))
        with pytest.raises(MatrixShapeMismatchError) as err:
            validate_instance(inst, GainSpec(), WeightSpec())
        assert str(err.value) == "external_gain[1] has 1 entries, expected 2"
        inst = make_instance(texts=("a", "b"), external_gain=((1.0, 2.0, 3.0), (3.0,)))
        with pytest.raises(MatrixShapeMismatchError) as err:
            validate_instance(inst, GainSpec(), WeightSpec())
        assert str(err.value) == "external_gain[0] has 3 entries, expected 2"

    def test_external_row_count_message_is_kept(self):
        inst = make_instance(texts=("a", "b"), external_gain=((1.0, 2.0),))
        with pytest.raises(MatrixShapeMismatchError) as err:
            validate_instance(inst, GainSpec(), WeightSpec())
        assert str(err.value) == "external gain matrix is 1x2, expected 2x2"

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

    @pytest.mark.parametrize("texts, hypotheses, rows, error, text", [
        (("a", "b"), None, ((1.0, 2.0), (3.0,)),
         MatrixShapeMismatchError, "external_gain[1] has 1 entries, expected 2"),
        (("a",), None, (), MatrixShapeMismatchError, "external gain matrix is 0x0, expected 1x1"),
        (("a", "b"), None, ((1.0, 2.0),),
         MatrixShapeMismatchError, "external gain matrix is 1x2, expected 2x2"),
        (("a", "b"), ("x", "y", "z"), ((1.0, 2.0), (3.0, 4.0)),
         MatrixShapeMismatchError, "external_gain[0] has 2 entries, expected 3"),
        (("a", "b"), None, ((1.0,), (2.0,)),
         MatrixShapeMismatchError, "external_gain[0] has 1 entries, expected 2"),
        (("a", "b"), None, ((1.0, 2.0), (3.0, math.nan)),
         NonFiniteValueError, "external_gain[1][1] is nan"),
    ], ids=["ragged", "empty", "row-count", "width", "width-of-default-hypotheses", "nan"])
    def test_unvalidated_external_matrix_fails_as_validation_does(self, texts, hypotheses, rows,
                                                                   error, text):
        # gain_matrix and gain_table check an external matrix by the rule
        # validate_instance applies, so an API caller that never validated
        # gets the same class and text.
        hyps = None if hypotheses is None else tuple(Candidate(text=t) for t in hypotheses)
        inst = make_instance(texts=texts, hypotheses=hyps, external_gain=rows)
        spec = GainSpec(kind="external")
        for check in (lambda: validate_instance(inst, spec, WeightSpec()),
                      lambda: gain_matrix(inst, spec), lambda: metrics.gain_table(inst, spec)):
            with pytest.raises(MbrError) as err:
                check()
            assert type(err.value) is error and str(err.value) == text

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

    @pytest.mark.parametrize("hypotheses", [None, (), ("x", "y")], ids=["none", "0", "2"])
    def test_external_matrix_of_no_rows_is_empty(self, hypotheses):
        # No evidence, so validation refuses the instance first; the gain
        # table gives the (0, H) matrix every other gain gives.
        hyps = None if hypotheses is None else tuple(Candidate(text=t) for t in hypotheses)
        inst = Instance(id="x", evidence=(), hypotheses=hyps, external_gain=())
        spec = GainSpec(kind="external")
        matrix = gain_matrix(inst, spec)
        assert matrix.shape == (0, len(hypotheses or ())) and matrix.dtype == np.float64
        assert metrics.gain_table(inst, spec).shape == matrix.shape

    @staticmethod
    def external_checks(rows, dedup=False):
        """Validation (with ``dedup``), gain_matrix and gain_table of an
        external instance of two evidence samples against hypotheses x, x
        and y, its matrix ``rows``."""
        inst = Instance(id="t", evidence=(Candidate(text="a"), Candidate(text="b")),
                        hypotheses=tuple(Candidate(text=t) for t in "xxy"), external_gain=rows)
        spec = GainSpec(kind="external")
        return (lambda: validate_instance(inst, spec, WeightSpec(), dedup).external_gain,
                lambda: gain_matrix(inst, spec), lambda: metrics.gain_table(inst, spec).matrix())

    # Single bad entries of an API matrix: each caller raises what float()
    # of the entry raises, as when every entry was converted by float().
    # numpy reads None as NaN, and reads a list of one number in a matrix of
    # such lists as a third axis.
    @pytest.mark.parametrize("bad, error, rows", [
        (None, TypeError, ((0.5, 1.0, None), (0.0, 0.25, 1.0))),
        ("abc", ValueError, ((0.5, 1.0, 2.0), (0.0, "abc", 1.0))),
        (10**400, OverflowError, ((0.5, 1.0, 2.0), (10**400, 0.25, 1.0))),
        ([1], TypeError, ((0.5, [1], 2.0), (0.0, 0.25, 1.0))),
        ([0.5], TypeError, (([0.5], [1.0], [2.0]), ([0.0], [0.25], [1.0]))),
        (None, TypeError, ((0.5, math.nan, None), (0.0, 0.25, 1.0))),
    ], ids=["none", "string", "huge-int", "nested", "all-nested", "none-after-nan"])
    @pytest.mark.parametrize("dedup", [False, True], ids=["all", "dedup"])
    def test_unconvertible_external_entry_raises_as_float_does(self, bad, error, rows, dedup):
        with pytest.raises(error) as expected:
            float(bad)
        for check in self.external_checks(rows, dedup):
            with pytest.raises(error) as err:
                check()
            assert type(err.value) is error and str(err.value) == str(expected.value)

    @pytest.mark.parametrize("entry", ["0.5", True, Decimal("0.1"), 2**64 + 1, 2**53 + 1,
                                       np.float32(0.1), "-0.0", "1_000"],
                             ids=["string", "bool", "decimal", "big-int", "rounded-int", "float32",
                                  "signed-zero", "underscored"])
    def test_convertible_external_entry_is_its_float(self, entry):
        rows = ((0.5, entry, 2.0), (0.0, 0.25, entry))
        want = tuple(tuple(float(v) for v in row) for row in rows)
        checked, matrix, table = (check() for check in self.external_checks(rows))
        assert checked == want
        assert all(type(v) is float for row in checked for v in row)
        assert [[math.copysign(1.0, v) for v in row] for row in checked] == \
            [[math.copysign(1.0, v) for v in row] for row in want]
        for got in (matrix, table):
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.tobytes() == np.array(want).tobytes()
        deduped = self.external_checks(rows, dedup=True)[0]()
        assert deduped == tuple((row[0], row[2]) for row in want)
        assert all(type(v) is float for row in deduped for v in row)

    # float() runs on every entry before the shape is checked: a bad entry
    # of a misshapen matrix raises float()'s error, a row that is not
    # iterable raises iteration's, and rows and matrices that are generators
    # are read as they come.
    @pytest.mark.parametrize("rows, expected", [
        (lambda: ((0.5, None),), lambda: float(None)),
        (lambda: ((0.5, 1.0, 2.0), ("abc",)), lambda: float("abc")),
        (lambda: ((0.5, 1.0, 2.0), 7), lambda: iter(7)),
        (lambda: (iter(row) for row in ((0.5, 1.0, 2.0), (0.0, 0.25, 1.0))), None),
    ], ids=["misshapen-none", "misshapen-string", "row-not-iterable", "generators"])
    def test_entries_are_converted_before_the_shape_is_checked(self, rows, expected):
        for k in range(3):
            check = self.external_checks(rows())[k]
            if expected is None:
                assert np.array(check()).tolist() == [[0.5, 1.0, 2.0], [0.0, 0.25, 1.0]]
                continue
            with pytest.raises(Exception) as want:
                expected()
            with pytest.raises(Exception) as err:
                check()
            assert type(err.value) is type(want.value) and str(err.value) == str(want.value)

    def test_list_fields_coerced_to_tuples(self):
        inst = Instance(
            id="t",
            evidence=(Candidate(text="a b", tokens=["a", "b"]),),
        )
        checked = validate_instance(inst, GainSpec(), WeightSpec())
        assert checked.evidence[0].tokens == ("a", "b")


def _line(evidence, hypotheses=None):
    record = {"id": "t", "evidence": evidence}
    if hypotheses is not None:
        record["hypotheses"] = hypotheses
    return json.dumps(record)


def _api_twin(line: str) -> Instance:
    """The instance of a JSONL line built through the API, with fresh candidates."""
    record = json.loads(line)
    hypotheses = record.get("hypotheses")
    return Instance(id=record["id"], evidence=tuple(Candidate(**c) for c in record["evidence"]),
                    hypotheses=hypotheses and tuple(Candidate(**c) for c in hypotheses))


A = {"text": "a b", "score": -1.0, "answer": "1", "model_id": "m0"}
B = {"text": "b", "score": -2.0, "answer": "2", "model_id": "m1"}


class TestSides:
    LINE = _line([A, A, B, A, {"text": "A  b", "score": -1.5, "answer": "1", "model_id": "m0"},
                  A, {"text": "x", "tokens": ["a", "b"], "score": -3.0, "answer": "1",
                      "model_id": "m1"}, B],
                 [B, {"text": "c d", "score": -1.0, "answer": "2"}, B, B])
    SPECS = [(GainSpec(), WeightSpec(kind="length_norm", beta=1.0)),
             (GainSpec(kind="sentence_bleu"), WeightSpec(kind="temperature", tau=0.5)),
             (GainSpec(kind="exact_match"), WeightSpec(kind="length_reward", gamma=0.5)),
             (GainSpec(kind="answer_match"), WeightSpec(kind="mixture"))]

    def test_parsed_instance_equals_its_api_twin(self):
        parsed, api = parse_instance_line(self.LINE, 1), _api_twin(self.LINE)
        assert parsed == api and repr(parsed) == repr(api) and hash(parsed) == hash(api)
        for ours, theirs in zip(parsed.sides(), api.sides()):
            assert [vars(c) for c in ours.distinct] == [vars(c) for c in theirs.distinct]
            assert ours.inverse.tolist() == theirs.inverse.tolist()
        assert [len(s.distinct) for s in parsed.sides()] == [4, 2]
        assert parsed.sides()[0].inverse.tolist() == [0, 0, 1, 0, 2, 0, 3, 1]

    def test_hypotheses_absent_or_the_evidence_share_one_side(self):
        parsed = parse_instance_line(_line([A, B, A]), 1)
        ev, hyp = parsed.sides()
        assert hyp is ev
        checked = validate_instance(parsed, GainSpec(), WeightSpec())
        assert checked.hypotheses is checked.evidence
        assert checked.sides()[1] is checked.sides()[0] is ev
        ev, hyp = Instance(id="t", evidence=parsed.evidence, hypotheses=parsed.evidence).sides()
        assert hyp is ev

    @pytest.mark.parametrize("field", ["evidence", "hypotheses"])
    def test_replace_decodes_like_a_fresh_instance(self, field):
        other = _line([B, {"text": "c d e", "score": -0.5, "answer": "2", "model_id": "m0"}, B])
        replaced = dataclasses.replace(parse_instance_line(self.LINE, 1),
                                       **{field: parse_instance_line(other, 2).evidence})
        fresh = dataclasses.replace(_api_twin(self.LINE), **{field: _api_twin(other).evidence})
        assert replaced == fresh
        for gain, weight in self.SPECS:
            assert decode(replaced, gain, weight) == decode(fresh, gain, weight)
            assert np.array_equal(gain_matrix(replaced, gain), gain_matrix(fresh, gain))

    def test_an_api_instance_is_interned_and_tokenized_once(self, monkeypatch):
        calls = []
        tokens = metrics.candidate_tokens

        def counted(cand, spec):
            calls.append(cand.text)
            return tokens(cand, spec)

        monkeypatch.setattr(metrics, "candidate_tokens", counted)
        inst = Instance(id="t", evidence=tuple(Candidate(text=t, score=-1.0)
                                               for t in ("a b", "a b", "c", "a b")))
        gain_matrix(inst, GainSpec())
        compute_weights(inst, WeightSpec(kind="length_norm", beta=1.0), GainSpec())
        assert calls == ["a b", "c"]
        assert inst.sides() is inst.sides()
        assert inst == Instance(id="t", evidence=inst.evidence)
        # replace drops the kept Sides with the side they were built from.
        shorter = dataclasses.replace(inst, evidence=inst.evidence[2:])
        assert shorter.sides()[0].distinct == [Candidate(text="c", score=-1.0),
                                               Candidate(text="a b", score=-1.0)]

    def test_validation_is_idempotent_and_keeps_the_sides(self):
        parsed = parse_instance_line(self.LINE, 1)
        for gain, weight in self.SPECS:
            for dedup in (False, True):
                once = validate_instance(parsed, gain, weight, dedup)
                twice = validate_instance(once, gain, weight, dedup)
                assert once == twice
                assert all(a is b for a, b in zip(once.sides(), twice.sides()))
                assert decode(once, gain, weight) == decode(twice, gain, weight) \
                    == decode(_api_twin(self.LINE), gain, weight, dedup_hypotheses=dedup)

    # Each check runs once per distinct candidate and names the first sample
    # holding the failing one: sample 4, after twins of sample 0, though it
    # is the third distinct candidate. The texts are those the per-sample
    # checks gave.
    BAD = {"text": "c", "score": -1.0, "answer": "1", "model_id": "m0"}
    CHECKS = [
        ("nonfinite-evidence", [A, A, B, A, {**BAD, "score": "NaN"}, A, {**BAD, "score": "NaN"}],
         None, GainSpec(), WeightSpec(), "evidence[4] has non-finite score nan"),
        ("nonfinite-hypotheses", [A], [A, A, B, A, {**BAD, "score": "Infinity"}, A,
                                       {**BAD, "score": "Infinity"}],
         GainSpec(), WeightSpec(), "hypotheses[4] has non-finite score inf"),
        ("missing-score", [A, A, B, A, {**BAD, "score": None}, A, {**BAD, "score": None}], None,
         GainSpec(), WeightSpec(kind="temperature", tau=0.5),
         "weighting kind 'temperature' requires a score on every evidence candidate; "
         "evidence[4] has none"),
        ("missing-model-id", [A, A, B, A, {**BAD, "model_id": None}, A, {**BAD, "model_id": None}],
         None, GainSpec(), WeightSpec(kind="mixture"),
         "mixture weighting requires a model_id on every evidence candidate; evidence[4] has none"),
        ("unknown-model-id", [A, A, B, A, {**BAD, "model_id": "zz"}, A, {**BAD, "model_id": "zz"}],
         None, GainSpec(), WeightSpec(kind="mixture", mixture_weights={"m0": 1.0, "m1": 1.0}),
         "evidence[4] model_id 'zz' is not in the mixture weights"),
        ("missing-answer", [A, A, B, A, {**BAD, "answer": None}, A, {**BAD, "answer": None}],
         None, GainSpec(kind="answer_match"), WeightSpec(),
         "evidence[4] has no extracted answer"),
        ("missing-hypothesis-answer", [A], [A, A, B, A, {**BAD, "answer": None}, A,
                                            {**BAD, "answer": None}],
         GainSpec(kind="answer_match"), WeightSpec(), "hypotheses[4] has no extracted answer"),
    ]

    @pytest.mark.parametrize("evidence, hypotheses, gain, weight, message",
                             [case[1:] for case in CHECKS], ids=[case[0] for case in CHECKS])
    def test_a_failing_check_names_the_first_sample_of_its_candidate(
            self, evidence, hypotheses, gain, weight, message):
        def as_json(side):
            return side and [{k: (float(v) if k == "score" and isinstance(v, str) else v)
                              for k, v in c.items() if v is not None} for c in side]

        line = _line(as_json(evidence), as_json(hypotheses))
        for inst in (parse_instance_line(line.replace('"NaN"', "NaN")
                                         .replace('"Infinity"', "Infinity"), 1),
                     _api_twin(line)):
            with pytest.raises(MbrError) as failure:
                decode(inst, gain, weight)
            assert str(failure.value) == f"instance 't': {message}"
