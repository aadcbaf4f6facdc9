"""Tests for JSONL parsing/serialization and the command-line interface."""

import hashlib
import io
import json
import math
import os
import random
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import mbrkit
from mbrkit import (
    Candidate,
    GainSpec,
    Instance,
    MissingAnswerError,
    ParseError,
    SchemaError,
    WeightSpec,
)
from mbrkit.cli import RunConfig, _matrix_record, parse_mixture, run
from mbrkit.io import (
    RawJson,
    dumps,
    format_float,
    parse_instance_line,
    read_instances,
    write_instances,
)

FIXTURES = Path(__file__).parent / "fixtures"


class TestSerialization:
    def test_float_format_is_17_significant_digits(self):
        assert format_float(2 / 3) == "0.66666666666666663"
        assert format_float(0.25) == "0.25"
        assert format_float(1.0) == "1"

    def test_floats_round_trip_exactly(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            x = float(rng.normal(0.0, 10.0) * 10.0 ** int(rng.integers(-8, 9)))
            assert float(format_float(x)) == x

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            format_float(math.nan)
        with pytest.raises(ValueError):
            dumps({"x": math.inf})

    def test_dumps_shapes(self):
        record = {"id": "x", "ok": True, "none": None, "xs": [1, 0.5], "s": "a\"b"}
        assert dumps(record) == '{"id":"x","ok":true,"none":null,"xs":[1,0.5],"s":"a\\"b"}'

    def test_dumps_is_valid_json(self):
        record = {"a": [0.1, 2, "x"], "b": {"c": False}}
        assert json.loads(dumps(record)) == record


def reference_dumps(value) -> str:
    """The recursive emitter that ``dumps`` replaced, kept as its byte
    reference: an isinstance chain, with strings and keys written by
    ``json.dumps`` (a key with no JSON form, a non-finite float among them,
    raises)."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        if type(value) is RawJson:
            return value
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, dict):
        # The key of a one-key object: '{"key":0}' less its '{' and ':0}'.
        items = ",".join(json.dumps({k: 0}, separators=(",", ":"), ensure_ascii=False,
                                    allow_nan=False)[1:-3] + ":" + reference_dumps(v)
                         for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(reference_dumps(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


class Label(str):
    """A str subclass, as a caller's own string type would be. JSON
    escapes its characters, not its ``str()``, as a value and as a key."""

    def __str__(self):
        return f"Label({super().__str__()})"


FLOAT_LEAVES = (-0.0, 0.0, 5e-324, 1.5e-310, 1e308, -1e308, 2 / 3, 0.1, 1.0, -3.25e-7,
                123456789.0, 1e16, 1e17)
STRING_LEAVES = ("", "plain", 'quote " and \\ back', "\x00\x01\x1f\n\t\r\x7f", "\u2028\u2029",
                 "中文", "\U0001f600 emoji", "\ud800", "x\udcffy", Label("label"), Label("\n\u00e9"))
OTHER_LEAVES = (0, -1, 7, 10**18, -(2**70), True, False, None, np.float64(2 / 3),
                np.float64(-0.0), np.float64(1e308), RawJson('{"raw":[1,2.5]}'), RawJson(""))


def random_leaf(rng: random.Random):
    return rng.choice(rng.choice((FLOAT_LEAVES, STRING_LEAVES, OTHER_LEAVES)))


def random_value(rng: random.Random, depth: int):
    """A nested record of the leaves above, lists and tuples of plain
    floats, and lists of such lists, as the ``matrix`` command emits."""
    kind = rng.randrange(6) if depth > 0 else 0
    if kind == 0:
        return random_leaf(rng)
    if kind == 1:
        floats = [rng.choice(FLOAT_LEAVES) for _ in range(rng.randrange(5))]
        return floats if rng.random() < 0.5 else tuple(floats)
    if kind == 2:
        return [[rng.choice(FLOAT_LEAVES) for _ in range(rng.randrange(1, 4))]
                for _ in range(rng.randrange(4))]
    if kind == 3:
        items = [random_value(rng, depth - 1) for _ in range(rng.randrange(4))]
        return items if rng.random() < 0.5 else tuple(items)
    keys = STRING_LEAVES + (0, 2.5, None, True)
    return {rng.choice(keys): random_value(rng, depth - 1) for _ in range(rng.randrange(5))}


def outcome(emit, value):
    """The text ``emit`` gives for ``value``, or the type of what it raises."""
    try:
        return emit(value)
    except Exception as exc:
        return type(exc)


class TestDumpsBytes:
    def test_random_records_equal_the_reference_bytes(self):
        rng = random.Random(71)
        for _ in range(3000):
            value = random_value(rng, 4)
            assert isinstance(outcome(reference_dumps, value), str)
            assert dumps(value) == reference_dumps(value), value

    def test_result_and_matrix_records(self):
        rng = random.Random(72)
        echo = RawJson(dumps({"metric": {"kind": "rouge_n_kernel", "n": 1}, "mixture": None}))
        for _ in range(200):
            floats = [rng.choice(FLOAT_LEAVES) * rng.random() for _ in range(rng.randrange(1, 9))]
            records = (
                {"id": rng.choice(STRING_LEAVES), "selected_index": rng.randrange(8),
                 "selected_text": rng.choice(STRING_LEAVES), "gain_estimates": floats,
                 "weights": tuple(floats), "tie_broken": rng.random() < 0.5,
                 "config_echo": echo},
                {"id": "m", "gain_matrix": np.array([floats, floats[::-1]]).tolist(),
                 "config_echo": echo},
            )
            for record in records:
                assert dumps(record) == reference_dumps(record)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan),
                                     np.int64(3), np.bool_(True), object(), {1, 2}])
    def test_unserializable_values_raise_as_the_reference(self, bad):
        rng = random.Random(73)
        for _ in range(50):
            value = random_value(rng, 3)
            for record in ([bad], (0.5, bad), {"x": [0.25, bad]}, [[1.0], [bad]],
                           {"a": value, "b": {"c": bad}}, bad):
                want = outcome(reference_dumps, record)
                assert want in (ValueError, TypeError)
                assert outcome(dumps, record) is want

    @pytest.mark.parametrize("key", ["k", 'q"\\\n\u00e9', "", Label("label"), 0, -7, 2**70,
                                     0.1, -0.0, 1e300, 5e-324, 2 / 3, np.float64(2 / 3),
                                     True, False, None])
    def test_dict_keys_are_written_as_json_writes_them(self, key):
        record = {key: 1, "v": {key: [0.5]}}
        assert dumps(record) == json.dumps(record, separators=(",", ":"), ensure_ascii=False)

    @pytest.mark.parametrize("key, error", [((1, 2), TypeError), (frozenset(), TypeError),
                                            (math.nan, ValueError), (math.inf, ValueError),
                                            (-math.inf, ValueError)])
    def test_keys_json_cannot_encode_raise(self, key, error):
        with pytest.raises(error):
            dumps({"a": 1, key: 2})

    def test_int_subclass_gives_its_digits(self):
        class Code(int):
            def __str__(self):
                return f"Code({int(self)})"

        assert dumps({"n": Code(7), "xs": [Code(-2), 0.5], "t": (Code(3),)}) == \
            '{"n":7,"xs":[-2,0.5],"t":[3]}'


class TestFloatArrayFormat:
    """A float-only array is one ``%`` format; these pin its bytes and errors
    to :func:`format_float` of each element."""

    EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                   1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e17, -1e16, 1e-17)

    @classmethod
    def finite_pool(cls, rng):
        pool = [x for x in (struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
                            for _ in range(60000)) if math.isfinite(x)]
        return pool + list(cls.EDGE_FLOATS) * 20

    def test_float_array_is_each_float_formatted(self):
        # Random finite bit patterns cover every exponent; the edges are
        # the zeros, subnormals, the largest double and where ".17g"
        # switches to exponent notation.
        rng = random.Random(74)
        pool = self.finite_pool(rng)
        rng.shuffle(pool)
        start = 0
        while start < len(pool):
            size = rng.randrange(1, 40)
            floats = pool[start:start + size]
            start += size
            want = "[" + ",".join(format(x, ".17g") for x in floats) + "]"
            assert dumps(floats) == want
            assert dumps(tuple(floats)) == want

    def test_repeated_floats_are_each_float_formatted(self):
        # Each distinct value is formatted once and its text repeated; the
        # draws repeat a few values of the pool, its edge floats included,
        # so both zeros and equal values of either sign meet in one array.
        rng = random.Random(75)
        pool = self.finite_pool(rng)
        for _ in range(3000):
            few = rng.sample(pool, rng.randrange(1, 6)) + rng.sample(self.EDGE_FLOATS, 1)
            floats = [rng.choice(few) for _ in range(rng.randrange(1, 60))]
            want = "[" + ",".join(map(format_float, floats)) + "]"
            assert dumps(floats) == want
            assert dumps(tuple(floats)) == want
        floats = [0.0, -0.0, 0.0, -0.0, 0.5, 0.5]
        assert dumps(floats) == "[" + ",".join(map(format_float, floats)) + "]"
        assert dumps(floats) == "[0,-0,0,-0,0.5,0.5]"

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_float_in_an_array_raises_as_format_float(self, bad):
        for k in range(4):
            floats = [0.5, 1e300, -0.0, 2 / 3][:k] + [bad, math.inf, 0.25]
            with pytest.raises(ValueError) as want:
                format_float(floats[k])
            for value in (floats, tuple(floats)):
                with pytest.raises(ValueError) as got:
                    dumps(value)
                assert str(got.value) == str(want.value)

    def test_mixed_number_array_goes_element_by_element(self):
        value = [0.5, np.float64(2 / 3), 3, 1e17, np.float64(-0.0), True, -(2**70)]
        want = "[0.5,0.66666666666666663,3,1e+17,-0,true,-1180591620717411303424]"
        assert dumps(value) == dumps(tuple(value)) == want
        for bad in (np.float64(math.nan), np.float64(math.inf)):
            with pytest.raises(ValueError, match="cannot serialize non-finite value"):
                dumps([0.5, 3, bad])


class TestParsing:
    def test_minimal_instance(self):
        inst = parse_instance_line('{"id":"1","evidence":[{"text":"a"},{"text":"a"},{"text":"b"}]}', 1)
        assert inst.id == "1"
        assert len(inst.evidence) == 3
        assert inst.hypotheses is None

    def test_bad_json_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_instance_line("not json", 3)
        assert err.value.line == 3
        assert "line 3" in str(err.value)

    def test_overlong_integer_is_a_parse_error(self):
        for line in ('{"id":"1","evidence":[{"text":"a","score":%s}]}',
                     '{"id":"1","evidence":[{"text":"a"}],"extra":[1,{"n":-%s}]}'):
            with pytest.raises(ParseError) as err:
                parse_instance_line(line % ("7" * 5000), 4)
            assert str(err.value).startswith("line 4: invalid JSON: ")
            assert "sys." not in str(err.value)
        with pytest.raises(ParseError) as err:
            parse_instance_line('{"id":"1",', 4)
        assert str(err.value) == \
            "line 4: invalid JSON: Expecting property name enclosed in double quotes"

    def test_missing_text_reports_field(self):
        with pytest.raises(SchemaError) as err:
            parse_instance_line('{"id":"1","evidence":[{"tokens":["a"]}]}', 2)
        assert err.value.field == "evidence[0].text"

    def test_top_level_must_be_object(self):
        with pytest.raises(SchemaError):
            parse_instance_line("[1,2]", 1)

    def test_id_required(self):
        with pytest.raises(SchemaError):
            parse_instance_line('{"evidence":[{"text":"a"}]}', 1)

    def test_score_must_be_number(self):
        with pytest.raises(SchemaError):
            parse_instance_line('{"id":"1","evidence":[{"text":"a","score":"low"}]}', 1)
        with pytest.raises(SchemaError):
            parse_instance_line('{"id":"1","evidence":[{"text":"a","score":true}]}', 1)

    def test_unknown_fields_ignored(self):
        inst = parse_instance_line(
            '{"id":"1","evidence":[{"text":"a","extra":1}],"comment":"hi"}', 1
        )
        assert inst.evidence[0].text == "a"

    def test_external_gain_parsed(self):
        inst = parse_instance_line(
            '{"id":"1","evidence":[{"text":"a"}],"hypotheses":[{"text":"b"}],'
            '"external_gain":[[0.5]]}', 1
        )
        assert inst.external_gain == ((0.5,),)

    def test_number_out_of_range_reports_field(self):
        huge = str(10**400)
        with pytest.raises(SchemaError) as err:
            parse_instance_line('{"id":"1","evidence":[{"text":"a","score":%s}]}' % huge, 4)
        assert err.value.field == "evidence[0].score"
        with pytest.raises(SchemaError) as err:
            parse_instance_line(
                '{"id":"1","evidence":[{"text":"a"}],"external_gain":[[%s]]}' % huge, 4
            )
        assert err.value.field == "external_gain[0][0]"

    @pytest.mark.parametrize("evidence, hypotheses, message", [
        ('[{"text":"a"},{"text":"b"},{"text":"c"},5]', None,
         "line 9, field 'evidence[3]': candidate must be an object"),
        ('[{"text":"a"},{"text":7}]', None,
         "line 9, field 'evidence[1].text': required and must be a string"),
        ('[{"text":"a"}]', '[{"text":"a"},{"text":"b"},{"text":"c","tokens":["x",1]}]',
         "line 9, field 'hypotheses[2].tokens': must be an array of strings"),
        ('[{"text":"a"},{"text":"b"},{"text":"c"},{"text":"d"},{"text":"e","score":%d}]'
         % 10**400, None, "line 9, field 'evidence[4].score': number out of range"),
        ('[{"text":"a"},{"text":"b","score":"high"}]', None,
         "line 9, field 'evidence[1].score': must be a number"),
        ('[{"text":"a"}]',
         '[{"text":"a"},{"text":"b"},{"text":"c"},{"text":"d"},{"text":"e"},{"text":"f","answer":3}]',
         "line 9, field 'hypotheses[5].answer': must be a string"),
        ('[{"text":"a"},{"text":"b"},{"text":"c"},{"text":"d"},{"text":"e"},{"text":"f"},'
         '{"text":"g","model_id":["m"]}]', None,
         "line 9, field 'evidence[6].model_id': must be a string"),
        ('[{"text":"a"}]', '{"text":"a"}',
         "line 9, field 'hypotheses': must be an array of candidate objects"),
    ])
    def test_error_locations_at_later_indices(self, evidence, hypotheses, message):
        line = '{"id":"1","evidence":%s%s}' % (
            evidence, "" if hypotheses is None else ',"hypotheses":%s' % hypotheses)
        with pytest.raises(SchemaError) as err:
            parse_instance_line(line, 9)
        assert str(err.value) == message
        assert err.value.field == message.split("'")[1]

    def test_external_gain_error_location(self):
        with pytest.raises(SchemaError) as err:
            parse_instance_line('{"id":"1","evidence":[{"text":"a"},{"text":"b"}],'
                                '"external_gain":[[0.5,0.5],[0.5,"x"]]}', 2)
        assert str(err.value) == "line 2, field 'external_gain[1][1]': must be a number"

    def test_deep_nesting_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_instance_line("[" * 100000 + "]" * 100000, 5)
        assert err.value.line == 5

    def test_read_instances_skips_blank_lines(self):
        stream = io.StringIO('{"id":"1","evidence":[{"text":"a"}]}\n\n'
                             '{"id":"2","evidence":[{"text":"b"}]}\n')
        assert [i.id for i in read_instances(stream)] == ["1", "2"]

    @staticmethod
    def line(evidence, hypotheses=None) -> str:
        record = {"id": "1", "evidence": evidence}
        if hypotheses is not None:
            record["hypotheses"] = hypotheses
        return json.dumps(record)

    @staticmethod
    def fields(c: Candidate):
        """A candidate's fields, with the score's sign, which ``==`` ignores at zero."""
        sign = None if c.score is None else math.copysign(1.0, c.score)
        return vars(c), type(c.score), sign

    def test_one_candidate_per_distinct_sample_per_side(self, monkeypatch):
        from mbrkit import io as mbr_io
        built = []

        def counting(*args, **kwargs):
            built.append(Candidate(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(mbr_io, "Candidate", counting)
        rng = random.Random(20)
        texts = [" ".join(rng.choices("abcdefgh", k=rng.randint(3, 9))) + f" s{k}"
                 for k in range(24)]
        scores = [-rng.uniform(0.5, 5.0) for _ in texts]
        picks = list(range(24)) + rng.choices(range(24), k=512 - 24)
        rng.shuffle(picks)
        # Unknown fields vary freely between twins.
        evidence = [{"text": texts[k], "score": scores[k], "seen": n} for n, k in enumerate(picks)]
        hyp_picks = [k % 8 for k in range(40)]
        hypotheses = [{"text": texts[k], "tokens": texts[k].split()} for k in hyp_picks]
        inst = parse_instance_line(self.line(evidence, hypotheses), 1)
        assert len(built) == 24 + 8
        assert len({id(c) for c in inst.evidence}) == 24
        assert len({id(c) for c in inst.hypotheses}) == 8
        for side, picked in ((inst.evidence, picks), (inst.hypotheses, hyp_picks)):
            first = {}
            for c, k in zip(side, picked):
                assert c is first.setdefault(k, c)
        for c, k in zip(inst.evidence, picks):
            assert vars(c) == {"text": texts[k], "tokens": None, "score": scores[k],
                               "answer": None, "model_id": None}
        for c, k in zip(inst.hypotheses, hyp_picks):
            assert c.tokens == tuple(texts[k].split()) and c.score is None

    def test_bool_twin_of_a_number_is_still_rejected(self):
        with pytest.raises(SchemaError) as err:
            parse_instance_line(self.line([{"text": "a", "score": 1}, {"text": "a", "score": True}]), 3)
        assert str(err.value) == "line 3, field 'evidence[1].score': must be a number"

    def test_zero_twins_keep_their_signs(self):
        scores = [0.0, -0.0, -0.0, 0, 0.0, -0.0]
        for order in (scores, scores[::-1]):
            inst = parse_instance_line(self.line([{"text": "a", "score": s} for s in order]), 1)
            assert [math.copysign(1.0, c.score) for c in inst.evidence] == \
                [math.copysign(1.0, s) for s in order]
            assert all(type(c.score) is float for c in inst.evidence)

    def test_int_and_float_twins_share(self):
        inst = parse_instance_line(self.line([{"text": "a", "score": 1}, {"text": "a", "score": 1.0}]), 1)
        assert inst.evidence[0] is inst.evidence[1] and type(inst.evidence[1].score) is float

    @pytest.mark.parametrize("field, first, second", [
        ("tokens", ["a"], ["A"]),
        ("tokens", None, ["a"]),
        ("answer", "1", "2"),
        ("answer", None, "1"),
        ("model_id", "m0", "m1"),
        ("model_id", "m0", None),
        ("score", -1.0, -2.0),
        ("score", None, -1.0),
    ])
    def test_twins_differing_in_a_known_field_stay_distinct(self, field, first, second):
        evidence = [{"text": "a"}, {"text": "a"}, {"text": "a"}]
        for obj, value in zip(evidence, (first, second, first)):
            if value is not None:
                obj[field] = value
        a, b, c = parse_instance_line(self.line(evidence), 1).evidence
        assert a is c and a is not b
        assert [getattr(a, field), getattr(b, field)] == \
            [tuple(v) if isinstance(v, list) else v for v in (first, second)]

    def test_twins_differing_in_an_unknown_field_share(self):
        inst = parse_instance_line(self.line(
            [{"text": "a", "score": -1, "extra": 1}, {"text": "a", "score": -1, "extra": [2]},
             {"text": "a", "score": -1.0}]), 1)
        assert inst.evidence[0] is inst.evidence[1] is inst.evidence[2]

    def test_deeply_nested_field_on_a_twin(self):
        deep = "[" * 900 + "]" * 900
        inst = parse_instance_line(
            '{"id":"1","evidence":[{"text":"a","x":1},{"text":"a","x":%s}]}' % deep, 1)
        assert inst.evidence == (Candidate("a"), Candidate("a"))
        assert inst.evidence[0] is inst.evidence[1]
        # Nested in a known field, it is checked and rejected at its own index.
        with pytest.raises(SchemaError) as err:
            parse_instance_line(
                '{"id":"1","evidence":[{"text":"a","tokens":["a"]},'
                '{"text":"a","tokens":[%s]}]}' % deep, 1)
        assert err.value.field == "evidence[1].tokens"

    # Per field: values a candidate may hold (... is a missing field), and
    # values it must not.
    POOL = {
        "text": (["a", "a", "b"], [7, None]),
        "tokens": ([..., ..., None, ["a"], ["a", "b"], []], [["a", 1], "a", [["a"]]]),
        "score": ([..., None, 1, 1.0, 0, 0.0, -0.0, -1.5, 2**53 + 1, float(2**53)],
                  [True, False, "x", 10**400, [1]]),
        "answer": ([..., ..., None, "x", "y"], [3, ["x"], True]),
        "model_id": ([..., ..., None, "m0", "m1"], [0, True, {"m": 0}]),
        "extra": ([..., 1, {"k": [1]}, "z"], []),
    }

    def outcome(self, line: str):
        try:
            inst = parse_instance_line(line, 1)
        except SchemaError as err:
            return str(err)
        return [[self.fields(c) for c in side] for side in (inst.evidence, inst.hypotheses or ())]

    def draw(self, rng, name):
        good, bad = self.POOL[name]
        return rng.choice(bad if bad and rng.random() < 0.04 else good)

    def test_random_lines_parse_as_each_candidate_alone(self):
        rng = random.Random(2020)
        failures = 0
        for _ in range(1500):
            # Each sample is one of a few base samples, often with one field
            # drawn again, so that twins and near twins are common.
            bases = [{name: self.draw(rng, name) for name in self.POOL} for _ in range(3)]
            sides = []
            for _ in range(rng.choice((1, 2))):
                side = []
                for _ in range(rng.randint(1, 8)):
                    obj = dict(rng.choice(bases))
                    if rng.random() < 0.5:
                        name = rng.choice(list(self.POOL))
                        obj[name] = self.draw(rng, name)
                    obj = {k: v for k, v in obj.items() if v is not ...}
                    side.append(rng.choice((["a"], "a", 1)) if rng.random() < 0.01 else obj)
                sides.append(side)
            want = [[], []]
            for s, (name, side) in enumerate(zip(("evidence", "hypotheses"), sides)):
                for i, obj in enumerate(side):
                    got = self.outcome(self.line([obj]))
                    if isinstance(got, str):
                        want = got.replace("evidence[0]", f"{name}[{i}]")
                        break
                    want[s] += got[0]
                if isinstance(want, str):
                    break
            got = self.outcome(self.line(*sides))
            assert got == want, (sides, got, want)
            failures += isinstance(want, str)
        assert 300 < failures < 1200, failures  # both outcomes are drawn often


class TestRoundTrip:
    def test_all_fields_preserved(self):
        rng = np.random.default_rng(52)
        instances = []
        for k in range(20):
            evidence = tuple(
                Candidate(
                    text=f"w{k} x{i}",
                    tokens=(f"w{k}", f"x{i}"),
                    score=float(-rng.exponential(2.0)),
                    answer=str(int(rng.integers(0, 5))),
                    model_id=f"m{int(rng.integers(0, 2))}",
                )
                for i in range(int(rng.integers(1, 5)))
            )
            hypotheses = evidence[:2] if k % 2 else None
            external = None
            if k % 4 == 0 and hypotheses is not None:
                external = tuple(
                    tuple(float(v) for v in rng.uniform(0, 1, size=len(hypotheses)))
                    for _ in range(len(evidence))
                )
            instances.append(Instance(
                id=f"inst-{k}", evidence=evidence, hypotheses=hypotheses,
                external_gain=external,
            ))
        buffer = io.StringIO()
        write_instances(instances, buffer)
        buffer.seek(0)
        assert read_instances(buffer) == instances

    def test_optional_fields_omitted(self):
        buffer = io.StringIO()
        write_instances([Instance(id="1", evidence=(Candidate(text="a"),))], buffer)
        assert buffer.getvalue() == '{"id":"1","evidence":[{"text":"a"}]}\n'

    def test_unicode_preserved(self):
        inst = Instance(id="u", evidence=(Candidate(text="héllo wörld"),))
        buffer = io.StringIO()
        write_instances([inst], buffer)
        buffer.seek(0)
        assert read_instances(buffer) == [inst]


class TestMixtureFlag:
    def test_parse(self):
        assert parse_mixture("m0=0.7,m1=0.3") == {"m0": 0.7, "m1": 0.3}

    def test_malformed(self):
        from mbrkit import ConfigError
        with pytest.raises(ConfigError):
            parse_mixture("m0:0.7")
        with pytest.raises(ConfigError):
            parse_mixture("m0=abc")

    def test_repeated_id_is_a_config_error(self, tmp_path, capsys):
        from mbrkit import ConfigError
        with pytest.raises(ConfigError, match="'m0' is given more than once"):
            parse_mixture("m0=0.7,m0=0.3,m1=1")
        inp = tmp_path / "in.jsonl"
        inp.write_text('{"id":"1","evidence":[{"text":"a","model_id":"m0"}]}\n', encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert run(["decode", "--weighting", "mixture", "--mixture", "m0=0.7,m0=0.3,m1=1",
                    "--input", str(inp), "--output", str(out)]) == 2
        assert "'m0'" in capsys.readouterr().err
        assert not out.exists() or out.read_text(encoding="utf-8") == ""

    def test_empty_spec_is_a_config_error(self, tmp_path, capsys):
        # An empty --mixture is parsed like any other spec, not taken as absent.
        inp = tmp_path / "in.jsonl"
        inp.write_text('{"id":"1","evidence":[{"text":"a","model_id":"m0"}]}\n', encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert run(["decode", "--weighting", "mixture", "--mixture", "",
                    "--input", str(inp), "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: mixture term '' is not of the form id=weight\n")
        assert not out.exists() or out.read_text(encoding="utf-8") == ""


class TestDecodeCommand:
    def write_input(self, tmp_path, lines):
        path = tmp_path / "in.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_mode_recovery_fixture(self, tmp_path):
        inp = self.write_input(
            tmp_path, ['{"id":"1","evidence":[{"text":"a"},{"text":"a"},{"text":"b"}]}']
        )
        out = tmp_path / "out.jsonl"
        code = run(["decode", "--metric", "exact", "--weighting", "uniform",
                    "--input", str(inp), "--output", str(out)])
        assert code == 0
        record = json.loads(out.read_text(encoding="utf-8"))
        assert record["selected_text"] == "a"
        assert record["selected_index"] == 0
        assert record["config_echo"]["metric"]["kind"] == "exact_match"

    def test_errors_isolated_and_reported(self, tmp_path, capsys):
        inp = self.write_input(tmp_path, [
            '{"id":"ok","evidence":[{"text":"a"}]}',
            "not json",
            '{"id":"sad","evidence":[]}',
        ])
        out = tmp_path / "out.jsonl"
        code = run(["decode", "--input", str(inp), "--output", str(out)])
        assert code == 1
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["id"] == "ok"
        err = capsys.readouterr().err
        assert "line 2" in err
        assert "sad" in err

    def test_config_error_exit_code(self, tmp_path, capsys):
        inp = self.write_input(tmp_path, ['{"id":"1","evidence":[{"text":"a"}]}'])
        assert run(["decode", "--ngram", "0", "--input", str(inp)]) == 2
        assert run(["decode", "--weighting", "temperature", "--tau", "0",
                    "--input", str(inp)]) == 2
        assert run(["decode", "--mixture", "m0:1", "--weighting", "mixture",
                    "--input", str(inp)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flags", [
        ["--weighting", "length-norm", "--beta", "inf"],
        ["--weighting", "length-norm", "--beta", "nan"],
        ["--weighting", "length-reward", "--gamma", "nan"],
        ["--weighting", "length-reward", "--gamma=-inf"],
        ["--weighting", "temperature", "--tau", "inf"],
        ["--weighting", "temperature", "--tau", "1e-320"],
        ["--weighting", "mixture", "--mixture", "m0=inf,m1=1"],
        ["--weighting", "mixture", "--mixture", "m0=1e308,m1=1e308"],  # the sum is inf
        ["--beta", "inf"],
    ])
    def test_non_finite_weighting_parameter_is_a_config_error(self, tmp_path, flags):
        inp = self.write_input(tmp_path, ['{"id":"1","evidence":[{"text":"a","score":-1.0}]}'])
        code, out, err = self.run_stdin(["decode", *flags, "--input", str(inp)], b"")
        assert (code, out) == (2, "")
        assert len(err) == 1 and err[0].startswith("error: "), err

    def test_output_over_input_is_a_config_error(self, tmp_path, capsys):
        inp = self.write_input(tmp_path, ['{"id":"1","evidence":[{"text":"a"}]}'])
        before = inp.read_bytes()
        assert run(["decode", "--input", str(inp), "--output", str(inp)]) == 2
        assert inp.read_bytes() == before
        assert "--output" in capsys.readouterr().err

    def test_unknown_flag_exit_code(self, capsys):
        assert run(["decode", "--wat"]) == 2
        capsys.readouterr()

    def test_jobs_output_identical_and_ordered(self, tmp_path):
        # More lines than the in-flight window of any job count below.
        rng = np.random.default_rng(53)
        lines = []
        for k in range(40):
            texts = [f'{{"text":"{" ".join(rng.choice(["a","b","c"], size=3))}"}}'
                     for _ in range(5)]
            lines.append(f'{{"id":"i{k:02d}","evidence":[{",".join(texts)}]}}')
        inp = self.write_input(tmp_path, lines)
        outputs = {}
        for jobs in ("1", "2", "4"):
            out = tmp_path / f"o{jobs}.jsonl"
            assert run(["decode", "--jobs", jobs, "--input", str(inp), "--output", str(out)]) == 0
            outputs[jobs] = out.read_bytes()
        assert outputs["1"] == outputs["2"] == outputs["4"]
        ids = [json.loads(line)["id"] for line in outputs["1"].decode().splitlines()]
        assert ids == [f"i{k:02d}" for k in range(40)]

    def test_jobs_pool_has_at_most_one_worker_per_core(self, tmp_path, monkeypatch):
        from concurrent import futures
        from concurrent.futures import Future

        from mbrkit import cli

        workers = []

        class InlinePool:
            """Records its size and runs each task at submit, starting no process."""

            def __init__(self, max_workers, mp_context=None):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        # The pool is imported where it is used, so it is patched at its home.
        monkeypatch.setattr(futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        lines = [f'{{"id":"{k}","evidence":[{{"text":"a b"}},{{"text":"b {k}"}}]}}'
                 for k in range(20)]
        inp = self.write_input(tmp_path, lines)
        outputs = {}
        for jobs in ("1", "1000"):
            out = tmp_path / f"o{jobs}.jsonl"
            assert run(["decode", "--jobs", jobs, "--input", str(inp), "--output", str(out)]) == 0
            outputs[jobs] = out.read_bytes()
        assert workers == [2]
        assert outputs["1000"] == outputs["1"] and outputs["1"].count(b"\n") == 20

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_jobs_read_at_most_a_window_ahead(self, tmp_path, capsys, monkeypatch, jobs):
        from mbrkit import cli

        real_lines = cli.iter_lines
        written = 0
        leads = []

        def lazy_lines(stream):
            # Lines are read one at a time, and each read records how far
            # it is past the last line written.
            nonlocal written
            for read, numbered in enumerate(real_lines(stream), start=1):
                written += capsys.readouterr().out.count("\n")
                leads.append(read - written)
                yield numbered

        monkeypatch.setattr(cli, "iter_lines", lazy_lines)
        # Every line of a batch has one length: short lines fill a task up
        # to the line cap, and lines of a quarter of the byte budget close
        # it on bytes.
        for closes_on, pad in (("lines", ""), ("bytes", "x" * (cli._TASK_BYTES // 4))):
            line = '{"id":"%05d","evidence":[{"text":"a b"},{"text":"b %s"}]}'
            by_bytes = -(-cli._TASK_BYTES // len(line % (0, pad)))
            assert (by_bytes < cli._TASK_LINES) == (closes_on == "bytes")
            per_task = min(by_bytes, cli._TASK_LINES)
            bound = cli._WINDOW_PER_JOB * jobs * per_task
            # Long enough that the bound is reached before the input ends.
            count = bound + 2 * per_task + 3
            inp = self.write_input(tmp_path, [line % (k, pad) for k in range(count)])
            written = 0
            leads.clear()
            assert run(["decode", "--jobs", str(jobs), "--input", str(inp)]) == 0
            written += capsys.readouterr().out.count("\n")
            assert written == len(leads) == count, closes_on
            assert max(leads) == bound, closes_on

    def test_jobs_tasks_close_on_bytes_or_lines_with_the_same_output(self, tmp_path):
        from mbrkit import cli

        # Runs of short lines close tasks on the line cap; runs of lines of
        # a third of the byte budget close them on bytes.
        long_text = " ".join(["a b c"] * (cli._TASK_BYTES // 18))
        lines = []
        for run_no in range(3):
            for k in range(cli._TASK_LINES + 40):
                lines.append(f'{{"id":"s{run_no}-{k}","evidence":[{{"text":"a b"}},'
                             f'{{"text":"b {k % 7}"}},{{"text":"a b"}}]}}')
            for k in range(7):
                lines.append(f'{{"id":"l{run_no}-{k}","evidence":[{{"text":"{long_text}"}},'
                             f'{{"text":"a {k}"}}]}}')
        numbered = list(enumerate(lines, start=1))
        tasks = list(cli._tasks(iter(numbered), cli._TASK_BYTES, cli._TASK_LINES))
        assert [item for task in tasks for item in task] == numbered
        sizes = [sum(len(text) for _, text in task) for task in tasks]
        on_lines = [len(task) == cli._TASK_LINES and size < cli._TASK_BYTES
                    for task, size in zip(tasks, sizes)]
        on_bytes = [len(task) < cli._TASK_LINES and size >= cli._TASK_BYTES
                    for task, size in zip(tasks, sizes)]
        # Every task but the last, which the end of input closes.
        assert any(on_lines) and any(on_bytes)
        assert all(a or b for a, b in zip(on_lines[:-1], on_bytes[:-1]))
        inp = self.write_input(tmp_path, lines)
        outputs = {}
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"o{jobs}.jsonl"
            assert run(["decode", "--jobs", jobs, "--input", str(inp), "--output", str(out)]) == 0
            outputs[jobs] = out.read_bytes()
        assert outputs["1"] == outputs["2"] == outputs["3"]
        ids = [json.loads(text)["id"] for text in outputs["1"].decode().splitlines()]
        assert ids == [json.loads(text)["id"] for text in lines]

    def test_jobs_errors_inside_a_task_keep_their_lines(self, tmp_path, capsys):
        # Ten short lines are one task: a malformed line and an escaped lone
        # surrogate in it each fail alone, reported in input order.
        lines = [f'{{"id":"i{k}","evidence":[{{"text":"a {k}"}},{{"text":"a"}}]}}'
                 for k in range(10)]
        lines[3] = '{"id":"i3","evidence":[{"text":"a"}'
        lines[6] = '{"id":"\\ud800","evidence":[{"text":"a"}]}'
        inp = self.write_input(tmp_path, lines)
        runs = {jobs: self.run_captured(capsys, ["decode", "--jobs", jobs, "--input", str(inp)])
                for jobs in ("1", "2")}
        assert runs["1"] == runs["2"]
        code, out, err = runs["2"]
        assert code == 1
        assert [json.loads(text)["id"] for text in out.splitlines()] == [
            f"i{k}" for k in range(10) if k not in (3, 6)]
        assert [e.split(":", 1)[0] for e in err] == ["line 4", "line 7"]
        assert err[1].endswith("surrogates not allowed")

    @pytest.mark.parametrize("line_buffering", [True, False])
    def test_jobs_tasks_are_one_line_for_a_terminal(self, tmp_path, monkeypatch,
                                                    line_buffering):
        from concurrent import futures
        from concurrent.futures import Future

        tasks = []

        class InlinePool:
            """Records each task's lines and runs it at submit."""

            def __init__(self, max_workers, mp_context=None):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, task, *args):
                tasks.append(len(task))
                future = Future()
                future.set_result(fn(task, *args))
                return future

        monkeypatch.setattr(futures, "ProcessPoolExecutor", InlinePool)
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8",
                                  line_buffering=line_buffering)
        monkeypatch.setattr(sys, "stdout", stdout)
        lines = [f'{{"id":"{k}","evidence":[{{"text":"a b"}},{{"text":"b {k}"}}]}}'
                 for k in range(20)]
        inp = self.write_input(tmp_path, lines)
        assert run(["decode", "--jobs", "2", "--input", str(inp)]) == 0
        expected = tmp_path / "expected.jsonl"
        assert run(["decode", "--input", str(inp), "--output", str(expected)]) == 0
        assert stdout.buffer.getvalue() == expected.read_bytes()
        assert tasks == ([1] * 20 if line_buffering else [20])

    def run_captured(self, capsys, argv):
        code = run(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err.splitlines()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_number_out_of_range_is_a_line_error(self, tmp_path, capsys, jobs):
        inp = self.write_input(tmp_path, [
            '{"id":"ok","evidence":[{"text":"a"}]}',
            '{"id":"big","evidence":[{"text":"a","score":%s}]}' % (10**400),
        ])
        code, out, err = self.run_captured(capsys, ["decode", "--jobs", jobs, "--input", str(inp)])
        assert code == 1
        assert [json.loads(line)["id"] for line in out.splitlines()] == ["ok"]
        assert len(err) == 1 and "line 2" in err[0]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_deep_nesting_is_a_line_error(self, tmp_path, capsys, jobs):
        inp = self.write_input(tmp_path, [
            '{"id":"ok","evidence":[{"text":"a"}]}',
            "[" * 100000 + "]" * 100000,
        ])
        code, out, err = self.run_captured(capsys, ["decode", "--jobs", jobs, "--input", str(inp)])
        assert code == 1
        assert [json.loads(line)["id"] for line in out.splitlines()] == ["ok"]
        assert len(err) == 1 and "line 2" in err[0]

    def run_stdin(self, argv, data, **env):
        """The CLI in its own process, reading the bytes ``data`` on stdin,
        with the environment variables ``env`` set."""
        env = {**os.environ, "PYTHONPATH": str(Path(mbrkit.__file__).resolve().parents[1]), **env}
        proc = subprocess.run([sys.executable, "-m", "mbrkit", *argv], input=data,
                              capture_output=True, env=env, timeout=120)
        return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode().splitlines()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_non_utf8_byte_is_a_line_error(self, tmp_path, capsys, jobs):
        data = (b'{"id":"a","evidence":[{"text":"a"}]}\n'
                b'{"id":"b","evidence":[{"text":"\xff"}]}\n'
                b'{"id":"c","evidence":[{"text":"c"}]}\n')
        inp = tmp_path / "in.jsonl"
        inp.write_bytes(data)
        runs = [self.run_captured(capsys, ["decode", "--jobs", jobs, "--input", str(inp)]),
                self.run_stdin(["decode", "--jobs", jobs], data)]
        for code, out, err in runs:
            assert code == 1
            assert [json.loads(line)["id"] for line in out.splitlines()] == ["a", "c"]
            assert err == ["line 2: not valid UTF-8"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_escaped_lone_surrogate_is_a_line_error(self, tmp_path, capsys, jobs):
        # A lone surrogate fails its line when it reaches the result (the
        # selected text or the id), through the generic branch of
        # cli._process_line; in a candidate that is not selected it never
        # gets encoded and the line decodes.
        data = (b'{"id":"a","evidence":[{"text":"a"}]}\n'
                b'{"id":"b","evidence":[{"text":"\\udcff"}]}\n'
                b'{"id":"c","evidence":[{"text":"c"},{"text":"c"},{"text":"\\udcff"}]}\n'
                b'{"id":"\\ud800","evidence":[{"text":"d"}]}\n')
        inp = tmp_path / "in.jsonl"
        inp.write_bytes(data)
        out_path = tmp_path / "out.jsonl"
        code, _, err = self.run_captured(
            capsys, ["decode", "--jobs", jobs, "--input", str(inp), "--output", str(out_path)])
        runs = [(code, out_path.read_text(encoding="utf-8"), err),
                self.run_stdin(["decode", "--jobs", jobs], data)]
        for code, out, err in runs:
            assert code == 1
            assert [json.loads(line)["id"] for line in out.splitlines()] == ["a", "c"]
            assert [e.split(":", 2)[:2] for e in err] == [["line 2", " UnicodeEncodeError"],
                                                          ["line 4", " UnicodeEncodeError"]]
            assert all(e.endswith("surrogates not allowed") for e in err)

    @pytest.mark.parametrize("metric", ["rouge", "bleu", "exact", "answer"])
    def test_one_tokenization_per_distinct_candidate_per_line(self, tmp_path, capsys,
                                                              monkeypatch, metric):
        # The gain table's interning, or for the answer gain one interning
        # built beside its table, serves the gains, the length weights and
        # the longest tie rule, so a whole decode tokenizes each distinct
        # (text, tokens) candidate of a side once.
        from mbrkit import metrics

        lines = [
            # Shared sides: "a b" twice and its token twin tie for the top;
            # for the answer gain every candidate of answer "A" ties.
            '{"id":"1","evidence":[{"text":"a b","score":-1,"answer":"A"},'
            '{"text":"a b","score":-1,"answer":"A"},{"text":"a b c","score":-2,"answer":"A"},'
            '{"text":"b","score":-0.5,"answer":"B"},'
            '{"text":"x","tokens":["a","b"],"score":-1,"answer":"A"}]}',
            # Separate hypotheses, one of them twice.
            '{"id":"2","evidence":[{"text":"c d","score":-1,"answer":"A"},'
            '{"text":"c d","score":-1,"answer":"A"},{"text":"c","score":-2,"answer":"B"}],'
            '"hypotheses":[{"text":"c d","answer":"A"},{"text":"e","answer":"A"},'
            '{"text":"c d","answer":"A"}]}',
        ]
        distinct_per_line = {"1": 4, "2": 2 + 2}
        inp = self.write_input(tmp_path, lines)
        calls = []
        tokens = metrics.candidate_tokens

        def counted(c, spec):
            calls.append(c)
            return tokens(c, spec)

        monkeypatch.setattr(metrics, "candidate_tokens", counted)
        code, out, _ = self.run_captured(capsys, [
            "decode", "--metric", metric, "--weighting", "length-norm", "--beta", "1",
            "--tie-break", "longest", "--input", str(inp)])
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["tie_broken"] for r in records] == [True, True]
        assert len(calls) == sum(distinct_per_line.values())

    @pytest.mark.parametrize("metric", ["rouge", "bleu", "exact", "answer"])
    def test_one_tokenization_per_distinct_candidate_per_side_with_dedup(
            self, tmp_path, capsys, monkeypatch, metric):
        # Dedup, the gain table, the length weights and the longest tie rule
        # all read one tokenization of each side: dedup's sequences are
        # handed over with the kept hypotheses, so a whole decode calls
        # candidate_tokens once per distinct candidate of each side.
        from mbrkit import metrics

        def cand(text, tokens=None):
            c = {"text": text, "score": -1.0 - len(text), "answer": "A"}
            return c if tokens is None else {**c, "tokens": tokens}

        # Shared sides: "a b" and its twins in other spacing or as tokens,
        # "b a" (a tie with "a b" under ROUGE-1) and "c"; dedup keeps one
        # hypothesis per sequence.
        shared = [cand("a b"), cand("a b"), cand("A  b"), cand("a b"), cand("x", ["a", "b"]),
                  cand("b a"), cand("A  b"), cand("x", ["a", "b"]), cand("b a"), cand("c")]
        # Own hypotheses that share no token with the evidence: the two kept
        # ones, "e f" and "f e", have equal gains under every metric, so the
        # longest rule reads their lengths.
        evidence = [cand("c d"), cand("c d"), cand("C d"), cand("c d"), cand("c"), cand("C d")]
        hypotheses = [cand("e f"), cand("f e"), cand("e f"), cand("E f"), cand("f  e"), cand("f e")]
        lines = [json.dumps({"id": "shared", "evidence": shared}),
                 json.dumps({"id": "own", "evidence": evidence, "hypotheses": hypotheses})]
        distinct = [("a b", None), ("A  b", None), ("x", ("a", "b")), ("b a", None), ("c", None),
                    ("c d", None), ("C d", None), ("c", None),
                    ("e f", None), ("f e", None), ("E f", None), ("f  e", None)]
        inp = self.write_input(tmp_path, lines)
        calls = []
        tokens = metrics.candidate_tokens

        def counted(c, spec):
            calls.append((c.text, c.tokens))
            return tokens(c, spec)

        monkeypatch.setattr(metrics, "candidate_tokens", counted)
        code, out, err = self.run_captured(capsys, [
            "decode", "--metric", metric, "--weighting", "length-norm", "--beta", "1",
            "--tie-break", "longest", "--dedup-hypotheses", "--input", str(inp)])
        assert (code, err) == (0, [])
        records = [json.loads(line) for line in out.splitlines()]
        assert records[1]["tie_broken"] is True
        assert records[1]["selected_text"] == "e f"
        assert sorted(calls, key=repr) == sorted(distinct, key=repr)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bare_carriage_return_does_not_split_a_line(self, tmp_path, capsys, jobs):
        # A bare CR is JSON whitespace inside one line, not a line end.
        data = (b'{"id":"a",\r"evidence":[{"text":"x y"}]}\n'
                b'{"id":"b","evidence":[{"text":"z"}]}\n')
        inp = tmp_path / "in.jsonl"
        inp.write_bytes(data)
        runs = [self.run_captured(capsys, ["decode", "--jobs", jobs, "--input", str(inp)]),
                self.run_stdin(["decode", "--jobs", jobs], data)]
        for code, out, err in runs:
            assert (code, err) == (0, [])
            assert [json.loads(line)["id"] for line in out.splitlines()] == ["a", "b"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_crlf_input_decodes_as_its_lf_copy(self, tmp_path, capsys, jobs):
        lines = ['{"id":"a","evidence":[{"text":"x y"},{"text":"x"}]}', "",
                 '{"id":"b","evidence":[{"text":"z"}]}', "not json"]
        lf = "\n".join(lines).encode() + b"\n"
        crlf = lf.replace(b"\n", b"\r\n")
        outputs = []
        for name, data in (("lf", lf), ("crlf", crlf)):
            inp = tmp_path / f"{name}.jsonl"
            inp.write_bytes(data)
            out = tmp_path / f"{name}.out"
            code, _, err = self.run_captured(
                capsys, ["decode", "--jobs", jobs, "--input", str(inp), "--output", str(out)])
            outputs.append((code, out.read_bytes(), err))
            outputs.append(self.run_stdin(["decode", "--jobs", jobs], data))
        assert outputs[0][0] == 1 and outputs[0][2] == ["line 4: invalid JSON: Expecting value"]
        assert [json.loads(line)["id"] for line in outputs[0][1].splitlines()] == ["a", "b"]
        want = (outputs[0][0], outputs[0][1].decode(), outputs[0][2])
        for code, out, err in outputs:
            assert (code, out if isinstance(out, str) else out.decode(), err) == want

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_leading_utf8_bom_fails_the_first_line(self, tmp_path, capsys, jobs):
        # Pinned as it is: the input is read as plain UTF-8, so a file saved
        # with a BOM fails its first line and decodes the rest.
        data = ('\ufeff{"id":"a","evidence":[{"text":"a"}]}\n'
                '{"id":"b","evidence":[{"text":"b"}]}\n').encode("utf-8")
        inp = tmp_path / "in.jsonl"
        inp.write_bytes(data)
        runs = [self.run_captured(capsys, ["decode", "--jobs", jobs, "--input", str(inp)]),
                self.run_stdin(["decode", "--jobs", jobs], data)]
        for code, out, err in runs:
            assert code == 1
            assert [json.loads(line)["id"] for line in out.splitlines()] == ["b"]
            assert err == ["line 1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_nan_external_gain_fails_the_line_under_any_metric(self, tmp_path, capsys, jobs):
        # Pinned as it is: validation checks a carried external_gain even
        # when the metric (here rouge) never reads it.
        inp = self.write_input(tmp_path, [
            '{"id":"a","evidence":[{"text":"a"},{"text":"b"}],"external_gain":[[NaN,1],[0,1]]}',
            '{"id":"b","evidence":[{"text":"b"}],"external_gain":[[1]]}',
        ])
        code, out, err = self.run_captured(
            capsys, ["decode", "--metric", "rouge", "--jobs", jobs, "--input", str(inp)])
        assert code == 1
        assert [json.loads(line)["id"] for line in out.splitlines()] == ["b"]
        assert err == ["line 1: instance 'a': external_gain[0][0] is nan"]

    @pytest.mark.parametrize("metric", ["exact", "answer", "rouge", "bleu", "external"])
    def test_ragged_external_gain_names_its_short_row(self, tmp_path, capsys, metric):
        inp = self.write_input(tmp_path, [
            '{"id":"a","evidence":[{"text":"a","answer":"a"},{"text":"b","answer":"b"}],'
            '"external_gain":[[1,2],[3]]}',
        ])
        code, out, err = self.run_captured(capsys, ["decode", "--metric", metric, "--input", str(inp)])
        assert (code, out) == (1, "")
        assert err == ["line 1: instance 'a': external_gain[1] has 1 entries, expected 2"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_stdout_is_utf8_whatever_the_locale(self, jobs):
        data = ('{"id":"a","evidence":[{"text":"a"}]}\n'
                '{"id":"b","evidence":[{"text":"中"}]}\n'
                '{"id":"c","evidence":[{"text":"c"}]}\n').encode("utf-8")
        code, out, err = self.run_stdin(["decode", "--jobs", jobs], data,
                                        PYTHONIOENCODING="latin-1")
        assert (code, err) == (0, [])
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["selected_text"] for r in records] == ["a", "中", "c"]

    EXTERNAL_OK = ('{"id":"ok","evidence":[{"text":"a"},{"text":"b"}],'
                   '"external_gain":[[0.9,0.1],[0.6,0.2]]}')
    SCORED_OK = '{"id":"ok","evidence":[{"text":"a b","score":-1.0},{"text":"b","score":-2.5}]}'

    @staticmethod
    def overflowing_external(big):
        rows = ",".join([f"[{big},0.0]"] * 11)
        evidence = ",".join([f'{{"text":"e{i}"}}' for i in range(11)])
        return ('{"id":"bad","evidence":[%s],"hypotheses":[{"text":"x"},{"text":"y"}],'
                '"external_gain":[%s]}' % (evidence, rows))

    @staticmethod
    def disjoint_long_pair(length):
        words = (" ".join(f"{w}{i}" for i in range(length)) for w in "ab")
        return '{"id":"t","evidence":[%s]}' % ",".join(f'{{"text":"{t}"}}' for t in words)

    SHORT_PAIR = '{"id":"t","evidence":[{"text":"a b c"},{"text":"a b"}]}'

    @pytest.mark.parametrize("argv, bad, error", [
        (["--metric", "external"], overflowing_external("1.7976931348623157e308"),
         "line 1: instance 'bad': "),
        (["--metric", "external"], overflowing_external("-1.7976931348623157e308"),
         "line 1: instance 'bad': "),
        (["--weighting", "temperature", "--tau", "0.1"],
         '{"id":"t","evidence":[{"text":"a","score":-1e308},{"text":"b","score":-1e307}]}', None),
        (["--weighting", "temperature", "--tau", "0.5"],
         '{"id":"t","evidence":[{"text":"a","score":-1e308},{"text":"b","score":1e308}]}', None),
        ([], '{"id":"t","evidence":[{"text":"a","score":%s}]}' % ("9" * 5000),
         "line 1: invalid JSON: "),
        ([], '{"id":"t","evidence":[{"text":"a"}],"extra":[-%s]}' % ("1" * 5000),
         "line 1: invalid JSON: "),
        (["--weighting", "length-reward", "--gamma", "1e308"],
         '{"id":"t","evidence":[{"text":"a b c","score":-1.0},{"text":"b","score":-2.0}]}', None),
        (["--metric", "bleu", "--bleu-order", "200000"], SHORT_PAIR, None),
        (["--metric", "rouge", "--ngram", "200000"], SHORT_PAIR, None),
        (["--metric", "bleu", "--bleu-order", "1100"], disjoint_long_pair(1100), None),
    ], ids=["external-max", "external-min", "tau-0.1", "tau-0.5", "long-score", "long-extra",
            "gamma-1e308", "bleu-order-200000", "ngram-200000", "bleu-1100-disjoint"])
    def test_extreme_values_keep_the_line_contract(self, argv, bad, error):
        # In its own process, where a numpy warning reaches stderr as a CLI
        # user sees it rather than failing the test run.
        from mbrkit import cli

        good = self.EXTERNAL_OK if "external" in argv else self.SCORED_OK
        config = cli.config_from_args(cli.build_parser().parse_args(["decode", *argv]))
        echo = RawJson(dumps(cli.config_echo(config)))
        (bad_ok, bad_out), (good_ok, good_out) = (
            cli._process_line((k, raw), config, cli._decode_record, echo)
            for k, raw in enumerate((bad, good), start=1))
        assert good_ok and bad_ok is (error is None)
        start = time.monotonic()
        code, out, err = self.run_stdin(["decode", *argv], f"{bad}\n{good}\n".encode())
        assert time.monotonic() - start < 10.0
        assert out.encode("utf-8") == (bad_out if bad_ok else b"") + good_out
        assert not any("Warning" in e or "Traceback" in e for e in err)
        if bad_ok:
            assert (code, err) == (0, [])
        else:
            assert code == 1 and err == [bad_out] and bad_out.startswith(error)

    @pytest.mark.parametrize("argv, flag", [
        (["decode", "--input", "{missing}"], "--input"),
        (["decode", "--input", "{missing}", "--output", "{file}"], "--input"),
        (["decode", "--input", "{dir}"], "--input"),
        (["decode", "--input", "{file}", "--output", "{missing}/out.jsonl"], "--output"),
        (["matrix", "--input", "{missing}"], "--input"),
        (["fixtures", "--output", "{file}/x"], "--output"),
    ], ids=["missing-input", "missing-input-existing-output", "directory-input",
            "output-in-missing-directory", "matrix-missing-input", "fixtures-under-a-file"])
    def test_unopenable_path_is_a_config_error(self, tmp_path, argv, flag):
        existing = self.write_input(tmp_path, [self.SCORED_OK])
        paths = {"missing": tmp_path / "missing.jsonl", "file": existing, "dir": tmp_path}
        argv = [arg.format(**paths) for arg in argv]
        code, out, err = self.run_stdin(argv, b"")
        assert (code, out) == (2, "")
        path = argv[argv.index(flag) + 1]
        assert len(err) == 1 and err[0].startswith(f"error: {flag} {path}: ")
        assert existing.read_text(encoding="utf-8") == self.SCORED_OK + "\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_closed_output_pipe_ends_quietly(self, tmp_path, jobs):
        # About 1 MB of results, far more than a pipe holds, so the CLI is
        # still writing when the reader goes away.
        line = '{"id":"%d","evidence":[{"text":"a","answer":"1"},{"text":"b","answer":"2"}]}'
        inp = self.write_input(tmp_path, [line % k for k in range(4000)])
        env = {**os.environ, "PYTHONPATH": str(Path(mbrkit.__file__).resolve().parents[1])}
        with subprocess.Popen(
                [sys.executable, "-m", "mbrkit", "decode", "--metric", "answer", "--jobs", jobs,
                 "--input", str(inp)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert len(proc.stdout.read(50)) == 50
            proc.stdout.close()
            err = proc.stderr.read().decode()
        assert (proc.returncode, err) == (1, "")

    def run_closed(self, fd: int, argv):
        """The CLI in its own process with file descriptor ``fd`` (0 for
        standard input, 1 for standard output) closed."""
        env = {**os.environ, "PYTHONPATH": str(Path(mbrkit.__file__).resolve().parents[1])}
        proc = subprocess.run(["sh", "-c", f'exec "$@" {fd}>&-', "sh",
                               sys.executable, "-m", "mbrkit", *argv],
                              stdin=subprocess.DEVNULL, capture_output=True, env=env, timeout=120)
        return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode().splitlines()

    @pytest.mark.parametrize("command", ["decode", "matrix"])
    @pytest.mark.parametrize("fd,stream,flag", [(0, "input", "--input"),
                                                (1, "output", "--output")])
    def test_closed_standard_stream_is_a_config_error(self, tmp_path, command, fd, stream, flag):
        inp = self.write_input(tmp_path, [self.SCORED_OK])
        argv = [command] if fd == 0 else [command, "--input", str(inp)]
        code, out, err = self.run_closed(fd, argv)
        assert (code, out) == (2, "")
        assert err == [f"error: standard {stream} is closed; name a file with {flag}"]

    @pytest.mark.parametrize("fd", [0, 1])
    def test_closed_standard_stream_is_not_needed_with_paths(self, tmp_path, capsys, fd):
        inp = self.write_input(tmp_path, [self.SCORED_OK])
        out_path = tmp_path / "out.jsonl"
        code, out, err = self.run_closed(
            fd, ["decode", "--input", str(inp), "--output", str(out_path)])
        assert (code, out, err) == (0, "", [])
        assert self.run_captured(capsys, ["decode", "--input", str(inp)]) == \
            (0, out_path.read_text(encoding="utf-8"), [])

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unexpected_exception_is_a_line_error(self, tmp_path, capsys, monkeypatch, jobs):
        from mbrkit import cli

        real_decode = cli.decode

        def flaky_decode(inst, *args, **kwargs):
            if inst.id == "boom":
                raise RuntimeError("unexpected")
            return real_decode(inst, *args, **kwargs)

        monkeypatch.setattr(cli, "decode", flaky_decode)
        inp = self.write_input(tmp_path, [
            '{"id":"a","evidence":[{"text":"a"}]}',
            '{"id":"boom","evidence":[{"text":"a"}]}',
            '{"id":"b","evidence":[{"text":"b"}]}',
        ])
        code, out, err = self.run_captured(capsys, ["decode", "--jobs", jobs, "--input", str(inp)])
        assert code == 1
        assert [json.loads(line)["id"] for line in out.splitlines()] == ["a", "b"]
        assert err == ["line 2: RuntimeError: unexpected"]

    def test_each_line_is_written_before_the_next_is_parsed(self, tmp_path, capsys,
                                                            monkeypatch):
        from mbrkit import cli

        written_before = []

        def parse(raw, line_no):
            written_before.append(capsys.readouterr().out.count("\n"))
            return parse_instance_line(raw, line_no)

        monkeypatch.setattr(cli, "parse_instance_line", parse)
        inp = self.write_input(tmp_path, [
            f'{{"id":"{k}","evidence":[{{"text":"a"}}]}}' for k in range(3)
        ])
        assert run(["decode", "--input", str(inp)]) == 0
        assert written_before == [0, 1, 1]

    def test_jobs_isolate_bad_lines_identically(self, tmp_path, capsys):
        lines, bad = [], []
        for k in range(12):
            if k % 4 == 1:
                lines.append("not json")
                bad.append(len(lines))
            elif k % 4 == 3:
                lines.append(f'{{"id":"e{k:02d}","evidence":[]}}')
                bad.append(len(lines))
            else:
                lines.append(f'{{"id":"i{k:02d}","evidence":[{{"text":"a b"}},{{"text":"b"}}]}}')
        inp = self.write_input(tmp_path, lines)
        good = [f"i{k:02d}" for k in range(12) if k % 2 == 0]
        runs = {jobs: self.run_captured(capsys, ["decode", "--jobs", jobs, "--input", str(inp)])
                for jobs in ("1", "4")}
        assert runs["1"] == runs["4"]
        code, out, err = runs["1"]
        assert code == 1
        assert [json.loads(line)["id"] for line in out.splitlines()] == good
        assert [int(e.split()[1].rstrip(":,")) for e in err] == bad

        code, out, err = self.run_captured(capsys, ["matrix", "--jobs", "2", "--input", str(inp)])
        assert code == 1
        assert [json.loads(line)["id"] for line in out.splitlines()] == good
        assert [int(e.split()[1].rstrip(":,")) for e in err] == bad

    def test_degenerate_beta_matches_uniform_modulo_echo(self, tmp_path):
        inp = self.write_input(tmp_path, [
            '{"id":"1","evidence":[{"text":"a a","score":-0.3},{"text":"b","score":-1.9}]}',
        ])
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        assert run(["decode", "--metric", "rouge", "--ngram", "1",
                    "--weighting", "length-norm", "--beta", "0",
                    "--input", str(inp), "--output", str(out_a)]) == 0
        assert run(["decode", "--metric", "rouge", "--ngram", "1",
                    "--weighting", "uniform",
                    "--input", str(inp), "--output", str(out_b)]) == 0
        rec_a = json.loads(out_a.read_text())
        rec_b = json.loads(out_b.read_text())
        rec_a.pop("config_echo")
        rec_b.pop("config_echo")
        assert rec_a == rec_b

    LONG = " ".join(f"w{i}" for i in range(30))

    def run_length_norm(self, tmp_path, capsys, beta, first_line):
        inp = self.write_input(tmp_path, [
            json.dumps(first_line),
            '{"id":"good","evidence":[{"text":"a","score":-0.5},{"text":"b","score":-1.5}]}',
        ])
        out = tmp_path / "out.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["decode", "--weighting", "length-norm", f"--beta={beta}",
                        "--input", str(inp), "--output", str(out)])
        assert caught == []
        records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        return code, records, capsys.readouterr().err

    def test_huge_beta_overflow_is_not_a_crash(self, tmp_path, capsys):
        # 30 ** 1000 is above the float range, so the long sample's
        # corrected score is -12.5 / inf = -0.0: log weights 12.5 and 0.
        code, records, err = self.run_length_norm(tmp_path, capsys, 1000, {
            "id": "long", "evidence": [{"text": self.LONG, "score": -12.5},
                                       {"text": "a", "score": -1.5}]})
        assert (code, err) == (0, "")
        assert [r["id"] for r in records] == ["long", "good"]
        assert records[0]["weights"] == pytest.approx([1 / (1 + math.exp(-12.5)),
                                                       1 / (1 + math.exp(12.5))], rel=1e-12)
        assert records[1]["weights"] == [0.5, 0.5]

    def test_huge_negative_beta_is_a_degenerate_line(self, tmp_path, capsys):
        # 30 ** -1000 underflows to 0.0: every corrected score is -inf.
        code, records, err = self.run_length_norm(tmp_path, capsys, -1000, {
            "id": "long", "evidence": [{"text": self.LONG, "score": -12.5},
                                       {"text": self.LONG.upper(), "score": -3.0}]})
        assert code == 1
        assert [r["id"] for r in records] == ["good"]
        assert err == ("line 1: instance 'long': all unnormalized weights are zero or "
                       "undefined; cannot normalize\n")

    def test_output_uses_lf_endings(self, tmp_path):
        inp = self.write_input(tmp_path, ['{"id":"1","evidence":[{"text":"a"}]}'])
        out = tmp_path / "out.jsonl"
        assert run(["decode", "--input", str(inp), "--output", str(out)]) == 0
        raw = out.read_bytes()
        assert raw.endswith(b"\n")
        assert b"\r" not in raw


class TestMatrixCommand:
    def test_rouge_cell(self, tmp_path):
        inp = tmp_path / "in.jsonl"
        inp.write_text(
            '{"id":"1","evidence":[{"text":"the cat sat"}],'
            '"hypotheses":[{"text":"the cat"}]}\n',
            encoding="utf-8",
        )
        out = tmp_path / "out.jsonl"
        assert run(["matrix", "--metric", "rouge", "--ngram", "1",
                    "--input", str(inp), "--output", str(out)]) == 0
        record = json.loads(out.read_text())
        assert record["gain_matrix"] == [[0.8]]

    def test_external_passthrough(self, tmp_path):
        inp = tmp_path / "in.jsonl"
        inp.write_text(
            '{"id":"1","evidence":[{"text":"a"},{"text":"b"}],'
            '"external_gain":[[0.25,0.5],[0.125,1.0]]}\n',
            encoding="utf-8",
        )
        out = tmp_path / "out.jsonl"
        assert run(["matrix", "--metric", "external",
                    "--input", str(inp), "--output", str(out)]) == 0
        record = json.loads(out.read_text())
        assert record["gain_matrix"] == [[0.25, 0.5], [0.125, 1.0]]

    # SHA-256 of `mbrkit matrix` stdout, pinned before the gain table was
    # made in blocks of rows, with and without --dedup-hypotheses.
    TOY_DIGESTS = {
        ("exact",): ("efdf28cf06b28bbde2eab2d9e60ca30e8ceb3f483f62a23f56274745b0abd335",
                     "4855100ac893f22c25ed3a43be1d25ab89c2f621358a31edd853121bce1d25ba"),
        ("answer",): ("7778a3764d36c8d4ef6d7049f741ce00ff8d1f04aa6a0caf441ad5fef0a65b56",
                      "03faf2e67536244f7eee94e82c9d60be0204182779e626ab9f8576a6b66a0fa0"),
        ("rouge", "--ngram", "1"): (
            "a0c5e39c5272b93f4c4abfd74d1589d3108a941e1de8c531023df7b23b5e4502",
            "bd216e0e0a2cf58bb27a8be6dd344c02e0dd8f7a256172dee86fcf1a35dde5f3"),
        ("rouge", "--ngram", "2"): (
            "e132dd5daedb406c4d431f38a900d5f3a7074e4cb7f6856e8816a4199a439223",
            "c5ef12c809fc2f4cdf8a8d92310255049a04e253006638ae9dda5e1bb4725697"),
        ("bleu",): ("d3bd360caaea550909147a94fc037747a63d865b5e48b6b83414ad345aa9728c",
                    "47573aafe1a5ea13b2476b720af2d9e258ce8582e8b6d25189265e224b419faa"),
    }
    # One external line, and one whose rows hold 0.0 and -0.0.
    EXTERNAL_LINES = (
        '{"id":"ext","evidence":[{"text":"a"},{"text":"a"},{"text":"b"}],'
        '"hypotheses":[{"text":"x"},{"text":"y"}],'
        '"external_gain":[[0.25,0.5],[1e-300,0.125],[0.30000000000000004,0.7]]}\n'
        '{"id":"signed-zero","evidence":[{"text":"a"},{"text":"b"},{"text":"c"}],'
        '"hypotheses":[{"text":"x"},{"text":"y"}],'
        '"external_gain":[[0.0,-0.0],[-0.0,0.0],[0.5,-0.0]]}\n'
    )
    EXTERNAL_DIGESTS = ("10bf2aeec6d362ec438b48923d701d032e3a9a47f638be0f2f6f7bcf94cd821c",
                        "aa6360f8fab65ed9e8cc2cdd5b3ad55af04ab727e09402354d384ba1ecfa8d02")

    @staticmethod
    def digest(tmp_path, inp, flags) -> str:
        out = tmp_path / "out.jsonl"
        assert run(["matrix", *flags, "--input", str(inp), "--output", str(out)]) == 0
        return hashlib.sha256(out.read_bytes()).hexdigest()

    @pytest.mark.parametrize("dedup", [False, True], ids=["all", "dedup"])
    @pytest.mark.parametrize("metric", sorted(TOY_DIGESTS), ids=" ".join)
    def test_toy_output_is_pinned(self, tmp_path, metric, dedup):
        flags = ["--metric", *metric] + ["--dedup-hypotheses"] * dedup
        digest = self.digest(tmp_path, FIXTURES / "toy.jsonl", flags)
        assert digest == self.TOY_DIGESTS[metric][dedup]

    @pytest.mark.parametrize("dedup", [False, True], ids=["all", "dedup"])
    def test_external_output_is_pinned(self, tmp_path, dedup):
        inp = tmp_path / "in.jsonl"
        inp.write_text(self.EXTERNAL_LINES, encoding="utf-8")
        flags = ["--metric", "external"] + ["--dedup-hypotheses"] * dedup
        assert self.digest(tmp_path, inp, flags) == self.EXTERNAL_DIGESTS[dedup]
        if not dedup:
            signed_zeros = b'"gain_matrix":[[0,-0],[-0,0],[0.5,-0]]'
            assert signed_zeros in (tmp_path / "out.jsonl").read_bytes()

    def test_line_error_keeps_its_class(self, tmp_path, capsys):
        inst = Instance(id="x", evidence=(Candidate(text="a", answer="1"), Candidate(text="b")))
        config = RunConfig(gain=GainSpec(kind="answer_match"), weighting=WeightSpec())
        with pytest.raises(MissingAnswerError,
                           match=r"^instance 'x': evidence\[1\] has no extracted answer$"):
            _matrix_record(inst, config, RawJson("{}"))
        inp = tmp_path / "in.jsonl"
        with inp.open("w", encoding="utf-8") as stream:
            write_instances([inst], stream)
        assert run(["matrix", "--metric", "answer", "--input", str(inp)]) == 1
        assert capsys.readouterr().err == (
            "line 1: instance 'x': evidence[1] has no extracted answer\n")


class TestFixturesCommand:
    def test_regeneration_matches_committed_files(self, tmp_path, capsys):
        assert run(["fixtures", "--seed", "7", "--output", str(tmp_path)]) == 0
        capsys.readouterr()
        regenerated = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*.jsonl"))
        committed = sorted(p.relative_to(FIXTURES) for p in FIXTURES.rglob("*.jsonl"))
        assert regenerated == committed
        for rel in committed:
            assert (tmp_path / rel).read_bytes() == (FIXTURES / rel).read_bytes(), rel


class TestSelfcheckCommand:
    def test_passes(self, capsys):
        assert run(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "10/10 checks passed" in out


class TestImportBudget:
    # A fresh interpreter: which modules a default run loads. The pools and
    # the selfcheck suite are imported only on the paths that use them.
    PROBE = """
import json, sys
import mbrkit.cli
deferred = ("multiprocessing", "concurrent.futures", "mbrkit.selfcheck")
loaded = [[name for name in deferred if name in sys.modules]]
for jobs, out in (("1", sys.argv[2]), ("2", sys.argv[3])):
    assert mbrkit.cli.run(["decode", "--jobs", jobs, "--input", sys.argv[1], "--output", out]) == 0
    loaded.append([name for name in deferred if name in sys.modules])
print(json.dumps(loaded))
"""

    def test_default_run_loads_no_pool_module(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(mbrkit.__file__).resolve().parents[1])}
        one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        proc = subprocess.run([sys.executable, "-c", self.PROBE, str(FIXTURES / "toy.jsonl"),
                               str(one), str(two)], capture_output=True, env=env, timeout=120,
                              check=True)
        after_import, after_jobs_1, after_jobs_2 = json.loads(proc.stdout)
        assert after_import == after_jobs_1 == []
        # The probe sees a pool when one is loaded.
        assert after_jobs_2 == ["multiprocessing", "concurrent.futures"]
        assert one.read_bytes() == two.read_bytes()
