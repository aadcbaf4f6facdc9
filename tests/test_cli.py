"""Tests for JSONL parsing/serialization and the command-line interface."""

import io
import json
import math
import os
import random
import subprocess
import sys
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
    reference: an isinstance chain, with strings and keys escaped by
    ``json.dumps``."""
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
        items = ",".join(f"{json.dumps(str(k), ensure_ascii=False)}:{reference_dumps(v)}"
                         for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(reference_dumps(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


class Label(str):
    """A str subclass, as a caller's own string type would be. JSON
    escapes its characters as a value, and ``str()`` of it as a key."""

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

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
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
        lines = [f'{{"id":"{k}","evidence":[{{"text":"a b"}},{{"text":"b"}}]}}' for k in range(50)]
        inp = self.write_input(tmp_path, lines)
        assert run(["decode", "--jobs", str(jobs), "--input", str(inp)]) == 0
        written += capsys.readouterr().out.count("\n")
        assert written == len(leads) == 50
        window = cli._WINDOW_PER_JOB * jobs
        assert window < 50
        assert max(leads) == window

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
        data = (b'{"id":"a","evidence":[{"text":"a"}]}\n'
                b'{"id":"b","evidence":[{"text":"\\udcff"}]}\n'
                b'{"id":"c","evidence":[{"text":"c"}]}\n')
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
            assert len(err) == 1 and err[0].startswith("line 2: UnicodeEncodeError")

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
