"""Tests for JSONL parsing/serialization and the command-line interface."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mbrkit
from mbrkit import Candidate, Instance, ParseError, SchemaError
from mbrkit.cli import parse_mixture, run
from mbrkit.io import (
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
        rng = np.random.default_rng(53)
        lines = []
        for k in range(24):
            texts = [f'{{"text":"{" ".join(rng.choice(["a","b","c"], size=3))}"}}'
                     for _ in range(5)]
            lines.append(f'{{"id":"i{k:02d}","evidence":[{",".join(texts)}]}}')
        inp = self.write_input(tmp_path, lines)
        out1 = tmp_path / "o1.jsonl"
        out4 = tmp_path / "o4.jsonl"
        assert run(["decode", "--input", str(inp), "--output", str(out1)]) == 0
        assert run(["decode", "--jobs", "4", "--input", str(inp), "--output", str(out4)]) == 0
        assert out1.read_bytes() == out4.read_bytes()
        ids = [json.loads(line)["id"] for line in out1.read_text().splitlines()]
        assert ids == [f"i{k:02d}" for k in range(24)]

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
