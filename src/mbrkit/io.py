"""JSONL reading and writing for instances and decode results.

One JSON object per line, UTF-8, LF endings. Serialization is done by a
small fixed-order emitter rather than :func:`json.dumps` so that float
formatting (17 significant digits) and key order are pinned down; output
bytes must be reproducible across runs, platforms, and worker counts.
The emitter looks a value's type up in one type table, a subclass by
its nearest base. Strings and keys are escaped by
``json.encoder.encode_basestring``, the function ``json.dumps`` itself
uses with ``ensure_ascii=False``, and a key of another type is written
as ``json.dumps`` writes it. An array of plain finite floats formats
each distinct value once with ``"%.17g"``, the same text as
:func:`format_float` gives it, and joins the texts in order; one that
holds a zero, whose two signs compare equal, is one ``%`` format of the
whole array. Parsing builds a field's location only
for its error, and reports any JSON the decoder rejects, an over-long
integer included, as a ParseError. It checks and builds each side's
candidates once per distinct candidate: a sample whose ``tokens``,
``score``, ``answer`` and ``model_id`` equal those of the first valid
sample with its ``text`` is that sample's Candidate. A score is equal
when it is a number of the same value and sign, so ``1`` and ``1.0``
are one score, while ``true`` and ``1``, or ``-0.0`` and ``0.0``, are
not. Unknown fields are never compared, every other sample is checked
at its own index, and nothing is kept from one line to the next. The
twins make each side's :class:`~mbrkit.types.Side`, which the instance
carries to every later layer.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import ParseError, SchemaError
from .types import Candidate, DecodeResult, Instance, Side, sided_instance


def format_float(x: float) -> str:
    """A float as decimal text with 17 significant digits.

    17 digits round-trip any IEEE double exactly, so readers recover the
    same value bit for bit.
    """
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(x, ".17g")


class RawJson(str):
    """JSON text that :func:`dumps` emits as it is: a value serialized
    once and spliced into many records."""


_FLOAT_ONLY = frozenset((float,))


def _dumps_key(key) -> str:
    """A dict key as ``json.dumps`` writes it, cut from ``{"key": 0}``; a
    non-finite float raises ValueError, as a non-finite value does."""
    return json.dumps({key: 0}, ensure_ascii=False, allow_nan=False)[1:-4]


def _dumps_dict(value: dict) -> str:
    return "{" + ",".join([(encode_basestring(k) if type(k) is str else _dumps_key(k))
                           + ":" + dumps(v) for k, v in value.items()]) + "}"


def _dumps_array(value) -> str:
    if _FLOAT_ONLY.issuperset(map(type, value)):
        distinct = dict.fromkeys(value)
        if not all(map(math.isfinite, distinct)):
            return "[" + ",".join(map(format_float, value)) + "]"  # raises at the first
        # "%.17g" is format(x, ".17g"). +0.0 and -0.0 are one key but print
        # as "0" and "-0", so an array holding a zero is formatted per element.
        if 0.0 in distinct:
            return "[" + ("%.17g," * len(value))[:-1] % tuple(value) + "]"
        text = dict(zip(distinct, map("%.17g".__mod__, distinct)))
        return "[" + ",".join(map(text.__getitem__, value)) + "]"
    return "[" + ",".join(map(dumps, value)) + "]"


# A subclass (np.float64, a str or dict subclass) takes the entry of its
# nearest base along its MRO; RawJson is emitted unchanged.
_DUMPS_BY_TYPE = {
    type(None): lambda value: "null",
    bool: lambda value: "true" if value else "false",
    int: int.__repr__,
    float: format_float,
    str: encode_basestring,
    RawJson: str.__str__,
    dict: _dumps_dict,
    list: _dumps_array,
    tuple: _dumps_array,
}


def dumps(value) -> str:
    """Compact JSON text with deterministic key order and float format.

    Dicts keep insertion order; floats go through :func:`format_float`;
    a :class:`RawJson` is emitted unchanged; everything else matches
    standard JSON. A value is emitted as its exact type's entry in the
    type table, or else as its nearest base's, so an ``int`` subclass
    gives its digits whatever its ``__str__``.
    """
    encode = _DUMPS_BY_TYPE.get(type(value))
    if encode is None:
        encode = next(filter(None, map(_DUMPS_BY_TYPE.get, type(value).__mro__)), None)
        if encode is None:
            raise TypeError(f"cannot serialize {type(value).__name__}")
    return encode(value)


#: The types json.loads gives a number; a bool is not one of them.
_JSON_NUMBER = (int, float)


def _parse_number(value, line: int, where: str, *index) -> float:
    """``value`` as a float; its location is ``where.format(*index)``."""
    if isinstance(value, bool) or not isinstance(value, _JSON_NUMBER):
        raise SchemaError(line, where.format(*index), "must be a number")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(line, where.format(*index), "number out of range") from None


def _parse_candidates(value, line: int, side: str) -> tuple[tuple[Candidate, ...], Side]:
    """The candidates of ``side`` and their Side; a field's location, such
    as ``evidence[3].score``, is built only when it is reported. A twin of
    the first valid sample with its text, as the module docstring defines
    it, is that sample's Candidate, not checked or built again.
    """
    if not isinstance(value, list):
        raise SchemaError(line, side, "must be an array of candidate objects")
    distinct, inverse = [], []  # the Side's lists
    first: dict[str, tuple[Candidate, object, int]] = {}  # text -> (Candidate, raw tokens, id)
    for i, obj in enumerate(value):
        if not isinstance(obj, dict):
            raise SchemaError(line, f"{side}[{i}]", "candidate must be an object")
        text = obj.get("text")
        if not isinstance(text, str):
            raise SchemaError(line, f"{side}[{i}].text", "required and must be a string")
        tokens = obj.get("tokens")
        score = obj.get("score")
        answer = obj.get("answer")
        model_id = obj.get("model_id")
        twin = first.get(text)
        if twin is not None:
            c = twin[0]
            f = c.score
            # True == 1 and -0.0 == 0.0, so a score's type and a zero's sign count too.
            if (tokens == twin[1] and answer == c.answer and model_id == c.model_id
                    and (score is None if f is None else
                         type(score) in _JSON_NUMBER and score == f
                         and (score or math.copysign(1.0, score) == math.copysign(1.0, f)))):
                inverse.append(twin[2])
                continue
        if tokens is not None:
            if not isinstance(tokens, list) or any(not isinstance(t, str) for t in tokens):
                raise SchemaError(line, f"{side}[{i}].tokens", "must be an array of strings")
        if score is not None:
            score = _parse_number(score, line, "{}[{}].score", side, i)
        if answer is not None and not isinstance(answer, str):
            raise SchemaError(line, f"{side}[{i}].answer", "must be a string")
        if model_id is not None and not isinstance(model_id, str):
            raise SchemaError(line, f"{side}[{i}].model_id", "must be a string")
        c = Candidate(text, tokens, score, answer, model_id)
        inverse.append(len(distinct))
        distinct.append(c)
        if twin is None:
            first[text] = (c, tokens, inverse[-1])
    if len(distinct) == len(inverse):  # no twins: the samples are the distinct candidates
        return tuple(distinct), Side(distinct, range(len(distinct)), {})
    return tuple(map(distinct.__getitem__, inverse)), Side(distinct, np.array(inverse), {})


def parse_instance_line(raw: str, line: int) -> Instance:
    """One JSONL line as an Instance; unknown fields are ignored.

    Input bytes that are not UTF-8 reach here as lone surrogates (read
    with ``errors="surrogateescape"``) and are rejected as a ParseError.
    """
    try:
        raw.encode("utf-8")
    except UnicodeEncodeError:
        raise ParseError(line, "not valid UTF-8") from None
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(line, f"invalid JSON: {exc.msg}") from exc
    except ValueError:  # int() of a literal past the interpreter's digit limit
        raise ParseError(line, "invalid JSON: integer literal has too many digits") from None
    except RecursionError:
        raise ParseError(line, "nesting too deep") from None
    if not isinstance(obj, dict):
        raise SchemaError(line, "", "top-level value must be an object")
    inst_id = obj.get("id")
    if not isinstance(inst_id, str):
        raise SchemaError(line, "id", "required and must be a string")
    if "evidence" not in obj:
        raise SchemaError(line, "evidence", "required and must be an array")
    evidence, ev_side = _parse_candidates(obj["evidence"], line, "evidence")
    hypotheses, hyp_side = obj.get("hypotheses"), ev_side
    if hypotheses is not None:
        hypotheses, hyp_side = _parse_candidates(hypotheses, line, "hypotheses")
    external = rows = obj.get("external_gain")
    if rows is not None:
        if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
            raise SchemaError(line, "external_gain", "must be an array of arrays of numbers")
        external = tuple(
            tuple(_parse_number(v, line, "external_gain[{}][{}]", i, j) for j, v in enumerate(row))
            for i, row in enumerate(rows)
        )
    return sided_instance(inst_id, evidence, hypotheses, external, (ev_side, hyp_side))


def read_instances(stream: IO[str]) -> list[Instance]:
    """Parse a whole JSONL stream, raising on the first bad line.

    Blank lines are skipped. Batch tools that want to keep going past bad
    lines should call :func:`parse_instance_line` per line instead.
    """
    return [parse_instance_line(raw, line_no) for line_no, raw in iter_lines(stream)]


def _candidate_record(c: Candidate) -> dict:
    """The candidate's fields in declaration order, less the absent optional ones."""
    return {k: v for k, v in vars(c).items() if v is not None or k == "text"}


def write_instances(instances: Iterable[Instance], stream: IO[str]) -> None:
    """Emit instances in the input schema, omitting absent optional fields."""
    for inst in instances:
        record: dict = {
            "id": inst.id,
            "evidence": [_candidate_record(c) for c in inst.evidence],
        }
        if inst.hypotheses is not None:
            record["hypotheses"] = [_candidate_record(c) for c in inst.hypotheses]
        if inst.external_gain is not None:
            record["external_gain"] = inst.external_gain
        stream.write(dumps(record) + "\n")


def result_record(inst_id: str, result: DecodeResult, config_echo: dict) -> dict:
    return {
        "id": inst_id,
        "selected_index": result.selected_index,
        "selected_text": result.selected_text,
        "gain_estimates": result.gain_estimates,
        "weights": result.weights,
        "tie_broken": result.tie_broken,
        "config_echo": config_echo,
    }


def iter_lines(stream: IO[str]) -> Iterator[tuple[int, str]]:
    """Non-blank lines with their 1-based line numbers."""
    for line_no, raw in enumerate(stream, start=1):
        if raw.strip():
            yield line_no, raw
