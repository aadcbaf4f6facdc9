"""Exception hierarchy for the decoding engine.

Every error raised on a per-instance code path derives from
:class:`MbrError` and carries a plain message, so callers can attach
instance context by re-raising the same class with an augmented string;
:func:`with_instance_id` is the one place that does so.
Configuration mistakes (bad flag values, inconsistent specs) raise
:class:`ConfigError` instead, which the CLI maps to a distinct exit code.
"""

from __future__ import annotations


class MbrError(Exception):
    """Base class for all engine errors."""


class ConfigError(MbrError):
    """Invalid gain/weighting configuration, independent of any instance."""


class EmptyEvidenceError(MbrError):
    """Instance has no evidence candidates."""


class EmptyHypothesesError(MbrError):
    """Hypothesis set is empty after defaulting or deduplication."""


class MatrixShapeMismatchError(MbrError):
    """External gain matrix missing or not |evidence| x |hypotheses|."""


class NonFiniteValueError(MbrError):
    """A score or matrix entry is NaN or infinite."""


class MissingScoreError(MbrError):
    """Score-based weighting requested but a candidate has no score."""


class MissingModelIdError(MbrError):
    """Mixture weighting requested but a candidate's model tag is absent or unknown."""


class MissingAnswerError(MbrError):
    """Answer-match gain requested but a candidate has no extracted answer."""


class OrderMismatchError(MbrError):
    """N-gram count vectors of different order compared."""


class ZeroLengthCandidateError(MbrError):
    """Length-corrected weighting applied to a candidate with zero tokens."""


class DegenerateWeightsError(MbrError):
    """All unnormalized weights collapsed; normalization impossible."""


class ShapeMismatchError(MbrError):
    """Gain matrix row count does not match the weight vector length."""


class SpaceTooLargeError(MbrError):
    """Enumerable output space exceeds the brute-force size bound."""


class ParseError(MbrError):
    """A JSONL line is not valid JSON."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SchemaError(MbrError):
    """A JSONL line parsed but violates the instance schema."""

    def __init__(self, line: int, field: str, message: str):
        super().__init__(f"line {line}, field '{field}': {message}")
        self.line = line
        self.field = field


def with_instance_id(exc: MbrError, instance_id: str) -> MbrError:
    """``exc`` re-made with ``instance 'id': `` before its message and ``exc``
    as its cause: the same class, or MbrError if that class takes more."""
    try:
        wrapped = type(exc)(f"instance {instance_id!r}: {exc}")
    except TypeError:
        wrapped = MbrError(f"instance {instance_id!r}: {exc}")
    wrapped.__cause__ = exc
    return wrapped
