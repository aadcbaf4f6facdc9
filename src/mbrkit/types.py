"""Shared domain types and instance validation.

All types are plain frozen dataclasses: structurally comparable, and
safe to share across parallel workers once validated.
Invariant enforcement lives in :func:`validate_instance`, not in the
constructors, so that IO layers can build partially-checked objects and
report schema problems with their own context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import (
    ConfigError,
    EmptyEvidenceError,
    EmptyHypothesesError,
    MatrixShapeMismatchError,
    MissingModelIdError,
    MissingScoreError,
    NonFiniteValueError,
)

GAIN_KINDS = ("exact_match", "answer_match", "rouge_n_kernel", "sentence_bleu", "external")
WEIGHT_KINDS = ("uniform", "temperature", "length_norm", "length_reward", "mixture")
TOKENIZERS = ("whitespace", "unicode_word")
TIE_BREAKS = ("first", "highest_score", "longest")

#: Score-based weighting kinds that require a log-probability on every
#: evidence candidate.
SCORE_WEIGHT_KINDS = ("temperature", "length_norm", "length_reward")


@dataclass(frozen=True)
class Candidate:
    """One sampled output.

    ``tokens`` are authoritative once present; ``text`` is for display and
    IO. ``score`` is the natural-log probability of the sequence under its
    generator (nats); it is optional because uniform weighting needs no
    probabilities. ``answer`` is a pre-extracted final answer for
    answer-match gains; ``model_id`` tags the generator for mixture
    weighting.
    """

    text: str
    tokens: tuple[str, ...] | None = None
    score: float | None = None
    answer: str | None = None
    model_id: str | None = None


@dataclass(frozen=True)
class Instance:
    """One decoding problem: evidence multiset, hypothesis set, optional
    externally computed gain matrix.

    Evidence duplicates are retained; they carry probability mass in the
    Monte Carlo risk estimate. ``hypotheses`` defaults to ``evidence`` when
    absent. ``external_gain`` has one row per evidence item and one column
    per hypothesis, declared as gains (negate losses upstream).
    """

    id: str
    evidence: tuple[Candidate, ...]
    hypotheses: tuple[Candidate, ...] | None = None
    external_gain: tuple[tuple[float, ...], ...] | None = None


@dataclass(frozen=True)
class GainSpec:
    """Which pairwise gain function to apply and its parameters."""

    kind: str = "rouge_n_kernel"
    n: int = 1
    max_order: int = 4
    lowercase: bool = True
    tokenizer: str = "whitespace"

    def __post_init__(self):
        if self.kind not in GAIN_KINDS:
            raise ConfigError(f"unknown gain kind {self.kind!r}; expected one of {GAIN_KINDS}")
        if self.n < 1:
            raise ConfigError(f"n-gram order must be >= 1, got {self.n}")
        if self.max_order < 1:
            raise ConfigError(f"max BLEU order must be >= 1, got {self.max_order}")
        if self.tokenizer not in TOKENIZERS:
            raise ConfigError(
                f"unknown tokenizer {self.tokenizer!r}; expected one of {TOKENIZERS}"
            )


@dataclass(frozen=True)
class WeightSpec:
    """Which evidence distribution to estimate risk under.

    kinds:
      uniform       plain Monte Carlo average over the evidence multiset
      temperature   reweight samples toward the temperature-sharpened
                    distribution p^(1/tau); tau > 0
      length_norm   importance-sample toward scores divided by T^beta
      length_reward importance-sample toward scores plus gamma per token
      mixture       per-model weights pi over pooled multi-model evidence
    """

    kind: str = "uniform"
    tau: float = 1.0
    beta: float = 0.0
    gamma: float = 0.0
    mixture_weights: dict[str, float] | None = None

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS:
            raise ConfigError(f"unknown weighting kind {self.kind!r}; expected one of {WEIGHT_KINDS}")
        if self.kind == "temperature" and not self.tau > 0:
            raise ConfigError(f"temperature tau must be > 0, got {self.tau}")
        # The config echo carries every parameter, and JSON has no inf or nan.
        for name in ("tau", "beta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"weighting {name} must be finite, got {getattr(self, name)}")
        if self.kind == "temperature" and not math.isfinite(1.0 / self.tau):
            raise ConfigError(f"temperature tau must have a finite reciprocal, got {self.tau}")
        if self.mixture_weights is not None:
            if any(w < 0 for w in self.mixture_weights.values()):
                raise ConfigError("mixture weights must be nonnegative")
            if not all(map(math.isfinite, self.mixture_weights.values())):
                raise ConfigError("mixture weights must be finite")
            if not sum(self.mixture_weights.values()) > 0:
                raise ConfigError("mixture weights must sum to a positive number")


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of one decode: the selected hypothesis plus diagnostics.

    ``gain_estimates`` holds the estimated expected gain of every
    hypothesis; ``weights`` the normalized per-evidence weights (sum 1).
    ``answer``/``votes`` are populated by self-consistency decoding only.
    """

    selected_index: int
    selected_text: str
    gain_estimates: tuple[float, ...]
    weights: tuple[float, ...]
    tie_broken: bool
    ess: float = field(default=0.0)
    answer: str | None = None
    votes: int | None = None


def _check_finite_scores(cands: tuple[Candidate, ...], side: str) -> None:
    for i, c in enumerate(cands):
        if c.score is not None and not math.isfinite(c.score):
            raise NonFiniteValueError(f"{side}[{i}] has non-finite score {c.score!r}")


def evidence_scores(evidence: tuple[Candidate, ...], kind: str) -> list[float]:
    """Every evidence score, for score-based weighting ``kind``; raises
    MissingScoreError at the first candidate without one."""
    for i, c in enumerate(evidence):
        if c.score is None:
            raise MissingScoreError(
                f"weighting kind {kind!r} requires a score on every evidence "
                f"candidate; evidence[{i}] has none"
            )
    return [c.score for c in evidence]


def evidence_model_ids(
    evidence: tuple[Candidate, ...], mixture_weights: dict[str, float] | None
) -> list[str]:
    """Every evidence model id, for mixture weighting; raises
    MissingModelIdError at the first candidate without one or, when
    ``mixture_weights`` is given, with one it does not name."""
    for i, c in enumerate(evidence):
        if c.model_id is None:
            raise MissingModelIdError(
                f"mixture weighting requires a model_id on every evidence candidate; "
                f"evidence[{i}] has none"
            )
        if mixture_weights is not None and c.model_id not in mixture_weights:
            raise MissingModelIdError(
                f"evidence[{i}] model_id {c.model_id!r} is not in the mixture weights"
            )
    return [c.model_id for c in evidence]


def _coerce_candidate(c: Candidate) -> Candidate:
    if c.tokens is not None and not isinstance(c.tokens, tuple):
        return replace(c, tokens=tuple(c.tokens))
    return c


def require_external_gain(inst: Instance, gain: GainSpec) -> tuple | None:
    """The instance's external gain matrix, which an ``external`` gain requires."""
    if gain.kind == "external" and inst.external_gain is None:
        raise MatrixShapeMismatchError(
            "gain kind 'external' requires the instance to carry an external_gain matrix"
        )
    return inst.external_gain


def validate_instance(
    inst: Instance,
    gain: GainSpec,
    weight: WeightSpec,
    dedup_hypotheses: bool = False,
) -> Instance:
    """Check all invariants and return a normalized instance.

    Defaults hypotheses to the evidence set (same order, same
    multiplicity) when absent, coerces sequences to tuples, and verifies
    the field requirements of the given gain and weighting specs.
    Idempotent: validating a validated instance returns an equal instance.

    With ``dedup_hypotheses`` the hypothesis list keeps the first of each
    token sequence, tokenized once per distinct candidate by
    :func:`mbrkit.metrics.distinct_tokens`; external gain columns are
    sliced to match. Off by default because it changes tie-break outcomes.
    """
    evidence = tuple(_coerce_candidate(c) for c in inst.evidence)
    if not evidence:
        raise EmptyEvidenceError("no evidence candidates")

    if inst.hypotheses is None:
        hypotheses = evidence
    else:
        hypotheses = tuple(_coerce_candidate(c) for c in inst.hypotheses)
    if not hypotheses:
        raise EmptyHypothesesError("empty hypothesis set")

    _check_finite_scores(evidence, "evidence")
    if hypotheses is not evidence:
        _check_finite_scores(hypotheses, "hypotheses")

    external = require_external_gain(inst, gain)
    if external is not None:
        external = tuple(tuple(float(v) for v in row) for row in external)
        if len(external) != len(evidence) or any(len(row) != len(hypotheses) for row in external):
            raise MatrixShapeMismatchError(
                f"external gain matrix is {len(external)}x"
                f"{len(external[0]) if external else 0}, expected "
                f"{len(evidence)}x{len(hypotheses)}"
            )
        for i, row in enumerate(external):
            for j, v in enumerate(row):
                if not math.isfinite(v):
                    raise NonFiniteValueError(f"external_gain[{i}][{j}] is {v!r}")

    if dedup_hypotheses:
        # Local import: metrics depends on this module for GainSpec.
        from .metrics import distinct_tokens

        seqs, inverse = distinct_tokens(hypotheses, gain)
        first: dict = {}
        keep = [j for j, k in enumerate(inverse.tolist()) if first.setdefault(seqs[k], j) == j]
        if len(keep) != len(hypotheses):
            hypotheses = tuple(hypotheses[j] for j in keep)
            if external is not None:
                external = tuple(tuple(row[j] for j in keep) for row in external)

    if weight.kind in SCORE_WEIGHT_KINDS:
        evidence_scores(evidence, weight.kind)
    if weight.kind == "mixture":
        evidence_model_ids(evidence, weight.mixture_weights)

    return Instance(id=inst.id, evidence=evidence, hypotheses=hypotheses, external_gain=external)
