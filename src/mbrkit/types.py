"""Shared domain types and instance validation.

All types are plain frozen dataclasses: structurally comparable, and
safe to share across parallel workers once validated.
Constructors normalize: a :class:`Candidate` holds its tokens as a tuple
from construction. Its one constructor, which the parser calls too, fills
the new instance's ``__dict__`` in one assignment in place of the
dataclass ``__init__``. The invariant checks stay in
:func:`validate_instance`, not in the constructors, so that IO layers can
build partially-checked objects and report schema problems with their
own context.

Samples repeat, so which samples of a side are one candidate is decided
once per side, in a :class:`Side`: the distinct candidates in order of
first occurrence and each sample's index among them. The parser builds
it from its twins, :func:`interned` builds it for an instance made
through the API, and :meth:`Instance.sides` hands it to every layer.
Validation, the gain table, the weights and dedup each run once per
distinct candidate and gather their results back to the samples. A
check that fails names the first sample that holds the failing
candidate, which is the sample a per-sample check would name.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

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


@dataclass(frozen=True, init=False)
class Candidate:
    """One sampled output.

    ``tokens`` are authoritative once present, and are stored as a tuple
    whatever sequence of strings is given (``None`` and a tuple stay as
    they are), so equal candidates hash alike; ``text`` is for display
    and IO. ``score`` is the natural-log probability of the sequence under
    its generator (nats); it is optional because uniform weighting needs
    no probabilities. ``answer`` is a pre-extracted final answer for
    answer-match gains; ``model_id`` tags the generator for mixture
    weighting.
    """

    text: str
    tokens: tuple[str, ...] | None = None
    score: float | None = None
    answer: str | None = None
    model_id: str | None = None

    def __init__(
        self,
        text: str,
        tokens: Iterable[str] | None = None,
        score: float | None = None,
        answer: str | None = None,
        model_id: str | None = None,
    ):
        # The fields as the dataclass __init__ would set them, in one
        # assignment: about half its cost per candidate.
        if tokens is not None and not isinstance(tokens, tuple):
            tokens = tuple(tokens)
        object.__setattr__(self, "__dict__", {"text": text, "tokens": tokens, "score": score,
                                              "answer": answer, "model_id": model_id})


def intern(keys: Iterable) -> tuple[list, np.ndarray]:
    """The distinct keys in order of first occurrence and each key's index
    among them: ``distinct[inverse[i]]`` equals key ``i``."""
    ids: dict = {}
    inverse = [ids.setdefault(k, len(ids)) for k in keys]
    return list(ids), np.array(inverse, dtype=np.intp)


class Side(NamedTuple):
    """One side's candidates interned: the distinct candidates in order of
    first occurrence and each sample's index among them, so
    ``distinct[inverse[i]]`` is sample ``i``; the parser gives a side in
    which no sample repeats another the ``range`` of its samples as its
    inverse. ``tokens`` keeps the side's token sequences per GainSpec once
    :func:`mbrkit.metrics.distinct_tokens` has built them, so a side is
    tokenized once whoever asks."""

    distinct: Sequence[Candidate]
    inverse: np.ndarray | range
    tokens: dict

    def gather(self, values: np.ndarray) -> np.ndarray:
        """Values of the distinct candidates as values of the samples;
        ``values`` itself when no sample repeats another."""
        return values if len(self.distinct) == len(self.inverse) else values[self.inverse]

    def keyed(self, keys: Iterable) -> tuple[list, np.ndarray]:
        """The distinct values of ``keys``, one key per distinct candidate,
        in order of first occurrence, and each sample's index among them."""
        distinct, ids = intern(keys)
        return distinct, self.gather(ids)

    def first(self, d: int) -> int:
        """The first sample of distinct candidate ``d``."""
        return list(self.inverse).index(d)


def interned(cands: Sequence[Candidate]) -> Side:
    """The Side of candidates built through the API, keyed on each
    candidate's fields, the fields the parser compares. Equality here is
    the dataclass's, so scores of one value (``1`` and ``1.0``, or
    ``-0.0`` and ``0.0``) are one key; no decoded output tells them apart."""
    return Side(*intern(cands), {})


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
    # Set by sided_instance or by the first sides() call. Not an init
    # field, so dataclasses.replace, which may change a side, drops it; not
    # compared or shown either.
    _sides: tuple[Side, Side] | None = field(default=None, init=False, compare=False, repr=False)

    def sides(self) -> tuple[Side, Side]:
        """The evidence and hypothesis Sides, one Side when the hypotheses
        are the evidence (absent or the same sequence): those the parser
        or :func:`validate_instance` built, or else :func:`interned` ones,
        kept on the instance so that each is interned and tokenized once."""
        if self._sides is None:
            evidence, hyps = interned(self.evidence), self.hypotheses
            sides = evidence, evidence if hyps is None or hyps is self.evidence else interned(hyps)
            object.__setattr__(self, "_sides", sides)
        return self._sides


def sided_instance(id: str, evidence: tuple, hypotheses: tuple | None, external_gain: tuple | None,
                   sides: tuple[Side, Side]) -> Instance:
    """The Instance of these fields carrying ``sides``, which must be the
    Sides of its evidence and hypotheses. Its ``__dict__`` is set in one
    assignment, as :class:`Candidate` sets its own: under half the cost
    of the dataclass ``__init__`` and a second assignment for ``sides``."""
    inst = object.__new__(Instance)
    object.__setattr__(inst, "__dict__", {"id": id, "evidence": evidence, "hypotheses": hypotheses,
                                          "external_gain": external_gain, "_sides": sides})
    return inst


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
        for name in ("n", "max_order"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.lowercase, bool):
            raise ConfigError(f"lowercase must be a bool, got {self.lowercase!r}")
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
        # Real numbers only: a bool, refused as by GainSpec, would echo as ``true``.
        mixture = self.mixture_weights
        if mixture is not None and not (isinstance(mixture, dict)
                                        and all(isinstance(k, str) for k in mixture)):
            raise ConfigError(f"mixture weights must map str model ids to numbers, got {mixture!r}")
        for name, value in [("tau", self.tau), ("beta", self.beta), ("gamma", self.gamma),
                            *((f"mixture weight {k!r}", w) for k, w in (mixture or {}).items())]:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"weighting {name} must be a real number, got {value!r}")
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
            total = sum(self.mixture_weights.values())
            if not 0 < total < math.inf:
                raise ConfigError(f"mixture weights must sum to a positive finite number, got {total}")


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


def _check_finite_scores(side: Side, name: str) -> None:
    for d, c in enumerate(side.distinct):
        if c.score is not None and not math.isfinite(c.score):
            raise NonFiniteValueError(f"{name}[{side.first(d)}] has non-finite score {c.score!r}")


def evidence_scores(evidence: Side, kind: str) -> list[float]:
    """The score of each distinct evidence candidate, for score-based
    weighting ``kind``; raises MissingScoreError at the first sample
    without one."""
    scores = [c.score for c in evidence.distinct]
    if None in scores:
        raise MissingScoreError(
            f"weighting kind {kind!r} requires a score on every evidence "
            f"candidate; evidence[{evidence.first(scores.index(None))}] has none"
        )
    return scores


def evidence_model_ids(evidence: Side, mixture_weights: dict[str, float] | None) -> list[str]:
    """The model id of each distinct evidence candidate, for mixture
    weighting; raises MissingModelIdError at the first sample without one
    or, when ``mixture_weights`` is given, with one it does not name."""
    for d, c in enumerate(evidence.distinct):
        if c.model_id is None:
            raise MissingModelIdError(
                f"mixture weighting requires a model_id on every evidence candidate; "
                f"evidence[{evidence.first(d)}] has none"
            )
        if mixture_weights is not None and c.model_id not in mixture_weights:
            raise MissingModelIdError(
                f"evidence[{evidence.first(d)}] model_id {c.model_id!r} is not in the mixture weights"
            )
    return [c.model_id for c in evidence.distinct]


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
    multiplicity) when absent, holds both candidate sequences as tuples
    (each candidate already holds its tokens as one), coerces external
    gains to floats, and verifies the field requirements of the given
    gain and weighting specs.
    Idempotent: validating a validated instance returns an equal instance.
    The checks run once per distinct candidate of :meth:`Instance.sides`,
    which the returned instance carries.

    With ``dedup_hypotheses`` the hypothesis list keeps the first sample
    of each token sequence of :func:`mbrkit.metrics.distinct_tokens`,
    and its Side keeps those sequences, so they are not tokenized again;
    external gain columns are sliced to match. Off by default because it
    changes tie-break outcomes.
    """
    evidence = tuple(inst.evidence)
    if not evidence:
        raise EmptyEvidenceError("no evidence candidates")

    hypotheses = evidence if inst.hypotheses is None else tuple(inst.hypotheses)
    if not hypotheses:
        raise EmptyHypothesesError("empty hypothesis set")

    ev_side, hyp_side = inst.sides()
    _check_finite_scores(ev_side, "evidence")
    if hyp_side is not ev_side:
        _check_finite_scores(hyp_side, "hypotheses")

    external = require_external_gain(inst, gain)
    if external is not None:
        external = tuple(tuple(float(v) for v in row) for row in external)
        if len(external) != len(evidence):
            raise MatrixShapeMismatchError(
                f"external gain matrix is {len(external)}x"
                f"{len(external[0]) if external else 0}, expected "
                f"{len(evidence)}x{len(hypotheses)}"
            )
        for i, row in enumerate(external):
            if len(row) != len(hypotheses):
                raise MatrixShapeMismatchError(
                    f"external_gain[{i}] has {len(row)} entries, expected {len(hypotheses)}")
        for i, row in enumerate(external):
            for j, v in enumerate(row):
                if not math.isfinite(v):
                    raise NonFiniteValueError(f"external_gain[{i}][{j}] is {v!r}")

    if dedup_hypotheses:
        # Local import: metrics depends on this module for GainSpec.
        from .metrics import distinct_tokens

        seqs, inverse = distinct_tokens(hyp_side, gain)
        if len(seqs) != len(hypotheses):
            # Ids count up from 0 in order of first occurrence, so the first
            # index of each, in id order, is in sample order too.
            keep = np.unique(inverse, return_index=True)[1].tolist()
            hypotheses = tuple(hypotheses[j] for j in keep)
            order = np.arange(len(keep))
            hyp_side = Side(hypotheses, order, {gain: (seqs, order)})
            if external is not None:
                external = tuple(tuple(row[j] for j in keep) for row in external)

    if weight.kind in SCORE_WEIGHT_KINDS:
        evidence_scores(ev_side, weight.kind)
    if weight.kind == "mixture":
        evidence_model_ids(ev_side, weight.mixture_weights)

    return sided_instance(inst.id, evidence, hypotheses, external, (ev_side, hyp_side))
