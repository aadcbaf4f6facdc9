"""Candidate selection by expected gain, plus voting-style special cases.

The core estimator scores each hypothesis by the weighted sum of its
pairwise gains against the evidence multiset and picks the argmax.
``self_consistency`` and ``range_vote`` are thin reformulations (majority
vote over answers, mean utility over a rated slate) kept as separate code
paths so their agreement with ``decode`` can be checked rather than
assumed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from typing import Sequence

import numpy as np

from .errors import MbrError, ShapeMismatchError
from .metrics import candidate_tokens, gain_matrix, pair_gain
from .types import (
    Candidate,
    DecodeResult,
    GainSpec,
    Instance,
    WeightSpec,
    validate_instance,
)
from .weighting import WeightVector, compute_weights

TIE_ATOL = 1e-12


def expected_gains(matrix: np.ndarray, weights: np.ndarray | WeightVector) -> np.ndarray:
    """Per-hypothesis expected gain: column-wise weighted sum of the matrix.

    Computed as an explicit elementwise product followed by an axis sum so
    the floating-point reduction order is fixed, which keeps results
    bit-identical across worker counts and BLAS builds.
    """
    if isinstance(weights, WeightVector):
        weights = weights.weights
    matrix = np.asarray(matrix, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if matrix.ndim != 2:
        raise ShapeMismatchError(f"gain matrix must be 2-dimensional, got shape {matrix.shape}")
    if weights.ndim != 1 or weights.shape[0] != matrix.shape[0]:
        raise ShapeMismatchError(
            f"weight vector of shape {weights.shape} does not match "
            f"gain matrix of shape {matrix.shape}"
        )
    return (weights[:, None] * matrix).sum(axis=0)


def select(
    gains: np.ndarray,
    hypotheses: Sequence[Candidate],
    tie_break: str = "first",
    gain_spec: GainSpec | None = None,
) -> tuple[int, bool]:
    """Index of the winning hypothesis and whether a tie rule was applied.

    Hypotheses whose expected gain is within 1e-12 times the largest
    absolute gain of the maximum are tied, so ties do not depend on the
    scale of the gains; an all-zero vector is one tie. ``first`` keeps
    the lowest index, ``highest_score`` prefers the largest candidate
    score (missing scores rank lowest), and ``longest`` prefers the most
    tokens; both fall back to the lowest index among remaining equals.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.size == 0:
        raise MbrError("cannot select from an empty gain vector")
    tied = np.flatnonzero(gains >= gains.max() - TIE_ATOL * np.abs(gains).max())
    if len(tied) == 1 or tie_break == "first":
        return int(tied[0]), len(tied) > 1
    if tie_break == "highest_score":
        def key(i: int) -> float:
            score = hypotheses[i].score
            return -math.inf if score is None else score
    elif tie_break == "longest":
        spec = gain_spec if gain_spec is not None else GainSpec()

        def key(i: int) -> float:
            return float(len(candidate_tokens(hypotheses[i], spec)))
    else:
        raise MbrError(f"unknown tie_break {tie_break!r}")
    best = max(tied, key=lambda i: (key(i), -i))
    return int(best), True


def _reraise_with_id(exc: MbrError, instance_id: str) -> MbrError:
    try:
        wrapped = type(exc)(f"instance {instance_id!r}: {exc}")
    except TypeError:
        wrapped = MbrError(f"instance {instance_id!r}: {exc}")
    wrapped.__cause__ = exc
    return wrapped


def decode(
    inst: Instance,
    gain_spec: GainSpec | None = None,
    weight_spec: WeightSpec | None = None,
    tie_break: str = "first",
    dedup_hypotheses: bool = False,
) -> DecodeResult:
    """Run the full pipeline on one instance and return the selection.

    Validates the instance, builds the gain matrix and weight vector,
    reduces to expected gains, and selects. Errors raised anywhere in the
    pipeline are re-raised with the instance id prefixed so batch callers
    can report which input failed.
    """
    gain_spec = gain_spec if gain_spec is not None else GainSpec()
    weight_spec = weight_spec if weight_spec is not None else WeightSpec()
    try:
        inst = validate_instance(inst, gain_spec, weight_spec, dedup_hypotheses)
        matrix = gain_matrix(inst, gain_spec)
        wv = compute_weights(inst, weight_spec, gain_spec)
        gains = expected_gains(matrix, wv.weights)
        index, tie_broken = select(gains, inst.hypotheses, tie_break, gain_spec)
    except MbrError as exc:
        raise _reraise_with_id(exc, inst.id) from exc
    return DecodeResult(
        selected_index=index,
        selected_text=inst.hypotheses[index].text,
        gain_estimates=tuple(float(g) for g in gains),
        weights=tuple(float(w) for w in wv.weights),
        tie_broken=tie_broken,
        ess=wv.ess,
    )


def self_consistency(
    inst: Instance,
    tie_break: str = "first",
    dedup_hypotheses: bool = False,
) -> DecodeResult:
    """Majority vote over answers, expressed as decoding with answer match.

    Uniform weights with the answer-match gain make the expected gain of
    a hypothesis exactly its answer's vote share, so the selection agrees
    with a plain vote count. The winning answer and its vote count are
    attached to the result.
    """
    gain_spec = GainSpec(kind="answer_match")
    result = decode(
        inst,
        gain_spec,
        WeightSpec(kind="uniform"),
        tie_break=tie_break,
        dedup_hypotheses=dedup_hypotheses,
    )
    try:
        checked = validate_instance(inst, gain_spec, WeightSpec(), dedup_hypotheses)
        tally = Counter(c.answer.strip() for c in checked.evidence)
        winner = checked.hypotheses[result.selected_index].answer.strip()
    except MbrError as exc:
        raise _reraise_with_id(exc, inst.id) from exc
    return replace(result, answer=winner, votes=tally[winner])


def range_vote(
    inst: Instance,
    gain_spec: GainSpec | None = None,
    tie_break: str = "first",
    dedup_hypotheses: bool = False,
) -> DecodeResult:
    """Range voting over the hypothesis slate with evidence as voters.

    Each evidence candidate rates every hypothesis with the gain function
    and each hypothesis receives its mean rating. Totals accumulate in a
    plain Python loop, deliberately not sharing the matrix-reduction code
    so the two routes check each other.
    """
    gain_spec = gain_spec if gain_spec is not None else GainSpec()
    try:
        inst = validate_instance(inst, gain_spec, WeightSpec(), dedup_hypotheses)
        n = len(inst.evidence)
        totals = [0.0] * len(inst.hypotheses)
        if gain_spec.kind == "external":
            for row in inst.external_gain:
                for j, rating in enumerate(row):
                    totals[j] += float(rating)
        else:
            for voter in inst.evidence:
                for j, hyp in enumerate(inst.hypotheses):
                    totals[j] += pair_gain(voter, hyp, gain_spec)
        means = np.array([t / n for t in totals])
        index, tie_broken = select(means, inst.hypotheses, tie_break, gain_spec)
    except MbrError as exc:
        raise _reraise_with_id(exc, inst.id) from exc
    return DecodeResult(
        selected_index=index,
        selected_text=inst.hypotheses[index].text,
        gain_estimates=tuple(float(m) for m in means),
        weights=tuple([1.0 / n] * n),
        tie_broken=tie_broken,
        ess=float(n),
    )
