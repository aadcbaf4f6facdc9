"""Candidate selection by expected gain, plus voting-style special cases.

The core estimator scores each hypothesis by the weighted sum of its
pairwise gains against the evidence multiset and picks the argmax.
``self_consistency`` is decoding with the answer-match gain and uniform
weights, plus a vote tally. ``range_vote`` (mean utility over a rated
slate) shares the gain matrix with ``decode`` but reduces it in its own
loop, so the two reductions check each other rather than being assumed
to agree.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from typing import Sequence

import numpy as np

from .errors import MbrError, ShapeMismatchError, with_instance_id
from .metrics import candidate_tokens, gain_matrix
from .types import (
    TIE_BREAKS,
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
    An unknown rule is rejected whether or not there is a tie.
    """
    if tie_break not in TIE_BREAKS:
        raise MbrError(f"unknown tie_break {tie_break!r}")
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
    else:
        spec = gain_spec if gain_spec is not None else GainSpec()

        def key(i: int) -> float:
            return float(len(candidate_tokens(hypotheses[i], spec)))
    best = max(tied, key=lambda i: (key(i), -i))
    return int(best), True


def _decode_validated(
    inst: Instance, gain_spec: GainSpec, weight_spec: WeightSpec, tie_break: str
) -> DecodeResult:
    """The pipeline after validation, on an instance already validated."""
    matrix = gain_matrix(inst, gain_spec)
    wv = compute_weights(inst, weight_spec, gain_spec)
    gains = expected_gains(matrix, wv.weights)
    index, tie_broken = select(gains, inst.hypotheses, tie_break, gain_spec)
    return DecodeResult(
        selected_index=index,
        selected_text=inst.hypotheses[index].text,
        gain_estimates=tuple(gains.tolist()),
        weights=tuple(wv.weights.tolist()),
        tie_broken=tie_broken,
        ess=wv.ess,
    )


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
        checked = validate_instance(inst, gain_spec, weight_spec, dedup_hypotheses)
        return _decode_validated(checked, gain_spec, weight_spec, tie_break)
    except MbrError as exc:
        raise with_instance_id(exc, inst.id) from exc


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
    weight_spec = WeightSpec(kind="uniform")
    try:
        checked = validate_instance(inst, gain_spec, weight_spec, dedup_hypotheses)
        result = _decode_validated(checked, gain_spec, weight_spec, tie_break)
        tally = Counter(c.answer.strip() for c in checked.evidence)
        winner = checked.hypotheses[result.selected_index].answer.strip()
    except MbrError as exc:
        raise with_instance_id(exc, inst.id) from exc
    return replace(result, answer=winner, votes=tally[winner])


def range_vote(
    inst: Instance,
    gain_spec: GainSpec | None = None,
    tie_break: str = "first",
    dedup_hypotheses: bool = False,
) -> DecodeResult:
    """Range voting over the hypothesis slate with evidence as voters.

    Each evidence candidate rates every hypothesis with the gain function
    and each hypothesis receives its mean rating. The ratings are the
    rows of the same gain matrix ``decode`` uses; totals accumulate over
    them in a plain Python loop, in evidence order, deliberately not
    sharing the weighted reduction of :func:`expected_gains`, so the two
    routes check each other.
    """
    gain_spec = gain_spec if gain_spec is not None else GainSpec()
    try:
        inst = validate_instance(inst, gain_spec, WeightSpec(), dedup_hypotheses)
        n = len(inst.evidence)
        totals = [0.0] * len(inst.hypotheses)
        for row in gain_matrix(inst, gain_spec).tolist():
            for j, rating in enumerate(row):
                totals[j] += rating
        means = np.array([t / n for t in totals])
        index, tie_broken = select(means, inst.hypotheses, tie_break, gain_spec)
    except MbrError as exc:
        raise with_instance_id(exc, inst.id) from exc
    return DecodeResult(
        selected_index=index,
        selected_text=inst.hypotheses[index].text,
        gain_estimates=tuple(float(m) for m in means),
        weights=tuple([1.0 / n] * n),
        tie_broken=tie_broken,
        ess=float(n),
    )
