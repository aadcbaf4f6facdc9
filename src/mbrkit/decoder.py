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

from .errors import MbrError, NonFiniteValueError, ShapeMismatchError, with_instance_id
from .metrics import GainTable, distinct_tokens, gain_matrix, gain_table
from .types import (
    TIE_BREAKS,
    Candidate,
    DecodeResult,
    GainSpec,
    Instance,
    Side,
    WeightSpec,
    interned,
    validate_instance,
)
from .weighting import WeightVector, compute_weights

TIE_ATOL = 1e-12

# Cells of the E x H_d distinct-column matrix that one block of evidence
# rows gathers and weighs at once in _table_gains: 256 KB of float64,
# which a core's cache holds. A line within it is one block, one pass of
# the block loop.
_GAIN_BLOCK_CELLS = 1 << 15


def expected_gains(matrix: np.ndarray, weights: np.ndarray | WeightVector) -> np.ndarray:
    """Per-hypothesis expected gain: column-wise weighted sum of the matrix.

    Computed as an explicit elementwise product followed by an axis sum so
    the floating-point reduction order is fixed, which keeps results
    bit-identical across worker counts and BLAS builds. On a C-ordered
    matrix with two or more columns numpy's axis-0 sum adds the rows one
    by one, in order, which :func:`decode` reproduces block by block over
    the E x H_d distinct hypothesis columns of the gain table, then
    gathers to the H hypotheses, without building the matrix. A sum past the
    float range is +-inf with no warning; :func:`select` rejects it.
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
    return _weighted_sum(matrix, weights)


def _weighted_sum(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The reduction of :func:`expected_gains` on checked float arrays."""
    with np.errstate(over="ignore"):
        return (weights[:, None] * matrix).sum(axis=0)


def _table_gains(table: GainTable, weights: np.ndarray) -> np.ndarray:
    """:func:`expected_gains` of ``table.matrix()``, bit for bit, from the
    table's distinct hypothesis columns: E x H_d cells, not E x H.

    One loop takes blocks of evidence rows from the table, weighs each in
    place and sums it, from the second block on with the running sum
    concatenated in front as its first row, which continues numpy's
    row-by-row accumulation of every column; a line within the budget is
    one block, so its sum is :func:`expected_gains`'s expression. The H_d
    sums are then gathered to the H hypotheses. Numpy sums a lone column
    pairwise, so one hypothesis (H = 1) keeps the one-block expression at
    any budget, and a lone distinct column (H_d = 1 < H) is reduced as
    two copies, which numpy sums row by row as it does the H columns. An
    external matrix (which may be F-ordered) is reduced as it is. Memory
    is the table and two blocks, not 16 bytes per pair of samples.
    """
    if table.ev_inv is None:
        return _weighted_sum(table.table, weights)
    width = len(table.hyp_inv)
    if width == 1:
        return _weighted_sum(table.matrix(), weights)
    distinct = table.table if table.table.shape[1] > 1 else table.table.take([0, 0], axis=1)
    step = max(1, _GAIN_BLOCK_CELLS // distinct.shape[1])
    total = None
    with np.errstate(over="ignore"):
        for first in range(0, len(table.ev_inv), step):
            block = distinct.take(table.ev_inv[first:first + step], axis=0)
            block *= weights[first:first + step, None]
            if total is not None:
                block = np.concatenate((total[None], block))
            total = block.sum(axis=0)
    return total if table.table.shape[1] == width else total.take(table.hyp_inv)


def select(
    gains: np.ndarray,
    hypotheses: Sequence[Candidate],
    tie_break: str = "first",
    gain_spec: GainSpec | None = None,
    side: Side | None = None,
) -> tuple[int, bool]:
    """Index of the winning hypothesis and whether a tie rule was applied.

    Hypotheses whose expected gain is within 1e-12 times the largest
    absolute gain of the maximum are tied, so ties do not depend on the
    scale of the gains; an all-zero vector is one tie. ``first`` keeps
    the lowest index, ``highest_score`` prefers the largest candidate
    score (missing scores rank lowest), and ``longest`` prefers the most
    tokens, read from the hypotheses' Side by
    :func:`mbrkit.metrics.distinct_tokens` (``side``, or one interned
    here when not given); both fall back to the lowest index among
    remaining equals.
    An unknown rule is rejected whether or not there is a tie, and a
    non-finite gain, which no tie rule can order, is a NonFiniteValueError.
    """
    if tie_break not in TIE_BREAKS:
        raise MbrError(f"unknown tie_break {tie_break!r}")
    # Python floats: the same IEEE abs, max, product, difference and
    # comparisons as numpy's, without its fixed cost per call on a short
    # vector. Python's max skips a nan after the largest value, so
    # non-finite gains are rejected first.
    values = np.asarray(gains, dtype=float).ravel().tolist()
    if not values:
        raise MbrError("cannot select from an empty gain vector")
    if not all(map(math.isfinite, values)):
        i = next(i for i, g in enumerate(values) if not math.isfinite(g))
        raise NonFiniteValueError(f"hypotheses[{i}] has non-finite expected gain {values[i]}")
    floor = max(values) - TIE_ATOL * max(map(abs, values))
    tied = [i for i, g in enumerate(values) if g >= floor]
    if len(tied) == 1 or tie_break == "first":
        return tied[0], len(tied) > 1
    if tie_break == "highest_score":
        def key(i: int) -> float:
            score = hypotheses[i].score
            return -math.inf if score is None else score
    else:
        seqs, inverse = distinct_tokens(side or interned(hypotheses), gain_spec or GainSpec())

        def key(i: int) -> float:
            return float(len(seqs[inverse[i]]))
    return max(tied, key=lambda i: (key(i), -i)), True


def _decode_validated(
    inst: Instance, gain_spec: GainSpec, weight_spec: WeightSpec, tie_break: str
) -> DecodeResult:
    """The pipeline after validation, on an instance already validated:
    one gain table, reduced without the per-sample matrix. The length
    weights and the ``longest`` tie rule read token counts from the
    instance's Sides, which keep what the table or dedup tokenized, so
    each distinct candidate of a side is tokenized at most once."""
    table = gain_table(inst, gain_spec)
    wv = compute_weights(inst, weight_spec, gain_spec)
    gains = _table_gains(table, wv.weights)
    index, tie_broken = select(gains, inst.hypotheses, tie_break, gain_spec, inst.sides()[1])
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

    Validates the instance, builds the gain table and weight vector,
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
        index, tie_broken = select(means, inst.hypotheses, tie_break, gain_spec, inst.sides()[1])
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
