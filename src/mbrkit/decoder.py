"""Candidate selection by expected gain, plus voting-style special cases.

The core estimator scores each hypothesis by the weighted sum of its
pairwise gains against the evidence multiset and picks the argmax.
``self_consistency`` is decoding with the answer-match gain and uniform
weights, plus a vote tally. The expected gains are one reduction over
the gain table's rows in sample order (:func:`_table_gains`), which
``decode`` runs on its table and :func:`expected_gains` on a matrix
given whole. The table reads its own rows in sample order and sizes
their blocks (:meth:`mbrkit.metrics.GainTable.samples`); this module
only sums them. ``range_vote`` (mean utility over a rated slate) reads
the same blocks of rows as ``decode`` but sums them in its own loop, so
the two reductions check each other rather than being assumed to agree.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from typing import Sequence

import numpy as np

from .errors import MbrError, NonFiniteValueError, ShapeMismatchError, with_instance_id
from .metrics import GainTable, distinct_tokens, gain_table
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


def expected_gains(matrix: np.ndarray, weights: np.ndarray | WeightVector) -> np.ndarray:
    """Per-hypothesis expected gain: column-wise weighted sum of the matrix.

    Computed as an explicit elementwise product followed by an axis sum so
    the floating-point reduction order is fixed, which keeps results
    bit-identical across worker counts and BLAS builds. The sum is
    :func:`_table_gains` over the matrix as a table whose rows and columns
    are the samples, the reduction :func:`decode` runs over its gain
    table. A sum past the float range is +-inf with no warning;
    :func:`select` rejects it.
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
    return _table_gains(GainTable.of(matrix), weights)


def _table_gains(table: GainTable, weights: np.ndarray) -> np.ndarray:
    """The expected gains of ``table.matrix()`` under ``weights``: the bytes
    of ``(weights[:, None] * table.matrix()).sum(axis=0)``, from the
    table's blocks over its distinct hypothesis columns, E x H_d cells in
    all and one block of them at a time.

    On a C-ordered matrix with two or more columns numpy's axis-0 sum adds
    the rows one by one, in order. So each block of samples
    (:meth:`~mbrkit.metrics.GainTable.samples`) is weighed and summed,
    from the second block on with the running sum concatenated in front
    as its first row, and the H_d sums are then gathered to the H
    hypotheses; a line within one block takes one pass. A matrix that is
    not C-contiguous is one block (:meth:`~mbrkit.metrics.GainTable.of`),
    weighed and summed as it is. Numpy sums a lone column pairwise, so one
    hypothesis (H = 1) is reduced as the one expression, and a lone
    distinct column (H_d = 1 < H) as two copies, which numpy sums row by
    row as it does the H columns. A line without evidence sums to zeros.
    """
    hyps = len(table.hyp_inv)
    lone = table.shape[1] == 1
    total, first = None, 0
    with np.errstate(over="ignore"):
        if hyps < 2 or not len(weights):
            return (weights[:, None] * table.matrix()).sum(axis=0)
        for part in table.samples():
            if lone:
                part = part.take([0, 0], axis=1)
            part = weights[first:first + len(part), None] * part
            first += len(part)
            if total is not None:
                part = np.concatenate((total[None], part))
            total = part.sum(axis=0)
    return total if table.shape[1] == hyps else total.take(table.hyp_inv)


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
    one gain table, reduced block by block, with neither the per-sample
    matrix nor the whole table held. The length
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
    rows of the gain table ``decode`` uses, read block by block over its
    distinct hypothesis columns (:meth:`~mbrkit.metrics.GainTable.samples`);
    totals accumulate over them in a plain Python loop, in evidence
    order, deliberately not sharing the weighted reduction of
    :func:`expected_gains`, so the two routes check each other, and are
    then gathered to the hypotheses.
    """
    gain_spec = gain_spec if gain_spec is not None else GainSpec()
    try:
        inst = validate_instance(inst, gain_spec, WeightSpec(), dedup_hypotheses)
        n = len(inst.evidence)
        table = gain_table(inst, gain_spec)
        totals = [0.0] * table.shape[1]
        for block in table.samples():
            for row in block.tolist():
                for j, rating in enumerate(row):
                    totals[j] += rating
        means = np.array([totals[k] / n for k in table.hyp_inv.tolist()])
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
