"""Normalized per-evidence weights realizing the chosen risk distribution.

Evidence candidates arrive as samples from some generator distribution p.
The plain Monte Carlo estimator weighs them uniformly. Every other kind
reweights the same samples toward a different target distribution via
normalized importance sampling: unnormalized log weights log w = s_target
- s are exponentiated after max-subtraction and normalized to sum 1. The
estimator is consistent but biased at finite sample size, so the
effective sample size 1 / sum(w_i^2) is surfaced as a diagnostic instead
of any bias correction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeightsError, ZeroLengthCandidateError
from .metrics import distinct_tokens
from .types import GainSpec, Instance, WeightSpec, evidence_model_ids, evidence_scores


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Normalized evidence weights plus diagnostics.

    ``weights`` sum to 1; ``log_unnormalized`` holds the log of each
    weight before normalization (-inf for zero-mass mixture components);
    ``ess`` is the effective sample size in [1, n].
    """

    weights: np.ndarray
    log_unnormalized: np.ndarray
    ess: float


def corrected_score(score: float, length: int, spec: WeightSpec) -> float:
    """Length-corrected score s_l for the two length-based weighting kinds.

    length_norm divides the score by length**beta; length_reward adds
    gamma per token. Zero-length candidates are rejected: length**beta is
    undefined at 0 for negative beta and a zero-token sequence carries no
    usable length signal.
    """
    if spec.kind == "length_norm":
        if length < 1:
            raise ZeroLengthCandidateError("length normalization of a zero-token candidate")
        return score / float(length) ** spec.beta
    if spec.kind == "length_reward":
        if length < 1:
            raise ZeroLengthCandidateError("length reward of a zero-token candidate")
        return score + spec.gamma * length
    raise ValueError(f"corrected_score is not defined for weighting kind {spec.kind!r}")


def _normalize_log(log_w: np.ndarray) -> np.ndarray:
    peak = np.max(log_w)
    if not np.isfinite(peak):
        raise DegenerateWeightsError(
            "all unnormalized weights are zero or undefined; cannot normalize"
        )
    w = np.exp(log_w - peak)
    return w / np.sum(w)


def _ess(weights: np.ndarray) -> float:
    raw = 1.0 / float(np.sum(weights**2))
    return min(max(raw, 1.0), float(len(weights)))


def _mixture_weights(inst: Instance, spec: WeightSpec) -> tuple[np.ndarray, np.ndarray]:
    model_ids = evidence_model_ids(inst.evidence, spec.mixture_weights)
    if spec.mixture_weights is None:
        # Unspecified mixtures are uniform over the distinct models present.
        pi = {m: 1.0 for m in dict.fromkeys(model_ids)}
    else:
        pi = dict(spec.mixture_weights)
    pi_total = sum(pi.values())
    counts: dict[str, int] = {}
    for m in model_ids:
        counts[m] = counts.get(m, 0) + 1
    # Each model's n_k samples share that model's probability mass pi_k.
    raw = np.array([pi[m] / pi_total / counts[m] for m in model_ids])
    total = raw.sum()
    if total <= 0:
        raise DegenerateWeightsError("every evidence candidate has zero mixture mass")
    with np.errstate(divide="ignore"):
        log_raw = np.log(raw)
    return raw / total, log_raw


def compute_weights(inst: Instance, spec: WeightSpec, gain_spec: GainSpec) -> WeightVector:
    """Normalized weights of the evidence multiset under the weighting spec.

    uniform        w_i = 1/n (plain Monte Carlo).
    temperature    log w_i = s_i * (1/tau - 1): importance weights from
                   samples of p toward p^(1/tau).
    length_norm,
    length_reward  log w_i = s_l(y_i) - s_i with s_l from
                   :func:`corrected_score`, targeting p_l proportional to
                   exp(s_l).
    mixture        w_i proportional to pi_model(i) / n_model(i), score-free.

    Score-based kinds normalize in the log domain with max-subtraction;
    duplicates in the evidence multiset keep their own per-sample weight.
    The length kinds take token counts from
    :func:`mbrkit.metrics.distinct_tokens`, so each distinct
    ``(text, tokens)`` candidate is tokenized once, as in the gain matrix,
    and call :func:`corrected_score` once per distinct bit-exact
    ``(score, length)`` pair, in order of each pair's first sample.
    """
    n = len(inst.evidence)
    if spec.kind == "uniform":
        weights = np.full(n, 1.0 / n)
        log_unnorm = np.zeros(n)
    elif spec.kind == "mixture":
        weights, log_unnorm = _mixture_weights(inst, spec)
    else:
        scores = np.array(evidence_scores(inst.evidence, spec.kind), dtype=np.float64)
        if spec.kind == "temperature":
            log_unnorm = scores * (1.0 / spec.tau - 1.0)
        else:
            seqs, inverse = distinct_tokens(inst.evidence, gain_spec)
            lengths = np.array([len(t) for t in seqs], dtype=np.int64)[inverse]
            # One key per bit-exact (score, length) pair. Calls go in order of
            # each key's first sample, so the first zero-length sample raises.
            # Every sort here is stable (return_index), as in the gain matrix:
            # numpy's default argsort adds about 0.3 MB to a fresh process.
            bits = scores.view(np.int64)
            score_ids = np.unique(bits, return_index=True, return_inverse=True)[2]
            keys = score_ids * (int(lengths.max(initial=0)) + 1) + lengths
            _, firsts, key_inverse = np.unique(keys, return_index=True, return_inverse=True)
            corrected = np.empty(len(firsts))
            for k in np.argsort(firsts, kind="stable").tolist():
                i = int(firsts[k])
                corrected[k] = corrected_score(scores[i], int(lengths[i]), spec)
            log_unnorm = corrected[key_inverse] - scores
        if np.any(np.isnan(log_unnorm)):
            raise DegenerateWeightsError("NaN in unnormalized log weights")
        weights = _normalize_log(log_unnorm)
    return WeightVector(weights=weights, log_unnormalized=log_unnorm, ess=_ess(weights))
