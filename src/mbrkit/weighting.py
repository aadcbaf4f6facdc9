"""Normalized per-evidence weights realizing the chosen risk distribution.

Evidence candidates arrive as samples from some generator distribution p.
The plain Monte Carlo estimator weighs them uniformly. Every other kind
reweights the same samples toward a different target distribution via
normalized importance sampling: unnormalized log weights log w = s_target
- s are exponentiated after max-subtraction and normalized to sum 1. The
estimator is consistent but biased at finite sample size, so the
effective sample size 1 / sum(w_i^2) is surfaced as a diagnostic instead
of any bias correction. Weights stay per sample, but what they read of
the candidates (scores, model ids, token counts) is read once per
distinct candidate of the evidence's Side and gathered to the samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateWeightsError, EmptyEvidenceError, ZeroLengthCandidateError
from .metrics import distinct_tokens
from .types import GainSpec, Instance, Side, WeightSpec, evidence_model_ids, evidence_scores


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


def corrected_score(score: float | np.ndarray, length: int | np.ndarray,
                    spec: WeightSpec) -> float | np.ndarray:
    """Length-corrected score s_l for the two length-based weighting kinds,
    of one score and its token count or elementwise over arrays of them.

    length_norm divides the score by length**beta; length_reward adds
    gamma per token. Zero-length candidates are rejected: length**beta is
    undefined at 0 for negative beta and a zero-token sequence carries no
    usable length signal. Each power is libm's, taken once per distinct
    length; numpy's ``/``, ``*`` and ``+`` round as Python's do, so every
    element of an array gets the value of its own scalar call, and a
    scalar call returns a Python float. Results are IEEE 754 values, with
    no warning: an out-of-range power is inf, one that underflows is +0.0,
    and x / +0.0 is +-inf or nan.
    """
    if spec.kind not in ("length_norm", "length_reward"):
        raise ValueError(f"corrected_score is not defined for weighting kind {spec.kind!r}")
    scores = np.asarray(score, dtype=np.float64)
    lengths = np.asarray(length)
    if np.any(lengths < 1):
        noun = "normalization" if spec.kind == "length_norm" else "reward"
        raise ZeroLengthCandidateError(f"length {noun} of a zero-token candidate")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if spec.kind == "length_reward":
            corrected = scores + spec.gamma * lengths
        else:
            # return_index makes the sort stable: numpy's default argsort
            # adds about 0.3 MB to a fresh process.
            distinct, _, inverse = np.unique(lengths, return_index=True, return_inverse=True)
            powers = []
            for n in distinct.tolist():
                try:
                    powers.append(float(n) ** spec.beta)
                except OverflowError:
                    powers.append(math.inf)
            corrected = scores / np.array(powers)[inverse].reshape(lengths.shape)
    return corrected.item() if corrected.ndim == 0 else corrected


def _normalize_log(log_w: np.ndarray) -> np.ndarray:
    peak = np.max(log_w)
    if peak == math.inf:  # the +inf weights outweigh the rest and share the mass
        return (log_w == peak) / np.count_nonzero(log_w == peak)
    if not np.isfinite(peak):
        raise DegenerateWeightsError(
            "all unnormalized weights are zero or undefined; cannot normalize"
        )
    w = np.exp(log_w - peak)
    return w / np.sum(w)


def _ess(weights: np.ndarray) -> float:
    raw = 1.0 / float(np.sum(weights**2))
    return min(max(raw, 1.0), float(len(weights)))


@lru_cache(maxsize=1)
def _uniform_weights(n: int) -> WeightVector:
    """The uniform WeightVector of ``n`` samples, built once per run of
    equal ``n``: one cached entry, the last ``n``, so a huge line is not
    kept once a smaller one follows. Every caller shares the vector, so
    its arrays are read-only."""
    weights = np.full(n, 1.0 / n)
    log_unnorm = np.zeros(n)
    weights.flags.writeable = log_unnorm.flags.writeable = False
    return WeightVector(weights=weights, log_unnormalized=log_unnorm, ess=_ess(weights))


def _mixture_weights(evidence: Side, spec: WeightSpec) -> tuple[np.ndarray, np.ndarray]:
    models, model_of = evidence.keyed(evidence_model_ids(evidence, spec.mixture_weights))
    # Unspecified mixtures are uniform over the distinct models present.
    pi = spec.mixture_weights or dict.fromkeys(models, 1.0)
    pi_total = sum(pi.values())
    counts = np.bincount(model_of, minlength=len(models)).tolist()
    # Each model's n_k samples share that model's probability mass pi_k.
    raw = np.array([pi[m] / pi_total / n for m, n in zip(models, counts)])[model_of]
    total = raw.sum()
    if total <= 0:
        raise DegenerateWeightsError("every evidence candidate has zero mixture mass")
    with np.errstate(divide="ignore"):
        log_raw = np.log(raw)
    return raw / total, log_raw


def compute_weights(inst: Instance, spec: WeightSpec, gain_spec: GainSpec) -> WeightVector:
    """Normalized weights of the evidence multiset under the weighting spec.

    uniform        w_i = 1/n (plain Monte Carlo); the vector of the last
                   ``n`` is cached and shared, so its arrays are read-only.
    temperature    log w_i = s_i * (1/tau - 1): importance weights from
                   samples of p toward p^(1/tau).
    length_norm,
    length_reward  log w_i = s_l(y_i) - s_i with s_l from
                   :func:`corrected_score`, targeting p_l proportional to
                   exp(s_l).
    mixture        w_i proportional to pi_model(i) / n_model(i), score-free.

    Score-based kinds normalize in the log domain with max-subtraction;
    duplicates in the evidence multiset keep their own per-sample weight.
    Extreme finite scores overflow to +-inf as IEEE arithmetic does, with
    no warning; the log weights that are +inf, if any, share all the mass
    equally, and a nan log weight is a DegenerateWeightsError; an
    instance without evidence is an EmptyEvidenceError for every kind.
    Scores and model ids are read once per distinct candidate of the
    evidence Side (:meth:`~mbrkit.types.Instance.sides`); the length
    kinds take token counts from that Side's
    :func:`mbrkit.metrics.distinct_tokens`, which the gain table has
    already built for the gains that tokenize, and correct all scores
    with one :func:`corrected_score` call.
    """
    if not inst.evidence:
        raise EmptyEvidenceError("no evidence candidates")
    if spec.kind == "uniform":
        return _uniform_weights(len(inst.evidence))
    evidence = inst.sides()[0]
    if spec.kind == "mixture":
        weights, log_unnorm = _mixture_weights(evidence, spec)
    else:
        scores = evidence.gather(np.array(evidence_scores(evidence, spec.kind), dtype=np.float64))
        with np.errstate(over="ignore"):
            if spec.kind == "temperature":
                log_unnorm = scores * (1.0 / spec.tau - 1.0)
            else:
                seqs, inverse = distinct_tokens(evidence, gain_spec)
                lengths = np.array([len(t) for t in seqs], dtype=np.int64)[inverse]
                log_unnorm = corrected_score(scores, lengths, spec) - scores
            if np.any(np.isnan(log_unnorm)):
                raise DegenerateWeightsError("NaN in unnormalized log weights")
            weights = _normalize_log(log_unnorm)
    return WeightVector(weights=weights, log_unnormalized=log_unnorm, ess=_ess(weights))
