"""Tokenization, n-gram counts joined on their postings, and the built-in gains.

Every gain here maps a (evidence, hypothesis) candidate pair into [0, 1].
:func:`gain_matrix` holds the only implementation of each gain, batched
over all pairs of an instance; :func:`pair_gain` is its 1x1 case.
Evidence samples repeat, since duplicates carry probability mass, so the
matrix is built once per distinct candidate and gathered back per sample.
The n-gram overlap kernel is defined in its signed-difference form,

    K(y, y') = 1 - |T(y) - T(y')|_1 / (|T(y)|_1 + |T(y')|_1)

over sparse count vectors T (:func:`rouge_kernel` computes it this way
for one pair); by the L1 identity this equals
2 * sum_g min(T[g], T'[g]) / (|T|_1 + |T'|_1), which the matrix computes
for all pairs at once by joining the two sides' (gram, row, count)
postings on the gram. Sentence BLEU follows the sacrebleu conventions:
clipped precisions, effective order, exponential smoothing (the k-th
zero-match order contributes 1 / (2^k * total_n)), and the standard
brevity penalty; an empty hypothesis scores 0. Its clipped matches of
every order are the same min-sum, finished cell by cell.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import MatrixShapeMismatchError, MbrError, MissingAnswerError, OrderMismatchError
from .types import Candidate, GainSpec, Instance

_WORD_RE = re.compile(r"\w+", re.UNICODE)


def tokenize(text: str, spec: GainSpec) -> tuple[str, ...]:
    """Split ``text`` into tokens per the spec's tokenizer and casing.

    ``whitespace`` splits on runs of Unicode whitespace; ``unicode_word``
    keeps maximal runs of word characters and discards everything else.
    Deterministic; empty text yields an empty sequence.
    """
    if spec.lowercase:
        text = text.lower()
    if spec.tokenizer == "whitespace":
        return tuple(text.split())
    return tuple(_WORD_RE.findall(text))


def candidate_tokens(c: Candidate, spec: GainSpec) -> tuple[str, ...]:
    """Token sequence of a candidate: its own tokens if present (casing
    still applied), otherwise the tokenized text."""
    if c.tokens is not None:
        if spec.lowercase:
            return tuple(t.lower() for t in c.tokens)
        return tuple(c.tokens)
    return tuple(tokenize(c.text, spec))


def _distinct(cands, key) -> tuple[list[int], np.ndarray]:
    """Index of the first candidate with each distinct ``key(c)``, in
    order, and for every candidate the position of its key in that list."""
    ids: dict = {}
    firsts: list[int] = []
    inverse: list[int] = []
    for i, c in enumerate(cands):
        j = ids.setdefault(key(c), len(ids))
        if j == len(firsts):
            firsts.append(i)
        inverse.append(j)
    return firsts, np.array(inverse, dtype=np.intp)


def _raw_key(c: Candidate) -> tuple:
    # An unvalidated candidate may carry its tokens as a list.
    return c.text, c.tokens if c.tokens is None else tuple(c.tokens)


def distinct_tokens(cands, spec: GainSpec) -> tuple[list[tuple[str, ...]], np.ndarray]:
    """Token sequences of the distinct candidates and each candidate's
    index among them.

    Candidates are interned on their raw ``(text, tokens)`` pair, which
    determines the token sequence, so :func:`candidate_tokens` runs once
    per distinct pair; ``seqs[inverse[i]]`` is candidate ``i``'s sequence.
    """
    firsts, inverse = _distinct(cands, _raw_key)
    return [candidate_tokens(cands[i], spec) for i in firsts], inverse


def _distinct_answers(cands, side: str) -> tuple[list[str], np.ndarray]:
    """Stripped answers of the distinct raw answers, as :func:`distinct_tokens`."""
    firsts, inverse = _distinct(cands, lambda c: c.answer)
    for i in firsts:
        if cands[i].answer is None:
            raise MissingAnswerError(f"{side}[{i}] has no extracted answer")
    return [cands[i].answer.strip() for i in firsts], inverse


@dataclass(frozen=True)
class NgramCounts:
    """Sparse n-gram count vector of a single token sequence."""

    order: int
    counts: dict[tuple[str, ...], int]
    total: int


def ngram_counts(tokens, n: int) -> NgramCounts:
    """Count every contiguous window of ``n`` tokens.

    ``total`` is max(0, len(tokens) - n + 1); sequences shorter than the
    order produce an empty count vector.
    """
    tokens = tuple(tokens)
    counts = Counter(tokens[i : i + n] for i in range(len(tokens) - n + 1))
    return NgramCounts(order=n, counts=dict(counts), total=max(0, len(tokens) - n + 1))


def rouge_kernel(a: NgramCounts, b: NgramCounts) -> float:
    """N-gram overlap kernel in [0, 1] between two count vectors.

    Two empty vectors are identical (1.0); an empty vector against a
    nonempty one shares nothing (0.0). Symmetric, and 1.0 exactly on
    identical sequences.
    """
    if a.order != b.order:
        raise OrderMismatchError(f"cannot compare order-{a.order} with order-{b.order} counts")
    denom = a.total + b.total
    if denom == 0:
        return 1.0
    l1 = 0
    for gram, count in a.counts.items():
        l1 += abs(count - b.counts.get(gram, 0))
    for gram, count in b.counts.items():
        if gram not in a.counts:
            l1 += count
    return 1.0 - l1 / denom


def _order_counters(tokens: tuple[str, ...], max_order: int) -> list[dict]:
    return [ngram_counts(tokens, n).counts for n in range(1, max_order + 1)]


def _sentence_bleu(ref_len: int, hyp_len: int, correct, max_order: int) -> float:
    """Sentence BLEU of one pair from its lengths and clipped matches per order."""
    if hyp_len == 0:
        return 0.0
    log_prec_sum = 0.0
    effective_order = 0
    smooth = 1.0
    for n in range(1, max_order + 1):
        total = hyp_len - n + 1
        if total <= 0:
            break
        effective_order = n
        if correct[n - 1] == 0:
            smooth *= 2.0
            precision = 1.0 / (smooth * total)
        else:
            precision = correct[n - 1] / total
        log_prec_sum += math.log(precision)
    score = math.exp(log_prec_sum / effective_order)
    if hyp_len < ref_len:
        score *= math.exp(1.0 - ref_len / hyp_len)
    return score


# ---------------------------------------------------------------------------
# Batched gain matrix
# ---------------------------------------------------------------------------


# Posting pairs plus output cells that one block of evidence rows expands at
# once: 2^16 adds under 10 MB of peak memory at jobs=8 on a 1000x1000 matrix.
_PAIR_CHUNK = 1 << 16


def _postings(count_maps: list[dict], vocab: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gram id, row and count of every entry, in row order; new grams join ``vocab``."""
    grams = np.fromiter((vocab.setdefault(gram, len(vocab))
                         for row_counts in count_maps for gram in row_counts), np.intp)
    rows = np.repeat(np.arange(len(count_maps)), [len(row_counts) for row_counts in count_maps])
    counts = np.fromiter((c for row_counts in count_maps for c in row_counts.values()), np.float64)
    return grams, rows, counts


def _clipped_matches(ev_maps: list[dict], hyp_maps: list[dict], jobs: int) -> np.ndarray:
    """sum_g min(ev_maps[i][g], hyp_maps[j][g]) for all pairs of count maps.

    Each evidence posting finds its gram's run of hypothesis postings by
    ``searchsorted``; each pair adds the smaller count to its cell by
    ``bincount``. A block of evidence rows (at most ``_PAIR_CHUNK`` pairs
    plus cells, or one row) fills only its own rows, so with ``jobs`` > 1
    blocks run on a thread pool. Integer sums in float64 are exact.
    """
    vocab: dict = {}
    hyp_gram, hyp_row, hyp_count = _postings(hyp_maps, vocab)
    by_gram = np.argsort(hyp_gram, kind="stable")
    hyp_gram, hyp_row, hyp_count = hyp_gram[by_gram], hyp_row[by_gram], hyp_count[by_gram]
    ev_gram, ev_row, ev_count = _postings(ev_maps, vocab)
    run_start = np.searchsorted(hyp_gram, ev_gram, side="left")
    fan = np.searchsorted(hyp_gram, ev_gram, side="right") - run_start
    pairs_before = np.concatenate(([0], np.cumsum(fan)))
    shift = run_start - pairs_before[:-1]  # pair p of posting e joins hyp posting p + shift[e]
    height, width = len(ev_maps), len(hyp_maps)
    row_start = np.searchsorted(ev_row, np.arange(height + 1))
    step = max(1, _PAIR_CHUNK // (width + int(np.diff(pairs_before[row_start]).max(initial=1))))
    out = np.empty(height * width, dtype=np.float64)

    def join(first: int) -> None:
        stop = min(first + step, height)
        lo, hi = row_start[first], row_start[stop]
        hyp_at = np.arange(pairs_before[lo], pairs_before[hi]) + np.repeat(shift[lo:hi], fan[lo:hi])
        cells = np.repeat((ev_row[lo:hi] - first) * width, fan[lo:hi]) + hyp_row[hyp_at]
        matches = np.minimum(np.repeat(ev_count[lo:hi], fan[lo:hi]), hyp_count[hyp_at])
        out[first * width:stop * width] = np.bincount(cells, matches, (stop - first) * width)

    blocks = range(0, height, step)
    if jobs < 2 or len(blocks) < 2:
        list(map(join, blocks))
    else:
        with ThreadPoolExecutor(max_workers=min(jobs, len(blocks))) as pool:
            list(pool.map(join, blocks))
    return out.reshape(height, width)


def _distinct_gains(ev_keys: list, hyp_keys: list, spec: GainSpec, jobs: int) -> np.ndarray:
    """Gains of every pair of distinct keys: token sequences, or stripped
    answers for ``answer_match``."""
    if spec.kind in ("exact_match", "answer_match"):
        ids: dict = {}
        ev_ids = np.array([ids.setdefault(k, len(ids)) for k in ev_keys])
        hyp_ids = np.array([ids.setdefault(k, len(ids)) for k in hyp_keys])
        return np.equal.outer(ev_ids, hyp_ids).astype(np.float64)

    if spec.kind == "rouge_n_kernel":
        ev_counts = [ngram_counts(t, spec.n) for t in ev_keys]
        hyp_counts = [ngram_counts(t, spec.n) for t in hyp_keys]
        inter = _clipped_matches(
            [c.counts for c in ev_counts], [c.counts for c in hyp_counts], jobs)
        ev_tot = np.array([c.total for c in ev_counts], dtype=np.float64)
        hyp_tot = np.array([c.total for c in hyp_counts], dtype=np.float64)
        denom = ev_tot[:, None] + hyp_tot[None, :]
        l1 = denom - 2.0 * inter
        safe = np.where(denom > 0, denom, 1.0)
        return np.where(denom > 0, 1.0 - l1 / safe, 1.0)

    if spec.kind == "sentence_bleu":
        order = spec.max_order
        ev_orders = [_order_counters(t, order) for t in ev_keys]
        hyp_orders = [_order_counters(t, order) for t in hyp_keys]
        correct = [
            _clipped_matches([c[n] for c in ev_orders], [c[n] for c in hyp_orders], jobs)
            for n in range(order)
        ]
        hyp_lens = [len(t) for t in hyp_keys]
        matrix = np.empty((len(ev_keys), len(hyp_keys)), dtype=np.float64)
        for i, ref in enumerate(ev_keys):
            rows = zip(*(c[i].tolist() for c in correct))
            matrix[i] = [_sentence_bleu(len(ref), hyp_len, row, order)
                         for hyp_len, row in zip(hyp_lens, rows)]
        return matrix

    raise MbrError(f"unsupported gain kind {spec.kind!r}")


def gain_matrix(inst: Instance, spec: GainSpec, jobs: int = 1) -> np.ndarray:
    """Pairwise gain table: entry (i, j) = G(evidence_i, hypothesis_j).

    ``exact_match`` is 1.0 iff the normalized token sequences are equal,
    ``answer_match`` iff the extracted answers agree after trimming
    whitespace; both compare interned keys. Each side is interned first,
    on the raw ``(text, tokens)`` pair (the raw answer for
    ``answer_match``): tokenization, n-gram counting and the gain itself
    run once per distinct ``(text, tokens)`` candidate, never per sample
    or per pair, and the distinct table is gathered back to one row per
    evidence sample and one column per hypothesis. Every cell is a
    function of its pair's keys alone, so the result equals the
    per-sample table bit for bit. For the n-gram gains,
    ``rouge_n_kernel`` and ``sentence_bleu``, ``jobs`` > 1 runs the row
    blocks of the clipped-match join on a thread pool; its sums are exact
    integers, so the result does not depend on ``jobs``. The match and
    external gains ignore ``jobs``.
    ``kind='external'`` returns the instance's precomputed matrix as-is.
    """
    hyps = inst.hypotheses if inst.hypotheses is not None else inst.evidence
    if spec.kind == "external":
        if inst.external_gain is None:
            raise MatrixShapeMismatchError(
                "gain kind 'external' requires the instance to carry an external_gain matrix"
            )
        return np.asarray(inst.external_gain, dtype=np.float64)

    if spec.kind == "answer_match":
        ev_keys, ev_inv = _distinct_answers(inst.evidence, "evidence")
        hyp_keys, hyp_inv = _distinct_answers(hyps, "hypotheses")
    else:
        ev_keys, ev_inv = distinct_tokens(inst.evidence, spec)
        hyp_keys, hyp_inv = distinct_tokens(hyps, spec)
    return _distinct_gains(ev_keys, hyp_keys, spec, jobs).take(ev_inv, axis=0).take(hyp_inv, axis=1)


def pair_gain(y: Candidate, y_prime: Candidate, spec: GainSpec) -> float:
    """Gain G(y, y') of one evidence candidate and one hypothesis.

    The 1x1 case of :func:`gain_matrix`, which holds the only
    implementation of each gain. Sentence BLEU scores ``y_prime`` against
    ``y`` as its single reference, so it is not symmetric. ``external``
    gains exist only as a precomputed matrix and are rejected.
    """
    if spec.kind == "external":
        raise MbrError(f"gain kind {spec.kind!r} has no pairwise scalar form")
    return float(gain_matrix(Instance(id="", evidence=(y,), hypotheses=(y_prime,)), spec)[0, 0])
