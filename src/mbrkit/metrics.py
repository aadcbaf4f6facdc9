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
postings on the gram. The postings of every order come from numpy alone:
tokens get integer ids, and each n-gram's id is that of its (n-1)-gram
paired with the next token. Sentence BLEU follows the sacrebleu
conventions: clipped precisions, effective order, exponential smoothing
(the k-th zero-match order contributes 1 / (2^k * total_n)), and the
standard brevity penalty; an empty hypothesis scores 0. Its clipped
matches of every order are the same min-sum, finished as arrays over
blocks of rows with libm's ``log`` and ``exp`` from :mod:`math`.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Iterator
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
    """Count maps of orders 1..``max_order`` of one sequence, as :func:`ngram_counts`.

    The gain matrix builds its postings with :func:`_ngram_postings`
    instead; ``bench/tracing.py`` times its n-gram preparation with this.
    """
    return [ngram_counts(tokens, n).counts for n in range(1, max_order + 1)]


# ---------------------------------------------------------------------------
# Batched gain matrix
# ---------------------------------------------------------------------------


# Posting pairs plus output cells that one block of evidence rows expands at
# once: 2^16 adds under 10 MB of peak memory at jobs=8 on a 1000x1000 matrix.
# BLEU's finish takes blocks of at most this many cells, or one row.
_PAIR_CHUNK = 1 << 16

_Postings = tuple[np.ndarray, np.ndarray, np.ndarray]


def _ngram_postings(ev_seqs: list, hyp_seqs: list,
                    max_order: int) -> Iterator[tuple[_Postings, _Postings]]:
    """Evidence and hypothesis ``(gram, row, count)`` postings of each
    order 1..``max_order`` in turn, each side in row order.

    Tokens get ids in one dict pass over both sides; the id of the n-gram
    at a position is that of its (n-1)-gram paired with the next token,
    made dense by ``np.unique``, so equal grams share an id on both sides.
    """
    seqs = ev_seqs + hyp_seqs
    vocab: dict = {}
    lens = np.fromiter(map(len, seqs), np.int64, len(seqs))
    tokens = np.fromiter((vocab.setdefault(t, len(vocab)) for seq in seqs for t in seq),
                         np.int64, int(lens.sum()))
    row_of = np.repeat(np.arange(len(seqs)), lens)
    end_of = np.repeat(np.cumsum(lens), lens)  # end of the sequence holding each token
    starts, grams, distinct = np.arange(len(tokens)), tokens, len(vocab)
    for n in range(1, max_order + 1):
        if n > 1:
            keep = starts + n <= end_of[starts]
            starts = starts[keep]
            pairs = grams[keep] * len(vocab) + tokens[starts + n - 1]
            distinct_pairs, grams = np.unique(pairs, return_inverse=True)
            distinct = len(distinct_pairs)
        keys, counts = np.unique(row_of[starts] * distinct + grams, return_counts=True)
        rows, gram_ids = np.divmod(keys, max(distinct, 1))
        split = np.searchsorted(rows, len(ev_seqs))
        yield ((gram_ids[:split], rows[:split], counts[:split]),
               (gram_ids[split:], rows[split:] - len(ev_seqs), counts[split:]))


def _clipped_matches(ev: _Postings, hyp: _Postings, height: int, width: int,
                     jobs: int) -> np.ndarray:
    """sum_g min(T_i[g], T'_j[g]) for all ``height`` x ``width`` pairs of rows.

    ``ev`` and ``hyp`` are ``(gram, row, count)`` postings in row order, as
    :func:`_ngram_postings` builds them. Each evidence posting finds its
    gram's run of hypothesis postings by ``searchsorted``; each pair adds
    the smaller count to its cell by ``bincount``. A block of evidence
    rows (at most ``_PAIR_CHUNK`` pairs plus cells, or one row) fills only
    its own rows, so with ``jobs`` > 1 blocks run on a thread pool.
    Integer sums in float64 are exact.
    """
    ev_gram, ev_row, ev_count = ev
    by_gram = np.argsort(hyp[0], kind="stable")
    hyp_gram, hyp_row, hyp_count = (a[by_gram] for a in hyp)
    run_start = np.searchsorted(hyp_gram, ev_gram, side="left")
    fan = np.searchsorted(hyp_gram, ev_gram, side="right") - run_start
    pairs_before = np.concatenate(([0], np.cumsum(fan)))
    shift = run_start - pairs_before[:-1]  # pair p of posting e joins hyp posting p + shift[e]
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


def _libm_per_distinct(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` (a ``math`` function) of every element, called once per distinct value."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([fn(v) for v in distinct.tolist()])[inverse].reshape(values.shape)


def _bleu_finish(ref_lens: np.ndarray, hyp_lens: np.ndarray, correct: list[np.ndarray],
                 max_order: int) -> np.ndarray:
    """Sentence BLEU of every (reference, hypothesis) pair of rows from the
    lengths and the clipped matches of each order.

    Array arithmetic over blocks of reference rows, in the scalar order of
    operations: each precision is ``matches / total``, or
    ``1 / (smooth * total)`` with ``smooth`` doubled at each zero-match
    order; the logs add in order of n and divide by the effective order
    min(hyp_len, max_order); the brevity penalty multiplies when
    hyp_len < ref_len. ``log`` and ``exp`` are libm's (``math``), whose
    results numpy's vectorized versions do not always reproduce. An
    order the hypothesis is too short for has precision 1, log 0.0, and
    adds nothing; an empty hypothesis scores 0.
    """
    height, width = len(ref_lens), len(hyp_lens)
    hyp_f = hyp_lens.astype(np.float64)
    orders = np.arange(1, max_order + 1)[:, None]
    totals = hyp_f - orders + 1.0  # (max_order, width)
    supported = totals > 0.0
    safe_totals = np.where(supported, totals, 1.0)
    effective = np.minimum(np.maximum(hyp_f, 1.0), max_order)
    out = np.empty((height, width), dtype=np.float64)
    step = max(1, _PAIR_CHUNK // max(width, 1))
    for first in range(0, height, step):
        stop = min(first + step, height)
        smooth = np.ones((stop - first, width))
        for n in range(max_order):
            matches = correct[n][first:stop]
            zero = matches == 0.0
            np.multiply(smooth, 2.0, out=smooth, where=zero)
            precision = matches / safe_totals[n]
            np.divide(1.0, smooth * safe_totals[n], out=precision, where=zero)
            precision[:, ~supported[n]] = 1.0
            logs = _libm_per_distinct(math.log, precision)
            if n == 0:
                log_sum = logs
            else:
                log_sum += logs
        log_sum /= effective
        score = np.fromiter(map(math.exp, log_sum.ravel().tolist()), np.float64, log_sum.size)
        score = score.reshape(log_sum.shape)
        ref_f = ref_lens[first:stop, None].astype(np.float64)
        brevity = np.where(hyp_f < ref_f, 1.0 - ref_f / np.maximum(hyp_f, 1.0), 0.0)
        score *= _libm_per_distinct(math.exp, brevity)  # exp(0.0) == 1.0 leaves a cell as is
        score[:, hyp_lens == 0] = 0.0
        out[first:stop] = score
    return out


def _distinct_gains(ev_keys: list, hyp_keys: list, spec: GainSpec, jobs: int) -> np.ndarray:
    """Gains of every pair of distinct keys: token sequences, or stripped
    answers for ``answer_match``."""
    if spec.kind in ("exact_match", "answer_match"):
        ids: dict = {}
        ev_ids = np.array([ids.setdefault(k, len(ids)) for k in ev_keys])
        hyp_ids = np.array([ids.setdefault(k, len(ids)) for k in hyp_keys])
        return np.equal.outer(ev_ids, hyp_ids).astype(np.float64)

    if spec.kind not in ("rouge_n_kernel", "sentence_bleu"):
        raise MbrError(f"unsupported gain kind {spec.kind!r}")
    height, width = len(ev_keys), len(hyp_keys)
    ev_lens = np.fromiter(map(len, ev_keys), np.int64, height)
    hyp_lens = np.fromiter(map(len, hyp_keys), np.int64, width)
    order = spec.n if spec.kind == "rouge_n_kernel" else spec.max_order
    postings = _ngram_postings(ev_keys, hyp_keys, order)

    if spec.kind == "rouge_n_kernel":
        # 1 - (denom - 2 * inter) / denom in place: every value is an exact
        # integer until the division, and a zero denom (two empty sides, so
        # no matches) becomes 1, which gives 1 - 0 / 1 == 1.0.
        ev, hyp = list(postings)[-1]
        gains = _clipped_matches(ev, hyp, height, width, jobs)
        denom = np.add.outer(np.maximum(ev_lens - order + 1.0, 0.0),
                             np.maximum(hyp_lens - order + 1.0, 0.0))
        gains *= -2.0
        gains += denom
        gains /= np.maximum(denom, 1.0, out=denom)
        return np.subtract(1.0, gains, out=gains)

    correct = [_clipped_matches(ev, hyp, height, width, jobs) for ev, hyp in postings]
    return _bleu_finish(ev_lens, hyp_lens, correct, order)


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
    ``rouge_n_kernel`` and ``sentence_bleu``, the postings of both sides
    are built in one call of :func:`_ngram_postings`, and ``jobs`` > 1
    runs the row blocks of the clipped-match join on a thread pool; its
    sums are exact integers, so the result does not depend on ``jobs``.
    BLEU's finish is array arithmetic with libm's ``log`` and ``exp``,
    bit for bit the scalar formula. The match and external gains ignore
    ``jobs``.
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
    table = _distinct_gains(ev_keys, hyp_keys, spec, jobs)
    # A side without duplicates is already in sample order. Columns go
    # first: the row take then copies whole rows.
    if len(hyp_keys) < len(hyp_inv):
        table = table.take(hyp_inv, axis=1)
    if len(ev_keys) < len(ev_inv):
        table = table.take(ev_inv, axis=0)
    return table


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
