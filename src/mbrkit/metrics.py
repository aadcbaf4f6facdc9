"""Tokenization, n-gram counts joined on their postings, and the built-in gains.

Every gain maps an (evidence, hypothesis) candidate pair into [0, 1].
:func:`gain_table` holds the only implementation of each gain, batched
over all pairs of an instance's distinct candidates and made in blocks
of distinct evidence rows; :func:`gain_matrix` is its blocks put
together and gathered to the samples, and :func:`pair_gain` the 1x1
case. The gains
come in three families: ``external`` passes through a matrix the
instance carries; key match is 1 iff two keys are equal, the stripped
answer for ``answer_match`` (self-consistency) or the token sequence
for ``exact_match`` (mode seeking); the n-gram gains are the ROUGE-n
overlap kernel and sentence BLEU. Evidence samples repeat, since
duplicates carry probability mass, so each side of an instance is
interned on one key, the stripped answer for ``answer_match`` and else
the token sequence, found once per distinct candidate of the side's
:class:`~mbrkit.types.Side`; a table is built once per pair of
distinct keys.
The block producer and the two inverses form one :class:`GainTable`,
which also reads its rows in sample order (:meth:`GainTable.samples`),
holding each distinct row only until its last sample. The decoder sums
those blocks to the expected gains over the distinct hypothesis columns
and gathers only the sums back to the hypothesis samples; no layer
holds a line's whole table.
The n-gram overlap kernel is defined in its signed-difference form,

    K(y, y') = 1 - |T(y) - T(y')|_1 / (|T(y)|_1 + |T(y')|_1)

over sparse count vectors T (:func:`rouge_kernel` computes it this way
for one pair); by the L1 identity this equals
2 * sum_g min(T[g], T'[g]) / (|T|_1 + |T'|_1), which the matrix computes
for all pairs at once from the two sides' (gram, row, count) postings.
A gram found in so many rows that its pairs of postings are at least
the cells of a dense column is heavy. The heavy grams are summed by one
float64 product of level columns: min(a, b) is the sum of the steps
between a gram's distinct counts that both a and b reach. The rare,
light grams are joined posting by posting. Every term is an integer, so
both sums are exact. The postings come from numpy alone, one set per
side for every order a gain needs: tokens get integer ids, each n-gram's
id is that of its (n-1)-gram paired with the next token, and each
order's ids run past the previous order's, so one join per table fills
the clipped matches of every order. Sentence BLEU follows the sacrebleu
conventions: clipped precisions, effective order, exponential smoothing
(the k-th zero-match order contributes 1 / (2^k * total_n)), and the
standard brevity penalty; an empty hypothesis scores 0. Each block of
evidence rows gets the clipped matches of every order it needs and is
finished at once as arrays. A BLEU precision is fixed by integers, so
libm's ``log`` runs once per distinct integer key of each order and the
brevity ``exp`` once per pair of distinct lengths; only the final
``exp`` runs once per distinct float.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import MbrError, MissingAnswerError, OrderMismatchError
from .types import Candidate, GainSpec, Instance, Side, require_external_gain

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
        return c.tokens
    return tokenize(c.text, spec)


def distinct_tokens(side: Side, spec: GainSpec) -> tuple[list[tuple[str, ...]], np.ndarray]:
    """The distinct token sequences of a side in order of first occurrence,
    and each sample's index among them: ``seqs[inverse[i]]`` is sample
    ``i``'s. :func:`candidate_tokens` runs once per distinct candidate,
    the first time the side is asked for ``spec``'s sequences, which it
    then keeps; candidates with one sequence (in other casing or spacing,
    or as tokens) share its index."""
    found = side.tokens.get(spec)
    if found is None:
        found = side.tokens[spec] = side.keyed([candidate_tokens(c, spec) for c in side.distinct])
    return found


def _distinct_answers(side: Side, name: str) -> tuple[list[str], np.ndarray]:
    """The distinct stripped answers of one side in order of first occurrence
    and each sample's index among them; MissingAnswerError at the first
    sample without one."""
    answers = [c.answer for c in side.distinct]
    if None in answers:
        raise MissingAnswerError(f"{name}[{side.first(answers.index(None))}] has no extracted answer")
    return side.keyed([a.strip() for a in answers])


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


# The one block budget. An n-gram block of evidence rows expands at most
# this many entries at once, summed over every order: its light posting
# pairs, its dense level factor and its output cells (or one row), and a
# span of the hypothesis level factor. A key-match block, a block of a held
# matrix and a block of samples' rows gathered for the reduction hold at
# most this many cells (or one row): 512 KB. On a 1000x1000 matrix of
# 30-token rows over 20 words, one gain_matrix call peaks at 15.5 MB for
# BLEU-4 and 10.8 MB for ROUGE-1 with jobs=1, and 22.7 and 21.3 MB with
# jobs=8, eight blocks in flight; the 8 MB output is part of each. Decoding
# that line peaks at 12.4 and 3.3 MB.
_PAIR_CHUNK = 1 << 16

_Postings = tuple[np.ndarray, np.ndarray, np.ndarray]


def _ngram_postings(ev_seqs: list, hyp_seqs: list,
                    orders: range) -> tuple[_Postings, _Postings, np.ndarray]:
    """Evidence and hypothesis ``(gram, row, count)`` postings of every
    order in ``orders``, each side row-major, and the bounds of each
    order's gram ids: the k-th order's run over ``bounds[k]:bounds[k + 1]``.

    Tokens get ids in one dict pass over both sides; the id of the n-gram
    at a position is that of its (n-1)-gram paired with the next token,
    made dense by ``np.unique``, so equal grams share an id on both sides.
    Each order in ``orders`` offsets its ids past the previous one's, and
    one ``np.unique`` of the keys ``row * span + id`` of every order counts
    them all at once, in row-major order. When ``hyp_seqs`` is ``ev_seqs``
    the postings are built over that one list and serve as both sides.
    """
    shared = hyp_seqs is ev_seqs
    seqs = ev_seqs if shared else ev_seqs + hyp_seqs
    vocab: dict = {}
    lens = np.fromiter(map(len, seqs), np.int64, len(seqs))
    tokens = np.fromiter((vocab.setdefault(t, len(vocab)) for seq in seqs for t in seq),
                         np.int64, int(lens.sum()))
    row_of = np.repeat(np.arange(len(seqs)), lens)
    end_of = np.repeat(np.cumsum(lens), lens)  # end of the sequence holding each token
    # Each order has at most one distinct gram per token, so every id is below span.
    span = max(1, len(tokens) * len(orders))
    starts, grams, distinct = np.arange(len(tokens)), tokens, len(vocab)
    keys, bounds = [], [0]
    for n in range(1, orders.stop):
        if n > 1:
            keep = starts + n <= end_of[starts]
            starts = starts[keep]
            pairs = grams[keep] * len(vocab) + tokens[starts + n - 1]
            distinct_pairs, grams = np.unique(pairs, return_inverse=True)
            distinct = len(distinct_pairs)
        if n in orders:
            keys.append(row_of[starts] * span + (grams + bounds[-1]))
            bounds.append(bounds[-1] + distinct)
    keys, counts = np.unique(np.concatenate(keys), return_counts=True)
    rows, gram_ids = np.divmod(keys, span)
    bounds = np.array(bounds)
    if shared:
        return (gram_ids, rows, counts), (gram_ids, rows, counts), bounds
    split = np.searchsorted(rows, len(ev_seqs))
    return ((gram_ids[:split], rows[:split], counts[:split]),
            (gram_ids[split:], rows[split:] - len(ev_seqs), counts[split:]), bounds)


def _level_entries(ev: _Postings, hyp: _Postings,
                   bounds: np.ndarray) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Dense level columns of postings whose gram ids run over
    ``range(bounds[-1])``, the orders' id ranges split at ``bounds``.

    min(a, b) = sum_l (v_l - v_(l-1)) [a >= v_l] [b >= v_l], with v_0 = 0
    and v_1 < v_2 < ... the distinct counts of the gram on either side up
    to the smaller side's largest count, which stands for any count above
    it. Each (gram, level) pair is a column, in gram order, so each
    order's columns are contiguous. Returns the ``(row, column)`` entries
    of each side, where the evidence side holds the level step and the
    hypothesis side 1, the step of every column, and the first column of
    each order followed by the number of columns.
    """
    grams = int(bounds[-1])
    top = np.zeros(grams, dtype=np.int64)
    np.maximum.at(top, ev[0], ev[2])
    hyp_top = np.zeros(grams, dtype=np.int64)
    np.maximum.at(hyp_top, hyp[0], hyp[2])
    np.minimum(top, hyp_top, out=top)
    gram, row, count = (np.concatenate(side) for side in zip(ev, hyp))
    # Every order's postings meet here at once, so each array is updated in
    # place and dropped once used: these are a table's largest working set,
    # and their peak showed in a bleu4-distinct run's peak RSS.
    # Level v of gram g has slot base[g] + v - 1, so the slots number at most
    # the tokens of one side; the used slots are the columns, in slot order.
    base = np.concatenate(([0], np.cumsum(top)))
    slot = np.minimum(count, top[gram])
    del count
    slot += base[gram]
    slot -= 1
    present = np.bincount(slot, minlength=int(base[-1])) > 0
    used = np.flatnonzero(present)
    column = np.concatenate(([0], np.cumsum(present)))  # the used slots below each slot
    below = np.concatenate(([-1], used[:-1]))  # the level under each, or one slot under its gram
    steps = used - np.maximum(below, base[np.searchsorted(base[1:], used, side="right")] - 1)
    # A posting sets the columns of its gram's levels up to its own count.
    first = column[base[gram]]
    del gram
    levels = column[slot]
    del slot
    levels -= first
    levels += 1
    first += levels
    first -= np.cumsum(levels)  # each posting's first column less its entries before it
    cols = np.repeat(first, levels)
    del first
    cols += np.arange(len(cols))
    rows = np.repeat(row, levels)
    split = int(levels[:len(ev[0])].sum())
    return (((rows[:split], cols[:split]), (rows[split:], cols[split:])), steps,
            column[base[bounds]])


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """The stable ``argsort`` of non-negative int keys, as one ``np.sort`` of
    ``key * len(keys) + index``: 3-7x faster than a stable ``argsort`` here,
    and unlike the default one it loads no sort code into a process that
    ``np.unique`` has not loaded already (0.25 MB of peak RSS on
    rouge1-dup)."""
    n = max(len(keys), 1)
    return np.sort(keys * n + np.arange(len(keys))) % n


def _clipped_matches(ev: _Postings, hyp: _Postings, height: int, width: int,
                     bounds: np.ndarray):
    """sum_g min(T_i[g], T'_j[g]) of ``height`` x ``width`` pairs of rows at
    every order, as each evidence row's cost and ``fill(first, stop)``, the
    ``(orders, stop - first, width)`` matches of rows ``first:stop``
    against every hypothesis.

    ``ev``, ``hyp`` and ``bounds`` are as :func:`_ngram_postings` returns
    them; one join covers every order. A gram is heavy when the pairs of
    postings it joins, fan_ev * fan_hyp, are at least the ``height +
    width`` cells of a dense column. The heavy grams are added by a
    float64 product of level columns (:func:`_level_entries`), whose
    evidence factor is dense over a block's rows and whose hypothesis
    factor goes, order by order, in spans of ``_PAIR_CHUNK`` entries. The
    light hypothesis postings are put in gram order, each evidence posting
    finds its gram's run of them from the per-gram posting counts, and
    each pair adds the smaller count to its order's cell by one
    ``bincount``. A row costs
    every order's light pairs, level columns and cells. Every term is an
    integer, so the float64 sums are exact in any order.
    """
    orders = len(bounds) - 1
    grams = int(bounds[-1])
    hyp_fan = np.bincount(hyp[0], minlength=grams)
    heavy = np.bincount(ev[0], minlength=grams) * hyp_fan >= height + width
    ev_heavy, hyp_heavy = heavy[ev[0]], heavy[hyp[0]]
    ((level_row, level_col), level_hyp), steps, order_cols = _level_entries(
        tuple(a[ev_heavy] for a in ev), tuple(a[hyp_heavy] for a in hyp), bounds)
    level_start = np.searchsorted(level_row, np.arange(height + 1))

    ev_gram, ev_row, ev_count = (a[~ev_heavy] for a in ev)
    ev_order = np.searchsorted(bounds, ev_gram, side="right") - 1
    hyp_light = tuple(a[~hyp_heavy] for a in hyp)
    by_gram = _stable_order(hyp_light[0])
    hyp_row, hyp_count = hyp_light[1][by_gram], hyp_light[2][by_gram]
    hyp_fan[heavy] = 0  # each light gram's run of hypothesis postings, in gram order
    fan = hyp_fan[ev_gram]
    run_start = np.cumsum(hyp_fan)[ev_gram] - fan
    pairs_before = np.concatenate(([0], np.cumsum(fan)))
    shift = run_start - pairs_before[:-1]  # pair p of posting e joins hyp posting p + shift[e]
    row_start = np.searchsorted(ev_row, np.arange(height + 1))
    cost = np.diff(pairs_before[row_start]) + len(steps) + orders * width

    # Spans of at most ``span`` level columns within one order's columns;
    # together they cover every column in order.
    span = max(1, _PAIR_CHUNK // max(width, 1))
    order_cols = order_cols.tolist()
    spans = [(n, col, min(span, end - col))
             for n, (start, end) in enumerate(zip(order_cols, order_cols[1:]))
             for col in range(start, end, span)]
    by_col = _stable_order(level_hyp[1])
    level_cell = (level_hyp[1] * width + level_hyp[0])[by_col]
    span_start = np.searchsorted(level_hyp[1][by_col], [col for _, col, _ in spans] + [len(steps)])

    def fill(first: int, stop: int) -> np.ndarray:
        rows = stop - first
        lo, hi = row_start[first], row_start[stop]
        hyp_at = np.arange(pairs_before[lo], pairs_before[hi]) + np.repeat(shift[lo:hi], fan[lo:hi])
        cells = (np.repeat((ev_order[lo:hi] * rows + ev_row[lo:hi] - first) * width, fan[lo:hi])
                 + hyp_row[hyp_at])
        matches = np.minimum(np.repeat(ev_count[lo:hi], fan[lo:hi]), hyp_count[hyp_at])
        block = np.bincount(cells, matches, orders * rows * width).reshape(orders, rows, width)
        block = block.astype(np.float64, copy=False)  # int64 when there are no pairs
        lo, hi = level_start[first], level_start[stop]
        if lo == hi:
            return block
        a = np.zeros((rows, len(steps)))
        a[level_row[lo:hi] - first, level_col[lo:hi]] = steps[level_col[lo:hi]]
        for k, (n, col, cols) in enumerate(spans):
            b = np.zeros(cols * width)
            b[level_cell[span_start[k]:span_start[k + 1]] - col * width] = 1.0
            block[n] += np.matmul(a[:, col:col + cols], b.reshape(cols, width))
        return block

    return cost, fill


def _libm_per_distinct(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` (a ``math`` function) of every element, called once per distinct value."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([fn(v) for v in distinct.tolist()])[inverse].reshape(values.shape)




def _log_precision(signed: int, total: int) -> float:
    """libm's ``log`` of one BLEU precision, from integers alone: ``signed``
    matches out of ``total`` when positive, and else the smoothed
    1 / (2^-signed * total). A ``total`` of 0 (an order the hypothesis is
    too short for) is precision 1 and log 0.0; a smoothing that overflows
    is precision 0.0 and log -inf. The floats are those of the array
    formula: ``m / t`` and ``1.0 / (2.0**k * t)`` are correctly rounded
    and 2^k * t is exact until it overflows."""
    if total <= 0:
        return 0.0
    if signed > 0:
        return math.log(signed / total)
    try:
        precision = 1.0 / math.ldexp(float(total), -signed)
    except OverflowError:
        return -math.inf
    return math.log(precision) if precision else -math.inf


def _rouge_finish(ev_lens: np.ndarray, hyp_lens: np.ndarray, matches: np.ndarray,
                  n: int) -> np.ndarray:
    """ROUGE-n kernel of every pair of rows from the lengths and the clipped
    matches of order n, the last of ``matches``: 1 - (denom - 2 * matches) /
    denom in place, exact integers until the division; a zero denom (two
    empty sides, so no matches) becomes 1, which gives 1 - 0 / 1 == 1.0."""
    gains = matches[-1]
    denom = np.add.outer(np.maximum(ev_lens - n + 1.0, 0.0), np.maximum(hyp_lens - n + 1.0, 0.0))
    gains *= -2.0
    gains += denom
    gains /= np.maximum(denom, 1.0, out=denom)
    return np.subtract(1.0, gains, out=gains)


def _bleu_finish(ref_lens: np.ndarray, hyp_lens: np.ndarray, correct: np.ndarray,
                 max_order: int) -> np.ndarray:
    """Sentence BLEU of every (reference, hypothesis) pair of rows from the
    lengths and the ``(orders, rows, width)`` clipped matches of orders
    1..``len(correct)``, each at most both sides' totals at its order.

    Each precision is fixed by integers: the total ``t = hyp_len - n + 1``
    and either the matches ``m`` (``m / t``) or, at the k-th zero-match
    order, the smoothing step ``k`` (``1 / (2^k * t)``). At order n a
    cell's key is ``m`` or ``-k`` offset into its hypothesis length's
    ``cap + n + 1`` keys, ``cap`` the smaller of ``t`` and the block's
    longest reference total, so the keys are linear in the hypothesis
    tokens and the block's cells. The keys that occur are found by
    ``bincount``, libm's ``log`` runs once per key
    (:func:`_log_precision`), and the logs are gathered back and add in
    order of n; their sum divides by the effective order min(hyp_len,
    max_order). The brevity penalty, libm's ``exp`` once per pair of
    distinct reference and hypothesis lengths, multiplies every cell
    (exp(0.0) == 1.0 when hyp_len >= ref_len). Only the final ``exp``
    runs once per distinct float (:func:`_libm_per_distinct`). Every
    value is the one the scalar formula computes with the same IEEE
    operations and libm, whose results numpy's vectorized ``log`` and
    ``exp`` do not always reproduce. An order the hypothesis is too short
    for adds log 1 == 0.0, so ``correct`` may stop at the longest
    hypothesis. Past about a thousand zero-match orders the smoothing
    overflows, the precision is 0.0 and its log -inf, and the cell scores
    exp(-inf) == 0.0; an empty hypothesis scores 0.
    """
    lengths, column = np.unique(hyp_lens, return_inverse=True)
    n = np.arange(1, len(correct) + 1)[:, None]
    totals = np.maximum(lengths - n + 1, 0)  # (orders, distinct lengths)
    # Matches are at most the longest reference's total too, so a block of
    # short references has few keys even against a long hypothesis.
    caps = np.minimum(totals, np.maximum(ref_lens.max() - n + 1, 0))
    ends = np.cumsum(caps + n + 1, axis=1)
    origin = ends - caps - 1  # the slot of 0
    zero_orders = np.zeros(correct.shape[1:], dtype=np.int64)
    log_sum = np.zeros(correct.shape[1:])  # 0.0 + x == x: no log here is -0.0
    for i, matches in enumerate(correct):
        matches = matches.astype(np.int64)
        zero = matches == 0
        zero_orders += zero
        keys = origin[i, column] + np.where(zero, -zero_orders, matches)
        logs = np.zeros(keys.size and int(ends[i, -1]))  # no slot without a hypothesis
        used = np.flatnonzero(np.bincount(keys.ravel(), minlength=len(logs)))
        length = np.searchsorted(ends[i], used, side="right")
        logs[used] = [_log_precision(s, t) for s, t in zip((used - origin[i, length]).tolist(),
                                                           totals[i, length].tolist())]
        log_sum += logs[keys]
    hyp_f = hyp_lens.astype(np.float64)
    log_sum /= np.minimum(np.maximum(hyp_f, 1.0), max_order)  # the effective order
    score = _libm_per_distinct(math.exp, log_sum)
    ref_lengths, row = np.unique(ref_lens, return_inverse=True)
    brevity = np.array([math.exp(1.0 - r / max(h, 1.0)) if h < r else 1.0
                        for r in ref_lengths.tolist() for h in lengths.tolist()])
    score *= brevity.reshape(len(ref_lengths), len(lengths))[row[:, None], column]
    score[:, hyp_lens == 0] = 0.0
    return score


def _ngram_gains(ev_keys: list, hyp_keys: list, spec: GainSpec) -> tuple[int, Callable]:
    """ROUGE or BLEU gains of every pair of distinct token sequences, as
    the rows per block and ``rows(first, stop)``, which fills the clipped
    matches of every order for evidence rows ``first:stop`` and finishes
    them; when ``hyp_keys`` is ``ev_keys``, each sequence is counted once.

    One set of postings and one join cover every order (ROUGE's order n
    only). A block is ``_PAIR_CHUNK // (largest row cost)`` evidence rows,
    or one row. No sequence has a gram of an order past the longest
    sequence on either side, so no order past one more than it is built.
    ROUGE's n is clamped to ``longest + 1``: there, as at any larger n,
    every count vector is empty and every pair gains 1.0. BLEU's orders
    stop at the longest, since each order past it adds log 1 == 0.0 to
    every cell.
    """
    shared = hyp_keys is ev_keys
    height, width = len(ev_keys), len(hyp_keys)
    ev_lens = np.fromiter(map(len, ev_keys), np.int64, height)
    hyp_lens = ev_lens if shared else np.fromiter(map(len, hyp_keys), np.int64, width)
    longest = int(max(ev_lens.max(initial=0), hyp_lens.max(initial=0)))
    rouge = spec.kind == "rouge_n_kernel"
    top = min(spec.n, longest + 1) if rouge else spec.max_order
    orders = range(top, top + 1) if rouge else range(1, max(1, min(top, longest)) + 1)
    finish = _rouge_finish if rouge else _bleu_finish
    ev, hyp, bounds = _ngram_postings(ev_keys, hyp_keys, orders)
    cost, fill = _clipped_matches(ev, hyp, height, width, bounds)
    return (max(1, _PAIR_CHUNK // int(cost.max(initial=1))),
            lambda first, stop: finish(ev_lens[first:stop], hyp_lens,
                                       fill(first, min(stop, height)), top))


class GainTable(NamedTuple):
    """The gains of one instance over its distinct keys, made in blocks of
    distinct evidence rows and never held whole.

    ``rows(first, stop)`` makes the finished gains of distinct evidence
    rows ``first:stop`` (``stop`` may pass the last row) against every
    distinct hypothesis column, and :meth:`blocks` calls it ``step`` rows
    at a time, in order; ``shape`` is the (rows, columns) of the table
    they make up. G(evidence_i, hypothesis_j) is its cell ``(ev_inv[i],
    hyp_inv[j])``. Rows and columns are each side's distinct keys in order
    of first occurrence, so a side without a repeated key has the identity
    inverse and its rows (or columns) are already in sample order; an
    external matrix is the per-sample matrix itself, with identity
    inverses. :meth:`samples` reads the rows in sample order. The token
    sequences a table keys on stay on the instance's Sides
    (:func:`distinct_tokens`).
    """

    shape: tuple[int, int]
    step: int
    rows: Callable[[int, int], np.ndarray]
    ev_inv: np.ndarray
    hyp_inv: np.ndarray

    @classmethod
    def of(cls, matrix: np.ndarray, *inverses: np.ndarray) -> GainTable:
        """The table of a matrix already held, in views of ``_PAIR_CHUNK``
        cells of its rows; a matrix that is not C-contiguous is one block,
        which numpy sums pairwise, not row by row. ``inverses`` are the
        evidence and hypothesis inverses, the identities when not given."""
        height, width = matrix.shape
        step = _PAIR_CHUNK // max(width, 1) if matrix.flags.c_contiguous else height
        return cls(matrix.shape, max(1, step), lambda first, stop: matrix[first:stop],
                   *(inverses or (np.arange(height), np.arange(width))))

    def blocks(self) -> Iterator[np.ndarray]:
        """The table's blocks of rows, in order."""
        height, step = self.shape[0], self.step
        return map(self.rows, range(0, height, step), range(step, height + step, step))

    def samples(self) -> Iterable[np.ndarray]:
        """The evidence samples' rows against the distinct hypothesis
        columns, in blocks in sample order.

        When no evidence sample repeats another, these are the table's
        blocks. Otherwise they are gathered in blocks of ``_PAIR_CHUNK``
        cells (of two columns at least), and a line within one such block
        is one take of the whole table; a longer line's rows are held only
        while it needs them (:meth:`_held_rows`).
        """
        (height, width), ev_inv = self.shape, self.ev_inv
        if len(ev_inv) == height:
            return self.blocks()
        step = max(1, _PAIR_CHUNK // max(width, 2))
        if len(ev_inv) > step:
            return self._held_rows(step)
        rows = self.rows(0, height) if self.step >= height else np.concatenate(list(self.blocks()))
        return (rows.take(ev_inv, axis=0),)

    def _held_rows(self, step: int) -> Iterator[np.ndarray]:
        """Blocks of ``step`` samples' rows, each gathered from the rows
        made so far. Rows come in order of first occurrence, so a block
        needs only the rows below its largest id: rows are made as they are
        needed, held until their last sample, and then dropped, their slots
        taken by rows made later. Block k of samples holds at most the rows
        first read by its end, less those last read before it, plus one
        block of rows made ahead; the buffer is the most of these, found
        before any row is made. So it is a block or two when few rows
        recur, and the table only when every row recurs at the end.
        """
        (height, width), ev_inv, blocks = self.shape, self.ev_inv, self.blocks()
        samples = len(ev_inv)
        last = np.zeros(height, dtype=np.intp)  # each row's last sample
        np.maximum.at(last, ev_inv, np.arange(samples))
        done = last // step  # the block of samples after which each row is dropped
        bounds = np.concatenate(([0], np.cumsum(np.bincount(done))))
        ends = np.minimum(np.arange(step, samples + step, step), samples) - 1
        read = np.maximum.accumulate(ev_inv)[ends] + 1  # rows first read by each block's end
        held = np.empty((min(height, int((read - bounds[:-1]).max()) + self.step), width))
        free, slot, made = np.arange(len(held)), np.zeros(height, dtype=np.intp), 0
        by_done = _stable_order(done)  # the rows in the order they are dropped
        for k, first in enumerate(range(0, samples, step)):
            ids = ev_inv[first:first + step]
            while made <= ids.max():
                block = next(blocks)
                kept = len(free) - len(block)
                slot[made:made + len(block)], free = free[kept:], free[:kept]
                held[slot[made:made + len(block)]] = block
                made += len(block)
            yield held.take(slot[ids], axis=0)
            free = np.concatenate((free, slot[by_done[bounds[k]:bounds[k + 1]]]))

    def matrix(self, jobs: int = 1) -> np.ndarray:
        """The per-sample gain matrix in C order: the blocks put together,
        with ``jobs`` > 1 made on one thread pool, then its columns
        gathered, then its rows, so the row take copies whole rows."""
        table = np.empty(self.shape)

        def put(first: int) -> None:
            table[first:first + self.step] = self.rows(first, first + self.step)

        starts = range(0, self.shape[0], self.step)
        if jobs < 2 or len(starts) < 2:
            list(map(put, starts))
        else:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=min(jobs, len(starts))) as pool:
                list(pool.map(put, starts))
        if len(self.hyp_inv) != table.shape[1]:
            table = table.take(self.hyp_inv, axis=1)
        return table if len(self.ev_inv) == len(table) else table.take(self.ev_inv, axis=0)


def gain_table(inst: Instance, spec: GainSpec) -> GainTable:
    """The instance's gains over its distinct keys, each side interned once.

    ``external`` is the C-ordered float64 array that
    :func:`~mbrkit.types.require_external_gain` checks and returns, as it
    does for validation, with identity inverses (:meth:`GainTable.of`).
    Every other gain keys each side's Side
    (:meth:`~mbrkit.types.Instance.sides`) in one step, on the stripped
    answer for ``answer_match`` and on the token sequence of
    :func:`distinct_tokens` otherwise, each found once per distinct
    candidate. Key match makes each block as rows of the
    identity when the sides are shared, and else by one ``np.equal.outer``
    of the row ids against each column's row. (A shared line, such as a
    vote, thus runs no integer comparison and cast, whose numpy code
    raised a vote-batch run's peak RSS by 0.6 MB.) The n-gram gains,
    ``rouge_n_kernel`` and ``sentence_bleu``, run once per pair of
    distinct sequences; the postings of both sides come from one
    :func:`_ngram_postings` call and one join covers every order, here,
    and each block is then filled and finished when it is made. Every
    cell is a function of its pair's keys alone and the join's sums are
    exact integers, so the blocks make the per-sample table bit for bit,
    however they are cut and whichever thread makes them. When the
    hypotheses are the evidence (absent, or the same tuple, as
    :func:`mbrkit.types.validate_instance` leaves them), one Side, its
    keys and postings serve both.
    """
    if spec.kind == "external":
        return GainTable.of(require_external_gain(inst, spec))

    ev_side, hyp_side = inst.sides()
    shared = hyp_side is ev_side
    if spec.kind == "answer_match":
        ev_keys, ev_inv = _distinct_answers(ev_side, "evidence")
        hyp_keys, hyp_inv = (ev_keys, ev_inv) if shared else _distinct_answers(hyp_side, "hypotheses")
    else:
        (ev_keys, ev_inv), (hyp_keys, hyp_inv) = (distinct_tokens(ev_side, spec),
                                                  distinct_tokens(hyp_side, spec))
    if spec.kind not in ("exact_match", "answer_match"):
        step, rows = _ngram_gains(ev_keys, hyp_keys, spec)
    else:
        height, width = len(ev_keys), len(hyp_keys)
        step = max(1, _PAIR_CHUNK // max(width, 1))
        if not shared:
            row_of = {k: i for i, k in enumerate(ev_keys)}
            cols = np.array([row_of.get(k, -1) for k in hyp_keys])

        def rows(first: int, stop: int) -> np.ndarray:
            stop = min(stop, height)
            if shared:  # the identity's rows
                return np.eye(stop - first, width, first)
            return np.equal.outer(np.arange(first, stop), cols).astype(np.float64)

    return GainTable((len(ev_keys), len(hyp_keys)), step, rows, ev_inv, hyp_inv)


def gain_matrix(inst: Instance, spec: GainSpec, jobs: int = 1) -> np.ndarray:
    """Pairwise gain matrix: entry (i, j) = G(evidence_i, hypothesis_j).

    The blocks of :func:`gain_table`, which holds the only implementation
    of each gain, put together and gathered to the samples, C-ordered;
    ``jobs`` > 1 makes the blocks on that many threads. It costs 8 bytes
    per pair of samples, so :func:`mbrkit.decoder.decode` reduces the
    table's blocks one at a time instead.
    """
    return gain_table(inst, spec).matrix(jobs)


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
