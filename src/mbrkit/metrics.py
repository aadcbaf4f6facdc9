"""Tokenization, n-gram counts joined on their postings, and the built-in gains.

Every gain maps an (evidence, hypothesis) candidate pair into [0, 1].
:func:`gain_matrix` holds the only implementation of each gain, batched
over all pairs of an instance; :func:`pair_gain` is its 1x1 case. The
gains come in three families: ``external`` passes through a matrix the
instance carries; key match is 1 iff two keys are equal, the stripped
answer for ``answer_match`` (self-consistency) or the token sequence
for ``exact_match`` (mode seeking); the n-gram gains are the ROUGE-n
overlap kernel and sentence BLEU. Evidence samples repeat, since
duplicates carry probability mass, so every candidate is tokenized once
per distinct ``(text, tokens)`` pair and an n-gram table is built once
per distinct pair of candidates, then gathered back per sample.
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
both sums are exact. The postings of every order come from numpy alone:
tokens get integer ids, and each n-gram's id is that of its (n-1)-gram
paired with the next token. Sentence BLEU follows the sacrebleu
conventions: clipped precisions, effective order, exponential smoothing
(the k-th zero-match order contributes 1 / (2^k * total_n)), and the
standard brevity penalty; an empty hypothesis scores 0. Each block of
evidence rows gets the clipped matches of every order it needs and is
finished at once as arrays, BLEU with libm's ``log`` and ``exp``.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import MbrError, MissingAnswerError, OrderMismatchError
from .types import Candidate, GainSpec, Instance, require_external_gain

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


def distinct_tokens(cands, spec: GainSpec) -> tuple[list[tuple[str, ...]], np.ndarray]:
    """Token sequences of the distinct candidates and each candidate's
    index among them.

    Candidates are interned on their raw ``(text, tokens)`` pair, which
    determines the token sequence, so :func:`candidate_tokens` runs once
    per distinct pair; ``seqs[inverse[i]]`` is candidate ``i``'s sequence.
    """
    ids: dict = {}
    seqs: list[tuple[str, ...]] = []
    inverse: list[int] = []
    for c in cands:
        # An unvalidated candidate may carry its tokens as a list.
        j = ids.setdefault((c.text, c.tokens if c.tokens is None else tuple(c.tokens)), len(ids))
        if j == len(seqs):
            seqs.append(candidate_tokens(c, spec))
        inverse.append(j)
    return seqs, np.array(inverse, dtype=np.intp)


def _key_ids(cands, spec: GainSpec, side: str, ids: dict) -> np.ndarray:
    """Each candidate's key as its id in ``ids``, which gives new keys the
    next id: the stripped answer for ``answer_match`` (MissingAnswerError at
    the first without one), else the token sequence of :func:`distinct_tokens`."""
    if spec.kind == "answer_match":
        answers = [c.answer for c in cands]
        if None in answers:
            raise MissingAnswerError(f"{side}[{answers.index(None)}] has no extracted answer")
        return np.array([ids.setdefault(a.strip(), len(ids)) for a in answers])
    seqs, inverse = distinct_tokens(cands, spec)
    return np.array([ids.setdefault(s, len(ids)) for s in seqs])[inverse]


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


# Entries that one block of evidence rows expands at once, for each order:
# its light posting pairs, its dense level factor and its output cells (or
# one row), and a span of the hypothesis level factor. On a 1000x1000 matrix
# of 30-token rows over 20 words, one call peaks at 21.7 MB for BLEU-4 and
# 14.5 MB for ROUGE-1 with jobs=1, and 44.8 and 23.5 MB with jobs=8, eight
# blocks in flight; the 8 MB output is part of each.
_PAIR_CHUNK = 1 << 16

_Postings = tuple[np.ndarray, np.ndarray, np.ndarray]


def _ngram_postings(ev_seqs: list, hyp_seqs: list,
                    max_order: int) -> Iterator[tuple[_Postings, _Postings]]:
    """Evidence and hypothesis ``(gram, row, count)`` postings of each
    order 1..``max_order`` in turn, each side in row order.

    Tokens get ids in one dict pass over both sides; the id of the n-gram
    at a position is that of its (n-1)-gram paired with the next token,
    made dense by ``np.unique``, so equal grams share an id on both sides.
    When ``hyp_seqs`` is ``ev_seqs`` the postings are built over that one
    list and serve as both sides.
    """
    shared = hyp_seqs is ev_seqs
    seqs = ev_seqs if shared else ev_seqs + hyp_seqs
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
        if shared:
            yield (gram_ids, rows, counts), (gram_ids, rows, counts)
            continue
        split = np.searchsorted(rows, len(ev_seqs))
        yield ((gram_ids[:split], rows[:split], counts[:split]),
               (gram_ids[split:], rows[split:] - len(ev_seqs), counts[split:]))


def _level_entries(ev: _Postings, hyp: _Postings, grams: int) -> tuple[tuple, np.ndarray]:
    """Dense level columns of postings whose gram ids run over ``range(grams)``.

    min(a, b) = sum_l (v_l - v_(l-1)) [a >= v_l] [b >= v_l], with v_0 = 0
    and v_1 < v_2 < ... the distinct counts of the gram on either side up
    to the smaller side's largest count, which stands for any count above
    it. Each (gram, level) pair is a column. Returns the ``(row, column)``
    entries of each side, where the evidence side holds the level step and
    the hypothesis side 1, and the step of every column.
    """
    top = np.zeros(grams, dtype=np.int64)
    np.maximum.at(top, ev[0], ev[2])
    hyp_top = np.zeros(grams, dtype=np.int64)
    np.maximum.at(hyp_top, hyp[0], hyp[2])
    np.minimum(top, hyp_top, out=top)
    gram, row, count = (np.concatenate(side) for side in zip(ev, hyp))
    # Level v of gram g has slot base[g] + v - 1, so the slots number at most
    # the tokens of one side; the used slots are the columns, in slot order.
    base = np.concatenate(([0], np.cumsum(top)))
    slot = base[gram] + np.minimum(count, top[gram]) - 1
    used = np.flatnonzero(np.bincount(slot, minlength=int(base[-1])))
    below = np.concatenate(([-1], used[:-1]))  # the level under each, or one slot under its gram
    steps = used - np.maximum(below, base[np.searchsorted(base[1:], used, side="right")] - 1)
    # A posting sets the columns of its gram's levels up to its own count.
    first = np.searchsorted(used, base[gram])
    levels = np.searchsorted(used, slot) - first + 1
    cols = np.repeat(first - np.cumsum(levels) + levels, levels) + np.arange(int(levels.sum()))
    rows = np.repeat(row, levels)
    split = int(levels[:len(ev[0])].sum())
    return ((rows[:split], cols[:split]), (rows[split:], cols[split:])), steps


def _clipped_matches(ev: _Postings, hyp: _Postings, height: int, width: int):
    """sum_g min(T_i[g], T'_j[g]) of ``height`` x ``width`` pairs of rows, as
    each evidence row's cost and ``fill(first, stop)``, the matches of rows
    ``first:stop`` against every hypothesis.

    ``ev`` and ``hyp`` are ``(gram, row, count)`` postings in row order, as
    :func:`_ngram_postings` builds them. A gram is heavy when the pairs of
    postings it joins, fan_ev * fan_hyp, are at least the ``height +
    width`` cells of a dense column. The heavy grams are added by a float64
    product of level columns (:func:`_level_entries`), whose evidence
    factor is dense over a block's rows and whose hypothesis factor goes in
    spans of ``_PAIR_CHUNK`` entries. For each light gram, each evidence
    posting finds its gram's run of hypothesis postings by ``searchsorted``,
    and each pair adds the smaller count to its cell by ``bincount``. A row
    costs its light pairs, the level columns and its cells. Every term is
    an integer, so the float64 sums are exact in any order.
    """
    grams = 1 + int(max(ev[0].max(initial=-1), hyp[0].max(initial=-1)))
    heavy = (np.bincount(ev[0], minlength=grams) * np.bincount(hyp[0], minlength=grams)
             >= height + width)
    ev_heavy, hyp_heavy = heavy[ev[0]], heavy[hyp[0]]
    ((level_row, level_col), level_hyp), steps = _level_entries(
        tuple(a[ev_heavy] for a in ev), tuple(a[hyp_heavy] for a in hyp), grams)
    level_start = np.searchsorted(level_row, np.arange(height + 1))

    ev_gram, ev_row, ev_count = (a[~ev_heavy] for a in ev)
    hyp_light = tuple(a[~hyp_heavy] for a in hyp)
    by_gram = np.argsort(hyp_light[0], kind="stable")
    hyp_gram, hyp_row, hyp_count = (a[by_gram] for a in hyp_light)
    run_start = np.searchsorted(hyp_gram, ev_gram, side="left")
    fan = np.searchsorted(hyp_gram, ev_gram, side="right") - run_start
    pairs_before = np.concatenate(([0], np.cumsum(fan)))
    shift = run_start - pairs_before[:-1]  # pair p of posting e joins hyp posting p + shift[e]
    row_start = np.searchsorted(ev_row, np.arange(height + 1))
    cost = np.diff(pairs_before[row_start]) + len(steps) + width

    span = max(1, _PAIR_CHUNK // width)
    spans = range(0, len(steps), span)
    by_col = np.argsort(level_hyp[1], kind="stable")
    level_cell = (level_hyp[1] * width + level_hyp[0])[by_col]
    span_start = np.searchsorted(level_hyp[1][by_col], [*spans, len(steps)])

    def fill(first: int, stop: int) -> np.ndarray:
        lo, hi = row_start[first], row_start[stop]
        hyp_at = np.arange(pairs_before[lo], pairs_before[hi]) + np.repeat(shift[lo:hi], fan[lo:hi])
        cells = np.repeat((ev_row[lo:hi] - first) * width, fan[lo:hi]) + hyp_row[hyp_at]
        matches = np.minimum(np.repeat(ev_count[lo:hi], fan[lo:hi]), hyp_count[hyp_at])
        block = np.bincount(cells, matches, (stop - first) * width).reshape(stop - first, width)
        block = block.astype(np.float64, copy=False)  # int64 when there are no pairs
        lo, hi = level_start[first], level_start[stop]
        if lo == hi:
            return block
        a = np.zeros((stop - first, len(steps)))
        a[level_row[lo:hi] - first, level_col[lo:hi]] = steps[level_col[lo:hi]]
        for k, col in enumerate(spans):
            cols = min(span, len(steps) - col)
            b = np.zeros(cols * width)
            b[level_cell[span_start[k]:span_start[k + 1]] - col * width] = 1.0
            block += np.matmul(a[:, col:col + cols], b.reshape(cols, width))
        return block

    return cost, fill


def _libm_per_distinct(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` (a ``math`` function) of every element, called once per distinct value."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([fn(v) for v in distinct.tolist()])[inverse].reshape(values.shape)


def _rouge_finish(ev_lens: np.ndarray, hyp_lens: np.ndarray, matches: list[np.ndarray],
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


def _bleu_finish(ref_lens: np.ndarray, hyp_lens: np.ndarray, correct: list[np.ndarray],
                 max_order: int) -> np.ndarray:
    """Sentence BLEU of every (reference, hypothesis) pair of rows from the
    lengths and the clipped matches of each order.

    Array arithmetic in the scalar order of operations: each precision is
    ``matches / total``, or ``1 / (smooth * total)`` with ``smooth``
    doubled at each zero-match order; the logs add in order of n and
    divide by the effective order min(hyp_len, max_order); the brevity
    penalty multiplies when hyp_len < ref_len. ``log`` and ``exp`` are
    libm's (``math``), whose results numpy's vectorized versions do not
    always reproduce. An order the hypothesis is too short for has
    precision 1, log 0.0, and adds nothing; an empty hypothesis scores 0.
    """
    hyp_f = hyp_lens.astype(np.float64)
    orders = np.arange(1, max_order + 1)[:, None]
    totals = hyp_f - orders + 1.0  # (max_order, width)
    supported = totals > 0.0
    safe_totals = np.where(supported, totals, 1.0)
    smooth = np.ones((len(ref_lens), len(hyp_lens)))
    log_sum = np.zeros_like(smooth)  # 0.0 + x == x: no log here is -0.0
    for n in range(max_order):
        zero = correct[n] == 0.0
        np.multiply(smooth, 2.0, out=smooth, where=zero)
        precision = correct[n] / safe_totals[n]
        np.divide(1.0, smooth * safe_totals[n], out=precision, where=zero)
        precision[:, ~supported[n]] = 1.0
        log_sum += _libm_per_distinct(math.log, precision)
    log_sum /= np.minimum(np.maximum(hyp_f, 1.0), max_order)  # the effective order
    score = np.fromiter(map(math.exp, log_sum.ravel().tolist()), np.float64, log_sum.size)
    score = score.reshape(log_sum.shape)
    ref_f = ref_lens[:, None].astype(np.float64)
    brevity = np.where(hyp_f < ref_f, 1.0 - ref_f / np.maximum(hyp_f, 1.0), 0.0)
    score *= _libm_per_distinct(math.exp, brevity)  # exp(0.0) == 1.0 leaves a cell as is
    score[:, hyp_lens == 0] = 0.0
    return score


def _ngram_gains(ev_keys: list, hyp_keys: list, spec: GainSpec, jobs: int) -> np.ndarray:
    """ROUGE or BLEU gains of every pair of distinct token sequences; when
    ``hyp_keys`` is ``ev_keys``, each sequence is counted once.

    Each order's join (ROUGE's order n only) is prepared once. A block of
    ``_PAIR_CHUNK // (largest row cost of any order)`` evidence rows, or
    one row, fills the clipped matches of every order and is finished into
    its output rows; with ``jobs`` > 1 the blocks run on one thread pool.
    """
    shared = hyp_keys is ev_keys
    height, width = len(ev_keys), len(hyp_keys)
    ev_lens = np.fromiter(map(len, ev_keys), np.int64, height)
    hyp_lens = ev_lens if shared else np.fromiter(map(len, hyp_keys), np.int64, width)
    rouge = spec.kind == "rouge_n_kernel"
    order = spec.n if rouge else spec.max_order
    finish = _rouge_finish if rouge else _bleu_finish
    postings = enumerate(_ngram_postings(ev_keys, hyp_keys, order), 1)
    costs, fills = zip(*(_clipped_matches(ev, hyp, height, width)
                         for n, (ev, hyp) in postings if n == order or not rouge))
    step = max(1, _PAIR_CHUNK // max(int(cost.max(initial=1)) for cost in costs))
    out = np.empty((height, width), dtype=np.float64)

    def run(first: int) -> None:
        stop = min(first + step, height)
        matches = [fill(first, stop) for fill in fills]
        out[first:stop] = finish(ev_lens[first:stop], hyp_lens, matches, order)

    blocks = range(0, height, step)
    if jobs < 2 or len(blocks) < 2:
        list(map(run, blocks))
    else:
        with ThreadPoolExecutor(max_workers=min(jobs, len(blocks))) as pool:
            list(pool.map(run, blocks))
    return out


def gain_matrix(inst: Instance, spec: GainSpec, jobs: int = 1) -> np.ndarray:
    """Pairwise gain table: entry (i, j) = G(evidence_i, hypothesis_j).

    One branch per gain family. ``external`` returns the instance's
    matrix as is. Key match gives each sample its key's id, the stripped
    answer (``answer_match``) or the token sequence (``exact_match``),
    and compares all pairs by one ``np.equal.outer``. The n-gram gains,
    ``rouge_n_kernel`` and ``sentence_bleu``, run once per pair of
    distinct candidates and gather the table back to one row per
    evidence sample and one column per hypothesis; the postings of both
    sides come from one :func:`_ngram_postings` call, and ``jobs`` > 1
    runs the blocks of evidence rows, each joined and finished, on one
    thread pool. Token sequences come from :func:`distinct_tokens`, once
    per distinct raw ``(text, tokens)`` pair. Every cell is a function of
    its pair's keys alone and the join's sums are exact integers, so the
    result is the per-sample table bit for bit, whatever ``jobs``. When
    the hypotheses are the evidence (absent, or the same tuple, as
    :func:`mbrkit.types.validate_instance` leaves them), one side's
    interning, ids and postings serve both.
    """
    if spec.kind == "external":
        return np.asarray(require_external_gain(inst, spec), dtype=np.float64)

    hyps = inst.hypotheses if inst.hypotheses is not None else inst.evidence
    shared = hyps is inst.evidence
    if spec.kind in ("exact_match", "answer_match"):
        ids: dict = {}
        ev_ids = _key_ids(inst.evidence, spec, "evidence", ids)
        hyp_ids = ev_ids if shared else _key_ids(hyps, spec, "hypotheses", ids)
        return np.equal.outer(ev_ids, hyp_ids).astype(np.float64)

    ev_keys, ev_inv = distinct_tokens(inst.evidence, spec)
    hyp_keys, hyp_inv = (ev_keys, ev_inv) if shared else distinct_tokens(hyps, spec)
    table = _ngram_gains(ev_keys, hyp_keys, spec, jobs)
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
