"""Tests for expected-gain reduction, selection, and the decode presets."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mbrkit import (
    Candidate,
    GainSpec,
    Instance,
    MbrError,
    MissingAnswerError,
    NonFiniteValueError,
    ShapeMismatchError,
    WeightSpec,
    compute_weights,
    decode,
    expected_gains,
    gain_matrix,
    range_vote,
    select,
    self_consistency,
    validate_instance,
)
from mbrkit import decoder, metrics, types
from mbrkit.metrics import GainTable

ROUGE1 = GainSpec(kind="rouge_n_kernel", n=1)
EXACT = GainSpec(kind="exact_match")
UNIFORM = WeightSpec()


def token_cand(tokens, **kwargs):
    return Candidate(text=" ".join(tokens), tokens=tuple(tokens), **kwargs)


def random_instance(rng, n_evidence=6, n_hypotheses=None, vocab=("a", "b", "c")):
    def tokens():
        length = int(rng.integers(1, 6))
        return tuple(vocab[int(i)] for i in rng.integers(0, len(vocab), size=length))

    evidence = tuple(token_cand(tokens()) for _ in range(n_evidence))
    hypotheses = None
    if n_hypotheses is not None:
        hypotheses = tuple(token_cand(tokens()) for _ in range(n_hypotheses))
    return Instance(id="r", evidence=evidence, hypotheses=hypotheses)


class TestExpectedGains:
    def test_uniform_mean_of_columns(self):
        gains = expected_gains(np.eye(2), np.array([0.5, 0.5]))
        assert gains.tolist() == [0.5, 0.5]

    def test_single_column_mean(self):
        gains = expected_gains(np.array([[0.2], [0.4]]), np.array([0.5, 0.5]))
        assert gains.tolist() == pytest.approx([0.3], abs=1e-15)

    def test_weighted_column_sums(self):
        gains = expected_gains(np.eye(2), np.array([0.75, 0.25]))
        assert gains.tolist() == [0.75, 0.25]

    def test_accepts_weight_vector(self):
        inst = Instance(id="t", evidence=(Candidate(text="a"), Candidate(text="b")))
        wv = compute_weights(validate_instance(inst, EXACT, UNIFORM), UNIFORM, EXACT)
        gains = expected_gains(np.eye(2), wv)
        assert gains.tolist() == [0.5, 0.5]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            expected_gains(np.eye(3), np.array([0.5, 0.5]))
        with pytest.raises(ShapeMismatchError):
            expected_gains(np.ones(3), np.ones(3) / 3)

    @staticmethod
    def pinned(matrix, weights):
        """The expression expected_gains keeps the bytes of, on any layout."""
        return (weights[:, None] * matrix).sum(axis=0)

    @pytest.mark.parametrize("budget", [1, 19, 1 << 16])
    def test_every_layout_keeps_the_bytes_of_the_expression(self, monkeypatch, budget):
        # C-ordered matrices are reduced in blocks of rows; F-ordered ones
        # and strided views, which numpy sums pairwise, as one block.
        monkeypatch.setattr(metrics, "_PAIR_CHUNK", budget)
        rng = np.random.default_rng(2701 + budget)
        f_differs = 0
        for _ in range(40):
            height, width = int(rng.integers(1, 700)), int(rng.integers(1, 40))
            big = rng.random((2 * height, 3 * width)) * 10.0 ** rng.integers(
                -3, 4, size=(2 * height, 3 * width))
            c_matrix = np.ascontiguousarray(big[:height, :width])
            weights = rng.random(height) * 10.0 ** rng.integers(-5, 1, size=height)
            layouts = (c_matrix, np.asfortranarray(c_matrix), big[::2, ::3],
                       big[:height, 1:width + 1], c_matrix[:, :1],
                       np.asfortranarray(c_matrix[:, :1]))
            for matrix in layouts:
                sample_weights = weights[:len(matrix)]
                got = expected_gains(matrix, sample_weights)
                assert got.tobytes() == self.pinned(matrix, sample_weights).tobytes(), \
                    (height, width, matrix.flags.c_contiguous)
            f_differs += (self.pinned(layouts[1], weights).tobytes()
                          != self.pinned(c_matrix, weights).tobytes())
        assert f_differs > 0  # so the F-ordered case is not the C-ordered one

    def test_one_distinct_column_through_the_gain_table(self, monkeypatch):
        # H_d = 1 < H: every hypothesis is one candidate.
        monkeypatch.setattr(metrics, "_PAIR_CHUNK", 7)
        rng = np.random.default_rng(2702)
        for spec in (ROUGE1, EXACT, GainSpec(kind="sentence_bleu")):
            for n_evidence in (1, 5, 40, 300):
                inst = random_instance(rng, n_evidence, 1)
                inst = replace(inst, hypotheses=inst.hypotheses * 9)
                table = metrics.gain_table(validate_instance(inst, spec, UNIFORM), spec)
                assert table.shape[1] == 1 and len(table.hyp_inv) == 9
                weights = rng.random(n_evidence)
                want = self.pinned(table.matrix(), weights)
                assert decoder._table_gains(table, weights).tobytes() == want.tobytes()

    def test_no_evidence_rows_give_zeros(self):
        for width in (1, 2, 5):
            want = np.zeros(width)
            assert expected_gains(np.zeros((0, width)), np.zeros(0)).tobytes() == want.tobytes()
            assert expected_gains(np.zeros((width, 0)).T, np.zeros(0)).tobytes() == want.tobytes()
            table = GainTable.of(np.zeros((0, 3)), np.zeros(0, dtype=np.intp),
                                 np.arange(width) % 3)
            assert decoder._table_gains(table, np.zeros(0)).tobytes() == want.tobytes()


def first_occurrence(raw):
    """``raw`` renumbered in order of first occurrence, as the gain table
    numbers a side's distinct candidates."""
    ids: dict = {}
    return np.array([ids.setdefault(v, len(ids)) for v in raw.tolist()], dtype=np.intp)


def today_gains(table, ev_inv, hyp_inv, weights):
    """The per-sample expression the blocked reduction must reproduce:
    the C-ordered gathered matrix, weighed and summed over axis 0."""
    matrix = np.ascontiguousarray(table[np.ix_(ev_inv, hyp_inv)])
    return (weights[:, None] * matrix).sum(axis=0)


class TestTableReduction:
    """decoder._table_gains against today's (w[:, None] * M).sum(axis=0),
    byte for byte: numpy's axis-0 sum is a row-by-row accumulation only by
    this build's behaviour, so the blocked form is pinned here."""

    @staticmethod
    def random_case(rng, height, width, distinct_rows, distinct_cols):
        # Mixed magnitudes, so that any change of summation order shows.
        table = rng.random((distinct_rows, distinct_cols)) * 10.0 ** rng.integers(
            -3, 4, size=(distinct_rows, distinct_cols))
        ev_inv = first_occurrence(rng.integers(0, distinct_rows, height))
        hyp_inv = first_occurrence(rng.integers(0, distinct_cols, width))
        if distinct_rows >= height:  # duplicate-free: the identity inverse
            ev_inv = np.arange(height)
        if distinct_cols >= width:
            hyp_inv = np.arange(width)
        table = table[: ev_inv.max() + 1, : hyp_inv.max() + 1]
        weights = rng.random(height) * 10.0 ** rng.integers(-5, 1, size=height)
        weights /= weights.sum()
        return table, ev_inv, hyp_inv, weights

    def check(self, rng, height, width, distinct_rows, distinct_cols):
        table, ev_inv, hyp_inv, weights = self.random_case(rng, height, width, distinct_rows,
                                                            distinct_cols)
        want = today_gains(table, ev_inv, hyp_inv, weights)
        got = decoder._table_gains(GainTable.of(table, ev_inv, hyp_inv), weights)
        assert got.tobytes() == want.tobytes(), (height, width, distinct_rows, distinct_cols)

    def test_random_shapes_at_the_module_budget(self):
        rng = np.random.default_rng(1601)
        for _ in range(60):
            height = int(rng.integers(1, 4097))
            width = int(rng.integers(1, 300))
            self.check(rng, height, width, int(rng.integers(1, 40)), int(rng.integers(1, 40)))
        for height, width in ((4096, 9), (4096, 1), (1, 4096), (4096, 64)):
            self.check(rng, height, width, 6, 6)
            self.check(rng, height, width, height, width)

    @pytest.mark.parametrize("budget", [1, 2, 7, 64, 1000])
    def test_small_budgets_down_to_one_row_blocks(self, monkeypatch, budget):
        monkeypatch.setattr(metrics, "_PAIR_CHUNK", budget)
        rng = np.random.default_rng(1602 + budget)
        for _ in range(40):
            height = int(rng.integers(1, 300))
            width = int(rng.integers(1, 40))
            dup_heavy = bool(rng.integers(0, 2))
            rows = int(rng.integers(1, 5)) if dup_heavy else height
            cols = int(rng.integers(1, 5)) if dup_heavy else width
            self.check(rng, height, width, rows, cols)
        self.check(rng, 4096, 3, 6, 3)

    @pytest.mark.parametrize("budget", [1, 64, 1 << 15])
    def test_duplicate_heavy_hypotheses(self, monkeypatch, budget):
        # A few distinct columns gathered to many hypotheses: the reduction
        # runs over the E x H_d distinct columns, one row per block at
        # budget 1, and gathers the sums to the hypotheses.
        monkeypatch.setattr(metrics, "_PAIR_CHUNK", budget)
        rng = np.random.default_rng(1606 + budget)
        for _ in range(30 if budget > 1 else 10):
            height = int(rng.integers(1, 4097 if budget > 1 else 600))
            width = int(rng.integers(2, 600))
            self.check(rng, height, width, int(rng.integers(1, 40)), int(rng.integers(2, 9)))
        for height in (4096, 1):
            self.check(rng, height, 512, 24, 24)

    @pytest.mark.parametrize("budget", [1, 7, 1 << 15])
    def test_one_distinct_column_of_many_hypotheses(self, monkeypatch, budget):
        # H_d = 1 < H: numpy would sum the lone distinct column pairwise,
        # but sums the H gathered columns row by row, as two copies are.
        monkeypatch.setattr(metrics, "_PAIR_CHUNK", budget)
        rng = np.random.default_rng(1607 + budget)
        for height in (1, 2, 9, 17, 300, 1000, 4096):
            for width in (2, 3, 64):
                self.check(rng, height, width, 6, 1)
                self.check(rng, height, width, height, 1)

    @pytest.mark.parametrize("budget", [1, 1 << 15])
    def test_one_hypothesis_is_one_block(self, monkeypatch, budget):
        # numpy sums a lone column pairwise, which a row-blocked sum would
        # not reproduce, so H = 1 keeps today's expression at any budget.
        monkeypatch.setattr(metrics, "_PAIR_CHUNK", budget)
        rng = np.random.default_rng(1603)
        for height in (1, 2, 17, 1000, 4096):
            self.check(rng, height, 1, 6, 1)
            self.check(rng, height, 1, height, 1)

    def test_external_f_ordered_matrix_stays_one_block(self, monkeypatch):
        monkeypatch.setattr(metrics, "_PAIR_CHUNK", 1)
        rng = np.random.default_rng(1604)
        for height, width in ((100, 16), (4096, 5), (33, 300)):
            matrix = np.asfortranarray(rng.random((height, width)) * 10.0 ** rng.integers(
                -3, 4, size=(height, width)))
            weights = rng.random(height)
            weights /= weights.sum()
            got = decoder._table_gains(GainTable.of(matrix), weights)
            assert got.tobytes() == (weights[:, None] * matrix).sum(axis=0).tobytes()

    @pytest.mark.parametrize("spec", [ROUGE1, EXACT, GainSpec(kind="answer_match"),
                                      GainSpec(kind="sentence_bleu")],
                             ids=lambda s: s.kind)
    def test_decode_equals_the_gathered_matrix(self, monkeypatch, spec):
        # The public route (gain_matrix, then expected_gains) and decode's
        # blocked route give the same bytes, with and without duplicates.
        monkeypatch.setattr(metrics, "_PAIR_CHUNK", 50)
        rng = np.random.default_rng(1605)
        weight = WeightSpec(kind="length_norm", beta=0.7)
        cases = [random_instance(rng, n_evidence, n_hypotheses)
                 for n_evidence, n_hypotheses in ((40, None), (40, 9), (25, 1), (7, None))]
        one = random_instance(rng, 40, 1)
        cases.append(replace(one, hypotheses=one.hypotheses * 9))  # all hypotheses identical
        for inst in cases:
            evidence = tuple(replace(c, score=-float(len(c.tokens)), answer=c.tokens[0])
                             for c in inst.evidence)
            hypotheses = inst.hypotheses and tuple(replace(c, answer=c.tokens[0])
                                                   for c in inst.hypotheses)
            checked = validate_instance(replace(inst, evidence=evidence, hypotheses=hypotheses),
                                        spec, weight)
            wv = compute_weights(checked, weight, spec)
            want = expected_gains(gain_matrix(checked, spec), wv)
            assert np.array(decode(checked, spec, weight).gain_estimates).tobytes() \
                == want.tobytes()

    @pytest.mark.parametrize("metric", ["rouge", "answer", "bleu"])
    def test_large_line_memory_follows_its_distinct_candidates(self, metric):
        # 4000 samples of 6 distinct answers: the per-sample matrix and its
        # weighted copy took about 244 MB; the table, its gathered columns
        # and two blocks take a small fraction of that.
        texts = [f"the answer is {k} because {' '.join(['step'] * k)}" for k in range(6)]
        picks = [0 if i % 2 == 0 else i % 6 for i in range(4000)]  # a majority for 0
        evidence = tuple(Candidate(text=texts[k], answer=str(k)) for k in picks)
        spec = {"rouge": ROUGE1, "answer": GainSpec(kind="answer_match"),
                "bleu": GainSpec(kind="sentence_bleu")}[metric]
        inst = validate_instance(Instance(id="big", evidence=evidence), spec, UNIFORM)
        tracemalloc.start()
        try:
            result = decode(inst, spec, UNIFORM)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.selected_text == texts[0]
        assert peak < 16 * 2**20, peak

    @pytest.mark.parametrize("spec, twice",
                             [(ROUGE1, False), (GainSpec(kind="sentence_bleu"), False),
                              (EXACT, False), (ROUGE1, True)],
                             ids=["rouge", "bleu", "exact", "rouge-each-twice"])
    def test_distinct_line_memory_is_linear(self, spec, twice):
        # One line of n distinct 12-token samples: no table of 8 n^2 bytes
        # is held, so the peak doubles with the line. Holding the table
        # peaked at 37, 42 and 34 MB at n = 2000, 3.0-3.7x the peak at 1000.
        # With each sample twice in a row, the rows of each block of samples
        # are gathered from those made so far, and each row is dropped
        # after its second sample.
        rng = np.random.default_rng(2703)
        words = [f"w{i}" for i in range(200)]
        peaks = []
        for n in (1000, 2000):
            cands = [Candidate(text="", tokens=tuple(words[i]
                                                     for i in rng.integers(0, 200, size=12)))
                     for _ in range(n)]
            evidence = tuple(c for c in cands for _ in range(1 + twice))
            inst = validate_instance(Instance(id="wide", evidence=evidence), spec, UNIFORM)
            tracemalloc.start()
            try:
                decode(inst, spec, UNIFORM)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2.5 * peaks[0], peaks
        assert peaks[1] < 8 * 2000**2 / 2, peaks

    def test_rows_are_held_only_while_they_are_read(self):
        # 1500 distinct 12-token samples, an 18 MB table. Read twice over,
        # every row recurs at the end and the table is held once (1.22x its
        # size in all when it was held whole, 3x when a growing buffer was
        # copied); with a mode read all through the line, the mode's row
        # and a block of the others are held (1.22x when held whole).
        rng = np.random.default_rng(2705)
        words = [f"w{i}" for i in range(200)]
        cands = [Candidate(text="", tokens=tuple(words[i]
                                                 for i in rng.integers(0, 200, size=12)))
                 for _ in range(1500)]
        table = 8 * 1500**2
        mode = [c for single in cands[1:] for c in (cands[0], single)]
        for evidence, bound in ((cands + cands, 1.4 * table), (mode, table / 2)):
            inst = validate_instance(Instance(id="r", evidence=tuple(evidence)), ROUGE1, UNIFORM)
            uniform = np.full(len(evidence), 1 / len(evidence))
            want = expected_gains(gain_matrix(inst, ROUGE1), uniform)
            tracemalloc.start()
            try:
                got = decode(inst, ROUGE1, UNIFORM).gain_estimates
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array(got).tobytes() == want.tobytes()
            assert peak < bound, (len(evidence), peak)


    def test_held_rows_make_each_table_block_once(self, monkeypatch):
        # 300 distinct 12-token samples read twice over: with a budget of 40
        # columns' rows, the samples come in 15 blocks and every row recurs
        # in a later block, so the rows are held; each table block is still
        # made once, in order. Every gain kind's table carries an integer
        # inverse per sample on each side, identities for an external matrix.
        monkeypatch.setattr(metrics, "_PAIR_CHUNK", 300 * 40)
        rng = np.random.default_rng(2801)
        words = [f"w{i}" for i in range(200)]
        cands = [token_cand([words[i] for i in rng.integers(0, 200, size=12)]) for _ in range(300)]
        inst = validate_instance(Instance(id="h", evidence=tuple(cands + cands)), ROUGE1, UNIFORM)
        table = metrics.gain_table(inst, ROUGE1)
        calls = []

        def counted(first, stop):
            calls.append((first, stop))
            return table.rows(first, stop)

        weights = np.full(600, 1 / 600)
        got = decoder._table_gains(table._replace(rows=counted), weights)
        step = table.step
        assert 1 < step < 300 and calls == [(k, k + step) for k in range(0, 300, step)]
        assert got.tobytes() == expected_gains(gain_matrix(inst, ROUGE1), weights).tobytes()

        evidence = tuple(replace(c, answer=c.tokens[0]) for c in cands[:4] + cands[:3])
        hypotheses = evidence[2:6]
        for hyps in (None, hypotheses):
            width = len(hyps or evidence)
            raw = Instance(id="k", evidence=evidence, hypotheses=hyps,
                           external_gain=tuple((0.5,) * width for _ in evidence))
            for spec in (EXACT, GainSpec(kind="answer_match"), ROUGE1,
                         GainSpec(kind="sentence_bleu"), GainSpec(kind="external")):
                table = metrics.gain_table(validate_instance(raw, spec, UNIFORM), spec)
                for inverse, samples in ((table.ev_inv, len(evidence)), (table.hyp_inv, width)):
                    assert isinstance(inverse, np.ndarray) and inverse.dtype.kind == "i"
                    assert len(inverse) == samples, spec.kind


class TestSelect:
    def test_strict_max(self):
        hyps = (Candidate(text="x"), Candidate(text="y"), Candidate(text="z"))
        assert select(np.array([0.5, 0.7, 0.1]), hyps) == (1, False)

    def test_first_rule(self):
        hyps = (Candidate(text="x"), Candidate(text="y"))
        assert select(np.array([0.5, 0.5]), hyps, tie_break="first") == (0, True)

    def test_highest_score_rule(self):
        hyps = (Candidate(text="x", score=-3.0), Candidate(text="y", score=-1.0))
        assert select(np.array([0.5, 0.5]), hyps, tie_break="highest_score") == (1, True)

    def test_missing_score_ranks_lowest(self):
        hyps = (Candidate(text="x"), Candidate(text="y", score=-9.0))
        assert select(np.array([0.5, 0.5]), hyps, tie_break="highest_score") == (1, True)

    def test_longest_rule(self):
        hyps = (token_cand(("a",)), token_cand(("a", "b", "c")), token_cand(("a", "b")))
        assert select(np.array([0.5, 0.5, 0.5]), hyps, tie_break="longest") == (1, True)

    def test_longest_rule_without_an_interning_tokenizes_each_distinct_once(self, monkeypatch):
        # Repeats and case twins, all tied: the rule interns the slate and
        # reads metrics.distinct_tokens, one tokenization per distinct
        # candidate, and picks as with a given Side.
        texts = ("a b", "A b", "a  b", "a b", "a b c", "A b", "a b c", "a  b")
        hyps = tuple(Candidate(text=t) for t in texts)
        gains = np.full(len(hyps), 0.5)
        calls = []
        tokens = metrics.candidate_tokens

        def counted(c, spec):
            calls.append(c.text)
            return tokens(c, spec)

        monkeypatch.setattr(metrics, "candidate_tokens", counted)
        got = select(gains, hyps, "longest", ROUGE1)
        assert sorted(calls) == sorted(set(texts))
        monkeypatch.setattr(metrics, "candidate_tokens", tokens)
        want = select(gains, hyps, "longest", ROUGE1, types.interned(hyps))
        assert got == want == (4, True)

    def test_tie_rules_fall_back_to_lowest_index(self):
        hyps = (
            Candidate(text="x", score=-1.0),
            Candidate(text="y", score=-1.0),
        )
        assert select(np.array([0.5, 0.5]), hyps, tie_break="highest_score") == (0, True)

    def test_within_tolerance_counts_as_tie(self):
        hyps = (Candidate(text="x"), Candidate(text="y", score=0.0))
        gains = np.array([0.5, 0.5 - 5e-13])
        index, tied = select(gains, hyps, tie_break="highest_score")
        assert tied is True
        assert index == 1

    def test_outside_tolerance_is_not_a_tie(self):
        hyps = (Candidate(text="x"), Candidate(text="y"))
        assert select(np.array([0.5, 0.5 - 1e-9]), hyps) == (0, False)

    def test_tolerance_scales_with_the_gains(self):
        hyps = (Candidate(text="x"), Candidate(text="y"))
        assert select(np.array([0.0, 1e-13]), hyps) == (1, False)
        assert select(np.array([1e6, 1e6 - 5e-10]), hyps) == (0, True)
        assert select(np.zeros(2), hyps) == (0, True)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_gain_rejected(self, bad):
        hyps = (Candidate(text="x"), Candidate(text="y"))
        for gains in ([bad, 0.0], [0.0, bad]):
            with pytest.raises(NonFiniteValueError):
                select(np.array(gains), hyps)

    @staticmethod
    def numpy_tied(gains: np.ndarray) -> list[int]:
        """The tie set by the scale-relative rule in numpy arithmetic."""
        return np.flatnonzero(gains >= gains.max() - 1e-12 * np.abs(gains).max()).tolist()

    def test_python_floats_tie_as_the_numpy_rule(self):
        rng = np.random.default_rng(75)
        outcomes = set()
        for exponent in range(-300, 301, 20):
            for _ in range(40):
                size = int(rng.integers(2, 12))
                gains = rng.normal(0.0, 1.0, size) * 10.0**exponent
                if rng.random() < 0.3:
                    gains = -np.abs(gains)
                scale = np.abs(gains).max()
                top = int(np.argmax(gains))
                for j in rng.choice(size, int(rng.integers(1, size)), replace=False).tolist():
                    if j != top:
                        slack = 1.0 + float(rng.choice([-1e-3, 1e-3]))
                        gains[j] = gains[top] - 1e-12 * scale * slack
                tied = self.numpy_tied(gains)
                scores = rng.permutation(size).astype(float)
                hyps = tuple(Candidate(text=f"h{i}", score=s) for i, s in enumerate(scores))
                assert select(gains, hyps) == (tied[0], len(tied) > 1)
                best = max(tied, key=lambda i: (scores[i], -i))
                assert select(gains, hyps, "highest_score") == (best, len(tied) > 1)
                outcomes.add(len(tied) > 1)
        assert outcomes == {False, True}

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_gain_after_the_largest_is_named(self, bad):
        hyps = tuple(Candidate(text=t) for t in "vwxyz")
        for gains, first in (([0.1, 0.9, 0.2, bad, np.nan], 3), ([0.9, bad, bad, 0.5, 0.1], 1),
                             ([0.0, 0.0, 0.0, 0.9, bad], 4)):
            with pytest.raises(NonFiniteValueError,
                               match=rf"^hypotheses\[{first}\] has non-finite expected gain "):
                select(np.array(gains), hyps)

    def test_all_zero_gains_are_one_tie(self):
        hyps = tuple(Candidate(text=t, score=-float(len(t))) for t in ("xyz", "x", "xy"))
        for gains in (np.zeros(3), np.array([0.0, -0.0, 0.0]), np.array([-0.0, -0.0, -0.0])):
            assert select(gains, hyps) == (0, True)
            assert select(gains, hyps, "highest_score") == (1, True)


class TestDecode:
    def test_mode_recovery_example(self):
        inst = Instance(
            id="t",
            evidence=(Candidate(text="a"), Candidate(text="a"), Candidate(text="b")),
            hypotheses=(Candidate(text="a"), Candidate(text="b")),
        )
        result = decode(inst, EXACT, UNIFORM)
        assert result.selected_text == "a"
        assert result.gain_estimates == pytest.approx([2 / 3, 1 / 3], abs=1e-15)
        assert result.weights == pytest.approx([1 / 3] * 3, abs=1e-15)
        assert result.ess == 3.0

    def test_singleton(self):
        inst = Instance(id="t", evidence=(token_cand(("a", "b")),))
        result = decode(inst, ROUGE1, UNIFORM)
        assert result.selected_index == 0
        assert result.gain_estimates == (1.0,)
        assert result.tie_broken is False

    def test_errors_carry_instance_id(self):
        inst = Instance(id="bad-one", evidence=(Candidate(text="a"),))
        with pytest.raises(MbrError, match="bad-one"):
            decode(inst, EXACT, WeightSpec(kind="temperature", tau=0.5))

    def test_argmax_invariant_under_scaling_and_shift(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            inst = random_instance(rng, n_evidence=5, n_hypotheses=4)
            checked = validate_instance(inst, ROUGE1, UNIFORM)
            matrix = gain_matrix(checked, ROUGE1)
            base = decode(inst, ROUGE1, UNIFORM)
            for transformed in (3.0 * matrix, matrix + 2.0, 0.5 * matrix - 1.0):
                alt = Instance(
                    id="r",
                    evidence=checked.evidence,
                    hypotheses=checked.hypotheses,
                    external_gain=tuple(tuple(row) for row in transformed.tolist()),
                )
                result = decode(alt, GainSpec(kind="external"), UNIFORM)
                assert result.selected_index == base.selected_index

    def test_permuting_evidence_preserves_gains(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            inst = random_instance(rng, n_evidence=6, n_hypotheses=4)
            base = decode(inst, ROUGE1, UNIFORM)
            perm = rng.permutation(6)
            shuffled = Instance(
                id="r",
                evidence=tuple(inst.evidence[int(i)] for i in perm),
                hypotheses=inst.hypotheses,
            )
            result = decode(shuffled, ROUGE1, UNIFORM)
            assert result.gain_estimates == pytest.approx(base.gain_estimates, abs=1e-12)

    def test_permuting_hypotheses_permutes_gains(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            inst = random_instance(rng, n_evidence=5, n_hypotheses=5)
            base = decode(inst, ROUGE1, UNIFORM)
            perm = [int(i) for i in rng.permutation(5)]
            shuffled = Instance(
                id="r",
                evidence=inst.evidence,
                hypotheses=tuple(inst.hypotheses[i] for i in perm),
            )
            result = decode(shuffled, ROUGE1, UNIFORM)
            want = [base.gain_estimates[i] for i in perm]
            assert result.gain_estimates == pytest.approx(want, abs=1e-12)
            gains = np.asarray(base.gain_estimates)
            top = gains.max()
            if np.sum(gains >= top - 1e-12) == 1:
                assert result.selected_text == base.selected_text

    def test_external_matrix_matches_built_in_metric(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            inst = random_instance(rng, n_evidence=5, n_hypotheses=3)
            checked = validate_instance(inst, ROUGE1, UNIFORM)
            matrix = gain_matrix(checked, ROUGE1)
            external = Instance(
                id="r",
                evidence=checked.evidence,
                hypotheses=checked.hypotheses,
                external_gain=tuple(tuple(row) for row in matrix.tolist()),
            )
            a = decode(inst, ROUGE1, UNIFORM)
            b = decode(external, GainSpec(kind="external"), UNIFORM)
            assert a.selected_index == b.selected_index
            assert a.gain_estimates == b.gain_estimates

    def test_unknown_tie_break_rejected_without_a_tie(self):
        inst = Instance(
            id="t",
            evidence=(Candidate(text="a"), Candidate(text="a"), Candidate(text="b")),
            hypotheses=(Candidate(text="a"), Candidate(text="b")),
        )
        with pytest.raises(MbrError, match="unknown tie_break 'bogus'"):
            decode(inst, tie_break="bogus")

    def test_small_external_gains_do_not_tie(self):
        inst = Instance(
            id="t",
            evidence=(Candidate(text="a"), Candidate(text="b")),
            external_gain=((0.0, 1e-13), (0.0, 1e-13)),
        )
        result = decode(inst, GainSpec(kind="external"), UNIFORM)
        assert result.selected_index == 1
        assert result.tie_broken is False

    @pytest.mark.parametrize("big", [1.7976931348623157e308, -1.7976931348623157e308])
    def test_overflowing_expected_gain_is_an_instance_error(self, big):
        # Eleven rows of the largest double: the weighted column sum
        # overflows to +-inf, which no tie rule or serializer can take.
        inst = Instance(
            id="big",
            evidence=tuple(Candidate(text=f"e{i}") for i in range(11)),
            hypotheses=(Candidate(text="x"), Candidate(text="y")),
            external_gain=((big, 0.0),) * 11,
        )
        with pytest.raises(NonFiniteValueError, match="^instance 'big': "):
            decode(inst, GainSpec(kind="external"), UNIFORM)
        with pytest.raises(NonFiniteValueError, match="^instance 'big': "):
            range_vote(inst, GainSpec(kind="external"))

    def test_dedup_hypotheses_changes_slate(self):
        inst = Instance(
            id="t",
            evidence=(Candidate(text="a"),),
            hypotheses=(Candidate(text="b"), Candidate(text="b"), Candidate(text="a")),
        )
        kept = decode(inst, EXACT, UNIFORM, dedup_hypotheses=True)
        assert kept.gain_estimates == (0.0, 1.0)
        assert kept.selected_text == "a"


class TestSelfConsistency:
    def answers(self, values):
        return Instance(
            id="t",
            evidence=tuple(Candidate(text=v, answer=v) for v in values),
        )

    def test_majority(self):
        result = self_consistency(self.answers(["4", "4", "7"]))
        assert result.answer == "4"
        assert result.votes == 2

    def test_tie_first(self):
        result = self_consistency(self.answers(["4", "7"]))
        assert result.selected_index == 0
        assert result.tie_broken is True
        assert result.votes == 1

    def test_larger_majority(self):
        result = self_consistency(self.answers(["4", "4", "7", "7", "7"]))
        assert result.answer == "7"
        assert result.votes == 3

    def test_missing_answer(self):
        inst = Instance(
            id="t",
            evidence=(Candidate(text="a", answer="1"), Candidate(text="b")),
        )
        with pytest.raises(MissingAnswerError):
            self_consistency(inst)

    def test_answers_trimmed(self):
        result = self_consistency(self.answers([" 4", "4 ", "7"]))
        assert result.answer == "4"
        assert result.votes == 2


class TestRangeVote:
    def test_simple_slate(self):
        inst = Instance(
            id="t",
            evidence=(Candidate(text="a"), Candidate(text="a"), Candidate(text="b")),
            hypotheses=(Candidate(text="a"), Candidate(text="b")),
        )
        result = range_vote(inst, EXACT)
        assert result.selected_text == "a"
        assert result.gain_estimates == pytest.approx([2 / 3, 1 / 3], abs=1e-15)

    def test_agrees_with_uniform_decode(self):
        rng = np.random.default_rng(35)
        for spec in (ROUGE1, GainSpec(kind="sentence_bleu"), GainSpec(kind="answer_match")):
            for _ in range(100):
                inst = random_instance(
                    rng,
                    n_evidence=int(rng.integers(1, 8)),
                    n_hypotheses=int(rng.integers(1, 6)),
                )
                inst = Instance(
                    id=inst.id,
                    evidence=tuple(replace(c, answer=c.tokens[0]) for c in inst.evidence),
                    hypotheses=tuple(replace(c, answer=c.tokens[0]) for c in inst.hypotheses),
                )
                assert range_vote(inst, spec).selected_index == \
                    decode(inst, spec, UNIFORM).selected_index

    def test_external_path(self):
        inst = Instance(
            id="t",
            evidence=(Candidate(text="a"), Candidate(text="b")),
            hypotheses=(Candidate(text="x"), Candidate(text="y")),
            external_gain=((0.9, 0.1), (0.6, 0.2)),
        )
        result = range_vote(inst, GainSpec(kind="external"))
        assert result.selected_index == 0
        assert result.gain_estimates == pytest.approx([0.75, 0.15], abs=1e-15)

    @pytest.mark.parametrize("budget", [1, 7, 1 << 16])
    def test_means_are_those_of_the_gain_matrix_rows(self, monkeypatch, budget):
        # The rows are read block by block over the distinct columns; the
        # means are still the sums of the per-sample matrix's rows, in order.
        monkeypatch.setattr(metrics, "_PAIR_CHUNK", budget)
        rng = np.random.default_rng(2704)
        for spec in (ROUGE1, GainSpec(kind="sentence_bleu"), GainSpec(kind="answer_match")):
            for n_evidence, n_hypotheses in ((1, 1), (30, None), (60, 9), (200, 4)):
                inst = random_instance(rng, n_evidence, n_hypotheses)
                inst = Instance(
                    id=inst.id,
                    evidence=tuple(replace(c, answer=c.tokens[0]) for c in inst.evidence),
                    hypotheses=inst.hypotheses and tuple(replace(c, answer=c.tokens[0])
                                                         for c in inst.hypotheses),
                )
                totals = [0.0] * len(inst.hypotheses or inst.evidence)
                for row in gain_matrix(inst, spec).tolist():
                    for j, rating in enumerate(row):
                        totals[j] += rating
                want = tuple(t / n_evidence for t in totals)
                assert np.array(range_vote(inst, spec).gain_estimates).tobytes() \
                    == np.array(want).tobytes()
