"""The benchmark's reference check accepts a correct decode and rejects a
wrong selection, a perturbed gain or weight and a wrong tie flag.

Run with: python3 -m pytest bench/test_reference.py
"""

import json
import math

from reference import RefSpec, check_line, ngram_orders, sentence_bleu, tokens, weights

ROUGE1 = RefSpec("rouge1")
ECHO = {"metric": "any"}
# Three samples, two identical: the rouge-1 expected gains are 2/3, 2/3 and
# 1/3, so hypotheses 0 and 1 tie and the 'first' rule selects 0.
RECORD = {"id": "q1", "evidence": [{"text": "the cat sat"}, {"text": "The cat sat"},
                                   {"text": "a dog ran"}]}
GOOD = {"id": "q1", "selected_index": 0, "selected_text": "the cat sat",
        "gain_estimates": [2 / 3, 2 / 3, 1 / 3], "weights": [1 / 3] * 3,
        "tie_broken": True, "config_echo": ECHO}


def check(**changes):
    return check_line(RECORD, json.dumps({**GOOD, **changes}), ROUGE1, ECHO)


def test_accepts_the_hand_computed_decode():
    assert check() is None


def test_rejects_a_later_index_of_a_tie():
    assert "tie rule" in check(selected_index=1, selected_text="The cat sat")


def test_rejects_a_non_maximal_selection():
    assert "tie rule" in check(selected_index=2, selected_text="a dog ran")


def test_rejects_a_perturbed_gain():
    assert "gain_estimates[2]" in check(gain_estimates=[2 / 3, 2 / 3, 1 / 3 * (1 + 1e-7)])


def test_rejects_a_perturbed_weight():
    assert "weights[0]" in check(weights=[1 / 3 + 1e-9, 1 / 3, 1 / 3])


def test_rejects_a_wrong_tie_flag_and_text():
    assert "tie_broken" in check(tie_broken=False)
    assert "selected_text" in check(selected_text="a dog ran")


def test_length_norm_weights_are_a_softmax_of_s_over_len_minus_s():
    evidence = [{"text": "a b", "score": -1.0}, {"text": "a b c d", "score": -2.0}]
    got = weights(evidence, RefSpec("rouge1", "length_norm", 1.0))
    logs = [-1.0 / 2 + 1.0, -2.0 / 4 + 2.0]
    want = [math.exp(v) / sum(math.exp(u) for u in logs) for v in logs]
    assert all(math.isclose(a, b, rel_tol=1e-15) for a, b in zip(got, want))


def test_sentence_bleu_conventions():
    same = ngram_orders(tokens("the cat sat on the mat"))
    assert sentence_bleu(same, same) == 1.0
    # Hypothesis "the cat" against a 6-token reference: precisions 2/2 and
    # 1/1, effective order 2, brevity penalty exp(1 - 6/2).
    short = ngram_orders(tokens("the cat"))
    assert math.isclose(sentence_bleu(same, short), math.exp(1 - 3), rel_tol=1e-15)
    # No bigram match: the first zero-match order scores 1 / (2 * total).
    swapped = ngram_orders(tokens("mat the on sat cat the"))
    assert math.isclose(sentence_bleu(same, swapped),
                        (1.0 * (1 / (2 * 5)) * (1 / (4 * 4)) * (1 / (8 * 3))) ** 0.25,
                        rel_tol=1e-15)


def test_answer_vote_strips_answers():
    record = {"id": "v", "evidence": [{"text": "x", "answer": " 7"}, {"text": "y", "answer": "7\n"},
                                      {"text": "z", "answer": "8"}]}
    line = json.dumps({"id": "v", "selected_index": 0, "selected_text": "x",
                       "gain_estimates": [2 / 3, 2 / 3, 1 / 3], "weights": [1 / 3] * 3,
                       "tie_broken": True, "config_echo": ECHO})
    assert check_line(record, line, RefSpec("answer"), ECHO) is None
