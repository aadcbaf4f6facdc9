"""Seeded synthetic JSONL batches for the decode benchmark.

Each workload is one `mbrkit decode` flag set plus a generator of input
lines. Generation uses only :mod:`random` with the given seed, so a seed
gives the same bytes on every machine and Python version, and the package
under test sees nothing but the generated lines.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

# Pseudo-words: short lowercase strings drawn once per batch, so token
# frequencies within a batch are Zipf-like, as in text.
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Workload:
    name: str
    #: `mbrkit decode` arguments, without --input/--output.
    flags: tuple[str, ...]
    #: Lines per batch; one batch takes a few seconds to decode.
    batch_lines: int
    #: Expected `config_echo` of every output line.
    config_echo: dict
    generate: Callable[[random.Random, int], list[dict]]


def _vocabulary(rng: random.Random, size: int = 1500) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice(_LETTERS) for _ in range(rng.randint(2, 8))))
    return sorted(words)


def _zipf_word(rng: random.Random, vocab: list[str]) -> str:
    # Inverse-CDF draw from p(rank) ~ 1 / rank over the vocabulary.
    rank = int(len(vocab) ** rng.random())
    return vocab[min(rank, len(vocab)) - 1]


def _fresh_word(rng: random.Random, vocab: list[str], used: list[str]) -> str:
    while True:
        word = _zipf_word(rng, vocab)
        if word not in used:
            return word


def _sentence(rng: random.Random, vocab: list[str], length: int,
              repeat: int) -> tuple[list[str], str]:
    """`length` words, one of which appears `repeat` times and the rest once.

    Returns the words and the repeated word. The largest per-candidate token
    count is what the cost of the n-gram overlap grows with, so it is set by
    the caller rather than left to the draw: a seed must not change the work.
    """
    words: list[str] = []
    while len(words) < length - repeat + 1:
        words.append(_fresh_word(rng, vocab, words))
    keep = words[0]
    words += [keep] * (repeat - 1)
    rng.shuffle(words)
    return words, keep


def _perturb(rng: random.Random, vocab: list[str], base: list[str], keep: str,
             edits: int, lo: int = 10, hi: int = 40) -> list[str]:
    """Apply `edits` random substitutions, deletions, insertions or swaps,
    keeping the length within [lo, hi]. New words are not in the sentence,
    and copies of `keep` are only moved, so every variant keeps the base
    sentence's largest token count."""
    out = list(base)
    for _ in range(edits):
        op = rng.randrange(4)
        pos = rng.randrange(len(out))
        if out[pos] == keep:
            op = 3
        if op == 0:
            out[pos] = _fresh_word(rng, vocab, out)
        elif op == 1 and len(out) > lo:
            del out[pos]
        elif op == 2 and len(out) < hi:
            out.insert(pos, _fresh_word(rng, vocab, out))
        elif pos + 1 < len(out):
            out[pos], out[pos + 1] = out[pos + 1], out[pos]
    return out


#: Largest token count of the base sentence, per sixteenth of a batch in
#: order of base length. The first fourteen follow the sixteen-quantiles of
#: the largest count in 2000 sentences of 10-40 words drawn independently
#: from the Zipf vocabulary (median 3, about 6 % above 5). The last two are
#: repetition loops, a known failure of sampled text, which make the
#: overlap's per-count loop run 16 and 24 times.
_REPEATS = (1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 5, 16, 24)


def _base_shape(line: int, lines: int) -> tuple[int, int]:
    """(words, largest token count) of a line's base sentence: 12..38 words
    stepped evenly over a batch with the repeat profile above, so that every
    seed gives a batch with the same shape."""
    return 12 + (27 * line) // lines, _REPEATS[(len(_REPEATS) * line) // lines]


def _distinct_variants(rng: random.Random, vocab: list[str], line: int, lines: int,
                       count: int, max_edits: int) -> list[list[str]]:
    """`count` distinct perturbations of the line's base sentence."""
    base, keep = _sentence(rng, vocab, *_base_shape(line, lines))
    seen: set[tuple[str, ...]] = set()
    out: list[list[str]] = []
    while len(out) < count:
        tokens = _perturb(rng, vocab, base, keep, rng.randint(1, max_edits))
        key = tuple(tokens)
        if key not in seen:
            seen.add(key)
            out.append(tokens)
    return out


def _text(tokens: list[str]) -> str:
    # A capitalised first word exercises the default lowercasing; distinct
    # lowercase token sequences stay distinct as texts.
    return " ".join([tokens[0].capitalize()] + tokens[1:])


def gen_rouge1_dup(rng: random.Random, lines: int) -> list[dict]:
    """512 samples per line drawn with Zipf-like multiplicity from 24 distinct
    sentences. Each distinct sentence has one score: its length times a mean
    per-token log-probability in [-0.4, -0.1]."""
    vocab = _vocabulary(rng)
    out = []
    for i in range(lines):
        distinct = _distinct_variants(rng, vocab, i, lines, 24, 4)
        scores = [-len(t) * rng.uniform(0.1, 0.4) for t in distinct]
        # Every distinct sentence appears at least once; the remaining draws
        # follow p(rank) ~ 1 / rank**1.1 and are shuffled into sample order.
        ranks = list(range(len(distinct)))
        mass = [1.0 / (r + 1) ** 1.1 for r in ranks]
        picks = ranks + rng.choices(ranks, weights=mass, k=512 - len(ranks))
        rng.shuffle(picks)
        evidence = [{"text": _text(distinct[k]), "score": scores[k]} for k in picks]
        out.append({"id": f"r{i}", "evidence": evidence})
    return out


def gen_bleu4_distinct(rng: random.Random, lines: int) -> list[dict]:
    """64 distinct perturbations of one base sentence per line, no scores."""
    vocab = _vocabulary(rng)
    out = []
    for i in range(lines):
        variants = _distinct_variants(rng, vocab, i, lines, 64, 6)
        evidence = [{"text": _text(t)} for t in variants]
        out.append({"id": f"b{i}", "evidence": evidence})
    return out


def gen_vote_batch(rng: random.Random, lines: int) -> list[dict]:
    """16 short chain-of-thought-like samples per line over 6 answers, with the
    first answer most likely and some answers padded with whitespace."""
    vocab = _vocabulary(rng, 400)
    pads = ("", "", "", " ", "\n", "  ")
    out = []
    for i in range(lines):
        answers = [str(v) for v in rng.sample(range(1000), 6)]
        mass = [0.4, 0.2, 0.15, 0.1, 0.1, 0.05]
        evidence = []
        for _ in range(16):
            answer = rng.choices(answers, weights=mass)[0]
            steps = " ".join(_sentence(rng, vocab, rng.randint(3, 8), 1)[0])
            evidence.append({
                "text": f"Step 1: {steps}. So the answer is {answer}.",
                "answer": rng.choice(pads) + answer + rng.choice(pads),
            })
        out.append({"id": f"v{i}", "evidence": evidence})
    return out


def _echo(metric: dict, weighting: dict) -> dict:
    base_metric = {"kind": None, "n": 1, "max_order": 4, "lowercase": True,
                   "tokenizer": "whitespace"}
    base_weighting = {"kind": "uniform", "tau": 1.0, "beta": 0.0, "gamma": 0.0,
                      "mixture_weights": None}
    return {
        "metric": {**base_metric, **metric},
        "weighting": {**base_weighting, **weighting},
        "tie_break": "first",
        "dedup_hypotheses": False,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rouge1-dup",
            flags=("decode", "--metric", "rouge", "--ngram", "1",
                   "--weighting", "length-norm", "--beta", "1"),
            batch_lines=16,
            config_echo=_echo({"kind": "rouge_n_kernel"},
                              {"kind": "length_norm", "beta": 1.0}),
            generate=gen_rouge1_dup,
        ),
        Workload(
            name="bleu4-distinct",
            flags=("decode", "--metric", "bleu", "--bleu-order", "4", "--jobs", "1"),
            batch_lines=16,
            config_echo=_echo({"kind": "sentence_bleu"}, {}),
            generate=gen_bleu4_distinct,
        ),
        Workload(
            name="vote-batch",
            flags=("decode", "--metric", "answer"),
            batch_lines=8000,
            config_echo=_echo({"kind": "answer_match"}, {}),
            generate=gen_vote_batch,
        ),
    )
}


def write_batch(workload: Workload, seed: int, lines: int, path: str) -> list[dict]:
    """Generate `lines` instances for `seed`, write them as JSONL, return them."""
    # The workload name is folded into the seed so that workloads sharing a
    # seed do not share a random stream.
    rng = random.Random(f"{workload.name}:{seed}")
    records = workload.generate(rng, lines)
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        for record in records:
            stream.write(json.dumps(record, ensure_ascii=False) + "\n")
    return records
