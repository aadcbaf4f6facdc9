"""Exact reference machinery on tiny enumerable sequence distributions.

A toy distribution assigns one logit to every sequence of length 1 to
``max_len`` over a small single-character vocabulary, so the whole
support can be enumerated and every quantity the decoder only estimates
(expected gain, the risk-optimal hypothesis, reweighted target
distributions) can be computed in closed form. The sampler draws by
inverse CDF over the enumeration, which keeps draws reproducible for a
given seed independent of how the probabilities were produced.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, NonFiniteValueError, SpaceTooLargeError
from .metrics import gain_matrix
from .types import Candidate, GainSpec, Instance, WeightSpec
from .weighting import corrected_score

#: Hard cap on the enumerated support size.
MAX_SPACE = 100_000


def _sequences(vocab: Sequence[str], max_len: int) -> Iterable[str]:
    for length in range(1, max_len + 1):
        for combo in itertools.product(vocab, repeat=length):
            yield "".join(combo)


def _space_size(n_symbols: int, max_len: int) -> int:
    total = 0
    power = 1
    for _ in range(max_len):
        power *= n_symbols
        total += power
        if total > MAX_SPACE:
            break
    return total


@dataclass(frozen=True)
class ToyDistribution:
    """A fully enumerable distribution over short symbol sequences.

    ``logits`` must assign a finite value to every sequence in the
    support; probabilities are the softmax of the logits. Sequences are
    written as plain strings of single-character symbols, so "ab" is the
    two-token sequence (a, b) and candidate tokens are the characters.
    """

    vocab: tuple[str, ...]
    max_len: int
    logits: dict[str, float]

    def __post_init__(self):
        object.__setattr__(self, "vocab", tuple(self.vocab))
        object.__setattr__(self, "logits", dict(self.logits))
        if not self.vocab:
            raise ConfigError("vocab must not be empty")
        if len(set(self.vocab)) != len(self.vocab):
            raise ConfigError("vocab symbols must be distinct")
        if any(not (isinstance(s, str) and len(s) == 1) for s in self.vocab):
            raise ConfigError("vocab symbols must be single characters")
        if self.max_len < 1:
            raise ConfigError(f"max_len must be >= 1, got {self.max_len}")
        size = _space_size(len(self.vocab), self.max_len)
        if size > MAX_SPACE:
            raise SpaceTooLargeError(
                f"support has {size} sequences, more than the {MAX_SPACE} limit"
            )
        expected = set(_sequences(self.vocab, self.max_len))
        given = set(self.logits)
        if given != expected:
            missing = sorted(expected - given)[:3]
            extra = sorted(given - expected)[:3]
            raise ConfigError(
                f"logits must cover the support exactly; "
                f"missing {missing!r}, unexpected {extra!r}"
            )
        for seq, value in self.logits.items():
            if not math.isfinite(value):
                raise NonFiniteValueError(f"logit for {seq!r} is {value!r}")

    @classmethod
    def random(
        cls,
        vocab: Sequence[str],
        max_len: int,
        rng: np.random.Generator,
        scale: float = 1.0,
    ) -> "ToyDistribution":
        """A distribution with independent normal logits, one draw per sequence."""
        seqs = list(_sequences(tuple(vocab), max_len))
        values = rng.normal(0.0, scale, size=len(seqs))
        return cls(vocab=tuple(vocab), max_len=max_len, logits=dict(zip(seqs, values)))

    @cached_property
    def _space(self) -> tuple[str, ...]:
        return tuple(_sequences(self.vocab, self.max_len))

    @cached_property
    def _log_probs(self) -> np.ndarray:
        raw = np.array([self.logits[s] for s in self._space])
        peak = raw.max()
        return raw - peak - np.log(np.sum(np.exp(raw - peak)))

    @cached_property
    def _probs(self) -> np.ndarray:
        return np.exp(self._log_probs)

    @cached_property
    def _cum(self) -> np.ndarray:
        return np.cumsum(self._probs)

    @cached_property
    def _support(self) -> tuple[Candidate, ...]:
        return tuple(Candidate(text=s, tokens=tuple(s)) for s in self._space)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self._space)}

    def enumerate_space(self) -> list[tuple[str, float]]:
        """Every sequence with its probability, in enumeration order.

        Order is by length, then by the position of each symbol in the
        vocab tuple, and is the order the sampler's inverse CDF uses.
        """
        return list(zip(self._space, self._probs.tolist()))

    def log_prob(self, seq: str) -> float:
        if seq not in self._index:
            raise ConfigError(f"sequence {seq!r} is not in the support")
        return float(self._log_probs[self._index[seq]])

    def candidate(self, seq: str, model_id: str | None = None) -> Candidate:
        """The sequence as a Candidate with its exact log probability.

        The answer field uses the leading symbol, a stand-in extraction
        rule that gives answer-match gains something deterministic to
        compare.
        """
        return Candidate(
            text=seq,
            tokens=tuple(seq),
            score=self.log_prob(seq),
            answer=seq[0],
            model_id=model_id,
        )

    def sample(self, n: int, seed: int, model_id: str | None = None) -> list[Candidate]:
        """Draw n candidates by inverse CDF on a seeded generator.

        The uniform stream comes from numpy's default bit generator
        (PCG64) seeded with ``seed``; draw k maps the k-th uniform through
        the cumulative probabilities of the enumeration. Two calls with
        the same seed therefore agree elementwise, and fixtures derived
        from samples are stable as long as that generator is. The draws of
        one sequence share one (frozen) Candidate.
        """
        rng = np.random.default_rng(seed)
        u = rng.random(n)
        idx = np.searchsorted(self._cum, u, side="right")
        idx = np.minimum(idx, len(self._space) - 1).tolist()
        built = {i: self.candidate(self._space[i], model_id) for i in dict.fromkeys(idx)}
        return [built[i] for i in idx]

    def _expected_gains(self, hypotheses: Sequence[str | Candidate],
                        gain: GainSpec) -> list[float]:
        """Exact expected gains from one gain matrix over the whole support,
        each column's weighted sum accumulated in enumeration order."""
        hyps = tuple(h if isinstance(h, Candidate) else Candidate(text=h, tokens=tuple(h))
                     for h in hypotheses)
        matrix = gain_matrix(Instance(id="", evidence=self._support, hypotheses=hyps), gain)
        totals = np.zeros(len(hyps))
        for p, row in zip(self._probs.tolist(), matrix):
            totals += p * row
        return totals.tolist()

    def expected_gain(self, hypothesis: str | Candidate, gain: GainSpec) -> float:
        """Exact expected gain of a hypothesis under this distribution.

        A plain probability-weighted sum of the hypothesis's gain column
        over the whole support, accumulated in enumeration order.
        """
        return self._expected_gains((hypothesis,), gain)[0]

    def corrected(self, weight: WeightSpec) -> "ToyDistribution":
        """The reweighted target distribution as a new ToyDistribution.

        temperature maps each log probability s to s / tau; the length
        kinds map it through the same corrected-score transform the
        weighting module applies. The result is what importance sampling
        with those weights estimates expectations under.
        """
        if weight.kind == "uniform":
            return self
        if weight.kind == "temperature":
            with np.errstate(over="ignore"):
                new = self._log_probs / weight.tau
        elif weight.kind in ("length_norm", "length_reward"):
            new = corrected_score(self._log_probs, np.array([len(s) for s in self._space]), weight)
        else:
            raise ConfigError(
                f"no closed-form corrected distribution for weighting kind {weight.kind!r}"
            )
        return ToyDistribution(vocab=self.vocab, max_len=self.max_len,
                               logits=dict(zip(self._space, new.tolist())))

    def exact_mbr(self, hypotheses: Sequence[str], gain: GainSpec) -> str:
        """The hypothesis with the highest exact expected gain.

        Exact ties go to the lexicographically smallest sequence string,
        a rule with no floating-point tolerance so reference outputs are
        unambiguous.
        """
        if not hypotheses:
            raise ConfigError("exact_mbr needs at least one hypothesis")
        best_seq = None
        best_gain = -math.inf
        for seq, g in zip(hypotheses, self._expected_gains(hypotheses, gain)):
            if g > best_gain or (g == best_gain and (best_seq is None or seq < best_seq)):
                best_gain = g
                best_seq = seq
        return best_seq


def build_fixture_instances(seed: int = 7) -> list[Instance]:
    """The committed toy instance set, reproducible from the seed.

    Instance toy-000 is a worked-by-hand three-candidate example on the
    distribution p(a) = 2/3, p(b) = 1/3. The rest are sampled from random
    distributions over {a, b}: every candidate carries tokens, an exact
    log-probability score, a leading-symbol answer, and an alternating
    model id, so every gain and weighting kind can run on the same file.
    Odd-numbered instances get a separately sampled hypothesis slate; the
    last one also carries a synthetic external gain matrix.
    """
    rng = np.random.default_rng(seed)
    tiny = ToyDistribution(
        vocab=("a", "b"), max_len=1, logits={"a": math.log(2.0), "b": 0.0}
    )
    instances = [
        Instance(
            id="toy-000",
            evidence=(
                tiny.candidate("a", "m0"),
                tiny.candidate("a", "m0"),
                tiny.candidate("b", "m1"),
            ),
        )
    ]
    cycle = ("m0", "m1")
    for k in range(1, 8):
        dist = ToyDistribution.random(("a", "b"), 4, rng, scale=1.5)
        evidence = tuple(
            replace(c, model_id=cycle[i % 2])
            for i, c in enumerate(dist.sample(10 + 2 * (k % 3), seed=1000 + k))
        )
        hypotheses = None
        if k % 2 == 1:
            hypotheses = tuple(
                replace(c, model_id=cycle[i % 2])
                for i, c in enumerate(dist.sample(6, seed=2000 + k))
            )
        external = None
        if k == 7:
            shape = (len(evidence), len(hypotheses))
            external = tuple(
                tuple(round(float(v), 4) for v in row)
                for row in rng.uniform(0.0, 1.0, size=shape)
            )
        instances.append(
            Instance(
                id=f"toy-{k:03d}",
                evidence=evidence,
                hypotheses=hypotheses,
                external_gain=external,
            )
        )
    return instances
