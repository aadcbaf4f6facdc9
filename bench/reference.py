"""Independent MBR reference for checking `mbrkit decode` output.

Imports nothing from `mbrkit`. It recomputes every output line from the
input line alone and compares:

- weights and expected gains, within a relative tolerance of ``REL_TOL``;
- `selected_index` against the `first` tie rule applied to the reference
  expected gains;
- `selected_text`, `tie_broken`, `id` and `config_echo`.

Gains covered: the unigram overlap kernel ``2*sum(min)/(|a|+|b|)``, sentence
BLEU-4 under the sacrebleu conventions (clipped precisions, effective
order, exponential smoothing of zero-match orders, brevity penalty), and
plurality vote over stripped answers. Weightings covered: uniform, and
length-norm as a softmax of ``s/len**beta - s``. Tokens are the lowercased
whitespace split of the text.

Expected gains are sums over distinct evidence token sequences, which is
exact MBR and cheap on duplicate-heavy inputs. Summation order differs from
the package, hence the tolerance.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass

#: Relative tolerance on weights and expected gains. The package and this
#: reference sum at most a few thousand products in different orders, which
#: moves a result by far less than this.
REL_TOL = 1e-9
ABS_TOL = 1e-15
#: The package's documented tie rule: hypotheses within 1e-12 (absolute) of
#: the maximum expected gain are tied.
TIE_ATOL = 1e-12
#: Slack around TIE_ATOL for the rounding difference between the package's
#: gains and the reference's. A selection is wrong only if it is wrong for
#: every tie threshold in [TIE_ATOL - TIE_SLACK, TIE_ATOL + TIE_SLACK].
TIE_SLACK = 5e-13


@dataclass(frozen=True)
class RefSpec:
    """What the reference recomputes: gain 'rouge1', 'bleu4' or 'answer';
    weighting 'uniform' or 'length_norm' (with exponent `beta`)."""

    gain: str
    weighting: str = "uniform"
    beta: float = 0.0


def tokens(text: str) -> tuple[str, ...]:
    return tuple(text.lower().split())


def unigram_overlap(a: Counter, b: Counter) -> float:
    """Overlap of two unigram count vectors."""
    total = a.total() + b.total()
    if total == 0:
        return 1.0
    return 2.0 * (a & b).total() / total


def ngram_orders(seq: tuple[str, ...], max_order: int = 4) -> list[Counter]:
    """Counts of every n-gram of `seq` for n = 1..max_order."""
    return [Counter(zip(*(seq[k:] for k in range(n)))) for n in range(1, max_order + 1)]


def sentence_bleu(ref: list[Counter], hyp: list[Counter]) -> float:
    """BLEU of the hypothesis against the single reference, both given as
    :func:`ngram_orders` counts."""
    hyp_len, ref_len = hyp[0].total(), ref[0].total()
    if hyp_len == 0:
        return 0.0
    precisions = []
    zero_orders = 0
    for n, (h, r) in enumerate(zip(hyp, ref), start=1):
        total = hyp_len - n + 1
        if total <= 0:
            break
        matches = (h & r).total()
        if matches == 0:
            zero_orders += 1
            precisions.append(1.0 / (2.0 ** zero_orders * total))
        else:
            precisions.append(matches / total)
    score = math.prod(precisions) ** (1.0 / len(precisions))
    if hyp_len < ref_len:
        score *= math.exp(1.0 - ref_len / hyp_len)
    return score


def weights(evidence: list[dict], spec: RefSpec) -> list[float]:
    n = len(evidence)
    if spec.weighting == "uniform":
        return [1.0 / n] * n
    if spec.weighting != "length_norm":
        raise ValueError(f"reference has no weighting {spec.weighting!r}")
    logs = []
    for c in evidence:
        s = float(c["score"])
        logs.append(s / len(tokens(c["text"])) ** spec.beta - s)
    top = max(logs)
    raw = [math.exp(v - top) for v in logs]
    total = math.fsum(raw)
    return [r / total for r in raw]


def _key(c: dict, spec: RefSpec):
    return c["answer"].strip() if spec.gain == "answer" else tokens(c["text"])


def _features(key, spec: RefSpec):
    if spec.gain == "rouge1":
        return Counter(key)
    if spec.gain == "bleu4":
        return ngram_orders(key, 4)
    if spec.gain == "answer":
        return key
    raise ValueError(f"reference has no gain {spec.gain!r}")


def _gain(ev, hyp, spec: RefSpec) -> float:
    if spec.gain == "rouge1":
        return unigram_overlap(ev, hyp)
    if spec.gain == "bleu4":
        return sentence_bleu(ev, hyp)
    return 1.0 if ev == hyp else 0.0


def expected_gains(record: dict, spec: RefSpec) -> tuple[list[float], list[float]]:
    """(weights, expected gain per hypothesis) for one input record."""
    evidence = record["evidence"]
    hyps = record.get("hypotheses") or evidence
    w = weights(evidence, spec)
    mass: dict = {}
    for c, wi in zip(evidence, w):
        mass.setdefault(_key(c, spec), []).append(wi)
    features = {k: _features(k, spec) for k in mass}
    mass = [(features[k], math.fsum(v)) for k, v in mass.items()]
    by_key: dict = {}
    gains = []
    for h in hyps:
        hk = _key(h, spec)
        if hk not in by_key:
            hf = features[hk] if hk in features else _features(hk, spec)
            by_key[hk] = math.fsum(m * _gain(ef, hf, spec) for ef, m in mass)
        gains.append(by_key[hk])
    return w, gains


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def check_line(record: dict, line: str, spec: RefSpec, config_echo: dict) -> str | None:
    """None if `line` is a correct decode of `record`, else the first problem."""
    try:
        out = json.loads(line)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc.msg}"
    rid = record["id"]
    if out.get("id") != rid:
        return f"id {out.get('id')!r} where {rid!r} was expected"
    hyps = record.get("hypotheses") or record["evidence"]
    w, gains = expected_gains(record, spec)
    got_w, got_g = out.get("weights"), out.get("gain_estimates")
    if not isinstance(got_w, list) or len(got_w) != len(w):
        return f"{rid}: weights is not a list of {len(w)} numbers"
    if not isinstance(got_g, list) or len(got_g) != len(gains):
        return f"{rid}: gain_estimates is not a list of {len(gains)} numbers"
    for i, (a, b) in enumerate(zip(got_w, w)):
        if not _close(a, b):
            return f"{rid}: weights[{i}] = {a!r}, reference {b!r}"
    for j, (a, b) in enumerate(zip(got_g, gains)):
        if not _close(a, b):
            return f"{rid}: gain_estimates[{j}] = {a!r}, reference {b!r}"
    top = max(gains)
    allowed = [j for j, g in enumerate(gains) if g >= top - TIE_ATOL - TIE_SLACK]
    required = [j for j, g in enumerate(gains) if g >= top - TIE_ATOL + TIE_SLACK]
    sel = out.get("selected_index")
    if not isinstance(sel, int) or sel not in allowed or sel > required[0]:
        return (f"{rid}: selected_index {sel!r} breaks the 'first' tie rule; "
                f"reference gains select {required[0]}")
    if out.get("selected_text") != hyps[sel]["text"]:
        return f"{rid}: selected_text is not the text of hypothesis {sel}"
    tie = out.get("tie_broken")
    if (len(required) > 1 and tie is not True) or (len(allowed) == 1 and tie is not False):
        return f"{rid}: tie_broken {tie!r} for {len(required)}-{len(allowed)} tied hypotheses"
    if out.get("config_echo") != config_echo:
        return f"{rid}: config_echo {out.get('config_echo')!r}"
    return None


def check_output(records: list[dict], lines: list[str], spec: RefSpec,
                 config_echo: dict) -> list[str]:
    """Every problem found, one per bad output line, plus a count mismatch."""
    problems = []
    if len(lines) != len(records):
        problems.append(f"{len(lines)} output lines for {len(records)} input lines")
    for record, line in zip(records, lines):
        problem = check_line(record, line, spec, config_echo)
        if problem is not None:
            problems.append(problem)
    return problems
