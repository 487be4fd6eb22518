"""Correctness checks on sampled counts, and the corruptions that must fail them.

A ``Verdict`` collects hard failures (a property that holds on every shot,
such as the shot total or an impossible outcome) and p-values from
statistical tests.  All tests of one run share a family-wise false-alarm
rate ``ALPHA``, split evenly among them (Bonferroni), so a correct program
fails a run with probability below ``ALPHA`` however many tests it makes.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import stats

from reference import parity_checks

ALPHA = 1e-5
IMPOSSIBLE = 1e-12


class Verdict:
    def __init__(self):
        self.failures: list[str] = []
        self.pvalues: list[tuple[float, str]] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def test(self, p: float, label: str) -> None:
        self.pvalues.append((float(p), label))

    def finish(self) -> list[str]:
        """All failures, statistical ones included, at the corrected threshold."""
        out = list(self.failures)
        if self.pvalues:
            threshold = ALPHA / len(self.pvalues)
            out += [f"{label}: p={p:.3g} < {threshold:.3g}"
                    for p, label in self.pvalues if p < threshold]
        return out


def check_shape(v: Verdict, name: str, counts: dict, shots: int, width: int) -> bool:
    """Counts sum to the shots and every key has the declared width."""
    total = sum(counts.values())
    ok = True
    if total != shots:
        v.fail(f"{name}: counts sum to {total}, not {shots}")
        ok = False
    bad = [k for k in counts if len(k) != width or set(k) - {"0", "1"}]
    if bad:
        v.fail(f"{name}: key {bad[0]!r} is not a {width}-bit string")
        ok = False
    if any(not isinstance(c, int) or c < 1 for c in counts.values()):
        v.fail(f"{name}: counts must be positive integers")
        ok = False
    return ok


def bit_matrix(counts: dict, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(distinct outcomes x clbits) bits, column c holding clbit c, and weights."""
    keys = list(counts)
    bits = np.array([[int(ch) for ch in reversed(k)] for k in keys], dtype=np.int64)
    return bits.reshape(len(keys), width), np.array([counts[k] for k in keys], dtype=np.int64)


def chi_square(v: Verdict, label: str, observed: dict, law: dict, shots: int) -> None:
    """Pooled chi-square of counts against an exact law over the same keys.

    Outcomes expected at least five times keep their own cell; the rest are
    pooled.  An outcome the law gives (nearly) zero probability fails at once.
    """
    impossible = [k for k in observed if law.get(k, 0.0) < IMPOSSIBLE]
    if impossible:
        v.fail(f"{label}: impossible outcome {impossible[0]!r} observed")
        return
    cells_o, cells_e = [], []
    rest_o, rest_e = 0, 0.0
    for key, p in law.items():
        e = shots * p
        if e >= 5:
            cells_o.append(observed.get(key, 0))
            cells_e.append(e)
        else:
            rest_o += observed.get(key, 0)
            rest_e += e
    if rest_e > 0:
        if rest_e >= 5 or not cells_e:
            cells_o.append(rest_o)
            cells_e.append(rest_e)
        else:
            j = int(np.argmin(cells_e))
            cells_o[j] += rest_o
            cells_e[j] += rest_e
    if len(cells_e) < 2:
        return
    o = np.array(cells_o, dtype=float)
    e = np.array(cells_e, dtype=float)
    stat = float(((o - e) ** 2 / e).sum())
    v.test(stats.chi2.sf(stat, len(e) - 1), label)


def marginal(counts: dict, clbits: tuple, width: int) -> dict:
    """Counts of the sub-key over ``clbits``, highest listed clbit leftmost."""
    out: dict = {}
    for key, c in counts.items():
        sub = "".join(key[width - 1 - b] for b in reversed(clbits))
        out[sub] = out.get(sub, 0) + c
    return out


def law_table(n_bits: int, prob) -> dict:
    """Law over n-bit keys, bit 0 rightmost, from ``prob(list of bits)``."""
    table = {}
    for code in range(1 << n_bits):
        bits = [(code >> j) & 1 for j in range(n_bits)]
        table["".join(str(b) for b in reversed(bits))] = prob(bits)
    return table


def product_law(ps: list[float]) -> dict:
    """Law of independent bits, bit j set with probability ps[j]."""
    return law_table(len(ps), lambda bits: math.prod(p if b else 1 - p for p, b in zip(ps, bits)))


def fair_bits(v: Verdict, label: str, ones: np.ndarray, shots: int) -> None:
    """Two-sided binomial tests that each count of ones comes from p = 1/2."""
    k = np.minimum(ones, shots - ones)
    p = np.minimum(1.0, 2.0 * stats.binom.cdf(k, shots, 0.5))
    for j, pj in enumerate(np.atleast_1d(p)):
        v.test(pj, f"{label}[{j}]")


def check_affine(v: Verdict, name: str, counts: dict, shots: int, a: np.ndarray,
                 a0: np.ndarray) -> None:
    """Counts of a Clifford circuit against its affine law.

    Every outcome must satisfy the law's parity checks; every bit and every
    XOR of two bits that the law does not fix must be fair.
    """
    width = a.shape[0]
    bits, w = bit_matrix(counts, width)
    h = parity_checks(a).astype(np.int64)
    if h.size:
        syndromes = (bits ^ a0[None, :].astype(np.int64)) @ h.T % 2
        bad = np.flatnonzero(syndromes.any(axis=1))
        if bad.size:
            v.fail(f"{name}: outcome outside the stabilizer law ({bad.size} distinct)")
            return
    random_bit = a.any(axis=1)
    ones = (bits * w[:, None]).sum(axis=0)
    idx = np.flatnonzero(random_bit)
    if idx.size:
        fair_bits(v, f"{name} bit", ones[idx], shots)
    if idx.size > 1:
        sub = bits[:, idx]
        both = (sub * w[:, None]).T @ sub
        xor_ones = ones[idx][:, None] + ones[idx][None, :] - 2 * both
        ai = a[idx].astype(np.int64)
        same = (ai @ ai.T + (1 - ai) @ (1 - ai).T) == a.shape[1]
        iu = np.triu_indices(idx.size, 1)
        free = ~same[iu]
        fair_bits(v, f"{name} xor", xor_ones[iu][free], shots)


def check_product(v: Verdict, name: str, counts: dict, shots: int, ps: list[float]) -> None:
    """Independent bits: each bit's marginal and each adjacent pair's joint law."""
    width = len(ps)
    for c in range(width):
        chi_square(v, f"{name} bit{c}", marginal(counts, (c,), width), product_law([ps[c]]), shots)
    for c in range(width - 1):
        chi_square(v, f"{name} bits{c},{c + 1}", marginal(counts, (c, c + 1), width),
                   product_law([ps[c], ps[c + 1]]), shots)


def check_xeb(v: Verdict, name: str, counts: dict, shots: int, blocks: list) -> None:
    """Linear cross-entropy of the samples against an exact block-product law.

    ``blocks`` lists (qubits, probs) with ``probs[code]`` the exact probability
    of the block's outcome whose bit j is the j-th listed qubit; the blocks are
    independent.  Under the exact law, 2^n p(x) has a known mean and variance,
    so the sample mean gives a z-test.
    """
    width = sum(len(q) for q, _ in blocks)
    bits, w = bit_matrix(counts, width)
    sample = np.ones(len(w))
    m2 = m3 = 1.0
    for qubits, probs in blocks:
        code = (bits[:, qubits] << np.arange(len(qubits))).sum(axis=1)
        sample *= probs.size * probs[code]
        m2 *= probs.size * float((probs ** 2).sum())
        m3 *= probs.size ** 2 * float((probs ** 3).sum())
    mean = float((sample * w).sum() / shots)
    sd = math.sqrt(max(m3 - m2 * m2, 1e-300) / shots)
    v.test(2 * stats.norm.sf(abs(mean - m2) / sd), f"{name} xeb")


# --- corruptions ------------------------------------------------------------------


def reverse_bits(counts: dict) -> dict:
    return {k[::-1]: c for k, c in counts.items()}


def drop_outcome(counts: dict) -> dict:
    top = max(sorted(counts), key=lambda k: counts[k])
    return {k: c for k, c in counts.items() if k != top}


def skew_marginal(counts: dict) -> dict:
    """Move half of the shots with clbit 0 = 0 onto clbit 0 = 1."""
    out = dict(counts)
    for k in sorted(counts):
        if k[-1] == "0":
            moved = (counts[k] + 1) // 2
            out[k] -= moved
            flipped = k[:-1] + "1"
            out[flipped] = out.get(flipped, 0) + moved
    return {k: c for k, c in out.items() if c}


CORRUPTIONS = {"reverse": reverse_bits, "drop": drop_outcome, "skew": skew_marginal}
