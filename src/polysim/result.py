"""Run results and helpers shared by every backend."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sampling import SamplingError


class BackendError(RuntimeError):
    """A backend could not execute the circuit it was given."""


class NoMeasurementsError(BackendError):
    """The circuit measures nothing, so sampling would produce empty counts."""


class QubitCapError(BackendError):
    """The circuit needs more qubits than the backend is configured to hold."""


# A sorted search pays for its argsort only with many shots on a large
# support.  With numpy 2.4 on a 2-CPU Xeon, 1000 shots took 42 -> 33 us on
# 2^10 bins and 360 -> 196 us on 2^20 bins, but 300 shots were slower
# sorted at every support size, and so were 20000 shots on 16 bins.  One
# threshold, about the smallest gain measured, serves shots and bins.
SORTED_SEARCH_MIN = 1 << 10


@dataclass
class RunResult:
    counts: dict[str, int]
    shots: int
    backend: str
    seed: int
    wall_time: float
    metadata: dict = field(default_factory=dict)


def sample_measurement_groups(
    groups: list[tuple[tuple[int, ...], np.ndarray]],
    order: list[int],
    shots: int,
    rng: np.random.Generator,
) -> dict[str, int]:
    """Sample terminal measurements from per-group marginal distributions.

    Each group is a set of measured qubits (ascending) together with their
    joint probability vector, little-endian in that qubit order.  Groups are
    independent, so a full shot is assembled from one draw per group.  A
    group's draws are made by inverse CDF: one cumulative sum and a binary
    search per shot, with no table to build.  Consumes each group's
    probabilities: the cumulative sum is taken in place (its values are
    those of an out-of-place sum), so a caller passes a float array of its
    own, as ``statevector.marginal_probs`` returns, and does not read it
    afterwards.  From ``SORTED_SEARCH_MIN`` shots on a support at least as
    large, the shots' uniforms are searched in sorted order, where each
    search starts near the last, and each index is stored back at its shot,
    so the draws are those of an unsorted search.  Each draw's bits
    are packed into as many 63-bit words as the measured qubits need, so the
    number of measured qubits is not capped.  Keys read the qubits in
    ``order``, which may list a qubit more than once.
    """
    words: list[np.ndarray] = []
    where: dict[int, tuple[int, int]] = {}  # qubit -> (word, bit)
    used = 63
    for qubits, probs in groups:
        cdf = np.cumsum(probs, out=probs)
        if not abs(cdf[-1] - 1.0) <= 1e-9:
            raise SamplingError(f"probabilities sum to {cdf[-1]}, not 1")
        u = rng.random(shots) * cdf[-1]
        if shots >= SORTED_SEARCH_MIN and len(cdf) >= SORTED_SEARCH_MIN:
            sorted_at = np.argsort(u)
            idx = np.empty(shots, dtype=np.intp)
            idx[sorted_at] = np.searchsorted(cdf, u[sorted_at], side="right")
        else:
            idx = np.searchsorted(cdf, u, side="right")
        np.minimum(idx, len(probs) - 1, out=idx)
        if used + len(qubits) > 63:
            words.append(np.zeros(shots, dtype=np.int64))
            used = 0
        words[-1] |= idx << used
        for j, q in enumerate(qubits):
            where[q] = (len(words) - 1, used + j)
        used += len(qubits)
    if len(words) == 1:
        rows, freq = np.unique(words[0], return_counts=True)
        rows = rows[:, None]
    else:
        rows, freq = np.unique(np.stack(words, axis=1), axis=0, return_counts=True)

    bits = np.empty((len(rows), len(order)), dtype=np.uint8)
    for pos, q in enumerate(order):
        w, j = where[q]
        bits[:, pos] = (rows[:, w] >> j) & 1
    return counts_by_row(bits, freq)


def counts_by_row(bits: np.ndarray, freq: np.ndarray) -> dict[str, int]:
    """Counts keyed by each row of a 0/1 uint8 matrix read left to right.

    Consumes ``bits``: the ASCII offset is added in place, so a caller passes
    a C-ordered matrix of its own and does not read it afterwards.  Rows that
    read the same (they differ only in bits no key shows) add up.
    """
    width = bits.shape[1]
    bits += ord("0")
    text = str(bits.reshape(-1).data, "ascii")  # decoded from the buffer, no bytes copy
    keys = [text[i:i + width] for i in range(0, len(text), width)]
    freq = freq.tolist()
    counts = dict(zip(keys, freq))
    if len(counts) < len(keys):
        counts = {}
        for key, k in zip(keys, freq):
            counts[key] = counts.get(key, 0) + k
    return counts
