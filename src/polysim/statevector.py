"""Dense state-vector backend.

Qubit 0 is the least significant bit of the amplitude index.  Gate kernels
operate in place on reshaped views, with special paths for diagonal and
generalized-permutation matrices so the Clifford workhorses (cx, cz, swap,
phase gates) touch each amplitude once.  ``SvState`` is the state the shot
engine (``polysim.engine``) walks; terminal draws go through an alias table
over the measured qubits' marginal.
"""
from __future__ import annotations

import time
import weakref

import numpy as np

from . import gates
from .circuit import ONE_QUBIT_GATES, Circuit
from .engine import run_shots
from .features import extract_features
from .result import BackendError, QubitCapError, RunResult, sample_measurement_groups

DEFAULT_QUBIT_CAP = 26


def apply_1q(amps: np.ndarray, n: int, q: int, m: np.ndarray) -> None:
    arr = amps.reshape(-1, 2, 1 << q)
    if m[0, 1] == 0 and m[1, 0] == 0:
        if m[0, 0] != 1:
            arr[:, 0, :] *= m[0, 0]
        if m[1, 1] != 1:
            arr[:, 1, :] *= m[1, 1]
        return
    if m[0, 0] == 0 and m[1, 1] == 0:
        tmp = arr[:, 0, :].copy()
        arr[:, 0, :] = arr[:, 1, :]
        arr[:, 1, :] = tmp
        if m[0, 1] != 1:
            arr[:, 0, :] *= m[0, 1]
        if m[1, 0] != 1:
            arr[:, 1, :] *= m[1, 0]
        return
    lo = arr[:, 0, :].copy()
    hi = arr[:, 1, :]
    arr[:, 0, :] = m[0, 0] * lo + m[0, 1] * hi
    arr[:, 1, :] = m[1, 0] * lo + m[1, 1] * hi


def _slice_2q(amps: np.ndarray, n: int, qa: int, qb: int):
    """Views of the four (b_a, b_b) amplitude subsets for qubits qa, qb."""
    lo, hi = (qa, qb) if qa < qb else (qb, qa)
    arr = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)

    def view(i: int):
        b_a = i & 1
        b_b = (i >> 1) & 1
        if qa < qb:
            return arr[:, b_b, :, b_a, :]
        return arr[:, b_a, :, b_b, :]

    return view


def apply_2q(amps: np.ndarray, n: int, qa: int, qb: int, m: np.ndarray) -> None:
    view = _slice_2q(amps, n, qa, qb)
    nonzero = [np.flatnonzero(m[i]) for i in range(4)]
    if all(len(nz) == 1 for nz in nonzero):
        sources = [int(nz[0]) for nz in nonzero]
        if sources == [0, 1, 2, 3]:  # diagonal
            for i in range(4):
                if m[i, i] != 1:
                    view(i)[...] *= m[i, i]
            return
        # Generalized permutation: follow each cycle with one temporary.
        done = [False] * 4
        for start in range(4):
            if done[start]:
                continue
            cycle = [start]
            nxt = sources[start]
            while nxt != start:
                cycle.append(nxt)
                nxt = sources[nxt]
            if len(cycle) == 1:
                if m[start, start] != 1:
                    view(start)[...] *= m[start, start]
                done[start] = True
                continue
            tmp = view(cycle[-1]).copy()
            for i in range(len(cycle) - 1, 0, -1):
                dst, src = cycle[i], cycle[i - 1]
                view(dst)[...] = m[dst, src] * view(src) if m[dst, src] != 1 else view(src)
                done[dst] = True
            first = cycle[0]
            view(first)[...] = m[first, cycle[-1]] * tmp if m[first, cycle[-1]] != 1 else tmp
            done[first] = True
        return
    temps = [view(i).copy() for i in range(4)]
    for i in range(4):
        acc = None
        for j in range(4):
            if m[i, j] == 0:
                continue
            term = temps[j] if m[i, j] == 1 else m[i, j] * temps[j]
            acc = term if acc is None else acc + term
        view(i)[...] = 0 if acc is None else acc


def apply_instruction(amps: np.ndarray, n: int, inst) -> None:
    if inst.kind == "barrier":
        return
    if inst.kind in ONE_QUBIT_GATES:
        apply_1q(amps, n, inst.qubits[0], gates.single_qubit_matrix(inst.kind, inst.params))
    else:
        apply_2q(amps, n, inst.qubits[0], inst.qubits[1], gates.two_qubit_matrix(inst.kind))


def zero_state(n: int) -> np.ndarray:
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return amps


def marginal_probs(amps: np.ndarray, n: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Joint probabilities of the given (ascending) qubits, little-endian."""
    probs = np.abs(amps.reshape([2] * n)) ** 2
    drop = tuple(n - 1 - q for q in range(n) if q not in set(qubits))
    if drop:
        probs = probs.sum(axis=drop)
    # Remaining axes run from the highest kept qubit down to the lowest, which
    # is exactly little-endian order after flattening.
    return probs.reshape(-1)


def prob_one(amps: np.ndarray, q: int) -> float:
    """Probability that qubit q reads 1."""
    return float(np.linalg.norm(amps.reshape(-1, 2, 1 << q)[:, 1, :]) ** 2)


def project(amps: np.ndarray, q: int, bit: int) -> None:
    """Collapse qubit q onto |bit> in place and renormalize."""
    arr = amps.reshape(-1, 2, 1 << q)
    arr[:, 1 - bit, :] = 0.0
    amps *= 1.0 / np.sqrt(np.vdot(amps, amps).real)


class SvState:
    """A dense state as the shot engine walks it."""

    def __init__(self, amps: np.ndarray, n: int):
        self.amps = amps
        self.n = n

    def copy(self) -> "SvState":
        return SvState(self.amps.copy(), self.n)

    def apply(self, inst) -> None:
        apply_instruction(self.amps, self.n, inst)

    def p1(self, q: int) -> float:
        return prob_one(self.amps, q)

    def project(self, q: int, bit: int) -> None:
        project(self.amps, q, bit)

    def sample(self, measures, count: int, rng: np.random.Generator) -> dict[str, int]:
        qubits = tuple(sorted({q for q, _ in measures}))
        probs = marginal_probs(self.amps, self.n, qubits)
        return sample_measurement_groups([(qubits, probs)], measures, count, rng)


def run(
    c: Circuit,
    shots: int,
    seed: int,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> RunResult:
    """Execute a circuit and return sampled measurement counts.

    The shot engine (``polysim.engine``) walks one dense state and copies it
    only where a mid-circuit measurement or reset splits the shots, so a run
    costs one pass per distinct measurement history.  Terminal measurements
    are drawn from the final state's marginal through an alias table.
    """
    if c.n_qubits > qubit_cap:
        raise QubitCapError(f"{c.n_qubits} qubits exceeds the configured cap {qubit_cap}")
    start = time.perf_counter()
    counts = run_shots(
        SvState(zero_state(c.n_qubits), c.n_qubits),
        c.instructions,
        shots,
        np.random.default_rng(seed),
    )
    wall = time.perf_counter() - start
    return RunResult(counts=counts, shots=shots, backend="sv", seed=seed, wall_time=wall)


_state_cache: "weakref.WeakKeyDictionary[Circuit, np.ndarray]" = weakref.WeakKeyDictionary()


def final_state(c: Circuit, qubit_cap: int = DEFAULT_QUBIT_CAP) -> np.ndarray:
    """The state after the circuit's unitary part, cached per Circuit object."""
    cached = _state_cache.get(c)
    if cached is not None:
        return cached
    if c.n_qubits > qubit_cap:
        raise QubitCapError(f"{c.n_qubits} qubits exceeds the configured cap {qubit_cap}")
    features = extract_features(c)
    if not features.terminal_measurement_only:
        raise BackendError("expectation values need a circuit without mid-circuit collapse")
    amps = zero_state(c.n_qubits)
    for inst in c.instructions:
        if inst.is_unitary:
            apply_instruction(amps, c.n_qubits, inst)
    _state_cache[c] = amps
    return amps


def expectation(c: Circuit, z_qubits, qubit_cap: int = DEFAULT_QUBIT_CAP) -> float:
    """<Z x ... x Z> over the given qubits, from one pass over probabilities.

    Uses the cached post-circuit state, so repeated observables on the same
    circuit object pay for a single execution.
    """
    z_qubits = tuple(z_qubits)
    for q in z_qubits:
        if not 0 <= q < c.n_qubits:
            raise ValueError(f"qubit {q} out of range")
    amps = final_state(c, qubit_cap=qubit_cap)
    probs = np.abs(amps) ** 2
    mask = np.uint64(sum(1 << q for q in set(z_qubits)))
    indices = np.arange(probs.size, dtype=np.uint64)
    parity = (np.bitwise_count(indices & mask) & np.uint64(1)).astype(float)
    return float(np.sum(probs * (1.0 - 2.0 * parity)))
