"""Dense state-vector backend.

Qubit 0 is the least significant bit of the amplitude index.  ``run`` first
fuses the circuit (``fuse``): every one-qubit gate is folded into the next
two-qubit gate on its qubit, so a layer of one- and two-qubit gates costs
one kernel per pair.  Kernels work in place.  Diagonal and
generalized-permutation matrices (cx, cz, swap, phase gates, and fused
products of them) touch each amplitude once; any other matrix is applied as
one matmul per chunk of ``CHUNK`` amplitudes gathered into a small buffer,
so no temporary grows with the state.  ``SvState`` is the state the shot
engine (``polysim.engine``) walks; terminal draws come from the measured
qubits' marginal through ``sample_measurement_groups``.
"""
from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from . import gates
from .circuit import ONE_QUBIT_GATES, TWO_QUBIT_GATES, Circuit
from .engine import run_shots
from .features import extract_features  # noqa: F401  (module attribute wrapped by perfbench)
from .result import QubitCapError, RunResult, sample_measurement_groups

QUBIT_CAP = 26  # 1 GiB of complex128 amplitudes

# Amplitudes one dense kernel gathers per matmul: 128 KiB of complex128, so
# the buffer and its product stay in cache while the state streams through.
# 2^12..2^15 ran about equally fast on 12- to 22-qubit states (numpy 2.4,
# OpenBLAS 0.3.31, 2 CPUs).  From 2^14 OpenBLAS ran the 4x4 products on two
# threads, no faster, and the idle worker kept spinning afterwards, slowing
# the single-threaded work that followed.
CHUNK = 1 << 13


class FusedGate(NamedTuple):
    """A product of consecutive gates on ``qubits``, built by ``fuse``.

    Two-qubit matrices follow ``polysim.gates``: the first qubit is the low
    bit of the local index.
    """

    qubits: tuple[int, ...]
    matrix: np.ndarray
    kind: str = "fused"


def fuse(instructions) -> list:
    """Fold every one-qubit gate into the next two-qubit gate on its qubit.

    A pending 2x2 per qubit collects the one-qubit gates since the qubit's
    last two-qubit gate, later gates multiplied on the left.  A two-qubit
    gate on ``(a, b)`` absorbs both pending matrices as ``G . kron(P_b, P_a)``,
    since its first qubit is the low bit.  A measure or reset flushes its
    qubit's pending matrix just before it, and the end flushes the rest.  A
    gate that absorbs nothing passes through unchanged; barriers are dropped.
    The result keeps each op's ``kind`` and ``qubits``, so the shot engine
    splits on it exactly as on the original instructions.  The 2x2 products
    are Python arithmetic on row-major tuples: at a few microseconds per gate
    the pass stays cheap beside the kernels of even a small circuit.
    """
    out: list = []
    pending: dict[int, tuple] = {}  # qubit -> (row-major 2x2, its lone Instruction or None)

    def flush(q: int) -> None:
        m, lone = pending.pop(q)
        out.append(lone if lone is not None else FusedGate((q,), np.array(m).reshape(2, 2)))

    for inst in instructions:
        kind = inst.kind
        if kind in ONE_QUBIT_GATES:
            q = inst.qubits[0]
            m = gates.single_qubit_entries(kind, inst.params)
            prev = pending.get(q)
            pending[q] = (m, inst) if prev is None else (_times_2x2(m, prev[0]), None)
        elif kind in TWO_QUBIT_GATES:
            a, b = inst.qubits
            pa = pending.pop(a, None)
            pb = pending.pop(b, None)
            if pa is None and pb is None:
                out.append(inst)
                continue
            k = _kron_2x2(_IDENTITY if pb is None else pb[0], _IDENTITY if pa is None else pa[0])
            g = [phase * v for src, phase in _ROWS_2Q[kind] for v in k[4 * src:4 * src + 4]]
            out.append(FusedGate((a, b), np.array(g).reshape(4, 4)))
        elif kind != "barrier":  # measure or reset
            if inst.qubits[0] in pending:
                flush(inst.qubits[0])
            out.append(inst)
    for q in list(pending):
        flush(q)
    return out


_IDENTITY = (1 + 0j, 0j, 0j, 1 + 0j)

# Each two-qubit gate is a permutation with phases: row r of G is ``phase``
# times unit row ``src``, so row r of G . K is ``phase`` times row ``src`` of K.
# (A gate with more nonzeros would give ``fuse`` more than 16 entries, which
# ``reshape(4, 4)`` rejects.)
_ROWS_2Q = {
    kind: [(int(src), complex(row[src]))
           for row in gates.two_qubit_matrix(kind) for src in np.flatnonzero(row)]
    for kind in TWO_QUBIT_GATES
}


def _times_2x2(m: tuple, p: tuple) -> tuple:
    """m . p for row-major 2x2 tuples."""
    return (
        m[0] * p[0] + m[1] * p[2], m[0] * p[1] + m[1] * p[3],
        m[2] * p[0] + m[3] * p[2], m[2] * p[1] + m[3] * p[3],
    )


def _kron_2x2(hi: tuple, lo: tuple) -> tuple:
    """kron(hi, lo) for row-major 2x2 tuples, as a row-major 4x4 tuple."""
    h0, h1, h2, h3 = hi
    l0, l1, l2, l3 = lo
    return (
        h0 * l0, h0 * l1, h1 * l0, h1 * l1,
        h0 * l2, h0 * l3, h1 * l2, h1 * l3,
        h2 * l0, h2 * l1, h3 * l0, h3 * l1,
        h2 * l2, h2 * l3, h3 * l2, h3 * l3,
    )


def _apply_dense(arr: np.ndarray, m: np.ndarray, order: tuple[int, ...]) -> None:
    """Apply ``m`` in place to the 5-axis view ``arr = (A, 2, B, 2, C)``.

    Axes 1 and 3 hold the gate's qubits (axis 3 has length 1 for a one-qubit
    gate); ``order`` moves them to the front so that a block's transpose
    flattens to the gate's local index.  Blocks of at most ``CHUNK``
    amplitudes are gathered into one buffer, multiplied by one matmul and
    scattered back, so no temporary grows with the state.
    """
    k = len(m)
    a_len, _, b_len, _, c_len = arr.shape
    span = CHUNK // k  # positions per block
    if c_len >= span:
        ra, rb, rc = 1, 1, span
    elif b_len * c_len >= span:
        ra, rb, rc = 1, span // c_len, c_len
    else:
        ra, rb, rc = min(a_len, span // (b_len * c_len)), b_len, c_len
    buf = np.empty((arr.shape[order[0]], arr.shape[order[1]], ra, rb, rc), dtype=complex)
    out = np.empty_like(buf)
    flat_buf, flat_out = buf.reshape(k, -1), out.reshape(k, -1)
    for a in range(0, a_len, ra):
        for b in range(0, b_len, rb):
            for c in range(0, c_len, rc):
                local = arr[a:a + ra, :, b:b + rb, :, c:c + rc].transpose(order)
                buf[...] = local
                m.dot(flat_buf, out=flat_out)
                local[...] = out


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
    _apply_dense(arr.reshape(-1, 2, 1, 1, 1 << q), m, (1, 3, 0, 2, 4))


def apply_2q(amps: np.ndarray, n: int, qa: int, qb: int, m: np.ndarray) -> None:
    lo, hi = (qa, qb) if qa < qb else (qb, qa)
    arr = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    rows, sources = np.nonzero(m)
    if len(rows) != 4:
        _apply_dense(arr, m, (1, 3, 0, 2, 4) if qa < qb else (3, 1, 0, 2, 4))
        return

    def view(i: int):
        """The amplitudes whose (b_a, b_b) local index is i."""
        b_a = i & 1
        b_b = (i >> 1) & 1
        if qa < qb:
            return arr[:, b_b, :, b_a, :]
        return arr[:, b_a, :, b_b, :]

    # A unitary with four nonzeros is a generalized permutation: row i reads
    # only amplitude subset sources[i].
    sources = sources.tolist()
    if sources == [0, 1, 2, 3]:  # diagonal
        for i in range(4):
            if m[i, i] != 1:
                view(i)[...] *= m[i, i]
        return
    # Follow each cycle with one temporary: row cycle[i] reads cycle[i + 1].
    done = [False] * 4
    for start in range(4):
        if done[start]:
            continue
        cycle = [start]
        nxt = sources[start]
        while nxt != start:
            cycle.append(nxt)
            nxt = sources[nxt]
        for i in cycle:
            done[i] = True
        if len(cycle) == 1:
            if m[start, start] != 1:
                view(start)[...] *= m[start, start]
            continue
        tmp = view(cycle[0]).copy()
        for dst, src in zip(cycle, cycle[1:]):
            view(dst)[...] = m[dst, src] * view(src) if m[dst, src] != 1 else view(src)
        last = cycle[-1]
        view(last)[...] = m[last, start] * tmp if m[last, start] != 1 else tmp


def apply_instruction(amps: np.ndarray, n: int, inst) -> None:
    """Apply one gate in place: an ``Instruction`` or a ``FusedGate`` from ``fuse``."""
    kind = inst.kind
    if kind == "fused":
        m = inst.matrix
    elif kind in ONE_QUBIT_GATES:
        m = gates.single_qubit_matrix(kind, inst.params)
    else:
        m = gates.two_qubit_matrix(kind)
    if len(inst.qubits) == 1:
        apply_1q(amps, n, inst.qubits[0], m)
    else:
        apply_2q(amps, n, inst.qubits[0], inst.qubits[1], m)


def zero_state(n: int) -> np.ndarray:
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return amps


def marginal_probs(amps: np.ndarray, n: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Joint probabilities of the given (ascending) qubits, little-endian."""
    probs = np.abs(amps)
    np.square(probs, out=probs)  # in place: one full-size temporary, not two
    probs = probs.reshape([2] * n)
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
    """A dense state as the shot engine walks it.

    Its cost does not grow with entanglement, so it takes the engine's
    diagonal rule: feed-forward corrections do not split the walk.
    """

    defers_through_diagonals = True

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

    def sample(self, qubits, count: int, rng: np.random.Generator) -> dict[str, int]:
        group = tuple(sorted(set(qubits)))
        probs = marginal_probs(self.amps, self.n, group)
        return sample_measurement_groups([(group, probs)], qubits, count, rng)


def run(c: Circuit, shots: int, seed: int) -> RunResult:
    """Execute a circuit and return sampled measurement counts.

    The circuit is fused first (``fuse``), so each kernel applies a gate
    together with the one-qubit gates folded into it.  The shot engine
    (``polysim.engine``) walks one dense state over the fused ops and copies
    it only where a mid-circuit measurement or reset splits the shots, so a
    run costs one pass per distinct measurement history.  Terminal
    measurements are drawn from the final state's marginal by
    ``sample_measurement_groups``.
    """
    if c.n_qubits > QUBIT_CAP:
        raise QubitCapError(f"{c.n_qubits} qubits exceeds the cap of {QUBIT_CAP}")
    start = time.perf_counter()
    paths = []
    counts = run_shots(
        SvState(zero_state(c.n_qubits), c.n_qubits),
        fuse(c.instructions),
        shots,
        np.random.default_rng(seed),
        on_leaf=lambda state: paths.append(1),
    )
    wall = time.perf_counter() - start
    return RunResult(
        counts=counts, shots=shots, backend="sv", seed=seed, wall_time=wall,
        metadata={"paths": len(paths)},
    )
