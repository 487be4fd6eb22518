"""Dense state-vector backend.

Qubit 0 is the least significant bit of the amplitude index.  ``run`` first
fuses the circuit (``fuse``): every one-qubit gate is folded into the next
two-qubit gate on its qubit, so a layer of one- and two-qubit gates costs
one kernel per pair.  On states of at least ``WIDE_MIN`` qubits whose
circuit the shot engine walks once (no reset, and no gate after a
measurement on that measurement's qubit), consecutive kernels are then
grouped into kernels of up to ``WIDTH`` (4) qubits, so two disjoint pairs
cost one pass over the state instead of two; any other circuit keeps the
folded stream.  Kernels work in place.  Diagonal and generalized-permutation
matrices (cx, cz, swap, phase gates, and fused products of them) touch each
amplitude once; any other matrix is applied as one matmul per chunk of
``CHUNK`` amplitudes (``WIDE_CHUNK`` for 3 and 4 qubits) gathered into a
small buffer, so no temporary grows with the state.  ``SvState`` is the
state the shot engine (``polysim.engine``) walks.  Its terminal draw is its
last use, so the measured qubits' marginal is written over the state's own
memory and ``sample_measurement_groups`` consumes it: the draw allocates no
array of the state's size.
"""
from __future__ import annotations

import functools
import itertools
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
# the single-threaded work that followed.  Kernels of 3 and 4 qubits gather
# ``WIDE_CHUNK``: on random qubit sets of 18- to 22-qubit states, one
# thread, 2^14 ran 3-7% faster than 2^13 and 1-19% faster than 2^15.
CHUNK = 1 << 13
WIDE_CHUNK = 1 << 14

# ``fuse`` groups gates into kernels of up to ``WIDTH`` qubits on states of
# at least ``WIDE_MIN`` qubits.  Below it the grouping pass and the wider
# matmul cost more than the passes they save.  On random layered circuits
# (4 layers of u on every qubit and cx on a random pairing, 1000 shots, one
# thread, three seeds) the widened run took 1.0-1.7x the folded one's time
# at 6-14 qubits, 0.93-0.97x at 15, 0.82-0.91x at 16 and 0.80-0.91x at
# 17-20 (``BENCH_22.json``).  The threshold sits one qubit past that
# crossover, where the gain is clear of the host's spread.
WIDTH = 4
WIDE_MIN = 16


class FusedGate(NamedTuple):
    """A product of consecutive gates on ``qubits``, built by ``fuse``.

    Matrices follow ``polysim.gates``: ``qubits[i]`` is bit i of the local
    index, so the first qubit is the low bit.
    """

    qubits: tuple[int, ...]
    matrix: np.ndarray
    kind: str = "fused"


def fuse(instructions, n_qubits: int = 0) -> list:
    """The kernels ``run`` applies: one-qubit gates folded into two-qubit
    gates and, on states of ``WIDE_MIN`` qubits or more, grouped into
    kernels of up to ``WIDTH`` qubits.

    Folding.  A pending 2x2 per qubit collects the one-qubit gates since the
    qubit's last two-qubit gate, later gates multiplied on the left.  A
    two-qubit gate on ``(a, b)`` absorbs both pending matrices as
    ``G . kron(P_b, P_a)``, since its first qubit is the low bit.  A measure
    or reset flushes its qubit's pending matrix just before it, and the end
    flushes the rest.  A gate that absorbs nothing passes through unchanged;
    barriers are dropped.  The 2x2 products are Python arithmetic on
    row-major tuples: at a few microseconds per gate the pass stays cheap
    beside the kernels of even a small circuit.

    Grouping (``_widen``) runs only when ``n_qubits >= WIDE_MIN`` and the
    shot engine walks the circuit once: no reset, and no gate after a
    measurement on that measurement's qubit.  Then no op splits, so the
    engine's split, known-value and schedule rules never see a wide kernel.
    Otherwise the folded stream is returned as it is, so it keeps each op's
    ``kind`` and ``qubits`` and the engine splits on it exactly as on the
    original instructions.  Measurements keep their order either way.
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
    return _widen(out) if n_qubits >= WIDE_MIN and _walks_once(out) else out


def _walks_once(ops) -> bool:
    """No reset, and no gate after a measurement on that measurement's qubit."""
    measured: set[int] = set()
    for op in ops:
        if op.kind == "reset":
            return False
        if op.kind == "measure":
            measured.add(op.qubits[0])
        elif not measured.isdisjoint(op.qubits):
            return False
    return True


def _widen(ops: list) -> list:
    """Group consecutive gates of a folded stream into kernels of up to ``WIDTH`` qubits.

    In the style of qsim's greedy fusion (Isakov et al., arXiv:2111.02396):
    the open kernel takes each next gate while the union of qubits stays
    within ``WIDTH`` (two disjoint pairs fit), and closes when one does not
    fit.  A one-qubit op that does not fit, or that meets no open kernel,
    instead folds into the last kernel on its qubit, which no op has touched
    since; a qubit with no kernel yet opens one.  A closed kernel of
    several gates becomes one ``FusedGate`` whose qubits are listed in the
    order they joined, the first the low bit.  When the product is a
    generalized permutation (no more nonzeros than rows) its gates stay
    apart, since each then touches every amplitude once, while a wide dense
    matmul would not pay.  Measurements that arrive while a kernel is open
    are held, in order, until just after it closes: ``fuse`` widens only
    streams where no gate follows a measurement on its qubit, so a
    measurement needs only the gates before it, and the kernel can still
    take gates on other qubits.
    """
    out: list = []
    last: dict[int, int] = {}  # qubit -> position in ``out`` of the last gate on it
    kernel: list = []  # the open kernel's gates, in order
    qubits: list[int] = []  # their qubits, in the order they joined
    held: list = []  # measurements that arrived while the kernel was open

    def close() -> None:
        if len(kernel) > 1:
            m = np.eye(1 << len(qubits), dtype=complex)
            for op in kernel:
                m = _embed(_matrix(op), [qubits.index(q) for q in op.qubits], len(qubits)) @ m
            if np.count_nonzero(m) > len(m):
                kernel[:] = [FusedGate(tuple(qubits), m)]
        for op in kernel:
            for q in op.qubits:
                last[q] = len(out)
            out.append(op)
        out.extend(held)
        kernel.clear()
        qubits.clear()
        held.clear()

    for op in ops:
        if op.kind == "measure":
            last.pop(op.qubits[0], None)
            (held if kernel else out).append(op)
            continue
        new = [q for q in op.qubits if q not in qubits]
        trailing = len(op.qubits) == 1 and op.qubits[0] in last
        if len(qubits) + len(new) <= WIDTH and (kernel or not trailing):
            kernel.append(op)
            qubits += new
        elif trailing:
            j = last[op.qubits[0]]
            host = out[j]
            fold = _embed(_matrix(op), [host.qubits.index(op.qubits[0])], len(host.qubits))
            out[j] = FusedGate(host.qubits, fold @ _matrix(host))
        else:
            close()
            kernel.append(op)
            qubits += op.qubits
    close()
    return out


def _matrix(op) -> np.ndarray:
    """The matrix of an ``Instruction`` gate or a ``FusedGate``."""
    if op.kind == "fused":
        return op.matrix
    if op.kind in ONE_QUBIT_GATES:
        return gates.single_qubit_matrix(op.kind, op.params)
    return gates.two_qubit_matrix(op.kind)


def _embed(g: np.ndarray, pos: list[int], k: int) -> np.ndarray:
    """``g`` on the local qubits ``pos`` (``pos[0]`` its low bit) of a ``k``-qubit kernel."""
    idx = np.arange(1 << k)
    sub = sum(((idx >> p) & 1) << i for i, p in enumerate(pos))
    rest = idx & ~sum(1 << p for p in pos)
    return np.where(rest[:, None] == rest[None, :], g[sub[:, None], sub[None, :]], 0)


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


@functools.lru_cache(maxsize=1024)
def _dense_layout(n: int, qubits: tuple[int, ...]) -> tuple:
    """How ``_apply_dense`` cuts an n-qubit state for a kernel on ``qubits``.

    The state is viewed as 2k+1 axes, ``(R_0, 2, R_1, ..., 2, R_k)``: the k
    gate qubits from the highest down, and the runs of other qubits around
    them.  A block holds at most ``CHUNK`` amplitudes (``WIDE_CHUNK`` for
    k > 2): whole inner runs, a slice of one run and single steps outside
    it.  Returns the view's shape, the transpose that puts the gate axes
    first in local-index order, the shape of a block so transposed, and
    per axis the slices that cut it into blocks.  Kept per (n, qubits), so
    a kernel on a small state pays no set-up beside its matmul.
    """
    k = len(qubits)
    high = sorted(qubits, reverse=True)
    shape, top = [], n
    for q in high:
        shape += [1 << (top - q - 1), 2]
        top = q
    shape.append(1 << top)
    order = tuple(2 * high.index(q) + 1 for q in reversed(qubits)) + tuple(range(0, 2 * k + 1, 2))
    block, axes = list(shape), [(slice(None),)] * (2 * k + 1)
    room = (CHUNK if k <= 2 else WIDE_CHUNK) >> k  # positions per block
    for i in range(2 * k, -1, -2):  # every length is a power of two, so blocks tile exactly
        block[i] = min(shape[i], room)
        room //= block[i]
        axes[i] = tuple(slice(a, a + block[i]) for a in range(0, shape[i], block[i]))
    return tuple(shape), order, tuple(block[j] for j in order), tuple(axes)


def _apply_dense(amps: np.ndarray, n: int, qubits: tuple[int, ...], m: np.ndarray) -> None:
    """Apply the dense ``m`` in place on ``qubits``, the first the low bit of its index.

    Each block of ``_dense_layout`` is gathered with the gate axes in front,
    so it flattens to the gate's local index, then multiplied by one matmul
    and scattered back: no temporary grows with the state.
    """
    shape, order, block, axes = _dense_layout(n, qubits)
    arr = amps.reshape(shape)
    buf = np.empty(block, dtype=complex)
    out = np.empty_like(buf)
    flat_buf, flat_out = buf.reshape(len(m), -1), out.reshape(len(m), -1)
    for index in itertools.product(*axes):
        local = arr[index].transpose(order)
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
    _apply_dense(amps, n, (q,), m)


def apply_2q(amps: np.ndarray, n: int, qa: int, qb: int, m: np.ndarray) -> None:
    lo, hi = (qa, qb) if qa < qb else (qb, qa)
    arr = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    rows, sources = np.nonzero(m)
    if len(rows) != 4:
        _apply_dense(amps, n, (qa, qb), m)
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
    m = _matrix(inst)
    qubits = inst.qubits
    if len(qubits) == 1:
        apply_1q(amps, n, qubits[0], m)
    elif len(qubits) == 2:
        apply_2q(amps, n, qubits[0], qubits[1], m)
    else:  # a wide kernel from ``fuse``, always dense
        _apply_dense(amps, n, qubits, m)


def zero_state(n: int) -> np.ndarray:
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return amps


def marginal_probs(
    amps: np.ndarray, n: int, qubits: tuple[int, ...], consume: bool = False
) -> np.ndarray:
    """Joint probabilities of the given (ascending) qubits, little-endian.

    With ``consume`` the squared magnitudes are written ``CHUNK`` at a time
    over the front half of ``amps``' own memory, where no chunk overwrites
    amplitudes still to be read, so no array of the state's size is
    allocated and ``amps`` is left meaningless.  The values are those of the
    out-of-place path, bit for bit: each chunk's magnitudes are taken into a
    buffer first, since ``np.abs`` writing over its own input ran another
    loop that rounded differently.
    """
    if consume:
        probs = amps.view(np.float64)[:len(amps)]
        for start in range(0, len(amps), CHUNK):
            chunk = np.abs(amps[start:start + CHUNK])
            np.square(chunk, out=chunk)
            probs[start:start + CHUNK] = chunk
    else:
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
        """The engine's draw; it is the last call on a state, so it consumes ``amps``."""
        group = tuple(sorted(set(qubits)))
        probs = marginal_probs(self.amps, self.n, group, consume=True)
        return sample_measurement_groups([(group, probs)], qubits, count, rng)


def run(c: Circuit, shots: int, seed: int) -> RunResult:
    """Execute a circuit and return sampled measurement counts.

    The circuit is fused first (``fuse`` at its qubit count), so each kernel
    applies a gate together with the one-qubit gates folded into it, or
    from ``WIDE_MIN`` qubits a group of such gates.  The shot engine
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
        fuse(c.instructions, c.n_qubits),
        shots,
        np.random.default_rng(seed),
        on_leaf=lambda state: paths.append(1),
    )
    wall = time.perf_counter() - start
    return RunResult(
        counts=counts, shots=shots, backend="sv", seed=seed, wall_time=wall,
        metadata={"paths": len(paths)},
    )
