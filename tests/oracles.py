"""Read-outs of the package's states that only tests need.

Each helper turns a backend state into something a test can compare
(global amplitudes, bond dimensions, commutation tables) or runs a
reference path the package itself does not take.  ``conftest`` holds the
independent einsum simulator; these work on the package's own states.
"""
from __future__ import annotations

import numpy as np

from polysim import statevector
from polysim.circuit import ONE_QUBIT_CLIFFORD, TWO_QUBIT_GATES, Circuit, Instruction
from polysim.mps import MpsState
from polysim.pblock import PBlockState, reorder_qubits
from polysim.result import BackendError, QubitCapError
from polysim.sampling import AliasTable
from polysim.stabilizer import NotCliffordError, Tableau, _sample_forms

# Kinds that may appear in a circuit and still leave it simulable on a
# stabilizer tableau.  Rotation gates never qualify, whatever their angle.
CLIFFORD_KINDS = ONE_QUBIT_CLIFFORD | TWO_QUBIT_GATES | {"measure", "reset", "barrier"}


def is_clifford(c: Circuit) -> bool:
    """True when every instruction kind is tableau-simulable."""
    return all(inst.kind in CLIFFORD_KINDS for inst in c.instructions)


def measure(state, q: int, rng: np.random.Generator) -> int:
    """Measure ``q`` on an engine state as a single shot does: one draw, then ``project``."""
    bit = int(rng.random() < state.p1(q))
    state.project(q, bit)
    return bit


# --- sv ---------------------------------------------------------------------


def _collapses_mid_circuit(c: Circuit) -> bool:
    """True when a reset, or a gate on an already measured qubit, occurs."""
    measured: set[int] = set()
    for inst in c.instructions:
        if inst.kind == "reset":
            return True
        if inst.kind == "measure":
            measured.add(inst.qubits[0])
        elif inst.is_unitary and measured.intersection(inst.qubits):
            return True
    return False


def final_state(c: Circuit) -> np.ndarray:
    """The state after the circuit's gates, from one pass over the fused ops."""
    if c.n_qubits > statevector.QUBIT_CAP:
        raise QubitCapError(f"{c.n_qubits} qubits exceeds the cap of {statevector.QUBIT_CAP}")
    if _collapses_mid_circuit(c):
        raise BackendError("a final state needs a circuit without mid-circuit collapse")
    amps = statevector.zero_state(c.n_qubits)
    for op in statevector.fuse(c.instructions):
        if op.kind != "measure":
            statevector.apply_instruction(amps, c.n_qubits, op)
    return amps


# --- mps --------------------------------------------------------------------


def run_unitaries(c: Circuit, chi_max: int) -> MpsState:
    """An MPS after the circuit's gates; measurements and resets are skipped."""
    state = MpsState(c.n_qubits, chi_max)
    for inst in c.instructions:
        if inst.is_unitary:
            state.apply(inst)
    return state


def to_statevector(state: MpsState) -> np.ndarray:
    """Global little-endian amplitudes of an MPS."""
    acc = state.tensors[0][0]  # (2, chi)
    for t in state.tensors[1:]:
        acc = np.tensordot(acc, t, axes=(acc.ndim - 1, 0))
    acc = acc[..., 0]  # drop the trailing unit bond
    return acc.transpose(tuple(reversed(range(state.n)))).reshape(-1)


def bond_dims(state: MpsState) -> list[int]:
    return [state.tensors[i].shape[2] for i in range(state.n - 1)]


def norm(state: MpsState) -> float:
    """The norm of a canonical MPS, read off its center site."""
    return float(np.linalg.norm(state.tensors[state.center]))


# --- pblock -----------------------------------------------------------------


def contract(state: PBlockState) -> np.ndarray:
    """Global little-endian amplitudes of a block state."""
    order: list[int] = []
    vec = np.ones(1, dtype=complex)
    for block in state.blocks():
        vec = np.multiply.outer(block.state, vec).reshape(-1)
        order = order + block.qubits
    return reorder_qubits(vec, order, sorted(order))


# --- stab -------------------------------------------------------------------


def symplectic_products(tab: Tableau) -> np.ndarray:
    """Pairwise commutation table: entry (i,j) is 1 when rows anticommute."""
    x = tab.x.astype(np.int64)
    z = tab.z.astype(np.int64)
    return ((x @ z.T) + (z @ x.T)) % 2


# Aaronson-Gottesman's gate rules on the uint8 columns of a ``Tableau``, one
# numpy update per column; ``Tableau.apply_gates`` must match them bit for bit.


def _h(t: Tableau, q: int) -> None:
    t.r[:, 0] ^= t.x[:, q] & t.z[:, q]
    t.x[:, q], t.z[:, q] = t.z[:, q].copy(), t.x[:, q].copy()


def _s(t: Tableau, q: int) -> None:
    t.r[:, 0] ^= t.x[:, q] & t.z[:, q]
    t.z[:, q] ^= t.x[:, q]


def _sdg(t: Tableau, q: int) -> None:
    t.r[:, 0] ^= t.x[:, q] & (t.z[:, q] ^ 1)
    t.z[:, q] ^= t.x[:, q]


def _cx(t: Tableau, c: int, q: int) -> None:
    t.r[:, 0] ^= t.x[:, c] & t.z[:, q] & (t.x[:, q] ^ t.z[:, c] ^ 1)
    t.x[:, q] ^= t.x[:, c]
    t.z[:, c] ^= t.z[:, q]


def _cz(t: Tableau, a: int, b: int) -> None:
    _h(t, b)
    _cx(t, a, b)
    _h(t, b)


def _swap(t: Tableau, a: int, b: int) -> None:
    _cx(t, a, b)
    _cx(t, b, a)
    _cx(t, a, b)


def _x(t: Tableau, q: int) -> None:
    t.r[:, 0] ^= t.z[:, q]


def _y(t: Tableau, q: int) -> None:
    t.r[:, 0] ^= t.x[:, q] ^ t.z[:, q]


def _z(t: Tableau, q: int) -> None:
    t.r[:, 0] ^= t.x[:, q]


_NUMPY_RULES = {"h": _h, "s": _s, "sdg": _sdg, "x": _x, "y": _y, "z": _z,
                "cx": _cx, "cz": _cz, "swap": _swap}


def apply_numpy(tab: Tableau, inst) -> None:
    """One gate on ``tab`` by the per-column numpy rules; barriers do nothing."""
    if inst.kind == "barrier":
        return
    if inst.kind not in _NUMPY_RULES:
        raise NotCliffordError(f"{inst.kind} is not simulable on a tableau")
    _NUMPY_RULES[inst.kind](tab, *inst.qubits)


def run_numpy(c: Circuit, shots: int, seed: int) -> dict[str, int]:
    """``stabilizer.run``'s counts with every gate applied by `apply_numpy`."""
    tab = Tableau(c.n_qubits)
    forms = {}
    for inst in c.instructions:
        if inst.kind == "measure":
            forms[inst.clbit] = tab.measure(inst.qubits[0])
        elif inst.kind == "reset":
            tab.reset(inst.qubits[0])
        else:
            apply_numpy(tab, inst)
    ordered = [forms[cl] for cl in sorted(forms, reverse=True)]
    return _sample_forms(ordered, shots, np.random.default_rng(seed))


def _g(x1: int, z1: int, x2: int, z2: int) -> int:
    """Aaronson-Gottesman's g: the power of i from multiplying Pauli (x2, z2) by (x1, z1)."""
    if x1 and z1:
        return z2 - x2
    if x1:
        return z2 * (2 * x2 - 1)
    if z1:
        return x2 * (1 - 2 * z2)
    return 0


class ConcreteTableau:
    """A stabilizer tableau whose random outcomes are drawn as they happen.

    The measurement is Aaronson & Gottesman's (arXiv:quant-ph/0406196), one
    scalar rowsum at a time, with one phase bit per row; gates go through
    ``Tableau.apply_gates``, which touches only the constant bits.
    Outcomes come from ``draws.integers(2)``.
    """

    def __init__(self, n: int):
        self.tab = Tableau(n)

    def apply(self, inst) -> None:
        self.tab.apply_gates([inst])

    def _product(self, row, p: int):
        """``row`` times tableau row ``p``, as (x, z, r) with Python ints."""
        t = self.tab
        x, z, r = row
        g = sum(_g(int(a), int(b), int(c), int(d))
                for a, b, c, d in zip(t.x[p], t.z[p], x, z))
        phase = (2 * r + 2 * int(t.r[p, 0]) + g) % 4
        return x ^ t.x[p], z ^ t.z[p], phase // 2

    def _set(self, i: int, row) -> None:
        self.tab.x[i], self.tab.z[i], self.tab.r[i, 0] = row

    def _row(self, i: int):
        return self.tab.x[i].copy(), self.tab.z[i].copy(), int(self.tab.r[i, 0])

    def measure(self, q: int, draws) -> int:
        t, n = self.tab, self.tab.n
        p = next((i for i in range(n, 2 * n) if t.x[i, q]), None)
        if p is not None:
            for i in range(2 * n):
                if i != p and t.x[i, q]:
                    self._set(i, self._product(self._row(i), p))
            self._set(p - n, self._row(p))
            bit = int(draws.integers(2))
            x = np.zeros(n, dtype=np.uint8)
            z = np.zeros(n, dtype=np.uint8)
            z[q] = 1
            self._set(p, (x, z, bit))
            return bit
        scratch = (np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8), 0)
        for i in range(n):
            if t.x[i, q]:
                scratch = self._product(scratch, i + n)
        return scratch[2]

    def reset(self, q: int, draws) -> None:
        if self.measure(q, draws):
            self.tab.apply_gates([Instruction("x", (q,))])


# --- sampling ---------------------------------------------------------------


def reconstructed_probs(table: AliasTable) -> np.ndarray:
    """Recover the bin probabilities an alias table encodes."""
    rec = table.prob.copy()
    np.add.at(rec, table.alias, 1.0 - table.prob)
    return rec / table.size
