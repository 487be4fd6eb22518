"""Stabilizer backend: binary tableau simulation of Clifford circuits.

The tableau holds 2n rows of X and Z bits plus a phase column; rows 0..n-1
are destabilizers, rows n..2n-1 stabilizers (Aaronson & Gottesman,
arXiv:quant-ph/0406196).  The X and Z bits are (2n x n) uint8 arrays.  `run`
hands each run of gates between two measurements or resets to
`Tableau.apply_gates`, which reads every column the run touches into one
Python int and applies the gates as big-int bit operations on whole columns,
as Stim's tableau updates work on machine words (Gidney, arXiv:2103.02202).
Measurements stay on the arrays, vectorized over rows.

The X and Z bits never depend on measurement outcomes, and the phases depend
on them only linearly over GF(2).  So each phase is an affine form: a
constant bit plus one coefficient per random outcome opened so far.  `run`
passes over the circuit once, opening a fresh variable at every measurement
whose outcome is random, and then draws all shots together from the forms of
the measured clbits.  Its cost, paid once per circuit, is O(n) per column a
gate run touches plus a near-constant big-int cost per gate and O(n^2) per
measurement; then one GF(2) product of (shots x k) fair bits with the (k x m)
coefficient matrix per batch of shots.  Circuits with hundreds of qubits and
many shots stay cheap.
"""
from __future__ import annotations

import sys
import time

import numpy as np

from .circuit import Circuit
from .result import BackendError, NoMeasurementsError, RunResult

# Bound on the float64 bits of one batch of shots in `_sample_forms`.
_DRAW_BYTES = 1 << 22


class NotCliffordError(BackendError):
    """Raised when a non-Clifford gate reaches the tableau backend."""


# Aaronson-Gottesman's g(x1, z1, x2, z2) at index 8 x1 + 4 z1 + 2 x2 + z2.
_G = np.array([0, 0, 0, 0, 0, 0, 1, -1, 0, -1, 0, 1, 0, 1, -1, 0], dtype=np.int8)


def _phase_sum(x1, z1, x2, z2) -> np.ndarray:
    """Power of i picked up when Pauli rows (x2, z2) are multiplied by (x1, z1).

    Sums Aaronson-Gottesman's g function over the last axis.
    """
    return _G[(x1 << 3) | (z1 << 2) | (x2 << 1) | z2].sum(axis=-1, dtype=np.int64)


class Tableau:
    def __init__(self, n: int):
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        # Phase forms: column 0 is the constant bit, column 1 + j the
        # coefficient of outcome variable j.  Columns past 1 + k are spare.
        self.r = np.zeros((2 * n, 1), dtype=np.uint8)
        self.k = 0
        self.x[np.arange(n), np.arange(n)] = 1          # destabilizers X_i
        self.z[n + np.arange(n), np.arange(n)] = 1      # stabilizers Z_i

    def copy(self) -> "Tableau":
        t = Tableau.__new__(Tableau)
        t.n = self.n
        t.x = self.x.copy()
        t.z = self.z.copy()
        t.r = self.r.copy()
        t.k = self.k
        return t

    # --- Clifford gates (they change only the constant phase bits) ---------

    def apply_gates(self, gates) -> None:
        """Apply a run of Clifford gates (barriers are skipped).

        The first gate that touches a column reads it, from ``x`` and from
        ``z``, into a Python int that holds row i in byte i (so bit 8i), which
        costs one copy of the column and no bit packing.  The
        Aaronson-Gottesman updates then run as big-int ``&`` and ``^`` on those
        ints, and only the touched columns are written back: a run costs O(n)
        per touched column plus a near-constant amount per gate.  Gates flip
        only the constant phase bits; the outcome coefficients stay as they
        are.  A non-Clifford gate raises, and since nothing is written back
        before the run ends, the tableau is left as it was.
        """
        rows = 2 * self.n
        tx, tz = self.x, self.z
        X: dict[int, int] = {}
        Z: dict[int, int] = {}
        flips = 0
        for inst in gates:
            kind = inst.kind
            if kind == "barrier":
                continue
            for q in inst.qubits:
                if q not in X:
                    X[q] = int.from_bytes(tx[:, q].tobytes(), "little")
                    Z[q] = int.from_bytes(tz[:, q].tobytes(), "little")
            if kind == "cx":
                c, t = inst.qubits
                xc, zt = X[c], Z[t]
                flips ^= xc & zt & ~(X[t] ^ Z[c])
                X[t] ^= xc
                Z[c] ^= zt
            elif kind == "h":
                q = inst.qubits[0]
                x, z = X[q], Z[q]
                flips ^= x & z
                X[q], Z[q] = z, x
            elif kind == "s":
                q = inst.qubits[0]
                x = X[q]
                flips ^= x & Z[q]
                Z[q] ^= x
            elif kind == "sdg":
                q = inst.qubits[0]
                x = X[q]
                flips ^= x & ~Z[q]
                Z[q] ^= x
            elif kind == "x":
                flips ^= Z[inst.qubits[0]]
            elif kind == "z":
                flips ^= X[inst.qubits[0]]
            elif kind == "y":
                q = inst.qubits[0]
                flips ^= X[q] ^ Z[q]
            elif kind == "cz":
                a, b = inst.qubits
                xa, xb = X[a], X[b]
                flips ^= xa & xb & (Z[a] ^ Z[b])
                Z[a] ^= xb
                Z[b] ^= xa
            elif kind == "swap":
                a, b = inst.qubits
                X[a], X[b] = X[b], X[a]
                Z[a], Z[b] = Z[b], Z[a]
            else:
                raise NotCliffordError(f"{kind} is not simulable on a tableau")
        for q, v in X.items():
            tx[:, q] = np.frombuffer(v.to_bytes(rows, "little"), np.uint8)
        for q, v in Z.items():
            tz[:, q] = np.frombuffer(v.to_bytes(rows, "little"), np.uint8)
        if flips:
            r0 = self.r[:, 0]
            np.bitwise_xor(r0, np.frombuffer(flips.to_bytes(rows, "little"), np.uint8), out=r0)

    # --- measurement ---------------------------------------------------------

    def _rowsum_many(self, rows: np.ndarray, p: int) -> None:
        """row_i <- row_i * row_p for every i in rows (phases mod 4)."""
        if rows.size == 0:
            return
        x, z = self.x[rows], self.z[rows]
        g = _phase_sum(self.x[p], self.z[p], x, z)
        # (2 r_i + 2 r_p + g) mod 4, halved, is r_i xor r_p xor ((g mod 4) // 2).
        self.r[rows] ^= self.r[p]
        self.r[rows, 0] ^= ((g % 4) // 2).astype(np.uint8)
        self.x[rows] = x ^ self.x[p]
        self.z[rows] = z ^ self.z[p]

    def _open_variable(self, row: int) -> None:
        """Give row the form of a fresh outcome variable, growing the columns."""
        if 1 + self.k == self.r.shape[1]:
            self.r = np.concatenate([self.r, np.zeros_like(self.r)], axis=1)
        self.k += 1
        self.r[row] = 0
        self.r[row, self.k] = 1

    def measure(self, q: int) -> np.ndarray:
        """Measure qubit q in the Z basis and return the outcome's affine form.

        The form is ``[c, a_1, ..., a_k]``: the outcome is c xor the sum of
        a_j v_j over the outcome variables v_j opened so far.  A random
        outcome opens a fresh variable; no outcome is drawn here.
        """
        n = self.n
        anticommuting = np.flatnonzero(self.x[n:, q])
        if anticommuting.size:
            p = n + int(anticommuting[0])
            others = np.flatnonzero(self.x[:, q])
            others = others[others != p]
            self._rowsum_many(others, p)
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.r[p - n] = self.r[p]
            self.x[p] = 0
            self.z[p] = 0
            self.z[p, q] = 1
            self._open_variable(p)
            return self.r[p, : 1 + self.k].copy()
        # Deterministic outcome: Z_q is the product of the stabilizers whose
        # destabilizer partners anticommute with it.  Multiplying them into a
        # scratch row one by one, step j meets the XOR of the rows before it.
        rows = n + np.flatnonzero(self.x[:n, q])
        x, z = self.x[rows], self.z[rows]
        before_x = np.zeros_like(x)
        before_z = np.zeros_like(z)
        before_x[1:] = np.bitwise_xor.accumulate(x[:-1], axis=0)
        before_z[1:] = np.bitwise_xor.accumulate(z[:-1], axis=0)
        g = int(_phase_sum(x, z, before_x, before_z).sum())
        # Stabilizers commute, so every step's g is even and the halves add.
        form = np.bitwise_xor.reduce(self.r[rows, : 1 + self.k], axis=0)
        form[0] ^= (g % 4) // 2
        return form

    def reset(self, q: int) -> None:
        """Measure q, then apply X as the outcome's form, leaving q in |0> on every outcome."""
        outcome = self.measure(q)
        # X_q flips the sign of every row with a Z on q, once per unit of outcome.
        self.r[:, : outcome.size] ^= np.outer(self.z[:, q], outcome).astype(np.uint8)


def _sample_forms(forms: list[np.ndarray], shots: int, rng: np.random.Generator) -> dict[str, int]:
    """Count `shots` draws of the bitstring whose i-th character is forms[i].

    Every outcome variable is an independent fair bit.  Only variables that
    some form reads are drawn, in batches that keep memory bounded, and the
    keys have no width limit.
    """
    width = len(forms)
    table = np.zeros((max(f.size for f in forms), width), dtype=np.uint8)
    for i, form in enumerate(forms):
        table[: form.size, i] = form
    chars = table[0] + np.uint8(ord("0"))
    coeffs = table[1:][table[1:].any(axis=1)].astype(np.float64)
    k = coeffs.shape[0]
    batch = max(1, _DRAW_BYTES // (8 * max(k, width)))
    counts: dict[str, int] = {}
    for done in range(0, shots, batch):
        size = min(batch, shots - done)
        bits = rng.integers(0, 2, size=(size, k), dtype=np.uint8)
        # Float64 sums of 0/1 products stay exact up to 2**53 variables; the
        # low bit of their integer value is ~20x cheaper than a float % 2.
        parity = ((bits.astype(np.float64) @ coeffs).astype(np.int64) & 1).astype(np.uint8)
        keys, freq = np.unique((parity ^ chars).view(f"S{width}").ravel(), return_counts=True)
        for key, count in zip(keys.tolist(), freq.tolist()):
            # Interned, so callers that keep the counts of many runs of one
            # circuit hold each outcome string once.
            key = sys.intern(key.decode())
            counts[key] = counts.get(key, 0) + count
    return counts


def run(c: Circuit, shots: int, seed: int) -> RunResult:
    """Clifford execution: one symbolic pass over the circuit, then one draw for all shots.

    Measurements and resets may sit anywhere in the circuit; each random
    outcome becomes a variable of the pass, and the shots are drawn from the
    affine forms of the measured clbits with ``default_rng(seed)``.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    if not any(inst.kind == "measure" for inst in c.instructions):
        raise NoMeasurementsError("circuit has no measurements")
    start = time.perf_counter()
    tab = Tableau(c.n_qubits)
    forms: dict[int, np.ndarray] = {}
    gates: list = []  # the run since the last measurement or reset
    for inst in c.instructions:
        if inst.kind != "measure" and inst.kind != "reset":
            gates.append(inst)
            continue
        tab.apply_gates(gates)
        gates = []
        if inst.kind == "measure":
            forms[inst.clbit] = tab.measure(inst.qubits[0])
        else:
            tab.reset(inst.qubits[0])
    tab.apply_gates(gates)
    # The key puts the lowest measured clbit rightmost.
    ordered = [forms[cl] for cl in sorted(forms, reverse=True)]
    counts = _sample_forms(ordered, shots, np.random.default_rng(seed))
    wall = time.perf_counter() - start
    return RunResult(counts=counts, shots=shots, backend="stab", seed=seed, wall_time=wall)
