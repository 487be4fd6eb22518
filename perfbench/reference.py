"""Reference outcome laws computed without polysim.

Two independent references check polysim's counts:

* ``exact_distribution`` contracts each gate into a rank-n amplitude tensor
  (one axis per qubit) and enumerates every branch of mid-circuit
  measurements and resets, giving the exact law of the classical bits.
* ``affine_law`` runs a Clifford circuit once on a binary tableau whose sign
  bits are affine forms over fresh random bits (Aaronson and Gottesman,
  quant-ph/0406196).  Every measured bit is then an affine function of
  independent fair coins, so the counts must lie in one affine subspace and
  be uniform on it.

Keys follow polysim's convention: the highest classical bit is leftmost.
"""
from __future__ import annotations

import math

import numpy as np

_R2 = 1.0 / math.sqrt(2.0)
_W = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
_FIXED_1Q = {
    "h": [[_R2, _R2], [_R2, -_R2]],
    "x": [[0, 1], [1, 0]],
    "y": [[0, -1j], [1j, 0]],
    "z": [[1, 0], [0, -1]],
    "s": [[1, 0], [0, 1j]],
    "sdg": [[1, 0], [0, -1j]],
    "t": [[1, 0], [0, _W]],
    "tdg": [[1, 0], [0, _W.conjugate()]],
}


def gate_1q(kind: str, params: tuple) -> np.ndarray:
    if kind in _FIXED_1Q:
        return np.array(_FIXED_1Q[kind], dtype=complex)
    if kind == "u":
        theta, phi, lam = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[c, -complex(math.cos(lam), math.sin(lam)) * s],
                         [complex(math.cos(phi), math.sin(phi)) * s,
                          complex(math.cos(phi + lam), math.sin(phi + lam)) * c]])
    (theta,) = params
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if kind == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "rz":
        return np.diag([complex(c, -s), complex(c, s)])
    raise KeyError(kind)


def gate_2q(kind: str) -> np.ndarray:
    """Tensor indexed [out_first, out_second, in_first, in_second]."""
    u = np.zeros((2, 2, 2, 2), dtype=complex)
    for a in (0, 1):
        for b in (0, 1):
            if kind == "cx":
                u[a, b ^ a, a, b] = 1
            elif kind == "cz":
                u[a, b, a, b] = -1 if a and b else 1
            elif kind == "swap":
                u[b, a, a, b] = 1
            else:
                raise KeyError(kind)
    return u


def apply_gate(psi: np.ndarray, kind: str, qubits: tuple, params: tuple) -> np.ndarray:
    if len(qubits) == 1:
        (q,) = qubits
        out = np.tensordot(gate_1q(kind, params), psi, axes=([1], [q]))
        return np.moveaxis(out, 0, q)
    a, b = qubits
    out = np.tensordot(gate_2q(kind), psi, axes=([2, 3], [a, b]))
    return np.moveaxis(out, [0, 1], [a, b])


def final_state(circ) -> np.ndarray:
    """Amplitude tensor after every gate of a measurement-free prefix."""
    psi = np.zeros((2,) * circ.n, dtype=complex)
    psi[(0,) * circ.n] = 1.0
    for kind, qubits, params, _ in circ.ops:
        if kind in ("measure", "reset"):
            raise ValueError("final_state needs a circuit without measure or reset")
        psi = apply_gate(psi, kind, qubits, params)
    return psi


def exact_distribution(circ, cutoff: float = 1e-13) -> dict[str, float]:
    """Exact law of the classical bits, enumerating every measurement branch."""
    ops = circ.ops
    tail = len(ops)
    while tail > 0 and ops[tail - 1][0] == "measure":
        tail -= 1
    terminal = ops[tail:]
    dist: dict[str, float] = {}
    psi0 = np.zeros((2,) * circ.n, dtype=complex)
    psi0[(0,) * circ.n] = 1.0
    stack = [(0, psi0, 1.0, {})]
    while stack:
        i, psi, weight, bits = stack.pop()
        while i < tail and ops[i][0] not in ("measure", "reset"):
            kind, qubits, params, _ = ops[i]
            psi = apply_gate(psi, kind, qubits, params)
            i += 1
        if i == tail:
            _add_terminal(dist, psi, weight, bits, terminal, circ.n_clbits, cutoff)
            continue
        kind, (q,), _, clbit = ops[i]
        for outcome in (0, 1):
            part = np.take(psi, outcome, axis=q)
            p = float(np.vdot(part, part).real)
            if p * weight <= cutoff:
                continue
            branch = np.zeros_like(psi)
            target = 0 if kind == "reset" else outcome
            index = [slice(None)] * circ.n
            index[q] = target
            branch[tuple(index)] = part / math.sqrt(p)
            new_bits = dict(bits)
            if kind == "measure":
                new_bits[clbit] = outcome
            stack.append((i + 1, branch, weight * p, new_bits))
    return dist


def _add_terminal(dist, psi, weight, bits, terminal, width, cutoff) -> None:
    probs = (np.abs(psi) ** 2).reshape(-1)
    n = psi.ndim
    index = np.arange(probs.size)
    code = np.zeros(probs.size, dtype=np.int64)
    fixed = dict(bits)
    for _, _, _, clbit in terminal:
        fixed.pop(clbit, None)
    for c, v in fixed.items():
        code |= v << c
    for _, (q,), _, clbit in terminal:
        # axis q of the C-ordered tensor is bit (n-1-q) of the flat index
        code = (code & ~(1 << clbit)) | (((index >> (n - 1 - q)) & 1) << clbit)
    keep = probs * weight > cutoff
    codes, inverse = np.unique(code[keep], return_inverse=True)
    sums = np.bincount(inverse, weights=probs[keep] * weight)
    for v, p in zip(codes, sums):
        key = format(int(v), f"0{width}b")
        dist[key] = dist.get(key, 0.0) + float(p)


# --- Clifford circuits: affine law -----------------------------------------------


class AffineTableau:
    """Stabilizer tableau whose sign bits are affine forms over random bits.

    Column 0 of ``r`` is the constant term and column k the k-th random bit
    introduced by a measurement with a random outcome.
    """

    def __init__(self, n: int, n_vars: int):
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros((2 * n, 1 + n_vars), dtype=np.uint8)
        self.x[np.arange(n), np.arange(n)] = 1
        self.z[n + np.arange(n), np.arange(n)] = 1
        self.n_vars = 0

    def h(self, q):
        self.r[:, 0] ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def s(self, q):
        self.r[:, 0] ^= self.x[:, q] & self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def cx(self, a, b):
        self.r[:, 0] ^= self.x[:, a] & self.z[:, b] & (self.x[:, b] ^ self.z[:, a] ^ 1)
        self.x[:, b] ^= self.x[:, a]
        self.z[:, a] ^= self.z[:, b]

    def apply(self, kind: str, qubits: tuple) -> None:
        q = qubits[0]
        if kind == "h":
            self.h(q)
        elif kind == "s":
            self.s(q)
        elif kind == "sdg":
            for _ in range(3):
                self.s(q)
        elif kind == "x":
            self.r[:, 0] ^= self.z[:, q]
        elif kind == "z":
            self.r[:, 0] ^= self.x[:, q]
        elif kind == "y":
            self.r[:, 0] ^= self.x[:, q] ^ self.z[:, q]
        elif kind == "cx":
            self.cx(*qubits)
        elif kind == "cz":
            self.h(qubits[1])
            self.cx(*qubits)
            self.h(qubits[1])
        elif kind == "swap":
            a, b = qubits
            self.cx(a, b)
            self.cx(b, a)
            self.cx(a, b)
        else:
            raise ValueError(f"{kind} is not a Clifford gate")

    @staticmethod
    def _g(x1, z1, x2, z2) -> np.ndarray:
        """Power of i picked up per qubit when Pauli (x1,z1) multiplies (x2,z2)."""
        x1, z1 = x1.astype(np.int64), z1.astype(np.int64)
        x2, z2 = x2.astype(np.int64), z2.astype(np.int64)
        return (x1 * z1 * (z2 - x2)
                + x1 * (1 - z1) * z2 * (2 * x2 - 1)
                + (1 - x1) * z1 * x2 * (1 - 2 * z2))

    def measure(self, q: int) -> np.ndarray:
        n = self.n
        hits = np.flatnonzero(self.x[n:, q])
        if hits.size:
            p = n + int(hits[0])
            rows = np.flatnonzero(self.x[:, q])
            rows = rows[rows != p]
            g = self._g(self.x[p][None, :], self.z[p][None, :], self.x[rows], self.z[rows])
            flip = ((g.sum(axis=1) % 4) // 2).astype(np.uint8)
            self.r[rows] ^= self.r[p]
            self.r[rows, 0] ^= flip
            self.x[rows] ^= self.x[p]
            self.z[rows] ^= self.z[p]
            self.x[p - n], self.z[p - n], self.r[p - n] = self.x[p], self.z[p], self.r[p]
            self.x[p] = 0
            self.z[p] = 0
            self.z[p, q] = 1
            self.n_vars += 1
            self.r[p] = 0
            self.r[p, self.n_vars] = 1
            return self.r[p].copy()
        sx = np.zeros(n, dtype=np.uint8)
        sz = np.zeros(n, dtype=np.uint8)
        sr = np.zeros(self.r.shape[1], dtype=np.uint8)
        for i in np.flatnonzero(self.x[:n, q]):
            p = n + int(i)
            g = int(self._g(self.x[p], self.z[p], sx, sz).sum())
            sr ^= self.r[p]
            sr[0] ^= (g % 4) // 2
            sx ^= self.x[p]
            sz ^= self.z[p]
        return sr

    def reset(self, q: int) -> None:
        form = self.measure(q)
        rows = self.z[:, q].astype(bool)
        self.r[rows] ^= form


def affine_law(circ) -> tuple[np.ndarray, np.ndarray]:
    """(A, a0): bit c of every shot is A[c] . e + a0[c] over fair coins e."""
    n_meas = sum(1 for op in circ.ops if op[0] in ("measure", "reset"))
    tab = AffineTableau(circ.n, n_meas)
    forms = {}
    for kind, qubits, _, clbit in circ.ops:
        if kind == "measure":
            forms[clbit] = tab.measure(qubits[0])
        elif kind == "reset":
            tab.reset(qubits[0])
        else:
            tab.apply(kind, qubits)
    k = tab.n_vars
    a = np.array([forms[c][1:1 + k] for c in range(circ.n_clbits)], dtype=np.uint8)
    a0 = np.array([forms[c][0] for c in range(circ.n_clbits)], dtype=np.uint8)
    return a.reshape(circ.n_clbits, k), a0


def parity_checks(a: np.ndarray) -> np.ndarray:
    """Rows h with h . A = 0 (mod 2): the left null space of A."""
    m, k = a.shape
    work = np.concatenate([a.copy(), np.eye(m, dtype=np.uint8)], axis=1)
    row = 0
    for col in range(k):
        pivots = np.flatnonzero(work[row:, col]) + row
        if pivots.size == 0:
            continue
        p = int(pivots[0])
        if p != row:
            work[[row, p]] = work[[p, row]]
        others = np.flatnonzero(work[:, col])
        others = others[others != row]
        work[others] ^= work[row]
        row += 1
        if row == m:
            break
    return work[row:, k:]
