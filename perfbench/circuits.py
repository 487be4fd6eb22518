"""Seeded circuit generators for the benchmark.

Circuits are built here as plain instruction lists and handed to polysim
only as OpenQASM 2.0 text, so the reference checks in ``reference.py`` work
from the same lists without going through polysim's parser or IR.  Every
circuit measures each classical bit it declares exactly once, so the width of
every count key equals ``n_clbits``.

Each generator takes two random streams.  ``shape`` fixes the gate
skeleton: which gates act where, and where circuits measure and reset.
``vals`` draws what may change from seed to seed without changing the work:
rotation angles, T versus T-dagger, and Pauli frames on Clifford circuits.
Families that carry a known outcome law record its parameters in ``law``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

CLIFFORD_1Q = ("h", "s", "sdg", "x", "y", "z")
PARAMS = {"rx": 1, "ry": 1, "rz": 1, "u": 3}


@dataclass
class Circ:
    name: str
    n: int
    n_clbits: int = 0
    ops: list = field(default_factory=list)  # (kind, qubits, params, clbit)
    family: str = ""
    law: dict = field(default_factory=dict)

    def g(self, kind: str, *qubits: int, params: tuple = ()) -> "Circ":
        assert len(params) == PARAMS.get(kind, 0), kind
        self.ops.append((kind, tuple(qubits), tuple(float(p) for p in params), None))
        return self

    def measure(self, q: int, clbit: int | None = None) -> int:
        if clbit is None:
            clbit = self.n_clbits
        self.n_clbits = max(self.n_clbits, clbit + 1)
        self.ops.append(("measure", (q,), (), clbit))
        return clbit

    def reset(self, q: int) -> None:
        self.ops.append(("reset", (q,), (), None))

    def measure_all(self) -> list[int]:
        return [self.measure(q) for q in range(self.n)]

    def qasm(self) -> str:
        lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{self.n}];",
                 f"creg c[{self.n_clbits}];"]
        for kind, qubits, params, clbit in self.ops:
            if kind == "measure":
                lines.append(f"measure q[{qubits[0]}] -> c[{clbit}];")
                continue
            head = kind
            if params:
                head += "(" + ",".join(repr(p) for p in params) + ")"
            lines.append(head + " " + ",".join(f"q[{q}]" for q in qubits) + ";")
        return "\n".join(lines) + "\n"


def _angle(vals) -> float:
    # Keep rotations away from multiples of pi/2, where laws turn degenerate.
    return float(vals.uniform(0.3, math.pi - 0.3))


def _random_1q(c: Circ, q: int, shape, vals, clifford: bool) -> None:
    if clifford:
        c.g(str(shape.choice(CLIFFORD_1Q)), q)
        return
    kind = str(shape.choice(("h", "t", "s", "rx", "ry", "rz", "u")))
    if kind == "t" and vals.random() < 0.5:
        kind = "tdg"
    c.g(kind, q, params=tuple(_angle(vals) for _ in range(PARAMS.get(kind, 0))))


def _pauli_frame(c: Circ, vals) -> None:
    """One Pauli per qubit: flips outcome signs, leaves the tableau's shape alone."""
    for q in range(c.n):
        c.g(str(vals.choice(("x", "y", "z"))), q)


# --- batch families ------------------------------------------------------------


def nn_clifford(n: int, n_gates: int, shape, vals) -> Circ:
    """Random Clifford word, 40% nearest-neighbour cx, in a Pauli frame."""
    c = Circ(f"nnclifford_{n}", n, family="clifford")
    _pauli_frame(c, vals)
    for _ in range(n_gates):
        if n > 1 and shape.random() < 0.4:
            a = int(shape.integers(0, n - 1))
            c.g("cx", *((a, a + 1) if shape.random() < 0.5 else (a + 1, a)))
        else:
            _random_1q(c, int(shape.integers(0, n)), shape, vals, clifford=True)
    _pauli_frame(c, vals)
    c.measure_all()
    return c


def clifford_t(n: int, n_gates: int, shape, vals) -> Circ:
    """Dense Clifford+T word with cx over arbitrary pairs."""
    c = Circ(f"cliffordt_{n}", n, family="exact")
    for _ in range(n_gates):
        roll = shape.random()
        if roll < 0.35:
            a, b = shape.choice(n, size=2, replace=False)
            c.g("cx", int(a), int(b))
        elif roll < 0.6:
            c.g(str(vals.choice(("t", "tdg"))), int(shape.integers(0, n)))
        else:
            _random_1q(c, int(shape.integers(0, n)), shape, vals, clifford=True)
    c.measure_all()
    return c


def ghz(n: int) -> Circ:
    c = Circ(f"ghz_{n}", n, family="ghz")
    c.g("h", 0)
    for q in range(n - 1):
        c.g("cx", q, q + 1)
    c.measure_all()
    return c


def w_state(n: int) -> Circ:
    """Equal superposition of the n one-hot strings.

    Qubit k takes amplitude from qubit k-1 with a controlled ry, written as
    ry(t/2) cx ry(-t/2) cx, and a cx then clears qubit k-1 on that branch.
    """
    c = Circ(f"w_{n}", n, family="w")
    c.g("x", 0)
    for k in range(1, n):
        theta = 2.0 * math.acos(math.sqrt(1.0 / (n - k + 1)))
        c.g("ry", k, params=(theta / 2,))
        c.g("cx", k - 1, k)
        c.g("ry", k, params=(-theta / 2,))
        c.g("cx", k - 1, k)
        c.g("cx", k, k - 1)
    c.measure_all()
    return c


def qaoa_line(n: int, vals) -> Circ:
    """One QAOA layer on a path: zz couplers as cx rz cx, then rx mixers."""
    c = Circ(f"qaoa_{n}", n, family="exact")
    gamma, beta = _angle(vals), _angle(vals)
    for q in range(n):
        c.g("h", q)
    for q in range(n - 1):
        c.g("cx", q, q + 1)
        c.g("rz", q + 1, params=(2 * gamma,))
        c.g("cx", q, q + 1)
    for q in range(n):
        c.g("rx", q, params=(2 * beta,))
    c.measure_all()
    return c


def ry_ansatz(n: int, layers: int, vals) -> Circ:
    c = Circ(f"ryansatz_{n}", n, family="exact")
    for _ in range(layers):
        for q in range(n):
            c.g("ry", q, params=(float(vals.uniform(0, 2 * math.pi)),))
        for q in range(n - 1):
            c.g("cx", q, q + 1)
    for q in range(n):
        c.g("ry", q, params=(float(vals.uniform(0, 2 * math.pi)),))
    c.measure_all()
    return c


# --- Clifford sampling ---------------------------------------------------------------


def clifford_brickwork(n: int, depth: int, shape, vals, mid: bool, stride: int = 1) -> Circ:
    """Layers of random one-qubit Cliffords and nearest-neighbour cx/cz.

    With ``mid`` set, three layers before the end a tenth of the qubits are
    measured to fresh classical bits, and about half of those are reset,
    before the circuit continues.  Pauli frames open and close the circuit.
    The circuit ends by measuring every ``stride``-th qubit.
    """
    c = Circ(f"brick_{n}{'_mid' if mid else ''}", n, family="clifford")
    _pauli_frame(c, vals)
    for layer in range(depth):
        for q in range(n):
            _random_1q(c, q, shape, vals, clifford=True)
        for a in range(layer % 2, n - 1, 2):
            kind = "cx" if shape.random() < 0.7 else "cz"
            c.g(kind, *((a, a + 1) if shape.random() < 0.5 else (a + 1, a)))
        if mid and layer == depth - 3:
            for q in shape.choice(n, size=max(1, n // 10), replace=False):
                c.measure(int(q))
                if shape.random() < 0.5:
                    c.reset(int(q))
    _pauli_frame(c, vals)
    for q in range(0, n, stride):
        c.measure(q)
    return c


# --- mid-circuit families ----------------------------------------------------------


def random_mid(n: int, n_gates: int, n_mid: int, shape, vals) -> Circ:
    """Random non-Clifford gates with measurements and resets in between."""
    c = Circ(f"randmid_{n}", n, family="exact")
    cuts = set(int(x) for x in shape.choice(np.arange(n_gates // 4, n_gates), size=n_mid,
                                               replace=False))
    for i in range(n_gates):
        if shape.random() < 0.4:
            a, b = shape.choice(n, size=2, replace=False)
            c.g(str(shape.choice(("cx", "cz"))), int(a), int(b))
        else:
            _random_1q(c, int(shape.integers(0, n)), shape, vals, clifford=False)
        if i in cuts:
            q = int(shape.integers(0, n))
            c.measure(q)
            if shape.random() < 0.5:
                c.reset(q)
    c.measure_all()
    return c


def reuse_rounds(n: int, rounds: int, vals) -> Circ:
    """Measure-and-reuse rounds: one ancilla (qubit n-1) probes the data.

    Data qubit i is prepared with P(1) = p_i and only ever acts as a control
    or takes diagonal gates, so its Z value v_i is fixed for the whole run.
    Round r copies v_i (i = r mod (n-1)) onto the ancilla with a cx, rotates
    the ancilla by ry(beta_r), measures it and resets it.  Per-round law: the
    round bit is v_i flipped with probability q_r = sin^2(beta_r / 2), given
    v; the final bit of data qubit i is v_i; data qubits are independent.
    """
    c = Circ(f"reuse_{n}x{rounds}", n, family="reuse")
    data = n - 1
    anc = n - 1
    alphas = [_angle(vals) for _ in range(data)]
    for i, a in enumerate(alphas):
        c.g("ry", i, params=(a,))
        c.g("t", i)
        c.g("rz", i, params=(_angle(vals),))
    round_bits = []
    for r in range(rounds):
        i = r % data
        beta = _angle(vals)
        c.g("cx", i, anc)
        c.g("ry", anc, params=(beta,))
        round_bits.append((i, c.measure(anc), math.sin(beta / 2) ** 2))
        c.reset(anc)
        if r % data == data - 1 and data > 1:
            c.g("cz", 0, data - 1)  # diagonal, leaves every v_i alone
    final_bits = [c.measure(i) for i in range(data)]
    c.law = {
        "p": [math.sin(a / 2) ** 2 for a in alphas],
        "rounds": round_bits,
        "final": final_bits,
    }
    return c


def teleport_chain(n: int, vals) -> Circ:
    """Teleport u(theta, phi, lam)|0> along Bell pairs, correcting by feed-forward.

    After each Bell measurement the measured qubits are classical, so the
    cx and cz that follow act as classically controlled corrections.  Law:
    every mid-circuit bit is fair and independent of everything else; the
    final holder of the state reads 1 with probability sin^2(theta / 2);
    any spare qubit reads 1 with probability sin^2(gamma / 2).
    """
    c = Circ(f"teleport_{n}", n, family="teleport")
    theta = _angle(vals)
    c.g("u", 0, params=(theta, _angle(vals), _angle(vals)))
    src = 0
    hops = (n - 1) // 2
    fair = []
    for h in range(hops):
        a, b = 1 + 2 * h, 2 + 2 * h
        c.g("h", a)
        c.g("cx", a, b)
        c.g("cx", src, a)
        c.g("h", src)
        fair.append(c.measure(src))
        fair.append(c.measure(a))
        c.g("cx", a, b)
        c.g("cz", src, b)
        c.reset(src)
        c.reset(a)
        src = b
    biased = [(c.measure(src), math.sin(theta / 2) ** 2)]
    for q in range(2 * hops + 1, n):
        gamma = _angle(vals)
        c.g("ry", q, params=(gamma,))
        c.g("t", q)
        biased.append((c.measure(q), math.sin(gamma / 2) ** 2))
    c.law = {"fair": fair, "biased": biased}
    return c


# --- dense state vector ------------------------------------------------------------


def dense_blocks(n: int, layers: int, shape, vals) -> Circ:
    """Entangling layers inside two interleaved blocks, even and odd qubits.

    Each layer puts a random u on every qubit and a cx on every pair of a
    random pairing within each block.  No gate crosses the blocks, so the
    exact law is the product of two laws of n/2 qubits each, while the state
    vector backend still works on all 2^n amplitudes.
    """
    blocks = [list(range(0, n, 2)), list(range(1, n, 2))]
    c = Circ(f"dense_{n}x{layers}", n, family="blocks", law={"blocks": blocks})
    for _ in range(layers):
        for q in range(n):
            c.g("u", q, params=(_angle(vals), _angle(vals), _angle(vals)))
        for block in blocks:
            order = shape.permutation(block)
            for k in range(0, len(order) - 1, 2):
                c.g("cx", int(order[k]), int(order[k + 1]))
    c.measure_all()
    return c
