from __future__ import annotations

import numpy as np
import pytest

from polysim import stabilizer as stab
from polysim.circuit import Circuit, Instruction
from polysim.result import NoMeasurementsError
from conftest import chisquare_pvalue, ghz, oracle_distribution, random_circuit
from oracles import ConcreteTableau, apply_numpy, run_numpy, symplectic_products


def test_ghz40_two_outcomes_fast():
    result = stab.run(ghz(40), shots=100, seed=4)
    assert set(result.counts) <= {"0" * 40, "1" * 40}
    assert sum(result.counts.values()) == 100
    assert len(result.counts) == 2  # both branches show up in 100 shots
    assert result.wall_time < 5.0


def test_deterministic_outcomes():
    c = Circuit(2, 2)
    c.gate("x", 0)
    c.measure(0, 0)
    c.measure(0, 1)  # measuring again gives the same answer
    counts = stab.run(c, shots=20, seed=0).counts
    assert counts == {"11": 20}


def test_deterministic_sign_needs_phase_sum():
    """The first four gates leave |000> unchanged but reshape the tableau
    rows, so qubit 0's deterministic outcome needs the i-phases of a row
    product to come out 0."""
    c = Circuit(3, 3)
    c.gate("cx", 2, 1).gate("swap", 1, 2).gate("cx", 0, 2).gate("swap", 0, 2)
    c.gate("h", 1).gate("cx", 1, 2)
    for q in range(3):
        c.measure(q, q)
    assert set(stab.run(c, shots=200, seed=0).counts) == {"000", "110"}


def test_plus_state_measurement_random():
    c = Circuit(1, 1)
    c.gate("h", 0)
    c.measure(0, 0)
    counts = stab.run(c, shots=10_000, seed=8).counts
    assert abs(counts["0"] - 5000) < 300


def test_mid_circuit_double_hadamard():
    c = Circuit(1, 2)
    c.gate("h", 0)
    c.measure(0, 0)
    c.gate("h", 0)
    c.measure(0, 1)
    counts = stab.run(c, shots=40_000, seed=2).counts
    expected = {k: 0.25 for k in ("00", "01", "10", "11")}
    assert chisquare_pvalue(counts, expected, 40_000) > 0.001


def test_reset():
    c = Circuit(1, 1)
    c.gate("h", 0)
    c.append(Instruction("reset", (0,)))
    c.measure(0, 0)
    assert stab.run(c, shots=50, seed=1).counts == {"0": 50}


def test_y_and_phase_gates():
    c = Circuit(1, 1)
    c.gate("y", 0)
    c.measure(0, 0)
    assert stab.run(c, shots=10, seed=0).counts == {"1": 10}
    d = Circuit(1, 1)
    d.gate("h", 0).gate("s", 0).gate("s", 0).gate("h", 0)  # HSSH = HZH = X
    d.measure(0, 0)
    assert stab.run(d, shots=10, seed=0).counts == {"1": 10}
    e = Circuit(1, 1)
    e.gate("h", 0).gate("s", 0).gate("sdg", 0).gate("h", 0)  # identity
    e.measure(0, 0)
    assert stab.run(e, shots=10, seed=0).counts == {"0": 10}


def test_cz_and_swap():
    c = Circuit(2, 2)
    c.gate("h", 0).gate("h", 1).gate("cz", 0, 1).gate("h", 1)  # h.cz.h = cx(0,1)
    c.gate("swap", 0, 1)
    c.measure(0, 0)
    c.measure(1, 1)
    counts = stab.run(c, shots=4000, seed=3).counts
    assert set(counts) == {"00", "11"}


def test_against_branch_oracle(rng):
    for trial in range(15):
        n = int(rng.integers(1, 6))
        c = random_circuit(n, int(rng.integers(3, 20)), rng, clifford_only=True)
        expected = oracle_distribution(c)
        counts = stab.run(c, shots=20_000, seed=1000 + trial).counts
        assert chisquare_pvalue(counts, expected, 20_000) > 0.001


def mid_circuit_clifford(n, n_clbits, n_gates, rng, p_measure, p_reset) -> Circuit:
    """Random Clifford gates with measures and resets placed between them."""
    body = random_circuit(n, n_gates, rng, clifford_only=True, measured=False)
    c = Circuit(n, n_clbits)
    for inst in body.instructions:
        roll = rng.random()
        if roll < p_measure:
            c.measure(int(rng.integers(n)), int(rng.integers(n_clbits)))
        elif roll < p_measure + p_reset:
            c.append(Instruction("reset", (int(rng.integers(n)),)))
        c.append(inst)
    return c


def test_mid_circuit_against_branch_oracle(rng):
    """Measures and resets between gates follow the exact branch law.

    Mid-circuit measures write random clbits, so later ones overwrite
    earlier ones and terminal measures overwrite both.
    """
    for trial in range(15):
        n = int(rng.integers(1, 5))
        c = mid_circuit_clifford(n, n + 2, int(rng.integers(6, 20)), rng, 0.15, 0.15)
        for q in range(n):
            c.measure(q, q)
        expected = oracle_distribution(c)
        counts = stab.run(c, shots=20_000, seed=2000 + trial).counts
        assert chisquare_pvalue(counts, expected, 20_000) > 0.001


class _FixedBits:
    """Stands in for a Generator and hands out preset outcome bits in order."""

    def __init__(self, bits):
        self.bits = list(bits)

    def integers(self, high):
        return self.bits.pop(0)


def test_forms_match_concrete_replay(rng):
    """Each outcome form, evaluated at an assignment, is what a replay that
    draws those same bits measures."""
    for _ in range(100):
        n = int(rng.integers(2, 7))
        c = mid_circuit_clifford(n, n, int(rng.integers(20, 60)), rng, 0.3, 0.1)
        symbolic = stab.Tableau(n)
        forms = []
        for inst in c.instructions:
            if inst.kind == "measure":
                forms.append(symbolic.measure(inst.qubits[0]))
            elif inst.kind == "reset":
                symbolic.reset(inst.qubits[0])
            else:
                symbolic.apply_gates([inst])
        for _ in range(8):
            bits = rng.integers(0, 2, size=symbolic.k)
            expected = [int(f[0] ^ f[1:] @ bits[: f.size - 1] % 2) for f in forms]
            fixed = _FixedBits(bits)
            replay = ConcreteTableau(n)
            got = []
            for inst in c.instructions:
                if inst.kind == "measure":
                    got.append(replay.measure(inst.qubits[0], fixed))
                elif inst.kind == "reset":
                    replay.reset(inst.qubits[0], fixed)
                else:
                    replay.apply(inst)
            assert not fixed.bits
            assert got == expected


def test_seventy_qubits_have_no_clbit_cap():
    c = Circuit(70)
    for q in range(70):
        c.gate("h", q)
    c.measure_all()
    counts = stab.run(c, shots=200, seed=3).counts
    assert sum(counts.values()) == 200
    assert all(len(key) == 70 for key in counts)
    assert len(counts) == 200  # 2^70 equally likely outcomes never repeat here


def test_parity_of_three_hundred_outcomes():
    """A clbit that is the XOR of 300 random outcomes stays exact in the draw."""
    n = 301
    c = Circuit(n, n)
    for q in range(n - 1):
        c.gate("h", q)
        c.gate("cx", q, n - 1)
        c.measure(q, q)
    c.measure(n - 1, n - 1)
    counts = stab.run(c, shots=64, seed=5).counts
    assert sum(counts.values()) == 64
    for key in counts:
        assert int(key[0]) == key[1:].count("1") % 2


def test_tableau_group_structure(rng):
    """Destabilizer i anticommutes exactly with stabilizer i, rest commute."""
    for _ in range(25):
        n = int(rng.integers(2, 7))
        c = random_circuit(n, 30, rng, clifford_only=True, measured=False)
        tab = stab.Tableau(n)
        tab.apply_gates(c.instructions)
        products = symplectic_products(tab)
        expected = np.zeros((2 * n, 2 * n), dtype=np.int64)
        expected[:n, n:] = np.eye(n, dtype=np.int64)
        expected[n:, :n] = np.eye(n, dtype=np.int64)
        np.testing.assert_array_equal(products, expected)


GATE_KINDS = ("h", "s", "sdg", "x", "y", "z", "cx", "cz", "swap", "barrier")


def random_gate(n, rng) -> Instruction:
    """Any gate kind or a barrier; two-qubit kinds need n > 1."""
    kinds = GATE_KINDS if n > 1 else GATE_KINDS[:6] + ("barrier",)
    kind = str(rng.choice(kinds))
    if kind in ("cx", "cz", "swap"):
        a, b = rng.choice(n, size=2, replace=False)
        return Instruction(kind, (int(a), int(b)))
    if kind == "barrier":
        size = int(rng.integers(1, n + 1))
        return Instruction(kind, tuple(int(q) for q in rng.choice(n, size=size, replace=False)))
    return Instruction(kind, (int(rng.integers(n)),))


def interleaved_clifford(n, rng, n_runs=12) -> Circuit:
    """Runs of random gates separated by measurements and resets."""
    c = Circuit(n, n)
    for _ in range(n_runs):
        for _ in range(int(rng.integers(1, 3 * n + 4))):
            c.append(random_gate(n, rng))
        q = int(rng.integers(n))
        if rng.random() < 0.7:
            c.measure(q, int(rng.integers(n)))
        else:
            c.append(Instruction("reset", (q,)))
    for q in range(n):
        c.measure(q, q)
    return c


@pytest.mark.parametrize("n", [1, 4, 31, 32, 33, 64, 65, 130])
def test_gate_runs_match_numpy_rules_bitwise(n):
    """Each run leaves x, z and every phase column as the per-gate numpy
    rules do, across byte and 64-bit word edges of the 2n rows, and leaves
    the outcome coefficients alone."""
    rng = np.random.default_rng(5000 + n)
    for _ in range(4):
        c = interleaved_clifford(n, rng)
        fast, slow = stab.Tableau(n), stab.Tableau(n)
        gates = []
        for inst in c.instructions:
            if inst.kind not in ("measure", "reset"):
                gates.append(inst)
                apply_numpy(slow, inst)
                continue
            forms = fast.r[:, 1 : 1 + fast.k].copy()
            fast.apply_gates(gates)
            gates = []
            np.testing.assert_array_equal(fast.r[:, 1 : 1 + fast.k], forms)
            for a, b in ((fast.x, slow.x), (fast.z, slow.z), (fast.r, slow.r)):
                np.testing.assert_array_equal(a, b)
            if inst.kind == "measure":
                np.testing.assert_array_equal(fast.measure(inst.qubits[0]),
                                              slow.measure(inst.qubits[0]))
            else:
                fast.reset(inst.qubits[0])
                slow.reset(inst.qubits[0])
        assert fast.k > 0


@pytest.mark.parametrize("n", [1, 4, 31, 32, 33, 64, 65, 130])
def test_run_counts_match_numpy_rules(n):
    rng = np.random.default_rng(6000 + n)
    for trial in range(3):
        c = interleaved_clifford(n, rng)
        for shots in (1, 200):
            assert stab.run(c, shots, seed=trial).counts == run_numpy(c, shots, seed=trial)


def test_non_clifford_gate_mid_run_leaves_the_tableau_alone():
    rng = np.random.default_rng(7)
    tab = stab.Tableau(5)
    tab.apply_gates([random_gate(5, rng) for _ in range(20)])
    tab.measure(2)
    before = tab.copy()
    run = [Instruction("h", (0,)), Instruction("cx", (0, 1)), Instruction("t", (1,)),
           Instruction("s", (3,))]
    with pytest.raises(stab.NotCliffordError, match="^t is not simulable on a tableau$"):
        tab.apply_gates(run)
    for a, b in ((tab.x, before.x), (tab.z, before.z), (tab.r, before.r)):
        np.testing.assert_array_equal(a, b)
    c = Circuit(2, 2)
    c.gate("h", 0).measure(0, 0).gate("cx", 0, 1).gate("tdg", 1).gate("h", 1).measure(1, 1)
    with pytest.raises(stab.NotCliffordError, match="^tdg is not simulable on a tableau$"):
        stab.run(c, shots=1, seed=0)


def test_seed_determinism():
    c = random_circuit(5, 25, np.random.default_rng(1), clifford_only=True)
    a = stab.run(c, shots=500, seed=99).counts
    b = stab.run(c, shots=500, seed=99).counts
    assert a == b


def test_non_clifford_rejected():
    c = Circuit(1, 1)
    c.gate("t", 0)
    c.measure(0, 0)
    with pytest.raises(stab.NotCliffordError):
        stab.run(c, shots=1, seed=0)
    d = Circuit(1, 1)
    d.gate("rz", 0, params=(0.0,))  # angle zero is still routed away
    d.measure(0, 0)
    with pytest.raises(stab.NotCliffordError):
        stab.run(d, shots=1, seed=0)


def test_no_measurements():
    c = Circuit(2)
    c.gate("h", 0)
    with pytest.raises(NoMeasurementsError):
        stab.run(c, shots=5, seed=0)
