"""High-volume randomized invariant checks.

Each test draws at least a thousand random cases; failures print the case
seed so a run can be replayed in isolation.
"""
import numpy as np
import pytest
from conftest import random_circuit
from oracles import norm, run_unitaries, symplectic_products
from test_predictor import make_model, scaled_model

from polysim import statevector
from polysim.circuit import Instruction
from polysim.partition import VqpuLayout, partition_circuit
from polysim.predictor import estimate, select_backend
from polysim.stabilizer import Tableau

N_CASES = 1000


def test_partition_permutation_is_a_bijection():
    master = np.random.default_rng(101)
    for case in range(N_CASES):
        rng = np.random.default_rng(master.integers(2**63))
        n = int(rng.integers(4, 17))
        k = int(rng.integers(2, 5))
        capacity = -(-n // k) + int(rng.integers(0, 3))
        c = random_circuit(n, int(rng.integers(5, 25)), rng, measured=False)
        layout = VqpuLayout(k=k, capacity=capacity)
        plan = partition_circuit(c, layout)
        assert sorted(plan.permutation) == list(range(n)), f"case {case}"
        seen = [q for g in plan.groups for q in g]
        assert sorted(seen) == list(range(n)), f"case {case}"
        for q in range(n):
            assert q in plan.groups[plan.assignment[q]], f"case {case}"
        assert all(len(g) <= capacity for g in plan.groups), f"case {case}"


def test_tableau_rows_keep_symplectic_pairing():
    master = np.random.default_rng(202)
    for case in range(N_CASES):
        rng = np.random.default_rng(master.integers(2**63))
        n = int(rng.integers(2, 9))
        expected = np.zeros((2 * n, 2 * n), dtype=np.int64)
        expected[np.arange(n), n + np.arange(n)] = 1
        expected[n + np.arange(n), np.arange(n)] = 1
        gates = []
        for _ in range(30):
            roll = rng.random()
            if roll < 0.35:
                a, b = rng.choice(n, size=2, replace=False)
                kind = str(rng.choice(("cx", "cz", "swap")))
                gates.append(Instruction(kind, (int(a), int(b))))
            else:
                kind = str(rng.choice(("h", "s", "sdg", "x", "y", "z")))
                gates.append(Instruction(kind, (int(rng.integers(n)),)))
        tab = Tableau(n)
        tab.apply_gates(gates)
        assert np.array_equal(symplectic_products(tab), expected), f"case {case}"


def test_statevector_norm_is_preserved():
    master = np.random.default_rng(303)
    for case in range(N_CASES):
        rng = np.random.default_rng(master.integers(2**63))
        n = int(rng.integers(2, 9))
        c = random_circuit(n, int(rng.integers(5, 30)), rng, measured=False)
        amps = statevector.zero_state(n)
        for inst in c.instructions:
            statevector.apply_instruction(amps, n, inst)
        norm = float(np.sum(np.abs(amps) ** 2))
        assert abs(norm - 1.0) < 1e-9, f"case {case}: norm {norm}"


def test_mps_norm_is_preserved_under_truncation():
    master = np.random.default_rng(404)
    for case in range(N_CASES):
        rng = np.random.default_rng(master.integers(2**63))
        n = int(rng.integers(4, 9))
        chi = int(rng.choice((2, 4)))
        c = random_circuit(n, int(rng.integers(8, 22)), rng, measured=False)
        state = run_unitaries(c, chi_max=chi)
        assert abs(norm(state) - 1.0) < 1e-9, f"case {case}"


def test_estimate_is_monotone_in_gates_and_shots():
    model = make_model()
    master = np.random.default_rng(505)
    for case in range(N_CASES):
        rng = np.random.default_rng(master.integers(2**63))
        n = int(rng.integers(2, 11))
        c = random_circuit(n, int(rng.integers(3, 25)), rng, measured=bool(rng.integers(2)))
        backend = str(rng.choice(("sv", "mps")))
        kwargs = {"chi": int(rng.choice((1, 2, 4, 8)))} if backend == "mps" else {}
        shots = int(rng.integers(1, 4000))
        base = estimate(c, backend, model, shots=shots, **kwargs)
        if rng.random() < 0.5:
            c.gate("t", int(rng.integers(n)))
        else:
            c.gate("rx", int(rng.integers(n)), params=(0.7,))
        grown = estimate(c, backend, model, shots=shots, **kwargs)
        assert grown > base, f"case {case}"
        more_shots = estimate(c, backend, model, shots=shots + 100, **kwargs)
        assert more_shots > grown, f"case {case}"


def test_selection_is_scale_invariant():
    model = make_model(
        sv_1q=3.1e-9,
        sv_2q=5.7e-9,
        mps_1q=2.2e-8,
        mps_2q=9.5e-8,
        stab_gate=1.4e-8,
        stab_meas=2.9e-8,
    )
    master = np.random.default_rng(606)
    for case in range(N_CASES):
        rng = np.random.default_rng(master.integers(2**63))
        n = int(rng.integers(2, 11))
        c = random_circuit(
            n,
            int(rng.integers(3, 35)),
            rng,
            clifford_only=bool(rng.integers(2)),
        )
        shots = int(rng.integers(1, 5000))
        factor = float(10.0 ** rng.uniform(-3, 3))
        base = select_backend(c, model, shots=shots).chosen
        scaled = select_backend(c, scaled_model(model, factor), shots=shots).chosen
        assert scaled == base, f"case {case}: factor {factor}"