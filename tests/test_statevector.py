from __future__ import annotations

import math

import numpy as np
import pytest

from polysim import statevector as sv
from polysim.circuit import Circuit, inverse_circuit
from polysim.result import NoMeasurementsError, QubitCapError
from conftest import (
    chisquare_pvalue,
    ghz,
    oracle_distribution,
    oracle_statevector,
    qft,
    random_circuit,
)


def unitary_state(c: Circuit) -> np.ndarray:
    amps = sv.zero_state(c.n_qubits)
    for inst in c.instructions:
        if inst.is_unitary:
            sv.apply_instruction(amps, c.n_qubits, inst)
    return amps


def test_little_endian_convention():
    c = Circuit(2)
    c.gate("x", 0)
    amps = unitary_state(c)
    assert amps[1] == 1.0  # qubit 0 is the least significant bit
    assert np.count_nonzero(amps) == 1


def test_bell_amplitudes():
    c = Circuit(2)
    c.gate("h", 0).gate("cx", 0, 1)
    amps = unitary_state(c)
    expected = np.array([1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
    np.testing.assert_allclose(amps, expected, atol=1e-12)


def test_cx_direction():
    c = Circuit(2)
    c.gate("x", 1).gate("cx", 1, 0)  # control = qubit 1
    amps = unitary_state(c)
    assert abs(amps[3]) == 1.0


def test_qft3_matches_dft_oracle():
    """Frozen oracle: the 8x8 DFT matrix applied to basis state |101>."""
    n = 3
    index = 5  # qubits 0 and 2 set
    dft = np.exp(2j * math.pi * np.outer(np.arange(8), np.arange(8)) / 8) / math.sqrt(8)
    expected = dft[:, index]
    c = Circuit(n)
    c.gate("x", 0).gate("x", 2)
    for inst in qft(n).instructions:
        c.append(inst)
    np.testing.assert_allclose(unitary_state(c), expected, atol=1e-12)


def test_qft_matches_dft_on_random_states():
    rng = np.random.default_rng(7)
    n = 4
    dft = np.exp(2j * math.pi * np.outer(np.arange(16), np.arange(16)) / 16) / 4.0
    for basis in rng.choice(16, size=4, replace=False):
        c = Circuit(n)
        for q in range(n):
            if (int(basis) >> q) & 1:
                c.gate("x", q)
        for inst in qft(n).instructions:
            c.append(inst)
        np.testing.assert_allclose(unitary_state(c), dft[:, int(basis)], atol=1e-12)


def test_kernels_match_reference_contraction(rng):
    for _ in range(30):
        n = int(rng.integers(1, 6))
        c = random_circuit(n, int(rng.integers(1, 25)), rng, measured=False)
        np.testing.assert_allclose(
            unitary_state(c), oracle_statevector(c), atol=1e-10
        )


def test_inverse_restores_initial_state(rng):
    for _ in range(20):
        n = int(rng.integers(1, 6))
        c = random_circuit(n, 15, rng, measured=False)
        mirror = Circuit(n)
        for inst in c.instructions + inverse_circuit(c).instructions:
            mirror.append(inst)
        amps = unitary_state(mirror)
        assert abs(amps[0]) > 1.0 - 1e-9


def test_norm_preserved(rng):
    c = random_circuit(5, 40, rng, measured=False)
    amps = unitary_state(c)
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-10


def test_ghz_counts_two_outcomes():
    result = sv.run(ghz(3), shots=2000, seed=11)
    assert set(result.counts) <= {"000", "111"}
    assert sum(result.counts.values()) == 2000
    assert result.backend == "sv"
    assert min(result.counts.values()) > 800


def test_terminal_sampling_chi_square(rng):
    for _ in range(5):
        n = int(rng.integers(2, 7))
        c = random_circuit(n, 20, rng)
        probs = np.abs(oracle_statevector_of_measured(c)) ** 2
        expected = {
            format(i, f"0{n}b"): float(p) for i, p in enumerate(probs) if p > 0
        }
        counts = sv.run(c, shots=100_000, seed=int(rng.integers(2**31))).counts
        assert chisquare_pvalue(counts, expected, 100_000) > 0.001


def oracle_statevector_of_measured(c: Circuit) -> np.ndarray:
    stripped = Circuit(c.n_qubits)
    for inst in c.instructions:
        if inst.is_unitary:
            stripped.append(inst)
    return oracle_statevector(stripped)


def test_mid_circuit_branches_match_enumeration():
    """5-qubit mid-circuit measure plus reset against the branch oracle."""
    from polysim.circuit import Instruction

    c = Circuit(5, 5)
    c.gate("h", 0).gate("cx", 0, 1).gate("ry", 2, params=(0.7,))
    c.measure(0, 0)
    c.append(Instruction("reset", (1,)))
    c.gate("h", 1).gate("cx", 2, 3).gate("u", 4, params=(1.1, 0.3, -0.4))
    c.measure(1, 1).measure(2, 2).measure(3, 3).measure(4, 4)
    expected = oracle_distribution(c)
    result = sv.run(c, shots=4096, seed=5)
    assert sum(result.counts.values()) == 4096
    assert chisquare_pvalue(result.counts, expected, 4096) > 0.001


def test_collapse_renormalizes():
    c = Circuit(1, 1)
    c.gate("ry", 0, params=(1.0,))
    c.measure(0, 0)
    c.gate("x", 0)  # forces the replay path
    c.measure(0, 0)
    result = sv.run(c, shots=500, seed=3)
    assert set(result.counts) <= {"0", "1"}
    assert sum(result.counts.values()) == 500


def test_seed_determinism():
    c = random_circuit(4, 15, np.random.default_rng(0))
    a = sv.run(c, shots=3000, seed=42).counts
    b = sv.run(c, shots=3000, seed=42).counts
    assert a == b
    c2 = sv.run(c, shots=3000, seed=43).counts
    assert a != c2  # overwhelmingly likely for 3000 shots


def test_crossed_clbit_mapping():
    c = Circuit(2, 2)
    c.gate("x", 0)
    c.measure(0, 1)  # qubit 0 -> clbit 1
    c.measure(1, 0)  # qubit 1 -> clbit 0
    counts = sv.run(c, shots=64, seed=1).counts
    assert counts == {"10": 64}  # clbit 0 rightmost


def test_subset_measurement_bitstring_width():
    c = Circuit(3, 2)
    c.gate("x", 2)
    c.measure(2, 1)
    counts = sv.run(c, shots=10, seed=0).counts
    assert counts == {"1": 10}


def test_no_measurement_error():
    c = Circuit(2)
    c.gate("h", 0)
    with pytest.raises(NoMeasurementsError):
        sv.run(c, shots=10, seed=0)


def test_qubit_cap():
    c = Circuit(27, 27)
    c.gate("h", 0)
    c.measure(0, 0)
    with pytest.raises(QubitCapError):
        sv.run(c, shots=1, seed=0)
    sv.run(Circuit(5, 5).gate("h", 0).measure(0, 0), shots=1, seed=0, qubit_cap=5)


def test_expectation_values():
    g = ghz(3, measured=False)
    assert sv.expectation(g, (0, 1)) == pytest.approx(1.0, abs=1e-12)
    assert sv.expectation(g, (0, 1, 2)) == pytest.approx(0.0, abs=1e-12)
    plus = Circuit(1)
    plus.gate("h", 0)
    assert sv.expectation(plus, (0,)) == pytest.approx(0.0, abs=1e-12)
    ry = Circuit(1)
    ry.gate("ry", 0, params=(0.9,))
    assert sv.expectation(ry, (0,)) == pytest.approx(math.cos(0.9), abs=1e-12)


def test_expectation_uses_cached_state():
    c = ghz(4, measured=False)
    sv.expectation(c, (0,))
    assert c in sv._state_cache
    first = sv._state_cache[c]
    sv.expectation(c, (1, 2))
    assert sv._state_cache[c] is first
