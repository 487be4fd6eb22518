from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from polysim import statevector as sv
from polysim.circuit import Circuit, Instruction, inverse_circuit
from polysim.engine import run_shots
from polysim.result import NoMeasurementsError, QubitCapError
from conftest import (
    chisquare_pvalue,
    ghz,
    oracle_distribution,
    oracle_statevector,
    qft,
    random_circuit,
)
from oracles import final_state


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
    with pytest.raises(QubitCapError):
        final_state(c)


def random_unitary(rng, k: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def local_reference(amps: np.ndarray, qubits: tuple[int, ...], m: np.ndarray) -> np.ndarray:
    """m @ v on every local subspace, by index arithmetic (first qubit = low bit)."""
    idx = np.arange(amps.size)
    local = sum(((idx >> q) & 1) << j for j, q in enumerate(qubits))
    base = idx & ~sum(1 << q for q in qubits)
    out = np.zeros_like(amps)
    for col in range(len(m)):
        source = base | sum(((col >> j) & 1) << q for j, q in enumerate(qubits))
        out += m[local, col] * amps[source]
    return out


def test_generalized_permutations_match_dense_matrix(rng):
    """All 24 4x4 permutations with unit phases; cycles of 3 and 4 included."""
    bit_swap = [0, 2, 1, 3]
    for perm in itertools.permutations(range(4)):
        m = np.zeros((4, 4), dtype=complex)
        m[range(4), perm] = np.exp(1j * rng.uniform(0, 2 * math.pi, size=4))
        for qubits in ((0, 1), (1, 0)):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            full = m if qubits == (0, 1) else m[np.ix_(bit_swap, bit_swap)]
            expected = full @ v
            sv.apply_2q(v, 2, *qubits, m)
            np.testing.assert_allclose(v, expected, atol=1e-12)


def test_dense_kernels_match_reference_past_one_chunk(rng):
    n = 15
    assert 1 << n > sv.CHUNK
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    for q in range(n):
        m = random_unitary(rng, 2)
        expected = local_reference(amps, (q,), m)
        sv.apply_1q(amps, n, q, m)
        np.testing.assert_allclose(amps, expected, atol=1e-10)
    for qa in range(n):
        for qb in range(n):
            if qa != qb:
                m = random_unitary(rng, 4)
                expected = local_reference(amps, (qa, qb), m)
                sv.apply_2q(amps, n, qa, qb, m)
                np.testing.assert_allclose(amps, expected, atol=1e-10)


def random_mid_circuit(n: int, rng) -> Circuit:
    """Random gates with measures and resets between them, every qubit measured last."""
    c = Circuit(n, n)
    for inst in random_circuit(n, 6 * n, rng, measured=False).instructions:
        c.append(inst)
        draw = rng.random()
        if draw < 0.08:
            c.measure(int(rng.integers(n)), int(rng.integers(n)))
        elif draw < 0.14:
            c.append(Instruction("reset", (int(rng.integers(n)),)))
    c.measure_all()
    return c


def collapse_walk(ops, n: int, seed: int) -> np.ndarray:
    """One path through ops, each measure or reset keeping a seeded outcome."""
    bits = np.random.default_rng(seed)
    amps = sv.zero_state(n)
    for op in ops:
        if op.kind not in ("measure", "reset"):
            sv.apply_instruction(amps, n, op)
            continue
        q = op.qubits[0]
        p1 = sv.prob_one(amps, q)
        bit = int(bits.random() < 0.5)
        if (p1 if bit else 1.0 - p1) < 1e-6:
            bit = 1 - bit
        sv.project(amps, q, bit)
        if op.kind == "reset" and bit:
            sv.apply_instruction(amps, n, Instruction("x", (q,)))
    return amps


def test_marginal_probs_are_bitwise_the_squared_magnitudes(rng):
    # pblock draws from the same marginals, so even the last bit must not move
    for n in (1, 4, 11):
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps /= np.linalg.norm(amps)
        full = np.abs(amps.reshape([2] * n)) ** 2
        for qubits in (tuple(range(n)), (0,), (n - 1,), tuple(range(0, n, 2))):
            drop = tuple(n - 1 - q for q in range(n) if q not in qubits)
            expected = (full.sum(axis=drop) if drop else full).reshape(-1)
            got = sv.marginal_probs(amps, n, qubits)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()


def test_fused_stream_matches_per_gate_application(rng):
    for n in range(1, 13):
        for trial in range(3):
            c = random_mid_circuit(n, rng)
            fused = sv.fuse(c.instructions)
            assert [op.kind for op in fused if op.kind in ("measure", "reset")] == [
                i.kind for i in c.instructions if i.kind in ("measure", "reset")
            ]
            np.testing.assert_allclose(
                collapse_walk(fused, n, trial), collapse_walk(c.instructions, n, trial),
                atol=1e-12,
            )


class SplitEvenly:
    """Stands in for the engine's generator: every split keeps half the shots.

    A seeded generator's binomial draws consume its stream differently when
    p1 is exactly 0 and when it is 1e-33, so fused and per-gate runs need not
    give equal counts; with fixed splits they walk the same paths.
    """

    def __init__(self):
        self.uniforms = np.random.default_rng(0)

    def binomial(self, count: int, p: float) -> int:
        if p < 1e-9:
            return 0
        return count if p > 1 - 1e-9 else count // 2

    def random(self, size: int) -> np.ndarray:
        return self.uniforms.random(size)


def test_fused_engine_leaves_match_per_gate_engine(rng):
    for n in range(1, 13):
        c = random_mid_circuit(n, rng)
        walks = []
        for ops in (sv.fuse(c.instructions), c.instructions):
            leaves = []
            counts = run_shots(
                sv.SvState(sv.zero_state(n), n), ops, 64, SplitEvenly(),
                on_leaf=lambda state: leaves.append(state.amps.copy()),
            )
            walks.append((counts, leaves))
        (fused_counts, fused_leaves), (counts, leaves) = walks
        assert fused_counts == counts
        assert len(fused_leaves) == len(leaves)
        for a, b in zip(fused_leaves, leaves):
            np.testing.assert_allclose(a, b, atol=1e-12)


def test_fuse_flushes_before_measure_and_reset():
    c = Circuit(3, 1)
    c.gate("h", 0).gate("t", 0).gate("ry", 1, params=(0.4,)).gate("cx", 0, 1)
    c.gate("s", 2).measure(2, 0).gate("x", 1)
    c.append(Instruction("reset", (1,)))
    c.gate("h", 2).gate("z", 2)
    fused = sv.fuse(c.instructions)
    assert [(op.kind, op.qubits) for op in fused] == [
        ("fused", (0, 1)), ("s", (2,)), ("measure", (2,)), ("x", (1,)), ("reset", (1,)),
        ("fused", (2,)),
    ]


def test_final_state_matches_oracle(rng):
    c = random_circuit(6, 40, rng)
    np.testing.assert_allclose(
        final_state(c), oracle_statevector_of_measured(c), atol=1e-10
    )
