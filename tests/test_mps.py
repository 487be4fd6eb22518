import math
from collections import Counter

import numpy as np
import pytest

from polysim import gates, mps, statevector, suite
from polysim.circuit import Circuit, Instruction
from polysim.result import NoMeasurementsError

from conftest import (
    chisquare_pvalue,
    ghz,
    oracle_distribution,
    oracle_statevector,
    qft,
    random_circuit,
    two_sample_chisquare_pvalue,
)
from oracles import bond_dims, final_state, measure, run_unitaries, to_statevector


def test_matches_reference_contraction_on_random_circuits(rng):
    for _ in range(25):
        n = int(rng.integers(2, 7))
        c = random_circuit(n, int(rng.integers(5, 30)), rng, measured=False)
        state = run_unitaries(c, chi_max=64)
        np.testing.assert_allclose(
            to_statevector(state), oracle_statevector(c), atol=1e-9
        )
        assert state.truncation_error == 0.0


def test_qft_matches_statevector_backend():
    c = qft(5)
    state = run_unitaries(c, chi_max=64)
    np.testing.assert_allclose(
        to_statevector(state), final_state(c), atol=1e-9
    )


def test_nonadjacent_gates_ride_swap_chains(rng):
    c = Circuit(5, 0)
    c.gate("h", 0)
    c.gate("cx", 0, 4)
    c.gate("cx", 4, 1)
    c.gate("swap", 0, 3)
    c.gate("cz", 3, 1)
    state = run_unitaries(c, chi_max=64)
    np.testing.assert_allclose(to_statevector(state), oracle_statevector(c), atol=1e-10)


def test_norm_stays_one_through_truncating_run(rng):
    c = random_circuit(6, 40, rng, measured=False)
    state = mps.MpsState(6, chi_max=2)
    for inst in c.instructions:
        state.apply(inst)
        assert abs(np.linalg.norm(to_statevector(state)) - 1.0) < 1e-10


def test_ghz_needs_only_bond_dimension_two():
    state = run_unitaries(ghz(12, measured=False), chi_max=64)
    assert bond_dims(state) == [2] * 11
    assert state.truncation_error == 0.0


def test_bond_dims_respect_cap_and_geometry(rng):
    n = 8
    for chi_max in (3, 8, 64):
        c = random_circuit(n, 60, rng, measured=False)
        state = run_unitaries(c, chi_max=chi_max)
        for i, dim in enumerate(bond_dims(state)):
            assert dim <= min(chi_max, 2 ** min(i + 1, n - i - 1))


@pytest.mark.parametrize(
    "circuit",
    [
        suite.ghz_circuit(8),
        suite.qaoa_line_circuit(8, layers=2, seed=7),
    ],
    ids=["ghz", "qaoa_line"],
)
def test_truncation_error_shrinks_as_chi_grows(circuit):
    errors = [
        mps.run(circuit, shots=10, seed=0, chi_max=chi).metadata["truncation_error"]
        for chi in (1, 2, 4, 8)
    ]
    assert all(e >= 0.0 for e in errors)
    for tighter, looser in zip(errors[1:], errors[:-1]):
        assert tighter <= looser + 1e-12
    assert errors[0] > 0.0


def test_ghz_truncation_error_is_zero_at_chi_two():
    result = mps.run(suite.ghz_circuit(10), shots=10, seed=0, chi_max=2)
    assert result.metadata["truncation_error"] == 0.0


def test_terminal_sampling_matches_exact_distribution(rng):
    for trial in range(4):
        c = random_circuit(5, 18, rng, measured=False)
        exact = np.abs(oracle_statevector(c)) ** 2
        c.measure_all()
        expected = {format(i, "05b"): p for i, p in enumerate(exact) if p > 0}
        shots = 60_000
        result = mps.run(c, shots=shots, seed=500 + trial, chi_max=64)
        assert sum(result.counts.values()) == shots
        assert chisquare_pvalue(result.counts, expected, shots) > 1e-3


def test_terminal_sampling_cost_tracks_branches_not_shots():
    c = suite.ghz_circuit(20)
    result = mps.run(c, shots=200_000, seed=3, chi_max=4)
    assert set(result.counts) == {"0" * 20, "1" * 20}
    assert sum(result.counts.values()) == 200_000


def test_mid_circuit_measure_and_reset_match_branch_oracle(rng):
    c = Circuit(4, 3)
    c.gate("h", 0)
    c.gate("cx", 0, 1)
    c.measure(1, 0)
    c.gate("h", 1)
    c.gate("ry", 2, params=(0.8,))
    c.append(Instruction("reset", (0,)))
    c.gate("cx", 2, 3)
    c.measure(0, 1)
    c.measure(3, 2)
    expected = oracle_distribution(c)
    shots = 4096
    result = mps.run(c, shots=shots, seed=91, chi_max=16)
    assert chisquare_pvalue(result.counts, expected, shots) > 1e-3


def test_replay_path_agrees_with_statevector_backend():
    c = Circuit(3, 2)
    c.gate("h", 0)
    c.measure(0, 0)
    c.gate("h", 0)
    c.gate("cx", 0, 1)
    c.measure(1, 1)
    shots = 20_000
    a = mps.run(c, shots=shots, seed=11, chi_max=8)
    b = statevector.run(c, shots=shots, seed=12)
    assert two_sample_chisquare_pvalue(a.counts, b.counts) > 1e-3


def test_same_seed_reproduces_counts():
    c = suite.qaoa_line_circuit(6, layers=2, seed=5)
    a = mps.run(c, shots=2000, seed=77, chi_max=8)
    b = mps.run(c, shots=2000, seed=77, chi_max=8)
    assert a.counts == b.counts
    assert mps.run(c, shots=2000, seed=78, chi_max=8).counts != a.counts


def test_random_state_sampling_matches_contraction(rng):
    state = mps.MpsState.random(7, chi=4, rng=rng)
    amps = to_statevector(state)
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-10
    shots = 50_000
    bits, freq = state.sample_terminal(shots, np.random.default_rng(6))
    counts = {"".join(map(str, row[::-1])): int(k) for row, k in zip(bits, freq)}
    expected = {format(i, "07b"): p for i, p in enumerate(np.abs(amps) ** 2)}
    assert chisquare_pvalue(counts, expected, shots) > 1e-3


def test_measure_collapses_and_renormalizes(rng):
    state = run_unitaries(ghz(6, measured=False), chi_max=8)
    bit = measure(state, 3, rng)
    amps = to_statevector(state)
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-10
    expected_index = (2**6 - 1) if bit else 0
    assert abs(abs(amps[expected_index]) - 1.0) < 1e-10


def test_run_metadata_reports_chi_and_truncation():
    c = suite.qaoa_line_circuit(6, layers=3, seed=2)
    result = mps.run(c, shots=100, seed=1, chi_max=2)
    assert result.backend == "mps"
    assert result.metadata["chi_max"] == 2
    assert result.metadata["truncation_error"] > 0.0


def test_rejects_unmeasured_circuit_and_bad_chi():
    with pytest.raises(NoMeasurementsError):
        mps.run(ghz(3, measured=False), shots=10, seed=0, chi_max=4)
    with pytest.raises(ValueError):
        mps.MpsState(3, chi_max=0)


def test_mid_circuit_run_reports_worst_path_truncation():
    c = Circuit(4, 4)
    c.gate("ry", 0, params=(1.0,))  # reads 1 on about 23% of shots
    c.gate("ry", 2, params=(0.4,))
    c.measure(0, 0)
    c.gate("cx", 0, 2)
    c.gate("ry", 2, params=(0.3,))
    c.gate("cx", 2, 3)  # chi 1 keeps only the larger Schmidt value
    c.measure(1, 1).measure(2, 2).measure(3, 3)
    result = mps.run(c, shots=400, seed=3, chi_max=1)
    # outcome 0 leaves ry(0.7) on q2 and outcome 1 leaves ry(pi - 0.1);
    # the rarer outcome is walked first, the reported error is the worse one
    assert result.metadata["truncation_error"] == pytest.approx(math.sin(0.35) ** 2)


def test_sweep_counts_repeat_and_stay_exact_past_63_qubits():
    c = suite.qaoa_line_circuit(10, layers=2, seed=4)
    state = run_unitaries(c, chi_max=4)
    bits, counts = state.sample_terminal(3000, np.random.default_rng(8))
    assert counts.sum() == 3000
    assert len(np.unique(bits, axis=0)) == len(bits)
    again = state.sample_terminal(3000, np.random.default_rng(8))
    assert np.array_equal(again[0], bits) and np.array_equal(again[1], counts)

    wide = Circuit(70, 70)
    for q in (0, 64, 69):
        wide.gate("x", q)
    wide.measure_all()
    state = run_unitaries(wide, chi_max=2)
    bits, counts = state.sample_terminal(500, np.random.default_rng(1))
    assert counts.tolist() == [500]
    assert np.flatnonzero(bits[0]).tolist() == [0, 64, 69]
    key = "".join("1" if q in (0, 64, 69) else "0" for q in reversed(range(70)))
    assert mps.run(wide, shots=500, seed=1, chi_max=2).counts == {key: 500}


def _branch_by_branch(state, shots, rng):
    """The per-prefix sweep: one scalar binomial per live prefix and site."""
    state.move_center(0)
    branches = [(np.ones(1, dtype=complex), shots, 0)]
    for site in range(state.n):
        grown = []
        for env, count, code in branches:
            b = np.tensordot(env, state.tensors[site], axes=(0, 0))
            w0, w1 = np.linalg.norm(b[0]) ** 2, np.linalg.norm(b[1]) ** 2
            c0 = int(rng.binomial(count, w0 / (w0 + w1)))
            for bit, k in ((0, c0), (1, count - c0)):
                if k:
                    grown.append((b[bit] / np.linalg.norm(b[bit]), k, code | bit << site))
        branches = grown
    return [(code, k) for _, k, code in branches]


@pytest.mark.parametrize("width", [1, 7])
def test_sweep_draws_in_the_order_of_the_branch_loop(width):
    # uniform splits make every p0 exactly 1/2 on both sides, so the draws
    # must agree exactly: same binomial calls, same prefix order
    c = Circuit(width, 0)
    for q in range(width):
        c.gate("h", q)
    if width > 1:
        c.gate("cx", 0, width - 1)
    state = run_unitaries(c, chi_max=4)
    bits, counts = state.sample_terminal(5000, np.random.default_rng(12))
    codes = [sum(int(v) << q for q, v in enumerate(row)) for row in bits]
    assert list(zip(codes, counts.tolist())) == _branch_by_branch(
        state, 5000, np.random.default_rng(12)
    )


def _random_unitary(rng, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_exact_state(rng, n: int) -> mps.MpsState:
    state = mps.MpsState.random(n, 2 ** (n // 2), rng)
    state.move_center(int(rng.integers(n)))
    state.chi_max = 2**n  # no truncation: every update is exact
    return state


def _assert_canonical(state: mps.MpsState) -> None:
    """Sites left of the center are left isometries, sites right of it right ones."""
    for i, t in enumerate(state.tensors):
        if i == state.center:
            continue
        m = t.reshape(-1, t.shape[2]) if i < state.center else t.reshape(t.shape[0], -1).T
        np.testing.assert_allclose(m.conj().T @ m, np.eye(m.shape[1]), atol=1e-12)


def test_two_site_update_matches_dense_kernel(rng):
    n = 6
    matrices = {kind: gates.two_qubit_matrix(kind) for kind in ("cx", "cz", "swap")}
    matrices["random"] = _random_unitary(rng, 4)
    for name, m4 in matrices.items():
        for left in range(n - 1):
            # apply_two_site takes site ``left`` as the high bit; _high_bit_first
            # turns a polysim.gates matrix (first qubit low) into that order
            for m_local, first, second in ((m4, left + 1, left),
                                           (mps._high_bit_first(m4), left, left + 1)):
                state = _random_exact_state(rng, n)
                amps = to_statevector(state)
                state.apply_two_site(left, m_local)
                statevector.apply_2q(amps, n, first, second, m4)
                np.testing.assert_allclose(to_statevector(state), amps, rtol=0, atol=1e-12,
                                           err_msg=f"{name} at {left}")
                _assert_canonical(state)


@pytest.mark.parametrize("kind", ["cx", "cz", "swap"])
def test_apply_matches_dense_kernel_at_any_distance_and_order(kind, rng):
    n = 6
    for distance in (1, 2, 3):
        for lo in range(n - distance):
            for qa, qb in ((lo, lo + distance), (lo + distance, lo)):
                state = _random_exact_state(rng, n)
                amps = to_statevector(state)
                state.apply(Instruction(kind, (qa, qb)))
                statevector.apply_2q(amps, n, qa, qb, gates.two_qubit_matrix(kind))
                np.testing.assert_allclose(to_statevector(state), amps, rtol=0, atol=1e-12,
                                           err_msg=f"{kind}({qa}, {qb})")
                _assert_canonical(state)


def test_move_center_keeps_state_and_canonical_form(rng):
    c = Circuit(6)  # bonds of dimension 2, 1, 1, 2, 1: both kinds of step
    c.gate("h", 0).gate("cx", 0, 1).gate("ry", 3, params=(0.7,)).gate("cx", 3, 4)
    c.gate("u", 5, params=(0.3, 1.1, -0.4))
    product = run_unitaries(c, chi_max=8)
    assert bond_dims(product) == [2, 1, 1, 2, 1]
    for state in (product, _random_exact_state(rng, 6)):
        state.tensors[state.center] = 3.0 * state.tensors[state.center]  # any norm is kept
        amps = to_statevector(state)
        for target in (5, 0, 3, 1, 4):
            state.move_center(target)
            assert state.center == target
            np.testing.assert_allclose(to_statevector(state), amps, rtol=0, atol=1e-12)
            _assert_canonical(state)


def _batched_sweep(state, shots, rng):
    """The sweep with every site on the batched path, single live prefix or not."""
    state.move_center(0)
    env = np.ones((1, 1), dtype=complex)
    counts = np.array([shots], dtype=np.int64)
    codes = np.zeros(1, dtype=np.int64)
    for site in range(state.n):
        a = state.tensors[site]
        b = (env @ a.reshape(a.shape[0], -1)).reshape(-1, a.shape[2])
        w = np.einsum("ij,ij->i", b.view(np.float64), b.view(np.float64))
        p0 = w[0::2] / (w[0::2] + w[1::2])
        c0 = rng.binomial(counts[0], p0[0]) if len(counts) == 1 else rng.binomial(counts, p0)
        children = np.repeat(counts, 2)
        children[0::2] = c0
        children[1::2] -= c0
        keep = np.flatnonzero(children)
        env = b[keep] / np.sqrt(w[keep])[:, None]
        codes = codes[keep >> 1] | (keep & 1) << site
        counts = children[keep]
    return codes.tolist(), counts.tolist()


@pytest.mark.parametrize("shots", [1, 2, 7, 300, 5000])
def test_single_prefix_path_draws_as_the_batched_path(shots):
    # the first sites are nearly deterministic, so the sweep starts on the
    # single-prefix path and leaves it where the shots first split
    c = Circuit(9, 0)
    for q in range(9):
        c.gate("ry", q, params=(0.05 + 0.3 * q,))
    for q in range(8):
        c.gate("cx", q, q + 1)
    c.gate("cz", 2, 7)
    for seed in range(5):
        state = run_unitaries(c, chi_max=16)
        bits, counts = state.sample_terminal(shots, np.random.default_rng(seed))
        codes = [sum(int(v) << q for q, v in enumerate(row)) for row in bits]
        expected = _batched_sweep(state, shots, np.random.default_rng(seed))
        assert (codes, counts.tolist()) == expected


def test_project_cuts_bonds_to_the_rank_of_the_projected_site(rng, monkeypatch):
    n = 6
    calls = Counter()
    real = {name: getattr(np.linalg, name) for name in ("qr", "svd")}

    def counting(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return real[name](*args, **kwargs)
        return call

    for name in real:
        monkeypatch.setattr(np.linalg, name, counting(name))
    ghz_state = run_unitaries(ghz(n, measured=False), chi_max=8)  # rank 1 at every site
    cases = [(ghz_state, q, bit) for q in range(n) for bit in (0, 1)]
    cases += [(_random_exact_state(rng, n), q, bit) for q in range(n) for bit in (0, 1)]
    ranks = Counter()
    for source, q, bit in cases:
        state = source.copy()
        state.move_center(q)
        piece = state.tensors[q][:, bit, :]
        rank = int(np.linalg.matrix_rank(piece))
        amps = to_statevector(state)
        statevector.project(amps, q, bit)
        calls.clear()
        state.project(q, bit)
        assert calls["svd"] == (0 if min(piece.shape) == 1 else 1)
        if rank == 1:  # the bonds around q are 1, so the center crosses them by rescaling
            state.move_center(max(q - 1, 0))
            state.move_center(min(q + 1, n - 1))
            assert calls["qr"] == 0
        dims = [1] + bond_dims(state) + [1]
        assert dims[q] == dims[q + 1] == rank
        np.testing.assert_allclose(to_statevector(state), amps, rtol=0, atol=1e-12)
        _assert_canonical(state)
        ranks[rank] += 1
    assert sorted(ranks) == [1, 2, 4]  # the random state's sites project to ranks 1, 2 and 4
