import math

import numpy as np
import pytest

from polysim import metrics, mps, statevector, suite
from polysim.circuit import Circuit, Instruction

from conftest import random_circuit
from oracles import final_state


def test_hellinger_identical_and_disjoint():
    p = {"00": 0.25, "01": 0.25, "10": 0.5}
    assert metrics.hellinger_fidelity(p, dict(p)) == pytest.approx(1.0)
    assert metrics.hellinger_fidelity({"0": 1.0}, {"1": 1.0}) == 0.0


def test_hellinger_half_overlap_hand_value():
    value = metrics.hellinger_fidelity({"0": 0.5, "1": 0.5}, {"0": 1.0})
    assert value == pytest.approx(0.5)


def test_hellinger_normalizes_count_maps():
    counts = {"a": 300, "b": 100}
    probs = {"a": 0.75, "b": 0.25}
    assert metrics.hellinger_fidelity(counts, probs) == pytest.approx(1.0)


def test_hellinger_symmetry_and_range(rng):
    for _ in range(100):
        size = int(rng.integers(1, 6))
        keys = [format(i, "03b") for i in range(size)]
        p = {k: float(v) for k, v in zip(keys, rng.dirichlet(np.ones(size)))}
        q = {k: float(v) for k, v in zip(keys, rng.dirichlet(np.ones(size)))}
        h_pq = metrics.hellinger_fidelity(p, q)
        assert h_pq == pytest.approx(metrics.hellinger_fidelity(q, p))
        assert 0.0 <= h_pq <= 1.0 + 1e-12


def test_mirror_fidelity_is_one_on_exact_backends(rng):
    c = random_circuit(4, 20, rng, measured=False)
    assert metrics.mirror_fidelity(c, backend="sv", shots=500, seed=4) == 1.0
    word = suite.clifford_circuit(5, 30, seed=9, measured=False)
    assert metrics.mirror_fidelity(word, backend="stab", shots=500, seed=4) == 1.0


def test_mirror_fidelity_ignores_existing_measurements():
    c = suite.ghz_circuit(4)  # ends in measure_all
    assert metrics.mirror_fidelity(c, backend="sv", shots=200, seed=1) == 1.0


def test_mirror_fidelity_detects_truncation_loss():
    ghz8 = suite.ghz_circuit(8, measured=False)
    assert metrics.mirror_fidelity(ghz8, backend="mps", shots=400, seed=2, chi=1) < 0.95


def test_ghz4_at_chi_one_truncates_and_fails_mirror():
    ghz4 = suite.ghz_circuit(4)
    assert mps.run(ghz4, shots=10, seed=3, chi_max=1).metadata["truncation_error"] > 0.0
    assert metrics.mirror_fidelity(ghz4, backend="mps", shots=400, seed=3, chi=1) < 0.95


def test_expected_sampling_fidelity_values():
    assert metrics.expected_sampling_fidelity(100, 1000) == pytest.approx(0.9875)
    assert metrics.expected_sampling_fidelity(0, 100) == 1.0
    with pytest.raises(ValueError):
        metrics.expected_sampling_fidelity(100, 999)
    with pytest.raises(ValueError):
        metrics.expected_sampling_fidelity(-1, 1000)


def test_w_state_circuit_amplitudes():
    amps = final_state(suite.w_state_circuit(5, measured=False))
    hot = [1 << q for q in range(5)]
    np.testing.assert_allclose(
        np.abs(amps[hot]), np.full(5, 1 / math.sqrt(5)), atol=1e-12
    )
    cold = np.delete(np.abs(amps), hot)
    np.testing.assert_allclose(cold, 0.0, atol=1e-12)


def test_w_state_sampling_tracks_fidelity_bound():
    shots = 10_000
    result = statevector.run(suite.w_state_circuit(8), shots=shots, seed=21)
    exact = {format(1 << q, "08b"): 1 / 8 for q in range(8)}
    measured = metrics.hellinger_fidelity(result.counts, exact)
    assert measured >= metrics.expected_sampling_fidelity(8, shots) - 0.01


@pytest.mark.parametrize("n", [6, 12])
def test_peaked_states_track_fidelity_bound(n):
    shots = 10_000
    ghz = suite.ghz_circuit(n)
    exact_ghz = {"0" * n: 0.5, "1" * n: 0.5}
    got = statevector.run(ghz, shots=shots, seed=31)
    assert (
        metrics.hellinger_fidelity(got.counts, exact_ghz)
        >= metrics.expected_sampling_fidelity(n, shots) - 0.02
    )

    wall = Circuit(n, n, name=f"domain_wall_{n}")
    for q in range(n // 2):
        wall.gate("x", q)
    wall.measure_all()
    got = statevector.run(wall, shots=shots, seed=32)
    exact_wall = {"0" * (n - n // 2) + "1" * (n // 2): 1.0}
    assert (
        metrics.hellinger_fidelity(got.counts, exact_wall)
        >= metrics.expected_sampling_fidelity(n, shots) - 0.02
    )


def test_fidelity_loop_doubles_until_threshold():
    ghz8 = suite.ghz_circuit(8)
    out = mps.run_with_fidelity_loop(ghz8, shots=400, seed=5, chi_init=1)
    assert out.chi == 2
    assert out.iterations == 2
    assert out.fidelity >= 0.95
    assert out.result.metadata["chi_max"] == 2

    first_try = mps.run_with_fidelity_loop(ghz8, shots=400, seed=5, chi_init=4)
    assert first_try.chi == 4
    assert first_try.iterations == 1


def test_fidelity_loop_scores_mid_circuit_runs_by_worst_path():
    c = Circuit(4, 4)
    c.gate("ry", 0, params=(1.0,))
    c.gate("ry", 2, params=(0.4,))
    c.measure(0, 0)
    c.gate("cx", 0, 2)
    c.gate("ry", 2, params=(0.3,))
    c.gate("cx", 2, 3)
    c.measure(1, 1).measure(2, 2).measure(3, 3)
    # chi 1 discards sin(0.05)^2 ~ 0.0025 on the rarer outcome-1 path, which
    # is walked first, and sin(0.35)^2 ~ 0.12 on the outcome-0 path
    out = mps.run_with_fidelity_loop(c, shots=400, seed=3, threshold=0.9, chi_init=1)
    assert (out.chi, out.iterations, out.fidelity) == (2, 2, 1.0)

    # the measured control leaves a product state that chi 1 holds exactly,
    # and the reset is scored as run rather than stripped
    collapsed = Circuit(2, 2)
    collapsed.gate("h", 0).measure(0, 0).gate("cx", 0, 1)
    collapsed.append(Instruction("reset", (0,)))
    collapsed.measure(1, 1)
    out = mps.run_with_fidelity_loop(collapsed, shots=400, seed=3, chi_init=1)
    assert (out.chi, out.iterations, out.fidelity) == (1, 1, 1.0)


def test_fidelity_loop_score_is_never_negative():
    dense = suite.clifford_t_circuit(6, 80, seed=2)
    assert mps.run(dense, shots=300, seed=6, chi_max=1).metadata["truncation_error"] > 1.0
    out = mps.run_with_fidelity_loop(dense, shots=300, seed=6, threshold=0.0, chi_init=1)
    assert out.chi == 1
    assert out.fidelity == 0.0


def test_fidelity_loop_rejects_thresholds_outside_the_unit_interval(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a threshold no score can meet must fail before any run")

    monkeypatch.setattr(mps, "run", refuse)
    for threshold in (1.5, -0.1):
        with pytest.raises(ValueError):
            mps.run_with_fidelity_loop(suite.ghz_circuit(4), shots=10, seed=0, threshold=threshold)


def test_fidelity_loop_raises_past_cap():
    dense = suite.clifford_t_circuit(6, 80, seed=2)
    with pytest.raises(mps.ChiCapError):
        mps.run_with_fidelity_loop(dense, shots=300, seed=6, chi_init=1, chi_cap=2)
