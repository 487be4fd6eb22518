from __future__ import annotations

import time

import numpy as np
import pytest

from polysim import result
from polysim.sampling import AliasTable, SamplingError
from conftest import chisquare_pvalue
from oracles import reconstructed_probs


def random_distribution(rng: np.random.Generator, m: int) -> np.ndarray:
    p = rng.random(m) ** 3  # skewed on purpose
    return p / p.sum()


def test_reconstruction_invariant(rng):
    for _ in range(200):
        m = int(rng.integers(1, 2000))
        probs = random_distribution(rng, m)
        table = AliasTable.from_probs(probs)
        np.testing.assert_allclose(reconstructed_probs(table), probs, atol=1e-12)


def test_reconstruction_with_zeros_and_spikes(rng):
    probs = np.zeros(1000)
    probs[3] = 0.999
    rest = rng.random(50)
    probs[100:150] = 0.001 * rest / rest.sum()
    table = AliasTable.from_probs(probs)
    np.testing.assert_allclose(reconstructed_probs(table), probs, atol=1e-12)


def test_uniform_four_outcomes_fills_every_bin():
    table = AliasTable.from_probs(np.full(4, 0.25))
    np.testing.assert_array_equal(table.prob, np.ones(4))


def test_two_outcome_table_by_hand():
    table = AliasTable.from_probs(np.array([0.25, 0.75]))
    assert table.prob[0] == pytest.approx(0.5)
    assert table.alias[0] == 1
    assert table.prob[1] == pytest.approx(1.0)


def test_point_mass_table_draws_only_its_outcome():
    table = AliasTable.from_probs(np.array([1.0]))
    draws = table.sample_indices(np.random.default_rng(0), 50)
    np.testing.assert_array_equal(draws, np.zeros(50))


def test_sampled_sequence_is_deterministic():
    table = AliasTable.from_probs(np.array([0.5, 0.5]))
    a = table.sample_indices(np.random.default_rng(123), 50)
    b = table.sample_indices(np.random.default_rng(123), 50)
    np.testing.assert_array_equal(a, b)


class _CountingRng:
    """Duck-typed stand-in exposing only random(); counts uniform draws."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self.draws = 0

    def random(self, size=None):
        self.draws += 1 if size is None else int(np.prod(size))
        return self._rng.random(size)


def test_one_uniform_draw_per_sample(rng):
    table = AliasTable.from_probs(random_distribution(rng, 257))
    counter = _CountingRng(5)
    outcomes = table.sample_indices(counter, 400)
    assert outcomes.shape == (400,)
    assert 0 <= outcomes.min() and outcomes.max() < 257
    assert counter.draws == 400


def test_per_sample_cost_independent_of_support(rng):
    small = AliasTable.from_probs(random_distribution(rng, 2**4))
    big = AliasTable.from_probs(random_distribution(rng, 2**20))
    k = 1_000_000

    def best_time(table: AliasTable) -> float:
        times = []
        for rep in range(5):
            g = np.random.default_rng(rep)
            t0 = time.perf_counter()
            table.sample_indices(g, k)
            times.append(time.perf_counter() - t0)
        return min(times)

    assert best_time(big) < 3 * best_time(small)


def test_sampling_matches_distribution(rng):
    m = 100
    probs = random_distribution(rng, m)
    table = AliasTable.from_probs(probs)
    idx = table.sample_indices(np.random.default_rng(77), 1_000_000)
    counts = {format(i, "07b"): int(c) for i, c in enumerate(np.bincount(idx, minlength=m))}
    expected = {format(i, "07b"): float(p) for i, p in enumerate(probs)}
    assert chisquare_pvalue(counts, expected, 1_000_000) > 0.001


def test_invalid_inputs():
    with pytest.raises(SamplingError):
        AliasTable.from_probs(np.array([0.5, 0.6]))
    with pytest.raises(SamplingError):
        AliasTable.from_probs(np.array([-0.1, 1.1]))
    with pytest.raises(SamplingError):
        AliasTable.from_probs(np.zeros(0))


@pytest.mark.parametrize("shots", [2_000, 200_000])
def test_group_draws_follow_law_without_an_alias_table(monkeypatch, shots):
    # Inverse CDF serves shots near the support and shots many times the
    # support alike, and never builds a table.
    rng = np.random.default_rng(shots)

    def forbidden(*args, **kwargs):
        raise AssertionError("terminal draws must not build an alias table")

    monkeypatch.setattr(AliasTable, "from_probs", forbidden)
    probs = random_distribution(rng, 16)
    counts = result.sample_measurement_groups([((0, 1, 2, 3), probs)], [3, 2, 1, 0], shots, rng)
    expected = {format(i, "04b"): float(p) for i, p in enumerate(probs)}
    assert sum(counts.values()) == shots
    assert chisquare_pvalue(counts, expected, shots) > 1e-3


def test_inverse_cdf_never_draws_a_zero_bin(rng):
    probs = np.zeros(8)
    probs[[0, 3, 7]] = [0.5, 0.25, 0.25]
    counts = result.sample_measurement_groups(
        [((0, 1, 2), probs)], [2, 1, 0], 5000, rng
    )
    assert set(counts) == {"000", "011", "111"}
