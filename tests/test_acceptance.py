"""End-to-end acceptance checks for the whole engine.

Each test prints one summary line through the capture-disabled channel, so a
plain ``pytest -v tests/test_acceptance.py`` run reads as a checklist:
cross-backend agreement, amplitude-level equality, the adaptive
bond-dimension loop, selection accuracy against measured runtimes,
batch-policy dominance, distributed sampling fidelity, teleport gadget
dimensions, the alias sampler, runtime interpolation, and the high-volume
invariant suites.

The heavyweight pieces (the 100k-shot agreement sweep, full calibration plus
the validation sweep) each assert their own wall-clock ceiling so a
performance regression fails loudly instead of quietly stretching CI.
"""

import time

import numpy as np
import pytest
from scipy import stats

import test_properties
from conftest import ghz, random_circuit, two_sample_chisquare_pvalue
from oracles import contract, final_state, run_unitaries, to_statevector
from polysim import batch, mps, pblock, stabilizer, statevector, suite
from polysim.calibration import BackendTable, calibrate
from polysim.circuit import Circuit
from polysim.dispatch import run_circuit
from polysim.metrics import hellinger_fidelity
from polysim.mps import run_with_fidelity_loop
from polysim.partition import VqpuLayout
from polysim.pblock import PBlockState
from polysim.predictor import select_backend
from polysim.sampling import AliasTable


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nacceptance {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"acceptance {num:02d}: {detail}"


@pytest.fixture(scope="module")
def calibrated():
    """One full calibration shared by the selection and batch checks."""
    t0 = time.perf_counter()
    model = calibrate(seed=0)
    return model, time.perf_counter() - t0


def test_01_backends_agree_on_sampled_distributions(capsys):
    """sv, mps, and pblock match pairwise on 50 random circuits at 100k shots.

    Every sixth circuit is Clifford-only and the tableau backend joins its
    pairwise comparisons.  The homogeneity test must clear p > 0.001 for
    every pair, and the whole sweep must finish inside five minutes.
    """
    shots = 100_000
    rng = np.random.default_rng(77)
    t_start = time.perf_counter()
    worst = (1.0, -1, "", "")
    pairs = 0
    n_clifford = 0
    for i in range(50):
        n = int(rng.integers(3, 11))
        gates = int(rng.integers(8, 31))
        clifford = i % 6 == 0
        c = random_circuit(n, gates, rng, clifford_only=clifford)
        counts = {
            "sv": statevector.run(c, shots, seed=5000 + i).counts,
            "mps": mps.run(c, shots, seed=6000 + i, chi_max=64).counts,
            "pblock": pblock.run(c, shots, seed=7000 + i).counts,
        }
        if clifford:
            n_clifford += 1
            counts["stab"] = stabilizer.run(c, shots, seed=8000 + i).counts
        names = list(counts)
        for a in range(len(names)):
            for b in range(a + 1, len(names)):
                p = two_sample_chisquare_pvalue(counts[names[a]], counts[names[b]])
                pairs += 1
                if p < worst[0]:
                    worst = (p, i, names[a], names[b])
    wall = time.perf_counter() - t_start
    ok = worst[0] > 1e-3 and wall < 300.0 and n_clifford >= 8
    _report(
        capsys,
        1,
        ok,
        f"{pairs} backend pairs over 50 circuits ({n_clifford} Clifford), "
        f"min p={worst[0]:.4f} ({worst[2]} vs {worst[3]}), wall {wall:.0f}s",
    )


def test_02_amplitudes_match_statevector(capsys):
    """Untruncated mps and contracted pblock states equal sv to 1e-9.

    Twenty random 6-qubit unitary circuits; chi_max=64 exceeds the worst
    possible Schmidt rank at this width so the mps run is exact.
    """
    rng = np.random.default_rng(78)
    t_start = time.perf_counter()
    worst_mps = worst_pb = 0.0
    for _ in range(20):
        c = random_circuit(6, int(rng.integers(12, 41)), rng, measured=False)
        reference = final_state(c)
        via_mps = to_statevector(run_unitaries(c, chi_max=64))
        state = PBlockState(6)
        for inst in c.instructions:
            state.apply(inst)
        via_pblock = contract(state)
        worst_mps = max(worst_mps, float(np.abs(via_mps - reference).max()))
        worst_pb = max(worst_pb, float(np.abs(via_pblock - reference).max()))
    wall = time.perf_counter() - t_start
    ok = worst_mps < 1e-9 and worst_pb < 1e-9 and wall < 60.0
    _report(
        capsys,
        2,
        ok,
        f"20 circuits, max |amp err|: mps {worst_mps:.2e}, "
        f"pblock {worst_pb:.2e}, wall {wall:.1f}s",
    )


def test_03_fidelity_loop_settles_on_ghz(capsys):
    """The adaptive chi loop accepts GHZ-8 immediately at 4 and grows 1 to 2."""
    c = ghz(8)
    first = run_with_fidelity_loop(c, shots=2000, seed=9, chi_init=4)
    grown = run_with_fidelity_loop(c, shots=2000, seed=9, chi_init=1)
    ok = (
        first.chi == 4
        and first.iterations == 1
        and first.fidelity >= 0.95
        and grown.chi == 2
        and grown.iterations == 2
        and grown.fidelity >= 0.95
    )
    _report(
        capsys,
        3,
        ok,
        f"chi_init=4 accepted at chi={first.chi} after {first.iterations} "
        f"iteration(s); chi_init=1 accepted at chi={grown.chi}",
    )


def test_04_selection_accuracy_on_validation_suite(capsys, calibrated):
    """The calibrated selector picks a fast-enough backend >= 80% of the time.

    Every candidate backend is actually run on each of the 60 validation
    circuits and timed; a pick counts as correct when its measured runtime is
    within 0.01 s of the fastest candidate or within 10% of it.  The mps
    candidate is charged its full adaptive-loop cost because that is what a
    real mps dispatch pays.  The budget includes the calibration itself.
    """
    model, calib_wall = calibrated
    shots = 200
    circuits = suite.generate_validation_suite(seed=1)
    t_start = time.perf_counter()
    correct = 0
    for c in circuits:
        report = select_backend(c, model, shots)
        measured: dict[str, float] = {}
        for backend in report.estimates:
            t0 = time.perf_counter()
            if backend == "mps":
                run_with_fidelity_loop(c, shots, seed=11)
            else:
                run_circuit(c, backend, shots, seed=11)
            measured[backend] = time.perf_counter() - t0
        best = min(measured.values())
        chosen = measured[report.chosen]
        if (chosen - best) < 0.01 or chosen <= 1.10 * best:
            correct += 1
    wall = time.perf_counter() - t_start
    total = calib_wall + wall
    accuracy = correct / len(circuits)
    ok = accuracy >= 0.80 and total < 900.0
    _report(
        capsys,
        4,
        ok,
        f"{correct}/{len(circuits)} picks within tolerance "
        f"({accuracy:.0%}), calibration {calib_wall:.1f}s + sweep "
        f"{wall:.1f}s < 900s",
    )


def test_05_auto_policy_dominates_fixed_policies(capsys, calibrated):
    """Auto routing beats every completing fixed policy on the torture suite.

    fixed-stab cannot finish a mixed suite (non-Clifford circuits fail), so
    the completing fixed baselines are fixed-sv-threshold and fixed-mps.
    Auto must land within 5% of the better baseline, strictly beat
    fixed-mps, and spend under 5% of its wall time on prediction.
    """
    model, _ = calibrated
    circuits = suite.generate_torture_suite(seed=0)
    shots = 200

    auto = batch.run_batch(circuits, "auto", model=model, shots=shots, seed=0)
    fixed_mps = batch.run_batch(circuits, "fixed-mps", shots=shots, seed=0)
    fixed_sv = batch.run_batch(
        circuits, "fixed-sv-threshold", shots=shots, seed=0
    )

    failures = sum(
        1
        for rep in (auto, fixed_mps, fixed_sv)
        for rec in rep.records
        if rec.error is not None
    )
    best_fixed = min(fixed_mps.wall_seconds, fixed_sv.wall_seconds)
    overhead = auto.prediction_seconds / auto.wall_seconds
    ok = (
        failures == 0
        and auto.wall_seconds <= 1.05 * best_fixed
        and auto.wall_seconds < fixed_mps.wall_seconds
        and overhead < 0.05
    )
    _report(
        capsys,
        5,
        ok,
        f"auto {auto.wall_seconds:.2f}s vs fixed-mps "
        f"{fixed_mps.wall_seconds:.2f}s / fixed-sv-threshold "
        f"{fixed_sv.wall_seconds:.2f}s, prediction overhead {overhead:.1%}",
    )


def _domain_wall(n: int) -> Circuit:
    c = Circuit(n, n, name=f"domain_wall_{n}")
    for q in range(n // 2, n):
        c.gate("x", q)
    c.measure_all()
    return c


def test_06_distributed_runs_track_sampling_fidelity(capsys):
    """Distributed GHZ and domain-wall runs stay near the finite-shot ceiling.

    For n in {8, 12, 16} split across 2 to 4 virtual QPUs at 10^4 shots, the
    Hellinger fidelity against a monolithic sv run must stay above
    1 - n/(8*shots) - 0.02.
    """
    shots = 10_000
    worst_margin = 1.0
    runs = 0
    for n, ks in ((8, (2, 4)), (12, (2, 3)), (16, (2, 4))):
        for maker in (suite.ghz_circuit, _domain_wall):
            c = maker(n)
            reference = statevector.run(c, shots, seed=400 + n).counts
            for k in ks:
                layout = VqpuLayout(k, n // k)
                got = pblock.run_distributed(c, layout, shots, seed=500 + n + k)
                fidelity = hellinger_fidelity(got.counts, reference)
                bound = 1.0 - n / (8.0 * shots) - 0.02
                worst_margin = min(worst_margin, fidelity - bound)
                runs += 1
    ok = worst_margin >= 0.0
    _report(
        capsys,
        6,
        ok,
        f"{runs} distributed runs, worst fidelity margin over bound "
        f"{worst_margin:+.4f}",
    )


def test_07_teleport_gadget_cuts_dimension_fourfold(capsys):
    """Every telegate gadget retires its Bell pair: retained = 4 x after."""
    checked = 0
    ok = True
    for c, layout in (
        (suite.ghz_circuit(4), VqpuLayout(2, 2)),
        (suite.ghz_circuit(12), VqpuLayout(3, 4)),
    ):
        result = pblock.run_distributed(c, layout, shots=50, seed=3)
        for gadget in result.metadata["gadgets"]:
            checked += 1
            ok = ok and gadget["retained_dim"] == 4 * gadget["block_dim_after"]
    ok = ok and checked >= 3
    _report(
        capsys,
        7,
        ok,
        f"{checked} gadgets all satisfy retained_dim == 4 * block_dim_after",
    )


def _pooled_pvalue(observed: np.ndarray, probs: np.ndarray, n: int) -> float:
    """Chi-square of index counts against probs, pooling bins to expected>=5."""
    order = np.argsort(probs)
    observed = observed[order].astype(float)
    expected = probs[order] * n
    pooled_obs, pooled_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0:
        pooled_obs[-1] += acc_o
        pooled_exp[-1] += acc_e
    return float(stats.chisquare(pooled_obs, pooled_exp)[1])


def test_08_alias_sampler_is_exact_and_flat_cost(capsys):
    """Alias sampling passes chi-square on 20 distributions up to 2^16 bins.

    Each distribution gets 10^6 draws.  Per-sample cost must not grow with
    support size: one uniform draw, one table lookup, one comparison.
    """
    rng = np.random.default_rng(91)
    n_samples = 1_000_000
    sizes = np.unique(np.geomspace(4, 2**16, 20).astype(int))
    while sizes.size < 20:
        sizes = np.unique(np.concatenate([sizes, sizes[:1] + 1]))
    min_p = 1.0
    for size in sizes:
        probs = rng.dirichlet(np.ones(size))
        table = AliasTable.from_probs(probs)
        idx = table.sample_indices(np.random.default_rng(int(size)), n_samples)
        observed = np.bincount(idx, minlength=size)
        min_p = min(min_p, _pooled_pvalue(observed, probs, n_samples))

    def per_sample_seconds(size: int) -> float:
        table = AliasTable.from_probs(rng.dirichlet(np.ones(size)))
        reps = []
        for _ in range(3):
            t0 = time.perf_counter()
            table.sample_indices(np.random.default_rng(7), n_samples)
            reps.append(time.perf_counter() - t0)
        return min(reps) / n_samples

    small, big = per_sample_seconds(2**8), per_sample_seconds(2**16)
    ratio = big / small
    ok = min_p > 1e-3 and ratio < 3.0
    _report(
        capsys,
        8,
        ok,
        f"{sizes.size} distributions (support 4..65536), min p={min_p:.4f}, "
        f"per-sample cost ratio 2^16/2^8 = {ratio:.2f}",
    )


def test_09_runtime_interpolation_is_faithful(capsys):
    """Coefficient reads hit nodes, stay monotone, and track 2D."""

    def read(grid_n, grid_chi, rows):
        rows = tuple(tuple(float(v) for v in row) for row in rows)
        table = BackendTable(tuple(map(float, grid_n)), tuple(map(float, grid_chi)), {"c": rows}, (1.0, 1.0))
        return lambda n, chi=1.0: table.read("c", n, chi)

    rng = np.random.default_rng(55)
    grid = np.sort(rng.uniform(1, 40, 8))
    values = np.cumsum(rng.uniform(0.1, 2.0, 8))
    curve = read(grid, (1,), [(v,) for v in values])
    node_err = max(
        abs(curve(g) - v) / abs(v) for g, v in zip(grid, values)
    )

    min_diff = np.inf
    for lo, hi in zip(grid[:-1], grid[1:]):
        probes = np.linspace(lo, hi, 100)
        samples = np.array([curve(x) for x in probes])
        min_diff = min(min_diff, float(np.diff(samples).min()))

    grid_n = np.array([4.0, 8.0, 12.0, 16.0, 24.0])
    grid_chi = np.array([2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
    surface_vals = [
        [(1 + 0.05 * n) * chi**1.3 for chi in grid_chi] for n in grid_n
    ]
    surface = read(grid_n, grid_chi, surface_vals)
    max_rel = 0.0
    for n in np.linspace(grid_n[0], grid_n[-1], 23):
        for chi in np.linspace(grid_chi[0], grid_chi[-1], 23):
            truth = (1 + 0.05 * n) * chi**1.3
            max_rel = max(max_rel, abs(surface(n, chi) - truth) / truth)

    ok = node_err < 1e-12 and min_diff >= -1e-12 and max_rel < 0.05
    _report(
        capsys,
        9,
        ok,
        f"node error {node_err:.1e}, min probe step {min_diff:.2e}, "
        f"2D separable error {max_rel:.2%}",
    )


def test_10_invariant_suites_hold_at_volume(capsys):
    """The six 1000-case randomized invariant suites all pass."""
    checks = (
        test_properties.test_partition_permutation_is_a_bijection,
        test_properties.test_tableau_rows_keep_symplectic_pairing,
        test_properties.test_statevector_norm_is_preserved,
        test_properties.test_mps_norm_is_preserved_under_truncation,
        test_properties.test_estimate_is_monotone_in_gates_and_shots,
        test_properties.test_selection_is_scale_invariant,
    )
    for check in checks:
        check()
    _report(
        capsys,
        10,
        True,
        f"{len(checks)} invariant suites x {test_properties.N_CASES} "
        "random cases each",
    )
