import json
import math
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import ghz, qft, random_circuit

from polysim import statevector
from polysim import calibration
from polysim.calibration import (
    MODEL_VERSION,
    BackendTable,
    CalibrationConfig,
    CalibrationError,
    CalibrationModel,
    calibrate,
    fit_shot_model,
)
from polysim.circuit import Circuit, concat
from polysim.features import extract_features
from polysim.predictor import (
    PredictionError,
    estimate,
    policy_chi,
    select_backend,
)

# ------------------------------------------------------------ coefficient reads
# Every coefficient is read by ``BackendTable.read``, the routine behind
# ``CalibrationModel.seconds``.  A curve is a table with one chi node.


def surface(grid_n, grid_chi, rows):
    rows = tuple(tuple(float(v) for v in row) for row in rows)
    table = BackendTable(tuple(map(float, grid_n)), tuple(map(float, grid_chi)), {"c": rows}, (1.0, 1.0))
    return lambda n, chi: table.read("c", n, chi)


def curve(grid, values):
    read = surface(grid, (1,), [(v,) for v in values])
    return lambda x: read(x, 1)


def model_with(backend, rows=None, **fields):
    """``make_model()``, built directly, with fields of ``backend``'s table
    replaced and, if ``rows`` is given, every class's rows set to it."""
    model = make_model()
    t = model.tables[backend]
    if rows is not None:
        fields["coefs"] = dict.fromkeys(t.coefs, rows)
    tables = {**model.tables, backend: replace(t, **fields)}
    return CalibrationModel(version=model.version, created=model.created, tables=tables)


def test_curve_reproduces_nodes_exactly():
    grid = [2, 4, 8, 16, 32]
    values = [1.5e-9, 2.1e-9, 2.2e-9, 3.9e-9, 8.0e-9]
    read = curve(grid, values)
    for g, v in zip(grid, values):
        assert read(g) == v


def test_curve_preserves_monotone_data():
    grid = np.array([1.0, 2.0, 3.0, 5.0, 9.0, 17.0])
    values = np.array([1.0, 1.1, 4.0, 4.05, 20.0, 21.0])
    read = curve(grid, values)
    for a, b in zip(grid, grid[1:]):
        probes = [read(x) for x in np.linspace(a, b, 100)]
        diffs = np.diff(probes)
        assert np.all(diffs >= -1e-12)


def test_two_point_curve_is_linear():
    read = curve([1.0, 3.0], [2.0, 6.0])
    for x, want in [(1.0, 2.0), (1.5, 3.0), (2.0, 4.0), (2.75, 5.5), (3.0, 6.0)]:
        assert read(x) == pytest.approx(want, rel=1e-12)


def test_curve_clamps_outside_grid():
    read = curve([4.0, 8.0, 12.0], [1.0, 2.0, 7.0])
    assert read(0.5) == pytest.approx(1.0)
    assert read(100.0) == pytest.approx(7.0)


def test_single_point_curve_is_constant():
    read = curve([1.0], [3.25])
    assert read(0.0) == 3.25
    assert read(1.0) == 3.25
    assert read(99.0) == 3.25


def test_curve_rejects_bad_grids():
    def rejected(grid, values, match):
        with pytest.raises(CalibrationError, match=match):
            model_with("sv", tuple((v,) for v in values), grid_n=grid, grid_chi=(1,))

    rejected([1.0, 1.0, 2.0], [1, 2, 3], "strictly increasing")
    rejected([2.0, 1.0], [1, 2], "strictly increasing")
    rejected([1.0, 2.0], [1, 2, 3], "do not fit")
    rejected([], [], "non-empty")
    # log axes take only finite positive numbers, as grids and as values
    for grid, values in (
        ([0.0, 2.0], [1.0, 2.0]),
        ([-1.0, 2.0], [1.0, 2.0]),
        ([1.0, math.inf], [1.0, 2.0]),
        ([1.0, math.nan], [1.0, 2.0]),
        ([1.0, 2.0], [0.0, 2.0]),
        ([1.0, 2.0], [-1.0, 2.0]),
        ([1.0, 2.0], [1.0, math.inf]),
        ([1.0, 2.0], [math.nan, 2.0]),
        (["1", 2.0], [1.0, 2.0]),
        ([1.0, 2.0], [None, 2.0]),
    ):
        rejected(grid, values, "finite and positive")
    with pytest.raises(CalibrationError, match="finite and positive"):
        model_with("mps", ((1.0, 2.0), (3.0, math.inf)), grid_n=(4, 8), grid_chi=(2, 4))


def test_surface_reproduces_nodes_exactly():
    grid_n = [4, 8, 16]
    grid_chi = [2, 4, 8, 16]
    rng = np.random.default_rng(3)
    table = np.sort(rng.uniform(1e-9, 1e-7, size=(3, 4)), axis=None).reshape(3, 4)
    read = surface(grid_n, grid_chi, table)
    for i, n in enumerate(grid_n):
        for j, chi in enumerate(grid_chi):
            assert read(n, chi) == table[i, j]


def test_surface_tracks_separable_function():
    # f(n, chi) = (1 + 0.1 n) * chi^1.5 sampled on the grid should come back
    # within a few percent at off-grid interior points.
    grid_n = [4, 8, 12, 16, 20, 24]
    grid_chi = [2, 4, 8, 16, 32, 64]
    f = lambda n, chi: (1.0 + 0.1 * n) * chi**1.5
    table = [[f(n, chi) for chi in grid_chi] for n in grid_n]
    read = surface(grid_n, grid_chi, table)
    for n in [5.0, 9.5, 14.0, 21.0]:
        for chi in [3.0, 6.0, 12.0, 24.0, 48.0]:
            assert read(n, chi) == pytest.approx(f(n, chi), rel=0.05)


def test_surface_clamps_on_both_axes():
    grid_n = [4, 8]
    grid_chi = [2, 4]
    table = [[1.0, 2.0], [3.0, 4.0]]
    read = surface(grid_n, grid_chi, table)
    assert read(2, 1) == pytest.approx(1.0)
    assert read(50, 1000) == pytest.approx(4.0)
    assert read(4, 1000) == pytest.approx(2.0)


def test_surface_rejects_shape_mismatch():
    with pytest.raises(CalibrationError, match="do not fit"):
        model_with("mps", ((1.0, 2.0),), grid_n=(4, 8), grid_chi=(2, 4))
    with pytest.raises(CalibrationError, match="do not fit"):
        model_with("mps", ((1.0, 2.0), (3.0,)), grid_n=(4, 8), grid_chi=(2, 4))


def test_surface_at_a_grid_chi_reads_the_same_column_the_rows_give():
    grid_n, grid_chi = [4, 8, 16], [2, 4, 8, 16]
    table = np.random.default_rng(4).uniform(1e-9, 1e-7, size=(3, 4))
    read = surface(grid_n, grid_chi, table)
    rows = [curve(grid_chi, row) for row in table]
    for chi in grid_chi:
        column = curve(grid_n, [row(chi) for row in rows])
        for n in (2.0, 4.0, 5.5, 11.0, 16.0, 40.0):
            assert read(n, chi) == column(n)


def test_surface_interpolates_rows_along_chi_then_the_column_along_n():
    grid = [1.0, 2.0, 4.0]
    table = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]
    column = [curve(grid, row)(2.5) for row in table]
    assert surface([2, 4], grid, table)(3.0, 2.5) == curve([2, 4], column)(3.0)


def test_curve_follows_a_power_law_between_nodes():
    # costs that are powers of n or chi are straight lines on log axes
    f = lambda x: 3e-9 * x**2.5
    grid = [2.0, 4.0, 8.0, 32.0]
    read = curve(grid, [f(x) for x in grid])
    for x in (2.5, 3.0, 5.0, 7.9, 11.0, 20.0, 31.0):
        assert read(x) == pytest.approx(f(x), rel=1e-12)


# ----------------------------------------------------------- synthetic models


def make_model(
    sv_1q=2e-9,
    sv_2q=3e-9,
    mps_1q=4e-8,
    mps_2q=6e-8,
    stab_gate=1e-8,
    stab_meas=2e-8,
    shots_sv=(1e-4, 2e-6),
    shots_mps=(3e-4, 8e-6),
    shots_stab=(5e-5, 4e-6),
):
    """Model whose curves are constant, so estimates are exact arithmetic."""

    def table(grid_n, grid_chi, shots, **coefs):
        rows = lambda v: tuple(tuple(v for _ in grid_chi) for _ in grid_n)
        return BackendTable(grid_n, grid_chi, {k: rows(v) for k, v in coefs.items()}, shots)

    return CalibrationModel(
        version=MODEL_VERSION,
        created="2026-08-16T00:00:00+00:00",
        tables={
            "stab": table((4, 64), (1,), shots_stab, gate=stab_gate, measure=stab_meas),
            "mps": table((4, 24), (2, 64), shots_mps, **{"1q": mps_1q, "2q": mps_2q}),
            "sv": table((2, 20), (1,), shots_sv, **{"1q": sv_1q, "2q": sv_2q}),
        },
    )


def scaled_model(model, factor):
    scale = lambda rows: tuple(tuple(factor * v for v in row) for row in rows)
    return CalibrationModel(
        version=model.version,
        created=model.created,
        tables={
            b: BackendTable(
                t.grid_n,
                t.grid_chi,
                {k: scale(rows) for k, rows in t.coefs.items()},
                (factor * t.shots[0], factor * t.shots[1]),
            )
            for b, t in model.tables.items()
        },
    )


def small_mixed_circuit():
    c = Circuit(3, 1)
    c.gate("h", 0)
    c.gate("t", 1)
    c.gate("cx", 0, 1)
    c.gate("cx", 1, 2)
    c.measure(2, 0)
    return c


# ----------------------------------------------------------------- estimates


def test_sv_estimate_is_exact_arithmetic():
    model = make_model()
    c = small_mixed_circuit()
    want = (1 * 2e-9 + 1 * 2e-9 + 2 * 3e-9) * 2**3 + 1e-4 + 2e-6 * 500
    got = estimate(c, "sv", model, shots=500)
    assert got == pytest.approx(want, rel=1e-12)


def test_mps_estimate_is_exact_arithmetic():
    model = make_model()
    c = small_mixed_circuit()
    chi = 5
    unit = 3 * chi**3
    # the measurement is drawn in the shot term, so it adds no op cost
    want = 2 * 4e-8 * chi**2 + 2 * 6e-8 * unit + 3e-4 + 8e-6 * 200
    got = estimate(c, "mps", model, shots=200, chi=chi)
    assert got == pytest.approx(want, rel=1e-12)


def test_stab_estimate_is_exact_arithmetic():
    model = make_model()
    c = ghz(4)
    # ghz(4): one h, three cx, four measures; n^2 = 16.
    want = (4 * 1e-8) * 16 + (4 * 2e-8) * 16 + 5e-5 + 4e-6 * 100
    got = estimate(c, "stab", model, shots=100)
    assert got == pytest.approx(want, rel=1e-12)


def test_terminal_measurements_add_no_mps_op_cost():
    # a terminal measurement is drawn in the shot term on mps, as on sv;
    # only stab prices one symbolic measurement per measured qubit
    model = make_model()
    bare, measured = ghz(6, measured=False), ghz(6)
    assert estimate(measured, "mps", model, shots=100) == estimate(bare, "mps", model, shots=100)
    stab = [estimate(c, "stab", model, shots=100) for c in (bare, measured)]
    assert stab[1] - stab[0] == pytest.approx(6 * 2e-8 * 6**2, rel=1e-9)


def test_empty_circuit_estimate_is_shot_term_only():
    model = make_model()
    c = Circuit(2)
    assert estimate(c, "sv", model, shots=50) == pytest.approx(1e-4 + 2e-6 * 50)
    assert estimate(c, "mps", model, shots=50) == pytest.approx(3e-4 + 8e-6 * 50)
    assert estimate(c, "stab", model, shots=50) == pytest.approx(5e-5 + 4e-6 * 50)


def test_estimate_additivity_for_unitary_circuits(rng):
    model = make_model()
    a = random_circuit(5, 12, rng, measured=False)
    b = random_circuit(5, 17, rng, measured=False)
    both = concat(a, b)
    for backend, kwargs in [("sv", {}), ("mps", {"chi": 8})]:
        c1, c2 = model.tables[backend].shots
        shot_term = c1 + c2 * 100
        whole = estimate(both, backend, model, shots=100, **kwargs)
        parts = (
            estimate(a, backend, model, shots=100, **kwargs)
            + estimate(b, backend, model, shots=100, **kwargs)
            - shot_term
        )
        assert whole == pytest.approx(parts, rel=1e-12)


def test_estimate_grows_with_gates_and_shots():
    model = make_model()
    c = ghz(6)
    bigger = ghz(6)
    bigger.gate("cx", 0, 3)
    for backend in ("sv", "mps", "stab"):
        kwargs = {"chi": 4} if backend == "mps" else {}
        base = estimate(c, backend, model, shots=100, **kwargs)
        assert estimate(bigger, backend, model, shots=100, **kwargs) > base
        assert estimate(c, backend, model, shots=101, **kwargs) > base


def test_stab_estimate_rejects_nonclifford():
    model = make_model()
    c = Circuit(2)
    c.gate("t", 0)
    with pytest.raises(PredictionError):
        estimate(c, "stab", model, shots=10)


def test_sv_estimate_rejects_too_many_qubits():
    model = make_model()
    c = Circuit(statevector.QUBIT_CAP + 1)
    c.gate("h", 0)
    with pytest.raises(PredictionError):
        estimate(c, "sv", model, shots=10)


def test_estimate_rejects_unknown_backend():
    model = make_model()
    with pytest.raises(PredictionError):
        estimate(Circuit(1), "dense", model, shots=10)


# ------------------------------------------------------------- chi policy


def test_policy_chi_tracks_entanglement_proxy():
    assert policy_chi(extract_features(ghz(8))) == 2
    c = Circuit(2)
    c.gate("h", 0)
    assert policy_chi(extract_features(c)) == 1


def test_policy_chi_caps_at_64(rng):
    c = random_circuit(8, 120, rng, measured=False, two_qubit_fraction=0.6)
    f = extract_features(c)
    assert f.entanglement_proxy >= 6
    assert policy_chi(f) == 64


def test_policy_chi_budgets_only_calibrated_chi_nodes():
    # selection never reads the mps surfaces between chi nodes
    nodes = {1, *CalibrationConfig().mps_grid_chi}
    base = extract_features(Circuit(2))
    for proxy in range(41):
        chi = policy_chi(replace(base, entanglement_proxy=proxy))
        assert chi in nodes, (proxy, chi)


# ------------------------------------------------------------- selection


def test_select_backend_prefers_cheap_tableau_for_clifford():
    model = make_model(stab_gate=1e-12, stab_meas=1e-12, shots_stab=(1e-9, 1e-12))
    report = select_backend(ghz(8), model, shots=1000)
    assert report.chosen == "stab"
    assert set(report.estimates) == {"stab", "mps", "sv"}
    assert report.estimates["stab"] < report.estimates["mps"]
    assert report.chi == 2


def test_select_backend_prices_mps_at_a_given_chi():
    # cheap mps ops, so the pick turns on the chi mps is priced at
    model = make_model(mps_1q=1e-9, mps_2q=1e-9, shots_mps=(1e-4, 2e-6))
    c = small_mixed_circuit()
    budget = select_backend(c, model, shots=100)
    assert budget.chi == policy_chi(extract_features(c))
    assert budget.estimates["mps"] == estimate(c, "mps", model, 100, chi=budget.chi)
    for chi, pick in ((1, "mps"), (2, "mps"), (3, "sv"), (48, "sv")):
        report = select_backend(c, model, shots=100, chi=chi)
        assert report.chi == chi
        assert report.estimates["mps"] == estimate(c, "mps", model, 100, chi=chi)
        assert report.estimates["sv"] == budget.estimates["sv"]
        assert report.chosen == pick


def test_select_backend_omits_stab_for_nonclifford():
    model = make_model()
    c = small_mixed_circuit()
    report = select_backend(c, model, shots=100)
    assert "stab" not in report.estimates
    assert set(report.estimates) == {"mps", "sv"}
    with pytest.raises(PredictionError) as exc:
        estimate(c, "stab", model, shots=100)
    assert str(exc.value) == "tableau backend needs a Clifford-only circuit"


def test_select_backend_omits_sv_over_cap():
    model = make_model()
    c = Circuit(statevector.QUBIT_CAP + 2)
    for q in range(c.n_qubits - 1):
        c.gate("cx", q, q + 1)
    report = select_backend(c, model, shots=10)
    assert "sv" not in report.estimates
    assert report.chosen == "stab"
    with pytest.raises(PredictionError) as exc:
        estimate(c, "sv", model, shots=10)
    n = statevector.QUBIT_CAP + 2
    assert str(exc.value) == f"{n} qubits exceeds the state-vector cap ({statevector.QUBIT_CAP})"


def test_tie_breaks_follow_fixed_backend_order():
    shots = (1e-4, 2e-6)
    model = make_model(shots_sv=shots, shots_mps=shots, shots_stab=shots)
    report = select_backend(Circuit(2), model, shots=100)
    values = list(report.estimates.values())
    assert max(values) == pytest.approx(min(values), rel=1e-12)
    assert report.chosen == "stab"

    # single non-Clifford gate, coefficients rigged so sv and mps tie
    model2 = make_model(sv_1q=0.5, mps_1q=1.0, shots_sv=shots, shots_mps=shots)
    c = Circuit(1)
    c.gate("t", 0)
    report2 = select_backend(c, model2, shots=100)
    assert report2.estimates["sv"] == pytest.approx(report2.estimates["mps"], rel=1e-12)
    assert report2.chosen == "mps"


def test_selection_is_invariant_under_coefficient_rescaling(rng):
    model = make_model(
        sv_1q=3.1e-9,
        sv_2q=5.7e-9,
        mps_1q=2.2e-8,
        mps_2q=9.5e-8,
        stab_gate=1.4e-8,
        stab_meas=2.9e-8,
    )
    big = scaled_model(model, 7.3)
    small = scaled_model(model, 1 / 113.0)
    for _ in range(25):
        n = int(rng.integers(2, 11))
        c = random_circuit(n, int(rng.integers(5, 40)), rng)
        shots = int(rng.integers(1, 5000))
        base = select_backend(c, model, shots=shots).chosen
        assert select_backend(c, big, shots=shots).chosen == base
        assert select_backend(c, small, shots=shots).chosen == base


# ------------------------------------------------------------ calibration


def test_shot_fit_recovers_exact_linear_data():
    shot_counts = (1, 10, 100, 1000)
    c1_true, c2_true = 3.2e-4, 2.5e-6
    seconds = [c1_true + c2_true * s for s in shot_counts]
    c1, c2 = fit_shot_model(shot_counts, seconds)
    assert c1 == pytest.approx(c1_true, rel=1e-9)
    assert c2 == pytest.approx(c2_true, rel=1e-9)


def test_shot_fit_rejects_degenerate_input():
    with pytest.raises(ValueError):
        fit_shot_model([10], [0.1])
    with pytest.raises(ValueError):
        fit_shot_model([1, 10], [0.1])


def test_model_json_roundtrip(tmp_path):
    model = make_model()
    path = tmp_path / "calib.json"
    model.save(str(path))
    loaded = CalibrationModel.load(str(path))
    assert loaded.to_dict() == model.to_dict()
    assert loaded.seconds("sv", 11) == pytest.approx(model.seconds("sv", 11))
    assert loaded.seconds("mps", 10, 7) == pytest.approx(model.seconds("mps", 10, 7))


def test_load_missing_file_names_the_fix(tmp_path):
    with pytest.raises(CalibrationError, match="calibrate"):
        CalibrationModel.load(str(tmp_path / "nope.json"))


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(CalibrationError):
        CalibrationModel.load(str(path))


def test_load_rejects_missing_sections(tmp_path):
    model = make_model()
    raw = model.to_dict()
    del raw["tables"]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(CalibrationError):
        CalibrationModel.load(str(path))


def test_model_validation_catches_bad_values():
    good = make_model().to_dict()

    def rejected(edit, match=None):
        bad = json.loads(json.dumps(good))
        edit(bad["tables"])
        with pytest.raises(CalibrationError, match=match):
            CalibrationModel.from_dict(bad)

    rejected(lambda t: t["sv"]["coefs"]["1q"][0].__setitem__(0, 0.0))
    rejected(lambda t: t["mps"].update(grid_chi=[4, 2]))
    rejected(lambda t: t["sv"]["coefs"].update({"2q": t["sv"]["coefs"]["2q"][:1]}))
    rejected(lambda t: t["mps"]["coefs"].update({"1q": t["mps"]["coefs"]["1q"][:1]}))
    rejected(lambda t: t["mps"]["coefs"]["1q"][0].pop())
    rejected(lambda t: t.pop("stab"), match="no calibration table for backend 'stab'")
    rejected(lambda t: t["mps"]["coefs"].pop("2q"), match="mps table missing class '2q'")
    rejected(lambda t: t["sv"].update(shots=[1e-4, 0.0]))
    rejected(lambda t: t["stab"].update(shots=[-1e-4, 1e-6]))
    rejected(lambda t: t["stab"].update(shots=[1e-4]))
    # JSON reads 1e400 as inf; log axes cannot take a grid node at or below 0
    for bad_value in (math.inf, math.nan):
        rejected(lambda t: t["sv"]["coefs"]["1q"][0].__setitem__(0, bad_value), match="finite")
        rejected(lambda t: t["mps"]["coefs"]["2q"][1].__setitem__(1, bad_value), match="finite")
        rejected(lambda t: t["mps"].update(shots=[1e-4, bad_value]), match="finite")
        rejected(lambda t: t["stab"].update(shots=[bad_value, 1e-6]), match="finite")
        rejected(lambda t: t["sv"].update(grid_n=[2, bad_value]), match="grids must be finite")
        rejected(lambda t: t["mps"].update(grid_chi=[2, bad_value]), match="grids must be finite")
    rejected(lambda t: t["stab"].update(grid_n=[0, 64]), match="grids must be finite and positive")
    rejected(lambda t: t["mps"].update(grid_n=[-4, 24]), match="grids must be finite and positive")
    rejected(lambda t: t["sv"].update(grid_chi=[0]), match="grids must be finite and positive")

    # a model built directly checks its tables as a loaded one does
    def rejected_directly(backend, match, **fields):
        with pytest.raises(CalibrationError, match=match):
            model_with(backend, **fields)

    mps_coefs = make_model().tables["mps"].coefs
    rejected_directly("sv", "strictly increasing", grid_n=(20, 2))
    rejected_directly("mps", "strictly increasing", grid_chi=(2, 2))
    rejected_directly("stab", "non-empty", grid_n=())
    rejected_directly("mps", "mps 2q rows do not fit", coefs={
        "1q": mps_coefs["1q"], "2q": (mps_coefs["2q"][0], mps_coefs["2q"][1][:1])})
    rejected_directly("mps", "mps 1q rows do not fit", coefs={
        "1q": mps_coefs["1q"][:1], "2q": mps_coefs["2q"]})
    rejected_directly("sv", "finite and positive", grid_n=("2", "20"))

    bad = json.loads(json.dumps(good))
    bad["version"] = 99
    with pytest.raises(CalibrationError):
        CalibrationModel.from_dict(bad)

    # a file in the version 3 layout, stale or relabelled as current
    sv, mps, stab = (good["tables"][b] for b in ("sv", "mps", "stab"))
    curves = lambda t: {k: [row[0] for row in rows] for k, rows in t["coefs"].items()}
    v3 = {
        "version": 3,
        "created": good["created"],
        "sv": {"grid_n": sv["grid_n"], "curves": curves(sv)},
        "mps": {"grid_n": mps["grid_n"], "grid_chi": mps["grid_chi"], "surfaces": mps["coefs"]},
        "stab": {"grid_n": stab["grid_n"], "curves": curves(stab)},
        "shots": {b: dict(zip(("c1", "c2"), t["shots"])) for b, t in good["tables"].items()},
    }
    with pytest.raises(CalibrationError, match="polysim calibrate"):
        CalibrationModel.from_dict(v3)
    with pytest.raises(CalibrationError, match="malformed"):
        CalibrationModel.from_dict(dict(v3, version=MODEL_VERSION))

    # a version 4 file, whose mps table still prices measurements
    v4 = json.loads(json.dumps(good))
    v4["version"] = 4
    v4["tables"]["mps"]["coefs"]["measure"] = v4["tables"]["mps"]["coefs"]["2q"]
    with pytest.raises(CalibrationError, match="polysim calibrate"):
        CalibrationModel.from_dict(v4)


def test_priced_seconds_of_one_op_are_the_timed_seconds(monkeypatch):
    # With a constant timer, one sv 2q or mps 2q op costs the timed seconds
    # and one stab gate the timed seconds over the 3n gates of the run the
    # stab timer applies, so calibrate's units and estimate's must agree.
    # From statevector.WIDE_MIN on, the sv timer applies one 4-qubit kernel
    # that stands for two 2q gates, so one costs half the timed seconds.
    timed = 3.7e-5
    wide = statevector.WIDE_MIN
    monkeypatch.setattr(calibration, "_median_seconds", lambda fn, reps, floor: timed)
    cfg = CalibrationConfig(
        sv_grid=(4, 6, wide),
        mps_grid_n=(4, 6),
        mps_grid_chi=(2, 4),
        stab_grid=(4, 6),
        shot_counts=(1, 10),
        repetitions=1,
    )
    model = calibrate(cfg, seed=0)
    grid_points = (
        ("sv", "2q", 6, 1), ("sv", "2q", wide, 1), ("mps", "2q", 6, 4), ("stab", "gate", 4, 1),
    )
    for backend, klass, n, chi in grid_points:
        one = Circuit(n)
        one.gate("cx", 0, 1)
        empty = Circuit(n)
        per_op = timed / (3 * n) if backend == "stab" else timed
        if backend == "sv" and n >= wide:
            per_op = timed / 2
        op = estimate(one, backend, model, 0, chi=chi) - estimate(empty, backend, model, 0, chi=chi)
        assert op == pytest.approx(per_op, rel=1e-9), backend
        priced = dict(zip(calibration.PRICED[backend], model.seconds(backend, n, chi)))
        assert priced[klass] == pytest.approx(per_op, rel=1e-12), backend


@pytest.fixture(scope="module")
def quick_model():
    cfg = CalibrationConfig(
        sv_grid=(2, 6, 10, 14),
        mps_grid_n=(4, 8),
        mps_grid_chi=(2, 8),
        stab_grid=(4, 16),
        shot_counts=(1, 40, 200),
        repetitions=3,
        min_sample_seconds=2e-4,
    )
    return calibrate(cfg, seed=5)


def test_calibrate_produces_positive_grids(quick_model):
    m = quick_model
    assert len(m.tables["sv"].coefs["1q"]) == 4
    assert len(m.tables["mps"].coefs["2q"]) == 2
    assert len(m.tables["mps"].coefs["2q"][0]) == 2
    assert len(m.tables["stab"].coefs["measure"]) == 2
    assert m.tables["stab"].grid_chi == m.tables["sv"].grid_chi == (1,)
    for t in m.tables.values():
        assert t.shots[0] > 0 and t.shots[1] > 0
    assert m.version == MODEL_VERSION
    assert m.created.startswith("20")


def test_calibrated_shot_cost_rises_with_shots(quick_model):
    c = ghz(4)
    for backend in ("sv", "mps", "stab"):
        kwargs = {"chi": 4} if backend == "mps" else {}
        lo = estimate(c, backend, quick_model, shots=10, **kwargs)
        hi = estimate(c, backend, quick_model, shots=10_000, **kwargs)
        assert hi > lo


def test_sv_estimate_tracks_measured_runtime(quick_model):
    # Coarse end-to-end check: the prediction for a mid-sized circuit should
    # land within a small factor of a real run on this host.
    c = qft(12)
    c.measure_all()
    from polysim.dispatch import run_circuit

    run_circuit(c, "sv", 100, seed=1)  # warm caches before timing
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        run_circuit(c, "sv", 100, seed=1)
        times.append(time.perf_counter() - t0)
    measured = statistics.median(times)
    predicted = estimate(c, "sv", quick_model, shots=100)
    assert predicted == pytest.approx(measured, rel=2.0)
