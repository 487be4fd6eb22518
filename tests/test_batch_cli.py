import json
import os

import pytest
from conftest import ghz
from test_predictor import make_model
from oracles import is_clifford

from polysim import batch, cli
from polysim.batch import load_directory, run_batch
from polysim.calibration import MODEL_VERSION, CalibrationConfig, CalibrationModel, calibrate
from polysim.circuit import Circuit
from polysim.predictor import estimate, select_backend
from polysim.qasm import parse_qasm_file, to_qasm
from polysim.suite import (
    clifford_circuit,
    clifford_t_circuit,
    generate_torture_suite,
    ghz_circuit,
    qaoa_line_circuit,
)


@pytest.fixture(scope="module")
def model():
    cfg = CalibrationConfig(
        sv_grid=(2, 6, 10),
        mps_grid_n=(4, 8),
        mps_grid_chi=(2, 8),
        stab_grid=(4, 16),
        shot_counts=(1, 40, 200),
        repetitions=3,
        min_sample_seconds=2e-4,
    )
    return calibrate(cfg, seed=5)


@pytest.fixture(scope="module")
def calib_file(model, tmp_path_factory):
    path = tmp_path_factory.mktemp("calib") / "calib.json"
    model.save(str(path))
    return str(path)


def write_qasm(directory, circuit, name):
    path = os.path.join(str(directory), f"{name}.qasm")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_qasm(circuit))
    return path


# ---------------------------------------------------------------- batch


def test_auto_batch_records_and_totals(model):
    circuits = [ghz_circuit(4), clifford_circuit(5, 12, seed=3), clifford_t_circuit(4, 20, seed=1)]
    report = run_batch(circuits, "auto", model=model, shots=100, seed=9)
    assert report.policy == "auto"
    assert len(report.records) == 3
    for rec in report.records:
        assert rec.error is None
        assert rec.backend in ("sv", "mps", "stab")
        assert sum(rec.counts.values()) == 100
        assert rec.predicted_seconds > 0
        assert rec.wall_seconds >= 0
    assert report.wall_seconds == pytest.approx(
        sum(r.wall_seconds for r in report.records), abs=1e-9
    )
    assert report.prediction_seconds > 0


def test_mps_records_carry_chi_and_fidelity():
    report = run_batch([ghz_circuit(6)], "fixed-mps", shots=100, seed=2)
    rec = report.records[0]
    assert rec.backend == "mps"
    assert rec.chi == 4
    assert rec.fidelity >= 0.95
    assert rec.error is None


def test_sv_threshold_policy_splits_on_qubit_count():
    report = run_batch(
        [ghz_circuit(4), ghz_circuit(28), ghz_circuit(32)], "fixed-sv-threshold", shots=50, seed=1
    )
    by_name = {r.name: r for r in report.records}
    assert by_name["ghz_4"].backend == "sv"
    assert by_name["ghz_28"].backend == "mps"  # above statevector.QUBIT_CAP
    assert by_name["ghz_32"].backend == "mps"
    assert all(r.error is None for r in report.records)


def test_fixed_stab_records_nonclifford_failure_and_continues():
    circuits = [clifford_t_circuit(4, 20, seed=1), ghz_circuit(4)]
    report = run_batch(circuits, "fixed-stab", shots=50, seed=1)
    failed, worked = report.records
    assert failed.error is not None and failed.counts is None
    assert worked.error is None and sum(worked.counts.values()) == 50
    assert report.to_dict()["totals"]["failures"] == 1


def test_batch_counts_are_reproducible(model):
    circuits = lambda: [ghz_circuit(5), clifford_t_circuit(5, 25, seed=2)]
    a = run_batch(circuits(), "auto", model=model, shots=200, seed=7)
    b = run_batch(circuits(), "auto", model=model, shots=200, seed=7)
    for ra, rb in zip(a.records, b.records):
        assert ra.counts == rb.counts
        assert ra.backend == rb.backend


def test_batch_rejects_bad_arguments(model):
    with pytest.raises(ValueError):
        run_batch([ghz_circuit(3)], "round-robin")
    with pytest.raises(ValueError):
        run_batch([ghz_circuit(3)], "auto", model=None)


def test_load_directory_keeps_parse_failures(tmp_path):
    write_qasm(tmp_path, ghz_circuit(3), "good")
    (tmp_path / "bad.qasm").write_text("OPENQASM 2.0; qreg q[2; h q[0];")
    entries = dict(load_directory(str(tmp_path)))
    assert isinstance(entries["bad"], Exception)
    assert isinstance(entries["good"], Circuit)
    report = run_batch(str(tmp_path), "fixed-mps", shots=20, seed=0)
    by_name = {r.name: r for r in report.records}
    assert by_name["bad"].error is not None
    assert by_name["good"].error is None
    failed = report.to_dict()["circuits"][0]
    assert failed["name"] == "bad" and failed["wall_seconds"] == 0.0
    assert all(v is None for k, v in failed.items() if k not in ("name", "wall_seconds", "error"))


def test_load_directory_requires_qasm_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_directory(str(tmp_path))


def test_report_dict_schema(model):
    report = run_batch([ghz_circuit(3)], "auto", model=model, shots=10, seed=0)
    raw = json.loads(json.dumps(report.to_dict()))
    assert raw["version"] == 1
    assert raw["policy"] == "auto"
    assert set(raw["totals"]) == {"wall_seconds", "prediction_seconds", "failures"}
    rec = raw["circuits"][0]
    assert list(rec) == [
        "name",
        "n_qubits",
        "total_gates",
        "two_qubit_gates",
        "is_clifford",
        "entanglement_proxy",
        "backend",
        "chi",
        "wall_seconds",
        "predicted_seconds",
        "fidelity",
        "counts",
        "error",
    ]


# ------------------------------------------------------------------- cli


def run_cli(*argv):
    return cli.main(list(argv))


def test_cli_run_ghz_counts(tmp_path, capsys):
    qasm = write_qasm(tmp_path, ghz_circuit(3), "ghz3")
    code = run_cli("run", "--input", qasm, "--backend", "sv", "--shots", "1000", "--seed", "7")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert set(payload["counts"]) == {"000", "111"}
    assert abs(payload["counts"]["000"] - 500) < 70
    assert payload["backend"] == "sv"


def test_cli_run_writes_output_file(tmp_path):
    qasm = write_qasm(tmp_path, ghz_circuit(3), "ghz3")
    out = tmp_path / "out.json"
    code = run_cli("run", "--input", qasm, "--backend", "stab", "--shots", "64", "--seed", "1", "--output", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert sum(payload["counts"].values()) == 64


def test_cli_run_reports_metadata_for_every_backend(tmp_path, capsys):
    mid = Circuit(2, 2)
    mid.gate("h", 0)
    mid.measure(0, 0)
    mid.gate("h", 0)  # the measurement splits shots, so sv walks twice
    mid.gate("cx", 0, 1)
    mid.measure(1, 1)
    expected = {
        "sv": {"paths": 2},
        "mps": {"chi_max": 4, "truncation_error": 0.0, "paths": 2},
        "stab": {},
        "pblock": {"max_block_dim": 4, "paths": 2},
    }
    qasm = write_qasm(tmp_path, mid, "mid")
    for backend, metadata in expected.items():
        args = ("--chi", "4") if backend == "mps" else ()
        code = run_cli("run", "--input", qasm, "--backend", backend, "--shots", "50", *args)
        assert code == 0
        assert json.loads(capsys.readouterr().out)["metadata"] == metadata, backend


def test_cli_run_mps_without_chi_uses_fidelity_loop(tmp_path, capsys):
    qasm = write_qasm(tmp_path, ghz_circuit(6), "ghz6")
    code = run_cli("run", "--input", qasm, "--backend", "mps", "--shots", "100", "--seed", "3")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["chi"] == 4
    assert payload["fidelity"] >= 0.95


def test_cli_run_mps_with_explicit_chi(tmp_path, capsys):
    qasm = write_qasm(tmp_path, ghz_circuit(6), "ghz6")
    code = run_cli("run", "--input", qasm, "--backend", "mps", "--chi", "2", "--shots", "100", "--seed", "3")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["chi"] == 2
    assert "fidelity" not in payload


def test_cli_run_auto_uses_calibration(tmp_path, capsys, calib_file):
    qasm = write_qasm(tmp_path, ghz_circuit(4), "ghz4")
    code = run_cli("run", "--input", qasm, "--backend", "auto", "--calib", calib_file, "--shots", "100", "--seed", "2")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["backend"] in ("sv", "mps", "stab")
    assert payload["predicted_seconds"] > 0
    assert sum(payload["counts"].values()) == 100


def test_cli_run_auto_prices_mps_at_the_given_chi(tmp_path, capsys, calib_file):
    qasm = write_qasm(tmp_path, clifford_t_circuit(6, 40, seed=3), "ct6")
    c = parse_qasm_file(qasm)
    model = CalibrationModel.load(calib_file)
    for chi in (1, 4, 300):
        code = run_cli("run", "--input", qasm, "--backend", "auto", "--calib", calib_file,
                       "--chi", str(chi), "--shots", "100")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimates"]["mps"] == estimate(c, "mps", model, 100, chi=chi)
        report = select_backend(c, model, 100, chi=chi)
        assert payload["estimates"] == report.estimates
        assert payload["backend"] == report.chosen


def test_cli_run_pblock_with_layout(tmp_path, capsys):
    qasm = write_qasm(tmp_path, ghz_circuit(4), "ghz4")
    layout = tmp_path / "layout.json"
    layout.write_text(json.dumps({"k": 2, "capacity": 2}))
    code = run_cli("run", "--input", qasm, "--backend", "pblock", "--layout", str(layout), "--shots", "200", "--seed", "5")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["counts"]) == {"0000", "1111"}
    assert len(payload["metadata"]["gadgets"]) == 1


def test_cli_predict_lists_stab_for_clifford(tmp_path, capsys, calib_file):
    qasm = write_qasm(tmp_path, clifford_circuit(6, 18, seed=4), "cliff")
    code = run_cli("predict", "--input", qasm, "--calib", calib_file)
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "stab" in payload["estimates"]
    assert payload["features"]["is_clifford"] is True
    assert payload["chosen"] in payload["estimates"]


def test_cli_predict_and_run_auto_name_one_backend_at_a_given_chi(tmp_path, capsys):
    # Constant coefficients and equal shot terms: mps at the policy chi (2 for
    # a GHZ chain) undercuts stab, and mps at chi 8 costs 4**3 times more.
    model = make_model(sv_1q=1e-6, sv_2q=1e-6, stab_gate=1e-7, stab_meas=1e-7,
                       shots_sv=(1e-4, 1e-9), shots_mps=(1e-4, 1e-9), shots_stab=(1e-4, 1e-9))
    calib = str(tmp_path / "calib.json")
    model.save(calib)
    qasm = write_qasm(tmp_path, ghz_circuit(12), "ghz12")
    picks = {}
    for chi in (None, 8):
        flag = () if chi is None else ("--chi", str(chi))
        assert run_cli("predict", "--input", qasm, "--calib", calib, "--shots", "100", *flag) == 0
        predicted = json.loads(capsys.readouterr().out)
        assert run_cli("run", "--input", qasm, "--backend", "auto", "--calib", calib,
                       "--shots", "100", *flag) == 0
        ran = json.loads(capsys.readouterr().out)
        assert predicted["chosen"] == ran["backend"]
        assert predicted["estimates"] == ran["estimates"]
        picks[chi] = predicted["chosen"]
    assert picks == {None: "mps", 8: "stab"}


def test_cli_run_routes_each_circuit_as_the_batch_does(tmp_path, capsys):
    # Constant coefficients rigged so auto picks each of stab, sv and mps once.
    model = make_model(sv_1q=1e-6, sv_2q=1e-6, stab_gate=1e-8, stab_meas=1e-8,
                       shots_sv=(1e-4, 1e-9), shots_mps=(1e-4, 1e-9), shots_stab=(1e-4, 1e-9))
    calib = str(tmp_path / "calib.json")
    model.save(calib)
    suite_dir = tmp_path / "circuits"
    suite_dir.mkdir()
    for c in (ghz_circuit(6), clifford_t_circuit(3, 12, seed=1), qaoa_line_circuit(10, 1, seed=2)):
        write_qasm(suite_dir, c, c.name)
    shots, seed = 200, 4
    picks = set()
    for policy, flags in (("auto", ("--backend", "auto", "--calib", calib)),
                          ("fixed-mps", ("--backend", "mps"))):
        report = run_batch(str(suite_dir), policy, model=model, shots=shots, seed=seed)
        for rec in report.records:
            assert rec.error is None
            qasm = str(suite_dir / f"{rec.name}.qasm")
            assert run_cli("run", "--input", qasm, "--shots", str(shots), "--seed", str(seed),
                           *flags) == 0
            ran = json.loads(capsys.readouterr().out)
            assert ran["backend"] == rec.backend, (policy, rec.name)
            assert ran.get("chi") == rec.chi, (policy, rec.name)
            assert ran.get("fidelity") == rec.fidelity, (policy, rec.name)
            assert ran["counts"] == rec.counts, (policy, rec.name)
            if policy == "auto":
                picks.add(rec.backend)
                assert ran["predicted_seconds"] == rec.predicted_seconds
    assert picks == {"stab", "sv", "mps"}


def test_cli_env_var_overrides_calib_flag(tmp_path, capsys, calib_file, monkeypatch):
    qasm = write_qasm(tmp_path, ghz_circuit(3), "ghz3")
    monkeypatch.setenv("MAESTRO_CALIB", calib_file)
    code = run_cli("predict", "--input", qasm, "--calib", str(tmp_path / "missing.json"))
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["chosen"] in payload["estimates"]


def test_cli_missing_calibration_is_input_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MAESTRO_CALIB", raising=False)
    qasm = write_qasm(tmp_path, ghz_circuit(3), "ghz3")
    code = run_cli("predict", "--input", qasm)
    assert code == 3
    assert "calib" in capsys.readouterr().err.lower()


def test_cli_missing_input_file_is_input_error(tmp_path, capsys):
    code = run_cli("run", "--input", str(tmp_path / "nope.qasm"), "--backend", "sv")
    assert code == 3
    assert capsys.readouterr().err != ""


def test_cli_error_json_flag_emits_machine_readable(tmp_path, capsys):
    code = run_cli("--error-json", "run", "--input", str(tmp_path / "nope.qasm"), "--backend", "sv")
    assert code == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "FileNotFoundError"


def test_cli_error_json_flag_works_after_subcommand(tmp_path, capsys):
    code = run_cli("run", "--input", str(tmp_path / "nope.qasm"), "--error-json")
    assert code == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "FileNotFoundError"


def test_cli_bad_qasm_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.qasm"
    path.write_text("OPENQASM 2.0; qreg q[2]; cx q[0],q[5];")
    code = run_cli("run", "--input", str(path), "--backend", "sv")
    assert code == 3


def test_cli_backend_failure_is_exit_4(tmp_path, capsys):
    c = Circuit(2, 2)
    c.gate("t", 0)
    c.measure_all()
    qasm = write_qasm(tmp_path, c, "tgate")
    code = run_cli("run", "--input", qasm, "--backend", "stab", "--shots", "10")
    assert code == 4


def test_cli_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


def test_cli_exit_codes_separate_bad_input_from_internal_failures(tmp_path, capsys, monkeypatch, model):
    qasm = write_qasm(tmp_path, ghz_circuit(3), "ghz3")
    assert run_cli("run", "--input", qasm, "--backend", "sv", "--shots", "10") == 0
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--input", qasm, "--backend", "sv", "--shots", "0")
    assert exc.value.code == 2
    binary = tmp_path / "binary.qasm"
    binary.write_bytes(b"\xff\xfe\x00OPENQASM")
    assert run_cli("run", "--input", str(binary), "--backend", "sv") == 3
    for angle in ("1/0", "(-8)^(1/3)", "sqrt(-1)", "ln(0)", "exp(1000)"):
        bad = tmp_path / "angle.qasm"
        bad.write_text(f"OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nrz({angle}) q[0];\nmeasure q -> c;\n")
        assert run_cli("run", "--input", str(bad), "--backend", "sv") == 3, angle
    layout = tmp_path / "layout.json"
    layout.write_text('{"k": "two", "capacity": 2}')
    assert run_cli("run", "--input", qasm, "--backend", "pblock", "--layout", str(layout)) == 3
    # JSON reads 1e400 as inf, which no int holds
    for text in ('{"k": 1e400, "capacity": 2}', '{"k": 2, "capacity": 2, "links": [[0, 1e400]]}'):
        huge = tmp_path / "huge.json"
        huge.write_text(text)
        assert run_cli("run", "--input", qasm, "--backend", "pblock", "--layout", str(huge)) == 3, text
    # options the chosen backend would ignore, and thresholds no run can meet
    for args in (
        ("--backend", "mps", "--fidelity-threshold", "1.5"),
        ("--backend", "mps", "--fidelity-threshold", "0"),
        ("--backend", "sv", "--layout", "/nonexistent.json"),
        ("--backend", "auto", "--layout", str(layout)),
        ("--backend", "sv", "--chi", "4"),
        ("--backend", "stab", "--chi", "4"),
        ("--backend", "pblock", "--chi", "4"),
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--input", qasm, *args)
        assert exc.value.code == 2, args
    with pytest.raises(SystemExit) as exc:
        run_cli("batch", "--dir", str(tmp_path), "--policy", "fixed-mps", "--fidelity-threshold", "2")
    assert exc.value.code == 2
    good_calib = tmp_path / "calib.json"
    model.save(str(good_calib))
    assert run_cli("run", "--input", qasm, "--backend", "auto", "--chi", "4",
                   "--calib", str(good_calib)) == 0
    short = model.to_dict()
    short["tables"]["sv"]["coefs"]["1q"] = short["tables"]["sv"]["coefs"]["1q"][:1]
    calib = tmp_path / "short.json"
    calib.write_text(json.dumps(short))
    assert run_cli("run", "--input", qasm, "--backend", "auto", "--calib", str(calib)) == 3
    # a list where a mapping belongs: the tables, or one table's coefficients
    listed_tables = model.to_dict()
    listed_tables["tables"] = list(listed_tables["tables"].values())
    listed_coefs = model.to_dict()
    listed_coefs["tables"]["sv"]["coefs"] = list(listed_coefs["tables"]["sv"]["coefs"].values())
    for raw in (listed_tables, listed_coefs):
        calib.write_text(json.dumps(raw))
        assert run_cli("run", "--input", qasm, "--backend", "auto", "--calib", str(calib)) == 3
    # JSON reads 1e400 as inf, which is no coefficient
    huge_coef = model.to_dict()
    huge_coef["tables"]["sv"]["coefs"]["1q"] = [[1e300]] + list(huge_coef["tables"]["sv"]["coefs"]["1q"][1:])
    calib.write_text(json.dumps(huge_coef).replace("1e+300", "1e400"))
    assert run_cli("run", "--input", qasm, "--backend", "auto", "--calib", str(calib)) == 3

    def broken(*args, **kwargs):
        raise ValueError("an internal invariant failed")

    monkeypatch.setattr(batch, "run_circuit", broken)
    assert run_cli("run", "--input", qasm, "--backend", "sv") == 4
    capsys.readouterr()


def test_cli_gen_suite_is_deterministic(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli("gen-suite", "--out", str(out_a)) == 0
    assert run_cli("gen-suite", "--out", str(out_b)) == 0
    capsys.readouterr()
    names = sorted(os.listdir(out_a))
    assert len(names) == 90
    assert names == sorted(os.listdir(out_b))
    for name in names:
        assert (out_a / name).read_text() == (out_b / name).read_text()


def test_suite_clifford_family_passes_is_clifford(tmp_path, capsys):
    out = tmp_path / "suite"
    assert run_cli("gen-suite", "--out", str(out)) == 0
    capsys.readouterr()
    clifford_files = sorted(os.listdir(out))[:30]
    assert all(f.startswith(("0", "1", "2")) for f in clifford_files)
    for name in clifford_files:
        assert is_clifford(parse_qasm_file(str(out / name)))


def test_suite_families_match_declared_shapes():
    circuits = generate_torture_suite(seed=3)
    assert len(circuits) == 90
    clifford, low_ent, high_ent = circuits[:30], circuits[30:60], circuits[60:]
    assert all(is_clifford(c) for c in clifford)
    assert {c.n_qubits for c in clifford} <= set(range(4, 25))
    assert min(c.n_qubits for c in clifford) == 4
    assert max(c.n_qubits for c in clifford) == 24
    assert max(c.n_qubits for c in low_ent) == 24
    assert all(4 <= c.n_qubits <= 12 for c in high_ent)
    assert all(not is_clifford(c) for c in high_ent)


def test_cli_batch_runs_directory(tmp_path, capsys, calib_file):
    suite_dir = tmp_path / "circuits"
    suite_dir.mkdir()
    write_qasm(suite_dir, ghz_circuit(4), "ghz4")
    write_qasm(suite_dir, clifford_t_circuit(4, 16, seed=2), "dense4")
    report_path = tmp_path / "report.json"
    code = run_cli(
        "batch",
        "--dir", str(suite_dir),
        "--policy", "auto",
        "--calib", calib_file,
        "--shots", "50",
        "--seed", "3",
        "--report", str(report_path),
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["circuits"] == 2
    report = json.loads(report_path.read_text())
    assert report["version"] == 1
    assert report["policy"] == "auto"
    assert len(report["circuits"]) == 2
    assert report["totals"]["failures"] == 0


def test_cli_calibrate_writes_model(tmp_path, capsys, monkeypatch):
    # Full calibration is exercised elsewhere; point the CLI at a tiny config.
    from polysim import cli as cli_module

    small = CalibrationConfig(
        sv_grid=(2, 4),
        mps_grid_n=(4, 6),
        mps_grid_chi=(2, 4),
        stab_grid=(4, 8),
        shot_counts=(1, 20),
        repetitions=2,
        min_sample_seconds=1e-4,
    )
    monkeypatch.setattr(
        cli_module, "calibrate", lambda seed: calibrate(small, seed=seed)
    )
    out = tmp_path / "calib.json"
    code = run_cli("calibrate", "--out", str(out))
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["written"] == str(out)
    from polysim.calibration import CalibrationModel

    loaded = CalibrationModel.load(str(out))
    assert loaded.version == MODEL_VERSION