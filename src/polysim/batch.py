"""Batch execution of circuit directories under a routing policy.

Policies: fixed-sv-threshold runs the state-vector backend wherever the
predictor's fit rule (``predictor.misfit``: up to ``statevector.QUBIT_CAP``)
admits it and the tensor-network backend elsewhere; fixed-mps and
fixed-stab pin one backend; auto asks the predictor per circuit.  The
threshold and auto policies reuse the features they extracted, so each
circuit is analysed once.  ``run_one``, which ``polysim run`` shares, runs
tensor-network jobs through the fidelity loop (threshold 0.95, bond
dimension doubling from 4, each chi scored by 1 - eps over the run's worst
path).  A circuit that fails is recorded and the batch continues.
"""
from __future__ import annotations

import glob
import os
import time
from dataclasses import dataclass

from .calibration import CalibrationModel
from .circuit import Circuit
from .dispatch import run_circuit
from .features import extract_features
from .mps import run_with_fidelity_loop
from .predictor import misfit, select_backend
from .qasm import parse_qasm_file
from .result import RunResult

REPORT_VERSION = 1
POLICIES = ("fixed-sv-threshold", "fixed-mps", "fixed-stab", "auto")


@dataclass
class CircuitRecord:
    name: str
    n_qubits: int | None = None
    total_gates: int | None = None
    two_qubit_gates: int | None = None
    is_clifford: bool | None = None
    entanglement_proxy: int | None = None
    backend: str | None = None
    chi: int | None = None
    wall_seconds: float = 0.0
    predicted_seconds: float | None = None
    fidelity: float | None = None
    counts: dict[str, int] | None = None
    error: str | None = None


@dataclass
class BatchReport:
    policy: str
    shots: int
    seed: int
    records: list[CircuitRecord]
    wall_seconds: float
    prediction_seconds: float

    def to_dict(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "policy": self.policy,
            "shots": self.shots,
            "seed": self.seed,
            # shallow: dataclasses.asdict would deep-copy every counts entry
            "circuits": [dict(vars(r)) for r in self.records],
            "totals": {
                "wall_seconds": self.wall_seconds,
                "prediction_seconds": self.prediction_seconds,
                "failures": sum(1 for r in self.records if r.error is not None),
            },
        }


def load_directory(path: str) -> list[tuple[str, Circuit | Exception]]:
    """Parse every .qasm file in a directory, keeping parse failures."""
    paths = sorted(glob.glob(os.path.join(path, "*.qasm")))
    if not paths:
        raise FileNotFoundError(f"no .qasm files in {path}")
    entries: list[tuple[str, Circuit | Exception]] = []
    for p in paths:
        try:
            c = parse_qasm_file(p)
            entries.append((c.name, c))
        except Exception as exc:
            entries.append((os.path.splitext(os.path.basename(p))[0], exc))
    return entries


def run_one(
    c: Circuit, backend: str, shots: int, seed: int, chi: int | None = None,
    fidelity_threshold: float = 0.95,
) -> tuple[RunResult, int | None, float | None]:
    """Run `c` once, or through the fidelity loop for mps without a bond cap.

    Returns the result, the cap mps ran at (None on other backends) and the
    loop's fidelity (None outside the loop)."""
    if backend == "mps" and chi is None:
        loop = run_with_fidelity_loop(c, shots, seed, threshold=fidelity_threshold)
        return loop.result, loop.chi, loop.fidelity
    result = run_circuit(c, backend, shots, seed, chi=chi)
    return result, chi if backend == "mps" else None, None


def run_batch(
    source: str | list[Circuit],
    policy: str,
    model: CalibrationModel | None = None,
    shots: int = 1000,
    seed: int = 0,
    fidelity_threshold: float = 0.95,
) -> BatchReport:
    """Run every circuit under one policy and report per-circuit results.

    Every circuit is run with the same seed, so a report is reproducible
    from (suite, policy, shots, seed, calibration) alone.  Wall time is
    measured around each run; prediction time is accumulated separately.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if policy == "auto" and model is None:
        raise ValueError("auto policy needs a calibration model")

    if isinstance(source, str):
        entries = load_directory(source)
    else:
        entries = [(c.name, c) for c in source]

    records: list[CircuitRecord] = []
    prediction_total = 0.0
    for name, item in entries:
        if isinstance(item, Exception):
            records.append(CircuitRecord(name, error=f"{type(item).__name__}: {item}"))
            continue
        c = item
        features = None
        backend = None
        chi = None
        predicted = None
        fidelity = None
        counts = None
        error = None
        wall = 0.0
        run_started = None
        try:
            if policy == "auto":
                t0 = time.perf_counter()
                report = select_backend(c, model, shots)
                prediction_total += time.perf_counter() - t0
                features = report.features
                backend = report.chosen
                predicted = report.estimates[backend]
            elif policy == "fixed-sv-threshold":
                features = extract_features(c)
                backend = "sv" if misfit("sv", features) is None else "mps"
            elif policy == "fixed-mps":
                backend = "mps"
            else:
                backend = "stab"

            run_started = time.perf_counter()
            result, chi, fidelity = run_one(c, backend, shots, seed, None, fidelity_threshold)
            wall = time.perf_counter() - run_started
            counts = result.counts
        except Exception as exc:
            wall = 0.0 if run_started is None else time.perf_counter() - run_started
            error = f"{type(exc).__name__}: {exc}"
        if features is None:
            features = extract_features(c)

        records.append(
            CircuitRecord(
                name=name,
                n_qubits=features.n_qubits,
                total_gates=features.total_gates,
                two_qubit_gates=features.counts_by_class["2q"],
                is_clifford=features.is_clifford,
                entanglement_proxy=features.entanglement_proxy,
                backend=backend,
                chi=chi,
                wall_seconds=wall,
                predicted_seconds=predicted,
                fidelity=fidelity,
                counts=counts,
                error=error,
            )
        )

    total_wall = sum(r.wall_seconds for r in records)
    return BatchReport(
        policy=policy,
        shots=shots,
        seed=seed,
        records=records,
        wall_seconds=total_wall,
        prediction_seconds=prediction_total,
    )
