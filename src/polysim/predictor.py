"""Runtime prediction and backend selection from a calibration model.

The estimate for a circuit is a sum over op classes of count * seconds
per op, plus a per-backend linear shot term.  The model prices one op of
each class as its calibrated coefficient times the class's cost unit
(``calibration.PRICED``).  Measurements and resets are a class on stab
only; sv and mps pay for terminal draws in the shot term.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import statevector
from .calibration import PRICED, CalibrationModel
from .circuit import Circuit
from .features import CircuitFeatures, extract_features
from .result import BackendError

DEFAULT_CHI_POLICY_CAP = 64


class PredictionError(BackendError):
    pass


def policy_chi(features: CircuitFeatures) -> int:
    """Bond dimension the selector budgets for a tensor-network run.

    The entanglement proxy bounds the base-2 log of any reachable Schmidt
    rank, so 2**proxy is enough for an exact run; past the cap we assume
    truncation will be accepted instead.  Every budget is 1 or a power of
    two up to the cap, so with the default calibration grid the selector
    reads coefficients at chi nodes only.
    """
    if features.entanglement_proxy >= DEFAULT_CHI_POLICY_CAP.bit_length():
        return DEFAULT_CHI_POLICY_CAP
    return 1 << features.entanglement_proxy


def _misfit(backend: str, f: CircuitFeatures) -> str | None:
    """Why `backend` cannot run a circuit with features `f`, or None if it can."""
    if backend == "sv" and f.n_qubits > statevector.QUBIT_CAP:
        return f"{f.n_qubits} qubits exceeds the state-vector cap ({statevector.QUBIT_CAP})"
    if backend == "stab" and not f.is_clifford:
        return "tableau backend needs a Clifford-only circuit"
    return None


def estimate(
    c: Circuit,
    backend: str,
    model: CalibrationModel,
    shots: int,
    chi: int | None = None,
    features: CircuitFeatures | None = None,
) -> float:
    """Predicted wall seconds for running `c` on `backend`."""
    if shots < 0:
        raise ValueError("shots must be >= 0")
    if backend not in PRICED:
        raise PredictionError(f"unknown backend {backend!r}")
    f = features if features is not None else extract_features(c)
    reason = _misfit(backend, f)
    if reason is not None:
        raise PredictionError(reason)
    counts = f.counts_by_class
    n = f.n_qubits
    n_1q = counts["1q-clifford"] + counts["1q-nonclifford"]
    n_2q = counts["2q"]
    c1, c2 = model.tables[backend].shots
    shot_term = c1 + c2 * shots

    if backend == "sv":
        s_1q, s_2q = model.seconds("sv", n)
        return n_1q * s_1q + n_2q * s_2q + shot_term

    if backend == "mps":
        x = chi if chi is not None else policy_chi(f)
        if x < 1:
            raise ValueError("chi must be >= 1")
        s_1q, s_2q = model.seconds("mps", n, x)
        return n_1q * s_1q + n_2q * s_2q + shot_term

    s_gate, s_meas = model.seconds("stab", n)
    n_meas = counts["measure"] + counts["reset"]
    return (n_1q + n_2q) * s_gate + n_meas * s_meas + shot_term


@dataclass(frozen=True)
class PredictionReport:
    chosen: str
    estimates: dict[str, float]
    chi: int
    features: CircuitFeatures


def select_backend(
    c: Circuit, model: CalibrationModel, shots: int, chi: int | None = None
) -> PredictionReport:
    """Estimate every backend that fits the circuit and pick the fastest.

    mps is priced at ``chi`` when the caller will run it at that fixed bond
    cap, and at the policy budget otherwise.
    """
    f = extract_features(c)
    if chi is None:
        chi = policy_chi(f)
    estimates = {
        b: estimate(c, b, model, shots, chi=chi, features=f)
        for b in PRICED
        if _misfit(b, f) is None
    }
    # min keeps the first of equal estimates, so ties follow PRICED's order
    chosen = min(estimates, key=estimates.__getitem__)
    return PredictionReport(chosen=chosen, estimates=estimates, chi=chi, features=f)
