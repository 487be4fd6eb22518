"""Runtime prediction and backend selection from a calibration model.

The estimate for a circuit is a sum over op classes of count * seconds
per op, plus a per-backend linear shot term.  The model prices one op of
each class as its calibrated coefficient times the class's cost unit
(``calibration.PRICED``).
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
    f = features if features is not None else extract_features(c)
    counts = f.counts_by_class
    n = f.n_qubits
    n_1q = counts["1q-clifford"] + counts["1q-nonclifford"]
    n_2q = counts["2q"]
    n_meas = counts["measure"] + counts["reset"]
    table = model.tables.get(backend)
    if table is None:
        raise PredictionError(f"unknown backend {backend!r}")
    c1, c2 = table.shots
    shot_term = c1 + c2 * shots

    if backend == "sv":
        if n > statevector.QUBIT_CAP:
            raise PredictionError(
                f"{n} qubits exceeds the state-vector cap "
                f"({statevector.QUBIT_CAP})"
            )
        s_1q, s_2q = model.seconds("sv", n)
        return n_1q * s_1q + n_2q * s_2q + shot_term

    if backend == "mps":
        x = chi if chi is not None else policy_chi(f)
        if x < 1:
            raise ValueError("chi must be >= 1")
        s_1q, s_2q, s_meas = model.seconds("mps", n, x)
        return n_1q * s_1q + n_2q * s_2q + n_meas * s_meas + shot_term

    if backend == "stab":
        if not f.is_clifford:
            raise PredictionError("tableau backend needs a Clifford-only circuit")
        s_gate, s_meas = model.seconds("stab", n)
        return (n_1q + n_2q) * s_gate + n_meas * s_meas + shot_term

    raise PredictionError(f"unknown backend {backend!r}")


@dataclass(frozen=True)
class PredictionReport:
    chosen: str
    estimates: dict[str, float]
    chi: int
    features: CircuitFeatures


def select_backend(c: Circuit, model: CalibrationModel, shots: int) -> PredictionReport:
    """Estimate every applicable backend and pick the fastest."""
    f = extract_features(c)
    chi = policy_chi(f)
    applies = {"stab": f.is_clifford, "mps": True, "sv": f.n_qubits <= statevector.QUBIT_CAP}
    estimates = {
        b: estimate(c, b, model, shots, chi=chi, features=f) for b in PRICED if applies[b]
    }
    # min keeps the first of equal estimates, so ties follow PRICED's order
    chosen = min(estimates, key=estimates.__getitem__)
    return PredictionReport(chosen=chosen, estimates=estimates, chi=chi, features=f)
