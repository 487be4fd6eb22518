"""Runtime prediction and backend selection from a calibration model.

The estimate for a circuit is a sum over gate classes of
count * calibrated coefficient * theoretical operation cost, plus a
per-backend linear shot term.  Operation costs: state vector 2^n for
every class, tensor network chi^2 for one-qubit gates and n * chi^3 for
two-qubit gates and measurements, tableau n^2 throughout.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import statevector
from .calibration import CalibrationModel
from .circuit import Circuit
from .features import CircuitFeatures, extract_features
from .result import BackendError

DEFAULT_CHI_POLICY_CAP = 64


class PredictionError(BackendError):
    pass


def policy_chi(features: CircuitFeatures, cap: int = DEFAULT_CHI_POLICY_CAP) -> int:
    """Bond dimension the selector budgets for a tensor-network run.

    The entanglement proxy bounds the base-2 log of any reachable Schmidt
    rank, so 2**proxy is enough for an exact run; past the cap we assume
    truncation will be accepted instead.
    """
    if features.entanglement_proxy >= cap.bit_length():
        return cap
    return min(cap, max(1, 1 << features.entanglement_proxy))


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
    try:
        c1, c2 = model.shot_coeffs[backend]
    except KeyError:
        raise PredictionError(f"unknown backend {backend!r}") from None
    shot_term = c1 + c2 * shots

    if backend == "sv":
        if n > statevector.QUBIT_CAP:
            raise PredictionError(
                f"{n} qubits exceeds the state-vector cap "
                f"({statevector.QUBIT_CAP})"
            )
        dim = float(1 << n)
        gate_term = (
            n_1q * model.sv_coef("1q", n) + n_2q * model.sv_coef("2q", n)
        ) * dim
        return gate_term + shot_term

    if backend == "mps":
        x = chi if chi is not None else policy_chi(f)
        if x < 1:
            raise ValueError("chi must be >= 1")
        unit_2q = float(n) * x**3
        gate_term = (
            n_1q * model.mps_coef("1q", n, x) * x**2
            + n_2q * model.mps_coef("2q", n, x) * unit_2q
            + n_meas * model.mps_coef("measure", n, x) * unit_2q
        )
        return gate_term + shot_term

    if backend == "stab":
        if not f.is_clifford:
            raise PredictionError("tableau backend needs a Clifford-only circuit")
        unit = float(n) * n
        gate_term = (
            (n_1q + n_2q) * model.stab_coef("gate", n) * unit
            + n_meas * model.stab_coef("measure", n) * unit
        )
        return gate_term + shot_term

    raise PredictionError(f"unknown backend {backend!r}")


# Lower value wins ties; the cheaper-memory backend is preferred when the
# predicted times come out equal.
_TIE_ORDER = {"stab": 0, "mps": 1, "sv": 2}


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
    estimates: dict[str, float] = {}
    if f.is_clifford:
        estimates["stab"] = estimate(c, "stab", model, shots, features=f)
    estimates["mps"] = estimate(c, "mps", model, shots, chi=chi, features=f)
    if f.n_qubits <= statevector.QUBIT_CAP:
        estimates["sv"] = estimate(c, "sv", model, shots, features=f)
    if not estimates:
        raise PredictionError("no backend is applicable to this circuit")
    chosen = min(estimates, key=lambda b: (estimates[b], _TIE_ORDER[b]))
    return PredictionReport(chosen=chosen, estimates=estimates, chi=chi, features=f)
