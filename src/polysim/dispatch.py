"""Route a circuit to a named backend with uniform arguments."""
from __future__ import annotations

from . import mps, stabilizer, statevector
from .circuit import Circuit
from .result import BackendError, RunResult

BACKENDS = ("sv", "mps", "stab")


def run_circuit(
    c: Circuit,
    backend: str,
    shots: int,
    seed: int,
    chi: int | None = None,
    qubit_cap: int = statevector.DEFAULT_QUBIT_CAP,
) -> RunResult:
    if backend == "sv":
        return statevector.run(c, shots, seed, qubit_cap=qubit_cap)
    if backend == "mps":
        if chi is None:
            raise BackendError("mps backend needs a bond-dimension cap (chi)")
        return mps.run(c, shots, seed, chi_max=chi)
    if backend == "stab":
        return stabilizer.run(c, shots, seed)
    raise BackendError(f"unknown backend {backend!r} (expected one of {BACKENDS})")
