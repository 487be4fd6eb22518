"""Route a circuit to a named backend with uniform arguments."""
from __future__ import annotations

from . import mps, pblock, stabilizer, statevector
from .circuit import Circuit
from .result import BackendError, RunResult

BACKENDS = ("sv", "mps", "stab", "pblock")


def run_circuit(
    c: Circuit, backend: str, shots: int, seed: int, chi: int | None = None
) -> RunResult:
    if backend == "sv":
        return statevector.run(c, shots, seed)
    if backend == "mps":
        if chi is None:
            raise BackendError("mps backend needs a bond-dimension cap (chi)")
        return mps.run(c, shots, seed, chi_max=chi)
    if backend == "stab":
        return stabilizer.run(c, shots, seed)
    if backend == "pblock":
        return pblock.run(c, shots, seed)
    raise BackendError(f"unknown backend {backend!r} (expected one of {BACKENDS})")
