"""Fidelity metrics."""
from __future__ import annotations

import math

from .circuit import Circuit, inverse_circuit, unitary_part
from .sampling import SamplingError


def _normalize(counts_or_probs: dict[str, float]) -> dict[str, float]:
    total = float(sum(counts_or_probs.values()))
    if total <= 0:
        raise SamplingError("distribution has no mass")
    return {k: v / total for k, v in counts_or_probs.items() if v > 0}


def hellinger_fidelity(p: dict[str, float], q: dict[str, float]) -> float:
    """(sum_i sqrt(p_i q_i))^2 over the union support.

    Accepts raw count maps or probability maps; both are normalized first.
    """
    p = _normalize(p)
    q = _normalize(q)
    bc = sum(math.sqrt(p[k] * q[k]) for k in p.keys() & q.keys())
    return bc * bc


def mirror_fidelity(
    c: Circuit,
    backend: str,
    shots: int,
    seed: int,
    chi: int | None = None,
) -> float:
    """Empirical probability that U followed by U-inverse returns all zeros.

    Measurements and barriers in c are ignored; the unitary part is mirrored
    with its exact inverse and every qubit is read out.
    """
    from .dispatch import run_circuit

    forward = unitary_part(c)
    mirror = Circuit(c.n_qubits, c.n_qubits, name=f"{c.name}_mirror")
    for inst in forward.instructions:
        mirror.append(inst)
    for inst in inverse_circuit(forward).instructions:
        mirror.append(inst)
    mirror.measure_all()
    result = run_circuit(mirror, backend, shots, seed, chi=chi)
    zeros = "0" * c.n_qubits
    return result.counts.get(zeros, 0) / shots


def expected_sampling_fidelity(n_qubits: int, shots: int) -> float:
    """Finite-shot Hellinger ceiling 1 - n/(8*shots) for O(n)-support states.

    Only meaningful when shots dominate the support size; below 10 shots per
    qubit the linearization is not applicable and this raises.
    """
    if n_qubits < 0:
        raise ValueError("n_qubits must be non-negative")
    if shots < 10 * n_qubits or shots < 1:
        raise ValueError(
            f"bound needs shots >> n_qubits; got shots={shots}, n_qubits={n_qubits}"
        )
    return 1.0 - n_qubits / (8.0 * shots)
