"""Structural circuit features consumed by the runtime predictor."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .circuit import ONE_QUBIT_CLIFFORD, TWO_QUBIT_GATES, Circuit


@dataclass(frozen=True)
class CircuitFeatures:
    n_qubits: int
    total_gates: int
    counts_by_class: dict[str, int]
    is_clifford: bool
    entanglement_proxy: int


def extract_features(c: Circuit) -> CircuitFeatures:
    """Count and classify instructions and summarize circuit structure.

    The entanglement proxy is the largest number of two-qubit gates crossing
    any single cut of the linear qubit ordering; it upper-bounds the base-2
    log of the Schmidt rank reachable across that cut.  Everything comes
    from one pass over the instructions; cut crossings are kept as a
    difference array and summed once at the end.
    """
    n = c.n_qubits
    cut_delta = [0] * n  # crossings of cut i = sum of cut_delta[:i + 1]
    n_1q_clifford = n_1q_other = n_2q = n_measure = n_reset = 0

    for inst in c.instructions:
        kind = inst.kind
        if kind in TWO_QUBIT_GATES:
            n_2q += 1
            a, b = inst.qubits
            if a > b:
                a, b = b, a
            cut_delta[a] += 1
            cut_delta[b] -= 1
        elif kind in ONE_QUBIT_CLIFFORD:
            n_1q_clifford += 1
        elif kind == "measure":
            n_measure += 1
        elif kind == "reset":
            n_reset += 1
        elif kind != "barrier":
            n_1q_other += 1

    counts = {
        "1q-clifford": n_1q_clifford,
        "1q-nonclifford": n_1q_other,
        "2q": n_2q,
        "measure": n_measure,
        "reset": n_reset,
    }
    return CircuitFeatures(
        n_qubits=n,
        total_gates=n_1q_clifford + n_1q_other + n_2q + n_measure + n_reset,
        counts_by_class=counts,
        is_clifford=n_1q_other == 0,
        entanglement_proxy=max(accumulate(cut_delta[:-1])) if n > 1 else 0,
    )
