from __future__ import annotations

import numpy as np

from polysim.circuit import Circuit, Instruction
from polysim.features import CircuitFeatures, extract_features
from conftest import ghz, qft, random_circuit
from oracles import is_clifford


def test_counts_by_class_hand_tally():
    c = Circuit(3, 2)
    c.gate("h", 0)                # 1q-clifford
    c.gate("t", 1)                # 1q-nonclifford
    c.gate("rx", 2, params=(0.0,))  # 1q-nonclifford, angle irrelevant
    c.gate("cx", 0, 1)            # 2q
    c.gate("swap", 1, 2)          # 2q
    c.append(Instruction("barrier", (0, 1, 2)))
    c.append(Instruction("reset", (2,)))
    c.measure(0, 0)
    c.measure(1, 1)
    f = extract_features(c)
    assert f.counts_by_class == {
        "1q-clifford": 1,
        "1q-nonclifford": 2,
        "2q": 2,
        "measure": 2,
        "reset": 1,
    }
    assert f.total_gates == 8  # barrier excluded
    assert f.total_gates == sum(f.counts_by_class.values())


def test_clifford_flag_is_angle_blind():
    c = Circuit(1)
    c.gate("rx", 0, params=(np.pi / 2,))
    assert not is_clifford(c)
    assert not extract_features(c).is_clifford
    d = Circuit(2, 2)
    d.gate("h", 0).gate("s", 1).gate("cx", 0, 1)
    d.measure_all()
    assert extract_features(d).is_clifford


def test_entanglement_proxy_linear_chain_is_one():
    assert extract_features(ghz(40)).entanglement_proxy == 1


def test_entanglement_proxy_brute_force(rng):
    """Proxy equals an independent per-cut recount on random circuits."""
    for _ in range(50):
        n = int(rng.integers(2, 8))
        c = random_circuit(n, int(rng.integers(1, 30)), rng, measured=False)
        expected = 0
        for cut in range(n - 1):
            crossing = 0
            for inst in c.instructions:
                if len(inst.qubits) == 2 and inst.kind != "barrier":
                    a, b = min(inst.qubits), max(inst.qubits)
                    if a <= cut < b:
                        crossing += 1
            expected = max(expected, crossing)
        assert extract_features(c).entanglement_proxy == expected


def test_qft_proxy_grows():
    assert extract_features(qft(6)).entanglement_proxy > 3


def test_single_qubit_circuit():
    c = Circuit(1, 1)
    c.gate("h", 0).measure(0, 0)
    f = extract_features(c)
    assert f.entanglement_proxy == 0


def test_extract_features_is_deterministic():
    c = ghz(5)
    a, b = extract_features(c), extract_features(c)
    assert a == b


def _reference_features(c: Circuit) -> CircuitFeatures:
    """Each field recomputed on its own, by the definition, for comparison."""
    ops = [inst for inst in c.instructions if inst.kind != "barrier"]

    def kind_class(inst):
        if inst.kind in ("measure", "reset"):
            return inst.kind
        if len(inst.qubits) == 2:
            return "2q"
        return "1q-clifford" if inst.kind in ("h", "x", "y", "z", "s", "sdg") else "1q-nonclifford"

    counts = {k: 0 for k in ("1q-clifford", "1q-nonclifford", "2q", "measure", "reset")}
    for inst in ops:
        counts[kind_class(inst)] += 1
    graph: dict[tuple[int, int], int] = {}
    for inst in ops:
        if len(inst.qubits) == 2:
            edge = tuple(sorted(inst.qubits))
            graph[edge] = graph.get(edge, 0) + 1
    proxy = max(
        (sum(w for (a, b), w in graph.items() if a <= cut < b) for cut in range(c.n_qubits - 1)),
        default=0,
    )
    return CircuitFeatures(
        n_qubits=c.n_qubits,
        total_gates=len(ops),
        counts_by_class=counts,
        is_clifford=is_clifford(c),
        entanglement_proxy=proxy,
    )


def test_matches_reference_on_random_circuits_with_mid_circuit_ops(rng):
    for _ in range(200):
        n = int(rng.integers(1, 9))
        base = random_circuit(n, int(rng.integers(0, 40)), rng, measured=False,
                              clifford_only=bool(rng.random() < 0.3))
        c = Circuit(n, n)
        for inst in base.instructions:
            roll = rng.random()
            q = int(rng.integers(n))
            if roll < 0.08:
                c.measure(q, int(rng.integers(n)))
            elif roll < 0.12:
                c.append(Instruction("reset", (q,)))
            elif roll < 0.16:
                c.append(Instruction("barrier", tuple(sorted({q, int(rng.integers(n))}))))
            c.append(inst)
        if rng.random() < 0.7:
            c.measure_all()
        assert extract_features(c) == _reference_features(c)
