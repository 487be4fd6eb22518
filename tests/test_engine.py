"""The shot engine shared by sv, mps and pblock: exact laws, seeding and cost."""
import pytest
from conftest import chisquare_pvalue, oracle_distribution

from polysim import mps, pblock, statevector
from polysim.circuit import Circuit, Instruction
from polysim.partition import VqpuLayout

RUNNERS = {
    "sv": lambda c, shots, seed: statevector.run(c, shots, seed),
    "mps": lambda c, shots, seed: mps.run(c, shots, seed, chi_max=16),
    "pblock": lambda c, shots, seed: pblock.run(c, shots, seed),
    "pblock-dist": lambda c, shots, seed: pblock.run_distributed(
        c, VqpuLayout(2, (c.n_qubits + 1) // 2), shots, seed
    ),
}


def deferred_measure() -> Circuit:
    """q0 is measured mid-circuit but no later gate touches it."""
    c = Circuit(4, 4)
    c.gate("h", 0).gate("cx", 0, 1).gate("ry", 2, params=(0.7,))
    c.measure(0, 0)
    c.gate("cx", 1, 2).gate("h", 1).gate("ry", 3, params=(1.2,)).gate("cx", 2, 3)
    c.measure(1, 1).measure(2, 2).measure(3, 3)
    return c


def gate_after_measure() -> Circuit:
    c = Circuit(3, 4)
    c.gate("h", 0).gate("cx", 0, 1)
    c.measure(0, 0)
    c.gate("h", 0).gate("cx", 0, 2).gate("ry", 1, params=(0.9,))
    c.measure(0, 1).measure(1, 2).measure(2, 3)
    return c


def with_resets() -> Circuit:
    c = Circuit(3, 3)
    c.gate("ry", 0, params=(1.1,)).gate("cx", 0, 1)
    c.append(Instruction("reset", (0,)))
    c.gate("h", 0).gate("cx", 0, 2)
    c.append(Instruction("reset", (1,)))
    c.gate("ry", 1, params=(0.4,)).gate("cx", 2, 1)
    c.measure_all()
    return c


def clbit_rewrites() -> Circuit:
    """Each clbit's latest write wins, whichever writes split the shots."""
    c = Circuit(4, 3)
    c.gate("ry", 0, params=(0.9,)).gate("cx", 0, 1).gate("ry", 2, params=(1.3,))
    c.gate("h", 3)
    c.measure(0, 0)  # splits: rx on q0 follows; then overwritten by a deferred read
    c.gate("rx", 0, params=(0.5,))
    c.measure(1, 0)
    c.measure(2, 1)  # deferred, overwritten by another deferred read
    c.measure(0, 1)
    c.measure(2, 2)  # deferred, overwritten by a read that splits
    c.measure(3, 2)
    c.gate("h", 3)
    return c


CASES = {
    "deferred": deferred_measure,
    "gate-after-measure": gate_after_measure,
    "reset": with_resets,
    "clbit-rewrite": clbit_rewrites,
}


@pytest.mark.parametrize("backend", sorted(RUNNERS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_matches_branch_oracle(case, backend):
    c = CASES[case]()
    shots = 4000
    counts = RUNNERS[backend](c, shots, 17).counts
    assert sum(counts.values()) == shots
    assert chisquare_pvalue(counts, oracle_distribution(c), shots) > 1e-3


@pytest.mark.parametrize("backend", sorted(RUNNERS))
def test_fixed_seed_repeats_mid_circuit_counts(backend):
    c = with_resets()
    c.measure(2, 0)  # a clbit rewrite on top of the resets
    first = RUNNERS[backend](c, 700, 9).counts
    assert RUNNERS[backend](c, 700, 9).counts == first
    assert RUNNERS[backend](c, 700, 10).counts != first


def test_kernel_calls_do_not_grow_with_shots(monkeypatch):
    c = Circuit(2, 2)
    c.gate("h", 0).gate("cx", 0, 1)
    c.measure(0, 0)
    c.gate("h", 0)
    c.measure(0, 1)
    calls = []
    kernel = statevector.apply_instruction

    def counted(amps, n, inst):
        calls.append(inst.kind)
        kernel(amps, n, inst)

    monkeypatch.setattr(statevector, "apply_instruction", counted)
    per_run = []
    for shots in (100, 100_000):
        calls.clear()
        statevector.run(c, shots, 3)
        per_run.append(len(calls))
    # h folded into cx once, then h once on each of the two measurement branches
    assert per_run == [3, 3]


def test_terminal_circuit_never_copies(monkeypatch):
    def refuse(self):
        raise AssertionError("terminal circuits need no copy")

    monkeypatch.setattr(statevector.SvState, "copy", refuse)
    c = Circuit(3, 3)
    c.gate("h", 0).gate("cx", 0, 1).gate("cx", 1, 2)
    c.measure(0, 0)
    c.gate("ry", 2, params=(0.3,))  # gates on other qubits do not split
    c.measure(1, 1).measure(2, 2)
    assert sum(statevector.run(c, 500, 1).counts.values()) == 500
