import numpy as np
import pytest

from polysim import pblock, statevector, suite
from polysim.circuit import Circuit, Instruction
from polysim.partition import VqpuLayout
from polysim.pblock import PBlockState, reorder_qubits
from polysim.result import BackendError, QubitCapError

from conftest import (
    chisquare_pvalue,
    ghz,
    oracle_distribution,
    oracle_statevector,
    random_circuit,
    two_sample_chisquare_pvalue,
)
from oracles import contract, final_state, measure
from test_engine import teleport_chain


def test_reorder_qubits_hand_example():
    state = np.array([1, 2, 3, 4], dtype=complex)
    swapped = reorder_qubits(state, [3, 5], [5, 3])
    np.testing.assert_array_equal(swapped, [1, 3, 2, 4])


def test_one_q_gates_never_merge(rng):
    state = PBlockState(4)
    for _ in range(20):
        q = int(rng.integers(0, 4))
        state.apply(Instruction("ry", (q,), (float(rng.uniform(0, 3)),)))
    assert all(len(b.qubits) == 1 for b in state.blocks())
    assert state.peak == 2


def test_ghz_merges_into_single_block():
    state = PBlockState(4)
    for inst in ghz(4, measured=False).instructions:
        state.apply(inst)
    blocks = state.blocks()
    assert len(blocks) == 1
    assert blocks[0].qubits == [0, 1, 2, 3]


def test_contract_matches_statevector_on_random_circuits(rng):
    for _ in range(20):
        c = random_circuit(6, 25, rng, measured=False)
        state = PBlockState(6)
        for inst in c.instructions:
            state.apply(inst)
        np.testing.assert_allclose(contract(state), oracle_statevector(c), atol=1e-10)


def test_contract_matches_at_every_checkpoint(rng):
    for _ in range(5):
        c = random_circuit(5, 15, rng, measured=False)
        state = PBlockState(5)
        partial = Circuit(5, 0)
        for inst in c.instructions:
            state.apply(inst)
            partial.append(inst)
            np.testing.assert_allclose(
                contract(state), oracle_statevector(partial), atol=1e-9
            )
            covered = sorted(q for b in state.blocks() for q in b.qubits)
            assert covered == list(range(5))


def test_block_norms_stay_one(rng):
    c = random_circuit(6, 40, rng, measured=False)
    state = PBlockState(6)
    for inst in c.instructions:
        state.apply(inst)
        for b in state.blocks():
            assert abs(np.linalg.norm(b.state) - 1.0) < 1e-10


def test_measure_factors_qubit_out(rng):
    state = PBlockState(4)
    for inst in ghz(4, measured=False).instructions:
        state.apply(inst)
    bit = measure(state, 2, rng)
    rest = state.block_of[0]
    assert state.block_of[2].qubits == [2]
    assert rest.qubits == [0, 1, 3]
    expected = np.zeros(8, dtype=complex)
    expected[0b111 if bit else 0] = 1.0
    np.testing.assert_allclose(rest.state, expected, atol=1e-12)


def test_run_terminal_matches_exact_distribution(rng):
    for trial in range(3):
        c = random_circuit(6, 22, rng, measured=False)
        exact = np.abs(oracle_statevector(c)) ** 2
        c.measure_all()
        expected = {format(i, "06b"): p for i, p in enumerate(exact) if p > 0}
        shots = 40_000
        result = pblock.run(c, shots=shots, seed=600 + trial)
        assert result.backend == "pblock"
        assert chisquare_pvalue(result.counts, expected, shots) > 1e-3


def test_run_counts_bitwise_equal_to_sv_after_full_merge(rng):
    c = Circuit(10, 10)
    c.gate("h", 0)
    for q in range(9):
        c.gate("cx", q, q + 1)
    for inst in random_circuit(10, 30, rng, measured=False).instructions:
        c.append(inst)
    c.measure_all()
    shots = 5000
    mine = pblock.run(c, shots=shots, seed=42)
    reference = statevector.run(c, shots=shots, seed=42)
    assert mine.counts == reference.counts


def test_run_mid_circuit_matches_branch_oracle():
    c = Circuit(3, 2)
    c.gate("h", 0)
    c.measure(0, 0)
    c.gate("h", 0)
    c.gate("cx", 0, 1)
    c.gate("ry", 2, params=(1.1,))
    c.append(Instruction("reset", (1,)))
    c.measure(1, 1)
    c.measure(0, 0)
    expected = oracle_distribution(c)
    shots = 4096
    result = pblock.run(c, shots=shots, seed=7)
    assert chisquare_pvalue(result.counts, expected, shots) > 1e-3


def test_max_block_dim_tracks_interaction_components(rng):
    c = Circuit(8, 8)
    for q in range(8):
        c.gate("h", q)
    c.gate("cx", 0, 1)
    c.gate("cx", 2, 3)
    c.gate("cx", 1, 2)
    c.measure_all()
    result = pblock.run(c, shots=10, seed=0)
    assert result.metadata["max_block_dim"] == 16


def mid_circuit(rng: np.random.Generator) -> Circuit:
    """A random circuit with mid-circuit measures and resets, and clbit rewrites."""
    n = int(rng.integers(2, 7))
    c = Circuit(n, 3)
    for inst in random_circuit(n, int(rng.integers(4, 30)), rng, measured=False).instructions:
        roll = rng.random()
        q = int(rng.integers(n))
        if roll < 0.15:
            c.measure(q, int(rng.integers(3)))
        elif roll < 0.22:
            c.append(Instruction("reset", (q,)))
        c.append(inst)
    for q in range(n):
        c.measure(q, q % 3)
    return c


def test_max_block_dim_is_the_largest_block_of_the_first_walk(rng, monkeypatch):
    # Record the largest block after every op the engine applies or
    # projects on the first walk's state, and nothing from inside a gadget.
    walk: list = []  # the first walk's state
    record: list[int] = []
    in_apply: list = []
    apply, project = PBlockState.apply, PBlockState.project

    def note(state) -> None:
        if not walk:
            walk.append(state)
        if state is walk[0] and not in_apply:
            record.append(max(b.dim for b in state.blocks()))

    def recorded_apply(self, inst):
        in_apply.append(inst)
        apply(self, inst)
        in_apply.pop()
        note(self)

    def recorded_project(self, qubit, bit):
        project(self, qubit, bit)
        note(self)

    monkeypatch.setattr(PBlockState, "apply", recorded_apply)
    monkeypatch.setattr(PBlockState, "project", recorded_project)
    for trial in range(60):
        c = mid_circuit(rng)
        layout = VqpuLayout(2, (c.n_qubits + 1) // 2)
        for run in (lambda: pblock.run(c, 200, trial),
                    lambda: pblock.run_distributed(c, layout, 200, trial)):
            walk.clear()
            record.clear()
            assert run().metadata["max_block_dim"] == max(record, default=2)


def test_gadget_applies_exact_nonlocal_cx(rng):
    for trial in range(8):
        prep = random_circuit(4, 10, rng, measured=False)
        direct = PBlockState(6)
        teleported = PBlockState(6)
        for inst in prep.instructions:
            direct.apply(inst)
            teleported.apply(inst)
        direct.apply(Instruction("cx", (1, 3)))
        stats: list[dict] = []
        pblock._gadget_cx(
            teleported, 1, 3, (4, 5), np.random.default_rng(trial), stats
        )
        np.testing.assert_allclose(
            contract(teleported), contract(direct), atol=1e-10
        )
        assert teleported.block_of[4].qubits == [4]
        assert teleported.block_of[5].qubits == [5]
        np.testing.assert_array_equal(teleported.block_of[4].state, [1.0, 0.0])
        assert stats[0]["retained_dim"] == 4 * stats[0]["block_dim_after"]


def test_every_gadget_leaves_its_comm_qubits_alone_in_zero(rng, monkeypatch):
    # the link's next gadget starts from |00> on the comm pair, on every walk
    gadget = pblock._gadget_cx
    seen: list[tuple[int, int]] = []

    def checked(state, control, target, comm, gen, stats):
        gadget(state, control, target, comm, gen, stats)
        for q in comm:
            assert state.block_of[q].qubits == [q]
            np.testing.assert_array_equal(state.block_of[q].state, [1.0, 0.0])
        seen.append(comm)

    monkeypatch.setattr(pblock, "_gadget_cx", checked)
    circuits = [teleport_chain(4)] + [mid_circuit(rng) for _ in range(30)]
    circuits += [random_circuit(6, 30, rng) for _ in range(10)]
    for trial, c in enumerate(circuits):
        before = len(seen)
        layout = VqpuLayout(2, (c.n_qubits + 1) // 2)
        result = pblock.run_distributed(c, layout, 200, trial)
        assert len(result.metadata["gadgets"]) == len(seen) - before
        if trial == 0:
            assert result.metadata["paths"] > 1 and len(seen) > 0  # the teleport chain
    assert len(seen) > len(circuits)


def test_distributed_ghz_tracks_sampling_bound():
    from polysim.metrics import expected_sampling_fidelity, hellinger_fidelity

    shots = 10_000
    result = pblock.run_distributed(
        suite.ghz_circuit(12), VqpuLayout(3, 4), shots=shots, seed=13
    )
    exact = {"0" * 12: 0.5, "1" * 12: 0.5}
    measured = hellinger_fidelity(result.counts, exact)
    assert measured >= expected_sampling_fidelity(12, shots) - 0.02
    assert result.metadata["cut_weight"] == 2
    assert len(result.metadata["gadgets"]) == 2


def test_distributed_teleport_dimension_reduction():
    result = pblock.run_distributed(
        suite.ghz_circuit(4), VqpuLayout(2, 2), shots=50, seed=3
    )
    gadget = result.metadata["gadgets"][0]
    assert gadget["block_dim_after"] == 8
    assert gadget["retained_dim"] == 32
    # the local cx after the gadget joins all four qubits; gadget transients
    # with comm qubits are not counted
    assert result.metadata["max_block_dim"] == 16


def test_distributed_domain_wall_keeps_blocks_small():
    c = Circuit(8, 8, name="domain_wall_8")
    for q in range(4):
        c.gate("x", q)
    c.measure_all()
    result = pblock.run_distributed(c, VqpuLayout(2, 4), shots=200, seed=1)
    assert result.metadata["max_block_dim"] == 2
    assert result.counts == {"00001111": 200}


def test_distributed_single_vqpu_identical_to_sv(rng):
    c = Circuit(10, 10)
    c.gate("h", 0)
    for q in range(9):
        c.gate("cx", q, q + 1)
    for inst in random_circuit(10, 25, rng, measured=False).instructions:
        c.append(inst)
    c.measure_all()
    mine = pblock.run_distributed(c, VqpuLayout(1, 10), shots=3000, seed=77)
    reference = statevector.run(c, shots=3000, seed=77)
    assert mine.counts == reference.counts


def test_distributed_cross_cz_and_swap_match_monolithic(rng):
    c = Circuit(6, 6)
    for q in range(6):
        c.gate("ry", q, params=(float(rng.uniform(0.3, 2.8)),))
    c.gate("cx", 0, 1)
    c.gate("cx", 4, 5)
    c.gate("cz", 1, 4)
    c.gate("swap", 2, 5)
    c.gate("cx", 0, 5)
    c.measure_all()
    shots = 30_000
    dist = pblock.run_distributed(c, VqpuLayout(2, 3), shots=shots, seed=5)
    exact = np.abs(final_state(_unitary_only(c))) ** 2
    expected = {format(i, "06b"): p for i, p in enumerate(exact) if p > 1e-15}
    assert chisquare_pvalue(dist.counts, expected, shots) > 1e-3


def _unitary_only(c: Circuit) -> Circuit:
    out = Circuit(c.n_qubits, 0)
    for inst in c.instructions:
        if inst.is_unitary:
            out.append(inst)
    return out


def test_distributed_mid_circuit_measures_replay(rng):
    c = Circuit(4, 3)
    c.gate("h", 0)
    c.gate("cx", 0, 2)
    c.measure(2, 0)
    c.gate("h", 2)
    c.gate("cx", 2, 3)
    c.measure(3, 1)
    c.measure(0, 2)
    expected = oracle_distribution(c)
    shots = 4096
    result = pblock.run_distributed(c, VqpuLayout(2, 2), shots=shots, seed=15)
    assert chisquare_pvalue(result.counts, expected, shots) > 1e-3


def test_distributed_missing_link_rejected():
    layout = VqpuLayout(3, 2, links=((0, 1), (1, 2)))
    c = Circuit(6, 6)
    c.gate("h", 0)
    for q in range(5):
        c.gate("cx", q, q + 1)
    c.gate("cx", 0, 5)  # forces an interaction between the end groups
    c.measure_all()
    with pytest.raises(BackendError):
        pblock.run_distributed(c, layout, shots=10, seed=0)


def test_qubit_map_is_partition_after_every_instruction(rng):
    c = random_circuit(7, 40, rng, measured=False)
    c.measure_all()
    state = PBlockState(7)
    gen = np.random.default_rng(5)
    for inst in c.instructions:
        if inst.kind == "measure":
            measure(state, inst.qubits[0], gen)
        elif inst.is_unitary:
            state.apply(inst)
        covered = sorted(q for b in state.blocks() for q in b.qubits)
        assert covered == list(range(7))
        for b in state.blocks():
            assert all(state.block_of[q] is b for q in b.qubits)


def test_seventy_measured_qubits_have_no_clbit_cap():
    c = Circuit(70, 70)
    for q in range(70):
        c.gate("h", q)
    c.measure_all()
    result = pblock.run(c, shots=300, seed=2)
    assert sum(result.counts.values()) == 300
    assert all(len(key) == 70 for key in result.counts)
    assert len(result.counts) == 300  # 2^70 outcomes: every shot is distinct


def test_distributed_mid_circuit_reports_gadgets():
    c = Circuit(4, 3)
    c.gate("h", 0)
    c.gate("cx", 0, 2)  # crosses the two vQPUs
    c.measure(2, 0)
    c.gate("h", 2)
    c.gate("cx", 2, 3)
    c.gate("cx", 3, 1)  # crosses back
    c.measure(3, 1)
    c.measure(0, 2)
    result = pblock.run_distributed(c, VqpuLayout(2, 2), shots=400, seed=4)
    permutation = {int(k): v for k, v in result.metadata["permutation"].items()}
    vqpu = {q: permutation[q] // 2 for q in range(4)}
    # cx(0, 2) runs once, before the split at measure(2, 0); cx(2, 3) and
    # cx(3, 1) run once on each of the two walks after it
    before = int(vqpu[0] != vqpu[2])
    after = sum(1 for a, b in ((2, 3), (3, 1)) if vqpu[a] != vqpu[b])
    assert before + after > 0
    assert result.metadata["paths"] == 2
    assert len(result.metadata["gadgets"]) == before + 2 * after
    assert result.metadata["max_block_dim"] >= 4


def test_merge_past_the_qubit_cap_raises_before_allocating(monkeypatch):
    monkeypatch.setattr(statevector, "QUBIT_CAP", 4)
    assert pblock.run(suite.ghz_circuit(4), shots=20, seed=1).metadata["max_block_dim"] == 16
    with pytest.raises(QubitCapError, match="5 qubits exceeds the cap of 4"):
        pblock.run(suite.ghz_circuit(5), shots=20, seed=1)
    # a gadget's two comm qubits join the control's block: 3 + 2 > 4
    monkeypatch.setattr(statevector, "QUBIT_CAP", 3)
    assert pblock.run(suite.ghz_circuit(3), shots=20, seed=1).metadata["max_block_dim"] == 8
    with pytest.raises(QubitCapError, match="exceeds the cap of 3"):
        pblock.run_distributed(suite.ghz_circuit(4), VqpuLayout(2, 2), shots=20, seed=1)
