"""The shot engine shared by sv, mps and pblock: exact laws, seeding and cost."""
from collections import Counter

import numpy as np
import pytest
from conftest import chisquare_pvalue, oracle_distribution, random_circuit

from polysim import engine, mps, pblock, statevector
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


def diagonal_after_measure() -> Circuit:
    """After q0 is measured it only takes ops diagonal on it, then a dead reset."""
    c = Circuit(3, 3)
    c.gate("ry", 0, params=(1.1,)).gate("h", 1).gate("cx", 0, 1).gate("ry", 2, params=(0.6,))
    c.measure(0, 0)
    c.gate("rz", 0, params=(0.8,)).gate("s", 1)  # folded into the cz by the sv fusion
    c.gate("cz", 0, 1).gate("cx", 0, 2).gate("rz", 0, params=(-0.3,))
    c.append(Instruction("reset", (0,)))
    c.gate("h", 1).gate("h", 2)
    c.measure(1, 1).measure(2, 2)
    return c


def teleport_chain(hops: int) -> Circuit:
    """Teleport u|0> along fresh Bell pairs, correcting by cx and cz on the measured qubits.

    Every used pair is reset and never touched again.
    """
    n = 2 * hops + 1
    c = Circuit(n, n)
    c.gate("u", 0, params=(1.2, 0.4, -0.7))
    src = 0
    for h in range(hops):
        a, b = 2 * h + 1, 2 * h + 2
        c.gate("h", a).gate("cx", a, b).gate("cx", src, a).gate("h", src)
        c.measure(src, src).measure(a, a)
        c.gate("cx", a, b).gate("cz", src, b)
        c.append(Instruction("reset", (src,)))
        c.append(Instruction("reset", (a,)))
        src = b
    c.measure(src, src)
    return c


CASES = {
    "deferred": deferred_measure,
    "gate-after-measure": gate_after_measure,
    "reset": with_resets,
    "clbit-rewrite": clbit_rewrites,
    "diagonal-after-measure": diagonal_after_measure,
    "teleport": lambda: teleport_chain(1),
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


def count_kernels(monkeypatch) -> list:
    calls = []
    kernel = statevector.apply_instruction

    def counted(amps, n, inst):
        calls.append(inst.kind)
        kernel(amps, n, inst)

    monkeypatch.setattr(statevector, "apply_instruction", counted)
    return calls


def test_kernel_calls_do_not_grow_with_shots(monkeypatch):
    c = Circuit(2, 2)
    c.gate("h", 0).gate("cx", 0, 1)
    c.measure(0, 0)
    c.gate("h", 0)
    c.measure(0, 1)
    calls = count_kernels(monkeypatch)
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


def test_teleport_chain_on_sv_never_copies(monkeypatch):
    def refuse(self):
        raise AssertionError("corrections diagonal on the measured qubits need no copy")

    monkeypatch.setattr(statevector.SvState, "copy", refuse)
    c = teleport_chain(3)
    result = statevector.run(c, 500, 4)
    assert sum(result.counts.values()) == 500
    assert result.metadata["paths"] == 1


@pytest.mark.parametrize("backend", sorted(RUNNERS))
def test_reset_before_a_measure_of_its_qubit_is_kept(backend):
    c = Circuit(2, 3)
    c.gate("ry", 0, params=(1.1,)).gate("cx", 0, 1)
    c.measure(0, 0)  # must split: the reset below is read by the measure after it
    c.append(Instruction("reset", (0,)))
    c.measure(0, 1).measure(1, 2)
    counts = RUNNERS[backend](c, 2000, 8).counts
    assert all(key[1] == "0" for key in counts)  # q0 reads 0 after its reset
    assert all(key[0] == key[2] for key in counts)  # and read q1's value before it
    assert chisquare_pvalue(counts, oracle_distribution(c), 2000) > 1e-3


def test_measure_then_h_on_its_qubit_still_splits(monkeypatch):
    c = Circuit(2, 3)
    c.gate("h", 0).gate("cx", 0, 1)
    c.measure(0, 0)
    c.gate("cz", 0, 1)  # commutes with the measurement, but the h below does not
    c.gate("h", 0)
    c.measure(0, 1).measure(1, 2)
    calls = count_kernels(monkeypatch)
    result = statevector.run(c, 400, 2)
    assert result.metadata["paths"] == 2
    # h folded into the first cx; then on the q0 = 0 branch the cz is the
    # identity and only h runs, and on the q0 = 1 branch it is z on q1
    assert calls == ["fused", "h", "z", "h"]


def test_fused_product_diagonal_only_up_to_rounding_still_splits():
    c = Circuit(2, 2)
    c.gate("h", 0).gate("cx", 0, 1)
    c.measure(0, 0)
    # one fused 2x2 whose off-diagonal entries are ~1e-16, not zero
    c.gate("ry", 0, params=(0.3,)).gate("ry", 0, params=(0.4,)).gate("ry", 0, params=(-0.7,))
    c.measure(1, 1)
    result = statevector.run(c, 400, 2)
    assert result.metadata["paths"] == 2
    assert set(result.counts) == {"00", "11"}


def test_dead_reset_is_dropped_and_terminal_measures_stay_deferred(monkeypatch):
    c = Circuit(2, 2)
    c.gate("h", 0).gate("cx", 0, 1)
    c.measure(0, 0)
    c.append(Instruction("reset", (0,)))  # nothing reads q0 again
    c.measure(1, 1)
    result = statevector.run(c, 400, 2)
    assert result.metadata["paths"] == 1
    assert set(result.counts) == {"00", "11"}  # q0's clbit keeps its value before the reset


@pytest.mark.parametrize("backend", sorted(RUNNERS))
def test_dead_reset_is_dropped_on_every_backend(backend):
    c = Circuit(3, 3)
    c.gate("h", 0).gate("cx", 0, 1).gate("h", 2)
    c.measure(0, 0)
    c.append(Instruction("reset", (0,)))  # nothing touches q0 again: the measure defers
    c.measure(2, 2)
    c.append(Instruction("reset", (2,)))  # read by the measure below: q2 splits
    c.measure(1, 1).measure(2, 1)
    result = RUNNERS[backend](c, 400, 2)
    assert result.metadata["paths"] == 2
    assert set(result.counts) == {"000", "001", "100", "101"}  # clbit 1 reads q2 after its reset


@pytest.mark.parametrize("backend", sorted(RUNNERS))
def test_paths_count_walks(backend):
    ghz = Circuit(3, 3)
    ghz.gate("h", 0).gate("cx", 0, 1).gate("cx", 1, 2)
    ghz.measure_all()
    assert RUNNERS[backend](ghz, 80, 3).metadata["paths"] == 1
    paths = RUNNERS[backend](teleport_chain(3), 80, 3).metadata["paths"]
    if backend == "sv":
        assert paths == 1
    else:  # mps and pblock split at every one of the six fair measurements
        assert 1 < paths <= 80


def mid_circuit_ops(rng: np.random.Generator):
    """A random op list with mid-circuit measures and resets, and split flags.

    The flags are random over the measures and resets: the schedule's
    guarantees hold whatever the split rule chose.
    """
    n = int(rng.integers(2, 7))
    ops = []
    for inst in random_circuit(n, int(rng.integers(0, 40)), rng, measured=False).instructions:
        roll = rng.random()
        q = int(rng.integers(n))
        if roll < 0.15:
            ops.append(Instruction("measure", (q,), clbit=int(rng.integers(3))))
        elif roll < 0.22:
            ops.append(Instruction("reset", (q,)))
        ops.append(inst)
    ops += [Instruction("measure", (q,), clbit=q % 3) for q in range(n)]
    splits = [inst.kind in ("measure", "reset") and bool(rng.random() < 0.5) for inst in ops]
    return n, ops, splits


def test_schedule_is_a_topological_permutation(rng):
    for _ in range(300):
        n, ops, splits = mid_circuit_ops(rng)
        scheduled, flags = engine.schedule(ops, splits)
        position = {id(inst): k for k, inst in enumerate(ops)}
        order = [position[id(inst)] for inst in scheduled]
        assert sorted(order) == list(range(len(ops)))
        assert flags == [splits[k] for k in order]

        def subsequence(keep):
            return [k for k in order if keep(ops[k])] == [k for k in range(len(ops)) if keep(ops[k])]

        for q in range(n):
            assert subsequence(lambda inst: q in inst.qubits)
        for cl in range(3):
            assert subsequence(lambda inst: inst.kind == "measure" and inst.clbit == cl)
        split_ids = {id(inst) for inst, flag in zip(ops, splits) if flag}
        assert subsequence(lambda inst: id(inst) in split_ids)


def reference_schedule(ops, splits):
    """The schedule by its definition: explicit components and ancestor sets."""
    comp_of = {}  # qubit -> id of its component
    history = {}  # component id -> the ops in it so far
    fresh = iter(range(10**9))
    last_split = None
    ancestors = []
    for k, inst in enumerate(ops):
        comps = {comp_of.setdefault(q, next(fresh)) for q in inst.qubits}
        deps = {j for cid in comps for j in history.get(cid, [])}
        if inst.kind == "measure":
            deps |= {j for j in range(k) if ops[j].kind == "measure" and ops[j].clbit == inst.clbit}
        if splits[k] and last_split is not None:
            deps.add(last_split)
        ancestors.append(deps.union(*(ancestors[j] for j in deps)))
        merged = next(fresh)
        history[merged] = [j for cid in comps for j in history.pop(cid, [])] + [k]
        for q, cid in comp_of.items():
            if cid in comps:
                comp_of[q] = merged
        if splits[k]:
            last_split = k
            comp_of[inst.qubits[0]] = cid = next(fresh)  # leaves in a basis state
            history[cid] = [k]
    level = [sum(splits[j] for j in ancestors[k]) + splits[k] for k in range(len(ops))]
    order = sorted(range(len(ops)), key=lambda k: level[k])
    return [ops[k] for k in order], [splits[k] for k in order]


def test_schedule_matches_its_definition(rng):
    for _ in range(300):
        _, ops, splits = mid_circuit_ops(rng)
        assert engine.schedule(ops, splits) == reference_schedule(ops, splits)


@pytest.mark.parametrize("backend", sorted(RUNNERS))
def test_schedule_leaves_walks_unchanged(backend, monkeypatch):
    # Reordered kernels round differently, and a fair bit's p1 may then read
    # 0.5000000000000001, for which numpy's binomial mirrors its draw.  Both
    # runs see p1 rounded to 12 digits, so only the walk itself is compared.
    for state_class in (statevector.SvState, mps.MpsState, pblock.PBlockState):
        monkeypatch.setattr(state_class, "p1", lambda self, q, p1=state_class.p1: round(p1(self, q), 12))
    circuits = [CASES[case]() for case in sorted(CASES)] + [teleport_chain(4), with_resets()]
    scheduled = [RUNNERS[backend](c, 300, 5).metadata["paths"] for c in circuits]
    monkeypatch.setattr(engine, "schedule", lambda ops, splits: (ops, splits))
    program_order = [RUNNERS[backend](c, 300, 5).metadata["paths"] for c in circuits]
    assert scheduled == program_order
    assert max(program_order) > 1


@pytest.mark.parametrize("backend", ["mps", "pblock"])
def test_teleport_bell_pairs_are_prepared_once(backend, monkeypatch):
    c = teleport_chain(7)
    src, a, b = 12, 13, 14  # the last hop
    bell = [
        next(inst for inst in c.instructions if inst.kind == "cx" and inst.qubits == (2 * h + 1, 2 * h + 2))
        for h in range(7)
    ]
    hop = next(inst for inst in c.instructions if inst.qubits == (src, a))
    corrections = [inst for inst in c.instructions[c.instructions.index(hop):] if inst.kind in ("cx", "cz")][1:]
    assert [(inst.kind, inst.qubits) for inst in corrections] == [("cx", (a, b)), ("cz", (src, b))]
    state_class = mps.MpsState if backend == "mps" else pblock.PBlockState
    applied = Counter()
    projects = Counter()
    ones = []  # per history past the measure of a: whether src read 1
    apply, project, copy = state_class.apply, state_class.project, state_class.copy

    def counted(self, inst):
        applied[id(inst)] += 1
        applied[inst.kind, inst.qubits] += 1
        apply(self, inst)

    def traced_project(self, q, bit):
        projects[q] += 1
        if q == src:
            self.src_bit = bit
        elif q == a:
            ones.append(self.src_bit)
        project(self, q, bit)

    def traced_copy(self):
        dup = copy(self)
        dup.src_bit = getattr(self, "src_bit", None)
        return dup

    monkeypatch.setattr(state_class, "apply", counted)
    monkeypatch.setattr(state_class, "project", traced_project)
    monkeypatch.setattr(state_class, "copy", traced_copy)
    result = RUNNERS[backend](c, 200, 6)
    assert result.metadata["paths"] > 20
    assert [applied[id(inst)] for inst in bell] == [1] * 7
    # after the splits: once per history of the previous hop's measurements
    assert applied[id(hop)] == projects[a - 2] > 1
    # the corrections are classically controlled: only their Pauli blocks run
    assert [applied[id(inst)] for inst in corrections] == [0, 0]
    assert len(ones) == projects[a] and 0 < sum(ones) < len(ones)
    assert applied["z", (b,)] == sum(ones)


def test_schedule_keeps_pblock_blocks(monkeypatch):
    # the next hop's cx may not move ahead of the resets that factor the
    # measured qubits out of the block it joins
    c = teleport_chain(4)
    scheduled = pblock.run(c, 200, 3).metadata["max_block_dim"]
    monkeypatch.setattr(engine, "schedule", lambda ops, splits: (ops, splits))
    assert scheduled == pblock.run(c, 200, 3).metadata["max_block_dim"] == 8


def feed_forward_circuit(rng: np.random.Generator) -> Circuit:
    """Random gates, with measured qubits then controlling cx and cz corrections.

    After each correction the measured qubit may take a Z-diagonal gate, be
    measured again, be reset, or take an h, which ends its known value.
    """
    n = int(rng.integers(3, 5))
    c = Circuit(n, n + 2)
    for _ in range(int(rng.integers(2, 5))):
        for inst in random_circuit(n, int(rng.integers(2, 7)), rng, measured=False).instructions:
            c.append(inst)
        q = int(rng.integers(n))
        c.measure(q, int(rng.integers(n + 2)))
        for _ in range(int(rng.integers(1, 3))):
            r = int(rng.choice([p for p in range(n) if p != q]))
            pair = [(q, r), (q, r), (r, q)][int(rng.integers(3))]
            c.gate("cx" if pair[0] == q and rng.random() < 0.5 else "cz", *pair)
            if rng.random() < 0.3:
                kind = str(rng.choice(["z", "s", "t", "rz"]))
                c.gate(kind, q, params=(float(rng.uniform(0, 6)),) if kind == "rz" else ())
        roll = rng.random()
        if roll < 0.3:
            c.measure(q, int(rng.integers(n + 2)))
        elif roll < 0.6:
            c.append(Instruction("reset", (q,)))
        elif roll < 0.8:
            c.gate("h", q)
    for q in range(n):
        c.measure(q, q)
    return c


def test_feed_forward_from_known_qubits_runs_as_one_qubit_gates(rng, monkeypatch):
    """No two-qubit gate whose control the walk knows reaches a state."""
    late = []  # two-qubit gates that reached a state with a known control
    reductions = []
    real_reduce = engine._reduce

    def counting_reduce(inst, rule, known):
        out = real_reduce(inst, rule, known)
        if out is not inst:
            reductions.append(inst)
        return out

    def track(state_class):
        apply, project, copy = state_class.apply, state_class.project, state_class.copy

        def tracked_apply(self, inst):
            known = self.__dict__.setdefault("known_bits", {})
            for pos, q in enumerate(inst.qubits):
                if len(inst.qubits) == 2 and q in known and engine._commutes_with_z(inst, pos):
                    late.append(inst)
            for pos, q in enumerate(inst.qubits):
                if not engine._commutes_with_z(inst, pos):
                    known.pop(q, None)
            apply(self, inst)

        def tracked_project(self, q, bit):
            self.__dict__.setdefault("known_bits", {})[q] = bit
            project(self, q, bit)

        def tracked_copy(self):
            dup = copy(self)
            dup.known_bits = dict(self.__dict__.get("known_bits", {}))
            return dup

        monkeypatch.setattr(state_class, "apply", tracked_apply)
        monkeypatch.setattr(state_class, "project", tracked_project)
        monkeypatch.setattr(state_class, "copy", tracked_copy)

    for state_class in (statevector.SvState, mps.MpsState, pblock.PBlockState):
        track(state_class)
    monkeypatch.setattr(engine, "_reduce", counting_reduce)
    shots = 3000
    reduced = Counter()
    for trial in range(10):
        c = feed_forward_circuit(rng)
        law = oracle_distribution(c)
        for name in sorted(RUNNERS):
            before = len(reductions)
            counts = RUNNERS[name](c, shots, 100 + trial).counts
            assert chisquare_pvalue(counts, law, shots) > 1e-3, (trial, name)
            assert late == [], (trial, name)
            reduced[name] += len(reductions) - before
    assert all(reduced[name] > 0 for name in RUNNERS), reduced


def test_distributed_teleport_runs_gadgets_for_quantum_controlled_gates_only(monkeypatch):
    c = teleport_chain(4)
    layout = VqpuLayout(2, (c.n_qubits + 1) // 2)
    program = pblock._build_program(c, layout)
    remapped = program.remapped.instructions

    def crosses(inst):
        return len({program.vqpu_of[q] for q in inst.qubits}) == 2

    # a correction is a cx or cz whose first qubit was measured before it
    measured, classical = set(), set()
    for k, inst in enumerate(c.instructions):
        if inst.kind == "measure":
            measured.add(inst.qubits[0])
        elif inst.kind in ("cx", "cz") and inst.qubits[0] in measured:
            classical.add(k)
    quantum = [k for k, inst in enumerate(remapped) if len(inst.qubits) == 2 and k not in classical]
    assert any(crosses(remapped[k]) for k in classical)  # the layout cuts a correction
    # one shot walks once: one gadget per crossing quantum-controlled gate
    once = pblock.run_distributed(c, layout, 1, 5)
    assert len(once.metadata["gadgets"]) == sum(crosses(remapped[k]) for k in quantum) > 0

    # every walk: the gadgets, each logged in the metadata, match the
    # crossing gates that reach the state, and no correction reaches it
    applied, gadgets = [], []
    apply, gadget = pblock.PBlockState.apply, pblock._gadget_cx

    def counted(self, inst):
        applied.append(inst)
        apply(self, inst)

    def counted_gadget(*args):
        gadgets.append(args[1:3])
        gadget(*args)

    monkeypatch.setattr(pblock.PBlockState, "apply", counted)
    monkeypatch.setattr(pblock, "_gadget_cx", counted_gadget)
    result = pblock.run_distributed(c, layout, 300, 5)
    assert result.metadata["paths"] > 1
    ids = Counter(id(inst) for inst in applied)
    assert [ids[id(remapped[k])] for k in sorted(classical)] == [0] * len(classical)
    assert gadgets == [inst.qubits for inst in applied if crosses(inst)]
    assert len(result.metadata["gadgets"]) == len(gadgets) > len(once.metadata["gadgets"])
