"""Partitioned-block simulator.

Every qubit starts in its own single-qubit state vector.  Two-qubit gates
merge the owning blocks (tensor product, qubit list re-sorted, amplitudes
permuted), so a block always covers exactly the qubits that have actually
interacted.  A measurement that splits shots projects its block and factors
the qubit back out into a singleton, shrinking the live dimension; a
deferred one keeps its qubit in the block, so the shot engine defers a
feed-forward measurement only where ``PBlockState.price`` finds it cheaper
and its blocks stay within the qubit cap.  The
distributed variant places qubits on virtual QPUs via the partitioner and
realizes cross-QPU cx gates with a telegate gadget over per-link
communication qubit pairs; a gate whose control the shot engine knows to be
classical runs locally, with no gadget.

``PBlockState`` is the one state class: the shot engine (``polysim.engine``)
walks it, and with a distributed program it runs cross-vQPU gates as
gadgets.  ``max_block_dim`` in a run's metadata is the largest block the
first walk held after any engine op, gadget transients excluded.

A block holds at most ``statevector.QUBIT_CAP`` qubits, a gadget's
communication qubits included: a merge past the cap raises
``QubitCapError`` before it allocates anything.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import statevector
from .circuit import Circuit, Instruction
from .engine import run_shots
from .features import extract_features  # noqa: F401  (module attribute wrapped by perfbench)
from .partition import PartitionPlan, VqpuLayout, partition_circuit
from .result import BackendError, QubitCapError, RunResult, sample_measurement_groups


# ``PBlockState.price`` in units of what a walk spends per amplitude of an
# op's block.  Fitted end to end on runs with each split rule forced
# (teleport chains of 3-11 hops and fan-outs of 8-16 qubits, at 80 and 200
# shots; numpy 2.4, OpenBLAS 0.3.31, one thread), a walk took about 13-15 us
# per op run plus 3.6-4.8 ns per amplitude, so an op's overhead is worth
# about 3700 amplitudes, and a telegate gadget took about 80 us, some 6 such
# overheads.  A bare dense kernel's overhead (6.9 us) would leave out the
# engine's own work per op.
OP_COST = 3700
GADGET_COST = 6 * OP_COST


def reorder_qubits(state: np.ndarray, current: list[int], target: list[int]) -> np.ndarray:
    """Permute a local state vector from one qubit ordering to another.

    Orderings list global qubit indices with position 0 as the least
    significant bit of the local amplitude index.
    """
    m = len(current)
    pos_of = {q: p for p, q in enumerate(current)}
    perm = [m - 1 - pos_of[target[m - 1 - axis]] for axis in range(m)]
    return state.reshape([2] * m).transpose(perm).reshape(-1)


@dataclass
class Block:
    qubits: list[int]  # ascending global indices; position 0 is the local LSB
    state: np.ndarray

    @property
    def dim(self) -> int:
        return self.state.size


class PBlockState:
    """Blocks of qubits, as the shot engine walks them.

    The engine and the telegate gadget measure it one way: ``p1``, then
    ``project``.  With a distributed ``program``, gates across vQPUs run as
    telegate gadgets whose outcomes come from ``rng``; the corrections leave
    every outcome with the same state, so gadgets never split shots.
    Gadgets are logged in ``gadgets``, one list that copies share, so it
    holds every walk's gadgets.  A cross-vQPU gate controlled by a qubit of known value
    (a classically controlled gate) costs no Bell pair: the engine hands
    the state its one-qubit block instead (see ``polysim.engine``).  ``peak`` is the
    largest block among each applied gate's qubits; since a block grows only
    when a gate merges its own qubits, that is the largest block the state
    has held between engine ops.
    """

    def __init__(self, n: int, program: _DistProgram | None = None, rng=None, gadgets=None):
        self.n = n
        self.program = program
        self.rng = rng
        self.gadgets = gadgets
        self.peak = 2
        self.block_of: dict[int, Block] = {}
        for q in range(n):
            state = np.zeros(2, dtype=complex)
            state[0] = 1.0
            self.block_of[q] = Block([q], state)

    def price(self, inst, parts) -> float:
        """An op's static cost for the shot engine's rule choice.

        The op acts on one block: its qubits' components of ``parts`` (see
        ``polysim.engine.price``) joined.  It costs ``OP_COST`` plus the
        block's amplitudes.  A gate across vQPUs runs as telegate gadgets,
        each ``GADGET_COST`` plus the amplitudes of the block with the two
        comm qubits it adds.  A block past ``statevector.QUBIT_CAP`` qubits
        costs ``math.inf``.
        """
        members = parts.members(inst.qubits[0])
        size = len(members)
        gadgets = 0
        if len(inst.qubits) == 2:
            qa, qb = inst.qubits
            other = parts.members(qb)
            if other is not members:
                size += len(other)
            p = self.program
            if p is not None and p.vqpu_of[qa] != p.vqpu_of[qb]:
                gadgets = 3 if inst.kind == "swap" else 1
                size += 2
        if size > statevector.QUBIT_CAP:
            return math.inf
        if gadgets:
            return gadgets * (GADGET_COST + (1 << size))
        return OP_COST + (1 << size)

    def blocks(self) -> list[Block]:
        """Distinct blocks, ordered by their lowest qubit."""
        return list({id(b): b for b in self.block_of.values()}.values())

    def copy(self) -> "PBlockState":
        dup = PBlockState(0, self.program, self.rng, self.gadgets)
        dup.n, dup.peak = self.n, self.peak
        twins = {id(b): Block(list(b.qubits), b.state.copy()) for b in self.blocks()}
        dup.block_of = {q: twins[id(b)] for q, b in self.block_of.items()}
        return dup

    def _merge(self, a: Block, b: Block) -> Block:
        combined_order = a.qubits + b.qubits
        if len(combined_order) > statevector.QUBIT_CAP:
            raise QubitCapError(
                f"a block of {len(combined_order)} qubits exceeds the cap of "
                f"{statevector.QUBIT_CAP}"
            )
        state = np.multiply.outer(b.state, a.state).reshape(-1)
        target = sorted(combined_order)
        merged = Block(target, reorder_qubits(state, combined_order, target))
        for q in target:
            self.block_of[q] = merged
        return merged

    def apply(self, inst: Instruction) -> None:
        """Apply one engine op, as a gadget when it crosses vQPUs."""
        p = self.program
        if p is not None and len({p.vqpu_of[q] for q in inst.qubits}) == 2:
            _apply_distributed(self, inst)
        else:
            self.apply_local(inst)
        # a gate, gadget or not, leaves its qubits in one block
        self.peak = max(self.peak, self.block_of[inst.qubits[0]].dim)

    def apply_local(self, inst: Instruction) -> None:
        """Apply a gate inside the blocks, merging its qubits' blocks first."""
        if len(inst.qubits) == 1:
            block = self.block_of[inst.qubits[0]]
            local = Instruction(
                inst.kind, (block.qubits.index(inst.qubits[0]),), inst.params
            )
            statevector.apply_instruction(block.state, len(block.qubits), local)
            return
        qa, qb = inst.qubits
        block = self.block_of[qa]
        other = self.block_of[qb]
        if block is not other:
            block = self._merge(block, other)
        local = Instruction(
            inst.kind,
            (block.qubits.index(qa), block.qubits.index(qb)),
            inst.params,
        )
        statevector.apply_instruction(block.state, len(block.qubits), local)

    def p1(self, qubit: int) -> float:
        block = self.block_of[qubit]
        return statevector.prob_one(block.state, block.qubits.index(qubit))

    def project(self, qubit: int, bit: int) -> None:
        """Collapse a qubit onto |bit> and factor it out into a singleton."""
        block = self.block_of[qubit]
        pos = block.qubits.index(qubit)
        statevector.project(block.state, pos, bit)
        if len(block.qubits) > 1:
            kept = block.state.reshape(-1, 2, 1 << pos)[:, bit, :].reshape(-1)
            rest = Block([q for q in block.qubits if q != qubit], kept)
            for q in rest.qubits:
                self.block_of[q] = rest
        single = np.zeros(2, dtype=complex)
        single[bit] = 1.0
        self.block_of[qubit] = Block([qubit], single)

    def sample(self, qubits, count: int, rng: np.random.Generator) -> dict[str, int]:
        """Counts of ``qubits``, read in that order, from one draw per block."""
        wanted = set(qubits)
        groups = []
        for block in self.blocks():
            qs = tuple(q for q in block.qubits if q in wanted)
            if qs:
                locals_ = tuple(block.qubits.index(q) for q in qs)
                probs = statevector.marginal_probs(block.state, len(block.qubits), locals_)
                groups.append((qs, probs))
        groups.sort(key=lambda g: g[0][0])
        return sample_measurement_groups(groups, qubits, count, rng)


def run(c: Circuit, shots: int, seed: int) -> RunResult:
    """Block-partitioned execution without a vQPU layout.

    The shot engine (``polysim.engine``) walks the blocks once per distinct
    history of the mid-circuit measurements and resets.  A measurement that
    splits shots factors its qubit out of its block; a deferred one leaves
    the block whole until the terminal draw.
    """
    start = time.perf_counter()
    state = PBlockState(c.n_qubits, rng=np.random.default_rng(seed))
    return _run(state, c.instructions, shots, seed, start)


def _run(
    state: PBlockState, instructions, shots: int, seed: int, start: float, **metadata
) -> RunResult:
    """Walk ``state`` with the shot engine, drawing from its ``rng``, and report the run."""
    paths = []
    counts = run_shots(state, instructions, shots, state.rng, on_leaf=lambda leaf: paths.append(1))
    metadata = {"max_block_dim": state.peak, **metadata, "paths": len(paths)}
    return RunResult(counts, shots, "pblock", seed, time.perf_counter() - start, metadata)


# --- distributed execution ------------------------------------------------------


@dataclass
class _DistProgram:
    plan: PartitionPlan
    remapped: Circuit
    total_qubits: int
    vqpu_of: list[int]
    comm_pair: dict[tuple[int, int], tuple[int, int]]


def _build_program(c: Circuit, layout: VqpuLayout) -> _DistProgram:
    plan = partition_circuit(c, layout)
    perm = plan.permutation
    vqpu_of = [0] * c.n_qubits
    slot = 0
    for g, group in enumerate(plan.groups):
        for _ in group:
            vqpu_of[slot] = g
            slot += 1

    comm_pair: dict[tuple[int, int], tuple[int, int]] = {}
    base = c.n_qubits
    for link in plan.layout.links:
        comm_pair[link] = (base, base + 1)
        base += 2

    remapped = Circuit(c.n_qubits, c.n_clbits, name=f"{c.name}_remapped")
    for inst in c.instructions:
        qubits = tuple(perm[q] for q in inst.qubits)
        remapped.append(Instruction(inst.kind, qubits, inst.params, inst.clbit))
    return _DistProgram(plan, remapped, base, vqpu_of, comm_pair)


def _measure_comm(state: PBlockState, q: int, rng: np.random.Generator) -> int:
    """Measure comm qubit ``q`` (``p1``, one draw, ``project``), return it to |0>, give the bit."""
    bit = int(rng.random() < state.p1(q))
    state.project(q, bit)
    if bit:
        state.apply_local(Instruction("x", (q,)))
    return bit


def _gadget_cx(
    state: PBlockState,
    control: int,
    target: int,
    comm: tuple[int, int],
    rng: np.random.Generator,
    stats: list[dict] | None,
) -> None:
    """Teleported cx across a link, consuming one Bell pair on comm qubits.

    Each comm qubit leaves the gadget a singleton block in |0>, ready for
    the link's next gadget.
    """
    m_c, m_t = comm
    apply = state.apply_local
    apply(Instruction("h", (m_c,)))
    apply(Instruction("cx", (m_c, m_t)))
    apply(Instruction("cx", (control, m_c)))
    if _measure_comm(state, m_c, rng):
        apply(Instruction("x", (m_t,)))
    apply(Instruction("cx", (m_t, target)))
    apply(Instruction("h", (m_t,)))
    if _measure_comm(state, m_t, rng):
        apply(Instruction("z", (control,)))
    if stats is not None:
        after = state.block_of[target].dim
        stats.append({
            "block_dim_after": after,
            "retained_dim": after * 4,  # both comm qubits would stay entangled
        })


def _cross_pair(program: _DistProgram, qa: int, qb: int) -> tuple[int, int]:
    link = (
        min(program.vqpu_of[qa], program.vqpu_of[qb]),
        max(program.vqpu_of[qa], program.vqpu_of[qb]),
    )
    pair = program.comm_pair.get(link)
    if pair is None:
        raise BackendError(f"no link between vQPUs {link[0]} and {link[1]}")
    return pair


def _apply_distributed(state: PBlockState, inst: Instruction) -> None:
    program, rng, stats = state.program, state.rng, state.gadgets
    qa, qb = inst.qubits
    pair = _cross_pair(program, qa, qb)
    if inst.kind == "cx":
        _gadget_cx(state, qa, qb, pair, rng, stats)
    elif inst.kind == "cz":
        state.apply_local(Instruction("h", (qb,)))
        _gadget_cx(state, qa, qb, pair, rng, stats)
        state.apply_local(Instruction("h", (qb,)))
    elif inst.kind == "swap":
        _gadget_cx(state, qa, qb, pair, rng, stats)
        _gadget_cx(state, qb, qa, pair, rng, stats)
        _gadget_cx(state, qa, qb, pair, rng, stats)
    else:
        raise BackendError(f"unsupported two-qubit kind {inst.kind!r}")


def run_distributed(c: Circuit, layout: VqpuLayout, shots: int, seed: int) -> RunResult:
    """Execute across virtual QPUs after cut-minimizing qubit placement.

    The shot engine walks the remapped circuit as ``run`` does; gadget
    outcomes and the engine's splits and draws share one generator.  The
    ``gadgets`` metadata logs each gadget of every walk: one per Bell pair
    the run consumes.
    """
    start = time.perf_counter()
    program = _build_program(c, layout)
    state = PBlockState(program.total_qubits, program, np.random.default_rng(seed), gadgets=[])
    return _run(
        state, program.remapped.instructions, shots, seed, start,
        gadgets=state.gadgets,
        cut_weight=program.plan.cut_weight,
        permutation={str(k): v for k, v in program.plan.permutation.items()},
    )
