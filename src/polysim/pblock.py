"""Partitioned-block simulator.

Every qubit starts in its own single-qubit state vector.  Two-qubit gates
merge the owning blocks (tensor product, qubit list re-sorted, amplitudes
permuted), so a block always covers exactly the qubits that have actually
interacted.  A measurement that splits shots projects its block and factors
the qubit back out into a singleton, shrinking the live dimension.  The
distributed variant places qubits on virtual QPUs via the partitioner and
realizes cross-QPU cx gates with a telegate gadget over per-link
communication qubit pairs.  Shots are walked by ``polysim.engine``, through
``ShotState``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import statevector
from .circuit import Circuit, Instruction
from .engine import run_shots
from .features import extract_features  # noqa: F401  (module attribute wrapped by perfbench)
from .partition import PartitionPlan, VqpuLayout, partition_circuit
from .result import BackendError, RunResult, sample_measurement_groups


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
    def __init__(self, n: int):
        self.n = n
        self.block_of: dict[int, Block] = {}
        for q in range(n):
            state = np.zeros(2, dtype=complex)
            state[0] = 1.0
            self.block_of[q] = Block([q], state)

    def blocks(self) -> list[Block]:
        """Distinct blocks, ordered by their lowest qubit."""
        return list({id(b): b for b in self.block_of.values()}.values())

    def copy(self) -> "PBlockState":
        dup = PBlockState.__new__(PBlockState)
        dup.n = self.n
        twins = {id(b): Block(list(b.qubits), b.state.copy()) for b in self.blocks()}
        dup.block_of = {q: twins[id(b)] for q, b in self.block_of.items()}
        return dup

    def max_dim(self) -> int:
        return max(b.dim for b in self.blocks())

    def _merge(self, a: Block, b: Block) -> Block:
        combined_order = a.qubits + b.qubits
        state = np.multiply.outer(b.state, a.state).reshape(-1)
        target = sorted(combined_order)
        merged = Block(target, reorder_qubits(state, combined_order, target))
        for q in target:
            self.block_of[q] = merged
        return merged

    def apply(self, inst: Instruction) -> None:
        if inst.kind == "barrier":
            return
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

    def measure_and_factor(self, qubit: int, rng: np.random.Generator) -> int:
        bit = 1 if rng.random() < self.p1(qubit) else 0
        self.project(qubit, bit)
        return bit

    def reset(self, qubit: int, rng: np.random.Generator) -> None:
        if self.measure_and_factor(qubit, rng):
            self.set_basis(qubit, 0)

    def set_basis(self, qubit: int, bit: int) -> None:
        """Force a qubit known to sit in a singleton block to |bit>."""
        block = self.block_of[qubit]
        if len(block.qubits) != 1:
            raise BackendError("can only set basis state on a factored qubit")
        state = np.zeros(2, dtype=complex)
        state[bit] = 1.0
        block.state = state

    def contract(self) -> np.ndarray:
        """Global little-endian amplitudes (for validation at small n)."""
        order: list[int] = []
        vec = np.ones(1, dtype=complex)
        for block in self.blocks():
            vec = np.multiply.outer(block.state, vec).reshape(-1)
            order = order + block.qubits
        return reorder_qubits(vec, order, sorted(order))


def _measured_groups(state: PBlockState, measured: set[int]):
    groups = []
    for block in state.blocks():
        qs = tuple(q for q in block.qubits if q in measured)
        if not qs:
            continue
        locals_ = tuple(block.qubits.index(q) for q in qs)
        probs = statevector.marginal_probs(block.state, len(block.qubits), locals_)
        groups.append((qs, probs))
    groups.sort(key=lambda g: g[0][0])
    return groups


class ShotState:
    """A PBlockState as the shot engine walks it.

    With a distributed program, gates across vQPUs run as telegate gadgets
    whose outcomes come from ``rng``; the corrections leave every outcome
    with the same state, so gadgets never split shots.  The walk's first
    path records the largest block after each step in ``trace`` and the
    gadgets in ``gadgets``; copies record nothing.  A deferred measurement
    would keep its qubit in its block, so the shot engine keeps its base split
    rule here (see ``polysim.engine``).
    """

    defers_through_diagonals = False

    def __init__(self, blocks: PBlockState, program=None, rng=None, trace=None, gadgets=None):
        self.blocks = blocks
        self.program = program
        self.rng = rng
        self.trace = trace
        self.gadgets = gadgets

    def copy(self) -> "ShotState":
        return ShotState(self.blocks.copy(), self.program, self.rng)

    def apply(self, inst: Instruction) -> None:
        p = self.program
        if p is not None and len({p.vqpu_of[q] for q in inst.qubits}) == 2:
            _apply_distributed(p, self.blocks, inst, self.rng, self.gadgets)
        else:
            self.blocks.apply(inst)
        self._record()

    def p1(self, q: int) -> float:
        return self.blocks.p1(q)

    def project(self, q: int, bit: int) -> None:
        self.blocks.project(q, bit)
        self._record()

    def sample(self, measures, count: int, rng: np.random.Generator) -> dict[str, int]:
        groups = _measured_groups(self.blocks, {q for q, _ in measures})
        return sample_measurement_groups(groups, measures, count, rng)

    def _record(self) -> None:
        if self.trace is not None:
            self.trace.append(self.blocks.max_dim())


def run(c: Circuit, shots: int, seed: int) -> RunResult:
    """Block-partitioned execution without a vQPU layout.

    The shot engine (``polysim.engine``) walks the blocks once per distinct
    history of the mid-circuit measurements and resets.  A measurement that
    splits shots factors its qubit out of its block; a deferred one leaves
    the block whole until the terminal draw.
    """
    start = time.perf_counter()
    trace: list[int] = []
    paths = []
    state = ShotState(PBlockState(c.n_qubits), trace=trace)
    counts = run_shots(
        state, c.instructions, shots, np.random.default_rng(seed),
        on_leaf=lambda state: paths.append(1),
    )
    wall = time.perf_counter() - start
    return RunResult(
        counts=counts,
        shots=shots,
        backend="pblock",
        seed=seed,
        wall_time=wall,
        metadata={
            "max_block_dim": max(trace) if trace else 2,
            "block_dim_trace": trace,
            "paths": len(paths),
        },
    )


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


def _gadget_cx(
    state: PBlockState,
    control: int,
    target: int,
    comm: tuple[int, int],
    rng: np.random.Generator,
    stats: list[dict] | None,
) -> None:
    """Teleported cx across a link, consuming one Bell pair on comm qubits."""
    m_c, m_t = comm
    state.apply(Instruction("h", (m_c,)))
    state.apply(Instruction("cx", (m_c, m_t)))
    state.apply(Instruction("cx", (control, m_c)))
    if state.measure_and_factor(m_c, rng):
        state.apply(Instruction("x", (m_t,)))
    state.apply(Instruction("cx", (m_t, target)))
    state.apply(Instruction("h", (m_t,)))
    if state.measure_and_factor(m_t, rng):
        state.apply(Instruction("z", (control,)))
    state.set_basis(m_c, 0)
    state.set_basis(m_t, 0)
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


def _apply_distributed(
    program: _DistProgram,
    state: PBlockState,
    inst: Instruction,
    rng: np.random.Generator,
    stats: list[dict] | None,
) -> None:
    qa, qb = inst.qubits
    pair = _cross_pair(program, qa, qb)
    if inst.kind == "cx":
        _gadget_cx(state, qa, qb, pair, rng, stats)
    elif inst.kind == "cz":
        state.apply(Instruction("h", (qb,)))
        _gadget_cx(state, qa, qb, pair, rng, stats)
        state.apply(Instruction("h", (qb,)))
    elif inst.kind == "swap":
        _gadget_cx(state, qa, qb, pair, rng, stats)
        _gadget_cx(state, qb, qa, pair, rng, stats)
        _gadget_cx(state, qa, qb, pair, rng, stats)
    else:
        raise BackendError(f"unsupported two-qubit kind {inst.kind!r}")


def run_distributed(c: Circuit, layout: VqpuLayout, shots: int, seed: int) -> RunResult:
    """Execute across virtual QPUs after cut-minimizing qubit placement.

    The shot engine walks the remapped circuit as ``run`` does; gadget
    outcomes and the engine's splits and draws share one generator.
    """
    start = time.perf_counter()
    program = _build_program(c, layout)
    trace: list[int] = []
    gadget_stats: list[dict] = []
    rng = np.random.default_rng(seed)
    state = ShotState(PBlockState(program.total_qubits), program, rng, trace, gadget_stats)
    paths = []
    counts = run_shots(
        state, program.remapped.instructions, shots, rng, on_leaf=lambda state: paths.append(1)
    )
    wall = time.perf_counter() - start
    return RunResult(
        counts=counts,
        shots=shots,
        backend="pblock",
        seed=seed,
        wall_time=wall,
        metadata={
            "max_block_dim": max(trace) if trace else 2,
            "block_dim_trace": trace,
            "gadgets": gadget_stats,
            "cut_weight": program.plan.cut_weight,
            "permutation": {str(k): v for k, v in program.plan.permutation.items()},
            "paths": len(paths),
        },
    )
