"""The shot engine shared by the sv, mps and pblock backends.

Shots travel through the circuit as a count, not one by one.  At a reset,
and at a measurement that must be made where it stands, the engine draws how
many of the count read 1, ``c1 ~ Binomial(count, p1)``, and splits the walk.
The state is copied only when both outcomes keep shots; the walk goes on
with the smaller child and stacks the larger one, so at most ~log2(shots)
states wait.  Every other measurement is deferred: at the end of each path,
each clbit whose latest write in program order is deferred is drawn from
that path's state through ``sample``, from the qubit that write reads.  The
engine alone resolves which write wins.  The cost is one walk per
distinct history of the splitting measurements and resets, capped by the
shot count; a circuit that measures only at the end walks once and draws
every shot from one state.

Which measurements split.  A Z measurement may be deferred past any op that
commutes with Z on its qubit (the deferred-measurement principle, Nielsen
and Chuang section 4.4), since the op then leaves that qubit's outcome law
and its correlations unchanged.  For every state, a reset whose qubit no
later gate, measurement or reset touches changes no clbit and is dropped
first (a dead reset), which may let the measurements before it defer.
Every other reset splits.  Two rules decide which measurements split:

* The base rule: a measurement splits when a later gate or reset touches
  its qubit at all.
* The diagonal rule: a measurement splits only when a later op on its
  qubit fails to commute with Z there.  Later measurements commute, and so
  does a gate whose matrix is block-diagonal in the qubit's bit: a
  Z-diagonal one-qubit gate, the control of ``cx``, either qubit of ``cz``,
  or a fused product of such factors.  Zeros are tested exactly, so a fused
  product that is diagonal only up to rounding still splits.  Feed-forward
  corrections (a measured qubit used afterwards only as a control) then walk
  once.

The diagonal rule never splits more, but a deferred qubit stays entangled
with the rest until the end of the path: on an MPS it keeps its bonds, and
in a block state its block, where splitting would have factored it out.
So the rule is chosen per circuit, and only when the base rule finds a
split (a terminal-only circuit pays nothing for the choice).  When both
rules split the same ops nothing is chosen.  A state whose ops cost the
same under either rule (the dense state vector) has no ``price`` and takes
the diagonal rule.  Otherwise ``price`` walks each rule's scheduled ops
once, without amplitudes, keeping the components that the walk's state
will be a product over and which qubits are known (below).  Each op costs
its walk bound ``min(shots, 2**s)``, after ``s`` splits, times what the
state's ``price`` gives for it: an overhead plus a term that grows with
its component, a pblock block's amplitudes or an MPS bond's Schmidt-rank
bound squared.  An op whose block passes ``statevector.QUBIT_CAP`` qubits,
or whose bond bound passes ``chi_max``, costs ``math.inf``.  The diagonal
rule is taken when its cost is finite and lower, so a deferred MPS run
never truncates and a deferred block never passes the qubit cap.

Known basis values.  A split leaves its qubit in a basis state on each
walk: the measured bit, or 0 after a reset.  The walk keeps these values in
``known`` until an op that fails to commute with Z on the qubit (the same
exact-zero test) ends them; an op that commutes keeps the qubit in its basis
state.  A gate controlled by a classical bit needs no entanglement (Eisert
et al., PRA 62, 052317, 2000), and this is the reverse of deferral: while a
qubit is known, a two-qubit gate that is block-diagonal in its bit runs as
its 2x2 block on the other qubit, so a ``cx`` or ``cz`` correction becomes
``x`` or ``z``, or nothing where the block is the identity.  No MPS swap
chain, pblock block merge or telegate gadget is made for it.  A splitting
measurement of a known qubit records its value, and a splitting reset of
one is ``x`` or nothing, with no probability, draw or projection.  An op's
rule is worked out when it first meets a known qubit, so a walk that knows
nothing does no work for them.

The schedule.  Once the split flags are known, and only when some op
splits, the ops are stably reordered so that each runs after as few
splitting ops as its dependencies allow (``schedule``).  Ops that no
measurement outcome affects, such as the Bell-pair preparations of a
teleportation chain, then run once on the shared state before the first
split instead of once per walk; an op that depends on the first k splits
runs once per history of those k.  Each qubit's ops, each clbit's writes
and the splitting ops keep their order, so the split flags, the deferred
measurements and the engine's draws are those of program order, up to
rounding: a reordered kernel can move a probability by an ulp, and at
p1 = 1/2 that flips numpy's binomial draw.  (Draws a state makes inside
``apply``, as pblock's telegate gadgets do, move with their ops.)  An op
also waits for a split on any qubit its qubits have interacted with since
that qubit's last split (their component), so no gate moves ahead of a
collapse that would have cut its qubits' entanglement, and pblock's blocks
grow exactly as in program order.  Terminal-only circuits never reach the
schedule.

A backend hands the engine a state object with

* ``price(inst, parts)``: the static cost of one run of an op, given
  ``parts``, the components before it (see ``price``), and ``math.inf``
  where the op would pass the state's cap; or None for a state whose ops
  cost the same under either split rule (above);
* ``copy()``: an independent copy;
* ``apply(inst)``: apply one gate, which may be a one-qubit op the engine
  put in place of a two-qubit gate with a known qubit (above); barriers
  never reach it;
* ``p1(q)``: the probability that qubit ``q`` reads 1;
* ``project(q, bit)``: collapse qubit ``q`` onto ``|bit>`` and renormalise;
  the engine then takes ``q`` as known, so ``p1`` and ``project`` are never
  called on a qubit of known value;
* ``sample(qubits, count, rng)``: ``count`` joint draws of the given
  qubits, as counts keyed by bitstrings whose i-th character is the outcome
  of ``qubits[i]``.  The engine passes one qubit per drawn clbit, in key
  order (lowest clbit rightmost), so a qubit may appear more than once.
  It is the last call on its state, so it may consume the state.

Gates reach the engine as ``Instruction``s or as fused ops: named tuples
with ``kind == "fused"``, their ``qubits`` and a ``matrix`` (first qubit the
low bit of the local index, as in ``polysim.gates``).  A fused op's 2x2
block is made with its ``_replace``.

One generator drives the whole walk in a fixed depth-first order, so counts
depend only on the circuit, the shot count and the seed.
"""
from __future__ import annotations

import math

import numpy as np

from . import gates
from .circuit import ONE_QUBIT_GATES, TWO_QUBIT_GATES, Instruction
from .result import NoMeasurementsError


def run_shots(
    state, instructions, shots: int, rng: np.random.Generator, on_leaf=None
) -> dict[str, int]:
    """Counts of ``shots`` runs of ``instructions`` from ``state``.

    ``state`` itself walks the first path, and its ``sample`` is the last
    call on it.  When
    given, ``on_leaf(state)`` is called with the state at the end of every
    path before its deferred measurements are drawn, so it is called once
    per walk.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    ops, splits = _split_rule([inst for inst in instructions if inst.kind != "barrier"], diagonal=False)
    if not any(inst.kind == "measure" for inst in ops):
        raise NoMeasurementsError("circuit has no measurements")
    rules: dict[int, tuple] = {}  # id of an op -> its _rule, worked out on first use
    if True in splits:
        ops, splits = _plan(state, ops, splits, shots, rules)
    # a schedule keeps each clbit's writes in order, so its last write is the same op
    last_write = {inst.clbit: k for k, inst in enumerate(ops) if inst.kind == "measure"}
    clbits = sorted(last_write, reverse=True)  # key order, lowest clbit rightmost
    drawn_clbits = {cl for cl in clbits if not splits[last_write[cl]]}
    qubits = [ops[last_write[cl]].qubits[0] for cl in clbits if cl in drawn_clbits]

    counts: dict[str, int] = {}
    stack = [(state, 0, shots, {}, {})]
    while stack:
        state, k, count, fixed, known = stack.pop()
        while k < len(ops):
            inst = ops[k]
            k += 1
            if not splits[k - 1]:
                if inst.kind == "measure":
                    continue
                if known and not known.keys().isdisjoint(inst.qubits):
                    rule = rules.get(id(inst))
                    if rule is None:
                        rule = rules[id(inst)] = _rule(inst)
                    inst = _reduce(inst, rule, known)
                    if inst is None:
                        continue
                state.apply(inst)
                continue
            q = inst.qubits[0]
            if q in known:  # a basis value: nothing to draw or project
                if inst.kind == "measure":
                    fixed[inst.clbit] = known[q]
                elif known[q]:
                    state.apply(Instruction("x", (q,)))
                    known[q] = 0
                continue
            c1 = int(rng.binomial(count, min(max(state.p1(q), 0.0), 1.0)))
            c0 = count - c1
            bit = 1 if c0 == 0 or 0 < c1 < c0 else 0
            if c0 and c1:
                other = state.copy()
                other_fixed, other_known = dict(fixed), dict(known)
                _collapse(other, other_fixed, other_known, inst, 1 - bit)
                stack.append((other, k, c0 if bit else c1, other_fixed, other_known))
                count = c1 if bit else c0
            _collapse(state, fixed, known, inst, bit)
        if on_leaf is not None:
            on_leaf(state)
        drawn = state.sample(qubits, count, rng) if qubits else {"": count}
        if len(drawn_clbits) < len(clbits):
            drawn = {_merge(sub, fixed, clbits, drawn_clbits): n for sub, n in drawn.items()}
        if not counts:
            counts = drawn
            continue
        for key, n in drawn.items():
            counts[key] = counts.get(key, 0) + n
    return counts


def schedule(ops: list, splits: list[bool]) -> tuple[list, list[bool]]:
    """The ops in a stable order that runs each op after as few splits as it can.

    Qubits form components: a two-qubit op joins its qubits' components,
    and a splitting measurement or reset leaves its qubit in a basis state,
    so the qubit starts a component of its own.  An op depends on every
    earlier op in a component of one of its qubits, a measurement also on
    earlier measurements of its clbit, and a splitting op also on the
    splitting op before it.  Each op's level counts the splitting ops among
    it and everything it depends on, found in one forward pass, and the ops
    are stably sorted by level.

    An op depends on nothing of a higher level, so this is a topological
    order: each qubit's ops, each clbit's writes and the splitting ops keep
    their order.  Ops that no history affects run once, before the first
    split.  Returns the reordered ops and their split flags.
    """
    node: dict[int, int] = {}  # qubit -> its node in the union-find forest
    parent: list[int] = []
    level: list[int] = []  # at each root: the highest level in its component

    def root(q: int) -> int:
        r = node.get(q)
        if r is None:
            r = node[q] = len(parent)
            parent.append(r)
            level.append(0)
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        return r

    clbit_level: dict[int, int] = {}
    buckets: list[list[int]] = [[]]
    for k, inst in enumerate(ops):
        first, *rest = inst.qubits
        joined = root(first)
        for q in rest:
            r = root(q)
            if r != joined:
                parent[r] = joined
                level[joined] = max(level[joined], level[r])
        if splits[k]:
            lev = len(buckets)
            buckets.append([])
            # the split qubit leaves in a basis state: a component of its own
            node[first] = len(parent)
            parent.append(len(parent))
            level.append(lev)
        else:
            lev = level[joined]
        if inst.kind == "measure":
            lev = max(lev, clbit_level.get(inst.clbit, 0))
            clbit_level[inst.clbit] = lev
        level[joined] = lev
        buckets[lev].append(k)
    order = [k for bucket in buckets for k in bucket]
    return [ops[k] for k in order], [splits[k] for k in order]


def _plan(state, ops: list, splits: list[bool], shots: int, rules: dict) -> tuple[list, list[bool]]:
    """The scheduled ops and split flags of the split rule the walk takes.

    ``splits`` are the base rule's.  The diagonal rule is taken when the
    state has no ``price``, or when its price is finite and lower.  Where
    both rules split the same ops, neither is priced.
    """
    diagonal = _split_rule(ops, diagonal=True)[1]  # drops nothing more: same positions
    if diagonal == splits:
        return schedule(ops, splits)
    deferred = schedule(ops, diagonal) if True in diagonal else (ops, diagonal)
    if state.price is None:
        return deferred
    cost = price(state, *deferred, shots, rules)
    base = schedule(ops, splits)
    if cost < math.inf and cost < price(state, *base, shots, rules, limit=cost):
        return deferred
    return base


def price(
    state, ops: list, splits: list[bool], shots: int, rules: dict | None = None, limit: float = math.inf
) -> float:
    """The static price of walking scheduled ops.

    One forward pass keeps, without amplitudes, what the walk will see:
    the components (qubits that have interacted since their last split;
    a gate reduced on a known qubit joins nothing), which qubits are known,
    and how many splits of an unknown qubit came before.  An op after ``s``
    such splits runs on at most ``min(shots, 2**s)`` walks, and each run
    costs what ``state.price`` gives for it.  Where a reduced gate's release
    depends on the known bit, the pass releases for either bit, so its
    components never fall below the walk's.  Deferred measurements cost
    nothing here, and neither do the copies and terminal draws, which grow
    with the walks, so the estimate leans toward the base rule.  The pass
    stops once the cost reaches ``limit``, and so at the first op that
    passes the state's cap.

    These components are not ``schedule``'s: there a gate reduced on a
    known qubit still joins, since the ops after it on its other qubit
    depend on the split that made the bit known.
    """
    rules = {} if rules is None else rules
    parts = _Parts()
    known: set[int] = set()
    walks = 1
    cost = 0.0
    for inst, split in zip(ops, splits):
        if split:
            q = inst.qubits[0]
            if q in known:  # a recorded bit or an x: no draw, no projection
                continue
            walks = min(shots, 2 * walks)
            op_cost = state.price(inst, parts)
            parts.isolate(q)
            known.add(q)
        elif inst.kind == "measure":
            continue
        else:
            if known and not known.isdisjoint(inst.qubits):
                rule = rules.get(id(inst))
                if rule is None:
                    rule = rules[id(inst)] = _rule(inst)
                inst = _reduce_static(inst, rule, known)
                if inst is None:
                    continue
            op_cost = state.price(inst, parts)
            if len(inst.qubits) == 2:
                parts.join(*inst.qubits)
        cost += walks * op_cost
        if cost >= limit:
            break
    return cost


class _Parts:
    """The components of ``price``'s pass, each a list of qubits that its members share."""

    __slots__ = ("of", "multi")

    def __init__(self) -> None:
        self.of: dict[int, list[int]] = {}
        self.multi: dict[int, list[int]] = {}  # id -> each component of two qubits or more

    def members(self, q: int) -> list[int]:
        m = self.of.get(q)
        if m is None:
            m = self.of[q] = [q]
        return m

    def join(self, a: int, b: int) -> None:
        big, small = self.members(a), self.members(b)
        if big is small:
            return
        if len(big) < len(small):
            big, small = small, big
        big.extend(small)
        for q in small:
            self.of[q] = big
        self.multi.pop(id(small), None)
        self.multi[id(big)] = big

    def isolate(self, q: int) -> None:
        m = self.members(q)
        if len(m) > 1:
            m.remove(q)
            if len(m) == 1:
                del self.multi[id(m)]
            self.of[q] = [q]


def _reduce_static(inst, rule: tuple, known: set[int]):
    """``_reduce`` for any known bit: the op for bit 1 (else bit 0), releasing for both."""
    release, blocks = rule
    for q, by_bit in blocks:
        if q in known:
            (op0, release0), (op1, release1) = by_bit
            inst, release = (op1 if op1 is not None else op0), release0 + release1
            break
    known.difference_update(release)
    return inst


def _split_rule(ops: list, diagonal: bool) -> tuple[list, list[bool]]:
    """The ops without dead resets, and which of them split.

    A reset is dead when no later op touches its qubit.  Each measurement
    splits when a later kept gate or reset acts on its qubit (the base
    rule) or, with ``diagonal``, only when one fails to commute with Z there
    (the diagonal rule).  Every kept reset splits.
    """
    kept: list = []
    splits: list[bool] = []
    touched: set[int] = set()  # qubits a later kept gate or reset acts on
    read: set[int] = set()  # qubits a later measurement reads
    blocked = set() if diagonal else touched  # qubits a later measurement may not defer past
    for inst in reversed(ops):
        kind = inst.kind
        if kind == "measure":
            q = inst.qubits[0]
            splits.append(q in blocked)
            read.add(q)
        elif kind == "reset":
            q = inst.qubits[0]
            if q not in touched and q not in read:
                continue
            splits.append(True)
            touched.add(q)
            blocked.add(q)
        else:
            splits.append(False)
            touched.update(inst.qubits)
            if diagonal:
                for pos, q in enumerate(inst.qubits):
                    if q not in blocked and not _commutes_with_z(inst, pos):
                        blocked.add(q)
        kept.append(inst)
    kept.reverse()
    splits.reverse()
    return kept, splits


def _rule(inst) -> tuple[tuple[int, ...], tuple]:
    """How a gate acts on qubits of known basis value: ``(release, blocks)``.

    ``release`` lists the qubits the gate fails to commute with Z on, which
    lose their known value.  ``blocks`` has, for each qubit ``q`` of a
    two-qubit gate that commutes with Z on it, ``(q, (if_0, if_1))``: while
    ``q`` holds that bit, the gate is ``(op, release)`` instead, where
    ``op`` is its 2x2 block on the other qubit, or None for the identity.
    """
    commutes = [_commutes_with_z(inst, pos) for pos in range(len(inst.qubits))]
    release = tuple(q for q, c in zip(inst.qubits, commutes) if not c)
    blocks = []
    if len(inst.qubits) == 2:
        for pos, q in enumerate(inst.qubits):
            if commutes[pos]:
                ops = [_block(inst, pos, bit) for bit in (0, 1)]
                blocks.append((q, tuple((op, () if op is None else _rule(op)[0]) for op in ops)))
    return release, tuple(blocks)


def _reduce(inst, rule: tuple, known: dict[int, int]):
    """The op that runs in place of ``inst``, or None; ``known`` loses what it releases."""
    release, blocks = rule
    for q, by_bit in blocks:
        bit = known.get(q)
        if bit is not None:
            inst, release = by_bit[bit]
            break
    for q in release:
        known.pop(q, None)
    return inst


def _block(inst, pos: int, bit: int):
    """The op a two-qubit gate is on its other qubit while qubit ``pos`` holds ``bit``.

    The gate must be block-diagonal in that bit.  Returns None for the
    identity, a one-qubit fused op for a fused gate, and otherwise the
    ``Instruction`` that ``cx`` or ``cz`` reduces to.
    """
    other = (inst.qubits[1 - pos],)
    if inst.kind != "fused":
        kind = _FIXED_BLOCKS[inst.kind, pos, bit]
        return None if kind is None else Instruction(kind, other)
    block = _block_matrix(inst.matrix, pos, bit)
    return None if (block == _EYE).all() else inst._replace(qubits=other, matrix=block)


def _block_matrix(m: np.ndarray, pos: int, bit: int) -> np.ndarray:
    """The 2x2 block of a 4x4 ``m`` whose rows and columns have ``bit`` at local qubit ``pos``."""
    rows = [i for i in range(4) if i >> pos & 1 == bit]
    return m[np.ix_(rows, rows)]


def _off_block(dim: int, pos: int) -> np.ndarray:
    """Entries of a ``dim`` x ``dim`` matrix that flip local qubit ``pos``."""
    idx = np.arange(dim)
    return ((idx[:, None] ^ idx[None, :]) >> pos & 1).astype(bool)


_OFF_BLOCK = {(dim, pos): _off_block(dim, pos) for dim, k in ((2, 1), (4, 2)) for pos in range(k)}
_EYE = np.eye(2)

# The fixed two-qubit gates, worked out once: which of their qubits they
# commute with Z on, and at each such qubit and bit the one-qubit gate they
# reduce to (None for the identity).
_FIXED_COMMUTES = {
    (kind, pos): not gates.two_qubit_matrix(kind)[_OFF_BLOCK[4, pos]].any()
    for kind in TWO_QUBIT_GATES for pos in (0, 1)
}
_NAMED = {gates.single_qubit_entries(kind): kind for kind in ("x", "z")}
_NAMED[tuple(_EYE.astype(complex).ravel().tolist())] = None
_FIXED_BLOCKS = {
    (kind, pos, bit): _NAMED[tuple(_block_matrix(gates.two_qubit_matrix(kind), pos, bit).ravel().tolist())]
    for (kind, pos), commutes in _FIXED_COMMUTES.items() if commutes for bit in (0, 1)
}


def _commutes_with_z(inst, pos: int) -> bool:
    """Whether a gate is block-diagonal in the bit of its ``pos``-th qubit, on exact zeros."""
    kind = inst.kind
    if kind in ONE_QUBIT_GATES:
        m = gates.single_qubit_entries(kind, inst.params)
        return m[1] == 0 and m[2] == 0
    if kind == "fused":
        m = inst.matrix
        return not m[_OFF_BLOCK[len(m), pos]].any()
    return _FIXED_COMMUTES[kind, pos]


def _merge(sub: str, fixed: dict[int, int], clbits: list[int], drawn: set[int]) -> str:
    """The full key: drawn clbits from ``sub`` in order, the rest from ``fixed``."""
    chars = iter(sub)
    return "".join(next(chars) if cl in drawn else str(fixed[cl]) for cl in clbits)


def _collapse(state, fixed: dict[int, int], known: dict[int, int], inst, bit: int) -> None:
    q = inst.qubits[0]
    state.project(q, bit)
    if inst.kind == "measure":
        fixed[inst.clbit] = known[q] = bit
    else:
        if bit:
            state.apply(Instruction("x", (q,)))
        known[q] = 0
