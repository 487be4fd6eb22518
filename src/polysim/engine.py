"""The shot engine shared by the sv, mps and pblock backends.

Shots travel through the circuit as a count, not one by one.  At a reset,
and at a measurement whose qubit a later gate or reset touches, the engine
draws how many of the count read 1, ``c1 ~ Binomial(count, p1)``, and
splits the walk.  The state is copied only when both outcomes keep shots;
the walk goes on with the smaller child and stacks the larger one, so at
most ~log2(shots) states wait.  Every other measurement commutes with the
rest of the circuit and is deferred: at the end of each path its clbit is
drawn from that path's state through ``sample``, the latest write to each
clbit winning in program order.  The cost is one walk per distinct history
of the splitting measurements, capped by the shot count; a circuit that
measures only at the end walks once and draws every shot from one state.

A backend hands the engine a state object with

* ``copy()``: an independent copy;
* ``apply(inst)``: apply one gate;
* ``p1(q)``: the probability that qubit ``q`` reads 1;
* ``project(q, bit)``: collapse qubit ``q`` onto ``|bit>`` and renormalise;
* ``sample(measures, count, rng)``: ``count`` joint draws of the given
  ``(qubit, clbit)`` pairs, as counts keyed by clbit bitstrings with the
  lowest clbit rightmost and the latest write to a clbit winning.

One generator drives the whole walk in a fixed depth-first order, so counts
depend only on the circuit, the shot count and the seed.
"""
from __future__ import annotations

import numpy as np

from .circuit import Instruction
from .result import NoMeasurementsError


def run_shots(
    state, instructions, shots: int, rng: np.random.Generator, on_leaf=None
) -> dict[str, int]:
    """Counts of ``shots`` runs of ``instructions`` from ``state``.

    ``state`` itself walks the first path and is left at its end.  When
    given, ``on_leaf(state)`` is called with the state at the end of every
    path before its deferred measurements are drawn.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    ops = [inst for inst in instructions if inst.kind != "barrier"]
    splits = [False] * len(ops)
    last_write: dict[int, int] = {}
    touched: set[int] = set()
    for k in range(len(ops) - 1, -1, -1):
        inst = ops[k]
        if inst.kind == "measure":
            splits[k] = inst.qubits[0] in touched
            last_write.setdefault(inst.clbit, k)
        else:
            splits[k] = inst.kind == "reset"
            touched.update(inst.qubits)
    if not last_write:
        raise NoMeasurementsError("circuit has no measurements")
    deferred = [
        (inst.qubits[0], inst.clbit)
        for k, inst in enumerate(ops)
        if inst.kind == "measure" and not splits[k] and not splits[last_write[inst.clbit]]
    ]
    drawn_clbits = {cl for _, cl in deferred}
    clbits = sorted(last_write, reverse=True)  # bitstring order, lowest clbit rightmost

    counts: dict[str, int] = {}
    stack = [(state, 0, shots, {})]
    while stack:
        state, k, count, fixed = stack.pop()
        while k < len(ops):
            inst = ops[k]
            k += 1
            if not splits[k - 1]:
                if inst.kind != "measure":
                    state.apply(inst)
                continue
            q = inst.qubits[0]
            c1 = int(rng.binomial(count, min(max(state.p1(q), 0.0), 1.0)))
            c0 = count - c1
            bit = 1 if c0 == 0 or 0 < c1 < c0 else 0
            if c0 and c1:
                other = state.copy()
                other_fixed = dict(fixed)
                _collapse(other, other_fixed, inst, 1 - bit)
                stack.append((other, k, c0 if bit else c1, other_fixed))
                count = c1 if bit else c0
            _collapse(state, fixed, inst, bit)
        if on_leaf is not None:
            on_leaf(state)
        drawn = state.sample(deferred, count, rng) if deferred else {"": count}
        if len(drawn_clbits) < len(clbits):
            drawn = {_merge(sub, fixed, clbits, drawn_clbits): n for sub, n in drawn.items()}
        if not counts:
            counts = drawn
            continue
        for key, n in drawn.items():
            counts[key] = counts.get(key, 0) + n
    return counts


def _merge(sub: str, fixed: dict[int, int], clbits: list[int], drawn: set[int]) -> str:
    """The full key: drawn clbits from ``sub`` in order, the rest from ``fixed``."""
    chars = iter(sub)
    return "".join(next(chars) if cl in drawn else str(fixed[cl]) for cl in clbits)


def _collapse(state, fixed: dict[int, int], inst: Instruction, bit: int) -> None:
    q = inst.qubits[0]
    state.project(q, bit)
    if inst.kind == "measure":
        fixed[inst.clbit] = bit
    elif bit:
        state.apply(Instruction("x", (q,)))
