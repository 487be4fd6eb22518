"""Qubit-to-vQPU placement that minimizes cut interaction weight.

Placement runs in two phases: greedy growth seeded from the heaviest
interaction edges, then Kernighan-Lin style refinement that keeps applying
the best improving swap or move until none exists.  Both phases iterate in
sorted order and break ties by index, so a plan depends only on the circuit
and the layout.  Interacting qubits may sit only on linked vQPUs: the
refinement removes such cuts first, and a plan that keeps one is rejected.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .circuit import TWO_QUBIT_GATES, Circuit
from .features import extract_features  # noqa: F401  (module attribute wrapped by perfbench)


class PartitionError(ValueError):
    pass


@dataclass(frozen=True)
class VqpuLayout:
    """k virtual QPUs of fixed capacity joined by pairwise links."""

    k: int
    capacity: int
    links: tuple[tuple[int, int], ...] | None = None  # None links every pair; () none

    def __post_init__(self):
        if self.k < 1 or self.capacity < 1:
            raise PartitionError("need k >= 1 and capacity >= 1")
        if self.links is None:
            full = tuple(
                (a, b) for a in range(self.k) for b in range(a + 1, self.k)
            )
            object.__setattr__(self, "links", full)
        norm = []
        for a, b in self.links:
            if not (0 <= a < self.k and 0 <= b < self.k) or a == b:
                raise PartitionError(f"bad link ({a}, {b})")
            norm.append((min(a, b), max(a, b)))
        object.__setattr__(self, "links", tuple(sorted(set(norm))))

    @classmethod
    def from_dict(cls, d: dict) -> "VqpuLayout":
        try:
            k = int(d["k"])
            capacity = int(d["capacity"])
            links = tuple((int(a), int(b)) for a, b in d["links"]) if "links" in d else None
        except KeyError as missing:
            raise PartitionError(f"layout is missing {missing}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            # OverflowError: a number too large for a float, which JSON reads as inf
            raise PartitionError(f"malformed layout: {exc}") from None
        return cls(k, capacity, links)

    @classmethod
    def from_json(cls, path: str) -> "VqpuLayout":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class PartitionPlan:
    layout: VqpuLayout
    groups: list[list[int]]       # original qubit indices per vQPU, ascending
    assignment: dict[int, int]    # original qubit -> vQPU
    permutation: dict[int, int]   # original qubit -> remapped qubit
    cut_weight: int


def interaction_graph(c: Circuit) -> dict[tuple[int, int], int]:
    """Two-qubit gate counts per unordered qubit pair, keyed ``(low, high)``."""
    graph: dict[tuple[int, int], int] = {}
    for inst in c.instructions:
        if inst.kind in TWO_QUBIT_GATES:
            a, b = inst.qubits
            edge = (a, b) if a < b else (b, a)
            graph[edge] = graph.get(edge, 0) + 1
    return graph


def _cut_weight(edges: dict[tuple[int, int], int], assign: dict[int, int]) -> int:
    return sum(w for (a, b), w in edges.items() if assign[a] != assign[b])


def partition_circuit(c: Circuit, layout: VqpuLayout) -> PartitionPlan:
    n = c.n_qubits
    if n > layout.k * layout.capacity:
        raise PartitionError(
            f"{n} qubits exceed {layout.k} vQPUs x {layout.capacity}"
        )
    edges = interaction_graph(c)

    if layout.k == 1:
        groups = [list(range(n))]
        assign = {q: 0 for q in range(n)}
        return PartitionPlan(layout, groups, assign, {q: q for q in range(n)}, 0)

    # Phase 1: grow groups from the heaviest edges outward.
    assign: dict[int, int] = {}
    load = [0] * layout.k
    order = sorted(edges.items(), key=lambda kv: (-kv[1], kv[0]))
    for (a, b), _ in order:
        if a in assign and b in assign:
            continue
        if a in assign or b in assign:
            placed, other = (a, b) if a in assign else (b, a)
            g = assign[placed]
            if load[g] < layout.capacity:
                assign[other] = g
                load[g] += 1
            continue
        g = min(range(layout.k), key=lambda i: (load[i], i))
        if load[g] + 2 <= layout.capacity:
            assign[a] = assign[b] = g
            load[g] += 2
        elif load[g] + 1 <= layout.capacity:
            assign[a] = g
            load[g] += 1
    for q in range(n):
        if q not in assign:
            g = min(range(layout.k), key=lambda i: (load[i], i))
            assign[q] = g
            load[g] += 1

    # Phase 2: apply the best improving swap or move until none remains.
    # A placement is ranked first by the weight it cuts between vQPUs that
    # share no link, which an all-to-all layout never has, then by its cut.
    neighbors: dict[int, dict[int, int]] = {q: {} for q in range(n)}
    for (a, b), w in edges.items():
        neighbors[a][b] = w
        neighbors[b][a] = w
    unlinked = [
        [int(g != h and (min(g, h), max(g, h)) not in layout.links) for h in range(layout.k)]
        for g in range(layout.k)
    ]

    def external_gain(q: int, target: int) -> tuple[int, int]:
        # (unlinked, cut) weight change if q alone moved to target
        # (negative is better)
        source = assign[q]
        bad = delta = 0
        for other, w in neighbors[q].items():
            g = assign[other]
            bad += w * (unlinked[target][g] - unlinked[source][g])
            if g == source:
                delta += w
            elif g == target:
                delta -= w
        return bad, delta

    while True:
        best = (0, 0)
        best_action = None
        for q in range(n):
            for g in range(layout.k):
                if g == assign[q]:
                    continue
                if load[g] < layout.capacity:
                    bad, delta = external_gain(q, g)
                    gain = (-bad, -delta)
                    if gain > best:
                        best = gain
                        best_action = ("move", q, g)
        for a in range(n):
            for b in range(a + 1, n):
                ga, gb = assign[a], assign[b]
                if ga == gb:
                    continue
                bad_a, delta_a = external_gain(a, gb)
                bad_b, delta_b = external_gain(b, ga)
                w = neighbors[a].get(b, 0)  # the pair edge stays as it was
                gain = (-(bad_a + bad_b) - 2 * w * unlinked[ga][gb],
                        -(delta_a + delta_b) - 2 * w)
                if gain > best:
                    best = gain
                    best_action = ("swap", a, b)
        if best_action is None:
            break
        if best_action[0] == "move":
            _, q, g = best_action
            load[assign[q]] -= 1
            assign[q] = g
            load[g] += 1
        else:
            _, a, b = best_action
            assign[a], assign[b] = assign[b], assign[a]
    if any(unlinked[assign[a]][assign[b]] for a, b in edges):
        raise PartitionError(
            f"found no placement on {layout.k} vQPUs x {layout.capacity} that keeps "
            f"every interacting pair on linked vQPUs (links {list(layout.links)})"
        )

    groups = [sorted(q for q in range(n) if assign[q] == g) for g in range(layout.k)]
    permutation: dict[int, int] = {}
    next_slot = 0
    for g in range(layout.k):
        for q in groups[g]:
            permutation[q] = next_slot
            next_slot += 1
    return PartitionPlan(layout, groups, assign, permutation, _cut_weight(edges, assign))
