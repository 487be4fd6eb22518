"""Circuit intermediate representation.

A circuit is a flat list of instructions over globally indexed qubits and
classical bits.  Register structure from the source text is resolved at parse
time and does not survive into the IR.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field

ONE_QUBIT_CLIFFORD = frozenset({"h", "x", "y", "z", "s", "sdg"})
ONE_QUBIT_NONCLIFFORD = frozenset({"t", "tdg", "rx", "ry", "rz", "u"})
ONE_QUBIT_GATES = ONE_QUBIT_CLIFFORD | ONE_QUBIT_NONCLIFFORD
TWO_QUBIT_GATES = frozenset({"cx", "cz", "swap"})
UNITARY_GATES = ONE_QUBIT_GATES | TWO_QUBIT_GATES

# Number of angle parameters each parameterized kind expects.
PARAM_COUNTS = {"rx": 1, "ry": 1, "rz": 1, "u": 3}

_SELF_INVERSE = frozenset({"h", "x", "y", "z", "cx", "cz", "swap"})
_ADJOINT_PAIRS = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}


class CircuitError(ValueError):
    """Raised for structurally invalid circuits or instructions."""


@dataclass(frozen=True)
class Instruction:
    """One gate, measurement, reset or barrier on global qubit indices."""

    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    clbit: int | None = None

    def __post_init__(self) -> None:
        if self.kind in ONE_QUBIT_GATES or self.kind in ("measure", "reset"):
            if len(self.qubits) != 1:
                raise CircuitError(f"{self.kind} takes one qubit, got {self.qubits}")
        elif self.kind in TWO_QUBIT_GATES:
            if len(self.qubits) != 2:
                raise CircuitError(f"{self.kind} takes two qubits, got {self.qubits}")
        elif self.kind == "barrier":
            if not self.qubits:
                raise CircuitError("barrier needs at least one qubit")
        else:
            raise CircuitError(f"unknown instruction kind: {self.kind}")
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"{self.kind} repeats a qubit: {self.qubits}")
        expected = PARAM_COUNTS.get(self.kind, 0)
        if len(self.params) != expected:
            raise CircuitError(
                f"{self.kind} expects {expected} parameter(s), got {len(self.params)}"
            )
        for value in self.params:
            if type(value) is not float and not isinstance(value, numbers.Real):
                raise CircuitError(f"{self.kind} parameter {value!r} is not a real number")
        if (self.kind == "measure") != (self.clbit is not None):
            raise CircuitError("clbit is set exactly for measure instructions")

    @property
    def is_unitary(self) -> bool:
        return self.kind in UNITARY_GATES


@dataclass(eq=False)
class Circuit:
    """A flat instruction list over n_qubits qubits and n_clbits classical bits."""

    n_qubits: int
    n_clbits: int = 0
    instructions: list[Instruction] = field(default_factory=list)
    name: str = "circuit"

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise CircuitError("circuit needs at least one qubit")
        for inst in self.instructions:
            self._check(inst)

    def _check(self, inst: Instruction) -> None:
        for q in inst.qubits:
            if not 0 <= q < self.n_qubits:
                raise CircuitError(f"qubit {q} out of range for n_qubits={self.n_qubits}")
        if inst.clbit is not None and not 0 <= inst.clbit < self.n_clbits:
            raise CircuitError(f"clbit {inst.clbit} out of range for n_clbits={self.n_clbits}")

    def append(self, inst: Instruction) -> None:
        self._check(inst)
        self.instructions.append(inst)

    # Convenience builders used heavily by tests and the suite generator.
    def gate(self, kind: str, *qubits: int, params: tuple[float, ...] = ()) -> "Circuit":
        self.append(Instruction(kind, tuple(qubits), tuple(params)))
        return self

    def measure(self, qubit: int, clbit: int) -> "Circuit":
        self.append(Instruction("measure", (qubit,), clbit=clbit))
        return self

    def measure_all(self) -> "Circuit":
        if self.n_clbits < self.n_qubits:
            self.n_clbits = self.n_qubits
        for q in range(self.n_qubits):
            self.measure(q, q)
        return self


def inverse_instruction(inst: Instruction) -> Instruction:
    if inst.kind in _SELF_INVERSE or inst.kind == "barrier":
        return inst
    if inst.kind in _ADJOINT_PAIRS:
        return Instruction(_ADJOINT_PAIRS[inst.kind], inst.qubits)
    if inst.kind in ("rx", "ry", "rz"):
        return Instruction(inst.kind, inst.qubits, (-inst.params[0],))
    if inst.kind == "u":
        theta, phi, lam = inst.params
        return Instruction("u", inst.qubits, (-theta, -lam, -phi))
    raise CircuitError(f"{inst.kind} has no inverse")


def inverse_circuit(c: Circuit) -> Circuit:
    """Reverse the gate order and invert each gate.

    Only defined for unitary circuits: measures and resets are irreversible
    and raise CircuitError.
    """
    for inst in c.instructions:
        if inst.kind in ("measure", "reset"):
            raise CircuitError("cannot invert a circuit containing measure or reset")
    inv = [inverse_instruction(inst) for inst in reversed(c.instructions)]
    return Circuit(c.n_qubits, c.n_clbits, inv, name=c.name + "_inv")


def unitary_part(c: Circuit) -> Circuit:
    """The circuit's gates with measures and barriers stripped.

    Raises CircuitError if the circuit contains a reset, since dropping a
    reset changes the state the remaining gates act on.
    """
    kept = []
    for inst in c.instructions:
        if inst.kind == "reset":
            raise CircuitError("circuit with reset has no well-defined unitary part")
        if inst.kind in ("measure", "barrier"):
            continue
        kept.append(inst)
    return Circuit(c.n_qubits, 0, kept, name=c.name + "_unitary")


def concat(a: Circuit, b: Circuit) -> Circuit:
    """Concatenate two circuits over the same qubit count."""
    if a.n_qubits != b.n_qubits:
        raise CircuitError("qubit counts differ")
    return Circuit(
        a.n_qubits,
        max(a.n_clbits, b.n_clbits),
        list(a.instructions) + list(b.instructions),
        name=a.name + "+" + b.name,
    )
