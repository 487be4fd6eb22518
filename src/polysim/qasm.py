"""OpenQASM 2.0 front end.

Accepts the qelib1-style gate subset of the IR (h x y z s sdg t tdg rx ry rz
u cx cz swap, with u3, U and CX as aliases), measure, reset and barrier,
multiple quantum and classical registers (flattened to global indices in
declaration order), register broadcasting, and constant angle arithmetic.
Gate definitions, opaque declarations and classical conditionals are
rejected.

A source costs one regex scan and one pass over the tokens it yields.  Tokens
are plain strings, told apart by their first character, and the parser keeps
only their index: the line and column of an error (both 1-based) are worked
out from the source when the error is raised.  Equal instructions of one
file share one Instruction object, unless an angle is zero.
"""
from __future__ import annotations

import math
import re
from string import ascii_letters

from .circuit import PARAM_COUNTS, UNITARY_GATES, Circuit, CircuitError, Instruction

# Accepted gate names, aliases included, and the IR kind each one becomes.
_GATES = {kind: kind for kind in UNITARY_GATES} | {"u3": "u", "U": "u", "CX": "cx"}

_ID_START = frozenset(ascii_letters + "_")

_SKIP = r"\s+|//[^\n]*"
# Alternatives that start alike are ordered as a longest match would take
# them; the rest go most common first.
_TOKEN = r"""
    [a-zA-Z_][a-zA-Z0-9_]*
  | [\[\];,(){}+*^=]
  | \d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?   # int, or real with . or e
  | ->|[-/]
  | "[^"\n]*"
"""
# Whitespace and comments match outside the group, so findall returns them
# as empty strings; the last alternative takes a character no token starts.
_SCAN_RE = re.compile(rf"{_SKIP}|({_TOKEN}|.)", re.VERBOSE)
# The same scan for error positions: group 1 a token, group 2 a stray character.
_LOCATE_RE = re.compile(rf"{_SKIP}|({_TOKEN})|(.)", re.VERBOSE)

_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
}


class QasmError(ValueError):
    """Parse or validation failure, carrying source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class _Failure(Exception):
    """A parse failure at token index ``at``; None stands for the first column of line 1."""

    def __init__(self, at: int | None, message: str):
        super().__init__(message)
        self.at = at
        self.message = message


def _rescan(text: str) -> tuple[list[int], QasmError | None]:
    """The start offset of every token, and the error for the first stray character.

    Every character is tokenized before any statement is read, so a stray
    character anywhere is the error to report, ahead of any other.
    """
    starts = []
    for m in _LOCATE_RE.finditer(text):
        if m.lastindex == 2:
            return starts, _error_at(text, m.start(), f"unexpected character {m.group()!r}")
        if m.lastindex == 1:
            starts.append(m.start())
    return starts, None


def _locate(text: str, failure: _Failure) -> QasmError:
    """Turn a failure into a QasmError by scanning the source once more.

    A failure past the last token reads "(at end of input)" at the last token.
    """
    starts, stray = _rescan(text)
    if stray is not None:
        return stray
    at, message = failure.at, failure.message
    if at is not None and at >= len(starts):
        message += " (at end of input)"
        at = len(starts) - 1 if starts else None
    if at is None:
        return QasmError(message, 1, 1)
    return _error_at(text, starts[at], message)


def _error_at(text: str, offset: int, message: str) -> QasmError:
    line_start = text.rfind("\n", 0, offset) + 1
    return QasmError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


def _end_or(token: str, message: str) -> str:
    # the end marker is the empty token; reading past it is its own error
    return message if token else "unexpected end of input"


# --- angle expressions: recursive descent over (tokens, index) ---------------


def _expr(toks: list[str], i: int) -> tuple[float, int]:
    value, i = _term(toks, i)
    while True:
        op = toks[i]
        if op == "+":
            rhs, i = _term(toks, i + 1)
            value += rhs
        elif op == "-":
            rhs, i = _term(toks, i + 1)
            value -= rhs
        else:
            return value, i


def _term(toks: list[str], i: int) -> tuple[float, int]:
    value, i = _factor(toks, i)
    while True:
        op = toks[i]
        if op == "*":
            rhs, i = _factor(toks, i + 1)
            value *= rhs
        elif op == "/":
            rhs, i = _factor(toks, i + 1)
            value /= rhs
        else:
            return value, i


def _factor(toks: list[str], i: int) -> tuple[float, int]:
    if toks[i] == "-":
        value, i = _factor(toks, i + 1)
        return -value, i
    if toks[i] == "+":
        return _factor(toks, i + 1)
    base, i = _atom(toks, i)
    if toks[i] == "^":
        exponent, i = _factor(toks, i + 1)
        return base ** exponent, i
    return base, i


def _atom(toks: list[str], i: int) -> tuple[float, int]:
    tok = toks[i]
    head = tok[:1]
    if head.isdecimal() or (head == "." and len(tok) > 1):
        return float(tok), i + 1
    if head in _ID_START:
        if tok == "pi":
            return math.pi, i + 1
        if tok in _FUNCTIONS:
            if toks[i + 1] != "(":
                raise _Failure(i + 1, "expected '('")
            arg, i = _expr(toks, i + 2)
            if toks[i] != ")":
                raise _Failure(i, "expected ')'")
            return _FUNCTIONS[tok](arg), i + 1
        raise _Failure(i, f"unknown identifier in expression: {tok}")
    if tok == "(":
        value, i = _expr(toks, i + 1)
        if toks[i] != ")":
            raise _Failure(i, "expected ')'")
        return value, i + 1
    raise _Failure(i, _end_or(tok, f"unexpected token {tok!r} in expression"))


# --- statements ---------------------------------------------------------------


def _operand(toks: list[str], i: int, regs: dict, what: str):
    """Read ``name[int]`` or a bare register ``name`` at token i.

    Returns what it names and the index of the next token.  What it names is
    a global index for ``name[int]``, a list of them for a whole register, or,
    for an undeclared register or an index out of range, the _Failure to raise
    once the rest of the statement has been read: the parser reports a
    statement's syntax before its registers.
    """
    name = toks[i]
    if name[:1] not in _ID_START:
        raise _Failure(i, _end_or(name, f"expected a register name, got {name!r}"))
    reg = regs.get(name)
    if toks[i + 1] != "[":
        if reg is None:
            return _Failure(i, f"undeclared {what} register {name!r}"), i + 1
        offset, size = reg
        return list(range(offset, offset + size)), i + 1
    index = toks[i + 2]
    if not index.isdecimal():
        raise _Failure(i + 2, _end_or(index, "expected an integer index"))
    if toks[i + 3] != "]":
        raise _Failure(i + 3, "expected ']'")
    if reg is None:
        return _Failure(i, f"undeclared {what} register {name!r}"), i + 4
    index = int(index)
    if index >= reg[1]:
        return _Failure(i, f"index {index} out of range for {name}[{reg[1]}]"), i + 4
    return reg[0] + index, i + 4


def _operands(toks: list[str], i: int, qregs: dict) -> tuple[list, bool, int]:
    """Read comma-separated quantum operands and the ';' after them.

    Returns the operands as _operand gives them, whether every one is a
    global index, and the index of the token after the ';'.
    """
    args = []
    plain = True
    while True:
        arg, i = _operand(toks, i, qregs, "quantum")
        args.append(arg)
        plain = plain and type(arg) is int
        if toks[i] != ",":
            break
        i += 1
    if toks[i] != ";":
        raise _Failure(i, "expected ';'")
    return args, plain, i + 1


def _params(toks: list[str], i: int) -> tuple[tuple[float, ...], int]:
    """Read ``(expr, ...)`` from the "(" at token i."""
    value, i = _angle(toks, i + 1)
    values = [value]
    while toks[i] == ",":
        value, i = _angle(toks, i + 1)
        values.append(value)
    if toks[i] != ")":
        raise _Failure(i, "expected ')'")
    return tuple(values), i + 1


def _angle(toks: list[str], i: int) -> tuple[float, int]:
    """Read one angle expression from token i; it must be a finite real number.

    Arithmetic errors (1/0, sqrt(-1), ln(0), exp(1000), the sine of a complex
    power) and complex or non-finite results fail at the expression's first
    token.
    """
    try:
        value, end = _expr(toks, i)
    except (ArithmeticError, ValueError, TypeError) as exc:
        raise _Failure(i, f"invalid angle: {exc}") from None
    if type(value) is not float or not math.isfinite(value):
        raise _Failure(i, f"angle is not a finite real number: {value!r}")
    return value, end


def _groups(args: list) -> list[list[int]]:
    """Each operand as a list of global indices, raising the first bad register."""
    groups = []
    for arg in args:
        if isinstance(arg, _Failure):
            raise arg
        groups.append([arg] if type(arg) is int else arg)
    return groups


def _broadcast(groups: list[list[int]], start: int) -> list[tuple[int, ...]]:
    """Rows of a statement whose operands include whole registers."""
    length = 1
    for g in groups:
        if len(g) > 1:
            if length > 1 and len(g) != length:
                raise _Failure(start, "mismatched register sizes")
            length = len(g)
    return [tuple(g[i] if len(g) > 1 else g[0] for g in groups) for i in range(length)]


def _statements(toks: list[str]) -> tuple[int, int, list[Instruction]]:
    """Read the statements after the header: qubit count, clbit count, instructions."""
    qregs: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
    cregs: dict[str, tuple[int, int]] = {}
    n_qubits = n_clbits = 0
    instructions: list[Instruction] = []
    emit = instructions.append
    # Instruction is frozen, so equal instructions share one object.  0.0 and
    # -0.0 are one key but different parameters, so a zero is never shared.
    shared: dict[tuple, Instruction] = {}

    def instruction(kind: str, qubits: tuple[int, ...], params=(), clbit=None) -> Instruction:
        key = (kind, qubits, params, clbit)
        inst = shared.get(key)
        if inst is None or 0.0 in params:
            inst = shared[key] = Instruction(kind, qubits, params, clbit)
        return inst

    i = 3
    while toks[i]:
        start = i
        word = toks[i]
        kind = _GATES.get(word)
        if kind is not None:
            params, i = _params(toks, i + 1) if toks[i + 1] == "(" else ((), i + 1)
            if len(params) != PARAM_COUNTS.get(kind, 0):
                raise _Failure(start, f"{word} expects {PARAM_COUNTS.get(kind, 0)} parameter(s)")
            args, plain, i = _operands(toks, i, qregs)
            rows = [tuple(args)] if plain else _broadcast(_groups(args), start)
            try:
                for row in rows:
                    emit(instruction(kind, row, params))
            except CircuitError as exc:
                raise _Failure(start, str(exc)) from None
        elif word == "measure":
            src, i = _operand(toks, i + 1, qregs, "quantum")
            if toks[i] != "->":
                raise _Failure(i, "expected '->'")
            dst, i = _operand(toks, i + 1, cregs, "classical")
            if toks[i] != ";":
                raise _Failure(i, "expected ';'")
            i += 1
            qubits, clbits = _groups([src, dst])
            if len(qubits) != len(clbits):
                raise _Failure(start, "measure register sizes differ")
            for q, c in zip(qubits, clbits):
                emit(instruction("measure", (q,), clbit=c))
        elif word == "reset":
            arg, i = _operand(toks, i + 1, qregs, "quantum")
            if toks[i] != ";":
                raise _Failure(i, "expected ';'")
            i += 1
            for q in _groups([arg])[0]:
                emit(instruction("reset", (q,)))
        elif word == "barrier":
            args, _, i = _operands(toks, i + 1, qregs)
            qubits = tuple(q for g in _groups(args) for q in g)
            try:
                emit(instruction("barrier", qubits))
            except CircuitError as exc:
                raise _Failure(start, str(exc)) from None
        elif word in ("qreg", "creg"):
            name = toks[i + 1]
            if name[:1] not in _ID_START:
                raise _Failure(i + 1, _end_or(name, "expected a register name"))
            if toks[i + 2] != "[":
                raise _Failure(i + 2, "expected '['")
            size = toks[i + 3]
            if not size.isdecimal() or int(size) < 1:
                raise _Failure(i + 3, _end_or(size, "register size must be a positive integer"))
            if toks[i + 4] != "]":
                raise _Failure(i + 4, "expected ']'")
            if toks[i + 5] != ";":
                raise _Failure(i + 5, "expected ';'")
            i += 6
            if name in qregs or name in cregs:
                raise _Failure(start + 1, f"register {name!r} already declared")
            if word == "qreg":
                qregs[name] = (n_qubits, int(size))
                n_qubits += int(size)
            else:
                cregs[name] = (n_clbits, int(size))
                n_clbits += int(size)
        elif word == "include":
            path = toks[i + 1]
            if path != '"qelib1.inc"':
                raise _Failure(i + 1, _end_or(path, f"unsupported include {path}"))
            if toks[i + 2] != ";":
                raise _Failure(i + 2, "expected ';'")
            i += 3
        elif word == "if":
            raise _Failure(i, "classical conditionals are not supported")
        elif word in ("gate", "opaque"):
            raise _Failure(i, f"{word} definitions are not supported")
        elif word[:1] in _ID_START:
            raise _Failure(i, f"unsupported gate {word!r}")
        else:
            raise _Failure(i, f"unexpected token {word!r}")
    if n_qubits == 0:
        raise _Failure(None, "no quantum register declared")
    return n_qubits, n_clbits, instructions


def parse_qasm(text: str, name: str = "circuit") -> Circuit:
    """Parse OpenQASM 2.0 source text into a Circuit."""
    # A stray character becomes a one-character token here and is reported
    # only once some check fails: every token is accepted by an exact
    # comparison or a kind check that a stray character cannot pass.
    toks = list(filter(None, _SCAN_RE.findall(text)))
    toks.append("")  # end marker: no check accepts it
    try:
        if toks[0] != "OPENQASM":
            raise _Failure(None, "expected OPENQASM 2.0 header")
        if not toks[1].startswith("2."):
            raise _Failure(1, _end_or(toks[1], f"unsupported version {toks[1]!r}"))
        if toks[2] != ";":
            raise _Failure(2, "expected ';'")
        n_qubits, n_clbits, instructions = _statements(toks)
    except _Failure as failure:
        raise _locate(text, failure) from None
    except RecursionError:
        # deeply nested angle expressions, which a stray character still comes
        # ahead of
        stray = _rescan(text)[1]
        if stray is not None:
            raise stray from None
        raise
    return Circuit(n_qubits, n_clbits, instructions, name=name)


def _format_param(value: float) -> str:
    # repr round-trips float64 exactly, which keeps parse(to_qasm(c)) == c.
    return repr(float(value))


def to_qasm(c: Circuit) -> str:
    """Serialize a Circuit to canonical OpenQASM 2.0 text."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{c.n_qubits}];"]
    if c.n_clbits:
        lines.append(f"creg c[{c.n_clbits}];")
    for inst in c.instructions:
        if inst.kind == "measure":
            lines.append(f"measure q[{inst.qubits[0]}] -> c[{inst.clbit}];")
        elif inst.kind in ("reset", "barrier"):
            args = ",".join(f"q[{q}]" for q in inst.qubits)
            lines.append(f"{inst.kind} {args};")
        else:
            head = inst.kind
            if inst.params:
                head += "(" + ",".join(_format_param(v) for v in inst.params) + ")"
            args = ",".join(f"q[{q}]" for q in inst.qubits)
            lines.append(f"{head} {args};")
    return "\n".join(lines) + "\n"


def parse_qasm_file(path) -> Circuit:
    from pathlib import Path

    path = Path(path)
    return parse_qasm(path.read_text(), name=path.stem)
