from __future__ import annotations

import math

import numpy as np
import pytest

from polysim.circuit import (
    PARAM_COUNTS,
    TWO_QUBIT_GATES,
    UNITARY_GATES,
    Circuit,
    CircuitError,
    Instruction,
    inverse_circuit,
)
from polysim.qasm import QasmError, parse_qasm, to_qasm

GHZ3 = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
barrier q;
measure q[0] -> c[0];
measure q[1] -> c[1];
measure q[2] -> c[2];
"""


def test_ghz3_parses_to_seven_instructions():
    c = parse_qasm(GHZ3)
    assert c.n_qubits == 3
    assert c.n_clbits == 3
    kinds = [i.kind for i in c.instructions]
    assert kinds == ["h", "cx", "cx", "barrier", "measure", "measure", "measure"]
    assert c.instructions[1].qubits == (0, 1)
    assert c.instructions[3].qubits == (0, 1, 2)
    assert [i.clbit for i in c.instructions[4:]] == [0, 1, 2]


def test_multiple_registers_flatten_in_declaration_order():
    src = """
    OPENQASM 2.0;
    qreg a[2];
    qreg b[3];
    creg m[5];
    x b[1];
    cx a[1],b[0];
    measure b[2] -> m[4];
    """
    c = parse_qasm(src)
    assert c.n_qubits == 5
    assert c.instructions[0] == Instruction("x", (3,))
    assert c.instructions[1] == Instruction("cx", (1, 2))
    assert c.instructions[2] == Instruction("measure", (4,), clbit=4)


def test_register_broadcast():
    src = """
    OPENQASM 2.0;
    qreg q[3];
    creg c[3];
    h q;
    cx q[0],q;
    measure q -> c;
    """
    with pytest.raises(QasmError):
        parse_qasm(src)  # cx q[0],q broadcasts onto q[0],q[0]
    ok = parse_qasm(
        "OPENQASM 2.0; qreg q[3]; creg c[3]; h q; rz(pi/4) q; measure q -> c;"
    )
    kinds = [i.kind for i in ok.instructions]
    assert kinds == ["h"] * 3 + ["rz"] * 3 + ["measure"] * 3
    assert [i.qubits[0] for i in ok.instructions] == [0, 1, 2] * 3


def test_angle_expressions():
    src = "OPENQASM 2.0; qreg q[1]; rz(pi/2) q[0]; rx(-pi/4) q[0]; u(2*pi,1.5e-3,cos(0)) q[0];"
    c = parse_qasm(src)
    assert c.instructions[0].params == (math.pi / 2,)
    assert c.instructions[1].params == (-math.pi / 4,)
    theta, phi, lam = c.instructions[2].params
    assert theta == 2 * math.pi
    assert phi == 1.5e-3
    assert lam == 1.0


def test_u3_and_builtin_aliases():
    c = parse_qasm("OPENQASM 2.0; qreg q[2]; u3(0.1,0.2,0.3) q[0]; U(0.1,0.2,0.3) q[1]; CX q[0],q[1];")
    assert [i.kind for i in c.instructions] == ["u", "u", "cx"]


def _case(src, fragment, line, col):
    # the id pytest derives from (src, fragment) alone, so these cases keep their names
    return pytest.param(src, fragment, line, col, id=f"{src}-{fragment}")


@pytest.mark.parametrize(
    "src, fragment, line, col",
    [
        _case("OPENQASM 2.0; qreg q[2]; ccx q[0],q[1];", "unsupported gate", 1, 26),
        _case("OPENQASM 2.0; qreg q[2]; h q[5];", "out of range", 1, 28),
        _case("OPENQASM 2.0; qreg q[2]; creg c[1]; if (c==1) x q[0];", "conditionals", 1, 37),
        _case("OPENQASM 2.0; qreg q[2]; cx q[0],q[0];", "repeats", 1, 26),
        _case("OPENQASM 2.0; qreg q[2]; h r[0];", "undeclared", 1, 28),
        _case("OPENQASM 3.0; qreg q[1];", "version", 1, 10),
        _case("qreg q[2];", "OPENQASM", 1, 1),
        _case("OPENQASM 2.0; qreg q[2]; gate foo a { h a; }", "not supported", 1, 26),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[2];\n// a comment with $ and ? in it\nh q[0] @ q[1];\n",
            "unexpected character '@'", 4, 8, id="unexpected-character",
        ),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[2];\nbork q[0];\n// ok\nh q[0] # q[1];\n",
            "unexpected character '#'", 5, 8, id="unexpected-character-before-parse-error",
        ),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[1];\nrz(1/0) q[0]; $\n",
            "unexpected character '$'", 3, 15, id="unexpected-character-before-arithmetic-error",
        ),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],",
            "unexpected end of input (at end of input)", 4, 8, id="end-of-input",
        ),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[2];\nqreg r[3];\n  // pairs\n\tcx q, r;\n",
            "mismatched register sizes", 5, 2, id="broadcast-sizes",
        ),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[3];\ncreg c[2];\nmeasure q -> c;\n",
            "measure register sizes differ", 4, 1, id="measure-sizes",
        ),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[2];\n// again\ncreg q[1];\n",
            "register 'q' already declared", 4, 6, id="duplicate-register",
        ),
        pytest.param(
            'OPENQASM 2.0;\ninclude "stdgates.inc";\nqreg q[1];\n',
            'unsupported include "stdgates.inc"', 2, 9, id="unsupported-include",
        ),
        pytest.param(
            "OPENQASM 2.0;\r\nqreg q[2];\r\nh q[0]; x q[1]; rz(pi/2) q[0] ; measure q[0] -> c[0];\r\n",
            "undeclared classical register 'c'", 3, 49, id="crlf-several-per-line",
        ),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[1];\nrz(1/0) q[0];\n",
            "invalid angle: float division by zero", 3, 4, id="angle-division-by-zero",
        ),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[1];\nrz((-8)^(1/3)) q[0];\n",
            "angle is not a finite real number", 3, 4, id="angle-complex",
        ),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[1];\nu(0.1, sqrt(-1), 0) q[0];\n",
            "invalid angle: math domain error", 3, 8, id="angle-sqrt-negative",
        ),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[1];\nu(0.1, 0.2,ln(0)) q[0];\n",
            "invalid angle: math domain error", 3, 12, id="angle-log-zero",
        ),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[1];\n  rx(exp(1000)) q[0];\n",
            "invalid angle: math range error", 3, 6, id="angle-overflow",
        ),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[1];\nry(1e999 - 1e999) q[0];\n",
            "angle is not a finite real number: nan", 3, 4, id="angle-not-finite",
        ),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[1];\nry(sin((-8)^0.5)) q[0];\n",
            "invalid angle: must be real number, not complex", 3, 4, id="angle-function-of-complex",
        ),
    ],
)
def test_parse_errors(src, fragment, line, col):
    with pytest.raises(QasmError) as err:
        parse_qasm(src)
    assert fragment in str(err.value)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value).startswith(f"line {line}, column {col}: ")


@pytest.mark.parametrize("stray", ["@", "$", "é"])
def test_stray_character_wins_wherever_it_stands(stray):
    text = "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nrz(-pi/4) q[0];\ncx q[0],q[1];\nmeasure q -> c;\n"
    for offset in range(len(text) + 1):
        src = text[:offset] + " " + stray + " " + text[offset:]
        line = src.count("\n", 0, offset + 1) + 1
        col = offset + 1 - src.rfind("\n", 0, offset + 1)
        with pytest.raises(QasmError) as err:
            parse_qasm(src)
        assert str(err.value) == f"line {line}, column {col}: unexpected character {stray!r}"


def test_error_reports_position():
    src = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nbork q[1];\n"
    with pytest.raises(QasmError) as err:
        parse_qasm(src)
    assert err.value.line == 4
    assert err.value.col == 1


def _all_kinds() -> Circuit:
    c = Circuit(4, 4)
    c.gate("h", 0).gate("x", 1).gate("y", 2).gate("z", 3)
    c.gate("s", 0).gate("sdg", 1).gate("t", 2).gate("tdg", 3)
    c.gate("rx", 0, params=(0.1,)).gate("ry", 1, params=(-2.5,))
    c.gate("rz", 2, params=(math.pi / 3,))
    c.gate("u", 3, params=(0.4, 1.7, -0.2))
    c.gate("cx", 0, 1).gate("cz", 1, 2).gate("swap", 2, 3)
    c.append(Instruction("barrier", (0, 1, 2, 3)))
    c.append(Instruction("reset", (1,)))
    for q in range(4):
        c.measure(q, q)
    return c


def _random_program(seed: int) -> Circuit:
    """Every kind three times in a seeded order, measures and resets included."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    c = Circuit(n, n)
    kinds = sorted(UNITARY_GATES | {"measure", "reset", "barrier"})
    for kind in rng.permutation(kinds * 3):
        kind = str(kind)
        if kind == "measure":
            c.measure(int(rng.integers(n)), int(rng.integers(n)))
        elif kind in ("reset", "barrier"):
            size = 1 if kind == "reset" else int(rng.integers(1, n + 1))
            qubits = tuple(int(q) for q in rng.choice(n, size=size, replace=False))
            c.append(Instruction(kind, qubits))
        else:
            arity = 2 if kind in TWO_QUBIT_GATES else 1
            qubits = (int(q) for q in rng.choice(n, size=arity, replace=False))
            params = rng.uniform(-2 * math.pi, 2 * math.pi, size=PARAM_COUNTS.get(kind, 0))
            c.gate(kind, *qubits, params=tuple(float(v) for v in params))
    return c


# Two registers of each type, with bare-register operands broadcast over them:
# a is qubits 0-1, b is 2-3, m is clbits 0-1 and k is clbits 2-3.
_TWO_REGISTERS = """OPENQASM 2.0;
include "qelib1.inc";
qreg a[2];
qreg b[2];
creg m[2];
creg k[2];
h a;
rz(pi/8) b;
cx a,b;
cz a[0],b;
barrier a,b[1];
reset b;
measure a -> k;
measure b[0] -> m[1];
"""


def _two_registers() -> Circuit:
    c = Circuit(4, 4)
    c.gate("h", 0).gate("h", 1)
    c.gate("rz", 2, params=(math.pi / 8,)).gate("rz", 3, params=(math.pi / 8,))
    c.gate("cx", 0, 2).gate("cx", 1, 3).gate("cz", 0, 2).gate("cz", 0, 3)
    c.append(Instruction("barrier", (0, 1, 3)))
    c.append(Instruction("reset", (2,)))
    c.append(Instruction("reset", (3,)))
    return c.measure(0, 2).measure(1, 3).measure(2, 1)


def _reformatted(text: str, seed: int) -> str:
    """The same program with comments, tabs, CRLF line ends and several statements per line."""
    rng = np.random.default_rng(seed)
    seps = ["\r\n", " ", "\t", "  // h q[0]; @ not code\r\n"]
    out = ["// reformatted\r\n"]
    for statement in text.splitlines():
        out.append(statement.replace(" ", "\t", 1).replace(",", " ,\t"))
        out.append(seps[int(rng.integers(len(seps)))])
    return "".join(out)


@pytest.mark.parametrize("layout", ["canonical", "reformatted"])
@pytest.mark.parametrize("program", ["all_kinds", "random0", "random1", "random2", "registers"])
def test_round_trip_all_kinds(program, layout):
    if program == "registers":
        c, text = _two_registers(), _TWO_REGISTERS
    else:
        c = _all_kinds() if program == "all_kinds" else _random_program(int(program[6:]))
        text = to_qasm(c)
    if layout == "reformatted":
        text = _reformatted(text, seed=len(text))
    again = parse_qasm(text)
    assert (again.n_qubits, again.n_clbits, again.instructions) == (
        c.n_qubits, c.n_clbits, c.instructions
    )
    assert to_qasm(again) == to_qasm(c)


def test_serialized_header_and_shape():
    text = to_qasm(Circuit(2, 1, [Instruction("h", (0,)), Instruction("measure", (0,), clbit=0)]))
    lines = text.strip().split("\n")
    assert lines[0] == "OPENQASM 2.0;"
    assert "qreg q[2];" in lines
    assert "creg c[1];" in lines
    assert lines[-1] == "measure q[0] -> c[0];"


def test_inverse_structural():
    c = Circuit(2)
    c.gate("h", 0).gate("s", 0).gate("t", 1).gate("rx", 1, params=(0.3,)).gate("cx", 0, 1)
    inv = inverse_circuit(c)
    kinds = [(i.kind, i.params) for i in inv.instructions]
    assert kinds == [
        ("cx", ()),
        ("rx", (-0.3,)),
        ("tdg", ()),
        ("sdg", ()),
        ("h", ()),
    ]


def test_inverse_rejects_measurement():
    c = Circuit(1, 1)
    c.measure(0, 0)
    with pytest.raises(CircuitError):
        inverse_circuit(c)


@pytest.mark.parametrize("bad", [1j, complex(0.5), "0.5", None])
def test_instruction_rejects_non_real_params(bad):
    with pytest.raises(CircuitError, match="is not a real number"):
        Instruction("rz", (0,), (bad,))


def test_instruction_accepts_real_numbers_of_any_type():
    for value in (1, 0.5, np.float64(0.5), np.float32(0.5), np.int64(2), True):
        assert Instruction("rz", (0,), (value,)).params == (value,)


def test_u_inverse_swaps_phi_lambda():
    inv = inverse_circuit(Circuit(1, 0, [Instruction("u", (0,), (0.4, 1.7, -0.2))]))
    assert inv.instructions[0].params == (-0.4, 0.2, -1.7)
