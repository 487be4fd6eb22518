"""
Parse an OpenQASM 2 program and run it
======================================

The parser turns QASM text into a Circuit, and any backend consumes that
same object.  A reported bitstring has one character per clbit that a
measurement writes, the lowest clbit rightmost.
"""

from polysim.qasm import parse_qasm
from polysim.features import extract_features
from polysim import statevector

PROGRAM = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0], q[1];
cx q[1], q[2];
measure q -> c;
"""

circuit = parse_qasm(PROGRAM, name="ghz3")
print(f"parsed {circuit.name}: {circuit.n_qubits} qubits, "
      f"{len(circuit.instructions)} instructions")

# The features the backend selector prices a circuit by.
features = extract_features(circuit)
print(f"n_qubits={features.n_qubits} clifford={features.is_clifford} "
      f"entanglement_proxy={features.entanglement_proxy}")
print(f"op counts: {features.counts_by_class}")

result = statevector.run(circuit, shots=2000, seed=7)
print(f"\ncounts from {result.shots} shots on '{result.backend}':")
for bits, count in sorted(result.counts.items()):
    print(f"  {bits}  {count}")
