"""
Adaptive bond dimension on the tensor-network backend
======================================================

The mps backend caps the bond dimension chi.  Too small a cap truncates the
state and discards Schmidt weight eps; the fidelity loop runs the circuit
once per chi, doubling chi until 1 - eps over the worst path the run took
clears a threshold.  Terminal shots come from one batched sweep over the
sites.
"""

import numpy as np

from polysim.circuit import Circuit
from polysim.mps import run, run_with_fidelity_loop
from polysim import suite

# GHZ needs only chi = 2 no matter how wide it gets.
ghz = suite.ghz_circuit(16)
loop = run_with_fidelity_loop(ghz, shots=2000, seed=3, chi_init=1)
print(f"ghz_16 starting from chi=1: accepted chi={loop.chi} "
      f"after {loop.iterations} iterations, fidelity={loop.fidelity:.3f}")

# A deep circuit with t gates builds entanglement that chi=2 cannot hold.
deep = suite.clifford_t_circuit(10, 80, seed=12)
loop = run_with_fidelity_loop(deep, shots=2000, seed=3, chi_init=2)
print(f"{deep.name} starting from chi=2: accepted chi={loop.chi} "
      f"after {loop.iterations} iterations, fidelity={loop.fidelity:.3f}")

# Forcing a small cap shows up as discarded Schmidt weight, not an error.
forced = run(deep, shots=2000, seed=3, chi_max=2)
print(f"\nsame circuit forced to chi=2: "
      f"truncation_error={forced.metadata['truncation_error']:.3e}")
honest = run(deep, shots=2000, seed=3, chi_max=loop.chi)
print(f"at the accepted chi={loop.chi}:  "
      f"truncation_error={honest.metadata['truncation_error']:.3e}")
