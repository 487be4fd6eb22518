"""
Calibrating the cost model and predicting runtimes
==================================================

Calibration microbenchmarks every backend on this machine and fits
per-operation coefficients plus a per-shot linear model.  The predictor
then prices a circuit on each feasible backend and picks the cheapest.
The model serializes to JSON; the CLI reads it from MAESTRO_CALIB or
the --calib flag.
"""

import os
import tempfile
import time

from polysim.calibration import PRICED, CalibrationModel, calibrate
from polysim.predictor import estimate, select_backend
from polysim import suite

t0 = time.perf_counter()
model = calibrate(seed=0)
print(f"calibrated in {time.perf_counter() - t0:.1f}s on this machine")
# model.seconds(backend, n, chi) prices one op of each class on n qubits
# at bond dimension chi (1 for sv and stab), in calibration.PRICED's order.
for backend, n, chi in (("sv", 12, 1), ("mps", 12, 8), ("stab", 12, 1)):
    priced = zip(PRICED[backend], model.seconds(backend, n, chi))
    print(f"  {backend:<4} n={n} chi={chi}: "
          + ", ".join(f"{klass} {s:.2e}s" for klass, s in priced))
print(f"  per-shot slope sv / mps / stab:   "
      + " / ".join(f"{model.tables[b].shots[1]:.2e}" for b in ("sv", "mps", "stab")))

print("\npredicted seconds at 1000 shots:")
for c in (suite.ghz_circuit(20), suite.clifford_circuit(20, 40, seed=5),
          suite.qaoa_line_circuit(14, 2, seed=5)):
    report = select_backend(c, model, shots=1000)
    priced = ", ".join(
        f"{b}={report.estimates[b]:.4f}" for b in sorted(report.estimates)
    )
    print(f"  {c.name:<18} -> {report.chosen:<4} ({priced})")

# Round-trip through the JSON file the CLI consumes.
with tempfile.TemporaryDirectory() as d:
    path = os.path.join(d, "calib.json")
    model.save(path)
    reloaded = CalibrationModel.load(path)
    same = estimate(suite.ghz_circuit(10), "sv", reloaded, shots=100) == \
        estimate(suite.ghz_circuit(10), "sv", model, shots=100)
    print(f"\nsaved, reloaded, estimates identical: {same}")
