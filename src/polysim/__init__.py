"""polysim: multi-backend quantum circuit simulation with predictive routing."""
from __future__ import annotations

from .calibration import CalibrationConfig, CalibrationError, CalibrationModel, calibrate
from .circuit import Circuit, CircuitError, Instruction, concat, inverse_circuit
from .dispatch import run_circuit
from .features import CircuitFeatures, extract_features
from .predictor import PredictionError, PredictionReport, estimate, select_backend
from .qasm import QasmError, parse_qasm, parse_qasm_file, to_qasm
from .result import BackendError, NoMeasurementsError, QubitCapError, RunResult

__all__ = [
    "BackendError",
    "CalibrationConfig",
    "CalibrationError",
    "CalibrationModel",
    "Circuit",
    "CircuitError",
    "CircuitFeatures",
    "Instruction",
    "NoMeasurementsError",
    "PredictionError",
    "PredictionReport",
    "QasmError",
    "QubitCapError",
    "RunResult",
    "calibrate",
    "concat",
    "estimate",
    "extract_features",
    "inverse_circuit",
    "parse_qasm",
    "parse_qasm_file",
    "run_circuit",
    "select_backend",
]
