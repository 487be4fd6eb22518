"""Command-line interface: run, predict, calibrate, batch, gen-suite."""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import pblock
from .batch import POLICIES, run_batch
from .calibration import CalibrationError, CalibrationModel, calibrate
from .circuit import CircuitError
from .dispatch import BACKENDS, run_circuit
from .mps import run_with_fidelity_loop
from .partition import PartitionError, VqpuLayout
from .predictor import select_backend
from .qasm import QasmError, parse_qasm_file
from .result import BackendError
from .suite import generate_torture_suite, write_suite

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_BACKEND = 4
OUTPUT_VERSION = 1

# Errors in what the caller gave: files, their text and their contents.  Any
# other exception, a bare ValueError included, is a failure of the program.
_INPUT_ERRORS = (
    QasmError,
    CircuitError,
    PartitionError,
    CalibrationError,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    PermissionError,
    json.JSONDecodeError,
    UnicodeDecodeError,
)


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, BackendError):
        return EXIT_BACKEND
    if isinstance(exc, _INPUT_ERRORS):
        return EXIT_INPUT
    return EXIT_BACKEND


def _emit_error(exc: Exception, as_json: bool) -> None:
    if as_json:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(payload))
    else:
        print(f"error: {exc}", file=sys.stderr)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _threshold(text: str) -> float:
    value = float(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


def _calib_path(args) -> str:
    # The environment variable wins over the flag so a machine-wide
    # calibration can be pinned without editing scripts.
    path = os.environ.get("MAESTRO_CALIB") or getattr(args, "calib", None)
    if not path:
        raise CalibrationError(
            "no calibration file given; pass --calib or set MAESTRO_CALIB"
        )
    return path


def _write_payload(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_run(args) -> int:
    c = parse_qasm_file(args.input)
    payload: dict = {
        "version": OUTPUT_VERSION,
        "name": c.name,
        "shots": args.shots,
        "seed": args.seed,
    }
    backend = args.backend
    if backend == "auto":
        model = CalibrationModel.load(_calib_path(args))
        report = select_backend(c, model, args.shots)
        backend = report.chosen
        payload["predicted_seconds"] = report.estimates[backend]
        payload["estimates"] = report.estimates

    t0 = time.perf_counter()
    if args.layout:  # only with pblock (checked in main)
        layout = VqpuLayout.from_json(args.layout)
        result = pblock.run_distributed(c, layout, args.shots, args.seed)
    elif backend == "mps" and args.chi is None:
        loop = run_with_fidelity_loop(
            c, args.shots, args.seed, threshold=args.fidelity_threshold
        )
        result = loop.result
        payload["chi"] = loop.chi
        payload["fidelity"] = loop.fidelity
    else:
        result = run_circuit(c, backend, args.shots, args.seed, chi=args.chi)
        if backend == "mps":
            payload["chi"] = args.chi
    wall = time.perf_counter() - t0
    payload["metadata"] = result.metadata

    payload["backend"] = backend
    payload["counts"] = result.counts
    payload["wall_seconds"] = wall
    _write_payload(payload, args.output)
    return EXIT_OK


def _cmd_predict(args) -> int:
    c = parse_qasm_file(args.input)
    model = CalibrationModel.load(_calib_path(args))
    report = select_backend(c, model, args.shots)
    f = report.features
    payload = {
        "version": OUTPUT_VERSION,
        "name": c.name,
        "shots": args.shots,
        "chosen": report.chosen,
        "estimates": report.estimates,
        "chi": report.chi,
        "features": {
            "n_qubits": f.n_qubits,
            "total_gates": f.total_gates,
            "is_clifford": f.is_clifford,
            "terminal_measurement_only": f.terminal_measurement_only,
            "entanglement_proxy": f.entanglement_proxy,
        },
    }
    _write_payload(payload, args.output)
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    model = calibrate(seed=args.seed)
    model.save(args.out)
    print(json.dumps({"written": args.out, "created": model.created}))
    return EXIT_OK


def _cmd_batch(args) -> int:
    model = None
    if args.policy == "auto":
        model = CalibrationModel.load(_calib_path(args))
    report = run_batch(
        args.dir,
        args.policy,
        model=model,
        shots=args.shots,
        seed=args.seed,
        fidelity_threshold=args.fidelity_threshold,
    )
    _write_payload(report.to_dict(), args.report)
    if args.report:
        print(
            json.dumps(
                {
                    "policy": report.policy,
                    "circuits": len(report.records),
                    "wall_seconds": report.wall_seconds,
                    "prediction_seconds": report.prediction_seconds,
                    "report": args.report,
                }
            )
        )
    return EXIT_OK


def _cmd_gen_suite(args) -> int:
    circuits = generate_torture_suite(args.seed)
    paths = write_suite(circuits, args.out)
    print(json.dumps({"written": len(paths), "dir": args.out}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polysim",
        description="Multi-backend quantum circuit simulator with predictive routing.",
    )
    parser.add_argument(
        "--error-json",
        action="store_true",
        help="print failures as machine-readable JSON on stdout",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Accepted after the subcommand as well.  The copy must SUPPRESS its
    # default: subparser results are copied back over the root namespace,
    # and a plain store_true default would reset a leading --error-json.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--error-json", action="store_true", default=argparse.SUPPRESS
    )

    run_p = sub.add_parser(
        "run", help="execute one OpenQASM circuit", parents=[common]
    )
    run_p.add_argument("--input", required=True, help="OpenQASM 2.0 file")
    run_p.add_argument(
        "--backend",
        default="auto",
        choices=("auto", *BACKENDS),
    )
    run_p.add_argument("--shots", type=_positive_int, default=1000)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--chi", type=_positive_int, default=None, help="fixed mps bond cap")
    run_p.add_argument("--fidelity-threshold", type=_threshold, default=0.95)
    run_p.add_argument("--layout", default=None, help="vQPU layout JSON for pblock")
    run_p.add_argument("--calib", default=None, help="calibration JSON for auto")
    run_p.add_argument("--output", default=None, help="write result JSON here")
    run_p.set_defaults(func=_cmd_run)

    pred_p = sub.add_parser("predict", help="predict runtimes without executing", parents=[common])
    pred_p.add_argument("--input", required=True)
    pred_p.add_argument("--shots", type=_positive_int, default=1000)
    pred_p.add_argument("--calib", default=None)
    pred_p.add_argument("--output", default=None)
    pred_p.set_defaults(func=_cmd_predict)

    cal_p = sub.add_parser("calibrate", help="time this machine and save a model", parents=[common])
    cal_p.add_argument("--out", required=True)
    cal_p.add_argument("--seed", type=int, default=0)
    cal_p.set_defaults(func=_cmd_calibrate)

    batch_p = sub.add_parser("batch", help="run a directory of circuits", parents=[common])
    batch_p.add_argument("--dir", required=True)
    batch_p.add_argument("--policy", default="auto", choices=POLICIES)
    batch_p.add_argument("--calib", default=None)
    batch_p.add_argument("--shots", type=_positive_int, default=1000)
    batch_p.add_argument("--seed", type=int, default=0)
    batch_p.add_argument("--fidelity-threshold", type=_threshold, default=0.95)
    batch_p.add_argument("--report", default=None, help="write report JSON here")
    batch_p.set_defaults(func=_cmd_batch)

    gen_p = sub.add_parser("gen-suite", help="write the benchmark circuit suite", parents=[common])
    gen_p.add_argument("--out", required=True)
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.set_defaults(func=_cmd_gen_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        if args.layout is not None and args.backend != "pblock":
            parser.error("--layout needs --backend pblock")
        if args.chi is not None and args.backend not in ("auto", "mps"):
            parser.error(f"--chi applies to mps, not {args.backend}")
    try:
        return args.func(args)
    except Exception as exc:  # classified into exit codes for scripting
        _emit_error(exc, args.error_json)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
