"""Host timing calibration for the runtime cost model.

Calibration times small synthetic workloads on the current machine and
fits one coefficient per (backend, gate class, size) grid point, plus a
per-backend linear shot model.  Every sample is the median of several
repetitions, and each repetition loops the operation until it runs long
enough for the wall clock to resolve it.
"""
from __future__ import annotations

import itertools
import json
import statistics
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import statevector
from .circuit import Circuit, Instruction
from .gates import single_qubit_matrix, two_qubit_matrix
from .interpolate import MonotoneCurve, TensorSurface
from .mps import MpsState
from .stabilizer import Tableau

# Version 3: the sv "1q" curve is a one-qubit gate's share of
# ``statevector.fuse``, not a kernel of its own.
MODEL_VERSION = 3
_COEF_FLOOR = 1e-12


class CalibrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class CalibrationConfig:
    sv_grid: tuple[int, ...] = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)
    mps_grid_n: tuple[int, ...] = (4, 8, 12, 16, 20, 24)
    mps_grid_chi: tuple[int, ...] = (2, 4, 8, 16, 32, 64)
    stab_grid: tuple[int, ...] = (4, 8, 16, 32, 64)
    shot_counts: tuple[int, ...] = (1, 10, 100, 1000)
    repetitions: int = 5
    min_sample_seconds: float = 5e-4
    max_threads: int | None = None  # accepted for older callers; has no effect


def _median_seconds(fn, reps: int, min_seconds: float) -> float:
    """Median per-call time, looping each sample past the timer floor."""
    samples = []
    for _ in range(reps):
        k = 1
        while True:
            t0 = time.perf_counter()
            for _ in range(k):
                fn()
            dt = time.perf_counter() - t0
            if dt >= min_seconds or k >= 1 << 22:
                samples.append(dt / k)
                break
            k *= 2
    return statistics.median(samples)


def _positive(value: float) -> float:
    return max(float(value), _COEF_FLOOR)


@dataclass
class CalibrationModel:
    version: int
    created: str
    sv_grid: tuple[int, ...]
    sv_curves: dict[str, tuple[float, ...]]
    mps_grid_n: tuple[int, ...]
    mps_grid_chi: tuple[int, ...]
    mps_surfaces: dict[str, tuple[tuple[float, ...], ...]]
    stab_grid: tuple[int, ...]
    stab_curves: dict[str, tuple[float, ...]]
    shot_coeffs: dict[str, tuple[float, float]]
    _sv: dict[str, MonotoneCurve] = field(init=False, repr=False)
    _mps: dict[str, TensorSurface] = field(init=False, repr=False)
    _stab: dict[str, MonotoneCurve] = field(init=False, repr=False)

    def __post_init__(self):
        self.validate()
        self._sv = {k: MonotoneCurve(self.sv_grid, v) for k, v in self.sv_curves.items()}
        self._mps = {
            k: TensorSurface(self.mps_grid_n, self.mps_grid_chi, v)
            for k, v in self.mps_surfaces.items()
        }
        self._stab = {k: MonotoneCurve(self.stab_grid, v) for k, v in self.stab_curves.items()}

    def validate(self) -> None:
        if self.version != MODEL_VERSION:
            raise CalibrationError(
                f"calibration version {self.version} is not supported "
                f"(expected {MODEL_VERSION})"
            )
        for name, grid in (
            ("sv", self.sv_grid),
            ("mps n", self.mps_grid_n),
            ("mps chi", self.mps_grid_chi),
            ("stab", self.stab_grid),
        ):
            if len(grid) == 0 or any(b <= a for a, b in zip(grid, grid[1:])):
                raise CalibrationError(f"{name} grid must be non-empty and increasing")
        for klass in ("1q", "2q"):
            if klass not in self.sv_curves:
                raise CalibrationError(f"sv curves missing class {klass!r}")
        for klass in ("1q", "2q", "measure"):
            if klass not in self.mps_surfaces:
                raise CalibrationError(f"mps surfaces missing class {klass!r}")
        for klass in ("gate", "measure"):
            if klass not in self.stab_curves:
                raise CalibrationError(f"stab curves missing class {klass!r}")
        flat = [c for curve in self.sv_curves.values() for c in curve]
        flat += [c for surf in self.mps_surfaces.values() for row in surf for c in row]
        flat += [c for curve in self.stab_curves.values() for c in curve]
        flat += [c for pair in self.shot_coeffs.values() for c in pair]
        if any(not (c > 0) for c in flat):
            raise CalibrationError("all calibrated coefficients must be positive")
        for backend in ("sv", "mps", "stab"):
            if backend not in self.shot_coeffs:
                raise CalibrationError(f"shot coefficients missing backend {backend!r}")

    def sv_coef(self, klass: str, n: int) -> float:
        return self._sv[klass](n)

    def mps_coef(self, klass: str, n: int, chi: int) -> float:
        return self._mps[klass](n, chi)

    def stab_coef(self, klass: str, n: int) -> float:
        return self._stab[klass](n)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "created": self.created,
            "sv": {
                "grid_n": list(self.sv_grid),
                "curves": {k: list(v) for k, v in self.sv_curves.items()},
            },
            "mps": {
                "grid_n": list(self.mps_grid_n),
                "grid_chi": list(self.mps_grid_chi),
                "surfaces": {
                    k: [list(row) for row in v] for k, v in self.mps_surfaces.items()
                },
            },
            "stab": {
                "grid_n": list(self.stab_grid),
                "curves": {k: list(v) for k, v in self.stab_curves.items()},
            },
            "shots": {
                k: {"c1": c1, "c2": c2} for k, (c1, c2) in self.shot_coeffs.items()
            },
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "CalibrationModel":
        try:
            return cls(
                version=raw["version"],
                created=raw["created"],
                sv_grid=tuple(raw["sv"]["grid_n"]),
                sv_curves={k: tuple(v) for k, v in raw["sv"]["curves"].items()},
                mps_grid_n=tuple(raw["mps"]["grid_n"]),
                mps_grid_chi=tuple(raw["mps"]["grid_chi"]),
                mps_surfaces={
                    k: tuple(tuple(row) for row in v)
                    for k, v in raw["mps"]["surfaces"].items()
                },
                stab_grid=tuple(raw["stab"]["grid_n"]),
                stab_curves={k: tuple(v) for k, v in raw["stab"]["curves"].items()},
                shot_coeffs={
                    k: (v["c1"], v["c2"]) for k, v in raw["shots"].items()
                },
            )
        except (KeyError, TypeError, ValueError) as exc:
            # ValueError: a curve or surface whose shape does not fit its grid.
            raise CalibrationError(f"malformed calibration data: {exc}") from exc

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "CalibrationModel":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise CalibrationError(
                f"no calibration file at {path}; run `polysim calibrate` on this "
                "machine first"
            ) from None
        except json.JSONDecodeError as exc:
            raise CalibrationError(f"calibration file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)


def _sv_point(n: int, reps: int, min_seconds: float) -> tuple[float, float]:
    """Seconds per amplitude of a one- and a two-qubit gate as sv runs them.

    ``statevector.fuse`` folds each one-qubit gate into the next two-qubit
    gate on its qubit, so a one-qubit gate costs its share of the fusion
    pass, and a two-qubit gate one kernel on the dense 4x4 that folding
    leaves.  A run of one-qubit gates that no two-qubit gate absorbs still
    costs a kernel of its own, which this split does not price.
    """
    amps = statevector.zero_state(n)
    rx = single_qubit_matrix("rx", (0.3,))
    fused = two_qubit_matrix("cx") @ np.kron(rx, rx)
    layer = [Instruction("rx", (q,), (0.3,)) for q in range(n)]
    layer += [Instruction("cx", (q, q + 1)) for q in range(0, n - 1, 2)]
    pairs = itertools.cycle([(q, (q + 1) % n) for q in range(n)])
    t1 = _median_seconds(lambda: statevector.fuse(layer), reps, min_seconds) / n
    t2 = _median_seconds(
        lambda: statevector.apply_2q(amps, n, *next(pairs), fused), reps, min_seconds
    )
    dim = float(1 << n)
    return _positive(t1 / dim), _positive(t2 / dim)


def _mps_point(
    n: int, chi: int, reps: int, min_seconds: float, rng: np.random.Generator
) -> tuple[float, float, float]:
    state = MpsState.random(n, chi, rng)
    u = single_qubit_matrix("u", (0.4, 0.2, 0.9))
    cx = two_qubit_matrix("cx")
    sites = itertools.cycle(range(n))
    lefts = itertools.cycle(range(n - 1))
    t1 = _median_seconds(lambda: state.apply_1q(next(sites), u), reps, min_seconds)
    t2 = _median_seconds(
        lambda: state.apply_two_site(next(lefts), cx), reps, min_seconds
    )
    t_copy = _median_seconds(state.copy, reps, min_seconds)

    def measure_clone():
        clone = state.copy()
        for q in range(n):
            clone.measure(q, rng)

    t_meas = (_median_seconds(measure_clone, reps, min_seconds) - t_copy) / n
    unit_2q = float(n) * chi**3
    return (
        _positive(t1 / chi**2),
        _positive(t2 / unit_2q),
        _positive(t_meas / unit_2q),
    )


def _stab_point(
    n: int, reps: int, min_seconds: float, rng: np.random.Generator
) -> tuple[float, float]:
    tab = Tableau(n)
    for _ in range(3 * n):
        q = int(rng.integers(n))
        roll = rng.random()
        if roll < 0.4 and n > 1:
            tab.cx(q, (q + 1) % n)
        elif roll < 0.7:
            tab.h(q)
        else:
            tab.s(q)
    ops = itertools.cycle(
        [lambda q=q: tab.h(q) for q in range(n)]
        + [lambda q=q: tab.s(q) for q in range(n)]
        + ([lambda q=q: tab.cx(q, (q + 1) % n) for q in range(n)] if n > 1 else [])
    )
    t_gate = _median_seconds(lambda: next(ops)(), reps, min_seconds)
    t_copy = _median_seconds(tab.copy, reps, min_seconds)

    def measure_clone():
        clone = tab.copy()
        for q in range(n):
            clone.measure(q, rng)

    t_meas = (_median_seconds(measure_clone, reps, min_seconds) - t_copy) / n
    unit = float(n) * n
    return _positive(t_gate / unit), _positive(t_meas / unit)


def _terminal_workload() -> Circuit:
    """Clifford circuit with terminal measurements for the shot fit.

    Every backend runs it, and its per-shot sampling cost (inverse-CDF draws,
    branch splitting, or the tableau's GF(2) draw) lands in the slope.
    """
    c = Circuit(6, 6)
    c.gate("h", 0)
    for q in range(5):
        c.gate("cx", q, q + 1)
    c.gate("h", 3)
    c.gate("s", 4)
    c.measure_all()
    return c


def fit_shot_model(shot_counts, seconds) -> tuple[float, float]:
    """Least-squares (c1, c2) for seconds ~ c1 + c2 * shots."""
    shot_counts = np.asarray(shot_counts, dtype=float)
    seconds = np.asarray(seconds, dtype=float)
    if shot_counts.shape != seconds.shape or shot_counts.size < 2:
        raise ValueError("need matching shot counts and timings, at least two points")
    design = np.column_stack([np.ones(shot_counts.size), shot_counts])
    (c1, c2), *_ = np.linalg.lstsq(design, seconds, rcond=None)
    return float(c1), float(c2)


def _fit_shot_coeffs(
    backend: str, shot_counts: tuple[int, ...], reps: int, min_seconds: float
) -> tuple[float, float]:
    from .dispatch import run_circuit

    c = _terminal_workload()
    chi = 4 if backend == "mps" else None
    medians = []
    for shots in shot_counts:
        t = _median_seconds(
            lambda s=shots: run_circuit(c, backend, s, seed=11, chi=chi),
            reps,
            min_seconds,
        )
        medians.append(t)
    c1, c2 = fit_shot_model(shot_counts, medians)
    return _positive(c1), _positive(c2)


def calibrate(config: CalibrationConfig | None = None, seed: int = 0) -> CalibrationModel:
    cfg = config or CalibrationConfig()
    rng = np.random.default_rng(seed)
    reps, floor = cfg.repetitions, cfg.min_sample_seconds

    sv_1q, sv_2q = [], []
    for n in cfg.sv_grid:
        a, b = _sv_point(n, reps, floor)
        sv_1q.append(a)
        sv_2q.append(b)

    mps_1q, mps_2q, mps_meas = [], [], []
    for n in cfg.mps_grid_n:
        row_1q, row_2q, row_meas = [], [], []
        for chi in cfg.mps_grid_chi:
            a, b, m = _mps_point(n, chi, reps, floor, rng)
            row_1q.append(a)
            row_2q.append(b)
            row_meas.append(m)
        mps_1q.append(tuple(row_1q))
        mps_2q.append(tuple(row_2q))
        mps_meas.append(tuple(row_meas))

    stab_gate, stab_meas = [], []
    for n in cfg.stab_grid:
        g, m = _stab_point(n, reps, floor, rng)
        stab_gate.append(g)
        stab_meas.append(m)

    shot_coeffs = {
        backend: _fit_shot_coeffs(backend, cfg.shot_counts, reps, floor)
        for backend in ("sv", "mps", "stab")
    }

    return CalibrationModel(
        version=MODEL_VERSION,
        created=datetime.now(timezone.utc).isoformat(),
        sv_grid=tuple(cfg.sv_grid),
        sv_curves={"1q": tuple(sv_1q), "2q": tuple(sv_2q)},
        mps_grid_n=tuple(cfg.mps_grid_n),
        mps_grid_chi=tuple(cfg.mps_grid_chi),
        mps_surfaces={
            "1q": tuple(mps_1q),
            "2q": tuple(mps_2q),
            "measure": tuple(mps_meas),
        },
        stab_grid=tuple(cfg.stab_grid),
        stab_curves={"gate": tuple(stab_gate), "measure": tuple(stab_meas)},
        shot_coeffs=shot_coeffs,
    )
