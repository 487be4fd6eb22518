"""Host timing calibration for the runtime cost model.

Calibration times small synthetic workloads on the current machine.  For
each priced backend it stores one table: per op class, the measured
seconds of one op at each (n, chi) grid point divided by the class's cost
unit in ``PRICED``, plus a linear shot model.  Every sample is the median
of several repetitions, and each repetition loops the operation until it
runs long enough for the wall clock to resolve it.

Between grid nodes a coefficient is read as a power law in n and in chi
(``polysim.interpolate``); outside a grid it clamps to the nearest node
while its cost unit keeps growing with n and chi.  Grids, coefficients
and shot pairs must be finite and positive.
"""
from __future__ import annotations

import itertools
import json
import math
import statistics
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import statevector
from .circuit import Circuit, Instruction
from .gates import single_qubit_matrix, two_qubit_matrix
from .interpolate import TensorSurface
from .mps import MpsState
from .stabilizer import Tableau

# Version 4: one table per priced backend, laid out by ``PRICED``.
MODEL_VERSION = 4
_COEF_FLOOR = 1e-12


class CalibrationError(RuntimeError):
    pass


def _amplitudes(n: int, chi: int) -> float:
    return float(1 << n)


def _site(n: int, chi: int) -> float:
    return float(chi) ** 2


def _chain(n: int, chi: int) -> float:
    return float(n) * chi**3


def _tableau(n: int, chi: int) -> float:
    return float(n) * n


# The priced backends in the selector's tie order (on equal estimates the
# smaller state wins), each with its op classes and the unit that a class's
# coefficient multiplies: one op of that class on n qubits at bond
# dimension chi costs coefficient(n, chi) * unit(n, chi) seconds.  sv and
# stab have no bond dimension and are priced at chi = 1.
PRICED = {
    "stab": {"gate": _tableau, "measure": _tableau},
    "mps": {"1q": _site, "2q": _chain, "measure": _chain},
    "sv": {"1q": _amplitudes, "2q": _amplitudes},
}


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


def _check_version(version) -> None:
    if version != MODEL_VERSION:
        raise CalibrationError(
            f"calibration version {version} is not supported (expected "
            f"{MODEL_VERSION}); run `polysim calibrate` on this machine to rebuild it"
        )


@dataclass(frozen=True)
class BackendTable:
    """One backend's calibration: per class, rows over ``grid_n`` of
    coefficients over ``grid_chi``, and the shot model ``(c1, c2)``."""

    grid_n: tuple[int, ...]
    grid_chi: tuple[int, ...]
    coefs: dict[str, tuple[tuple[float, ...], ...]]
    shots: tuple[float, float]


@dataclass
class CalibrationModel:
    version: int
    created: str
    tables: dict[str, BackendTable]
    _surfaces: dict[str, list[TensorSurface]] = field(init=False, repr=False)
    _seconds: dict[tuple, tuple[float, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        self.validate()
        self._surfaces = {}
        for backend, classes in PRICED.items():
            t = self.tables[backend]
            self._surfaces[backend] = [
                TensorSurface(t.grid_n, t.grid_chi, t.coefs[klass]) for klass in classes
            ]
        self._seconds = {}

    def validate(self) -> None:
        _check_version(self.version)
        for backend, classes in PRICED.items():
            t = self.tables.get(backend)
            if t is None:
                raise CalibrationError(f"no calibration table for backend {backend!r}")
            for klass in classes:
                if klass not in t.coefs:
                    raise CalibrationError(f"{backend} table missing class {klass!r}")
            # log axes need grids above 0; JSON reads 1e400 as inf
            if not all(0 < x < math.inf for x in (*t.grid_n, *t.grid_chi)):
                raise CalibrationError(f"{backend} grids must be finite and positive")
            flat = [c for rows in t.coefs.values() for row in rows for c in row]
            if len(t.shots) != 2 or not all(0 < c < math.inf for c in flat + list(t.shots)):
                raise CalibrationError(
                    f"{backend} needs finite positive coefficients and a shot pair (c1, c2)"
                )

    def seconds(self, backend: str, n: int, chi: int = 1) -> tuple[float, ...]:
        """Seconds of one op of each of ``backend``'s classes, in ``PRICED`` order.

        Kept per (backend, n, chi): the selector asks for few distinct sizes.
        """
        key = (backend, n, chi)
        priced = self._seconds.get(key)
        if priced is None:
            units = PRICED[backend].values()
            priced = tuple(
                surface(n, chi) * unit(n, chi)
                for surface, unit in zip(self._surfaces[backend], units)
            )
            self._seconds[key] = priced
        return priced

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "created": self.created,
            "tables": {backend: asdict(t) for backend, t in self.tables.items()},
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "CalibrationModel":
        try:
            _check_version(raw["version"])
            tables = {}
            for backend, t in raw["tables"].items():
                tables[backend] = BackendTable(
                    grid_n=tuple(t["grid_n"]),
                    grid_chi=tuple(t["grid_chi"]),
                    coefs={k: tuple(map(tuple, rows)) for k, rows in t["coefs"].items()},
                    shots=tuple(t["shots"]),
                )
            return cls(version=raw["version"], created=raw["created"], tables=tables)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            # AttributeError: a list where a mapping belongs.  ValueError: a
            # grid that is empty or not increasing, or coefficients whose
            # shape does not fit their grid.
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


def _sv_point(n: int, reps: int, min_seconds: float) -> dict[str, float]:
    """Seconds of a one- and a two-qubit gate as sv runs them.

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
    return {"1q": t1, "2q": t2}


def _mps_point(
    n: int, chi: int, reps: int, min_seconds: float, rng: np.random.Generator
) -> dict[str, float]:
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
        # as the shot engine measures: p1, one draw, project
        clone = state.copy()
        for q in range(n):
            clone.project(q, int(rng.random() < clone.p1(q)))

    t_meas = (_median_seconds(measure_clone, reps, min_seconds) - t_copy) / n
    return {"1q": t1, "2q": t2, "measure": t_meas}


def _stab_point(
    n: int, reps: int, min_seconds: float, rng: np.random.Generator
) -> dict[str, float]:
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
        # the symbolic measurement ``stabilizer.run`` makes: no outcome is drawn
        clone = tab.copy()
        for q in range(n):
            clone.measure(q)

    t_meas = (_median_seconds(measure_clone, reps, min_seconds) - t_copy) / n
    return {"gate": t_gate, "measure": t_meas}


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
    # Each backend's grid and the timer of one point, which returns seconds
    # per op by class.  sv times first and draws nothing, so a seed gives
    # the same mps and stab states in this order.
    points = {
        "sv": (cfg.sv_grid, (1,), lambda n, chi: _sv_point(n, reps, floor)),
        "mps": (
            cfg.mps_grid_n,
            cfg.mps_grid_chi,
            lambda n, chi: _mps_point(n, chi, reps, floor, rng),
        ),
        "stab": (cfg.stab_grid, (1,), lambda n, chi: _stab_point(n, reps, floor, rng)),
    }
    tables = {}
    for backend, (grid_n, grid_chi, point) in points.items():
        times = [[point(n, chi) for chi in grid_chi] for n in grid_n]
        coefs = {
            klass: tuple(
                tuple(_positive(t[klass] / unit(n, chi)) for t, chi in zip(row, grid_chi))
                for row, n in zip(times, grid_n)
            )
            for klass, unit in PRICED[backend].items()
        }
        shots = _fit_shot_coeffs(backend, cfg.shot_counts, reps, floor)
        tables[backend] = BackendTable(tuple(grid_n), tuple(grid_chi), coefs, shots)

    return CalibrationModel(
        version=MODEL_VERSION,
        created=datetime.now(timezone.utc).isoformat(),
        tables=tables,
    )
