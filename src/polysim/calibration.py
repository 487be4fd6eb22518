"""Host timing calibration for the runtime cost model.

Calibration times small synthetic workloads on the current machine.  For
each priced backend it stores one table: per op class, the measured
seconds of one op at each (n, chi) grid point divided by the class's cost
unit in ``PRICED``, plus a linear shot model.  Every sample is the median
of several repetitions, and each repetition loops the operation until it
runs long enough for the wall clock to resolve it.

stab's ``gate`` coefficient is one ``Tableau.apply_gates`` call, the call
``stabilizer.run`` makes between two measurements, on a run of h and s on
every qubit and, for n > 1, a ring of cx, divided by the run's length; so
the price includes reading and writing the touched columns.  Only stab prices a measurement, the symbolic ``Tableau.measure``
that ``stabilizer.run`` makes for each one.  sv and mps draw terminal
measurements in the shot sampler, which the shot model prices; the
projections that split mid-circuit walks are not priced yet.

Between grid nodes a coefficient is read as a power law in n and in chi,
which is a straight line on log axes; outside a grid it clamps to the
nearest node while its cost unit keeps growing with n and chi.  Grids must
be non-empty and strictly increasing, each class's rows must fit them, and
grids, coefficients and shot pairs must be finite and positive.
"""
from __future__ import annotations

import itertools
import json
import math
import statistics
import time
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from numbers import Real

import numpy as np

from . import statevector
from .circuit import Circuit, Instruction
from .gates import single_qubit_matrix, two_qubit_matrix
from .mps import MpsState
from .stabilizer import Tableau

# Version 6: one table per priced backend, laid out by ``PRICED``; sv's 2q
# class is half a 4-qubit kernel from ``statevector.WIDE_MIN`` on.
MODEL_VERSION = 6
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
    "mps": {"1q": _site, "2q": _chain},
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


def _loglog(xs, y, x: float) -> float:
    """The curve through nodes ``(xs[k], y(k))`` read at ``x``.

    A power law between neighbouring nodes, ``y0 * (y1 / y0) ** t`` with
    ``t = log(x / x0) / log(x1 / x0)``: exact at nodes, monotone on each
    segment, and clamped outside the grid.  It asks ``y`` for the one or two
    nodes it reads, so a table read evaluates only the rows that the n
    segment needs.
    """
    last = len(xs) - 1
    if x <= xs[0]:
        return y(0)
    if x >= xs[last]:
        return y(last)
    k = bisect_right(xs, x) - 1
    x0, y0 = xs[k], y(k)
    if x == x0:  # what the power law gives at its node, without the log and pow
        return y0
    return y0 * (y(k + 1) / y0) ** (math.log(x / x0) / math.log(xs[k + 1] / x0))


def _finite_positive(values) -> bool:
    # log axes need values above 0; JSON reads 1e400 as inf
    return all(isinstance(v, Real) and 0 < v < math.inf for v in values)


@dataclass(frozen=True)
class BackendTable:
    """One backend's calibration: per class, rows over ``grid_n`` of
    coefficients over ``grid_chi``, and the shot model ``(c1, c2)``."""

    grid_n: tuple[int, ...]
    grid_chi: tuple[int, ...]
    coefs: dict[str, tuple[tuple[float, ...], ...]]
    shots: tuple[float, float]

    def read(self, klass: str, n: float, chi: float) -> float:
        """``klass``'s coefficient at (n, chi): each row read along chi, then
        the column of those values along n.  That is bilinear in log space,
        so the other order would differ only in rounding."""
        rows, grid_chi = self.coefs[klass], self.grid_chi
        return _loglog(self.grid_n, lambda i: _loglog(grid_chi, rows[i].__getitem__, chi), n)


@dataclass
class CalibrationModel:
    version: int
    created: str
    tables: dict[str, BackendTable]
    _seconds: dict[tuple, tuple[float, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        self.validate()
        self._seconds = {}

    def validate(self) -> None:
        _check_version(self.version)
        for backend, classes in PRICED.items():
            t = self.tables.get(backend)
            if t is None:
                raise CalibrationError(f"no calibration table for backend {backend!r}")
            for grid in (t.grid_n, t.grid_chi):
                if not _finite_positive(grid):
                    raise CalibrationError(f"{backend} grids must be finite and positive")
                if not len(grid) or any(b <= a for a, b in zip(grid, grid[1:])):
                    raise CalibrationError(
                        f"{backend} grids must be non-empty and strictly increasing"
                    )
            for klass in classes:
                rows = t.coefs.get(klass)
                if rows is None:
                    raise CalibrationError(f"{backend} table missing class {klass!r}")
                if len(rows) != len(t.grid_n) or any(len(r) != len(t.grid_chi) for r in rows):
                    raise CalibrationError(
                        f"{backend} {klass} rows do not fit the "
                        f"{len(t.grid_n)} x {len(t.grid_chi)} grid"
                    )
            flat = [c for rows in t.coefs.values() for row in rows for c in row]
            if len(t.shots) != 2 or not _finite_positive(flat + list(t.shots)):
                raise CalibrationError(
                    f"{backend} coefficients and shot pair (c1, c2) must be finite and positive"
                )

    def seconds(self, backend: str, n: int, chi: int = 1) -> tuple[float, ...]:
        """Seconds of one op of each of ``backend``'s classes, in ``PRICED`` order.

        Kept per (backend, n, chi): the selector asks for few distinct sizes.
        """
        key = (backend, n, chi)
        priced = self._seconds.get(key)
        if priced is None:
            t = self.tables[backend]
            priced = tuple(
                t.read(klass, n, chi) * unit(n, chi) for klass, unit in PRICED[backend].items()
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
        except (AttributeError, KeyError, TypeError) as exc:
            # AttributeError: a list where a mapping belongs.  TypeError: a
            # number where a list belongs.  Bad grids and coefficients raise
            # CalibrationError from ``validate``.
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
    """Seconds of a one- and a two-qubit gate as sv runs them on n qubits.

    ``statevector.fuse`` folds each one-qubit gate into the next two-qubit
    gate on its qubit, so a one-qubit gate costs its share of the fusion
    pass.  Below ``statevector.WIDE_MIN`` a two-qubit gate costs one kernel
    on the dense 4x4 that folding leaves.  From ``WIDE_MIN`` on, ``fuse``
    groups two disjoint pairs into one 4-qubit kernel, so a two-qubit gate
    costs half of one dense 16x16 kernel, and the pass includes the
    grouping.  A run of one-qubit gates that no two-qubit gate absorbs
    still costs a kernel of its own, which this split does not price.
    """
    amps = statevector.zero_state(n)
    rx = single_qubit_matrix("rx", (0.3,))
    fused = two_qubit_matrix("cx") @ np.kron(rx, rx)
    layer = [Instruction("rx", (q,), (0.3,)) for q in range(n)]
    layer += [Instruction("cx", (q, q + 1)) for q in range(0, n - 1, 2)]
    t1 = _median_seconds(lambda: statevector.fuse(layer, n), reps, min_seconds) / n
    if n < statevector.WIDE_MIN:
        pairs = itertools.cycle([(q, (q + 1) % n) for q in range(n)])
        t2 = _median_seconds(
            lambda: statevector.apply_2q(amps, n, *next(pairs), fused), reps, min_seconds
        )
    else:
        wide = statevector.FusedGate((0, 1, 2, 3), np.kron(fused, fused))
        quads = itertools.cycle([tuple((q + i) % n for i in range(4)) for q in range(n)])
        t2 = _median_seconds(
            lambda: statevector.apply_instruction(amps, n, wide._replace(qubits=next(quads))),
            reps, min_seconds,
        ) / 2
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
    return {"1q": t1, "2q": t2}


def _stab_point(
    n: int, reps: int, min_seconds: float, rng: np.random.Generator
) -> dict[str, float]:
    tab = Tableau(n)
    warm = []
    for _ in range(3 * n):
        q = int(rng.integers(n))
        roll = rng.random()
        if roll < 0.4 and n > 1:
            warm.append(Instruction("cx", (q, (q + 1) % n)))
        elif roll < 0.7:
            warm.append(Instruction("h", (q,)))
        else:
            warm.append(Instruction("s", (q,)))
    tab.apply_gates(warm)
    gates = (
        [Instruction("h", (q,)) for q in range(n)]
        + [Instruction("s", (q,)) for q in range(n)]
        + ([Instruction("cx", (q, (q + 1) % n)) for q in range(n)] if n > 1 else [])
    )
    # one run between two measurements, as ``stabilizer.run`` applies it
    t_gate = _median_seconds(lambda: tab.apply_gates(gates), reps, min_seconds) / len(gates)
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
