"""Monotone piecewise-cubic interpolation over calibration grids.

Curves use PCHIP (Fritsch-Carlson slope limiting, with the one-sided
three-point end slopes of Moler's pchiptx), which reproduces grid nodes
exactly and never overshoots monotone data.  Queries outside a grid clamp
to the nearest endpoint.  Surfaces apply the 1-D rule per row along the chi
axis and then once along the n axis.  Curves are built per new chi on the
selector's path, so building and evaluating one is plain Python on a few
floats rather than a call into an array library.
"""
from __future__ import annotations

from bisect import bisect_right

import numpy as np


class InterpolationError(ValueError):
    pass


def _check_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise InterpolationError("grid must be a non-empty 1-D sequence")
    if np.any(np.diff(grid) <= 0):
        raise InterpolationError("grid must be strictly increasing")
    return grid


def _sign(v: float) -> int:
    return (v > 0) - (v < 0)


def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_slopes(x: list[float], y: list[float]) -> list[float]:
    h = [b - a for a, b in zip(x, x[1:])]
    m = [(y[k + 1] - y[k]) / h[k] for k in range(len(h))]
    if len(m) == 1:
        return [m[0], m[0]]
    d = [_end_slope(h[0], h[1], m[0], m[1])]
    for k in range(1, len(m)):
        m0, m1 = m[k - 1], m[k]
        if m0 == 0.0 or m1 == 0.0 or _sign(m0) != _sign(m1):
            d.append(0.0)
        else:  # weighted harmonic mean of the neighbouring secants
            w1, w2 = 2.0 * h[k] + h[k - 1], h[k] + 2.0 * h[k - 1]
            d.append((w1 + w2) / (w1 / m0 + w2 / m1))
    d.append(_end_slope(h[-1], h[-2], m[-1], m[-2]))
    return d


class MonotoneCurve:
    def __init__(self, grid, values):
        self.grid = _check_grid(grid)
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise InterpolationError("values must match the grid length")
        self._x = self.grid.tolist()
        y = self.values.tolist()
        self._pieces: list[tuple[float, float, float, float]] = []
        if len(y) > 1:
            d = _pchip_slopes(self._x, y)
            for k in range(len(y) - 1):
                h = self._x[k + 1] - self._x[k]
                m = (y[k + 1] - y[k]) / h
                t = (d[k] + d[k + 1] - 2.0 * m) / h
                self._pieces.append((t / h, (m - d[k]) / h - t, d[k], y[k]))
        self._ends = (y[0], y[-1])

    def __call__(self, x: float) -> float:
        x = float(x)
        xs = self._x
        if x <= xs[0]:
            return self._ends[0]
        if x >= xs[-1]:
            return self._ends[1]
        k = bisect_right(xs, x) - 1
        c3, c2, c1, c0 = self._pieces[k]
        t = x - xs[k]
        return ((c3 * t + c2) * t + c1) * t + c0


class TensorSurface:
    """Rectangular (n, chi) coefficient surface, interpolated chi-first."""

    def __init__(self, grid_n, grid_chi, values):
        self.grid_n = _check_grid(grid_n)
        self.grid_chi = _check_grid(grid_chi)
        table = np.asarray(values, dtype=float)
        if table.shape != (self.grid_n.size, self.grid_chi.size):
            raise InterpolationError(
                f"surface shape {table.shape} does not match "
                f"({self.grid_n.size}, {self.grid_chi.size})"
            )
        self.values = table
        self._rows = [MonotoneCurve(self.grid_chi, row) for row in table]
        # chi values repeat heavily across queries (powers of two from the
        # selection policy), so the derived n-curve is kept per chi; at a
        # grid chi it is the table's column, built here rather than on the
        # selector's first query.
        self._columns = {
            chi: MonotoneCurve(self.grid_n, table[:, j])
            for j, chi in enumerate(self.grid_chi.tolist())
        }

    def __call__(self, n: float, chi: float) -> float:
        chi = float(chi)
        curve = self._columns.get(chi)
        if curve is None:
            curve = MonotoneCurve(self.grid_n, [row(chi) for row in self._rows])
            self._columns[chi] = curve
        return curve(n)
