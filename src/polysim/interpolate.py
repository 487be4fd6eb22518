"""Piecewise power-law interpolation over calibration grids.

Op costs follow powers of n and chi, which are straight lines on log axes,
so between neighbouring grid nodes a curve reads log y linearly in log x:
``y0 * (y1 / y0) ** t`` with ``t = log(x / x0) / log(x1 / x0)``.  That gives
the node values exactly at nodes and is monotone on each segment, so a curve
is monotone wherever its node values are.  Queries outside a grid clamp to
the nearest endpoint.  A surface reads each row along chi, then the column
of those values along n, with the same routine; that is bilinear in log
space, so the other order would differ only in rounding.  Log axes need
grids and values that are finite and positive.
"""
from __future__ import annotations

import math
from bisect import bisect_right


class InterpolationError(ValueError):
    pass


def _finite_positive(values, what: str) -> list[float]:
    try:
        out = [float(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise InterpolationError(f"{what} must be a sequence of numbers") from exc
    if not all(0 < v < math.inf for v in out):
        raise InterpolationError(f"{what} must be finite and positive")
    return out


def _grid(grid) -> list[float]:
    xs = _finite_positive(grid, "grid")
    if not xs:
        raise InterpolationError("grid must be a non-empty 1-D sequence")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise InterpolationError("grid must be strictly increasing")
    return xs


def _values(values, grid: list[float]) -> list[float]:
    ys = _finite_positive(values, "values")
    if len(ys) != len(grid):
        raise InterpolationError("values must match the grid length")
    return ys


def _loglog(xs: list[float], y, x: float) -> float:
    """The curve through nodes ``(xs[k], y(k))`` read at ``x``.

    A power law between neighbouring nodes, clamped outside the grid.  It
    asks ``y`` for the one or two nodes it reads, so a surface evaluates
    only the rows that the n segment needs.
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


class MonotoneCurve:
    def __init__(self, grid, values):
        self.grid = _grid(grid)
        self.values = _values(values, self.grid)

    def __call__(self, x: float) -> float:
        return _loglog(self.grid, self.values.__getitem__, float(x))


class TensorSurface:
    """Rectangular (n, chi) coefficient surface, read along chi, then along n."""

    def __init__(self, grid_n, grid_chi, values):
        self.grid_n = _grid(grid_n)
        self.grid_chi = _grid(grid_chi)
        rows = list(values)
        if len(rows) != len(self.grid_n):
            raise InterpolationError(
                f"surface has {len(rows)} rows for {len(self.grid_n)} grid_n nodes"
            )
        self.values = [_values(row, self.grid_chi) for row in rows]

    def __call__(self, n: float, chi: float) -> float:
        chi, rows = float(chi), self.values
        return _loglog(
            self.grid_n, lambda i: _loglog(self.grid_chi, rows[i].__getitem__, chi), float(n)
        )
