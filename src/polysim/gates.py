"""Unitary matrices for the supported gate set.

Two-qubit matrices follow a little-endian convention relative to the
instruction's qubit list: the basis index of the 4-dimensional local space
is ``s_first + 2 * s_second``, i.e. the first listed qubit is the low bit.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

_SQ2 = 1.0 / math.sqrt(2.0)

_FIXED_1Q = {
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex),
}
_FIXED_1Q_ENTRIES = {kind: tuple(m.ravel().tolist()) for kind, m in _FIXED_1Q.items()}

# Index convention: column/row = control + 2 * target for cx, symmetric gates
# are unaffected by the ordering.
_FIXED_2Q = {
    "cx": np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    ),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


def single_qubit_entries(kind: str, params: tuple[float, ...] = ()) -> tuple[complex, ...]:
    """The 2x2 unitary of a one-qubit gate kind, row-major, as Python complex numbers."""
    if kind in _FIXED_1Q_ENTRIES:
        return _FIXED_1Q_ENTRIES[kind]
    if kind == "rx":
        (theta,) = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return (complex(c), -1j * s, -1j * s, complex(c))
    if kind == "ry":
        (theta,) = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return (complex(c), complex(-s), complex(s), complex(c))
    if kind == "rz":
        (theta,) = params
        return (cmath.exp(-0.5j * theta), 0j, 0j, cmath.exp(0.5j * theta))
    if kind == "u":
        theta, phi, lam = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return (
            complex(c),
            -cmath.exp(1j * lam) * s,
            cmath.exp(1j * phi) * s,
            cmath.exp(1j * (phi + lam)) * c,
        )
    raise KeyError(f"not a one-qubit gate kind: {kind}")


def single_qubit_matrix(kind: str, params: tuple[float, ...] = ()) -> np.ndarray:
    """Return the 2x2 unitary for a one-qubit gate kind."""
    if kind in _FIXED_1Q:
        return _FIXED_1Q[kind]
    return np.array(single_qubit_entries(kind, params)).reshape(2, 2)


def two_qubit_matrix(kind: str) -> np.ndarray:
    """Return the 4x4 unitary for a two-qubit gate kind (first qubit = low bit)."""
    try:
        return _FIXED_2Q[kind]
    except KeyError:
        raise KeyError(f"not a two-qubit gate kind: {kind}") from None
