"""Host-speed probe: puts every timing on one reference speed of this host.

On a shared virtual machine the same work can take twice as long for tens
of seconds at a time, when a neighbour loads the physical core.  A run that
falls in such a stretch would read slower for reasons outside the program.
The probe times a fixed reference computation before and after each timed
piece of work, and the benchmark scales that piece by

    REFERENCE_SECONDS[kind] / (mean of the two probe times).

A change to polysim cannot move the probe: it calls only Python and numpy.
Two kinds of probe track the two ways a neighbour slows this process.  The
``compute`` probe mixes interpreter loops, small numpy operations on short
arrays, a small matrix product and a pass over a 2 MiB array, like most of
polysim.  The ``memory`` probe makes one scaled copy of a 32 MiB array, like
the state-vector kernels on states far larger than the core's caches; the
compute probe tracks those poorly.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# Probe times on the reference host when no neighbour loads its core
# (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4; see README.md).
REFERENCE_SECONDS = {"compute": 0.005, "memory": 0.012}


class HostSpeed:
    def __init__(self, kind: str = "compute"):
        self.kind = kind
        self.reference = REFERENCE_SECONDS[kind]
        rng = np.random.default_rng(0)
        self._mat = rng.random((48, 48))
        self._bits = np.zeros((40, 20), dtype=np.uint8)
        self._amps = np.ones(1 << (21 if kind == "memory" else 17), dtype=complex)

    def _reference(self) -> None:
        if self.kind == "memory":
            self._amps * 1.0001
            return
        table = {}
        for i in range(4000):
            table[str(i)] = i * 2
        bits = self._bits
        for i in range(1200):
            bits[:, i % 20] ^= bits[:, (i + 1) % 20]
        for _ in range(120):
            self._mat @ self._mat
        for _ in range(4):
            self._amps * 1.0001

    def probe(self) -> float:
        """Median of three timings of the reference computation, in seconds."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            self._reference()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def timed(self, fn):
        """Run ``fn()``; return (result, raw seconds, seconds at reference speed)."""
        before = self.probe()
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        after = self.probe()
        return result, raw, self.scale(raw, before, after)

    def scale(self, raw: float, before: float, after: float) -> float:
        """``raw`` seconds at the reference speed, given the probes around them."""
        return raw * self.reference / ((before + after) / 2)
