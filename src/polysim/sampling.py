"""Alias-method sampling for discrete distributions.

Construction follows the two-worklist scheme: bins with scaled probability
at or below one (ties included) start on the small list, the rest on the
large list, and surplus mass from large bins fills the deficits of small
bins.  The matching is done in vectorized rounds over cumulative sums so
tables over multi-million-entry supports build in numpy time rather than
interpreter time.  Sampling costs one uniform draw and one comparison per
sample regardless of support size.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SamplingError(ValueError):
    pass


@dataclass
class AliasTable:
    size: int
    prob: np.ndarray   # acceptance threshold per bin, in [0, 1]
    alias: np.ndarray  # redirect target per bin

    @classmethod
    def from_probs(cls, probs: np.ndarray) -> "AliasTable":
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise SamplingError("need a non-empty 1-D probability vector")
        if np.any(probs < 0):
            raise SamplingError("negative probability")
        total = probs.sum()
        if not np.isclose(total, 1.0, rtol=0, atol=1e-9):
            raise SamplingError(f"probabilities sum to {total}, not 1")
        m = probs.size
        scaled = probs * (m / total)
        prob_row = np.ones(m, dtype=float)
        alias_row = np.arange(m, dtype=np.int64)

        large_mask = scaled > 1.0
        larges = np.flatnonzero(large_mask)
        smalls = np.flatnonzero(~large_mask)
        remaining = scaled[larges].copy()

        while smalls.size and larges.size:
            deficits = 1.0 - scaled[smalls]
            capacity = remaining - 1.0
            d_cum = np.cumsum(deficits)
            c_cum = np.cumsum(capacity)
            owner = np.searchsorted(c_cum, d_cum, side="left")
            np.clip(owner, 0, larges.size - 1, out=owner)
            prob_row[smalls] = scaled[smalls]
            alias_row[smalls] = larges[owner]
            absorbed = np.bincount(owner, weights=deficits, minlength=larges.size)
            remaining = remaining - absorbed
            converted = remaining <= 1.0
            if not converted.any():
                # Floating-point drift can leave every remainder a hair above
                # one; the residual surplus is at interpolation-noise scale.
                break
            smalls = larges[converted]
            scaled[smalls] = remaining[converted]
            larges = larges[~converted]
            remaining = remaining[~converted]

        return cls(size=m, prob=prob_row, alias=alias_row)

    def sample_indices(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n outcome indices: one uniform and one comparison each."""
        v = rng.random(n) * self.size
        idx = v.astype(np.int64)
        frac = v - idx
        return np.where(frac < self.prob[idx], idx, self.alias[idx])
