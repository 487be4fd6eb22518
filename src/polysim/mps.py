"""Matrix-product-state backend.

Site tensors have shape (chi_left, 2, chi_right) with qubit q at site q.
Two-site updates contract the neighboring tensors, apply the gate, and split
back with an SVD truncated to chi_max; singular values below 1e-14 of the
largest are dropped as numerically zero and the kept spectrum is renormalized,
with the discarded weight accumulated on the state.  Gates on non-adjacent
qubits ride swap chains, each swap itself a truncated two-site update.  The
center is kept canonical (Vidal, arXiv:quant-ph/0301063) by QR steps.

Bonds stay small on most circuits (mid-circuit runs rarely pass 4), so numpy's
per-call overhead, not arithmetic, sets the cost, and the kernels keep calls
few: a one-qubit gate is one broadcast ``matmul`` over the site tensor; a
two-site update forms theta as one ``(chi_l*2, chi) @ (chi, 2*chi_r)``
product viewed as ``(chi_l, 4, chi_r)`` and applies the 4x4 as one broadcast
``matmul``, with the fixed gates' matrices laid out for it once at import
(``_LOCAL``); a QR step absorbs R with ``@``, and across a bond of dimension
1 it is a rescaling.  A projection cuts the collapsed site's bonds to the
rank of its projected matrix, so a measured or reset qubit that the rest of
the state is not entangled across leaves bonds of 1.

``MpsState`` is the state the shot engine (``polysim.engine``) walks; its
``price`` bounds each updated bond by the Schmidt rank its qubits'
components allow, so the engine defers a feed-forward measurement only
where no bond can pass ``chi_max`` and the run stays exact.  Terminal
draws are one batched left-to-right sweep with binomial splits (Ferris &
Vidal, arXiv:1201.3974).  The adaptive loop picks chi from the discarded
weight of the run itself rather than from a separate check circuit.
"""
from __future__ import annotations

import math
import time

import numpy as np

from . import gates
from .circuit import ONE_QUBIT_GATES, TWO_QUBIT_GATES, Circuit
from .engine import run_shots
from .features import extract_features  # noqa: F401  (module attribute wrapped by perfbench)
from .result import BackendError, RunResult, counts_by_row

REL_CUTOFF = 1e-14
DEFAULT_CHI_CAP = 256

# ``MpsState.price`` in units of 0.7 us, the chi^2 slope of a two-site update
# between bonds of dimension chi: 41, 43, 52, 83 and 220 us at chi = 1, 2, 4,
# 8 and 16 on a 12-site state (numpy 2.4, OpenBLAS 0.3.31, one thread), so
# its overhead is about 57 units.  A projection (``p1`` then ``project``)
# took 41-60 us at chi 2-8, about one update; a one-qubit gate 5-10 us.
UPDATE_COST = 57
ONE_SITE_COST = 8


def _high_bit_first(m4: np.ndarray) -> np.ndarray:
    """A ``polysim.gates`` 4x4 with its two local bits exchanged."""
    perm = [0, 2, 1, 3]
    return m4[np.ix_(perm, perm)]


# The fixed two-qubit gates in ``apply_two_site``'s order, keyed by kind and
# whether the instruction's first qubit sits on the left site.
_LOCAL = {
    (kind, first_left): _high_bit_first(m4) if first_left else m4
    for kind in TWO_QUBIT_GATES
    for m4 in (gates.two_qubit_matrix(kind),)
    for first_left in (True, False)
}
_SWAP = _LOCAL["swap", True]

# ``sample_terminal``'s per-site records for a single live prefix (read only)
_BITS = (np.zeros(1, dtype=np.uint8), np.ones(1, dtype=np.uint8))
_SPLIT_BITS = np.array([0, 1], dtype=np.uint8)
_SPLIT_PARENTS = np.zeros(2, dtype=np.int32)
_ONE = np.ones(1)


class ChiCapError(BackendError):
    """Bond dimension doubling passed the cap without reaching the threshold."""


class MpsState:
    def __init__(self, n: int, chi_max: int):
        if n < 1:
            raise ValueError("need at least one site")
        if chi_max < 1:
            raise ValueError("chi_max must be at least 1")
        self.n = n
        self.chi_max = chi_max
        self.tensors = []
        for _ in range(n):
            t = np.zeros((1, 2, 1), dtype=complex)
            t[0, 0, 0] = 1.0
            self.tensors.append(t)
        self.center = 0
        self.truncation_error = 0.0

    @classmethod
    def random(cls, n: int, chi: int, rng: np.random.Generator) -> "MpsState":
        """A normalized random state with interior bonds saturated at chi."""
        state = cls(n, chi)
        dims = [1] + [min(chi, 2 ** min(i + 1, n - i - 1)) for i in range(n - 1)] + [1]
        state.tensors = [
            (rng.normal(size=(dims[i], 2, dims[i + 1]))
             + 1j * rng.normal(size=(dims[i], 2, dims[i + 1])))
            for i in range(n)
        ]
        state.center = 0
        state.move_center(n - 1)
        state.move_center(0)
        t = state.tensors[0]
        state.tensors[0] = t / np.linalg.norm(t)
        return state

    def copy(self) -> "MpsState":
        dup = MpsState.__new__(MpsState)
        dup.n = self.n
        dup.chi_max = self.chi_max
        dup.tensors = [t.copy() for t in self.tensors]
        dup.center = self.center
        dup.truncation_error = self.truncation_error
        return dup

    def price(self, inst, parts) -> float:
        """An op's static cost for the shot engine's rule choice.

        ``parts`` holds the components of the qubits before the op (see
        ``polysim.engine.price``).  While nothing truncates, the state is a
        product over them, so the Schmidt rank across a bond is at most
        ``r = prod_C 2**min(|C & left|, |C & right|)`` (Vidal,
        arXiv:quant-ph/0301063).  A two-qubit op costs ``UPDATE_COST + r**2``
        for each two-site update it makes, swap chains included, and
        ``math.inf`` when ``r`` passes ``chi_max`` on any updated bond.  A
        projection costs one update, a one-qubit gate ``ONE_SITE_COST``.
        """
        if len(inst.qubits) == 1:
            return ONE_SITE_COST if inst.kind in ONE_QUBIT_GATES else UPDATE_COST
        lo, hi = sorted(inst.qubits)
        before = list(parts.multi.values())
        a, b = parts.members(lo), parts.members(hi)
        merged = a if a is b else a + b
        after = [g for g in before if g is not a and g is not b] + [merged]
        # swaps bring qubit hi down to site lo + 1, the gate joins, swaps take it back
        logs = [_log_rank(before, j - 1, hi) for j in range(hi - 1, lo, -1)]
        logs += [_log_rank(after, j) for j in range(lo, hi)]
        if 2 ** max(logs) > self.chi_max:
            return math.inf
        return sum(UPDATE_COST + 4**r for r in logs)

    # --- canonical form ------------------------------------------------------

    def move_center(self, target: int) -> None:
        """Move the orthogonality center to ``target`` by QR steps.

        Across a bond of dimension 1 a QR step is a rescaling, so it is done
        as one (measured and reset qubits leave many such bonds).
        """
        tensors = self.tensors
        while self.center < target:
            i = self.center
            t, nxt = tensors[i], tensors[i + 1]
            chi_l, _, chi_r = t.shape
            if chi_r == 1:
                scale = math.sqrt(np.vdot(t, t).real)
                tensors[i] = t / scale
                tensors[i + 1] = nxt * scale
            else:
                q, r = np.linalg.qr(t.reshape(chi_l * 2, chi_r))
                tensors[i] = q.reshape(chi_l, 2, -1)
                tensors[i + 1] = (r @ nxt.reshape(chi_r, -1)).reshape(-1, 2, nxt.shape[2])
            self.center = i + 1
        while self.center > target:
            i = self.center
            t, prev = tensors[i], tensors[i - 1]
            chi_l, _, chi_r = t.shape
            if chi_l == 1:
                scale = math.sqrt(np.vdot(t, t).real)
                tensors[i] = t / scale
                tensors[i - 1] = prev * scale
            else:
                q, r = np.linalg.qr(t.reshape(chi_l, 2 * chi_r).T)
                tensors[i] = q.T.reshape(-1, 2, chi_r)
                tensors[i - 1] = (prev.reshape(-1, chi_l) @ r.T).reshape(prev.shape[0], 2, -1)
            self.center = i - 1

    # --- gates -----------------------------------------------------------------

    def apply_1q(self, q: int, m: np.ndarray) -> None:
        self.tensors[q] = np.matmul(m, self.tensors[q])

    def apply_two_site(self, left: int, m4: np.ndarray) -> None:
        """Apply a 4x4 gate to sites left, left+1, site ``left`` the high bit.

        That is the row-major order of the two physical legs, the reverse of
        ``polysim.gates``; ``_LOCAL`` holds the fixed gates in it.  The center
        ends on the site the update moved toward (left+1 coming from the
        left, left coming from the right), so a swap chain in either
        direction takes no QR step.
        """
        from_right = self.center > left
        if self.center < left:
            self.move_center(left)
        elif self.center > left + 1:
            self.move_center(left + 1)
        a, b = self.tensors[left], self.tensors[left + 1]
        chi_l, chi_r = a.shape[0], b.shape[2]
        theta = (a.reshape(chi_l * 2, -1) @ b.reshape(-1, 2 * chi_r)).reshape(chi_l, 4, chi_r)
        mat = np.matmul(m4, theta).reshape(chi_l * 2, 2 * chi_r)
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        if s[0] > 0:
            significant = int(np.count_nonzero(s > s[0] * REL_CUTOFF))
        else:
            significant = 1
        k = max(1, min(self.chi_max, significant))
        s2 = s * s
        if k < significant:
            # only weight lost to the chi cap counts; sub-cutoff values are noise
            self.truncation_error += float(s2[k:significant].sum() / s2.sum())
        kept = s[:k] / np.sqrt(s2[:k].sum())
        if from_right:
            self.tensors[left] = (u[:, :k] * kept).reshape(chi_l, 2, k)
            self.tensors[left + 1] = vh[:k].reshape(k, 2, chi_r)
            self.center = left
        else:
            self.tensors[left] = u[:, :k].reshape(chi_l, 2, k)
            self.tensors[left + 1] = (kept[:, None] * vh[:k]).reshape(k, 2, chi_r)
            self.center = left + 1

    def apply(self, inst) -> None:
        kind = inst.kind
        if kind in ONE_QUBIT_GATES:
            self.apply_1q(inst.qubits[0], gates.single_qubit_matrix(kind, inst.params))
            return
        qa, qb = inst.qubits
        lo, hi = (qa, qb) if qa < qb else (qb, qa)
        m4 = _LOCAL[kind, qa == lo]
        if hi - lo == 1:
            self.apply_two_site(lo, m4)
            return
        for j in range(hi - 1, lo, -1):
            self.apply_two_site(j, _SWAP)
        self.apply_two_site(lo, m4)
        for j in range(lo + 1, hi):
            self.apply_two_site(j, _SWAP)

    # --- measurement -----------------------------------------------------------

    def p1(self, q: int) -> float:
        self.move_center(q)
        w = np.square(np.abs(self.tensors[q])).sum(axis=(0, 2))
        return float(w[1] / (w[0] + w[1]))

    def project(self, q: int, bit: int) -> None:
        """Collapse qubit ``q`` onto ``|bit>``, renormalise, and cut its bonds to their rank.

        The projected site matrix ``P`` is split as ``U S V^dagger`` with
        singular values below ``REL_CUTOFF`` of the largest dropped; the
        neighbours absorb ``U`` and ``V^dagger``, which keeps them isometric,
        and the site keeps ``S``.  A collapsed qubit's bonds then carry their
        rank, often 1, where ``move_center`` rescales instead of taking a QR
        step.  When a bond is already 1, ``P`` is a vector and needs no SVD.
        """
        self.move_center(q)
        tensors = self.tensors
        piece = tensors[q][:, bit, :]
        chi_l, chi_r = piece.shape
        piece = piece / math.sqrt(np.vdot(piece, piece).real)
        if chi_l == 1 and chi_r == 1:
            u, s, vh = None, piece[0], None  # a phase, which the site keeps
        elif chi_l == 1:
            u, s, vh = None, _ONE, piece
        elif chi_r == 1:
            u, s, vh = piece, _ONE, None
        else:
            u, s, vh = np.linalg.svd(piece, full_matrices=False)
            k = int(np.count_nonzero(s > s[0] * REL_CUTOFF))
            u, s, vh = u[:, :k], s[:k] / np.linalg.norm(s[:k]), vh[:k]
        k = len(s)
        if u is not None:
            prev = tensors[q - 1]
            tensors[q - 1] = (prev.reshape(-1, chi_l) @ u).reshape(prev.shape[0], 2, k)
        if vh is not None:
            nxt = tensors[q + 1]
            tensors[q + 1] = (vh @ nxt.reshape(chi_r, -1)).reshape(k, 2, nxt.shape[2])
        site = np.zeros((k, 2, k), dtype=complex)
        site[:, bit, :] = np.diag(s)
        tensors[q] = site

    def sample_terminal(
        self, shots: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``shots`` full bitstrings in one batched left-to-right sweep.

        Shots are carried as counts and split binomially at each site, so the
        cost scales with the number of distinct outcome prefixes rather than
        with the shot count.  The live prefixes' environments are stacked into
        one ``(B, chi_l)`` array: each site is one matmul with the site tensor
        and one vector of binomial draws, taken in prefix order with every
        prefix's "0" child ahead of its "1" child.  Returns a ``(B, n)`` uint8
        matrix whose column q holds qubit q's outcome, and the ``B`` counts.

        Each site keeps its new bit per prefix, and a parent map only where
        some prefix split; where none did, every prefix stays in its row.  A
        single live prefix takes a scalar path with the same draws.
        """
        self.move_center(0)
        env = np.ones((1, 1), dtype=complex)
        counts = np.array([shots], dtype=np.int64)
        site_bits: list[np.ndarray] = []
        parents: list[np.ndarray | None] = []
        for site in range(self.n):
            a = self.tensors[site]
            chi_l, _, chi_r = a.shape
            b = (env @ a.reshape(chi_l, 2 * chi_r)).reshape(-1, chi_r)  # row 2i + s
            flat = b.view(np.float64)
            w = np.einsum("ij,ij->i", flat, flat)  # squared norm of each row
            if len(counts) == 1:
                # a single live prefix is common (one-shot leaves, the first
                # sites): one scalar draw, ~1.4 us against ~8 us for an array
                # one, and no index bookkeeping
                count = counts[0]
                c0 = rng.binomial(count, w[0] / (w[0] + w[1]))
                if c0 and c0 < count:
                    env = b / np.sqrt(w)[:, None]
                    counts = np.array([c0, count - c0], dtype=np.int64)
                    parents.append(_SPLIT_PARENTS)
                    site_bits.append(_SPLIT_BITS)
                else:
                    bit = 0 if c0 else 1
                    env = b[bit:bit + 1] / np.sqrt(w[bit])
                    parents.append(None)
                    site_bits.append(_BITS[bit])
                continue
            p0 = w[0::2] / (w[0::2] + w[1::2])
            c0 = rng.binomial(counts, p0)
            children = np.repeat(counts, 2)
            children[0::2] = c0
            children[1::2] -= c0
            keep = np.flatnonzero(children)
            env = b[keep] / np.sqrt(w[keep])[:, None]
            # a row index is below the number of live prefixes, which no
            # in-memory (B, chi) environment lets reach 2**31
            parents.append(None if len(keep) == len(counts) else (keep >> 1).astype(np.int32))
            site_bits.append((keep & 1).astype(np.uint8))
            counts = children[keep]
        bits = np.empty((len(counts), self.n), dtype=np.uint8)
        row = None  # the final row each prefix at this site ends up in
        for site in range(self.n - 1, -1, -1):
            bits[:, site] = site_bits[site] if row is None else site_bits[site][row]
            parent = parents[site]
            if parent is not None:
                row = parent if row is None else parent[row]
        return bits, counts

    def sample(self, qubits, count: int, rng: np.random.Generator) -> dict[str, int]:
        """Counts of ``qubits``, read in that order, over ``count`` terminal draws."""
        bits, counts = self.sample_terminal(count, rng)
        measured = bits[:, qubits]  # a copy: fancy indexing
        del bits  # free the full matrix before the keys are built
        return counts_by_row(measured, counts)


def _log_rank(groups, bond: int, moved: int = -1) -> int:
    """log2 of the rank bound across ``bond``, with the sites up to it and qubit ``moved`` on the left."""
    total = 0
    for g in groups:
        left = sum(1 for q in g if q <= bond or q == moved)
        total += min(left, len(g) - left)
    return total


def run(c: Circuit, shots: int, seed: int, chi_max: int) -> RunResult:
    """Execute on an MPS with the given bond-dimension cap.

    The shot engine (``polysim.engine``) walks the MPS once per distinct
    history of the mid-circuit measurements and resets, copying it only
    where shots split; terminal shots come from one batched sweep per path.
    The reported truncation error is the largest over the walked paths.
    """
    start = time.perf_counter()
    errors: list[float] = []
    counts = run_shots(
        MpsState(c.n_qubits, chi_max),
        c.instructions,
        shots,
        np.random.default_rng(seed),
        on_leaf=lambda state: errors.append(state.truncation_error),
    )
    wall = time.perf_counter() - start
    return RunResult(
        counts=counts,
        shots=shots,
        backend="mps",
        seed=seed,
        wall_time=wall,
        metadata={"chi_max": chi_max, "truncation_error": max(errors), "paths": len(errors)},
    )


class FidelityLoopResult:
    def __init__(self, result: RunResult, chi: int, fidelity: float, iterations: int):
        self.result = result
        self.chi = chi
        self.fidelity = fidelity
        self.iterations = iterations


def run_with_fidelity_loop(
    c: Circuit,
    shots: int,
    seed: int,
    threshold: float = 0.95,
    chi_init: int = 4,
    chi_cap: int = DEFAULT_CHI_CAP,
) -> FidelityLoopResult:
    """Double chi until the run's own fidelity estimate clears the threshold.

    Each candidate chi runs the circuit once and is scored by 1 - eps, where
    eps is the discarded weight summed along the worst path the shot engine
    walked (Zhou, Stoudenmire & Waintal, arXiv:2002.07730), so mid-circuit
    measurements and resets are scored on the circuit that actually runs.
    The sum can exceed 1, so the score is clamped at 0.  The accepted run is
    the reported one.  No score exceeds 1, so a threshold outside [0, 1] is
    rejected before anything runs.
    """
    if not 0 <= threshold <= 1:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    chi = chi_init
    iterations = 0
    while chi <= chi_cap:
        iterations += 1
        result = run(c, shots, seed, chi_max=chi)
        fidelity = max(0.0, 1.0 - result.metadata["truncation_error"])
        if fidelity >= threshold:
            return FidelityLoopResult(result, chi, fidelity, iterations)
        chi *= 2
    raise ChiCapError(
        f"fidelity stayed below {threshold} up to the chi cap {chi_cap}"
    )
