"""The benchmark's workloads: inputs, the timed round, checks and layer metrics.

Each workload builds its inputs from the seed in ``setup`` and then runs one
fixed round of jobs per call to ``run_round``; a job is one circuit on one
backend.  Sizes, shot counts and gate skeletons do not depend on the seed;
angles, Pauli frames and sampling seeds do, so every run does the same work
on inputs that differ from seed to seed.
"""
from __future__ import annotations

import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass

import numpy as np

import checks
import circuits as gen
import reference
from hostspeed import HostSpeed
from polysim import (batch, calibration, dispatch, metrics, mps, partition, pblock,
                     predictor, sampling, stabilizer, statevector)
from polysim.partition import VqpuLayout
from polysim.qasm import parse_qasm

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(HERE, "work")
# The gate skeletons come from this fixed seed, so every --seed costs the same;
# --seed draws angles, Pauli frames and the sampling seeds.
SHAPE_SEED = 20251204


@dataclass
class Job:
    circ: gen.Circ
    backend: str
    shots: int
    seconds: float = 0.0  # at the reference host speed (hostspeed.py)
    counts: dict | None = None
    error: str | None = None

    @property
    def name(self) -> str:
        return f"{self.circ.name}@{self.backend}"


def _ramp(i: int, count: int, lo: int, hi: int) -> int:
    return lo + ((hi - lo) * i) // max(count - 1, 1)


class Workload:
    name = ""
    probe = "compute"  # the hostspeed probe that tracks this workload's slowdowns

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self._laws: dict[str, object] = {}
        self.calibrate_seconds = 0.0
        self.speed = HostSpeed(self.probe)
        self.round_seconds = 0.0  # the last round, at the reference host speed
        self.round_raw_seconds = 0.0  # the last round, as the clock read it

    def streams(self, stream: int) -> tuple[np.random.Generator, np.random.Generator]:
        """(shape, vals): the fixed gate skeleton and the seeded values."""
        return np.random.default_rng([SHAPE_SEED, stream]), np.random.default_rng([self.seed, stream])

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> list[Job]:
        """Run the fixed jobs once and set ``round_seconds``."""
        raise NotImplementedError

    def _run_jobs(self, jobs: list[tuple]) -> list[Job]:
        """Time ``fn(program, shots, seed)`` for each (circ, backend, fn, program, shots).

        Each ``fn`` looks its polysim function up when called, so a traced
        run sees the wrapped one.

        The host-speed probe runs between jobs, so each job is scaled by the
        mean of the probes on either side of it.
        """
        out = []
        self.round_raw_seconds = 0.0
        before = self.speed.probe()
        for index, (circ, backend, fn, program, shots) in enumerate(jobs):
            job = Job(circ, backend, shots)
            t0 = time.perf_counter()
            try:
                job.counts = fn(program, shots, self.seed * 1000 + index).counts
            except Exception as exc:  # a failed job is counted, the round goes on
                job.error = f"{type(exc).__name__}: {exc}"
            raw = time.perf_counter() - t0
            after = self.speed.probe()
            job.seconds = self.speed.scale(raw, before, after)
            before = after
            self.round_raw_seconds += raw
            out.append(job)
        self.round_seconds = sum(job.seconds for job in out)
        return out

    # --- correctness ----------------------------------------------------------

    def check(self, jobs: list[Job], v: checks.Verdict) -> None:
        for job in jobs:
            if job.error is None:
                self.check_job(job, v)

    def law(self, circ: gen.Circ, build):
        """The reference law of a circuit, built once per run (names are unique)."""
        if circ.name not in self._laws:
            self._laws[circ.name] = build(circ)
        return self._laws[circ.name]

    def check_job(self, job: Job, v: checks.Verdict) -> None:
        c, counts, shots = job.circ, job.counts, job.shots
        name = job.name
        if not checks.check_shape(v, name, counts, shots, c.n_clbits):
            return
        if c.family == "clifford":
            a, a0 = self.law(c, reference.affine_law)
            checks.check_affine(v, name, counts, shots, a, a0)
        elif c.family == "exact":
            checks.chi_square(v, name, counts, self.law(c, reference.exact_distribution), shots)
        elif c.family == "ghz":
            checks.chi_square(v, name, counts, {"0" * c.n: 0.5, "1" * c.n: 0.5}, shots)
        elif c.family == "w":
            law = {"0" * (c.n - 1 - k) + "1" + "0" * k: 1.0 / c.n for k in range(c.n)}
            checks.chi_square(v, name, counts, law, shots)
        elif c.family == "teleport":
            ps = [0.5] * c.n_clbits
            for clbit, p in c.law["biased"]:
                ps[clbit] = p
            checks.check_product(v, name, counts, shots, ps)
        elif c.family == "reuse":
            _check_reuse(v, name, counts, shots, c)
        elif c.family == "blocks":
            blocks = self.law(c, _block_probs)
            checks.check_xeb(v, name, counts, shots, blocks)
            for qubits, probs in blocks:
                for j, q in enumerate(qubits):
                    p1 = float(probs[(np.arange(probs.size) >> j) & 1 == 1].sum())
                    checks.chi_square(v, f"{name} bit{q}", checks.marginal(counts, (q,), c.n),
                                      checks.product_law([p1]), shots)
        else:
            raise ValueError(f"no law for family {c.family!r}")

    # --- per-layer metrics --------------------------------------------------------

    def extra_layers(self, jobs: list[Job]) -> dict:
        """Per-layer metrics measured outside the traced rounds."""
        return {}


def _block_probs(circ: gen.Circ) -> list[tuple[list[int], np.ndarray]]:
    """Per block: its qubits and exact probabilities indexed by code (bit j = j-th qubit)."""
    out = []
    for qubits in circ.law["blocks"]:
        local = {q: j for j, q in enumerate(qubits)}
        ops = [(k, tuple(local[q] for q in qs), p, None) for k, qs, p, _ in circ.ops
               if k != "measure" and qs[0] in local]
        psi = reference.final_state(gen.Circ(circ.name, len(qubits), ops=ops))
        m = len(qubits)
        out.append((qubits, (np.abs(psi) ** 2).transpose(tuple(reversed(range(m)))).reshape(-1)))
    return out


def _check_reuse(v, name, counts, shots, c) -> None:
    law = c.law
    groups = []
    for i, p in enumerate(law["p"]):
        rounds = [(clbit, q) for (data, clbit, q) in law["rounds"] if data == i]
        clbits = [law["final"][i]] + [clbit for clbit, _ in rounds]

        def prob(bits, p=p, rounds=rounds):
            v = bits[0]  # the final readout is the data qubit's Z value
            w = p if v else 1 - p
            for (_, q), bit in zip(rounds, bits[1:]):
                w *= q if bit != v else 1 - q
            return w

        groups.append((clbits, checks.law_table(len(clbits), prob)))
    for clbits, table in groups:
        checks.chi_square(v, f"{name} data{clbits[0]}", checks.marginal(counts, tuple(clbits), c.n_clbits),
                          table, shots)
    for (c1, t1), (c2, t2) in zip(groups, groups[1:]):
        joint = {k2 + k1: p1 * p2 for k1, p1 in t1.items() for k2, p2 in t2.items()}
        checks.chi_square(v, f"{name} pair{c1[0]},{c2[0]}",
                          checks.marginal(counts, tuple(c1 + c2), c.n_clbits), joint, shots)


# --- batch-auto -----------------------------------------------------------------------


class BatchAuto(Workload):
    """Mixed OpenQASM files through ``batch.run_batch(dir, "auto", model=...)``."""

    name = "batch-auto"
    shots = 1000

    def build(self) -> list[gen.Circ]:
        shape, vals = self.streams(1)
        if self.smoke:
            count = dict(clifford=4, ghz=2, w=2, qaoa=2, ry=2, ct=3)
            lo, top_wide, top_mid, top_dense = 3, 6, 6, 5
        else:
            count = dict(clifford=36, ghz=12, w=12, qaoa=8, ry=8, ct=27)
            lo, top_wide, top_mid, top_dense = 4, 24, 16, 12

        def sizes(family, top):
            return [_ramp(i, count[family], lo, top) for i in range(count[family])]

        out = [gen.nn_clifford(n, 2 * n, shape, vals) for n in sizes("clifford", top_wide)]
        out += [gen.ghz(n) for n in sizes("ghz", top_wide)]
        out += [gen.w_state(n) for n in sizes("w", top_wide)]
        out += [gen.qaoa_line(n, vals) for n in sizes("qaoa", top_mid)]
        out += [gen.ry_ansatz(n, 2, vals) for n in sizes("ry", top_mid)]
        out += [gen.clifford_t(n, 8 * n, shape, vals) for n in sizes("ct", top_dense)]
        return out

    def setup(self) -> None:
        circs = self.build()
        self.dir = os.path.join(WORK_DIR, "batch-auto")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.by_name = {}
        for i, c in enumerate(circs):
            c.name = f"{i:03d}_{c.name}"
            self.by_name[c.name] = c
            with open(os.path.join(self.dir, c.name + ".qasm"), "w", encoding="utf-8") as fh:
                fh.write(c.qasm())
        if self.smoke:
            config = calibration.CalibrationConfig(
                sv_grid=(2, 4, 6), mps_grid_n=(4, 8), mps_grid_chi=(2, 4), stab_grid=(4, 8),
                shot_counts=(1, 10), repetitions=1, min_sample_seconds=1e-5, max_threads=1)
        else:
            config = calibration.CalibrationConfig(max_threads=1)
        t0 = time.perf_counter()
        self.model = calibration.calibrate(config, seed=self.seed)
        self.calibrate_seconds = time.perf_counter() - t0

    def run_round(self) -> list[Job]:
        report, raw, self.round_seconds = self.speed.timed(lambda: batch.run_batch(
            self.dir, "auto", model=self.model, shots=self.shots, seed=self.seed))
        self.round_raw_seconds = raw
        scale = self.round_seconds / raw
        return [Job(self.by_name[r.name], r.backend or "none", self.shots,
                    r.wall_seconds * scale, r.counts, r.error)
                for r in report.records]

    def extra_layers(self, jobs: list[Job]) -> dict:
        out = {f"predictor.picks.{b}": sum(1 for j in jobs if j.backend == b)
               for b in ("sv", "mps", "stab")}
        out.update(self.regret_pass())
        return out

    def regret_pass(self) -> dict:
        """Run every candidate backend on every third circuit, as the batch would.

        Gives the predictor's error per backend, the median over circuits of
        |log2(predicted / measured)| for each backend that was a candidate, and
        the regret ratio: summed time of the chosen backends over summed time
        of the fastest candidates.  A third of the mix keeps the traced run
        within its time limit; stab alone takes seconds per wide circuit.
        """
        errors: dict[str, list[float]] = {"sv": [], "mps": [], "stab": []}
        chosen_total = best_total = 0.0
        for name in sorted(self.by_name)[::3]:
            c = batch.parse_qasm_file(os.path.join(self.dir, name + ".qasm"))
            report = predictor.select_backend(c, self.model, self.shots)
            measured = {}
            for backend, estimate in report.estimates.items():
                t0 = time.perf_counter()
                if backend == "mps":
                    mps.run_with_fidelity_loop(c, self.shots, self.seed)
                else:
                    dispatch.run_circuit(c, backend, self.shots, self.seed)
                measured[backend] = time.perf_counter() - t0
                errors[backend].append(abs(math.log2(estimate / measured[backend])))
            chosen_total += measured[report.chosen]
            best_total += min(measured.values())
        out = {f"predictor.err_log2_p50.{b}": statistics.median(e) if e else 0.0
               for b, e in errors.items()}
        out["predictor.regret_ratio"] = chosen_total / best_total
        return out


# --- clifford-shots -----------------------------------------------------------------------


class CliffordShots(Workload):
    """Clifford circuits at n = 10, 50 and 200 sampled on the tableau backend."""

    name = "clifford-shots"

    def specs(self) -> list[tuple[int, int, bool, int, int]]:
        """(n, depth, mid-circuit, measured-qubit stride, shots) per circuit."""
        if self.smoke:
            return [(10, 4, False, 1, 200), (10, 6, True, 1, 200), (50, 3, False, 5, 100)]
        return [(10, 10, False, 1, 1000), (10, 12, True, 1, 500),
                (50, 10, False, 1, 500), (50, 12, True, 1, 250),
                (200, 10, False, 5, 500)]

    def setup(self) -> None:
        shape, vals = self.streams(2)
        self.jobs = []
        for n, depth, mid, stride, shots in self.specs():
            c = gen.clifford_brickwork(n, depth, shape, vals, mid, stride)
            self.jobs.append((c, "stab", lambda p, s, seed: stabilizer.run(p, s, seed),
                              parse_qasm(c.qasm(), c.name), shots))

    def run_round(self) -> list[Job]:
        return self._run_jobs(self.jobs)


# --- midcircuit-replay ----------------------------------------------------------------


# Exact for every circuit below: no cut of 9 qubits carries rank above 16.
MPS_CHI = 16


class MidcircuitReplay(Workload):
    """Non-Clifford circuits with mid-circuit measure and reset on four engines."""

    name = "midcircuit-replay"

    def circuits(self) -> list[tuple[gen.Circ, int]]:
        shape, vals = self.streams(3)
        if self.smoke:
            return [(gen.random_mid(5, 20, 2, shape, vals), 200),
                    (gen.reuse_rounds(5, 5, vals), 200), (gen.teleport_chain(6, vals), 200)]
        return [(gen.random_mid(8, 40, 3, shape, vals), 200),
                (gen.random_mid(9, 44, 3, shape, vals), 200),
                (gen.reuse_rounds(12, 6, vals), 150), (gen.teleport_chain(16, vals), 80)]

    def setup(self) -> None:
        self.jobs = []
        for c, shots in self.circuits():
            program = parse_qasm(c.qasm(), c.name)
            layout = VqpuLayout(2, (c.n + 1) // 2)
            engines = [
                ("sv", lambda p, s, seed: statevector.run(p, s, seed)),
                ("mps", lambda p, s, seed: mps.run(p, s, seed, chi_max=MPS_CHI)),
                ("pblock", lambda p, s, seed: pblock.run(p, s, seed)),
                ("pblock-dist", lambda p, s, seed, layout=layout:
                    pblock.run_distributed(p, layout, s, seed)),
            ]
            for backend, fn in engines:
                self.jobs.append((c, backend, fn, program, shots))

    def run_round(self) -> list[Job]:
        return self._run_jobs(self.jobs)


# --- dense-sv -------------------------------------------------------------------------------


class DenseSv(Workload):
    """Entangling circuits of 18, 20 and 22 qubits on the state-vector backend."""

    name = "dense-sv"
    probe = "memory"

    def circuits(self) -> list[tuple[gen.Circ, int]]:
        shape, vals = self.streams(4)
        if self.smoke:
            return [(gen.dense_blocks(n, 3, shape, vals), 4000) for n in (8, 9, 10)]
        return [(gen.dense_blocks(18, 6, shape, vals), 20000),
                (gen.dense_blocks(20, 3, shape, vals), 20000),
                (gen.dense_blocks(22, 1, shape, vals), 20000)]

    def setup(self) -> None:
        self.jobs = [(c, "sv", lambda p, s, seed: statevector.run(p, s, seed),
                      parse_qasm(c.qasm(), c.name), shots)
                     for c, shots in self.circuits()]

    def run_round(self) -> list[Job]:
        return self._run_jobs(self.jobs)


WORKLOADS = {w.name: w for w in (BatchAuto, CliffordShots, MidcircuitReplay, DenseSv)}


# --- tracing ----------------------------------------------------------------------------------


def _terminal_only(c) -> bool:
    seen = False
    for inst in c.instructions:
        if inst.kind == "measure":
            seen = True
        elif inst.kind == "reset" or (seen and inst.kind != "barrier"):
            return False
    return True


class LayerRecorder:
    """Wraps polysim's layers and turns one round of spans into layer metrics."""

    def __init__(self, tracer):
        self.t = tracer
        self.w = [
            (batch, "run_batch", "batch.run_batch"),
            (batch, "parse_qasm_file", "qasm.parse"),
            (batch, "select_backend", "predictor.select"),
            (batch, "run_with_fidelity_loop", "mps.fidelity_loop"),
            (metrics, "mirror_fidelity", "metrics.mirror_fidelity"),
            (statevector, "run", "statevector.run"),
            (statevector, "apply_instruction", "statevector.apply_instruction"),
            (statevector, "marginal_probs", "statevector.marginal"),
            (statevector, "sample_measurement_groups", "result.sample_groups"),
            (pblock, "sample_measurement_groups", "result.sample_groups"),
            (mps, "run", "mps.run"),
            (mps.MpsState, "apply_two_site", "mps.two_site"),
            (stabilizer, "run", "stabilizer.run"),
            (stabilizer.Tableau, "measure", "stabilizer.measure"),
            (stabilizer.Tableau, "copy", "stabilizer.copy"),
            (pblock, "run", "pblock.run"),
            (pblock, "run_distributed", "pblock.run_distributed"),
            (pblock, "partition_circuit", "partition.plan"),
            (sampling.AliasTable, "from_probs", "sampling.alias_build"),
            (sampling.AliasTable, "sample_indices", "sampling.draw"),
        ]
        for mod in (batch, predictor, statevector, mps, pblock, partition):
            self.w.append((mod, "extract_features", "features.extract"))
        for label, hook in (
            ("statevector.run", self._sv), ("mps.run", self._mps), ("stabilizer.run", self._stab),
            ("pblock.run", self._pblock), ("pblock.run_distributed", self._pblock),
            ("mps.fidelity_loop", self._loop), ("sampling.draw", self._draw),
            ("batch.run_batch", self._batch), ("qasm.parse", self._parse),
        ):
            tracer.on_close(label, hook)
        self.reset()

    def install(self) -> None:
        for owner, attr, label in self.w:
            self.t.wrap(owner, attr, label)

    def uninstall(self) -> None:
        self.t.unwrap_all()

    def reset(self) -> None:
        self.t.reset()
        self.acc: dict[str, float] = {}

    def _add(self, key: str, value: float) -> None:
        self.acc[key] = self.acc.get(key, 0.0) + value

    def _sv(self, span) -> None:
        c, shots = span.args[0], span.args[1]
        if _terminal_only(c):
            kernel = span.seconds - sum(span.child_seconds[k] for k in (
                "statevector.marginal", "result.sample_groups", "features.extract"))
            gates = sum(1 for i in c.instructions if i.is_unitary)
            self._add(f"sv.kernel_s.n{c.n_qubits}", kernel)
            self._add(f"sv.amp_gates.n{c.n_qubits}", float(gates) * (1 << c.n_qubits))
        else:
            self._add("sv.replay_shots", shots)
            self._add("sv.replay_s", span.seconds)

    def _mps(self, span) -> None:
        if not _terminal_only(span.args[0]):
            self._add("mps.replay_shots", span.args[1])
            self._add("mps.replay_s", span.seconds)

    def _stab(self, span) -> None:
        n = span.args[0].n_qubits
        self._add(f"stab.shots.n{n}", span.args[1])
        self._add(f"stab.s.n{n}", span.seconds)

    def _pblock(self, span) -> None:
        meta = span.result.metadata
        self.acc["pblock.max_block_dim"] = max(self.acc.get("pblock.max_block_dim", 0),
                                               meta["max_block_dim"])
        self._add("pblock.gadgets", len(meta.get("gadgets", ())))
        self._add("partition.cut_weight", meta.get("cut_weight", 0))
        if not _terminal_only(span.args[0]):
            self._add("pblock.replay_shots", span.args[-2] if span.label == "pblock.run_distributed"
                      else span.args[1])
            self._add("pblock.replay_s", span.seconds)

    def _loop(self, span) -> None:
        self._add("mps.loop_iterations", span.result.iterations)
        self._add("mps.loop_accepted_s", span.child_seconds["mps.run"])

    def _draw(self, span) -> None:
        self._add("sampling.samples", span.args[2])

    def _batch(self, span) -> None:
        self._add("batch.overhead_s", span.seconds - sum(span.child_seconds.values()))

    def _parse(self, span) -> None:
        self._add("qasm.instructions", len(span.result.instructions))

    def round_metrics(self, jobs: list[Job]) -> dict:
        s, calls, a = self.t.seconds, self.t.calls, self.acc

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        out = {
            "qasm.parse_s": s["qasm.parse"],
            "qasm.us_per_instruction": ratio(s["qasm.parse"], a.get("qasm.instructions", 0), 1e6),
            "features.extract_s": s["features.extract"],
            "features.calls_per_circuit": ratio(calls["features.extract"], len(jobs)),
            "predictor.select_s": s["predictor.select"],
            "mps.fidelity_loop_s": s["mps.fidelity_loop"],
            "mps.loop_iterations": a.get("mps.loop_iterations", 0),
            "metrics.mirror_fidelity_s": s["metrics.mirror_fidelity"],
            "mps.two_site_updates": calls["mps.two_site"],
            "mps.loop_useful_ratio": ratio(a.get("mps.loop_accepted_s", 0), s["mps.fidelity_loop"]),
            "mps.replay_shots_per_s": ratio(a.get("mps.replay_shots", 0), a.get("mps.replay_s", 0)),
            "statevector.kernel_calls": calls["statevector.apply_instruction"],
            "statevector.marginal_s": s["statevector.marginal"],
            "statevector.replay_shots_per_s": ratio(a.get("sv.replay_shots", 0), a.get("sv.replay_s", 0)),
            "stabilizer.measure_calls": calls["stabilizer.measure"],
            "stabilizer.copy_calls": calls["stabilizer.copy"],
            "pblock.replay_shots_per_s": ratio(a.get("pblock.replay_shots", 0), a.get("pblock.replay_s", 0)),
            "pblock.max_block_dim": a.get("pblock.max_block_dim", 0),
            "pblock.gadgets": a.get("pblock.gadgets", 0),
            "partition.plan_s": s["partition.plan"],
            "partition.cut_weight": a.get("partition.cut_weight", 0),
            "sampling.alias_build_s": s["sampling.alias_build"],
            "sampling.draw_ns_per_sample": ratio(s["sampling.draw"], a.get("sampling.samples", 0), 1e9),
            "result.sample_groups_s": s["result.sample_groups"],
            "batch.overhead_s": a.get("batch.overhead_s", 0.0),
        }
        for n in (18, 20, 22):
            out[f"statevector.ns_per_amp_gate.n{n}"] = ratio(
                a.get(f"sv.kernel_s.n{n}", 0), a.get(f"sv.amp_gates.n{n}", 0), 1e9)
        for n in (10, 50, 200):
            out[f"stabilizer.shots_per_s.n{n}"] = ratio(a.get(f"stab.shots.n{n}", 0),
                                                        a.get(f"stab.s.n{n}", 0))
        return out


# (unit, better) of every per-layer metric, in the order BENCHMARK.json lists them.
LAYERS = {
    "qasm.parse_s": ("s", "lower"),
    "qasm.us_per_instruction": ("us", "lower"),
    "features.extract_s": ("s", "lower"),
    "features.calls_per_circuit": ("calls/job", "lower"),
    "calibration.calibrate_s": ("s", "lower"),
    "predictor.select_s": ("s", "lower"),
    "predictor.picks.sv": ("count", "higher"),
    "predictor.picks.mps": ("count", "lower"),
    "predictor.picks.stab": ("count", "higher"),
    "predictor.err_log2_p50.sv": ("log2", "lower"),
    "predictor.err_log2_p50.mps": ("log2", "lower"),
    "predictor.err_log2_p50.stab": ("log2", "lower"),
    "predictor.regret_ratio": ("ratio", "lower"),
    "mps.fidelity_loop_s": ("s", "lower"),
    "mps.loop_iterations": ("count", "lower"),
    "metrics.mirror_fidelity_s": ("s", "lower"),
    "mps.two_site_updates": ("count", "lower"),
    "mps.loop_useful_ratio": ("ratio", "higher"),
    "mps.replay_shots_per_s": ("1/s", "higher"),
    "statevector.ns_per_amp_gate.n18": ("ns", "lower"),
    "statevector.ns_per_amp_gate.n20": ("ns", "lower"),
    "statevector.ns_per_amp_gate.n22": ("ns", "lower"),
    "statevector.kernel_calls": ("count", "lower"),
    "statevector.marginal_s": ("s", "lower"),
    "statevector.replay_shots_per_s": ("1/s", "higher"),
    "stabilizer.shots_per_s.n10": ("1/s", "higher"),
    "stabilizer.shots_per_s.n50": ("1/s", "higher"),
    "stabilizer.shots_per_s.n200": ("1/s", "higher"),
    "stabilizer.measure_calls": ("count", "lower"),
    "stabilizer.copy_calls": ("count", "lower"),
    "pblock.replay_shots_per_s": ("1/s", "higher"),
    "pblock.max_block_dim": ("amps", "lower"),
    "pblock.gadgets": ("count", "lower"),
    "partition.plan_s": ("s", "lower"),
    "partition.cut_weight": ("count", "lower"),
    "sampling.alias_build_s": ("s", "lower"),
    "sampling.draw_ns_per_sample": ("ns", "lower"),
    "result.sample_groups_s": ("s", "lower"),
    "batch.overhead_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
