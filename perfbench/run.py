"""Run one benchmark workload against the polysim sources next to this directory.

    python3 perfbench/run.py --workload batch-auto --seed 1 --seconds 15 --trace 0

The run sets the workload up several times, then repeats whole rounds
of the workload's fixed jobs until ``--seconds`` have passed (at least one
round).  The first round's counts are checked against independent
references; every later round must reproduce them exactly, since each job
has a fixed seed.  The last line of standard output is one JSON object:

* ``--trace 0``: the end-to-end metrics, from rounds without tracing.
* ``--trace 1``: rounds with every layer wrapped, then one plain round;
  per-layer metrics are medians over the traced rounds.

``--smoke`` shrinks every input so the whole run takes seconds.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

# One process, one compute thread: BLAS pools are capped before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_polysim():
    if not os.path.isfile(os.path.join(SRC, "polysim", "__init__.py")):
        sys.exit(f"polysim sources not found at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import polysim

    if os.path.dirname(os.path.abspath(polysim.__file__)) != os.path.join(SRC, "polysim"):
        sys.exit(f"imported polysim from {polysim.__file__}, not from {SRC}")


# Set-up runs at least 3 and at most 20 times, and until 1 s has passed, so
# that the median of a set-up of a few milliseconds is steady too.
SETUP_REPS = (3, 20)
SETUP_MIN_SECONDS = 1.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_p90_s": "s",
              "peak_rss_mb": "MB"}


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (1..99) with the same interpolation on every run."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import checks
    from tracer import Tracer
    from workloads import LAYERS, WORKLOADS, LayerRecorder

    w = WORKLOADS[workload](seed, smoke)
    setup_times, calibrate_times, setup_raw = [], [], 0.0
    while len(setup_times) < (1 if smoke else SETUP_REPS[0]) or (
            setup_raw < SETUP_MIN_SECONDS and len(setup_times) < SETUP_REPS[1]):
        _, raw, setup_seconds = w.speed.timed(w.setup)
        setup_raw += raw
        setup_times.append(setup_seconds)
        calibrate_times.append(w.calibrate_seconds)

    rounds: list[tuple[float, list]] = []
    raw_rounds: list[float] = []

    def one_round():
        jobs = w.run_round()
        rounds.append((w.round_seconds, jobs))
        raw_rounds.append(w.round_raw_seconds)

    layer_rounds: list[dict] = []
    start = time.perf_counter()
    if trace:
        recorder = LayerRecorder(Tracer())
        recorder.install()
        try:
            while not layer_rounds or time.perf_counter() - start < seconds:
                recorder.reset()
                one_round()
                layer_rounds.append(recorder.round_metrics(rounds[-1][1]))
        finally:
            recorder.uninstall()
        one_round()  # plain, and warm like the traced rounds, for the overhead
    else:
        while not rounds or time.perf_counter() - start < seconds:
            one_round()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = rounds[0][1]
    v = checks.Verdict()
    w.check(first, v)
    for r, (_, jobs) in enumerate(rounds[1:], start=1):
        for a, b in zip(first, jobs):
            if a.counts != b.counts:
                v.fail(f"{b.name}: round {r} counts differ from round 0 with the same seed")
    failures = v.finish()
    print(f"rounds={len(rounds)}"
          f" wall_s at reference speed={statistics.median(t for t, _ in rounds):.4g}"
          f" as read={statistics.median(raw_rounds):.4g}", file=sys.stderr)
    for message in failures[:20]:
        print("FAIL", message, file=sys.stderr)

    jobs_all = [job for _, jobs in rounds for job in jobs]
    attempted = len(jobs_all)
    failed = sum(1 for job in jobs_all if job.error is not None)
    for job in first:
        if job.error is not None:
            print("JOB FAILED", job.name, job.error, file=sys.stderr)

    if trace:
        layers = {k: statistics.median(m[k] for m in layer_rounds) for k in layer_rounds[0]}
        layers.update(w.extra_layers(first))
        layers["calibration.calibrate_s"] = statistics.median(calibrate_times)
        traced_wall = statistics.median(t for t, _ in rounds[:-1])
        layers["trace.overhead_s"] = traced_wall - rounds[-1][0]
        metrics = {k: {"value": layers.get(k, 0.0), "unit": u} for k, (u, _) in LAYERS.items()}
    else:
        times = sorted(job.seconds for job in jobs_all if job.error is None)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(t for t, _ in rounds),
            "job_p50_s": statistics.median(times),
            "job_p90_s": percentile(times, 90),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    _import_polysim()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
