"""Smoke test of the benchmark: every workload end to end at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload must run with zero failed jobs and pass its own checks, in
both the plain and the traced mode, and its checker must reject corrupted
counts: reversed bit order, a dropped outcome and a skewed marginal.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import run

run._import_polysim()

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(run.HERE)
NAMES = sorted(workloads.WORKLOADS)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == NAMES
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (k, u, b) for k, (u, b) in workloads.LAYERS.items()]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_and_checks(name, trace):
    result = run.run(name, seed=3, seconds=0.0, trace=trace, smoke=True)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = workloads.LAYERS if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float | int)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("corruption", sorted(checks.CORRUPTIONS))
def test_checker_rejects_corrupted_counts(name, corruption):
    w = workloads.WORKLOADS[name](seed=5, smoke=True)
    w.setup()
    jobs = w.run_round()
    clean = checks.Verdict()
    w.check(jobs, clean)
    assert clean.finish() == []
    corrupt = checks.CORRUPTIONS[corruption]
    bad = [workloads.Job(j.circ, j.backend, j.shots, j.seconds, corrupt(j.counts)) for j in jobs]
    verdict = checks.Verdict()
    w.check(bad, verdict)
    assert verdict.finish(), f"{corruption} counts passed the {name} checks"


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "checkout"
    (bare / "perfbench").mkdir(parents=True)
    for entry in os.listdir(run.HERE):
        path = os.path.join(run.HERE, entry)
        if entry.endswith(".py"):
            (bare / "perfbench" / entry).write_bytes(open(path, "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1"], cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
