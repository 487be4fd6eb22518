"""The benchmark's layer hooks still find and see every polysim layer they wrap.

``perfbench/workloads.py`` times polysim's layers by wrapping module
functions and methods by name.  A change that deletes or renames one of them
breaks the traced benchmark, and a change that stops calling one through the
wrapped name leaves its metric at 0; these tests make tier-1 catch both.
"""
import os
import sys
from unittest import mock

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.append(PERFBENCH)

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

with mock.patch.dict(os.environ):  # run.py caps BLAS threads for its own process
    import run  # noqa: E402


def _attr(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_layer_recorder_installs_and_uninstalls():
    recorder = workloads.LayerRecorder(Tracer())
    originals = [_attr(owner, attr) for owner, attr, _ in recorder.w]
    recorder.install()
    try:
        assert all(_attr(owner, attr) is not original
                   for (owner, attr, _), original in zip(recorder.w, originals))
    finally:
        recorder.uninstall()
    assert all(_attr(owner, attr) is original
               for (owner, attr, _), original in zip(recorder.w, originals))


# Layers that every traced round of a workload runs, whichever backends a
# fresh calibration picks.
LIVE_LAYERS = {
    "batch-auto": ("qasm.parse_s", "qasm.us_per_instruction", "features.extract_s",
                   "features.calls_per_circuit", "predictor.select_s"),
    "clifford-shots": ("stabilizer.measure_calls", "stabilizer.shots_per_s.n10",
                       "stabilizer.shots_per_s.n50"),
    "midcircuit-replay": ("mps.two_site_updates", "mps.replay_shots_per_s",
                          "statevector.kernel_calls", "statevector.replay_shots_per_s",
                          "pblock.gadgets", "pblock.max_block_dim", "pblock.replay_shots_per_s",
                          "partition.plan_s", "partition.cut_weight"),
    "dense-sv": ("statevector.kernel_calls", "statevector.marginal_s",
                 "result.sample_groups_s"),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_smoke_round_reads_its_layers(name):
    result = run.run(name, 3, 0.0, True, True)
    assert result["correct"]
    dead = [k for k in LIVE_LAYERS[name] if not result["metrics"][k]["value"] > 0]
    assert not dead, f"{name}: traced layers read 0: {dead}"
