"""The benchmark's layer hooks still find every polysim attribute they wrap.

``perfbench/workloads.py`` times polysim's layers by wrapping module
functions and methods by name.  A change that deletes or renames one of them
breaks the traced benchmark; this test makes tier-1 catch that too.
"""
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.append(PERFBENCH)

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


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
