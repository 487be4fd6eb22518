"""Every quick demo runs to completion as a script.

06_batch_policies.py is left out: it calibrates and runs the whole torture
suite under four policies, which takes ~17 s on a 2-CPU Xeon, against
0.2-2.6 s for each of the others.  Demo 01 parses QASM text through
``parse_qasm``, so this also covers the front end's public entry point.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-5]_*.py"))


def test_quick_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
