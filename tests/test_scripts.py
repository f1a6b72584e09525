"""Smoke test: the experiment scripts under `scripts/` run to completion at
tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["standardness_sweep.py", "--count", "10"],
    ["refute_demo.py", "p | ~p", "--chain", "2"],
    ["jankov_gallery.py", "--bound", "3"],
])
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
