"""The quick demos run to completion.

Demos 02, 03 and 05 take from 15 s to two minutes on a 2-core machine
and are left to be run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_multiscale_solve.py",
                                  "04_parametric_sweep.py",
                                  "06_eigendecay.py"])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                       env=env, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
