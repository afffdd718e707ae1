"""The README's minimal example runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_minimal_example_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    ns = {}
    exec(compile(block, str(README), "exec"), ns)
    assert ns["basis"].dim == 4 * ns["coarse"].N_v
    assert np.isfinite(ns["energy_pct"]) and ns["energy_pct"] < 100.0
