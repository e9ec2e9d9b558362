"""The README's Python example runs as written and gives the results its
comments state, so the documented API cannot drift from the code."""

import math
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_states_its_results():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    names = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), names)
    report, res = names["report"], names["res"]
    assert abs(report.value - (math.sqrt(2) - 1)) <= 1e-12
    assert np.abs(report.sigma_star - np.eye(2) / 2).max() <= 1e-12
    assert abs(res.value - report.value) <= 1e-10
