"""The README's library example runs as printed."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    [code] = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    exec(compile(code, str(README), "exec"), {})
    # the surrogate at t = 0.5 on the diagonal direction: cos(s0 + s1) with s0 + s1 = 0.5 sqrt(2)
    value = float(capsys.readouterr().out)
    assert abs(value - np.cos(0.5 * np.sqrt(2.0))) < 1e-2
