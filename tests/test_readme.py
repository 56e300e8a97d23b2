"""README's Library example runs against the current API.

The block is executed as written, so a renamed function, a removed option
or a changed call form that the README still shows fails here.
"""

import re
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def library_block() -> str:
    text = (ROOT / "README.md").read_text()
    match = re.search(r"^## Library\n\n```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no python block under '## Library'"
    return match.group(1)


def test_library_example_runs_and_prints_its_closed_forms(capsys):
    exec(compile(library_block(), "README.md", "exec"), {})
    printed = [float(v) for v in capsys.readouterr().out.split()]
    pressure = np.log(1.0 + np.exp(-1.0))
    entropy = pressure + np.exp(-1.0) / (1.0 + np.exp(-1.0))
    assert len(printed) == 3
    assert abs(printed[0] - pressure) <= 1e-6  # the commented values
    assert abs(printed[1] - entropy) <= 1e-3
    assert 0.0 < printed[2] < 1.0  # a geometric decay rate
