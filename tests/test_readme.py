"""README's Library example runs against the current API, and its file
formats name every file a command writes.

The block is executed as written, so a renamed function, a removed option
or a changed call form that the README still shows fails here.
"""

import argparse
import json
import re
from pathlib import Path

import numpy as np

from thermomap.cli import DEFAULT_BUDGET, RUNNERS, Experiment

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


# Each command at a size that runs in well under a second.
SMALL_PARAMS = {
    "pressure": {"n_max": 6},
    "entropy": {"n_max": 6},
    "conformal": {"n_max": 8},
    "equilibrium": {"n_max": 8, "tree_depth": 8},
    "correlations": {"n_max": 8, "tree_depth": 8, "lags": 5},
    "norms": {"draws": 1, "atoms": 8},
    "curve": {"n_max": 4, "t_count": 5,
              "chi": {"kind": "constant", "values": [1.0]}},
    "appendix": {"n_max": 6},
    "audit-all": {"n_max": 8, "tree_depth": 8},
}


def file_formats_section() -> str:
    text = (ROOT / "README.md").read_text()
    match = re.search(r"^File formats:\n\n((?:(?:- |  ).*\n)+)", text, re.M)
    assert match, "README has no 'File formats:' list"
    return match.group(1)


def test_every_command_file_is_documented(tmp_path):
    documented = file_formats_section()
    assert sorted(SMALL_PARAMS) == sorted(RUNNERS)
    flags = argparse.Namespace(budget=DEFAULT_BUDGET, grid=256, tol=1e-10)
    for command, params in SMALL_PARAMS.items():
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps({
            "map": {"kind": "full_linear", "branches": 2},
            "potential": {"kind": "branch_pw_constant",
                          "segments": [0.0, 0.5, 1.0], "values": [0.0, -1.0]},
            "command_params": params,
        }))
        files, _ = RUNNERS[command](Experiment(str(config), flags))
        for name, _, _ in files:
            assert f"`{name}`" in documented, f"{command}: {name}"
