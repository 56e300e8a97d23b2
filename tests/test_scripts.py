"""The demo scripts run end to end at small sizes.

Each script is a worked example of the public API, so an API change that
breaks one fails here instead of going unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = {
    "conformal_pipeline.py": (
        ["--depth", "10"],
        ["weighted_doubling_measure.csv", "weighted_doubling_equilibrium.csv"],
    ),
    "depth_convergence.py": (["--depth", "10"], ["depth_convergence.csv"]),
    "correlation_floor.py": (
        ["--max-power", "14", "--lags", "8"],
        ["correlation_floor.csv"],
    ),
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(tmp_path, script):
    args, outputs = SCRIPTS[script]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args,
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) > 1, name  # header plus at least one row


def test_every_script_is_covered():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(SCRIPTS)
