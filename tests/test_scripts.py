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
    "cli_sweep.py": (["--depth", "6", "--grid", "64"], ["cli_sweep.csv"]),
    "conformal_pipeline.py": (
        ["--depth", "10"],
        ["weighted_doubling_measure.csv", "weighted_doubling_equilibrium.csv"],
    ),
    "depth_convergence.py": (["--depth", "10"], ["depth_convergence.csv"]),
    "correlation_floor.py": (
        ["--max-power", "14", "--lags", "8"],
        ["correlation_floor.csv"],
    ),
    "walk_peak.py": (["--depth", "10"], ["walk_peak.csv"]),
}


def run_script(script, args, out):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(tmp_path, script):
    args, outputs = SCRIPTS[script]
    proc = run_script(script, args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) > 1, name  # header plus at least one row


def test_every_script_is_covered():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(SCRIPTS)


def test_correlation_floor_rejects_empty_sweep(tmp_path):
    # below 2^14 atoms the sweep has no step and would write a bare header
    proc = run_script("correlation_floor.py", ["--max-power", "12"], tmp_path)
    assert proc.returncode == 2
    assert "--max-power must be at least 14" in proc.stderr
    assert not (tmp_path / "correlation_floor.csv").exists()
