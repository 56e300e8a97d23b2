"""The demo scripts run end to end at small sizes.

Each script is a worked example of the public API, so an API change that
breaks one fails here instead of going unnoticed. sweep_diff.py, which
reads two cli_sweep.py outputs, runs on small hand-made ones.
"""

import hashlib
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


def fake_sweep(root, files):
    """A cli_sweep.py output directory: files maps run to (exit_code,
    {file name: csv text})."""
    rows = ["run,exit_code,file,sha256"]
    for run, (code, written) in files.items():
        (root / "cli_sweep" / run).mkdir(parents=True)
        for name, text in written.items():
            (root / "cli_sweep" / run / name).write_text(text)
            rows.append(f"{run},{code},{name},{hashlib.sha256(text.encode()).hexdigest()}")
        if not written:
            rows.append(f"{run},{code},,")
    (root / "cli_sweep.csv").write_text("\n".join(rows) + "\n")
    return root


def sweep_diff(a, b):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sweep_diff.py"), str(a), str(b)],
        capture_output=True, text=True, timeout=120,
    )
    table = {}
    for line in proc.stdout.splitlines()[1:]:
        if not line.startswith("MISMATCH"):
            name, column, runs, differ, max_abs, max_rel = line.split()[:6]
            table[name, column] = (int(runs), int(differ), float(max_abs), float(max_rel))
    return proc.returncode, table, proc.stdout


BASE = {
    "conformal.a": (0, {"measure.csv": "x,mass\n0.25,0.5\n0.75,0.5\n",
                        "conformal.csv": "c,status\n0.69,ok\n"}),
    "conformal.b": (0, {"measure.csv": "x,mass\n0.5,1.0\n"}),
    "pressure.a": (3, {}),
}


def test_sweep_diff_reports_each_column(tmp_path):
    moved = dict(BASE)
    moved["conformal.a"] = (0, {"measure.csv": "x,mass\n0.25,0.5000000000000001\n0.75,0.5\n",
                                "conformal.csv": "c,status\n0.69,not_converged\n"})
    a = fake_sweep(tmp_path / "a", BASE)
    code, table, out = sweep_diff(a, fake_sweep(tmp_path / "b", moved))
    assert code == 0, out
    assert table["measure.csv", "x"] == (2, 0, 0.0, 0.0)
    runs, differ, max_abs, max_rel = table["measure.csv", "mass"]
    assert (runs, differ) == (2, 1)
    assert max_abs == pytest.approx(1.11e-16, rel=1e-2)
    assert max_rel == pytest.approx(2.22e-16, rel=1e-2)
    assert table["conformal.csv", "c"] == (1, 0, 0.0, 0.0)
    assert table["conformal.csv", "status"][:2] == (1, 1)
    assert "1 text" in out
    assert sweep_diff(a, a)[0] == 0


@pytest.mark.parametrize("change", ["exit_code", "file_set", "row_count", "header", "run"])
def test_sweep_diff_fails_on_structural_change(tmp_path, change):
    other = dict(BASE)
    if change == "exit_code":
        other["pressure.a"] = (2, {})
    elif change == "file_set":
        other["conformal.b"] = (0, {})
    elif change == "row_count":
        other["conformal.b"] = (0, {"measure.csv": "x,mass\n0.5,0.5\n0.6,0.5\n"})
    elif change == "header":
        other["conformal.b"] = (0, {"measure.csv": "x,weight\n0.5,1.0\n"})
    else:
        del other["pressure.a"]
    code, _, out = sweep_diff(fake_sweep(tmp_path / "a", BASE),
                              fake_sweep(tmp_path / "b", other))
    assert code == 1 and "MISMATCH" in out


def test_every_script_is_covered():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(
        [*SCRIPTS, "sweep_diff.py"])

