"""Smoke test of the benchmark harness at tiny sizes.

Runs every workload through perfbench/run.py with ``--size tiny`` and
checks that each metric named in BENCHMARK.json is emitted with its unit,
that the tracer reaches the re-bound names, and that a checkout without the
package sources fails without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(entries) -> dict:
    return {e["name"]: e["unit"] for e in entries}


def test_end_to_end_metrics_emitted_with_units():
    res = _result(_run("--workload", "norms-dense", "--seed", "1",
                       "--seconds", "0", "--trace", "0", "--size", "tiny"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == _units(BENCHMARK["end_to_end"])
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_every_layer_metric_emitted_and_exercised():
    expected = _units(BENCHMARK["per_layer"])
    exercised = set()
    for workload in WORKLOADS:
        res = _result(_run("--workload", workload, "--seed", "1",
                           "--seconds", "0", "--trace", "1", "--size", "tiny"))
        assert res["correct"], workload
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        assert got == expected, workload
        exercised |= {k for k, v in res["metrics"].items() if v["value"] != 0}
    assert exercised == set(expected)


def test_tracer_wraps_reexported_names():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    try:
        from tracer import Tracer
        from thermomap import cli, conformal, keller, maps, pressure
        from thermomap.potentials import CosineSeriesPotential
    finally:
        del sys.path[:2]
    tracer = Tracer()
    originals = (cli.tree_pressure, conformal.iter_preimage_levels,
                 pressure.logsumexp, cli.norm_report, maps.IntervalMap.eval)
    tracer.install()
    try:
        for name in (cli.tree_pressure, cli.weak_limit, cli.power_iteration,
                     cli.norm_report, conformal.iter_preimage_levels,
                     pressure.iter_preimage_levels, conformal.logsumexp,
                     pressure.logsumexp, keller.norm_report):
            assert hasattr(name, "__wrapped__"), name
        rep = pressure.tree_pressure(
            maps.full_linear_map(2), CosineSeriesPotential((0.3,)), 0.3, 6)
        assert rep.depths.size == 6
    finally:
        tracer.uninstall()
    assert (cli.tree_pressure, conformal.iter_preimage_levels, pressure.logsumexp,
            cli.norm_report, maps.IntervalMap.eval) == originals
    names = [s[2] for s in tracer.spans]
    assert names.count("maps.preimage") == 8  # levels 0-6 and the closing step
    parents = {s[0]: s[1] for s in tracer.spans}
    top = [s for s in tracer.spans if s[1] == -1]
    assert [s[2] for s in top] == ["pressure.tree_pressure"]
    assert all(parents[s[0]] >= 0 for s in tracer.spans if s is not top[0])


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "crosscheck", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
