"""thermomap benchmark: end-to-end and per-layer metrics of four workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json: audit-deep,
correlate-deep, norms-dense, crosscheck. The seed fixes every input.

Each operation runs in a fresh interpreter (perfbench/worker.py) with one
BLAS thread, one process at a time (a closed loop of one client). Setup
probes, processes that only import and parse the config, run first; then
operations run until the next one would end after ``--seconds``. Every
operation passes through a correctness gate; a failed gate, an exception or
a non-zero exit counts as a failed operation.

``--trace 0`` reports the end-to-end metrics: median ``wall_s`` of the
compute call, median ``setup_s`` (process start to ready) and median
``peak_rss_mb``. ``--trace 1`` alternates untraced and traced operations
and reports the per-layer metrics of the traced ones (medians), the
tracing overhead (traced minus untraced median wall time) and the self
time of every layer. The last stdout line is one JSON object: correct,
attempted, failed and the metrics BENCHMARK.json names. The lines above
it, and ``.perfbench_work/report-<workload>-trace<0|1>.json``, hold
everything else: inputs, samples, artifact sizes and sha256, environment.

``--workload all`` runs the four workloads in turn and prints one table;
with ``--trace 1`` it fails when a per-layer metric stays zero on every
workload. ``--size tiny`` shrinks every input for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, make_spec  # noqa: E402

SETUP_PROBES = 4
RUN_LIMIT_S = 170.0  # a run must end within 180 s
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class HarnessError(Exception):
    """The benchmark itself cannot run here; no result is printed."""


def _environment() -> dict:
    src = ROOT / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_ENV,
        "loadavg_start": os.getloadavg(),
    }


class Runner:
    """Runs the operations of one workload and collects their samples."""

    def __init__(self, workload: str, seed: int, size: str):
        self.spec = make_spec(workload, seed, size)
        self.work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV)
        self.started = time.monotonic()
        self.count = 0

    def run(self, setup_only: bool, trace: bool) -> dict:
        self.count += 1
        opdir = self.work / f"op{self.count}"
        outdir = opdir / "out"
        opdir.mkdir(parents=True)
        job = {
            "spec": self.spec,
            "outdir": str(outdir),
            "src": str(ROOT / "src"),
            "setup_only": setup_only,
            "trace": trace,
            "result": str(opdir / "result.json"),
        }
        (opdir / "job.json").write_text(json.dumps(job))
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise HarnessError("run time limit reached")
        with open(opdir / "stderr.txt", "wb") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(opdir / "job.json")],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                code = proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise HarnessError(f"operation exceeded {remaining:.0f} s") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        t_end = time.monotonic()
        if code != 0 or not (opdir / "result.json").exists():
            tail = (opdir / "stderr.txt").read_text(errors="replace")[-2000:]
            raise HarnessError(f"worker exited with {code}:\n{tail}")
        result = json.loads((opdir / "result.json").read_text())
        result["setup_s"] = result.pop("t_ready") - t_spawn
        result["process_s"] = t_end - t_spawn
        result["traced"] = trace
        shutil.rmtree(opdir)
        return result

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """All samples and metrics of one run; raises HarnessError."""
    import tracer as layers

    env = _environment()
    runner = Runner(workload, seed, size)
    try:
        probes = [runner.run(setup_only=True, trace=False)
                  for _ in range(SETUP_PROBES)]
        ops = []
        min_ops = 2 if trace else 1  # a traced run needs an untraced operation
        while True:
            elapsed = time.monotonic() - runner.started
            estimate = _median([op["process_s"] for op in ops])
            if len(ops) >= min_ops and elapsed + estimate > seconds:
                break
            ops.append(runner.run(setup_only=False, trace=trace and len(ops) % 2 == 1))
    finally:
        runner.close()

    untraced = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    failed = [op for op in ops if op["problems"]]
    setup = [p["setup_s"] for p in probes + ops]
    digests = {json.dumps(op["artifacts"], sort_keys=True) for op in ops}
    report = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "inputs": runner.spec,
        "environment": dict(env, **ops[0]["versions"]),
        "attempted": len(ops),
        "failed": len(failed),
        "problems": [op["problems"] for op in failed],
        "samples": {
            "wall_s": [op["wall_s"] for op in untraced],
            "setup_s": setup,
            "peak_rss_mb": [op["peak_rss_mb"] for op in untraced],
        },
        "artifacts": ops[0]["artifacts"],
        "artifacts_identical": len(digests) == 1,
        "metrics": {
            "wall_s": _median([op["wall_s"] for op in untraced]),
            "setup_s": _median(setup),
            "peak_rss_mb": _median([op["peak_rss_mb"] for op in untraced]),
            "artifact_mb": sum(a["bytes"] for a in ops[0]["artifacts"]) / 1e6,
            "error_rate": len(failed) / len(ops),
        },
    }
    if traced:
        draws = runner.spec.get("draws", 0)
        per_op = [layers.layer_metrics(op["spans"], draws) for op in traced]
        report["layers"] = {name: _median([m[name] for m in per_op])
                            for name in layers.LAYER_METRICS}
        traced_wall = _median([op["wall_s"] for op in traced])
        spans = traced[-1]["spans"]
        report["trace"] = {
            "traced_wall_s": traced_wall,
            "untraced_wall_s": report["metrics"]["wall_s"],
            "overhead_s": traced_wall - report["metrics"]["wall_s"],
            "traced_ops": len(traced),
            "spans": len(spans),
            "self_s": layers.self_times(spans),
            "last_wall_s": traced[-1]["wall_s"],
        }
        spans_path = ROOT / ".perfbench_work" / f"spans-{workload}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["id", "parent", "name", "start", "end", "counters"],
             "spans": spans}))
    path = ROOT / ".perfbench_work" / f"report-{workload}-trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=1))
    return report


E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "artifact_mb": "MB", "error_rate": "ratio"}


def print_report(report: dict) -> None:
    m = report["metrics"]
    env = report["environment"]
    print(f"workload {report['workload']} seed {report['seed']} "
          f"({report['attempted']} operations, {report['failed']} failed)")
    print(f"  commit {env['commit']} src {env['src_sha256'][:16]} python "
          f"{env['python']} numpy {env['numpy']} scipy {env['scipy']} nproc "
          f"{env['nproc']} blas threads 1 loadavg {env['loadavg_start'][0]:.2f}")
    for name, value in m.items():
        note = ""
        if name in report["samples"]:
            note = f"  median of {len(report['samples'][name])} samples"
        print(f"  {name:<13} {value:>12.6g} {E2E_UNITS[name]:<5}{note}")
    for art in report["artifacts"]:
        print(f"  artifact {art['name']:<18} {art['bytes']:>10} B  sha256 {art['sha256']}")
    if not report["artifacts_identical"]:
        print("  artifacts differ between operations of this run")
    for problems in report["problems"]:
        print("  FAILED: " + "; ".join(p.strip().splitlines()[-1] for p in problems))
    if "trace" in report:
        tr = report["trace"]
        print(f"  traced wall {tr['traced_wall_s']:.4f} s (median of "
              f"{tr['traced_ops']}) vs untraced {tr['untraced_wall_s']:.4f} s "
              f"(median of {len(report['samples']['wall_s'])}): overhead "
              f"{tr['overhead_s']:+.4f} s, {tr['spans']} spans per operation")
        total = sum(tr["self_s"].values())
        print(f"  self time by layer, last traced operation "
              f"(sum {total:.4f} s of wall {tr['last_wall_s']:.4f} s):")
        for name, value in sorted(tr["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:<32} {value:10.4f} s {100 * value / total:6.1f}%")


def _load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise HarnessError(f"{path} is missing")
    if not (ROOT / "src" / "thermomap" / "__init__.py").is_file():
        raise HarnessError(f"no thermomap sources under {ROOT / 'src'}")
    return json.loads(path.read_text())


def _check_layer_names(bench: dict) -> None:
    from tracer import LAYER_METRICS

    for entry in bench["per_layer"]:
        unit = LAYER_METRICS.get(entry["name"], (None,))[0]
        if unit != entry["unit"]:
            raise HarnessError(
                f"per-layer metric {entry['name']} ({entry['unit']}) is not emitted")


def _result_line(report: dict, entries: list, values: dict) -> str:
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
                    for e in entries},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    try:
        bench = _load_benchmark()
        _check_layer_names(bench)
        if args.workload != "all":
            report = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.size)
            print_report(report)
            if args.trace:
                print(_result_line(report, bench["per_layer"], report["layers"]))
            else:
                print(_result_line(report, bench["end_to_end"], report["metrics"]))
            return 0
        reports = []
        for workload in WORKLOADS:
            reports.append(run_workload(workload, args.seed, args.seconds,
                                        bool(args.trace), args.size))
            print_report(reports[-1])
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print()
    print(f"{'workload':<16}" + "".join(f"{n + ' (' + u + ')':>20}"
                                        for n, u in E2E_UNITS.items()))
    for r in reports:
        print(f"{r['workload']:<16}"
              + "".join(f"{r['metrics'][n]:>20.6g}" for n in E2E_UNITS))
    failed = sum(r["failed"] for r in reports)
    if args.trace:
        idle = [e["name"] for e in bench["per_layer"]
                if all(r["layers"][e["name"]] == 0 for r in reports)]
        if idle:
            print("per-layer metrics zero on every workload: " + ", ".join(idle))
            return 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
