"""Run one benchmark operation in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json

The job names the operation spec, its output directory, whether to trace,
and where to write the result. ``t_ready`` (CLOCK_MONOTONIC, comparable
with the parent's clock) marks the end of setup: imports plus config parse
with map and potential construction. With ``setup_only`` the process exits
there. Otherwise it times the compute call, reads its peak RSS, hashes the
artifacts, runs the correctness gate and writes everything as JSON.
"""

from __future__ import annotations

import json
import sys
import time


def _artifacts(outdir):
    import hashlib
    from pathlib import Path

    out = []
    root = Path(outdir)
    if not root.is_dir():
        return out
    for path in sorted(root.iterdir()):
        digest = hashlib.sha256()
        with path.open("rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        out.append({"name": path.name, "bytes": path.stat().st_size,
                    "sha256": digest.hexdigest()})
    return out


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    import workloads

    spec, outdir = job["spec"], job["outdir"]
    state = workloads.setup(spec, outdir)
    t_ready = time.monotonic()

    import os

    import thermomap

    src = os.path.realpath(job["src"])
    if not os.path.realpath(thermomap.__file__).startswith(src + os.sep):
        print(f"thermomap imported from {thermomap.__file__}, not {src}",
              file=sys.stderr)
        return 3
    result = {"t_ready": t_ready}
    if not job["setup_only"]:
        import resource
        import traceback

        import numpy
        import scipy

        tracer = None
        if job["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            root = tracer.open("op")
        error = None
        t0 = time.perf_counter()
        try:
            value = workloads.compute(spec, state)
        except Exception:
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
            tracer.uninstall()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        artifacts = _artifacts(outdir)
        if error is None:
            try:
                problems = workloads.gate(spec, value, outdir)
            except Exception:
                problems = [traceback.format_exc()]
        else:
            problems = [error]
        result.update(
            wall_s=wall,
            peak_rss_mb=rss_kb * 1024 / 1e6,
            artifacts=artifacts,
            problems=problems,
            versions={"python": sys.version.split()[0],
                      "numpy": numpy.__version__, "scipy": scipy.__version__},
        )
        if tracer is not None:
            result["spans"] = tracer.spans
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
