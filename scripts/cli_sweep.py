#!/usr/bin/env python3
"""Exit code and sha256 of every file the CLI writes, over a grid of runs.

Runs every command through `thermomap.cli.main` on each map (doubling,
logistic4, the tent on [0, 2]) with each potential (none, the Bernoulli
branch potential -1 on the right branch, the cosine series 0.3 cos - 0.2
cos 2), then every command on the doubling map with the cosine potential
under `--budget 300` and under `--tol 1e-300 --grid 64`. Each run writes
into its own directory under --out/cli_sweep/, and cli_sweep.csv gets one
row `run,exit_code,file,sha256` per written file (one row with empty file
and sha256 for a run that writes nothing). Two checkouts give the same
artifacts and exit codes exactly when their cli_sweep.csv files agree, so
compare them with `diff`:

    PYTHONPATH=src python3 scripts/cli_sweep.py --out a/
    PYTHONPATH=../other/src python3 scripts/cli_sweep.py --out b/
    diff a/cli_sweep.csv b/cli_sweep.csv

--depth sets n_max and tree_depth of every command (default 10).

Usage: python3 scripts/cli_sweep.py [--depth 10] [--grid 256] [--out out/]
"""

import argparse
import contextlib
import hashlib
import io
import json
from pathlib import Path

from thermomap.cli import main as cli_main
from thermomap.cli import write_csv

MAPS = {
    "doubling": ({"kind": "full_linear", "branches": 2}, (0.0, 1.0)),
    "logistic4": ({"kind": "logistic4"}, (0.0, 1.0)),
    "tent02": (
        {"kind": "pw_linear", "breakpoints": [0.0, 1.0, 2.0],
         "slopes": [2.0, -2.0], "intercepts": [0.0, 4.0]},
        (0.0, 2.0),
    ),
}


def bernoulli(domain):
    lo, hi = domain
    return {"kind": "branch_pw_constant", "segments": [lo, (lo + hi) / 2, hi],
            "values": [0.0, -1.0]}


POTENTIALS = {
    "none": lambda domain: None,
    "bernoulli": bernoulli,
    "cosine": lambda domain: {"kind": "cosine_series", "coefficients": [0.3, -0.2]},
}

VARIANTS = {"budget300": ["--budget", "300"], "tol": ["--tol", "1e-300", "--grid", "64"]}


def command_params(depth, domain):
    """Every command's command_params at `depth`."""
    deep = {"n_max": depth, "tree_depth": depth}
    return {
        "pressure": {"n_max": depth},
        "entropy": {"n_max": depth},
        "conformal": {"n_max": depth},
        "equilibrium": deep,
        "correlations": {**deep, "lags": 5},
        "norms": {"draws": 2, "atoms": 16},
        "curve": {"n_max": depth, "t_count": 5, "chi": bernoulli(domain)},
        "appendix": {"n_max": depth},
        "audit-all": deep,
    }


def run(out, name, command, map_spec, potential, params, flags):
    """One CLI run in out/<name>/: its exit code and its written files."""
    outdir = out / name
    config = out / f"{name}.json"
    config.write_text(json.dumps({
        "map": map_spec, "potential": potential,
        "command_params": params, "output_dir": str(outdir),
    }))
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli_main([command, str(config), *flags])
    written = sorted(outdir.iterdir()) if outdir.is_dir() else []
    return code, written


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--depth", type=int, default=10)
    ap.add_argument("--grid", type=int, default=256)
    ap.add_argument("--out", type=Path, default=Path("out"))
    args = ap.parse_args()
    if args.depth < 1 or args.grid < 16:
        ap.error("--depth must be at least 1 and --grid at least 16")
    out = args.out / "cli_sweep"
    out.mkdir(parents=True, exist_ok=True)

    runs = []
    for map_name, (map_spec, domain) in MAPS.items():
        for pot_name, potential in POTENTIALS.items():
            for command, params in command_params(args.depth, domain).items():
                runs.append((f"{command}.{map_name}.{pot_name}", command, map_spec,
                             potential(domain), params, ["--grid", str(args.grid)]))
    map_spec, domain = MAPS["doubling"]
    for variant, flags in VARIANTS.items():
        for command, params in command_params(args.depth, domain).items():
            runs.append((f"{command}.doubling.cosine.{variant}", command, map_spec,
                         POTENTIALS["cosine"](domain), params,
                         ["--grid", str(args.grid), *flags]))

    rows = []
    codes = {}
    for name, *spec in runs:
        code, written = run(out, name, *spec)
        codes[code] = codes.get(code, 0) + 1
        rows += [(name, code, f.name, hashlib.sha256(f.read_bytes()).hexdigest())
                 for f in written] or [(name, code, "", "")]
    path = args.out / "cli_sweep.csv"
    write_csv(path, ("run", "exit_code", "file", "sha256"), rows)
    print(f"{len(runs)} runs, {sum(1 for r in rows if r[2])} files, exit codes "
          + ", ".join(f"{c}: {n}" for c, n in sorted(codes.items())))
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
