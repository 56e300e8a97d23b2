"""Workload definitions: seeded inputs, the timed operation, and its gate.

Each workload turns a seed into one operation spec (plain JSON data). The
worker process runs the spec in three phases: ``setup`` (import and config
parse, counted in ``setup_s``), ``compute`` (the timed call, ``wall_s``) and
``gate`` (correctness checks, untimed). The parent only calls
``make_spec``, so it never imports thermomap itself.
"""

from __future__ import annotations

import math
import random

# Inputs per size. "full" is what the benchmark measures; "tiny" runs the
# same code paths in well under a second and exists for the smoke test.
SIZES = {
    "full": {
        "audit-deep": {"depth": 17, "grid": 4096},
        "correlate-deep": {"depth": 19, "lags": 12, "observables": 2},
        "norms-dense": {"atoms": 4096, "draws": 3},
        "crosscheck": {"tree_depth": 22, "sep_n": 10, "sep_eps": 0.01,
                       "sep_grid": 3000},
    },
    "tiny": {
        "audit-deep": {"depth": 14, "grid": 512},
        "correlate-deep": {"depth": 10, "lags": 6, "observables": 2},
        "norms-dense": {"atoms": 96, "draws": 2},
        "crosscheck": {"tree_depth": 10, "sep_n": 5, "sep_eps": 0.05,
                       "sep_grid": 400},
    },
}

WORKLOADS = tuple(SIZES["full"])

# Tent + cos(2 pi u) + cos(4 pi u) weights shared by the two deep workloads.
COSINE = {"kind": "cosine_series", "coefficients": [0.3, -0.2]}
DOUBLING = {"kind": "full_linear", "branches": 2}

# At depths 16-19 the tree estimate passes the audit-all eigen_vs_tree bound
# only for x0 up to about 0.32 in the left cell (bias of the averaged
# estimator, ROADMAP item 3), so audit-deep draws x0 from this band.
AUDIT_X0 = (0.05, 0.30)


def _x0_in_cell(rng: random.Random, lo: float, hi: float) -> float:
    """A base point inside [lo, hi], 10% of the cell width from either end."""
    margin = 0.1 * (hi - lo)
    return rng.uniform(lo + margin, hi - margin)


def make_spec(workload: str, seed: int, size: str = "full") -> dict:
    """The operation's inputs, fully determined by (workload, seed, size)."""
    p = SIZES[size][workload]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "audit-deep":
        return {
            "kind": "cli",
            "command": "audit-all",
            "flags": ["--grid", str(p["grid"])],
            "config": {
                "map": DOUBLING,
                "potential": COSINE,
                "command_params": {
                    "x0": rng.uniform(*AUDIT_X0),
                    "n_max": p["depth"],
                    "tree_depth": p["depth"],
                },
                "seed": seed,
            },
        }
    if workload == "correlate-deep":
        cell = rng.randrange(2)
        observables = []
        for _ in range(p["observables"]):
            lo = rng.uniform(0.05, 0.5)
            observables.append(
                {"lo": lo, "hi": lo + rng.uniform(0.2, 0.4), "width": 0.05}
            )
        return {
            "kind": "cli",
            "command": "correlations",
            "flags": [],
            "config": {
                "map": DOUBLING,
                "potential": COSINE,
                "command_params": {
                    "x0": _x0_in_cell(rng, 0.5 * cell, 0.5 * cell + 0.5),
                    "n_max": p["depth"],
                    "tree_depth": p["depth"],
                    "lags": p["lags"],
                    "observables": observables,
                },
                "seed": seed,
            },
        }
    if workload == "norms-dense":
        return {
            "kind": "cli",
            "command": "norms",
            "flags": [],
            "draws": p["draws"],
            "config": {
                "map": DOUBLING,
                "potential": None,
                "command_params": {
                    "alpha": 0.5,
                    "scale": 0.5,
                    "draws": p["draws"],
                    "atoms": p["atoms"],
                },
                "seed": seed,
            },
        }
    if workload == "crosscheck":
        golden_kink = 2.0 - (1.0 + math.sqrt(5.0)) / 2.0
        golden_cell = rng.randrange(2)
        golden_lo, golden_hi = ((0.0, golden_kink), (golden_kink, 1.0))[golden_cell]
        tent_cell = rng.randrange(2)
        return {
            "kind": "crosscheck",
            "params": {
                "tent_x0": _x0_in_cell(rng, 0.5 * tent_cell, 0.5 * tent_cell + 0.5),
                "golden_x0": _x0_in_cell(rng, golden_lo, golden_hi),
                "tree_depth": p["tree_depth"],
                "sep_n": p["sep_n"],
                "sep_eps": p["sep_eps"],
                "sep_grid": p["sep_grid"],
            },
        }
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# worker side: everything below imports thermomap lazily


def setup(spec: dict, outdir: str):
    """Import the package and parse the inputs; returns the ready state."""
    if spec["kind"] == "cli":
        import argparse
        import json
        from pathlib import Path

        from thermomap import cli

        config = dict(spec["config"], output_dir=outdir)
        cfg_path = Path(outdir).parent / "config.json"
        cfg_path.write_text(json.dumps(config, indent=1))
        flags = argparse.Namespace(
            budget=cli.DEFAULT_BUDGET, grid=cli.DEFAULT_GRID, tol=cli.DEFAULT_TOL
        )
        exp = cli.Experiment(str(cfg_path), flags)  # parse + map/potential build
        argv = [spec["command"], str(cfg_path), *spec["flags"]]
        return {"argv": argv, "experiment": exp}
    import thermomap

    return {
        "tent": thermomap.full_linear_map(2),
        "bernoulli": thermomap.BranchConstantPotential((0.0, 0.5, 1.0), (0.0, -1.0)),
        "golden": thermomap.golden_tent_map(),
    }


def compute(spec: dict, state: dict):
    """The timed operation. Returns what the gate needs."""
    if spec["kind"] == "cli":
        from thermomap import cli

        return cli.main(state["argv"])
    import thermomap

    p = spec["params"]
    out = {}
    for name, imap, phi, x0 in (
        ("tent", state["tent"], state["bernoulli"], p["tent_x0"]),
        ("golden", state["golden"], None, p["golden_x0"]),
    ):
        tree = thermomap.tree_pressure(imap, phi, x0, p["tree_depth"])
        sep = thermomap.separated_pressure(
            imap, phi, p["sep_n"], p["sep_eps"], p["sep_grid"]
        )
        hyper = thermomap.hyperbolicity_check(imap, phi, tree.estimate)
        out[name] = (tree, sep, hyper)
    return out


def _read_csv(path):
    import csv

    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def gate(spec: dict, result, outdir: str) -> list[str]:
    """Correctness checks on one operation; returns the failures found."""
    from pathlib import Path

    out = Path(outdir)
    problems = []
    if spec["kind"] == "crosscheck":
        tent_tree, _, _ = result["tent"]
        exact = math.log1p(math.exp(-1.0))
        if not abs(tent_tree.estimate - exact) <= 1e-10:
            problems.append(
                f"tent tree estimate {tent_tree.estimate!r} vs log(1+e^-1) {exact!r}"
            )
        for name, (_, sep, hyper) in result.items():
            if not sep.verified:
                problems.append(f"{name}: separated set not verified")
            if hyper.verdict != "hyperbolic":
                problems.append(f"{name}: hyperbolicity verdict {hyper.verdict!r}")
        return problems

    if result != 0:
        problems.append(f"exit code {result}")
    command = spec["command"]
    if command == "audit-all":
        from thermomap.cli import read_measure

        for row in _read_csv(out / "audit.csv"):
            if row["passed"] != "true":
                problems.append(
                    f"audit {row['name']} failed: {row['value']} > {row['bound']}")
        c = float(_read_csv(out / "conformal.csv")[0]["c"])
        log_lam = float(_read_csv(out / "equilibrium.csv")[0]["log_lambda"])
        if not abs(c - log_lam) <= 1e-6:
            problems.append(f"|c - log lambda| = {abs(c - log_lam):.3g} > 1e-6")
        for name in ("measure.csv", "nu.csv"):
            path = out / name
            rows = path.read_bytes().count(b"\n") - 1
            measure = read_measure(path)
            total = float(measure.masses.sum())
            if measure.size != rows or not abs(total - 1.0) <= 1e-9:
                problems.append(
                    f"{name}: {measure.size} of {rows} atoms read, mass {total!r}"
                )
    elif command == "correlations":
        rows = _read_csv(out / "correlations.csv")
        if not rows:
            problems.append("correlations.csv is empty")
        for row in rows:
            if not math.isfinite(float(row["rho"])):
                problems.append(f"observable {row['observable']}: rho {row['rho']}")
                break
    elif command == "norms":
        rows = _read_csv(out / "norms.csv")
        if len(rows) != spec["draws"]:
            problems.append(f"norms.csv has {len(rows)} of {spec['draws']} draws")
        problems.extend(
            f"draw {row['draw']} failed its norm chain audit"
            for row in rows
            if row["passed"] != "true"
        )
    return problems
