"""Command-line front end: config ingestion, orchestration, persistence.

Commands take a JSON config describing the map, the potential, and
command-specific parameters, run the corresponding pipeline, and return
their CSV artifacts with a status; `main` alone writes the artifacts into
the configured output directory and maps the status to the exit code. All
floating-point output uses 17 significant digits so files round-trip
bit-exactly; identical configs and seeds produce byte-identical artifacts
regardless of the ``--threads`` flag, which is accepted for interface
stability but never changes results (orchestration is single-threaded by
design).

Exit codes: 0 success, 2 audit failure, 3 budget or convergence failure,
64 malformed configuration (message anchored to the offending line). On exit
3 a flagged result is still written, with status ``budget`` (pressure,
entropy) or ``not_converged`` (conformal, equilibrium, correlations,
audit-all); a raised failure writes nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .conformal import (
    AtomicMeasure,
    atom_audit,
    conformality_audit,
    transition_parameter,
    uniform_atoms,
    weak_limit,
    window_start,
)
from .errors import (
    AuditError,
    BudgetError,
    ConfigError,
    ConvergenceError,
    DomainError,
)
from .keller import SampledFunction, norm_chain_audit, norm_report
from .maps import DEFAULT_NODE_BUDGET as DEFAULT_BUDGET
from .maps import IntervalMap, full_linear_map, logistic4_map, pw_linear_map
from .potentials import (
    BranchConstantPotential,
    ConstantPotential,
    CosineSeriesPotential,
    PiecewiseLinearPotential,
    Potential,
)
from .pressure import (
    appendix_construct,
    hyperbolicity_check,
    level_sums,
    pressure_curve,
    pressure_report,
    tree_pressure,
)
from .transfer import (
    adjoint_invariance_audit,
    correlation,
    equilibrium_state,
    power_iteration,
    smoothed_indicator,
)

DEFAULT_GRID = 4096
DEFAULT_TOL = 1e-12


# Rows per formatting step of an all-float table (see write_csv).
CSV_CHUNK_ROWS = 1024


def _fmt(x) -> str:
    if x is None:
        return "nan"
    return format(float(x), ".17g")


def write_csv(path: Path, header: Sequence[str], rows) -> None:
    """Write `header` and `rows` as CSV; numbers get 17 significant digits.

    A 2-D float ndarray with one column per header field is streamed to the
    file CSV_CHUNK_ROWS rows at a time, each chunk formatted by a single
    ``%`` over a ``"%.17g,...\\n" * rows`` template. ``"%.17g" % x`` equals
    ``_fmt(x)`` for every float64, so both paths write the same bytes. Any
    other iterable of rows is formatted cell by cell; string cells pass
    through unchanged.
    """
    if (
        isinstance(rows, np.ndarray)
        and rows.dtype.kind == "f"
        and rows.ndim == 2
        and rows.shape[1] == len(header)
    ):
        row = ",".join(["%.17g"] * len(header)) + "\n"
        full = row * CSV_CHUNK_ROWS
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for start in range(0, len(rows), CSV_CHUNK_ROWS):
                chunk = rows[start:start + CSV_CHUNK_ROWS]
                template = full if len(chunk) == CSV_CHUNK_ROWS else row * len(chunk)
                fh.write(template % tuple(chunk.ravel().tolist()))
        return
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else _fmt(c) for c in row))
    path.write_text("\n".join(lines) + "\n")


def read_measure(path: Path) -> AtomicMeasure:
    """Parse a measure file; rejects unsorted points, negative masses, and
    mass sums off by more than 1e-9. Measure files written by the CLI
    round-trip bit-exactly."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0].strip() != "point,mass":
        raise ConfigError(f"{path}:1: expected header 'point,mass'")
    pts, ms = [], []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 2:
            raise ConfigError(f"{path}:{i}: expected two comma-separated cells")
        try:
            pts.append(float(cells[0]))
            ms.append(float(cells[1]))
        except ValueError as exc:
            raise ConfigError(f"{path}:{i}: {exc}") from exc
    points = np.asarray(pts)
    masses = np.asarray(ms)
    if points.size == 0:
        raise ConfigError(f"{path}: no atoms")
    if np.any(np.diff(points) <= 0):
        raise ConfigError(f"{path}: points must be strictly ascending")
    if np.any(masses < 0):
        raise ConfigError(f"{path}: negative mass")
    total = float(masses.sum())
    if abs(total - 1.0) > 1e-9:
        raise ConfigError(f"{path}: mass sum {total!r} is off by more than 1e-9")
    if abs(total - 1.0) > 1e-12:
        masses = masses / total
    return AtomicMeasure(
        points=points,
        masses=masses,
        domain=(float(points[0]), float(points[-1])),
    )


# ---------------------------------------------------------------------------
# configuration


def _line_of(raw: str, key: str) -> Optional[int]:
    needle = f'"{key}"'
    for i, line in enumerate(raw.splitlines(), start=1):
        if needle in line:
            return i
    return None


def _reject_unknown(obj: dict, allowed: set, where: str, raw: str, path: str):
    for key in obj:
        if key not in allowed:
            line = _line_of(raw, key)
            anchor = f"{path}:{line}" if line else path
            raise ConfigError(
                f"{anchor}: unknown key {key!r} in {where} "
                f"(allowed: {sorted(allowed)})"
            )


def _require(obj: dict, key: str, where: str, path: str):
    if key not in obj:
        raise ConfigError(f"{path}: missing required key {key!r} in {where}")
    return obj[key]


def build_map(spec: dict, raw: str, path: str) -> IntervalMap:
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: 'map' must be an object")
    kind = _require(spec, "kind", "map", path)
    if kind == "full_linear":
        _reject_unknown(spec, {"kind", "branches"}, "map", raw, path)
        branches = _require(spec, "branches", "map", path)
        if not isinstance(branches, int) or branches < 2:
            raise ConfigError(f"{path}: map.branches must be an integer >= 2")
        return full_linear_map(branches)
    if kind == "pw_linear":
        _reject_unknown(
            spec, {"kind", "breakpoints", "slopes", "intercepts"}, "map", raw, path
        )
        return pw_linear_map(
            _require(spec, "breakpoints", "map", path),
            _require(spec, "slopes", "map", path),
            _require(spec, "intercepts", "map", path),
        )
    if kind == "logistic4":
        _reject_unknown(spec, {"kind"}, "map", raw, path)
        return logistic4_map()
    raise ConfigError(
        f"{path}: map.kind must be one of full_linear, pw_linear, logistic4"
    )


def build_potential(
    spec, raw: str, path: str, domain: tuple[float, float]
) -> Optional[Potential]:
    """Validated potential; `domain` is the map's interval, over which a
    cosine series takes its frequencies."""
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: 'potential' must be an object or null")
    kind = _require(spec, "kind", "potential", path)
    if kind == "constant":
        _reject_unknown(spec, {"kind", "values"}, "potential", raw, path)
        values = _require(spec, "values", "potential", path)
        if len(values) != 1:
            raise ConfigError(f"{path}: constant potential takes one value")
        return ConstantPotential(float(values[0]))
    if kind == "branch_pw_constant":
        _reject_unknown(
            spec, {"kind", "segments", "values"}, "potential", raw, path
        )
        return BranchConstantPotential(
            tuple(_require(spec, "segments", "potential", path)),
            tuple(_require(spec, "values", "potential", path)),
        )
    if kind == "cosine_series":
        _reject_unknown(
            spec, {"kind", "coefficients", "offset"}, "potential", raw, path
        )
        return CosineSeriesPotential(
            tuple(_require(spec, "coefficients", "potential", path)),
            offset=float(spec.get("offset", 0.0)),
            lo=float(domain[0]),
            hi=float(domain[1]),
        )
    if kind == "pw_linear":
        _reject_unknown(
            spec, {"kind", "segments", "values"}, "potential", raw, path
        )
        return PiecewiseLinearPotential(
            tuple(_require(spec, "segments", "potential", path)),
            tuple(_require(spec, "values", "potential", path)),
        )
    raise ConfigError(
        f"{path}: potential.kind must be one of constant, branch_pw_constant, "
        f"cosine_series, pw_linear"
    )


class Experiment:
    """Validated configuration plus global flag overrides."""

    def __init__(self, config_path: str, args):
        raw = Path(config_path).read_text()
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{config_path}:{exc.lineno}: {exc.msg}"
            ) from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{config_path}: top level must be an object")
        _reject_unknown(
            data,
            {"map", "potential", "command_params", "output_dir", "seed"},
            "config",
            raw,
            config_path,
        )
        self.raw = raw
        self.path = config_path
        self.imap = build_map(
            _require(data, "map", "config", config_path), raw, config_path
        )
        self.potential = build_potential(
            data.get("potential"), raw, config_path, self.imap.domain
        )
        params = data.get("command_params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"{config_path}: command_params must be an object")
        self.params = params
        self.outdir = Path(data.get("output_dir", "."))
        seed = data.get("seed", 0)
        if not isinstance(seed, int) or seed < 0:
            raise ConfigError(f"{config_path}: seed must be a non-negative integer")
        self.seed = seed
        self.budget = args.budget
        self.grid = args.grid
        self.tol = args.tol

    def take(self, keys: dict) -> dict:
        """Validate command_params against `keys` (name -> default): an int
        default takes an int and a float default an int or float, never a
        bool, finite as a float64; None defaults are checked by their command."""
        _reject_unknown(
            self.params, set(keys), "command_params", self.raw, self.path
        )
        p = {k: self.params.get(k, v) for k, v in keys.items()}
        for key, default in keys.items():
            if default is None:
                continue
            value, where = p[key], f"{self.path}: command_params.{key}"
            if type(default) is int and type(value) is not int:
                raise ConfigError(f"{where} must be an integer")
            if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
                raise ConfigError(f"{where} must be a finite number")
        return p


# ---------------------------------------------------------------------------
# command pipelines: each returns (files, status), where files is a list of
# (name, header, rows) for main to write and status is ok, audit_failed,
# budget or not_converged; a measure file's rows are its AtomicMeasure


PRESSURE_HEADER = ("n", "p_n", "P_hat", "delta", "status")


def _pressure_rows(report, requested_max: int):
    status = "ok" if report.depths[-1] >= requested_max else "budget"
    rows = [
        (int(n), p, report.estimate, report.fluctuation, status)
        for n, p in zip(report.depths, report.p_values)
    ]
    return rows, status


def cmd_tree_pressure(exp: Experiment, *, filename: str, weighted: bool):
    """`pressure` (weighted by the configured potential) and `entropy` (no
    potential): tree_pressure per depth, as `filename`."""
    p = exp.take({"x0": 0.3, "n_min": 1, "n_max": 12})
    report = tree_pressure(
        exp.imap,
        exp.potential if weighted else None,
        p["x0"],
        p["n_max"],
        n_min=p["n_min"],
        budget=exp.budget,
        partial_on_budget=True,
    )
    rows, status = _pressure_rows(report, p["n_max"])
    return [(filename, PRESSURE_HEADER, rows)], status


def _at_least(exp: Experiment, p: dict, key: str, low: int) -> None:
    if p[key] < low:
        raise ConfigError(f"{exp.path}: command_params.{key} must be an integer >= {low}")


def _conformal_pipeline(exp: Experiment, p: dict):
    """Transition parameter, weak limit and tree pressure report (None
    without `tree_depth`) from one preimage walk to max(n_max, tree_depth);
    its retained levels die with this frame, before any power iteration."""
    _at_least(exp, p, "bins", 1)
    n_max, tree_depth = p["n_max"], p.get("tree_depth")
    sums = level_sums(
        exp.imap,
        exp.potential,
        p["x0"],
        max(n_max, tree_depth or 0),
        exp.budget,
        retain_from=window_start(n_max),
        retain_to=n_max,
    )
    head = sums.upto(n_max)
    trans = transition_parameter(head)
    limit = weak_limit(
        head,
        trans.c,
        bins=p["bins"],
        tol=max(exp.tol, 1e-6),
        theta=p["theta"],
    )
    tree = None if tree_depth is None else pressure_report(sums, tree_depth)
    return trans, limit, tree


CONFORMAL_PARAMS = {"x0": 0.3, "n_max": 14, "bins": 64, "theta": 0.0}


def _conformal_row(trans, limit):
    """The conformal.csv row; its last cell, the status, is ok only when the
    weak limit converged."""
    return (
        trans.c,
        trans.residual,
        limit.s_values[-1],
        limit.eta_final,
        limit.stability,
        "true" if limit.converged else "false",
        int(limit.window[0]),
        int(limit.window[1]),
        "ok" if limit.converged else "not_converged",
    )


CONFORMAL_HEADER = (
    "c",
    "fit_residual",
    "s_final",
    "eta_final",
    "stability",
    "converged",
    "window_lo",
    "window_hi",
    "status",
)


def cmd_conformal(exp: Experiment):
    p = exp.take(CONFORMAL_PARAMS)
    trans, limit, _ = _conformal_pipeline(exp, p)
    row = _conformal_row(trans, limit)
    return [
        ("measure.csv", ("point", "mass"), limit.measure),
        ("binned.csv", ("bin", "mass"), ((int(i), m) for i, m in enumerate(limit.binned))),
        ("conformal.csv", CONFORMAL_HEADER, [row]),
    ], row[-1]


EQUILIBRIUM_HEADER = (
    "lambda",
    "log_lambda",
    "tree_P_hat",
    "entropy",
    "potential_mean",
    "residual",
    "iterations",
    "rho_hat",
    "fit_r2",
    "hyperbolicity",
    "status",
)


def _equilibrium_pipeline(exp: Experiment, tree, mu: AtomicMeasure):
    eigen = power_iteration(
        exp.imap, exp.potential, grid_size=exp.grid, tol=exp.tol, mu=mu
    )
    hyper = hyperbolicity_check(
        exp.imap, exp.potential, tree.estimate, grid_size=exp.grid
    )
    state = equilibrium_state(
        exp.imap, exp.potential, mu, eigen,
        hyperbolic=hyper.verdict == "hyperbolic",
    )
    return eigen, hyper, state


def _equilibrium_row(tree, limit, eigen, hyper, state):
    """The equilibrium.csv row; its last cell, the status, is ok only when
    both the weak limit and the eigenpair converged."""
    return (
        eigen.eigenvalue,
        eigen.log_eigenvalue,
        tree.estimate,
        state.entropy,
        state.potential_mean,
        eigen.residual,
        int(eigen.iterations),
        eigen.rho_hat,
        eigen.fit_r2,
        hyper.verdict,
        "ok" if limit.converged and eigen.converged else "not_converged",
    )


def cmd_equilibrium(exp: Experiment):
    p = exp.take({**CONFORMAL_PARAMS, "tree_depth": 12})
    _, limit, tree = _conformal_pipeline(exp, p)
    eigen, hyper, state = _equilibrium_pipeline(exp, tree, limit.measure)
    row = _equilibrium_row(tree, limit, eigen, hyper, state)
    return [
        ("mu.csv", ("point", "mass"), limit.measure),
        ("nu.csv", ("point", "mass"), state.nu),
        ("equilibrium.csv", EQUILIBRIUM_HEADER, [row]),
    ], row[-1]


def _observables(exp: Experiment, specs) -> list[Callable]:
    """Smoothed indicators from command_params.observables, all checked first."""
    lo, hi = exp.imap.domain
    if specs is None:
        specs = [{"lo": lo, "hi": lo + (hi - lo) / 3.0, "width": 0.05}]
    if not isinstance(specs, list) or not specs:
        raise ConfigError(
            f"{exp.path}: command_params.observables must be a nonempty list"
        )
    for idx, spec in enumerate(specs):
        where = f"{exp.path}: command_params.observables[{idx}]"
        if not isinstance(spec, dict):
            raise ConfigError(f"{where} must be an object")
        if set(spec) - {"lo", "hi", "width"}:
            raise ConfigError(f"{where}: observable keys are lo, hi, width")
        for key in ("lo", "hi"):
            if key not in spec:
                raise ConfigError(f"{where}: missing key {key!r}")
        for key, value in spec.items():
            if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
                raise ConfigError(f"{where}.{key} must be a finite number")
        if spec.get("width", 0.05) <= 0:
            raise ConfigError(f"{where}.width must be positive")
    return [
        smoothed_indicator(
            float(spec["lo"]), float(spec["hi"]), float(spec.get("width", 0.05))
        )
        for spec in specs
    ]


def cmd_correlations(exp: Experiment):
    p = exp.take(
        {
            **CONFORMAL_PARAMS,
            "tree_depth": 12,
            "lags": 12,
            "observables": None,
        }
    )
    _at_least(exp, p, "lags", 5)
    fns = _observables(exp, p["observables"])
    _, limit, tree = _conformal_pipeline(exp, p)
    eigen, hyper, state = _equilibrium_pipeline(exp, tree, limit.measure)
    status = _equilibrium_row(tree, limit, eigen, hyper, state)[-1]
    batch = correlation(exp.imap, fns, fns, state.nu, n_max=p["lags"])
    rows = []
    for idx, rep in enumerate(batch.reports):
        flag = "below_resolution" if rep.below_resolution else "ok"
        for n, c in zip(rep.ns, rep.c_values):
            # write_csv writes a missing fit (None) as nan
            rows.append((int(idx), int(n), c, rep.rho, rep.r_squared,
                         flag if status == "ok" else status))
    header = ("observable", "n", "c_n", "rho", "r_squared", "status")
    return [("correlations.csv", header, rows)], status


def cmd_norms(exp: Experiment):
    p = exp.take(
        {"alpha": 0.5, "scale": 0.5, "draws": 20, "atoms": 48, "p": None}
    )
    _at_least(exp, p, "draws", 1)
    _at_least(exp, p, "atoms", 1)
    if p["p"] is not None and (
        type(p["p"]) not in (int, float) or not 1 <= p["p"] < np.inf
    ):
        raise ConfigError(
            f"{exp.path}: command_params.p must be a finite number >= 1"
        )
    rng = np.random.default_rng(exp.seed)
    m = uniform_atoms(p["atoms"], exp.imap.domain)
    rows = []
    all_passed = True
    for draw in range(p["draws"]):
        values = np.zeros(p["atoms"])
        for _ in range(rng.integers(0, 4)):
            values += rng.uniform(-1, 1) * (
                m.points >= rng.uniform(*exp.imap.domain)
            )
        for _ in range(rng.integers(1, 4)):
            c = rng.uniform(*exp.imap.domain)
            values += rng.uniform(-1, 1) * np.abs(m.points - c) ** p["alpha"]
        h = SampledFunction(m.points, values)
        report = norm_report(h, m, p["alpha"], p["scale"], p=p["p"])
        audit = norm_chain_audit(h, m, p["alpha"], p["scale"], report=report)
        all_passed &= audit.passed
        worst = min(chk.slack for chk in audit.checks)
        rows.append(
            (
                int(draw),
                p["alpha"],
                report.l1,
                report.keller_seminorm,
                report.keller_norm,
                report.var_p,
                report.bv_norm,
                report.holder_norm,
                audit.c_star,
                "true" if audit.passed else "false",
                worst,
                "ok" if audit.passed else "audit_failed",
            )
        )
    header = (
        "draw",
        "alpha",
        "l1",
        "keller_seminorm",
        "keller_norm",
        "var_p",
        "bv_norm",
        "holder_norm",
        "c_star",
        "passed",
        "worst_slack",
        "status",
    )
    return [("norms.csv", header, rows)], "ok" if all_passed else "audit_failed"


def cmd_curve(exp: Experiment):
    p = exp.take(
        {
            "x0": 0.3,
            "n_max": 8,
            "t_lo": -1.0,
            "t_hi": 1.0,
            "t_count": 21,
            "chi": None,
        }
    )
    if p["chi"] is None:
        raise ConfigError(f"{exp.path}: curve requires command_params.chi")
    chi = build_potential(p["chi"], exp.raw, exp.path, exp.imap.domain)
    ts = np.linspace(p["t_lo"], p["t_hi"], p["t_count"])
    curve = pressure_curve(
        exp.imap,
        exp.potential,
        chi,
        ts,
        x0=p["x0"],
        n_max=p["n_max"],
        budget=exp.budget,
    )
    rows = [
        (t, est, d1, d2, curve.fit_residual)
        for t, est, d1, d2 in zip(
            curve.ts, curve.estimates, curve.first_diff, curve.second_diff
        )
    ]
    header = ("t", "P_hat", "dP_central", "d2P_central", "fit_residual")
    return [("curve.csv", header, rows)], "ok"


def cmd_appendix(exp: Experiment):
    p = exp.take({"gap": float(np.log(4.0)), "x0": 0.3, "n_max": 11})
    rep = appendix_construct(p["gap"], x0=p["x0"], n_max=p["n_max"], budget=exp.budget)
    header = (
        "gap",
        "sup_phi",
        "inf_phi",
        "phi_range",
        "P_hat",
        "entropy",
        "hyperbolic",
        "hyperbolic_margin",
        "bounded_range",
        "phi_at_fixed_point",
        "status",
    )
    row = (
        rep.gap,
        rep.sup_phi,
        rep.inf_phi,
        rep.phi_range,
        rep.pressure.estimate,
        rep.entropy.estimate,
        "true" if rep.hyperbolic else "false",
        rep.hyperbolic_margin,
        "true" if rep.bounded_range else "false",
        rep.phi_at_fixed_point,
        "ok",
    )
    return [("appendix.csv", header, [row])], "ok"


def _single_branch_intervals(imap: IntervalMap, count: int):
    """Evenly spaced test intervals strictly inside each branch cell."""
    per = max(1, count // len(imap.branches))
    out = []
    for br in imap.branches:
        width = br.hi - br.lo
        for i in range(per):
            a = br.lo + width * (i + 0.2) / (per + 0.4)
            b = a + 0.55 * width / (per + 0.4)
            out.append((a, b))
    return out[:count]


def cmd_audit_all(exp: Experiment):
    p = exp.take(
        {
            **CONFORMAL_PARAMS,
            "tree_depth": 12,
            "intervals": 20,
            "conformality_bound": 1e-2,
            "adjoint_bound": 1e-2,
        }
    )
    _at_least(exp, p, "intervals", 1)
    trans, limit, tree = _conformal_pipeline(exp, p)
    mu = limit.measure
    conf = conformality_audit(
        mu,
        exp.imap,
        exp.potential,
        trans.c,
        _single_branch_intervals(exp.imap, p["intervals"]),
    )
    atoms = atom_audit(mu, (64, 512))
    support = float(np.min(mu.bin_masses(64)))
    eigen, hyper, state = _equilibrium_pipeline(exp, tree, mu)

    lo, hi = exp.imap.domain
    suite = [
        lambda x: np.ones_like(np.asarray(x, dtype=float)),
        lambda x: np.asarray(x, dtype=float),
        lambda x: np.asarray(x, dtype=float) ** 2,
        lambda x: np.cos(np.pi * (np.asarray(x, dtype=float) - lo) / (hi - lo)),
        lambda x: np.sin(2 * np.pi * (np.asarray(x, dtype=float) - lo) / (hi - lo)),
        lambda x: np.exp(np.asarray(x, dtype=float) - lo),
        smoothed_indicator(lo + 0.1 * (hi - lo), lo + 0.3 * (hi - lo)),
        smoothed_indicator(lo + 0.5 * (hi - lo), lo + 0.9 * (hi - lo)),
        lambda x: np.abs(np.asarray(x, dtype=float) - lo - 0.37 * (hi - lo)),
        lambda x: (np.asarray(x, dtype=float) >= lo + (hi - lo) / 3.0).astype(float),
    ]
    dev = adjoint_invariance_audit(
        exp.imap,
        exp.potential,
        eigen.log_eigenvalue,
        mu,
        suite,
        grid_size=exp.grid,
    )

    audits = [
        ("conformality_max_delta", conf.max_delta, p["conformality_bound"]),
        ("full_support_min_64bin", -support, 0.0),
        ("eigen_vs_tree", abs(eigen.log_eigenvalue - tree.estimate),
         max(2.0 * tree.fluctuation, 1e-2)),
    ]
    if hyper.verdict == "hyperbolic":
        audits.append(("entropy_positive", -state.entropy, 0.0))
    audits.append(("adjoint_max_deviation", dev, p["adjoint_bound"]))
    audit_rows = [
        (name, value, bound, "true" if value <= bound else "false",
         "ok" if value <= bound else "audit_failed")
        for name, value, bound in audits
    ]
    audit_rows.append(
        ("atom_max_bin_mass_512", float(atoms.max_bin_masses[-1]), float("nan"),
         "true", "ok")
    )
    pressure_rows, _ = _pressure_rows(tree, p["tree_depth"])
    row = _equilibrium_row(tree, limit, eigen, hyper, state)
    status = row[-1]
    if status == "ok" and any(r[-1] == "audit_failed" for r in audit_rows):
        status = "audit_failed"
    return [
        ("pressure.csv", PRESSURE_HEADER, pressure_rows),
        ("measure.csv", ("point", "mass"), mu),
        ("conformal.csv", CONFORMAL_HEADER, [_conformal_row(trans, limit)]),
        ("nu.csv", ("point", "mass"), state.nu),
        ("equilibrium.csv", EQUILIBRIUM_HEADER, [row]),
        ("audit.csv", ("name", "value", "bound", "passed", "status"), audit_rows),
    ], status


RUNNERS: dict[str, Callable[[Experiment], tuple[list, str]]] = {
    "pressure": partial(cmd_tree_pressure, filename="pressure.csv", weighted=True),
    "entropy": partial(cmd_tree_pressure, filename="entropy.csv", weighted=False),
    "conformal": cmd_conformal,
    "equilibrium": cmd_equilibrium,
    "correlations": cmd_correlations,
    "norms": cmd_norms,
    "curve": cmd_curve,
    "appendix": cmd_appendix,
    "audit-all": cmd_audit_all,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="thermomap",
        description="Thermodynamic-formalism experiments on interval maps",
    )
    parser.add_argument("command", choices=RUNNERS)
    parser.add_argument("config", help="path to a JSON experiment config")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="preimage-tree node budget")
    parser.add_argument("--grid", type=int, default=DEFAULT_GRID,
                        help="transfer-operator grid size")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="iteration tolerance")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads (affects speed only, never results)")
    args = parser.parse_args(argv)

    if args.threads < 1:
        print(f"{parser.prog}: --threads must be >= 1", file=sys.stderr)
        return 64
    if args.budget < 1 or args.grid < 16 or not args.tol > 0:
        print(f"{parser.prog}: invalid --budget/--grid/--tol", file=sys.stderr)
        return 64

    try:
        exp = Experiment(args.config, args)
        exp.outdir.mkdir(parents=True, exist_ok=True)
        files, status = RUNNERS[args.command](exp)
    except (ConfigError, FileNotFoundError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 64
    except AuditError as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return 2
    except (BudgetError, ConvergenceError) as exc:
        print(f"resource/convergence failure: {exc}", file=sys.stderr)
        return 3
    for name, header, rows in files:
        if isinstance(rows, AtomicMeasure):  # stacked only as it is written
            rows = np.column_stack((rows.points, rows.masses))
        write_csv(exp.outdir / name, header, rows)
    return {"ok": 0, "audit_failed": 2, "budget": 3, "not_converged": 3}[status]


if __name__ == "__main__":
    sys.exit(main())
