"""Command-line front end: config ingestion, orchestration, persistence.

A JSON config describes the map, the potential and the command's
parameters. Each command is one COMMANDS entry: the schema `main` reads
its ``command_params`` against, and the pipeline it hands them to, which
returns its CSV artifacts as rows keyed by column; `main` alone writes the
artifacts into the configured output directory and reads the exit code
from their status cells. All floating-point output uses 17 significant
digits so files round-trip bit-exactly; identical configs and seeds
produce byte-identical artifacts regardless of the ``--threads`` flag,
which is accepted for interface stability but never changes results
(orchestration is single-threaded by design).

Exit codes: 0 success, 2 audit failure, 3 budget or convergence failure,
64 malformed or unreadable configuration or output directory (message
naming the key path; an unknown key is anchored to its line). On exit 3
a flagged result is still written, with status ``budget`` (pressure,
entropy) or ``not_converged`` (conformal, equilibrium, correlations,
audit-all); a raised failure writes nothing. `correlations` writes the
signed C_n of `transfer.correlation` per lag, each lag from the first one
at its observable's resolution floor on with status ``below_resolution``,
which exits 0. A nonpositive entropy for a potential certified hyperbolic
exits 2: `equilibrium` and `audit-all` check it against the nu they write,
on mu's atoms, and `correlations`, which writes no nu, on mu's projection
onto h's grid.
"""

from __future__ import annotations

import argparse
import json
import re
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
from .g17 import format_rows
from .keller import SampledFunction, norm_chain_audit, norm_report
from .maps import DEFAULT_NODE_BUDGET as DEFAULT_BUDGET
from .maps import IntervalMap, full_linear_map, logistic4_map, pw_linear_map
from .potentials import (
    BranchConstantPotential,
    ConstantPotential,
    CosineSeriesPotential,
    PiecewiseLinearPotential,
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
DEFAULT_TOL = 1e-12  # --tol, power iteration's only: the weak limit's is fixed
WEAK_LIMIT_TOL = 1e-6
AUDIT_INTERVALS = 20  # audit-all's conformality test intervals
AUDIT_BOUND = 1e-2  # audit-all's bound on the conformality and adjoint defects


# Rows per formatting step of an all-float table (see write_csv).
CSV_CHUNK_ROWS = 8192


def _fmt(x) -> str:
    if x is None:
        return "nan"
    return format(float(x), ".17g")


def write_csv(path: Path, header: Sequence[str], rows) -> None:
    """Write `header` and `rows` as CSV; numbers get 17 significant digits.

    A 2-D float ndarray with one column per header field is streamed to the
    file CSV_CHUNK_ROWS rows at a time through `g17.format_rows`: exact
    vectorized double-double digits in a 32-byte frame per cell, and
    Python's ``"%.17g"`` for zeros, non-finite cells, possible rounding
    ties and cells of 10 <= |x| < 1e17; every cell is byte-identical to
    ``_fmt``.
    Memory is bounded by the chunk, not the table. Any other iterable of
    rows is formatted cell by cell; string cells pass through unchanged.
    """
    if (
        isinstance(rows, np.ndarray)
        and rows.dtype.kind == "f"
        and rows.ndim == 2
        and rows.shape[1] == len(header)
    ):
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\n").encode())
            for start in range(0, len(rows), CSV_CHUNK_ROWS):
                fh.write(format_rows(rows[start:start + CSV_CHUNK_ROWS]))
        return
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else _fmt(c) for c in row))
    path.write_text("\n".join(lines) + "\n")


def read_measure(path: Path) -> AtomicMeasure:
    """Parse a measure file; rejects non-finite cells, unsorted points,
    negative masses, and mass sums off by more than 1e-9. Measure files
    written by the CLI round-trip bit-exactly."""
    text = Path(path).read_text()
    lines = text.strip().splitlines()
    # line numbers count the blank lines that strip() drops from the top
    top = next((i for i, line in enumerate(text.splitlines()) if line.strip()), 0)
    if not lines or lines[0].strip() != "point,mass":
        raise ConfigError(f"{path}:{top + 1}: expected header 'point,mass'")
    pts, ms = [], []
    for i, line in enumerate(lines[1:], start=top + 2):
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
    bad = np.flatnonzero(~(np.isfinite(points) & np.isfinite(masses)))
    if bad.size:
        i = int(bad[0]) + 1  # index into lines, which starts with the header
        raise ConfigError(f"{path}:{top + i + 1}: non-finite cell in {lines[i]!r}")
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
# configuration: every config object is read by `Experiment.read` against a
# schema, a dict key -> (default, check) in which REQUIRED marks a key with no
# default. A check takes (experiment, key path, value) and returns the value
# to use, or raises ConfigError naming the key path.


REQUIRED = object()


def _number(integer: bool = False, low=None, strict: bool = False, high=None):
    """Check for a JSON number, never a bool, finite as a float64: an integer
    when `integer`, else an integer or a real; at least `low` (above it when
    `strict`) and at most `high`."""
    what = "an integer" if integer else "a finite number"
    what += "" if low is None else f" {'>' if strict else '>='} {low}"
    what += "" if high is None else f" and <= {high}"

    def check(exp, key, value):
        if (type(value) not in ((int,) if integer else (int, float))
                or not abs(value) <= sys.float_info.max
                or low is not None and (value <= low if strict else value < low)
                or high is not None and value > high):
            exp.fail(key, what)
        return value

    return check


_REAL, _COUNT, _POSITIVE = _number(), _number(integer=True, low=1), _number(low=0, strict=True)


def _reals(size: Optional[int] = None):
    """Check for a nonempty list of finite numbers (of `size` when given),
    returned as a tuple."""
    what = f"a list of {size} finite number" if size else "a nonempty list of finite numbers"

    def check(exp, key, value):
        if not isinstance(value, list) or not value or size and len(value) != size:
            exp.fail(key, what)
        return tuple(_REAL(exp, f"{key}[{i}]", item) for i, item in enumerate(value))

    return check


def _is(kind: type, what: str):
    def check(exp, key, value):
        if not isinstance(value, kind):
            exp.fail(key, what)
        return value

    return check


def _or_null(check):
    return lambda exp, key, value: None if value is None else check(exp, key, value)


# kind -> (schema, constructor); `Experiment.build` calls the constructor with
# its own arguments (a potential's: the map's domain, over which a cosine
# series takes its frequencies) and then the kind's values in schema order
MAPS = {
    "full_linear": ({"branches": (REQUIRED, _number(integer=True, low=2))}, full_linear_map),
    "pw_linear": (
        {key: (REQUIRED, _reals()) for key in ("breakpoints", "slopes", "intercepts")},
        pw_linear_map,
    ),
    "logistic4": ({}, logistic4_map),
}
_CELLS = {"segments": (REQUIRED, _reals()), "values": (REQUIRED, _reals())}
POTENTIALS = {
    "constant": (
        {"values": (REQUIRED, _reals(size=1))},
        lambda domain, values: ConstantPotential(float(values[0])),
    ),
    "branch_pw_constant": (_CELLS, lambda domain, *cells: BranchConstantPotential(*cells)),
    "cosine_series": (
        {"coefficients": (REQUIRED, _reals()), "offset": (0.0, _REAL)},
        lambda domain, coefficients, offset: CosineSeriesPotential(
            coefficients, float(offset), float(domain[0]), float(domain[1])
        ),
    ),
    "pw_linear": (_CELLS, lambda domain, *cells: PiecewiseLinearPotential(*cells)),
}
_OBJECT, _STRING = _is(dict, "an object"), _is(str, "a string")
CONFIG = {
    "map": (REQUIRED, _OBJECT),
    "potential": (None, _or_null(_OBJECT)),
    "command_params": ({}, _OBJECT),
    "output_dir": (".", _STRING),
    "seed": (0, _number(integer=True, low=0)),
}


def _load_json(raw: str):
    """``json.loads(raw)`` and {id of each object in it: (its start offset,
    its end offset, it)}."""
    spans, decoder = {}, json.JSONDecoder()

    def parse_object(s_and_end, *args):
        obj, end = json.decoder.JSONObject(s_and_end, *args)
        spans[id(obj)] = (s_and_end[1] - 1, end, obj)  # held, so no id is reused
        return obj, end

    decoder.parse_object = parse_object
    decoder.scan_once = json.scanner.py_make_scanner(decoder)
    return decoder.decode(raw), spans


class Experiment:
    """Validated configuration plus global flag overrides."""

    def __init__(self, config_path: str, args):
        self.raw = Path(config_path).read_text(encoding="utf-8")
        try:
            data, self.spans = _load_json(self.raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{config_path}:{exc.lineno}: {exc.msg}") from exc
        self.path = config_path
        top = self.read(data, CONFIG, "")
        self.imap = self.build(top["map"], "map", MAPS)
        self.potential = None if top["potential"] is None else self.build(
            top["potential"], "potential", POTENTIALS, self.imap.domain
        )
        self.params = top["command_params"]
        self.outdir = Path(top["output_dir"])
        self.seed = top["seed"]
        self.budget = args.budget
        self.grid = args.grid
        self.tol = args.tol

    def fail(self, key: str, what: str):
        raise ConfigError(f"{self.path}: {key} must be {what}")

    def line_of(self, obj, key: str) -> Optional[int]:
        """The line of `key` in the config object `obj`, not counting the
        objects nested in it; None when the text does not show it."""
        start, end, _ = self.spans.get(id(obj), (0, len(self.raw), obj))
        nested = [(s, e) for s, e, _ in self.spans.values() if start < s < end]
        name = re.compile(re.escape(json.dumps(key, ensure_ascii=False)) + r"\s*:")
        for match in name.finditer(self.raw, start, end):
            if not any(s < match.start() < e for s, e in nested):
                return self.raw.count("\n", 0, match.start()) + 1
        return None

    def read(self, obj, schema: dict, where: str) -> dict:
        """The values of the config object `obj` at key path `where` ("" at
        the top level): an unknown key is rejected at its line, a missing one
        takes its default, and every value goes through its key's check."""
        label = where or "config"
        _OBJECT(self, label, obj)
        for key in obj:
            if key not in schema:
                line = self.line_of(obj, key)
                raise ConfigError(
                    f"{self.path}{f':{line}' if line else ''}: unknown key {key!r} "
                    f"in {label} (allowed: {sorted(schema)})"
                )
        out = {}
        for key, (default, check) in schema.items():
            if key not in obj and default is REQUIRED:
                raise ConfigError(f"{self.path}: missing required key {key!r} in {label}")
            out[key] = check(self, f"{where}.{key}" if where else key, obj.get(key, default))
        return out

    def build(self, spec, key: str, table: dict, *args):
        """Construct the map or potential (`table` MAPS or POTENTIALS) that the
        object at `key` describes, read against its kind's schema."""
        kind = _OBJECT(self, key, spec).get("kind")
        if not isinstance(kind, str) or kind not in table:
            self.fail(f"{key}.kind", f"one of {', '.join(table)}")
        schema, make = table[kind]
        _, *values = self.read(spec, {"kind": (REQUIRED, _STRING), **schema}, key).values()
        try:
            return make(*args, *values)
        except DomainError as exc:  # a constraint between values, such as lengths
            raise ConfigError(f"{self.path}: {key}: {exc}") from exc


OBSERVABLE = {
    "lo": (REQUIRED, _REAL),
    "hi": (REQUIRED, _REAL),
    "width": (0.05, _POSITIVE),
}


def _observables(exp: Experiment, key: str, specs) -> list[Callable]:
    """Smoothed indicators of [lo, hi], lo < hi, each read against
    OBSERVABLE; by default one on the first third of the domain."""
    if specs is None:
        lo, hi = exp.imap.domain
        specs = [{"lo": lo, "hi": lo + (hi - lo) / 3.0}]
    if not isinstance(specs, list) or not specs:
        exp.fail(key, "a nonempty list")
    fields = [exp.read(spec, OBSERVABLE, f"{key}[{i}]") for i, spec in enumerate(specs)]
    for i, f in enumerate(fields):
        if not f["lo"] < f["hi"]:
            exp.fail(f"{key}[{i}]", "an indicator with lo < hi")
    return [smoothed_indicator(*map(float, f.values())) for f in fields]


def _x0(exp: Experiment, key: str, value) -> float:
    """The base point; by default 0.3 of the way across the map's domain."""
    lo, hi = exp.imap.domain
    return lo + 0.3 * (hi - lo) if value is None else _REAL(exp, key, value)


# the bounds the library enforces: a tree walk needs n_max >= 1 and the
# weak limit n_max >= 4, checked here so the error names the key
_CONFORMAL = {"x0": (None, _x0), "n_max": (14, _number(integer=True, low=4))}
_PRESSURE = {"x0": (None, _x0), "n_max": (12, _COUNT)}
_EIGEN = {**_CONFORMAL, "tree_depth": (12, _COUNT)}


# ---------------------------------------------------------------------------
# command pipelines: each takes the experiment and its command_params, read
# against the command's schema in COMMANDS, and returns its files, a list of
# (name, rows) for main to write. A measure file's rows are its AtomicMeasure;
# any other file's rows are dicts column -> cell, so the keys of its first row
# are its header. The exit code is the worst of the status cells (EXIT_CODES).


def _pressure_rows(report) -> list[dict]:
    status = "ok" if report.complete else "budget"
    return [
        {"n": int(n), "p_n": p, "P_hat": report.estimate,
         "delta": report.fluctuation, "status": status}
        for n, p in zip(report.depths, report.p_values)
    ]


def cmd_tree_pressure(exp: Experiment, p: dict, *, filename: str, weighted: bool):
    """`pressure` (weighted by the configured potential) and `entropy` (no
    potential): tree_pressure per depth, as `filename`."""
    report = tree_pressure(exp.imap, exp.potential if weighted else None, p["x0"],
                           p["n_max"], budget=exp.budget, partial_on_budget=True)
    return [(filename, _pressure_rows(report))]


def _conformal_pipeline(exp: Experiment, p: dict):
    """Transition parameter, weak limit and tree pressure report (None
    without `tree_depth`) from one preimage walk to max(n_max, tree_depth);
    its retained levels die with this frame, before any power iteration."""
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
    limit = weak_limit(head, trans.c, tol=WEAK_LIMIT_TOL)
    tree = None if tree_depth is None else pressure_report(sums, tree_depth)
    return trans, limit, tree


def _conformal_row(trans, limit) -> dict:
    """The conformal.csv row; its status is ok only when the weak limit
    converged."""
    return {
        "c": trans.c,
        "fit_residual": trans.residual,
        "s_final": limit.s_values[-1],
        "eta_final": limit.eta_final,
        "stability": limit.stability,
        "converged": "true" if limit.converged else "false",
        "window_lo": int(limit.window[0]),
        "window_hi": int(limit.window[1]),
        "status": "ok" if limit.converged else "not_converged",
    }


def cmd_conformal(exp: Experiment, p: dict):
    trans, limit, _ = _conformal_pipeline(exp, p)
    return [
        ("measure.csv", limit.measure),
        ("binned.csv", [{"bin": int(i), "mass": m} for i, m in enumerate(limit.binned)]),
        ("conformal.csv", [_conformal_row(trans, limit)]),
    ]


def _equilibrium_pipeline(exp: Experiment, p: dict):
    """`_conformal_pipeline`'s results, then the eigenpair normalized
    against its measure mu and the hyperbolicity check; each command runs
    `equilibrium_state` on the measure it needs."""
    trans, limit, tree = _conformal_pipeline(exp, p)
    eigen = power_iteration(
        exp.imap, exp.potential, grid_size=exp.grid, tol=exp.tol, mu=limit.measure
    )
    hyper = hyperbolicity_check(
        exp.imap, exp.potential, tree.estimate, grid_size=exp.grid
    )
    return trans, limit, tree, eigen, hyper


def _equilibrium_row(tree, limit, eigen, hyper, state) -> dict:
    """The equilibrium.csv row; its status is ok only when both the weak
    limit and the eigenpair converged."""
    return {
        "lambda": eigen.eigenvalue,
        "log_lambda": eigen.log_eigenvalue,
        "tree_P_hat": tree.estimate,
        "entropy": state.entropy,
        "potential_mean": state.potential_mean,
        "residual": eigen.residual,
        "iterations": int(eigen.iterations),
        "hyperbolicity": hyper.verdict,
        "status": "ok" if limit.converged and eigen.converged else "not_converged",
    }


def cmd_equilibrium(exp: Experiment, p: dict):
    _, limit, tree, eigen, hyper = _equilibrium_pipeline(exp, p)
    state = equilibrium_state(exp.potential, limit.measure, eigen, hyper.verdict == "hyperbolic")
    return [
        ("mu.csv", limit.measure),
        ("nu.csv", state.nu),
        ("equilibrium.csv", [_equilibrium_row(tree, limit, eigen, hyper, state)]),
    ]


def cmd_correlations(exp: Experiment, p: dict):
    _, limit, _, eigen, hyper = _equilibrium_pipeline(exp, p)
    mu = limit.measure
    # correlations.csv reads no nu: the entropy guard runs on mu's grid projection
    grid = eigen.h.grid
    on_grid = AtomicMeasure.normalized(grid, mu.hat_weights(grid), mu.domain)
    equilibrium_state(exp.potential, on_grid, eigen, hyper.verdict == "hyperbolic")
    status = "ok" if limit.converged and eigen.converged else "not_converged"
    fns = p["observables"]
    batch = correlation(exp.imap, fns, fns, mu, exp.potential, eigen, n_max=p["lags"])
    rows = []
    for idx, rep in enumerate(batch.reports):
        for n, c, below in zip(rep.ns, rep.c_values, rep.below_resolution):
            flag = "below_resolution" if below else "ok"
            # write_csv writes a missing fit (None) as nan
            rows.append({"observable": int(idx), "n": int(n), "c_n": c, "rho": rep.rho,
                         "r_squared": rep.r_squared,
                         "status": flag if status == "ok" else status})
    return [("correlations.csv", rows)]


def cmd_norms(exp: Experiment, p: dict):
    rng = np.random.default_rng(exp.seed)
    m = uniform_atoms(p["atoms"], exp.imap.domain)
    rows = []
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
        audit = norm_chain_audit(report)
        rows.append({
            "draw": int(draw),
            "alpha": p["alpha"],
            "l1": report.keller.l1,
            "keller_seminorm": report.keller.seminorm,
            "keller_norm": report.keller.norm,
            "var_p": report.var_p,
            "bv_norm": report.bv_norm,
            "holder_norm": report.holder_norm,
            "c_star": audit.c_star,
            "passed": "true" if audit.passed else "false",
            "worst_slack": min(chk.slack for chk in audit.checks),
            "status": "ok" if audit.passed else "audit_failed",
        })
    return [("norms.csv", rows)]


def cmd_curve(exp: Experiment, p: dict):
    ts = np.linspace(p["t_lo"], p["t_hi"], p["t_count"])
    curve = pressure_curve(exp.imap, exp.potential, p["chi"], ts,
                           x0=p["x0"], n_max=p["n_max"], budget=exp.budget)
    rows = [
        {"t": t, "P_hat": est, "dP_central": d1, "d2P_central": d2,
         "fit_residual": curve.fit_residual}
        for t, est, d1, d2 in zip(
            curve.ts, curve.estimates, curve.first_diff, curve.second_diff
        )
    ]
    return [("curve.csv", rows)]


def cmd_appendix(exp: Experiment, p: dict):
    rep = appendix_construct(p["gap"], x0=p["x0"], n_max=p["n_max"], budget=exp.budget)
    return [("appendix.csv", [{
        "gap": rep.gap,
        "sup_phi": rep.sup_phi,
        "inf_phi": rep.inf_phi,
        "phi_range": rep.phi_range,
        "P_hat": rep.pressure.estimate,
        "entropy": rep.entropy.estimate,
        "hyperbolic": "true" if rep.hyperbolic else "false",
        "hyperbolic_margin": rep.hyperbolic_margin,
        "bounded_range": "true" if rep.bounded_range else "false",
        "phi_at_fixed_point": rep.phi_at_fixed_point,
        "status": "ok",
    }])]


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


def cmd_audit_all(exp: Experiment, p: dict):
    trans, limit, tree, eigen, hyper = _equilibrium_pipeline(exp, p)
    mu = limit.measure
    conf = conformality_audit(
        mu,
        exp.imap,
        exp.potential,
        trans.c,
        _single_branch_intervals(exp.imap, AUDIT_INTERVALS),
    )
    atoms = atom_audit(mu, (512,))
    support = float(np.min(mu.bin_masses(64)))
    state = equilibrium_state(exp.potential, mu, eigen, hyper.verdict == "hyperbolic")

    lo, hi = exp.imap.domain
    probes = (  # of u = (x - lo) / (hi - lo): a rescaled domain audits alike
        np.ones_like,
        lambda u: u,
        lambda u: u ** 2,
        lambda u: np.cos(np.pi * u),
        lambda u: np.sin(2 * np.pi * u),
        np.exp,
        smoothed_indicator(0.1, 0.3),
        smoothed_indicator(0.5, 0.9),
        lambda u: np.abs(u - 0.37),
        lambda u: (u >= 1 / 3.0).astype(float),
    )
    suite = [lambda x, f=f: f((np.asarray(x, dtype=float) - lo) / (hi - lo)) for f in probes]
    dev = adjoint_invariance_audit(
        exp.imap,
        exp.potential,
        eigen.log_eigenvalue,
        mu,
        suite,
        grid_size=exp.grid,
    )

    audits = [
        ("conformality_max_delta", conf.max_delta, AUDIT_BOUND),
        ("full_support_min_64bin", -support, 0.0),
        ("eigen_vs_tree", abs(eigen.log_eigenvalue - tree.estimate),
         max(2.0 * tree.fluctuation, 1e-2)),
        ("adjoint_max_deviation", dev, AUDIT_BOUND),
        # reported, not bounded: a nan bound passes its value
        ("atom_max_bin_mass_512", float(atoms.max_bin_masses[-1]), float("nan")),
    ]
    audit_rows = []
    for name, value, bound in audits:
        passed = value <= bound or np.isnan(bound)
        audit_rows.append({"name": name, "value": value, "bound": bound,
                           "passed": "true" if passed else "false",
                           "status": "ok" if passed else "audit_failed"})
    return [
        ("pressure.csv", _pressure_rows(tree)),
        ("measure.csv", mu),
        ("conformal.csv", [_conformal_row(trans, limit)]),
        ("nu.csv", state.nu),
        ("equilibrium.csv", [_equilibrium_row(tree, limit, eigen, hyper, state)]),
        ("audit.csv", audit_rows),
    ]


# status cell -> exit code; main exits with the largest over the rows it writes
EXIT_CODES = {
    "ok": 0, "below_resolution": 0, "audit_failed": 2, "budget": 3, "not_converged": 3,
}

# command -> (its command_params schema, its pipeline); main reads
# command_params against the schema and hands the values to the pipeline
COMMANDS: dict[str, tuple[dict, Callable[[Experiment, dict], list]]] = {
    "pressure": (_PRESSURE, partial(cmd_tree_pressure, filename="pressure.csv", weighted=True)),
    "entropy": (_PRESSURE, partial(cmd_tree_pressure, filename="entropy.csv", weighted=False)),
    "conformal": (_CONFORMAL, cmd_conformal),
    "equilibrium": (_EIGEN, cmd_equilibrium),
    "correlations": ({
        **_EIGEN,
        "lags": (12, _number(integer=True, low=5)),
        "observables": (None, _observables),
    }, cmd_correlations),
    "norms": ({
        "alpha": (0.5, _number(low=0, strict=True, high=1)),
        "scale": (0.5, _POSITIVE),
        "draws": (20, _COUNT),
        "atoms": (48, _COUNT),
        "p": (None, _or_null(_number(low=1))),
    }, cmd_norms),
    "curve": ({
        "x0": (None, _x0),
        "n_max": (8, _COUNT),
        "t_lo": (-1.0, _REAL),
        "t_hi": (1.0, _REAL),
        "t_count": (21, _number(integer=True, low=5)),
        "chi": (REQUIRED, lambda exp, key, spec: exp.build(
            spec, key, POTENTIALS, exp.imap.domain)),
    }, cmd_curve),
    "appendix": ({
        "gap": (float(np.log(4.0)), _POSITIVE), "x0": (0.3, _REAL), "n_max": (11, _COUNT)
    }, cmd_appendix),
    "audit-all": (_EIGEN, cmd_audit_all),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="thermomap",
        description="Thermodynamic-formalism experiments on interval maps",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("config", help="path to a JSON experiment config")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="preimage-tree node budget")
    parser.add_argument("--grid", type=int, default=DEFAULT_GRID,
                        help="transfer-operator grid size")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="power-iteration tolerance")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads (affects speed only, never results)")
    args = parser.parse_args(argv)

    if args.threads < 1:
        print(f"{parser.prog}: --threads must be >= 1", file=sys.stderr)
        return 64
    if args.budget < 1 or args.grid < 16 or not args.tol > 0:
        print(f"{parser.prog}: invalid --budget/--grid/--tol", file=sys.stderr)
        return 64

    schema, run = COMMANDS[args.command]
    try:
        exp = Experiment(args.config, args)
        exp.outdir.mkdir(parents=True, exist_ok=True)
        files = run(exp, exp.read(exp.params, schema, "command_params"))
    except (ConfigError, DomainError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 64
    except AuditError as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return 2
    except (BudgetError, ConvergenceError) as exc:
        print(f"resource/convergence failure: {exc}", file=sys.stderr)
        return 3
    code = 0
    for name, rows in files:
        if isinstance(rows, AtomicMeasure):  # stacked only as it is written
            header, rows = ("point", "mass"), np.column_stack((rows.points, rows.masses))
        else:
            header = tuple(rows[0])
            code = max(code, *(EXIT_CODES[row.get("status", "ok")] for row in rows))
            rows = [tuple(row.values()) for row in rows]
        write_csv(exp.outdir / name, header, rows)
    return code


if __name__ == "__main__":
    sys.exit(main())
