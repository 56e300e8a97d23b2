"""Span tracing of thermomap's layers from outside the package.

``Tracer.install`` replaces module attributes and class methods with timing
wrappers. A function is replaced in every thermomap module that holds it,
so the ``from .x import y`` copies (cli's pipeline imports, the
``iter_preimage_levels`` and ``logsumexp`` names in conformal and pressure)
are traced too. Each wrapped call records a span ``[id, parent, name,
start, end, counters]``; spans stay in memory until the operation ends.

``layer_metrics`` turns one operation's spans into the per-layer metrics.
A metric ending in ``.s`` is the inclusive time in that layer's calls,
``.self_s`` excludes the time covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# span name -> (module, attribute) of each traced function
FUNCTIONS = {
    "cli.main": ("thermomap.cli", "main"),
    "cli.write_csv": ("thermomap.cli", "write_csv"),
    "maps.preimage": ("thermomap.maps", "iter_preimage_levels"),
    "pressure.level_lse": ("scipy.special", "logsumexp"),
    "pressure.tree_pressure": ("thermomap.pressure", "tree_pressure"),
    "pressure.separated_pressure": ("thermomap.pressure", "separated_pressure"),
    "pressure.hyperbolicity_check": ("thermomap.pressure", "hyperbolicity_check"),
    "conformal.transition_parameter": ("thermomap.conformal", "transition_parameter"),
    "conformal.weak_limit": ("thermomap.conformal", "weak_limit"),
    "conformal.conformality_audit": ("thermomap.conformal", "conformality_audit"),
    "conformal.atom_audit": ("thermomap.conformal", "atom_audit"),
    "transfer.apply": ("thermomap.transfer", "apply_transfer"),
    "transfer.power_iteration": ("thermomap.transfer", "power_iteration"),
    "transfer.equilibrium_state": ("thermomap.transfer", "equilibrium_state"),
    "transfer.correlation": ("thermomap.transfer", "correlation"),
    "transfer.adjoint_audit": ("thermomap.transfer", "adjoint_invariance_audit"),
    "keller.norm_chain_audit": ("thermomap.keller", "norm_chain_audit"),
    "keller.norm_report": ("thermomap.keller", "norm_report"),
    "keller.keller_seminorm": ("thermomap.keller", "keller_seminorm"),
    "keller.p_variation": ("thermomap.keller", "p_variation"),
    "keller.holder_seminorm": ("thermomap.keller", "holder_seminorm"),
    "keller.osc_profile": ("thermomap.keller", "osc_profile"),
}


def _size(x) -> int:
    return int(np.size(x))


# span name -> function (args, kwargs, result) -> counters of that call
COUNTERS = {
    "maps.eval": lambda a, k, r: {"points": _size(a[1])},
    "potentials.eval": lambda a, k, r: {"points": _size(a[1])},
    "pressure.level_lse": lambda a, k, r: {"elements": _size(a[0])},
    "pressure.separated_pressure": lambda a, k, r: {
        "admitted": r.count, "grid": r.grid_size
    },
    "conformal.weak_limit": lambda a, k, r: {
        "steps": len(r.s_values), "atoms": r.measure.size
    },
    "transfer.apply": lambda a, k, r: {"grid_points": r.size},
    "transfer.power_iteration": lambda a, k, r: {"iterations": r.iterations},
    "transfer.correlation": lambda a, k, r: {
        "atom_lags": getattr(a[3], "nu", a[3]).size * r.ns.size
    },
}


class Tracer:
    """Records spans of wrapped calls; ``uninstall`` restores the originals."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self._undo: list[tuple] = []

    def open(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else -1
        rec = [len(self.spans), parent, name, perf_counter(), 0.0, None]
        self.spans.append(rec)
        self.stack.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[4] = perf_counter()
        self.stack.pop()

    def reset(self) -> None:
        self.spans = []
        self.stack = []

    # -- wrappers ----------------------------------------------------------

    def _call(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a layer calling itself (a SummedPotential's parts) is one span
            if self.stack and self.stack[-1][2] == name:
                return fn(*args, **kwargs)
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if count is not None:
                rec[5] = count(args, kwargs, result)
            return result

        return wrapper

    def _walk(self, name, fn):
        """Spans around each level step of the preimage generator."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            levels = fn(*args, **kwargs)
            walks = 1
            while True:
                rec = self.open(name)
                try:
                    level = next(levels)
                except StopIteration:
                    return
                finally:
                    self.close(rec)
                rec[5] = {"walks": walks, "nodes": int(level.points.size)}
                walks = 0
                yield level

        return wrapper

    def _write_csv(self, name, fn):
        # rows are counted from the written file: wrapping the row iterator
        # would add a generator step to every row inside the span
        @functools.wraps(fn)
        def wrapper(path, header, rows):
            rec = self.open(name)
            try:
                fn(path, header, rows)
            finally:
                self.close(rec)
            data = Path(path).read_bytes()
            rec[5] = {"rows": data.count(b"\n") - 1, "bytes": len(data)}

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from thermomap import cli, potentials
        from thermomap.maps import IntervalMap

        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "thermomap" or n.startswith("thermomap."))
        ]
        for name, (modname, attr) in FUNCTIONS.items():
            orig = getattr(importlib.import_module(modname), attr)
            if name == "maps.preimage":
                wrapped = self._walk(name, orig)
            elif name == "cli.write_csv":
                wrapped = self._write_csv(name, orig)
            else:
                wrapped = self._call(name, orig)
            bound = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))
                        bound += 1
            if not bound:
                raise RuntimeError(f"traced function {modname}.{attr} is not bound")
        methods = [("cli.config", cli.Experiment, "__init__"),
                   ("maps.eval", IntervalMap, "eval")]
        for cls in vars(potentials).values():
            if (isinstance(cls, type) and issubclass(cls, potentials.Potential)
                    and "__call__" in vars(cls)
                    and not getattr(cls.__call__, "__isabstractmethod__", False)):
                methods.append(("potentials.eval", cls, "__call__"))
        for name, cls, attr in methods:
            orig = vars(cls)[attr]
            setattr(cls, attr, self._call(name, orig))
            self._undo.append((cls, attr, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo = []


# ---------------------------------------------------------------------------
# per-layer metrics


class _Totals:
    """Per span name: call count, inclusive and self seconds, counter sums."""

    def __init__(self, spans):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(lambda: defaultdict(int))
        child_time = defaultdict(float)
        for sid, parent, name, t0, t1, counters in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for sid, parent, name, t0, t1, counters in spans:
            self.calls[name] += 1
            self.incl[name] += t1 - t0
            self.self_s[name] += t1 - t0 - child_time[sid]
            for key, value in (counters or {}).items():
                self.counts[name][key] += value

    def count(self, name, key):
        return self.counts[name][key]


def _ratio(num, den):
    return num / den if den else 0.0


# metric -> (unit, function of (_Totals, draws))
LAYER_METRICS = {
    "cli.write_csv.s": ("s", lambda t, d: t.incl["cli.write_csv"]),
    "cli.write_csv.rows": ("count", lambda t, d: t.count("cli.write_csv", "rows")),
    "cli.write_csv.mb": ("MB", lambda t, d: t.count("cli.write_csv", "bytes") / 1e6),
    "cli.write_csv.rows_per_s": ("1/s", lambda t, d: _ratio(
        t.count("cli.write_csv", "rows"), t.incl["cli.write_csv"])),
    "cli.config.s": ("s", lambda t, d: t.incl["cli.config"]),
    "maps.preimage.walks": ("count", lambda t, d: t.count("maps.preimage", "walks")),
    "maps.preimage.nodes": ("count", lambda t, d: t.count("maps.preimage", "nodes")),
    "maps.preimage.self_s": ("s", lambda t, d: t.self_s["maps.preimage"]),
    "maps.preimage.nodes_per_s": ("1/s", lambda t, d: _ratio(
        t.count("maps.preimage", "nodes"), t.self_s["maps.preimage"])),
    "pressure.level_lse.s": ("s", lambda t, d: t.incl["pressure.level_lse"]),
    "pressure.level_lse.elements": ("count", lambda t, d: t.count(
        "pressure.level_lse", "elements")),
    "maps.eval.points": ("count", lambda t, d: t.count("maps.eval", "points")),
    "maps.eval.s": ("s", lambda t, d: t.incl["maps.eval"]),
    "potentials.eval.points": ("count", lambda t, d: t.count(
        "potentials.eval", "points")),
    "potentials.eval.s": ("s", lambda t, d: t.incl["potentials.eval"]),
    "conformal.transition_parameter.s": ("s", lambda t, d: t.incl[
        "conformal.transition_parameter"]),
    "conformal.weak_limit.s": ("s", lambda t, d: t.incl["conformal.weak_limit"]),
    "conformal.weak_limit.steps": ("count", lambda t, d: t.count(
        "conformal.weak_limit", "steps")),
    "conformal.measure.atoms": ("count", lambda t, d: t.count(
        "conformal.weak_limit", "atoms")),
    "conformal.audits.s": ("s", lambda t, d: t.incl["conformal.conformality_audit"]
                           + t.incl["conformal.atom_audit"]),
    "transfer.apply.calls": ("count", lambda t, d: t.calls["transfer.apply"]),
    "transfer.apply.s": ("s", lambda t, d: t.incl["transfer.apply"]),
    "transfer.apply.grid_points": ("count", lambda t, d: t.count(
        "transfer.apply", "grid_points")),
    "transfer.power_iteration.s": ("s", lambda t, d: t.incl[
        "transfer.power_iteration"]),
    "transfer.power_iteration.iterations": ("count", lambda t, d: t.count(
        "transfer.power_iteration", "iterations")),
    "transfer.equilibrium_state.s": ("s", lambda t, d: t.incl[
        "transfer.equilibrium_state"]),
    "transfer.correlation.s": ("s", lambda t, d: t.incl["transfer.correlation"]),
    "transfer.correlation.atom_lags": ("count", lambda t, d: t.count(
        "transfer.correlation", "atom_lags")),
    "transfer.adjoint_audit.s": ("s", lambda t, d: t.incl["transfer.adjoint_audit"]),
    "pressure.tree_pressure.s": ("s", lambda t, d: t.incl["pressure.tree_pressure"]),
    "pressure.separated_pressure.s": ("s", lambda t, d: t.incl[
        "pressure.separated_pressure"]),
    "pressure.separated.admitted_ratio": ("ratio", lambda t, d: _ratio(
        t.count("pressure.separated_pressure", "admitted"),
        t.count("pressure.separated_pressure", "grid"))),
    "pressure.hyperbolicity_check.s": ("s", lambda t, d: t.incl[
        "pressure.hyperbolicity_check"]),
    "keller.norm_report.calls_per_draw": ("ratio", lambda t, d: _ratio(
        t.calls["keller.norm_report"], d)),
    "keller.keller_seminorm.calls_per_draw": ("ratio", lambda t, d: _ratio(
        t.calls["keller.keller_seminorm"], d)),
    "keller.p_variation.s": ("s", lambda t, d: t.incl["keller.p_variation"]),
    "keller.holder_seminorm.s": ("s", lambda t, d: t.incl["keller.holder_seminorm"]),
    "keller.osc_profile.calls": ("count", lambda t, d: t.calls["keller.osc_profile"]),
    "keller.osc_profile.s": ("s", lambda t, d: t.incl["keller.osc_profile"]),
    "keller.norm_chain_audit.s": ("s", lambda t, d: t.incl["keller.norm_chain_audit"]),
}


def layer_metrics(spans, draws: int) -> dict[str, float]:
    """Per-layer metrics of one operation; ``draws`` is its norm draw count."""
    totals = _Totals(spans)
    return {name: float(fn(totals, draws)) for name, (_, fn) in LAYER_METRICS.items()}


def self_times(spans) -> dict[str, float]:
    """Self seconds per span name; they sum to the root spans' duration."""
    return dict(_Totals(spans).self_s)
