"""Conformal measures built from weighted preimage trees.

The construction accumulates Dirac masses at tree preimages of a base point
with weights b_n exp(S_n(potential) - n s), normalized. As s decreases to
the transition parameter c of the level sums, binned snapshots of the deep
part of the tree stabilize; that stabilized measure is the working stand-in
for an abstract weak* accumulation point. Audits quantify conformality,
atom-freeness, and full support instead of assuming them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.special import logsumexp

from .errors import DomainError
# unused here (estimators reduce a LevelSums); kept bound because the benchmark
# harness test checks that its tracer wraps this module's copy too
from .maps import IntervalMap, PreimageLevel, iter_preimage_levels  # noqa: F401
from .potentials import Potential
from .pressure import LevelSums, _level_lse

MASS_TOL = 1e-12

# weak_limit: s_j = c + SCHEDULE_START * 2**-j, j <= MAX_STEPS, until Cauchy
# at CAUCHY_TOL and s - c <= ETA_FLOOR, over the deepest min(WINDOW_MAX,
# n_max // 2) levels, with snapshots in BINS equal-width cells
SCHEDULE_START = 0.5
CAUCHY_TOL = 1e-6
BINS = 64
ETA_FLOOR = 0.05
MAX_STEPS = 16
WINDOW_MAX = 11


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite weighted point set with unit total mass.

    Points are sorted ascending with exact duplicates merged; ``domain``
    records the ambient interval used for equal-width binning.
    """

    points: np.ndarray
    masses: np.ndarray
    domain: tuple[float, float]
    _cum: Optional[np.ndarray] = field(
        init=False, repr=False, compare=False, default=None
    )
    _hat: Optional[tuple[np.ndarray, np.ndarray]] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "masses", np.asarray(self.masses, dtype=float))
        if self.points.size != self.masses.size or self.points.size == 0:
            raise DomainError("measure needs matching nonempty points and masses")
        # checked first: nan fails no order, sign or sum comparison below
        if not (np.isfinite(self.points).all() and np.isfinite(self.masses).all()):
            raise DomainError("points and masses must be finite")
        if np.any(self.points[1:] < self.points[:-1]):
            raise DomainError("points must be ascending")
        if np.any(self.masses < 0):
            raise DomainError("masses must be nonnegative")
        if abs(float(self.masses.sum()) - 1.0) > MASS_TOL:
            raise DomainError("total mass must be 1 within 1e-12")

    @classmethod
    def normalized(
        cls,
        points: np.ndarray,
        masses: np.ndarray,
        domain: Optional[tuple[float, float]] = None,
    ) -> "AtomicMeasure":
        """The measure with these masses at these points, scaled to total 1.

        The points are put in ascending order by a stable sort, so equal
        points keep their input order, and each run of exact duplicates
        becomes one atom whose mass is the sum of theirs, added in that
        order. The masses are then divided by their total. ``domain``
        defaults to the span from the least point to the greatest. Raises
        DomainError when the total mass is not positive.
        """
        points = np.asarray(points, dtype=float)
        masses = np.asarray(masses, dtype=float)
        order = np.argsort(points, kind="stable")
        points = points[order]
        masses = masses[order]
        del order  # freed before __post_init__'s checks add to the peak
        tie = points[1:] == points[:-1]
        if tie.any():
            # merge exact duplicates so index arithmetic on atoms is unambiguous
            new_group = np.concatenate([[True], ~tie])
            idx = np.cumsum(new_group) - 1
            merged = np.zeros(int(idx[-1]) + 1)
            np.add.at(merged, idx, masses)
            points, masses = points[new_group], merged
        total = float(masses.sum())
        if total <= 0:
            raise DomainError("cannot normalize a measure with zero total mass")
        masses /= total  # the sorted copy is this call's own
        if domain is None:
            domain = (float(points[0]), float(points[-1]))
        return cls(points, masses, domain)

    @property
    def size(self) -> int:
        return int(self.points.size)

    @property
    def cumulative(self) -> np.ndarray:
        """Exclusive prefix masses [0, m_0, m_0 + m_1, ..., 1], read-only;
        built on first use, as most measures never answer an interval query."""
        if self._cum is None:
            cum = np.concatenate([[0.0], np.cumsum(self.masses)])
            cum.flags.writeable = False
            object.__setattr__(self, "_cum", cum)
        return self._cum

    def mass_interval(self, a: float, b: float) -> float:
        """Total mass of atoms in the closed interval [min(a,b), max(a,b)]."""
        lo, hi = (a, b) if a <= b else (b, a)
        left = np.searchsorted(self.points, lo, side="left")
        right = np.searchsorted(self.points, hi, side="right")
        return float(self.cumulative[right] - self.cumulative[left])

    def bin_masses(self, bins: int) -> np.ndarray:
        """Masses of `bins` equal-width cells covering the domain."""
        hist, _ = np.histogram(
            self.points, bins=bins, range=self.domain, weights=self.masses
        )
        return hist

    def hat_weights(self, grid: np.ndarray) -> np.ndarray:
        """Weights w with w @ values the integral of np.interp(x, grid, values).

        Linear interpolation is linear in the node values, so w_j is the
        sum over atoms of m_i hat_j(x_i), where hat_j is node j's hat
        function; atoms outside the grid count at its nearest end node, as
        np.interp clamps there. Read-only; built on first use and kept for
        the last grid asked for, as a run integrates many grid functions on
        one grid.
        """
        grid = np.asarray(grid, dtype=float)
        if self._hat is not None and np.array_equal(self._hat[0], grid):
            return self._hat[1]
        if grid.ndim != 1 or grid.size < 2:
            raise DomainError("grid needs at least 2 nodes")
        steps = np.diff(grid)
        if not (np.isfinite(grid).all() and np.all(steps > 0)):
            raise DomainError("grid must be finite and increasing")
        # atoms are ascending, so each cell [g_j, g_j+1) holds a run of them;
        # the first and last cells also take the atoms left and right of the grid
        ends = np.searchsorted(self.points, grid[1:-1], side="left")
        counts = np.diff(ends, prepend=0, append=self.size)
        cell = np.repeat(np.arange(grid.size - 1), counts)
        right = self.points - np.repeat(grid[:-1], counts)
        right /= np.repeat(steps, counts)
        np.clip(right, 0.0, 1.0, out=right)
        right *= self.masses  # m_i times the right node's hat at x_i
        w = np.bincount(cell, weights=self.masses - right, minlength=grid.size)
        w[1:] += np.bincount(cell, weights=right, minlength=grid.size - 1)
        grid = grid.copy()
        grid.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "_hat", (grid, w))
        return w

    def integrate(self, fn) -> float:
        """The integral of `fn` (called once, on every atom) against the measure.

        Grid functions integrate as ``hat_weights(grid) @ values`` instead,
        which evaluates nothing at the atoms once the weights are built.
        """
        return float(np.sum(self.masses * np.asarray(fn(self.points), dtype=float)))


def uniform_atoms(count: int, domain: tuple[float, float] = (0.0, 1.0)) -> AtomicMeasure:
    """Midpoint atoms of equal mass; the workhorse Lebesgue surrogate."""
    lo, hi = domain
    pts = lo + (hi - lo) * (np.arange(count) + 0.5) / count
    return AtomicMeasure(pts, np.full(count, 1.0 / count), (lo, hi))


@dataclass(frozen=True)
class TransitionSequence:
    """Level log-sums with the regression estimate of their growth rate."""

    depths: np.ndarray
    a_values: np.ndarray
    c: float
    intercept: float
    residual: float
    limsup_diagnostic: float


def transition_parameter(sums: LevelSums) -> TransitionSequence:
    """Fit a_n = c n + b over the deep half of the level sums.

    The slope is insensitive to the bounded prefactor that biases a_n / n,
    which makes it the preferred estimate of the critical exponent for the
    conformal construction.
    """
    depths = np.arange(1, sums.depth + 1)
    a_arr = sums.a_values
    upper = depths > sums.depth // 2
    if upper.sum() < 2:
        raise DomainError("need at least two depths in the upper half")
    slope, intercept = np.polyfit(depths[upper], a_arr[upper], 1)
    fit = slope * depths[upper] + intercept
    residual = float(np.max(np.abs(a_arr[upper] - fit)))
    limsup = float(np.max(a_arr[upper] / depths[upper]))
    return TransitionSequence(
        depths=depths,
        a_values=a_arr,
        c=float(slope),
        intercept=float(intercept),
        residual=residual,
        limsup_diagnostic=limsup,
    )


@dataclass(frozen=True)
class WeakLimitResult:
    """Stabilized deep-window measure with its Cauchy diagnostics."""

    measure: AtomicMeasure
    binned: np.ndarray
    stability: float
    converged: bool
    s_values: np.ndarray
    window: tuple[int, int]
    eta_final: float


def window(n_max: int) -> range:
    """The depths weak_limit mixes for level sums of depth n_max: the
    deepest min(WINDOW_MAX, n_max // 2)."""
    return range(n_max - min(WINDOW_MAX, n_max // 2) + 1, n_max + 1)


def _window_masses(levels: Sequence[PreimageLevel], s: float) -> np.ndarray:
    """The masses exp(S_n phi - n s), normalized by their log-sum-exp, of
    the window's levels in order, computed in place in one array."""
    logw = np.concatenate([lv.birkhoff - lv.depth * s for lv in levels])
    logw -= _level_lse(logw)
    return np.exp(logw, out=logw)


def weak_limit(sums: LevelSums, c: float) -> WeakLimitResult:
    """Drive s down toward c and return the stabilized deep-tree measure.

    A truncated series at fixed n_max = sums.depth cannot follow s all the
    way to c: the true limit pushes its mass to ever deeper levels, so the
    shallow slices of any fixed truncation eventually misrepresent it. The
    surrogate used here mixes only the levels of depths window(n_max), which
    `sums` must retain, reweighted per s by their aggregate masses, and
    declares convergence when consecutive binned snapshots are Cauchy at
    CAUCHY_TOL and s - c has dropped below ETA_FLOOR. Binned snapshots in BINS
    cells at each s are cheap (per-level histograms are fixed), so the
    schedule runs entirely on the retained level data.
    """
    n_max = sums.depth
    if n_max < 4:
        raise DomainError("need n_max >= 4")
    span = window(n_max)
    kept = [lv for lv in sums.levels if lv.depth in span]
    if len(kept) < len(span):
        raise DomainError(f"level sums must retain depths {span[0]}..{span[-1]}")
    depths = np.asarray(span)
    a_window = sums.a_values[span[0] - 1:]
    hist_matrix = np.asarray([  # (W, BINS), each row sums to 1
        np.histogram(lv.points, BINS, sums.domain, weights=np.exp(lv.birkhoff - a))[0]
        for lv, a in zip(kept, a_window)
    ])

    def binned_at(s: float) -> np.ndarray:
        logw = a_window - depths * s
        return np.exp(logw - logsumexp(logw)) @ hist_matrix

    s_values = []
    prev = None
    stability = np.inf
    converged = False
    for j in range(1, MAX_STEPS + 1):
        s = c + SCHEDULE_START * 2.0**-j
        s_values.append(s)
        cur = binned_at(s)
        if prev is not None:
            stability = float(np.max(np.abs(cur - prev)))
            if stability < CAUCHY_TOL and (s - c) <= ETA_FLOOR:
                converged = True
                prev = cur
                break
        prev = cur
    s_final = s_values[-1]
    # no name here holds the window's points or masses, so `normalized`
    # frees each once its sorted copy exists
    measure = AtomicMeasure.normalized(
        np.concatenate([lv.points for lv in kept]),
        _window_masses(kept, s_final),
        sums.domain,
    )
    return WeakLimitResult(
        measure=measure,
        binned=prev,
        stability=stability,
        converged=converged,
        s_values=np.asarray(s_values),
        window=(span[0], span[-1]),
        eta_final=float(s_final - c),
    )


@dataclass(frozen=True)
class ConformalityReport:
    deltas: np.ndarray
    max_delta: float


def conformality_audit(
    measure: AtomicMeasure,
    imap: IntervalMap,
    potential: Optional[Potential],
    c: float,
    intervals: Sequence[tuple[float, float]],
) -> ConformalityReport:
    """Compare mu(f(A)) with the conformal integral over A per interval.

    Each test interval must sit inside a single branch so that f is
    injective on it; the defect is |mu(f(A)) - int_A exp(c - phi) dmu|.
    """
    deltas = []
    for a, b in intervals:
        if b < a:
            a, b = b, a
        owner = None
        for br in imap.branches:
            if br.lo - 1e-12 <= a and b <= br.hi + 1e-12:
                owner = br
                break
        if owner is None:
            raise DomainError(f"interval [{a}, {b}] straddles a breakpoint")
        if a == b and measure.mass_interval(a, b) == 0.0:
            deltas.append(0.0)
            continue
        fa = float(owner.forward(np.asarray(a)))
        fb = float(owner.forward(np.asarray(b)))
        lhs = measure.mass_interval(fa, fb)
        sel = slice(
            np.searchsorted(measure.points, a, side="left"),
            np.searchsorted(measure.points, b, side="right"),
        )
        pts = measure.points[sel]
        if potential is not None:
            weights = np.exp(c - np.asarray(potential(pts), dtype=float))
        else:
            weights = np.full(pts.shape, np.exp(c))
        rhs = float(np.sum(measure.masses[sel] * weights))
        deltas.append(abs(lhs - rhs))
    deltas = np.asarray(deltas)
    return ConformalityReport(
        deltas=deltas,
        max_delta=float(deltas.max()) if deltas.size else 0.0,
    )


@dataclass(frozen=True)
class AtomAudit:
    levels: tuple[int, ...]
    max_bin_masses: np.ndarray


def atom_audit(measure: AtomicMeasure, levels: Sequence[int]) -> AtomAudit:
    """Largest single-bin mass at each refinement level.

    Decay toward zero with the bin count is the numerical evidence that the
    measure carries no atoms; a Dirac mass keeps a unit bin at every level.
    """
    if list(levels) != sorted(levels):
        raise DomainError("refinement levels must be increasing")
    maxima = np.asarray(
        [float(measure.bin_masses(lv).max()) for lv in levels], dtype=float
    )
    return AtomAudit(levels=tuple(int(lv) for lv in levels), max_bin_masses=maxima)
