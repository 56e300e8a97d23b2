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
from .maps import IntervalMap, iter_preimage_levels  # noqa: F401
from .potentials import Potential
from .pressure import LevelSums

MASS_TOL = 1e-12

# weak_limit: s_j = c + SCHEDULE_START * 2**-j, j <= MAX_STEPS, until Cauchy and
# s - c <= ETA_FLOOR, over the deepest min(WINDOW_MAX, n_max // 2) levels
SCHEDULE_START = 0.5
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

    def __post_init__(self) -> None:
        if self.points.size != self.masses.size or self.points.size == 0:
            raise DomainError("measure needs matching nonempty points and masses")
        if np.any(np.diff(self.points) < 0):
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
        points = np.asarray(points, dtype=float)
        masses = np.asarray(masses, dtype=float)
        order = np.argsort(points, kind="stable")
        points, masses = points[order], masses[order]
        if points.size > 1:
            # merge exact duplicates so index arithmetic on atoms is unambiguous
            new_group = np.concatenate([[True], np.diff(points) > 0])
            idx = np.cumsum(new_group) - 1
            merged = np.zeros(int(idx[-1]) + 1)
            np.add.at(merged, idx, masses)
            points, masses = points[new_group], merged
        total = float(masses.sum())
        if total <= 0:
            raise DomainError("cannot normalize a measure with zero total mass")
        if domain is None:
            domain = (float(points[0]), float(points[-1]))
        return cls(points, masses / total, domain)

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

    def integrate(self, fn) -> float:
        """The integral of `fn` (called once, on every atom) against the measure."""
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
    x0: float


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
        x0=sums.x0,
    )


@dataclass(frozen=True)
class WeakLimitResult:
    """Stabilized deep-window measure with its Cauchy diagnostics."""

    measure: AtomicMeasure
    binned: np.ndarray
    bins: int
    stability: float
    converged: bool
    s_values: np.ndarray
    window: tuple[int, int]
    eta_final: float


def window_start(n_max: int) -> int:
    """First depth of weak_limit's window for level sums of depth n_max."""
    return max(1, n_max - min(WINDOW_MAX, n_max // 2) + 1)


def weak_limit(
    sums: LevelSums,
    c: float,
    bins: int = 64,
    tol: float = 1e-3,
    theta: float = 0.0,
) -> WeakLimitResult:
    """Drive s down toward c and return the stabilized deep-tree measure.

    A truncated series at fixed n_max = sums.depth cannot follow s all the
    way to c: the true limit pushes its mass to ever deeper levels, so the
    shallow slices of any fixed truncation eventually misrepresent it. The
    surrogate used here mixes only the levels from window_start(n_max) on,
    which `sums` must retain, reweighted per s by their aggregate masses,
    and declares convergence when consecutive binned snapshots are Cauchy
    at `tol` and s - c has dropped below ETA_FLOOR. Binned snapshots at each
    s are cheap (per-level histograms are fixed), so the schedule runs
    entirely on the retained level data. Depth n is weighted n**theta.
    """
    if theta < 0:
        raise DomainError("theta must be nonnegative")
    n_max = sums.depth
    if n_max < 4:
        raise DomainError("need n_max >= 4")
    n_lo = window_start(n_max)
    first = n_lo - sums.retain_from
    if first < 0 or len(sums.points) < n_max - sums.retain_from + 1:
        raise DomainError(f"level sums must retain depths {n_lo}..{n_max}")
    kept_pts = sums.points[first:]
    kept_birk = sums.birkhoff[first:]
    depths = np.arange(n_lo, n_max + 1)
    a_window = sums.a_values[n_lo - 1:]
    hist_matrix = np.asarray([  # (W, bins), each row sums to 1
        np.histogram(pts, bins=bins, range=sums.domain, weights=np.exp(birk - a))[0]
        for pts, birk, a in zip(kept_pts, kept_birk, a_window)
    ])
    log_b = theta * np.log(depths.astype(float))

    def binned_at(s: float) -> np.ndarray:
        logw = log_b + a_window - depths * s
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
            if stability < tol and (s - c) <= ETA_FLOOR:
                converged = True
                prev = cur
                break
        prev = cur
    s_final = s_values[-1]
    logw_all = np.concatenate(
        [birk - n * s_final + lb for birk, n, lb in zip(kept_birk, depths, log_b)]
    )
    points = np.concatenate(kept_pts)
    masses = np.exp(logw_all - logsumexp(logw_all))
    measure = AtomicMeasure.normalized(points, masses, sums.domain)
    return WeakLimitResult(
        measure=measure,
        binned=prev,
        bins=bins,
        stability=stability,
        converged=converged,
        s_values=np.asarray(s_values),
        window=(int(n_lo), int(n_max)),
        eta_final=float(s_final - c),
    )


@dataclass(frozen=True)
class ConformalityReport:
    intervals: tuple[tuple[float, float], ...]
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
        intervals=tuple((float(a), float(b)) for a, b in intervals),
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
