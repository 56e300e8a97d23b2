"""Pressure estimation along preimage trees and over separated sets.

``level_sums`` walks the preimage tree once and returns the log-level sums
of weighted preimages, optionally with the deep levels themselves; the tree
estimator averages those sums, and the conformal construction reduces the
same walk. The separated-set estimator greedily packs grid points under the
iterated sup metric, a block of candidates at a time, testing pairs with a
filter that reads the orbit one iterate at a time, and serves as an
independent cross-check. The module also houses the hyperbolicity
classifier, the pressure-curve smoothness probe (one walk carrying the sums
of phi and of chi serves every t), and the four-branch construction of a
hyperbolic potential whose range exceeds the entropy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy.special import logsumexp

from .errors import BudgetError, DomainError
from .maps import (
    DEFAULT_NODE_BUDGET,
    IntervalMap,
    forward_orbit,
    iter_preimage_levels,
    pw_linear_map,
)
from .potentials import PiecewiseLinearPotential, Potential, potential_range

BREAKPOINT_REJECT_TOL = 1e-12
CURVE_FIT_WINDOW = 0.2
SEPARATED_BLOCK = 128  # candidates per vectorized step of the greedy packing


@dataclass(frozen=True)
class PressureReport:
    """Per-depth pressure estimates with the extrapolated value.

    ``estimate`` is the mean of the last three depth values p_n and
    ``fluctuation`` is the largest deviation |p_n - estimate| over the last
    five depths, so callers always see the residual uncertainty.
    """

    estimate: float
    fluctuation: float
    depths: np.ndarray
    p_values: np.ndarray
    a_values: np.ndarray
    x0: float
    requested_depth: int
    complete: bool
    feasible_depth: Optional[int] = None


def _reject_breakpoint(imap: IntervalMap, x0: float) -> None:
    gaps = np.abs(imap.breakpoints - x0)
    if np.min(gaps) <= BREAKPOINT_REJECT_TOL:
        raise DomainError(
            f"base point {x0} sits on a breakpoint; its branch word is ambiguous"
        )


@dataclass(frozen=True)
class LevelSums:
    """One walk of the preimage tree of x0: ``a_values[n - 1]`` is a_n = log
    sum over f^{-n}(x0) of exp(S_n phi) and ``counts[n - 1]`` the number of
    preimages #f^{-n}(x0), n = 1..depth; ``points`` and ``birkhoff`` hold the
    levels retain_from, retain_from + 1, ...; and ``budget_error`` is set
    when the node budget stopped the walk early."""

    x0: float
    domain: tuple[float, float]
    a_values: np.ndarray
    counts: np.ndarray
    retain_from: int
    points: tuple[np.ndarray, ...] = ()
    birkhoff: tuple[np.ndarray, ...] = ()
    budget_error: Optional[BudgetError] = None

    @property
    def depth(self) -> int:
        return int(self.a_values.size)

    @property
    def complete(self) -> bool:
        return self.budget_error is None

    @property
    def feasible_depth(self) -> Optional[int]:
        return None if self.complete else self.budget_error.feasible_depth

    def upto(self, n: int) -> "LevelSums":
        """The same walk cut at depth n (complete if it reached n)."""
        if n >= self.depth:
            if n > self.depth and self.complete:
                raise DomainError(f"level sums stop at depth {self.depth}")
            return self
        keep = max(0, n - self.retain_from + 1)
        return replace(
            self,
            a_values=self.a_values[:n],
            counts=self.counts[:n],
            points=self.points[:keep],
            birkhoff=self.birkhoff[:keep],
            budget_error=None,
        )


def _level_lse(a: np.ndarray, overwrite: bool = False) -> float:
    """log sum exp(a) of a 1-d float64 array, bit-equal to scipy's logsumexp.

    The max-separated sum of Blanchard, Higham & Higham, "Accurately
    computing the log-sum-exp and softmax functions" (IMA J. Numer. Anal.
    41, 2021), with the float operations of scipy 1.17.1's ``_logsumexp``
    run on one level-sized temporary, or on ``a`` itself with overwrite,
    which leaves it unspecified: the m entries at the max are dropped from
    the shifted sum s and added back as log(m), giving log1p(s / m) +
    log(m) + max. A non-finite max (inf or nan entries, or every entry
    -inf) goes to scipy itself, and then ``a`` is left as it was.
    """
    a_max = np.max(a)
    if not np.isfinite(a_max):
        return float(logsumexp(a))
    tmp = np.subtract(a, a_max, out=a if overwrite else None)
    top = tmp == 0.0
    m = np.count_nonzero(top)
    np.exp(tmp, out=tmp)
    tmp[top] = 0.0
    s = np.sum(tmp)
    s = s if s == 0 else s / m
    return float(np.log1p(s) + np.log(m) + a_max)


def level_sums(
    imap: IntervalMap,
    potential: Optional[Potential],
    x0: float,
    n_max: int,
    budget: int = DEFAULT_NODE_BUDGET,
    retain_from: Optional[int] = None,
    retain_to: Optional[int] = None,
    partial_on_budget: bool = False,
) -> LevelSums:
    """Walk the preimage tree of x0 once to depth n_max, keeping the
    max-shifted log-sum-exp a_n of every level and the points and Birkhoff
    sums of levels retain_from..retain_to (default n_max). Each level dies
    once the walk has built the next from it, and level n_max, unless
    retained, is reduced in place, since nothing reads it afterwards, so the
    walk peaks at the build of its deepest level. With partial_on_budget the
    levels that fit the budget are returned."""
    _reject_breakpoint(imap, x0)
    retain_from = n_max + 1 if retain_from is None else max(1, retain_from)
    retain_to = n_max if retain_to is None else retain_to
    a_values: list[float] = []
    counts: list[int] = []
    points: list[np.ndarray] = []
    birkhoff: list[np.ndarray] = []
    budget_error = None
    try:
        for level in iter_preimage_levels(imap, potential, x0, n_max, budget):
            if level.depth == 0:
                continue
            retain = retain_from <= level.depth <= retain_to
            last = level.depth == n_max and not retain
            a_values.append(_level_lse(level.birkhoff, overwrite=last))
            counts.append(level.points.size)
            if retain:
                points.append(level.points)
                birkhoff.append(level.birkhoff)
            # unless retained, this level's arrays die once the walk has
            # built the next level from them
            del level
    except BudgetError as exc:
        if not partial_on_budget:
            raise
        budget_error = exc
    return LevelSums(
        x0=float(x0),
        domain=imap.domain,
        a_values=np.asarray(a_values),
        counts=np.asarray(counts, dtype=np.int64),
        retain_from=retain_from,
        points=tuple(points),
        birkhoff=tuple(birkhoff),
        budget_error=budget_error,
    )


def pressure_report(sums: LevelSums, n_max: int) -> PressureReport:
    """Pressure estimates p_n = a_n / n for 1 <= n <= n_max; a walk the
    budget stopped is reported incomplete, or raises if no level fits."""
    if n_max < 1:
        raise DomainError("need n_max >= 1")
    sums = sums.upto(n_max)
    if not sums.complete and sums.feasible_depth < 1:
        raise sums.budget_error
    depths = np.arange(1, sums.depth + 1)
    p_vals = sums.a_values / depths
    estimate = float(np.mean(p_vals[-3:]))
    fluctuation = float(np.max(np.abs(p_vals[-5:] - estimate)))
    return PressureReport(
        estimate=estimate,
        fluctuation=fluctuation,
        depths=depths,
        p_values=p_vals,
        a_values=sums.a_values,
        x0=sums.x0,
        requested_depth=n_max,
        complete=sums.complete,
        feasible_depth=sums.feasible_depth,
    )


def tree_pressure(
    imap: IntervalMap,
    potential: Optional[Potential],
    x0: float,
    n_max: int,
    budget: int = DEFAULT_NODE_BUDGET,
    partial_on_budget: bool = False,
) -> PressureReport:
    """Estimate pressure from weighted preimage counts of depth up to n_max.

    p_n = (1/n) log sum over f^{-n}(x0) of exp(S_n(potential)); the walk
    streams its levels and keeps only the level sums. With
    partial_on_budget the report covers the depths that fit in the budget
    and is flagged incomplete instead of raising.
    """
    sums = level_sums(
        imap, potential, x0, n_max, budget, partial_on_budget=partial_on_budget
    )
    return pressure_report(sums, n_max)


@dataclass(frozen=True)
class SeparatedSetEstimate:
    """Greedy lower bound for the separated-set pressure supremum.

    ``saturated`` is set when two admitted points are adjacent grid points:
    the grid spacing, not epsilon, then limits the count, and the value says
    more about the grid than about the map.
    """

    value: float
    n: int
    epsilon: float
    points: np.ndarray
    count: int
    grid_size: int
    verified: bool
    saturated: bool


def separated_pressure(
    imap: IntervalMap,
    potential: Optional[Potential],
    n: int,
    epsilon: float,
    grid_size: int,
) -> SeparatedSetEstimate:
    """Pack grid points whose length-n orbits stay pairwise epsilon-apart.

    Candidates are visited in decreasing Birkhoff weight (stable order) and
    admitted when their iterated sup distance to every admitted point is at
    least epsilon. Distance at iterate 0 already exceeds epsilon for points
    more than epsilon apart in space, so only the admitted points inside the
    closed window [x - epsilon, x + epsilon] are checked. Candidates are
    taken in blocks: one vectorized pass drops those that clash with an
    earlier block's points, and a loop over the remaining clashing pairs
    inside the block settles the rest in order, so the packing is the
    one-at-a-time greedy one. The result is a lower bound of the supremum
    over separated subsets. ``verified`` re-checks every admitted pair
    closer than epsilon in space, with the same pair filter, and
    ``saturated`` reports whether two admitted points are adjacent grid
    points.
    """
    if not np.isfinite(epsilon) or epsilon <= 0:
        raise DomainError("epsilon must be positive and finite")
    if grid_size < 10:
        raise DomainError("grid must have at least 10 points")
    if n < 1:
        raise DomainError("n must be at least 1")
    lo, hi = imap.domain
    xs = np.linspace(lo, hi, grid_size)
    orbit = np.empty((n, grid_size))
    for i, (cur, total) in enumerate(forward_orbit(imap, xs, n, potential)):
        orbit[i] = cur
    weights = np.zeros(grid_size) if total is None else total
    chosen = _admit(xs, orbit, np.argsort(-weights, kind="stable"), epsilon)
    points = xs[chosen]
    return SeparatedSetEstimate(
        value=float(logsumexp(weights[chosen]) / n),
        n=n,
        epsilon=epsilon,
        points=points,
        count=chosen.size,
        grid_size=grid_size,
        verified=_verify_separated(orbit, points, chosen, epsilon),
        saturated=bool(np.any(np.diff(chosen) == 1)),
    )


def _admit(
    xs: np.ndarray, orbit: np.ndarray, order: np.ndarray, epsilon: float
) -> np.ndarray:
    """The greedy packing of separated_pressure: grid points are visited in
    ``order``, and each is admitted unless it clashes with an admitted point
    inside [x - epsilon, x + epsilon]; two points clash when their orbit
    columns stay closer than epsilon at every iterate. Candidates are taken
    SEPARATED_BLOCK at a time, with the result of taking them one at a time.
    Returns the admitted indices ascending in position; no two share a
    position when equal positions have equal orbits, as on a grid, since
    such points clash."""
    adm_idx = np.empty(0, dtype=np.intp)
    adm_pos = np.empty(0)
    for at in range(0, order.size, SEPARATED_BLOCK):
        block = order[at:at + SEPARATED_BLOCK]
        # drop the candidates that clash with a point of an earlier block
        cand, partner = _window_pairs(adm_pos, xs[block], epsilon)
        clash = _close_pairs(orbit, block[cand], adm_idx[partner], epsilon)
        block = np.delete(block, cand[clash])
        # then settle the survivors in order: one goes when an earlier
        # survivor it clashes with stays; the clashing pairs ascend in the
        # later survivor, so every earlier one is settled when it is read
        pos = xs[block]
        by_pos = np.argsort(pos, kind="stable")
        later, earlier = _window_pairs(pos[by_pos], pos, epsilon)
        earlier = by_pos[earlier]
        ahead = np.flatnonzero(earlier < later)
        later, earlier = later[ahead], earlier[ahead]
        clash = _close_pairs(orbit, block[later], block[earlier], epsilon)
        kept = [True] * block.size
        for i, j in zip(later[clash].tolist(), earlier[clash].tolist()):
            if kept[j]:
                kept[i] = False
        new = block[np.array(kept, dtype=bool)]
        new = new[np.argsort(xs[new], kind="stable")]
        adm_idx = np.insert(adm_idx, np.searchsorted(adm_pos, xs[new]), new)
        adm_pos = xs[adm_idx]
    return adm_idx


def _window_pairs(
    positions: np.ndarray, x: np.ndarray, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Every (i, j) with positions[j] in the closed window [x[i] - epsilon,
    x[i] + epsilon], positions ascending; i ascends, then j."""
    left = np.searchsorted(positions, x - epsilon, side="left")
    right = np.searchsorted(positions, x + epsilon, side="right")
    counts = right - left
    rows = np.repeat(np.arange(x.size), counts)
    firsts = np.cumsum(counts) - counts
    return rows, np.arange(rows.size) - np.repeat(firsts - left, counts)


def _close_pairs(
    orbit: np.ndarray, a: np.ndarray, b: np.ndarray, epsilon: float
) -> np.ndarray:
    """Indices i of the pairs of grid columns (a[i], b[i]) whose orbits stay
    closer than epsilon at every iterate, max_t |orbit[t, a] - orbit[t, b]|
    < epsilon. Rows are read last to first, since the iterates spread
    neighbors apart, and each keeps only the pairs still close; the scan
    stops once none is."""
    close = np.arange(a.size)
    for row in orbit[::-1]:
        if close.size == 0:
            break
        gap = row.take(a)
        gap -= row.take(b)
        keep = np.flatnonzero(np.abs(gap, out=gap) < epsilon)
        a, b, close = a.take(keep), b.take(keep), close.take(keep)
    return close


def _verify_separated(
    orbit: np.ndarray, positions: np.ndarray, indices: np.ndarray, epsilon: float
) -> bool:
    """Pairwise check of the admitted orbits over the index offsets k.

    The pairs (i, i + k) of admitted points closer than epsilon in space go
    through the same pair filter as the admission, consecutive offsets
    together until they hold about as many pairs as there are points, so
    memory stays O(count). Positions are sorted, so once no pair at offset k
    is that close, none at a larger offset is.
    """
    pairs, held = [], 0
    for k in range(1, positions.size + 1):
        near = np.flatnonzero(positions[k:] - positions[:-k] < epsilon)
        pairs.append((indices[near + k], indices[near]))
        held += near.size
        if near.size and held < positions.size:
            continue
        a, b = (np.concatenate(side) for side in zip(*pairs))
        if _close_pairs(orbit, a, b, epsilon).size:
            return False
        if near.size == 0:
            return True
        pairs, held = [], 0
    return True


@dataclass(frozen=True)
class HyperbolicityReport:
    verdict: str  # "hyperbolic" | "unknown"
    witness_depth: Optional[int]
    margin: float


def hyperbolicity_check(
    imap: IntervalMap,
    potential: Optional[Potential],
    pressure_estimate: float,
    n_max: int = 20,
    grid_size: int = 4096,
) -> HyperbolicityReport:
    """The first n <= n_max at which the max of (1/n) S_n(potential) over
    grid_size evenly spaced points is below pressure_estimate: the witness
    depth of a "hyperbolic" verdict, with margin estimate - max. The grid
    max is a lower bound on the sup and the estimate a point value, so a
    potential peaked between grid nodes can get a false witness and margin.
    No such n, or a non-finite estimate, reads "unknown".
    """
    if not np.isfinite(pressure_estimate):
        return HyperbolicityReport("unknown", None, 0.0)
    lo, hi = imap.domain
    grid = np.linspace(lo, hi, grid_size)
    sums = forward_orbit(imap, grid, n_max, potential)
    for depth, (_, acc) in enumerate(sums, 1):
        sup_avg = (0.0 if acc is None else float(acc.max())) / depth
        if sup_avg < pressure_estimate:
            return HyperbolicityReport("hyperbolic", depth, pressure_estimate - sup_avg)
    return HyperbolicityReport("unknown", None, 0.0)


@dataclass(frozen=True)
class PressureCurve:
    """Pressure along a one-parameter potential family with smoothness data."""

    ts: np.ndarray
    estimates: np.ndarray
    fluctuations: np.ndarray
    first_diff: np.ndarray
    second_diff: np.ndarray
    fit_residual: float
    fit_points: int


def pressure_curve(
    imap: IntervalMap,
    phi: Optional[Potential],
    chi: Potential,
    t_grid: Sequence[float],
    x0: float = 0.3,
    n_max: int = 8,
    budget: int = DEFAULT_NODE_BUDGET,
) -> PressureCurve:
    """Tree pressure of phi + t*chi on a uniform t grid of at least 5 points,
    a step whose square is nonzero and a finite max|t|**3.

    Preimages do not depend on the potential and S_n(phi + t chi) = S_n phi
    + t S_n chi, so one budgeted walk with the two rows x -> (phi(x), chi(x))
    (zeros for phi None) gives every t its level sums. Reports central first
    and second differences (ends are nan) and the RMS residual of a
    least-squares cubic over the points with |t| <= CURVE_FIT_WINDOW (over
    all points when fewer than 5 lie there), a purely diagnostic probe.
    """
    ts = np.asarray(t_grid, dtype=float)
    if ts.size < 5:
        raise DomainError("need at least 5 curve points")
    steps = np.diff(ts)
    atol = 1e-12 * max(1.0, abs(float(steps[0])))
    if steps[0] == 0 or not np.allclose(steps, steps[0], rtol=0, atol=atol):
        raise DomainError("t grid must be uniform with a nonzero step")
    if not np.max(np.abs(ts)) <= np.cbrt(np.finfo(float).max):
        raise DomainError("max|t|**3 overflows, so the cubic fit cannot run")
    dt = float(steps[0])
    if dt**2 == 0:
        raise DomainError("the t step squared underflows to 0")
    if n_max < 1:
        raise DomainError("need n_max >= 1")
    _reject_breakpoint(imap, x0)

    def phi_chi(x: np.ndarray) -> np.ndarray:
        return np.stack((np.zeros(x.size) if phi is None else phi(x), chi(x)))

    a_values = np.empty((ts.size, n_max))
    counts = []
    for level in iter_preimage_levels(imap, phi_chi, x0, n_max, budget):
        if level.depth == 0:
            continue
        phi_sums, chi_sums = level.birkhoff
        row = np.empty_like(chi_sums)  # each t's sums, reduced in place
        for i, t in enumerate(ts):
            np.multiply(t, chi_sums, out=row)
            row += phi_sums
            a_values[i, level.depth - 1] = _level_lse(row, overwrite=True)
        counts.append(level.points.size)
        # this level's arrays die once the walk has built the next from them
        del level, phi_sums, chi_sums, row
    counts = np.asarray(counts, dtype=np.int64)
    reports = [
        pressure_report(LevelSums(float(x0), imap.domain, a, counts, n_max + 1), n_max)
        for a in a_values
    ]
    estimates = np.array([rep.estimate for rep in reports])
    fluctuations = np.array([rep.fluctuation for rep in reports])
    first = np.full(ts.size, np.nan)
    second = np.full(ts.size, np.nan)
    first[1:-1] = (estimates[2:] - estimates[:-2]) / (2 * dt)
    second[1:-1] = (estimates[2:] - 2 * estimates[1:-1] + estimates[:-2]) / dt**2
    mask = np.abs(ts) <= CURVE_FIT_WINDOW + 1e-12
    if mask.sum() < 5:
        mask[:] = True
    # fit in u = t / 2**k with max|u| in [1/2, 1): exact, and polyfit's
    # column norms neither underflow nor overflow
    u = np.ldexp(ts[mask], -np.frexp(np.max(np.abs(ts[mask])))[1])
    coeffs = np.polyfit(u, estimates[mask], 3)
    resid = estimates[mask] - np.polyval(coeffs, u)
    fit_residual = float(np.sqrt(np.mean(resid**2)))
    fit_points = int(mask.sum())
    return PressureCurve(
        ts=ts,
        estimates=estimates,
        fluctuations=fluctuations,
        first_diff=first,
        second_diff=second,
        fit_residual=fit_residual,
        fit_points=fit_points,
    )


@dataclass(frozen=True)
class AppendixReport:
    """Four-branch construction: hyperbolic potential with oversized range.

    The potential vanishes on [0, 1/2], which contains the invariant Cantor
    set of itineraries confined to the first two branches (entropy log 2),
    and sits below -gap on [3/4, 1], which contains the fixed point 4 - 4x.
    Its oscillation gap + 1/2 exceeds the entropy log 4, so the bounded-range
    condition fails even though the potential is verified hyperbolic.
    """

    imap: IntervalMap
    potential: PiecewiseLinearPotential
    gap: float
    sup_phi: float
    inf_phi: float
    phi_range: float
    pressure: PressureReport
    entropy: PressureReport
    hyperbolic: bool
    hyperbolic_margin: float
    bounded_range: bool
    fixed_point: float
    phi_at_fixed_point: float


def appendix_construct(
    gap: float,
    x0: float = 0.3,
    n_max: int = 11,
    budget: int = DEFAULT_NODE_BUDGET,
) -> AppendixReport:
    if gap <= 0:
        raise DomainError("gap must be positive")
    if n_max < 1:
        raise DomainError("need n_max >= 1")
    imap = pw_linear_map(
        [0.0, 0.25, 0.5, 0.75, 1.0],
        [4.0, -4.0, 4.0, -4.0],
        [0.0, 2.0, -2.0, 4.0],
        name="four_branch",
    )
    depth = -(gap + 0.5)
    phi = PiecewiseLinearPotential((0.0, 0.5, 0.75, 1.0), (0.0, 0.0, depth, depth))
    inf_phi, sup_phi = potential_range(phi, imap.domain)
    phi_range = sup_phi - inf_phi
    # one walk serves both reports: zero-potential level sums factorize (4^n
    # preimages), so depth 6 already gives the entropy exactly, and their
    # log-sum-exp is log #f^{-n}(x0), which the walk counts anyway
    sums = level_sums(imap, phi, x0, max(n_max, 6), budget)
    pressure = pressure_report(sums, n_max)
    entropy = pressure_report(replace(sums, a_values=np.log(sums.counts)), 6)
    hyper = hyperbolicity_check(imap, phi, pressure.estimate, n_max=1)
    fixed_point = 0.8  # solves 4 - 4x = x on the last branch
    return AppendixReport(
        imap=imap,
        potential=phi,
        gap=gap,
        sup_phi=sup_phi,
        inf_phi=inf_phi,
        phi_range=phi_range,
        pressure=pressure,
        entropy=entropy,
        hyperbolic=hyper.verdict == "hyperbolic",
        hyperbolic_margin=hyper.margin,
        bounded_range=phi_range < entropy.estimate,
        fixed_point=fixed_point,
        phi_at_fixed_point=float(phi(np.asarray(fixed_point))),
    )
