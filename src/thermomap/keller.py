"""Oscillation seminorms and variation norms against atomic reference measures.

The pseudo-distance between two points is the mass of the closed interval
joining them (``AtomicMeasure.mass_interval``); balls are sublevel sets
d(x, .) < eps. Oscillation of a sampled function over a ball is the max
minus min of its sample values there, the essential sup being realized as
a max over samples. All norms come with the caveat that the reference
measure is atomic: the continuum inequalities acquire explicit boundary-atom
slack terms, reported rather than hidden.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .conformal import AtomicMeasure
from .errors import DomainError

FLOAT_SLACK = 1e-12


@dataclass(frozen=True)
class SampledFunction:
    """Function known at finitely many points, extended stepwise to the left.

    Between samples the value of the nearest sample to the left applies;
    left of all samples the first value applies.
    """

    positions: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.positions.size == 0 or self.positions.size != self.values.size:
            raise DomainError("need matching nonempty positions and values")
        if np.any(np.diff(self.positions) <= 0):
            raise DomainError("positions must be strictly increasing")

    @classmethod
    def from_callable(cls, fn: Callable, positions: np.ndarray) -> "SampledFunction":
        positions = np.asarray(positions, dtype=float)
        return cls(positions, np.asarray(fn(positions), dtype=float))

    def __call__(self, x):
        idx = np.searchsorted(self.positions, np.asarray(x), side="right") - 1
        out = self.values[np.clip(idx, 0, None)]
        return float(out) if np.isscalar(x) else out

    @property
    def size(self) -> int:
        return int(self.positions.size)

    def __mul__(self, other: "SampledFunction") -> "SampledFunction":
        if not np.array_equal(self.positions, other.positions):
            raise DomainError("product needs identical sample positions")
        return SampledFunction(self.positions, self.values * other.values)


class _RangeTable:
    """Sparse table answering max/min over index ranges in O(1) each."""

    def __init__(self, values: np.ndarray):
        n = values.size
        levels = max(1, n.bit_length())
        self.max_t = [np.asarray(values, dtype=float)]
        self.min_t = [np.asarray(values, dtype=float)]
        for lv in range(1, levels):
            half = 1 << (lv - 1)
            prev_max, prev_min = self.max_t[-1], self.min_t[-1]
            if prev_max.size <= half:
                break
            self.max_t.append(np.maximum(prev_max[:-half], prev_max[half:]))
            self.min_t.append(np.minimum(prev_min[:-half], prev_min[half:]))

    def spread(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """max - min over [lo, hi] per pair; 0 where the range is empty."""
        lo = np.asarray(lo)
        hi = np.asarray(hi)
        out = np.zeros(lo.shape, dtype=float)
        ok = lo <= hi
        if not np.any(ok):
            return out
        length = hi[ok] - lo[ok] + 1
        lv = np.clip(np.int64(np.log2(length)), 0, len(self.max_t) - 1)
        width = 1 << lv
        a, b = lo[ok], hi[ok] - width + 1
        hi_vals = np.empty(a.shape)
        lo_vals = np.empty(a.shape)
        for level in np.unique(lv):
            sel = lv == level
            hi_vals[sel] = np.maximum(
                self.max_t[level][a[sel]], self.max_t[level][b[sel]]
            )
            lo_vals[sel] = np.minimum(
                self.min_t[level][a[sel]], self.min_t[level][b[sel]]
            )
        out[ok] = hi_vals - lo_vals
        return out


def _ball_windows(
    h: SampledFunction, m: AtomicMeasure, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Index ranges [lo_k, hi_k] of h-samples inside each atom's eps-ball.

    With cum the exclusive prefix masses of m, the sample at position q has
    closed-interval mass coordinates L = cum[left insert] and U = cum[right
    insert]; it lies in the ball of atom k exactly when L > cum[k+1] - eps
    and U < cum[k] + eps. Both bounds are nondecreasing in k.
    """
    cum = m.cumulative
    left = np.searchsorted(m.points, h.positions, side="left")
    right = np.searchsorted(m.points, h.positions, side="right")
    lower_coord = cum[left]
    upper_coord = cum[right]
    lo = np.searchsorted(lower_coord, cum[1:] - eps, side="right")
    hi = np.searchsorted(upper_coord, cum[:-1] + eps, side="left") - 1
    return lo, hi


def osc_profile(
    h: SampledFunction, m: AtomicMeasure, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Oscillation of h over the eps-ball centered at every atom of m.

    Returns (osc values, empty-ball flags). A ball can be empty when the
    center atom itself carries mass >= eps; oscillation is 0 there.
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    lo, hi = _ball_windows(h, m, eps)
    table = _RangeTable(h.values)
    return table.spread(lo, hi), lo > hi


EPS_LEVELS = 21


def eps_grid(A: float) -> np.ndarray:
    return A * 2.0 ** -np.arange(EPS_LEVELS, dtype=float)


@dataclass(frozen=True)
class KellerReport:
    """Seminorm sup over the geometric eps-grid, a certified lower bound;
    per eps, the m-integrals of the ball oscillation and its 1/alpha power."""

    seminorm: float
    norm: float
    l1: float
    alpha: float
    A: float
    eps_values: np.ndarray
    osc1_values: np.ndarray
    osc_power_values: np.ndarray
    argmax_eps: float


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha <= 1:
        raise DomainError("alpha must lie in (0, 1]")


def keller_seminorm(
    h: SampledFunction, m: AtomicMeasure, alpha: float, A: float
) -> KellerReport:
    """|h| over the grid {A 2^-i} plus the L1 part of the norm."""
    _check_alpha(alpha)
    if A <= 0:
        raise DomainError("A must be positive")
    grid = eps_grid(A)
    osc1_vals = np.empty(grid.size)
    power_vals = np.empty(grid.size)
    for i, e in enumerate(grid):
        vals, _ = osc_profile(h, m, e)
        osc1_vals[i] = np.sum(m.masses * vals)
        power_vals[i] = np.sum(m.masses * vals ** (1.0 / alpha))
    ratios = osc1_vals / grid**alpha
    best = int(np.argmax(ratios))
    seminorm = float(ratios[best])
    l1 = m.integrate(lambda x: np.abs(h(x)))
    return KellerReport(
        seminorm=seminorm,
        norm=l1 + seminorm,
        l1=l1,
        alpha=alpha,
        A=A,
        eps_values=grid,
        osc1_values=osc1_vals,
        osc_power_values=power_vals,
        argmax_eps=float(grid[best]),
    )


def p_variation(h: SampledFunction, p: float) -> float:
    """Exact sup of (sum |dh|^p)^(1/p) over increasing sample subsets.

    For p >= 1 the sup is attained on the local extrema of the samples
    (Butkus & Norvaisa, "Computation of p-variation", Lithuanian Math. J. 58,
    2018): inside a monotone run |c-a|^p >= |b-a|^p + |c-b|^p, so dropping
    an interior point of the run never lowers the sum. Repeated consecutive
    values are merged, then only the endpoints and the points where the
    difference changes sign are kept. A dynamic program over the right
    endpoint runs on those: best[i] is the largest sum of p-th powers among
    subsets ending at extremum i.
    """
    if not 1 <= p < np.inf:
        raise DomainError("p must be finite and at least 1")
    v = h.values
    v = v[np.concatenate([[True], v[1:] != v[:-1]])]
    k = v.size
    if k < 2:
        return 0.0
    rising = v[1:] > v[:-1]
    v = v[np.concatenate([[True], rising[1:] != rising[:-1], [True]])]
    best = np.zeros(v.size)
    for i in range(1, v.size):
        best[i] = np.max(best[:i] + np.abs(v[i] - v[:i]) ** p)
    return float(np.max(best) ** (1.0 / p))


def holder_seminorm(h: SampledFunction, alpha: float) -> float:
    """Exact max of |h(x)-h(y)| / |x-y|^alpha over all sample pairs.

    Pairs are taken one index offset d at a time. No pair differs by more
    than the spread max(h) - min(h), and the smallest gap x[i+d] - x[i]
    never shrinks as d grows, so once spread / (smallest gap)^alpha is no
    larger than the best quotient so far, no later offset can beat it and
    the scan stops. The quotients compared are the same floats as in a scan
    of every pair, so the max is the same.
    """
    _check_alpha(alpha)
    x, v = h.positions, h.values
    spread = float(np.max(v) - np.min(v))
    best = 0.0
    for d in range(1, x.size):
        gaps = (x[d:] - x[:-d]) ** alpha
        if spread / float(np.min(gaps)) <= best:
            break
        best = max(best, float(np.max(np.abs(v[d:] - v[:-d]) / gaps)))
    return best


def c_star(alpha: float, A: float, total_mass: float = 1.0) -> float:
    """Essential-bound constant from the covering recipe.

    N balls of radius A spaced 2*ell apart in mass coordinate cover the
    space; the constant is max{1, A^alpha / (2 ell)} with ell = m(X)/(4N)
    and N the least integer >= m(X) / (2A).
    """
    n_balls = int(np.ceil(total_mass / (2.0 * A)))
    ell = total_mass / (4.0 * n_balls)
    return max(1.0, A**alpha / (2.0 * ell))


@dataclass(frozen=True)
class NormReport:
    """Every norm of one function against `measure`; the L1 part, Keller
    seminorm and norm, alpha and A are those of `keller`."""

    keller: KellerReport
    sup: float
    var_p: float
    bv_norm: float
    holder_seminorm: float
    holder_norm: float
    p: float
    measure: AtomicMeasure


def norm_report(
    h: SampledFunction,
    m: AtomicMeasure,
    alpha: float,
    A: float,
    p: Optional[float] = None,
) -> NormReport:
    kel = keller_seminorm(h, m, alpha, A)  # checks alpha before 1 / alpha
    if p is None:
        p = 1.0 / alpha
    sup = float(np.max(np.abs(h.values)))
    var = p_variation(h, p)
    hol = holder_seminorm(h, alpha)
    return NormReport(
        keller=kel,
        sup=sup,
        var_p=var,
        bv_norm=var + sup,
        holder_seminorm=hol,
        holder_norm=sup + hol,
        p=p,
        measure=m,
    )


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool
    detail: str


@dataclass(frozen=True)
class NormChainAudit:
    checks: tuple[InequalityCheck, ...]
    passed: bool
    c_star: float
    alpha: float
    A: float


def norm_chain_audit(
    h: SampledFunction,
    m: AtomicMeasure,
    alpha: float,
    A: float,
    g: Optional[SampledFunction] = None,
    report: Optional[NormReport] = None,
) -> NormChainAudit:
    """Audit the norm comparison chain on concrete data.

    (i)   BV_{1/alpha} norm against the Holder norm times max{1, diam^alpha};
    (ii)  Keller norm against 2^alpha times the BV norm;
    (iii) the oscillation-power integral against 2 eps Var^{1/alpha} on the
          eps-grid;
    (iv)  the product norm against 2 C_* times the factor norms.

    The continuum proofs of (ii) and (iii) assume an atom-free reference
    measure. Against an atomic one each packing ball can overshoot by at
    most one boundary atom per side, which adds 2 max_mass Var^{1/alpha}
    to the right side of (iii) and the matching relative factor
    (1 + max_mass / eps)^alpha at the achieving eps of (ii); both slacks
    vanish as the atoms refine and are reported per check.

    `report` is a `norm_report` of h against m, computed when omitted. Its
    `keller` profile gives the achieving eps of (ii) and the left sides of
    (iii), so past the report only h*h and g are scanned. For a report of
    another p only Var^{1/alpha} is recomputed; one for another alpha, A
    or measure (other points or masses) raises DomainError.
    """
    _check_alpha(alpha)
    if g is None:
        g = h
    p = 1.0 / alpha
    if report is None:
        report = norm_report(h, m, alpha, A)
    kel = report.keller
    mr = report.measure
    if (kel.alpha, kel.A) != (alpha, A) or not (
        np.array_equal(mr.points, m.points) and np.array_equal(mr.masses, m.masses)
    ):
        raise DomainError("report was computed for another alpha, A or measure")
    var, bv_norm = report.var_p, report.bv_norm
    if report.p != p:
        var = p_variation(h, p)
        bv_norm = var + report.sup
    diam = float(h.positions[-1] - h.positions[0])
    max_mass = float(np.max(m.masses))
    checks = []

    lhs = bv_norm
    rhs = max(1.0, diam**alpha) * report.holder_norm
    checks.append(
        InequalityCheck(
            name="bv_le_scaled_holder",
            lhs=lhs,
            rhs=rhs,
            slack=FLOAT_SLACK * max(1.0, rhs),
            passed=lhs <= rhs + FLOAT_SLACK * max(1.0, rhs),
            detail=f"diam={diam:.6g}",
        )
    )

    lhs = kel.norm
    base_rhs = 2.0**alpha * bv_norm
    atomic_factor = (1.0 + max_mass / kel.argmax_eps) ** alpha
    rhs = base_rhs * atomic_factor
    checks.append(
        InequalityCheck(
            name="keller_le_bv",
            lhs=lhs,
            rhs=rhs,
            slack=rhs - base_rhs,
            passed=lhs <= rhs + FLOAT_SLACK * max(1.0, rhs),
            detail=f"eps*={kel.argmax_eps:.6g}, atomic factor {atomic_factor:.6g}",
        )
    )
    rhs_e = 2.0 * (kel.eps_values + max_mass) * var**p
    worst = int(np.argmax(kel.osc_power_values - rhs_e))
    lhs, rhs = float(kel.osc_power_values[worst]), float(rhs_e[worst])
    checks.append(
        InequalityCheck(
            name="osc_power_le_var",
            lhs=lhs,
            rhs=rhs,
            slack=2.0 * max_mass * var**p,
            passed=lhs - rhs <= FLOAT_SLACK * max(1.0, rhs),
            detail=f"worst eps={kel.eps_values[worst]:.6g}",
        )
    )

    cstar = c_star(alpha, A, float(m.masses.sum()))
    g_norm = kel.norm if g is h else keller_seminorm(g, m, alpha, A).norm
    lhs = keller_seminorm(h * g, m, alpha, A).norm
    rhs = 2.0 * cstar * kel.norm * g_norm
    checks.append(
        InequalityCheck(
            name="product_bound",
            lhs=lhs,
            rhs=rhs,
            slack=FLOAT_SLACK * max(1.0, rhs),
            passed=lhs <= rhs + FLOAT_SLACK * max(1.0, rhs),
            detail=f"C*={cstar:.6g}",
        )
    )

    return NormChainAudit(
        checks=tuple(checks),
        passed=all(c.passed for c in checks),
        c_star=cstar,
        alpha=alpha,
        A=A,
    )
