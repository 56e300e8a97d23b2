"""Discretized transfer operator and its spectral diagnostics.

Functions live on a uniform collocation grid with piecewise-linear
interpolation; applying the operator pulls values back through the exact
branch inverses, so no transition matrix is ever assembled. A grid function
integrates against an atomic measure as `AtomicMeasure.hat_weights(grid)`
dotted with its values, one weight vector per (grid, measure), so no
integral evaluates the function at the atoms. The leading eigenpair comes
from sup-normalized power iteration. Correlations against the equilibrium
state nu = h mu take the dual route: phi h is pushed through the normalized
operator, each lag is one integral against mu, and the signed sequence is
fitted with a geometric decay down to the measure's invariance defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .conformal import AtomicMeasure, uniform_atoms
from .errors import AuditError, ConvergenceError, DomainError
from .maps import IntervalMap
from .potentials import Potential

MIN_GRID = 16
CORRELATION_FLOOR = 1e-13
MAX_ITER = 500  # power_iteration's step cap


@dataclass(frozen=True)
class GridFunction:
    """Values on a uniform grid, evaluated between nodes by linear interpolation."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.grid.size < MIN_GRID:
            raise DomainError(f"grid needs at least {MIN_GRID} nodes")
        if self.grid.size != self.values.size:
            raise DomainError("grid and values must match")
        # checked first: nan fails no order or uniformity comparison below
        if not (np.isfinite(self.grid).all() and np.isfinite(self.values).all()):
            raise DomainError("grid and values must be finite")
        steps = np.diff(self.grid)
        if np.any(steps <= 0) or np.ptp(steps) > 1e-9 * steps[0]:
            raise DomainError("grid must be uniform and increasing")

    @classmethod
    def from_callable(
        cls, fn: Callable, size: int, domain: tuple[float, float] = (0.0, 1.0)
    ) -> "GridFunction":
        grid = np.linspace(domain[0], domain[1], size)
        return cls(grid, np.asarray(fn(grid), dtype=float))

    @classmethod
    def constant(
        cls, value: float, size: int, domain: tuple[float, float] = (0.0, 1.0)
    ) -> "GridFunction":
        return cls(np.linspace(domain[0], domain[1], size), np.full(size, float(value)))

    def __call__(self, x):
        out = np.interp(np.asarray(x, dtype=float), self.grid, self.values)
        return float(out) if np.isscalar(x) else out

    @property
    def size(self) -> int:
        return int(self.grid.size)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.grid, values)


def apply_transfer(
    imap: IntervalMap,
    potential: Optional[Potential],
    psi: GridFunction,
    p_hat: Optional[float] = None,
) -> GridFunction:
    """Pull psi back through every branch inverse with potential weights.

    Nodewise (L psi)(x) = sum over branches whose image covers x of
    exp(potential(y_b)) psi(y_b). Passing p_hat gives the normalized
    operator, which multiplies by exp(-p_hat).
    """
    x = psi.grid
    lo, hi = imap.domain
    if x[0] < lo - 1e-9 or x[-1] > hi + 1e-9:
        raise DomainError("grid must lie inside the map domain")
    acc = np.zeros(x.size)
    for br in imap.branches:
        mask = br.covers(x)
        if not np.any(mask):
            continue
        y = br.inverse(x[mask])
        if potential is not None:
            # a preimage landing exactly on a shared branch endpoint must
            # carry this branch's one-sided potential value, not the value
            # the global left-owner lookup would assign to the edge point
            y_phi = np.clip(
                y, np.nextafter(br.lo, br.hi), np.nextafter(br.hi, br.lo)
            )
            weight = np.exp(potential(y_phi))
        else:
            weight = 1.0
        acc[mask] += weight * psi(y)
    if p_hat is not None:
        acc *= np.exp(-p_hat)
    return psi.with_values(acc)


@dataclass(frozen=True)
class EigenReport:
    """Leading eigenpair of the discretized operator with its trajectory."""

    eigenvalue: float
    log_eigenvalue: float
    h: GridFunction
    residual: float
    iterations: int
    converged: bool
    lambda_history: np.ndarray  # the sup-norm growth factor of each step

    def __post_init__(self) -> None:
        if self.eigenvalue <= 0:
            raise DomainError("leading eigenvalue must be positive")
        if np.any(self.h.values < 0):
            raise DomainError("eigenfunction must be nonnegative nodewise")


def _log_linear_fit(x: np.ndarray, log_y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line log_y = slope x + intercept, with its R^2."""
    slope, intercept = np.polyfit(x, log_y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((log_y - fitted) ** 2))
    ss_tot = float(np.sum((log_y - log_y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, r2


def power_iteration(
    imap: IntervalMap,
    potential: Optional[Potential],
    grid_size: int = 4096,
    tol: float = 1e-12,
    mu: Optional[AtomicMeasure] = None,
) -> EigenReport:
    """Sup-normalized power iteration for the leading eigenpair.

    The eigenvalue is the asymptotic sup-norm growth factor; iteration
    stops when consecutive factors agree within tol and the eigen-residual
    is below 10 tol, or after MAX_ITER steps. A run of k steps applies
    the operator k + 1 times: each image gives both the previous step's
    residual and the next iterate. The eigenfunction is rescaled to
    integrate to 1 against mu (uniform midpoint atoms when omitted): one
    dot product with mu.hat_weights(grid). The report keeps the eigenvalue
    of each step.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    if mu is None:
        mu = uniform_atoms(grid_size, imap.domain)
    psi = GridFunction.constant(1.0, grid_size, imap.domain)
    image = apply_transfer(imap, potential, psi)
    lam_prev = np.inf
    converged = False
    lambdas = []
    for iterations in range(1, MAX_ITER + 1):
        lam = float(np.max(np.abs(image.values)))
        if lam <= 0:
            raise ConvergenceError("operator annihilated the iterate")
        lambdas.append(lam)
        psi = image.with_values(image.values / lam)
        image = apply_transfer(imap, potential, psi)
        residual = float(np.max(np.abs(image.values / lam - psi.values)))
        if abs(lam - lam_prev) < tol and residual < 10 * tol:
            converged = True
            break
        lam_prev = lam
    scale = float(mu.hat_weights(psi.grid) @ psi.values)
    if scale <= 0:
        raise AuditError("eigenfunction has nonpositive mass against mu")
    return EigenReport(
        eigenvalue=lam,
        log_eigenvalue=float(np.log(lam)),
        h=psi.with_values(psi.values / scale),
        residual=residual,
        iterations=iterations,
        converged=converged,
        lambda_history=np.asarray(lambdas),
    )


@dataclass(frozen=True)
class EquilibriumState:
    """Invariant state nu = h mu with its entropy estimate."""

    nu: AtomicMeasure
    potential_mean: float
    entropy: float


def equilibrium_state(
    potential: Optional[Potential],
    mu: AtomicMeasure,
    eigen: EigenReport,
    hyperbolic: bool = False,
) -> EquilibriumState:
    """Tilt an atomic measure by the eigenfunction and report entropy.

    Entropy is pressure minus the potential mean against nu. For a
    hyperbolic potential this must be strictly positive; with `hyperbolic`
    set, a nonpositive value indicates a broken eigenpair or measure and is
    raised as an audit failure.

    mu is any atomic measure: the conformal measure itself gives nu on its
    atoms, and its projection onto h's grid, AtomicMeasure.normalized(grid,
    mu.hat_weights(grid), mu.domain), gives the O(G) entropy guard, with
    int phi dnu = sum_j w_j h_j phi(g_j) / sum_j w_j h_j over the G nodes.
    The two entropies differ by O(G^-2) for a smooth potential and by O(1/G)
    at a jump of it, which the grid smears over one cell.
    """
    # mu's atoms are already sorted and distinct: nu keeps them as they are
    weights = mu.masses * eigen.h(mu.points)
    total = float(weights.sum())
    if total <= 0:
        raise AuditError("eigenfunction has nonpositive mass against mu")
    weights /= total
    nu = AtomicMeasure(mu.points, weights, mu.domain)
    if potential is not None:
        phi_mean = nu.integrate(potential)
    else:
        phi_mean = 0.0
    entropy = eigen.log_eigenvalue - phi_mean
    if hyperbolic and entropy <= 0:
        raise AuditError(
            f"entropy estimate {entropy:.6g} is nonpositive for a "
            "hyperbolicity-certified potential"
        )
    return EquilibriumState(nu=nu, potential_mean=phi_mean, entropy=entropy)


def adjoint_invariance_audit(
    imap: IntervalMap,
    potential: Optional[Potential],
    p_hat: float,
    mu: AtomicMeasure,
    test_functions: Sequence[Callable],
    grid_size: int = 4096,
) -> float:
    """Max deviation of int L-hat psi dmu from int psi dmu over the probes.

    The conformal measure is a fixed point of the normalized adjoint, so
    both integrals agree in the limit; the deviation measures the joint
    error of the measure and the discretization. Each probe is a callable,
    sampled on `grid_size` uniform nodes of the map's domain; both of its
    integrals are dot products with mu.hat_weights of that grid.
    """
    worst = 0.0
    for fn in test_functions:
        psi = GridFunction.from_callable(fn, grid_size, imap.domain)
        image = apply_transfer(imap, potential, psi, p_hat=p_hat)
        weights = mu.hat_weights(psi.grid)
        worst = max(worst, abs(float(weights @ image.values)
                               - float(weights @ psi.values)))
    return worst


@dataclass(frozen=True)
class CorrelationReport:
    """Signed correlation sequence against nu with its fitted geometric decay."""

    ns: np.ndarray
    c_values: np.ndarray
    floor: float
    below_resolution: np.ndarray  # per lag: from the first |C_n| <= floor on
    rho: Optional[float]
    prefactor: Optional[float]
    r_squared: Optional[float]


@dataclass(frozen=True)
class CorrelationBatch:
    """Lags shared by a batch of observables, one report per observable."""

    ns: np.ndarray
    reports: tuple[CorrelationReport, ...]


def fit_decay(ns: np.ndarray, c_values: np.ndarray, floor: float) -> CorrelationReport:
    """Log-linear fit of |C_n| = prefactor rho^n over the resolved lags.

    Every lag from the first one with |C_n| <= floor on is
    `below_resolution`; the fit reads the lags before it, and fewer than two
    of them leave no fit.
    """
    size = np.abs(c_values)
    below = np.logical_or.accumulate(size <= floor)
    fit = (None, None, None)
    if (~below).sum() >= 2:
        slope, intercept, r2 = _log_linear_fit(ns[~below], np.log(size[~below]))
        fit = (float(np.exp(slope)), float(np.exp(intercept)), r2)
    return CorrelationReport(ns, c_values, floor, below, *fit)


def correlation(
    imap: IntervalMap,
    potential: Optional[Potential],
    observables: Sequence[Callable],
    mu: AtomicMeasure,
    eigen: EigenReport,
    n_max: int = 12,
) -> CorrelationBatch:
    """Signed C_n = int phi L-hat^n(phi h) dmu - (int phi dnu)^2, n = 1..n_max,
    for each observable phi.

    mu is the conformal measure and `eigen` the eigenpair of (imap,
    potential); L-hat is the operator normalized by eigen's log eigenvalue
    and nu = h mu / int h dmu, so the first term is int phi(f^n) phi dnu.
    Each observable, a callable acting pointwise, is sampled once on h's
    grid: phi h is pushed through L-hat n_max times and each lag is one dot
    product with mu.hat_weights of that grid.

    The batch holds one report per observable. Its floor is sup_grid |phi|
    times |int L-hat(phi h) dmu - int phi h dmu|, mu's invariance defect
    read from the first image, and at least CORRELATION_FLOOR; `fit_decay`
    flags the lags below it.
    """
    observables = list(observables)
    if not observables:
        raise DomainError("need a nonempty observable sequence")
    if n_max < 5:
        raise DomainError("need n_max >= 5")
    grid = eigen.h.grid
    w = mu.hat_weights(grid)
    h = eigen.h.values / float(w @ eigen.h.values)
    ns = np.arange(1, n_max + 1)
    reports = []
    for phi in observables:
        phi_vals = np.asarray(phi(grid), dtype=float)
        work = eigen.h.with_values(phi_vals * h)
        phi_mean = float(w @ work.values)
        images = []
        for _ in range(n_max):
            work = apply_transfer(imap, potential, work, p_hat=eigen.log_eigenvalue)
            images.append(work.values)
        # one dot product per lag, so C_n does not depend on n_max
        wphi = w * phi_vals
        cs = np.array([wphi @ v for v in images]) - float(wphi @ h) * phi_mean
        defect = abs(float(w @ images[0]) - phi_mean)
        floor = max(CORRELATION_FLOOR, float(np.max(np.abs(phi_vals))) * defect)
        reports.append(fit_decay(ns, cs, floor))
    return CorrelationBatch(ns=ns, reports=tuple(reports))


def smoothed_indicator(
    lo: float, hi: float, width: float = 0.05
) -> Callable[[np.ndarray], np.ndarray]:
    """Logistic-edged indicator of [lo, hi]; smooth enough to carry a rate."""

    def fn(x):
        x = np.asarray(x, dtype=float)
        return 1.0 / (1.0 + np.exp(-(x - lo) / width)) \
            / (1.0 + np.exp((x - hi) / width))

    return fn
