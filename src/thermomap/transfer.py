"""Discretized transfer operator and its spectral diagnostics.

Functions live on a uniform collocation grid with piecewise-linear
interpolation; applying the operator pulls values back through the exact
branch inverses, so no transition matrix is ever assembled. The leading
eigenpair comes from sup-normalized power iteration, the subdominant rate
from deflated probe decay cross-checked against fitted correlation decay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .conformal import AtomicMeasure, uniform_atoms
from .errors import AuditError, ConvergenceError, DomainError
from .maps import IntervalMap, forward_orbit
from .potentials import Potential

MIN_GRID = 16
CORRELATION_FLOOR = 1e-13
CORRELATION_CHUNK = 16384  # atoms per observable call in the correlation sum
DEFLATE_WINDOW = 10


@dataclass(frozen=True)
class GridFunction:
    """Values on a uniform grid, evaluated between nodes by linear interpolation."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.grid.size < MIN_GRID:
            raise DomainError(f"grid needs at least {MIN_GRID} nodes")
        if self.grid.size != self.values.size:
            raise DomainError("grid and values must match")
        steps = np.diff(self.grid)
        if np.any(steps <= 0) or np.ptp(steps) > 1e-9 * steps[0]:
            raise DomainError("grid must be uniform and increasing")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("values must be finite")

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
    """Leading eigenpair of the discretized operator with gap diagnostics."""

    eigenvalue: float
    log_eigenvalue: float
    h: GridFunction
    residual: float
    iterations: int
    rho_hat: float
    fit_r2: float
    fit_points: int
    converged: bool

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
    max_iter: int = 500,
    mu: Optional[AtomicMeasure] = None,
) -> EigenReport:
    """Sup-normalized power iteration for the leading eigenpair.

    The eigenvalue is the asymptotic sup-norm growth factor; iteration
    stops when consecutive factors agree within tol and the eigen-residual
    is below 10 tol. The eigenfunction is rescaled to integrate to 1
    against mu (uniform midpoint atoms when omitted). The subdominant rate
    rho_hat is fitted from the decay of a deflated probe under the
    normalized operator, using the last DEFLATE_WINDOW resolvable steps.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    if mu is None:
        mu = uniform_atoms(grid_size, imap.domain)
    psi = GridFunction.constant(1.0, grid_size, imap.domain)
    lam_prev = np.inf
    lam = 1.0
    converged = False
    iterations = 0

    def eigen_residual() -> float:
        image = apply_transfer(imap, potential, psi)
        return float(np.max(np.abs(image.values / lam - psi.values)))
    for iterations in range(1, max_iter + 1):
        image = apply_transfer(imap, potential, psi)
        lam = float(np.max(np.abs(image.values)))
        if lam <= 0:
            raise ConvergenceError("operator annihilated the iterate")
        psi = image.with_values(image.values / lam)
        if abs(lam - lam_prev) < tol:
            residual = eigen_residual()
            if residual < 10 * tol:
                converged = True
                break
        lam_prev = lam
    if not converged:
        residual = eigen_residual()
    scale = mu.integrate(psi)
    if scale <= 0:
        raise AuditError("eigenfunction has nonpositive mass against mu")
    h = psi.with_values(psi.values / scale)

    log_p = float(np.log(lam))
    work = GridFunction.from_callable(
        lambda x: 1.0 + 0.1 * np.cos(np.pi * (x - imap.domain[0])
                                     / (imap.domain[1] - imap.domain[0])),
        grid_size,
        imap.domain,
    )
    rates = []
    for _ in range(60):
        work = apply_transfer(imap, potential, work, p_hat=log_p)
        mean = mu.integrate(work)
        perp = work.values - mean * h.values
        r = float(np.max(np.abs(perp)))
        rates.append(r)
        work = work.with_values(perp)
        if r < 1e-15:
            break
    usable = np.asarray([r for r in rates if r > 1e-14])
    if usable.size >= 3:
        tail = usable[-DEFLATE_WINDOW:]
        slope, _, r2 = _log_linear_fit(np.arange(tail.size, dtype=float), np.log(tail))
        rho_hat = float(np.exp(slope))
        fit_points = int(tail.size)
    else:
        # probe collapsed immediately: subdominant part below resolution
        rho_hat, r2, fit_points = 0.0, float("nan"), int(usable.size)
    return EigenReport(
        eigenvalue=lam,
        log_eigenvalue=log_p,
        h=h,
        residual=residual,
        iterations=iterations,
        rho_hat=rho_hat,
        fit_r2=r2,
        fit_points=fit_points,
        converged=converged,
    )


@dataclass(frozen=True)
class EquilibriumState:
    """Invariant state nu = h mu with its entropy estimate."""

    nu: AtomicMeasure
    potential_mean: float
    entropy: float


def equilibrium_state(
    imap: IntervalMap,
    potential: Optional[Potential],
    mu: AtomicMeasure,
    eigen: EigenReport,
    hyperbolic: bool = False,
) -> EquilibriumState:
    """Tilt the conformal measure by the eigenfunction and report entropy.

    Entropy is pressure minus the potential mean against nu. When the
    potential has a verified hyperbolicity certificate this must be
    strictly positive; a nonpositive value then indicates a broken
    eigenpair or measure and is raised as an audit failure.
    """
    weights = mu.masses * eigen.h(mu.points)
    nu = AtomicMeasure.normalized(mu.points, weights, mu.domain)
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
    test_functions: Sequence[Union[GridFunction, Callable]],
    grid_size: int = 4096,
) -> float:
    """Max deviation of int L-hat psi dmu from int psi dmu over the probes.

    The conformal measure is a fixed point of the normalized adjoint, so
    both integrals agree in the limit; the deviation measures the joint
    error of the measure and the discretization.
    """
    worst = 0.0
    for fn in test_functions:
        psi = fn if isinstance(fn, GridFunction) else GridFunction.from_callable(
            fn, grid_size, imap.domain
        )
        image = apply_transfer(imap, potential, psi, p_hat=p_hat)
        worst = max(worst, abs(mu.integrate(image) - mu.integrate(psi)))
    return worst


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation sequence against nu with its fitted geometric decay."""

    ns: np.ndarray
    c_values: np.ndarray
    rho: Optional[float]
    prefactor: Optional[float]
    r_squared: Optional[float]
    below_resolution: bool


@dataclass(frozen=True)
class CorrelationBatch:
    """Lags shared by a batch of observable pairs, one report per pair."""

    ns: np.ndarray
    reports: tuple[CorrelationReport, ...]


def fit_decay(ns: np.ndarray, c_values: np.ndarray) -> CorrelationReport:
    """Log-linear fit of C_n = prefactor rho^n over the lags above the floor.

    Fewer than two lags above CORRELATION_FLOOR leave the sequence
    `below_resolution` with no fit.
    """
    valid = c_values > CORRELATION_FLOOR
    if valid.sum() < 2:
        return CorrelationReport(
            ns=ns, c_values=c_values, rho=None, prefactor=None,
            r_squared=None, below_resolution=True,
        )
    slope, intercept, r2 = _log_linear_fit(ns[valid], np.log(c_values[valid]))
    return CorrelationReport(
        ns=ns,
        c_values=c_values,
        rho=float(np.exp(slope)),
        prefactor=float(np.exp(intercept)),
        r_squared=r2,
        below_resolution=False,
    )


def correlation(
    imap: IntervalMap,
    phi_obs: Sequence[Callable],
    psi: Sequence[Callable],
    nu: AtomicMeasure,
    n_max: int = 12,
) -> CorrelationBatch:
    """C_n = |int phi(f^n) psi dnu - int phi dnu int psi dnu| for n = 1..n_max.

    Orbits of the atoms are pushed forward exactly through the map, so the
    only error is that of nu itself. Observables may be grid functions or
    plain callables; exact callables keep cancellation effects intact.

    `phi_obs` and `psi` are two equal-length sequences of callables; the
    `CorrelationBatch` holds one report per pair (phi_obs[k], psi[k]). The
    atoms are pushed forward once for all pairs. At each lag the products
    w phi(f^n x) psi(x) are written into one buffer CORRELATION_CHUNK atoms
    at a time and summed over the whole buffer, so phi is called on slices
    of the orbit: observables must act pointwise.
    """
    phis, psis = list(phi_obs), list(psi)
    if not phis or len(phis) != len(psis):
        raise DomainError("need equal-length, nonempty observable sequences")
    if n_max < 5:
        raise DomainError("need n_max >= 5")
    pts = nu.points
    w = nu.masses
    psi_vals = []
    mean_products = []
    for phi, ps in zip(phis, psis):
        vals = np.asarray(ps(pts), dtype=float)
        phi_vals = vals if phi is ps else np.asarray(phi(pts), dtype=float)
        psi_vals.append(vals)
        mean_products.append(float(np.sum(w * phi_vals)) * float(np.sum(w * vals)))
    cs = np.empty((len(phis), n_max))
    buf = np.empty(pts.size)
    orbit = forward_orbit(imap, pts, n_max + 1)
    next(orbit)  # f^0: the atoms themselves
    for n, (cur, _) in enumerate(orbit):
        for k, phi in enumerate(phis):
            for lo in range(0, pts.size, CORRELATION_CHUNK):
                part = slice(lo, lo + CORRELATION_CHUNK)
                out = buf[part]
                np.multiply(w[part], np.asarray(phi(cur[part]), dtype=float), out=out)
                np.multiply(out, psi_vals[k][part], out=out)
            cs[k, n] = abs(float(np.sum(buf)) - mean_products[k])
    ns = np.arange(1, n_max + 1)
    return CorrelationBatch(ns=ns, reports=tuple(fit_decay(ns, row) for row in cs))


def smoothed_indicator(
    lo: float, hi: float, width: float = 0.05
) -> Callable[[np.ndarray], np.ndarray]:
    """Logistic-edged indicator of [lo, hi]; smooth enough to carry a rate."""

    def fn(x):
        x = np.asarray(x, dtype=float)
        return 1.0 / (1.0 + np.exp(-(x - lo) / width)) \
            / (1.0 + np.exp((x - hi) / width))

    return fn


@dataclass(frozen=True)
class GapEstimate:
    """Conservative subdominant-rate estimate from two independent routes.

    `deflation_rate` is `EigenReport.rho_hat`. On the tent map it is 0.0:
    the cos(pi x) probe is annihilated by the deflated operator at once
    (`rho_hat` 0.0, `fit_points` 0), so `value` is the correlation route
    alone there.
    """

    value: float
    deflation_rate: float
    correlation_rate: Optional[float]
    flagged: bool
    eigen: EigenReport
    corr: CorrelationReport


def spectral_gap_estimate(
    imap: IntervalMap,
    potential: Optional[Potential],
    grid_size: int,
    mu: AtomicMeasure,
    n_max: Optional[int] = None,
) -> GapEstimate:
    """Max of the deflated decay rate and the fitted correlation rate.

    The correlation route uses a step observable cut at one third of the
    domain: the jump feeds every frequency, so its autocorrelation carries
    the essential (bounded-variation) rate that smooth probes miss. The fit
    window is sized to the atom count of mu: pushforward correlations track
    a geometric law only down to the resolution scale of the measure, and
    including deeper lags would fit discretization error instead of decay.

    The two estimators target the same subdominant modulus; a disagreement
    beyond a factor of 2 is flagged for manual review rather than averaged
    away.
    """
    eigen = power_iteration(imap, potential, grid_size=grid_size, mu=mu)
    state = equilibrium_state(imap, potential, mu, eigen)
    if n_max is None:
        # step-observable correlations on an M-atom measure are clean down
        # to roughly lag log2(M)/2; keep a two-lag margin above that floor
        n_max = max(5, int(np.log2(mu.points.size) / 2.0) - 2)
    lo, hi = imap.domain
    cut = lo + (hi - lo) / 3.0

    def obs(x):
        return (np.asarray(x, dtype=float) <= cut).astype(float)

    corr = correlation(imap, [obs], [obs], state.nu, n_max=n_max).reports[0]
    rates = [eigen.rho_hat]
    if corr.rho is not None:
        rates.append(corr.rho)
    value = max(rates)
    flagged = False
    if corr.rho is not None and min(rates) > 0:
        flagged = max(rates) / min(rates) > 2.0
    return GapEstimate(
        value=value,
        deflation_rate=eigen.rho_hat,
        correlation_rate=corr.rho,
        flagged=flagged,
        eigen=eigen,
        corr=corr,
    )
