"""Potentials on an interval with regularity metadata and range helpers.

Each potential is a vectorized callable plus the data audits need: a Holder
exponent and constant (possibly infinite for discontinuous families) and a
list of candidate extremum locations so sup/inf can be pinned down beyond
plain grid scanning. Averaging along orbits is provided as a concrete
potential whose Birkhoff sums track those of the base potential up to an
explicit coboundary bound.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AuditError, DomainError
from .maps import IntervalMap, birkhoff_sum, forward_orbit


class Potential(abc.ABC):
    """Vectorized real-valued function of a point in the interval."""

    @abc.abstractmethod
    def __call__(self, x: np.ndarray) -> np.ndarray: ...

    @property
    def holder_exponent(self) -> float:
        return 1.0

    @property
    def holder_constant(self) -> float:
        return np.inf

    def extremum_candidates(self) -> np.ndarray:
        """Points where sup or inf may be attained, beyond a uniform grid."""
        return np.empty(0)


@dataclass(frozen=True)
class ConstantPotential(Potential):
    value: float = 0.0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.full_like(x, self.value)

    @property
    def holder_constant(self) -> float:
        return 0.0


@dataclass(frozen=True)
class BranchConstantPotential(Potential):
    """Constant on each cell of a partition; left cell owns shared edges."""

    cell_edges: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.cell_edges) != len(self.values) + 1:
            raise DomainError("cell edges must outnumber values by exactly one")
        if not np.all(np.diff(self.cell_edges) > 0):
            raise DomainError("cell edges must be strictly increasing")

    @classmethod
    def from_map(cls, imap: IntervalMap, values: Sequence[float]) -> "BranchConstantPotential":
        return cls(tuple(float(v) for v in imap.breakpoints), tuple(float(v) for v in values))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        edges = np.asarray(self.cell_edges)
        idx = np.searchsorted(edges[1:-1], np.asarray(x, dtype=float), side="left")
        return np.asarray(self.values)[idx]

    @property
    def holder_constant(self) -> float:
        vals = set(self.values)
        return 0.0 if len(vals) == 1 else np.inf

    def extremum_candidates(self) -> np.ndarray:
        edges = np.asarray(self.cell_edges)
        return (edges[:-1] + edges[1:]) / 2.0


@dataclass(frozen=True)
class CosineSeriesPotential(Potential):
    """offset + sum_j a_j cos(2 pi j u) with u the position rescaled to [0, 1].

    ``coefficients[j - 1]`` multiplies frequency j. Smooth, so the Lipschitz
    constant 2 pi sum_j j |a_j| / (hi - lo) is exact.
    """

    coefficients: tuple[float, ...]
    offset: float = 0.0
    lo: float = 0.0
    hi: float = 1.0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        u = (np.asarray(x, dtype=float) - self.lo) / (self.hi - self.lo)
        out = np.full_like(u, self.offset)
        for j, a in enumerate(self.coefficients, start=1):
            if a != 0.0:
                out = out + a * np.cos(2.0 * np.pi * j * u)
        return out

    @property
    def holder_constant(self) -> float:
        total = sum(j * abs(a) for j, a in enumerate(self.coefficients, start=1))
        return 2.0 * np.pi * total / (self.hi - self.lo)

    def extremum_candidates(self) -> np.ndarray:
        pts: list[float] = []
        length = self.hi - self.lo
        for j, a in enumerate(self.coefficients, start=1):
            if a != 0.0:
                pts.extend(self.lo + length * m / (2 * j) for m in range(2 * j + 1))
        return np.unique(np.array(pts)) if pts else np.empty(0)


@dataclass(frozen=True)
class PiecewiseLinearPotential(Potential):
    """Linear interpolation through (x, value) nodes spanning the domain."""

    xs: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.values) or len(self.xs) < 2:
            raise DomainError("need matching node and value lists of length >= 2")
        if not np.all(np.diff(self.xs) > 0):
            raise DomainError("node positions must be strictly increasing")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.xs, self.values)

    @property
    def holder_constant(self) -> float:
        dx = np.diff(np.asarray(self.xs))
        dv = np.abs(np.diff(np.asarray(self.values)))
        return float(np.max(dv / dx))

    def extremum_candidates(self) -> np.ndarray:
        return np.asarray(self.xs, dtype=float)


@dataclass(frozen=True)
class AveragedPotential(Potential):
    """Orbit average (1/N) (phi + phi o f + ... + phi o f^(N-1)).

    Cohomologous to the base potential: with u(x) = (1/N) sum_j (N-1-j)
    phi(f^j x) one has avg = phi + u o f - u, so Birkhoff sums of the two
    potentials differ by u o f^n - u, bounded by coboundary_sup_bound().
    """

    imap: IntervalMap
    base: Potential
    window: int

    def __post_init__(self) -> None:
        if self.window < 1:
            raise DomainError("averaging window must be at least 1")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return birkhoff_sum(self.imap, self.base, x, self.window) / self.window

    def transfer_term(self, x: np.ndarray) -> np.ndarray:
        """The function u with avg = base + u o f - u."""
        acc = 0.0
        for j, (cur, _) in enumerate(forward_orbit(self.imap, x, self.window)):
            acc = acc + (self.window - 1 - j) * np.asarray(self.base(cur), dtype=float)
        acc = acc / self.window
        return acc if np.ndim(x) else float(acc[0])

    def coboundary_sup_bound(self) -> float:
        """Uniform bound on |S_n(avg) - S_n(base)|, valid for every n.

        Shifting the base potential by a constant shifts u by a constant,
        which cancels in u o f^n - u, so the bound uses the oscillation:
        (N - 1) (sup base - inf base) / 2.
        """
        lo, hi = potential_range(self.base, self.imap.domain)
        return (self.window - 1) * (hi - lo) / 2.0

    @property
    def holder_exponent(self) -> float:
        return self.base.holder_exponent

    @property
    def holder_constant(self) -> float:
        alpha = self.base.holder_exponent
        lam = self.imap.expansion_range()[1]
        factors = sum(lam ** (j * alpha) for j in range(self.window))
        return self.base.holder_constant * factors / self.window

    def extremum_candidates(self) -> np.ndarray:
        return np.unique(
            np.concatenate([self.base.extremum_candidates(), self.imap.breakpoints])
        )


def potential_range(
    potential: Potential, domain: tuple[float, float], grid: int = 4096
) -> tuple[float, float]:
    """Numerical (inf, sup) over a dense grid plus declared candidates."""
    lo, hi = domain
    xs = np.linspace(lo, hi, grid)
    cand = potential.extremum_candidates()
    if cand.size:
        cand = cand[(cand >= lo) & (cand <= hi)]
        xs = np.concatenate([xs, cand])
    vals = np.asarray(potential(xs), dtype=float)
    return float(vals.min()), float(vals.max())


@dataclass(frozen=True)
class HolderAudit:
    alpha: float
    constant: float
    max_ratio: float
    holds: bool


def audit_holder(
    potential: Potential,
    domain: tuple[float, float],
    pairs: int = 4096,
    seed: int = 0,
    strict: bool = False,
) -> HolderAudit:
    """Sample point pairs at many scales and test the declared Holder bound.

    An infinite declared constant holds vacuously. With strict=True a
    violation raises AuditError instead of returning holds=False.
    """
    alpha = potential.holder_exponent
    constant = potential.holder_constant
    if not np.isfinite(constant):
        return HolderAudit(alpha, constant, 0.0, True)
    lo, hi = domain
    rng = np.random.default_rng(seed)
    x = rng.uniform(lo, hi, size=pairs)
    scales = 10.0 ** rng.uniform(-9, 0, size=pairs)
    y = np.clip(x + scales * (hi - lo) * rng.choice([-1.0, 1.0], size=pairs), lo, hi)
    keep = np.abs(x - y) > 0
    x, y = x[keep], y[keep]
    gaps = np.abs(np.asarray(potential(x)) - np.asarray(potential(y)))
    denom = np.abs(x - y) ** alpha
    max_ratio = float(np.max(gaps / denom)) if x.size else 0.0
    holds = max_ratio <= constant * (1.0 + 1e-9) + 1e-12
    if strict and not holds:
        raise AuditError(
            f"Holder bound violated: ratio {max_ratio} exceeds constant {constant}"
        )
    return HolderAudit(alpha, constant, max_ratio, holds)
