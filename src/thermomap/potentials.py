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

import numpy as np

from .errors import DomainError
from .maps import IntervalMap, birkhoff_sum


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
    potentials differ by u o f^n - u, bounded by (N - 1)(sup phi - inf phi)/2
    for every n.
    """

    imap: IntervalMap
    base: Potential
    window: int

    def __post_init__(self) -> None:
        if self.window < 1:
            raise DomainError("averaging window must be at least 1")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return birkhoff_sum(self.imap, self.base, x, self.window) / self.window

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
    potential: Potential, domain: tuple[float, float]
) -> tuple[float, float]:
    """Numerical (inf, sup) over a 4096-node grid plus declared candidates."""
    lo, hi = domain
    xs = np.linspace(lo, hi, 4096)
    cand = potential.extremum_candidates()
    if cand.size:
        cand = cand[(cand >= lo) & (cand <= hi)]
        xs = np.concatenate([xs, cand])
    vals = np.asarray(potential(xs), dtype=float)
    return float(vals.min()), float(vals.max())
