"""Shared generators and brute-force oracles for the test suite."""

import numpy as np

from thermomap.conformal import AtomicMeasure
from thermomap.keller import SampledFunction

# acceptance-criterion results, keyed by criterion number; each entry is a
# list of (ok, detail) clause records merged into one line per criterion
_ACCEPTANCE: dict = {}


def record_acceptance(criterion: int, ok: bool, detail: str) -> None:
    """Log one clause of an acceptance criterion for the summary table."""
    _ACCEPTANCE.setdefault(criterion, []).append((bool(ok), detail))
    word = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {word} - {detail}")


def acceptance_lines():
    lines = []
    for criterion in sorted(_ACCEPTANCE):
        clauses = _ACCEPTANCE[criterion]
        ok = all(c[0] for c in clauses)
        detail = "; ".join(c[1] for c in clauses)
        word = "PASS" if ok else "FAIL"
        lines.append(f"criterion {criterion:2d}: {word} - {detail}")
    return lines


def tent_bernoulli_atoms(p, depth):
    """Exact depth-k cylinder measure for the tent map with branch weights.

    Atoms sit at dyadic cylinder midpoints; each mass is the product of the
    branch weights along the cylinder's tent itinerary, so every depth-k
    cylinder carries its exact Bernoulli mass.
    """
    mids = (2.0 * np.arange(2**depth) + 1.0) / 2.0 ** (depth + 1)
    mass = np.ones(mids.size)
    x = mids.copy()
    for _ in range(depth):
        mass *= np.where(x <= 0.5, p, 1.0 - p)
        x = np.where(x <= 0.5, 2.0 * x, 2.0 - 2.0 * x)
    return AtomicMeasure(
        points=mids, masses=mass / mass.sum(), domain=(0.0, 1.0)
    )


def draw_piecewise_holder(rng, alpha, positions):
    """Random steps plus random |x - c|^alpha bumps plus a linear tilt."""
    v = np.zeros(positions.size)
    for _ in range(rng.integers(0, 4)):
        v += rng.uniform(-1, 1) * (positions >= rng.uniform(0.05, 0.95))
    for _ in range(rng.integers(1, 4)):
        c = rng.uniform(0, 1)
        v += rng.uniform(-1, 1) * np.abs(positions - c) ** alpha
    v += rng.uniform(-0.5, 0.5) * positions
    return SampledFunction(positions, v)


def osc(h, m, eps, x):
    """Oscillation of h over the single ball {q : m([x, q]) < eps}, by a scan
    of every sample; the oracle for keller.osc_profile."""
    dists = np.array([m.mass_interval(x, q) for q in h.positions])
    inside = h.values[dists < eps]
    if inside.size == 0:
        return 0.0
    return float(inside.max() - inside.min())


def brute_p_variation(values, p):
    """Exhaustive maximum over all increasing index subsets (k <= ~14)."""
    values = np.asarray(values, dtype=float)
    k = values.size
    best = 0.0
    for mask in range(1, 1 << k):
        idx = [i for i in range(k) if mask >> i & 1]
        if len(idx) < 2:
            continue
        sel = values[idx]
        best = max(best, float(np.sum(np.abs(np.diff(sel)) ** p)))
    return best ** (1.0 / p)
