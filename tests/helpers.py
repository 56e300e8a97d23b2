"""Shared generators and brute-force oracles for the test suite."""

import itertools

import numpy as np

from thermomap.conformal import AtomicMeasure
from thermomap.errors import BudgetError, DomainError
from thermomap.keller import SampledFunction
from thermomap.maps import TOL_CONTINUITY, TOL_DEDUP, PreimageLevel
from thermomap.transfer import (
    CORRELATION_FLOOR,
    CorrelationReport,
)

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


def orbit(imap, x, n):
    """Forward orbit [x, f(x), ..., f^n(x)] of a scalar, one evaluation per
    step; the oracle for maps.forward_orbit."""
    pts = [float(x)]
    for _ in range(n):
        pts.append(imap.eval(pts[-1]))
    return np.array(pts)


def reference_preimage_levels(imap, potential, x0, n_max, budget):
    """The preimage walk that gathers every level through parent indices:
    candidates of all branches in one table, merged at shared breakpoints,
    then selected with flatnonzero. The oracle for maps.iter_preimage_levels,
    whose points and Birkhoff sums must be bit-equal to these."""
    lo, hi = imap.domain
    if not lo - TOL_CONTINUITY <= x0 <= hi + TOL_CONTINUITY:
        raise DomainError(f"base point {x0} outside domain [{lo}, {hi}]")
    k = len(imap.branches)
    pts = np.array([float(np.clip(x0, lo, hi))])
    birk = np.zeros(1)
    yield PreimageLevel(0, pts, birk)
    used = 1
    for depth in range(1, n_max + 1):
        p = pts.size
        cand = np.full((p, k), np.nan)
        valid = np.zeros((p, k), dtype=bool)
        for b, br in enumerate(imap.branches):
            mask = br.covers(pts)
            if mask.any():
                cand[mask, b] = br.inverse(pts[mask])
                valid[:, b] = mask
        for b in range(1, k):
            dup = (
                valid[:, b - 1]
                & valid[:, b]
                & (np.abs(cand[:, b] - cand[:, b - 1]) <= TOL_DEDUP)
            )
            valid[dup, b] = False
        idx = np.flatnonzero(valid.ravel())
        if idx.size == 0:
            raise DomainError(f"no preimages at depth {depth}; map is not onto")
        if used + idx.size > budget:
            raise BudgetError(depth - 1, n_max, budget)
        used += idx.size
        parent = idx // k
        pts = cand.ravel()[idx]
        if potential is not None:
            birk = np.asarray(potential(pts), dtype=float) + birk[parent]
        else:
            birk = birk[parent]
        yield PreimageLevel(depth, pts, birk)


def branch_preimage(imap, b, y):
    """The solution of f(x) = y on branch b, or None when branch b misses y
    or its solution coincides (within 1e-12) with branch b - 1's at their
    shared breakpoint, where the lower branch keeps it."""
    br = imap.branches[b]
    if not br.covers(np.asarray(y)):
        return None
    x = float(br.inverse(np.asarray(y)))
    if b > 0:
        left = branch_preimage(imap, b - 1, y)
        if left is not None and abs(x - left) <= TOL_DEDUP:
            return None
    return x


def preimage_words(imap, x0, n):
    """Every branch word (b_1 .. b_n) whose inverse branches compose from
    x0, in lexicographic order, with the preimage of x0 it reaches: b_t is
    the branch of the ancestor t inverse steps from x0. Brute force over all
    k^n words; the oracle for the point order of maps.iter_preimage_levels."""
    words, points = [], []
    for word in itertools.product(range(len(imap.branches)), repeat=n):
        x = float(x0)
        for b in word:
            x = branch_preimage(imap, b, x)
            if x is None:
                break
        else:
            words.append(word)
            points.append(x)
    return np.array(words, dtype=np.int64).reshape(len(words), n), np.array(points)


def pair_correlation(imap, phi_obs, psi, nu, n_max):
    """One observable pair, one pushforward of full-length arrays per pair:
    each lag evaluates phi on every atom at once and sums w phi psi. The
    oracle for transfer.correlation, which shares one chunked pushforward
    among all pairs."""
    pts = nu.points
    w = nu.masses
    psi_vals = np.asarray(psi(pts), dtype=float)
    phi_mean = float(np.sum(w * np.asarray(phi_obs(pts), dtype=float)))
    psi_mean = float(np.sum(w * psi_vals))
    cs = np.empty(n_max)
    cur = pts
    for n in range(1, n_max + 1):
        cur = imap.eval(cur)
        phi_n = np.asarray(phi_obs(cur), dtype=float)
        cs[n - 1] = abs(float(np.sum(w * phi_n * psi_vals)) - phi_mean * psi_mean)
    ns = np.arange(1, n_max + 1)
    valid = cs > CORRELATION_FLOOR
    if valid.sum() < 2:
        return CorrelationReport(
            ns=ns, c_values=cs, rho=None, prefactor=None,
            r_squared=None, below_resolution=True,
        )
    slope, intercept = np.polyfit(ns[valid], np.log(cs[valid]), 1)
    fitted = slope * ns[valid] + intercept
    log_c = np.log(cs[valid])
    ss_tot = float(np.sum((log_c - log_c.mean()) ** 2))
    r2 = 1.0 - float(np.sum((log_c - fitted) ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return CorrelationReport(
        ns=ns,
        c_values=cs,
        rho=float(np.exp(slope)),
        prefactor=float(np.exp(intercept)),
        r_squared=r2,
        below_resolution=False,
    )


def verify_separated(orbit, positions, indices, epsilon):
    """Scalar pairwise check of admitted orbits: every pair closer than
    epsilon in space must be at least epsilon apart under the iterated sup
    metric. The oracle for pressure._verify_separated."""
    for i in range(positions.size):
        j = i + 1
        while j < positions.size and positions[j] - positions[i] < epsilon:
            d = float(np.max(np.abs(orbit[:, indices[i]] - orbit[:, indices[j]])))
            if d < epsilon:
                return False
            j += 1
    return True


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


def dp_p_variation(values, p):
    """Dynamic program over every sample: best[i] is the largest sum of p-th
    powers among increasing subsets ending at sample i, O(k^2). The oracle
    for keller.p_variation, which runs the same program on the extrema."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return 0.0
    best = np.zeros(v.size)
    for i in range(1, v.size):
        best[i] = np.max(best[:i] + np.abs(v[i] - v[:i]) ** p)
    return float(np.max(best) ** (1.0 / p))


def loop_holder_seminorm(positions, values, alpha):
    """max |v_i - v_j| / |x_i - x_j|^alpha over every pair, one pass per
    left index i. The oracle for keller.holder_seminorm."""
    x, v = np.asarray(positions, dtype=float), np.asarray(values, dtype=float)
    best = 0.0
    for i in range(x.size - 1):
        gaps = (x[i + 1 :] - x[i]) ** alpha
        best = max(best, float(np.max(np.abs(v[i + 1 :] - v[i]) / gaps)))
    return best
