"""Shared generators and brute-force oracles for the test suite."""

import bisect
import itertools
import tracemalloc
from dataclasses import dataclass

import numpy as np

from thermomap.conformal import AtomicMeasure
from thermomap.errors import AuditError, BudgetError, DomainError
from thermomap.keller import SampledFunction
from thermomap.maps import (
    TOL_CONTINUITY,
    TOL_DEDUP,
    PreimageLevel,
    forward_orbit,
    full_linear_map,
    iter_preimage_levels,
)
from thermomap.potentials import potential_range
from thermomap.pressure import LevelSums, _level_lse, pressure_report

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


def tent_map():
    """The tent map, slope +-2 on [0, 1]: the sawtooth with two branches."""
    return full_linear_map(2)


def traced_peak(run):
    """Run ``run()`` and return (peak traced bytes above what was live
    before it, its result). Starts tracemalloc unless it is already
    tracing, and then stops it again."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        if not tracing:
            tracemalloc.stop()


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


def reference_normalized(points, masses, domain=None):
    """Sort by a stable argsort, merge exact duplicates with a cumulative
    group index and np.add.at on every input, and divide by the total.
    The oracle for AtomicMeasure.normalized, which merges only when a tie
    is present and divides its own sorted copy in place."""
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
    return AtomicMeasure(points, masses / total, domain)


def chebyshev_transfer(imap, potential, n):
    """Dense Chebyshev collocation of the transfer operator: a spectral oracle.

    L f(x) = sum over the branches b whose image covers x of
    exp(potential(g_b x)) f(g_b x), with g_b the inverse of branch b and no
    weight when ``potential`` is None. The cells are cut at the map's
    breakpoints; each holds n first-kind Chebyshev nodes, and f(g_b x) is
    read from the interpolant on the cell holding g_b x by the barycentric
    formula. Returns the nodes, cell by cell, and the (cells n)-square
    matrix acting on the values there.

    Its range: the breakpoints must form a Markov partition, so each branch
    image is a union of cells and g_b maps each cell it covers into one cell,
    and every inverse branch and the potential must be analytic on each
    cell. There the eigenvalues converge geometrically in n. A non-Markov
    map, or a potential with a kink or jump inside a cell, is outside it.
    """
    edges = imap.breakpoints
    j = np.arange(n)
    theta = (2 * j + 1) * np.pi / (2 * n)
    bary = (-1.0) ** j * np.sin(theta)  # barycentric weights of these nodes
    mid, half = (edges[1:] + edges[:-1]) / 2, np.diff(edges) / 2
    cells = mid[:, None] + half[:, None] * np.cos(theta)
    nodes = cells.ravel()
    mat = np.zeros((nodes.size, nodes.size))
    for br in imap.branches:
        rows = np.flatnonzero(br.covers(nodes))
        y = br.inverse(nodes[rows])
        weight = np.ones(y.size) if potential is None else np.exp(potential(y))
        cell = np.searchsorted(edges[1:-1], y)
        diff = y[:, None] - cells[cell]
        hit = diff == 0  # y on a node reads that node's value
        coef = np.where(hit.any(axis=1, keepdims=True), hit,
                        bary / np.where(hit, 1.0, diff))
        coef *= (weight / coef.sum(axis=1))[:, None]
        mat[rows[:, None], cell[:, None] * n + j] += coef
    return nodes, mat


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


def reference_preimage_levels(imap, potential, x0, n_max, budget,
                              deepest_points=True):
    """The preimage walk that gathers every level through parent indices:
    candidates of all branches in one table, merged at shared breakpoints,
    then selected with flatnonzero, so its levels come in branch-word order.
    Each level is yielded reordered by a stable argsort on its points, and
    without deepest_points level n_max yields a read-only all-nan points of
    its size. The oracle for maps.iter_preimage_levels, whose points and
    Birkhoff sums must be bit-equal to these."""
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
        order = np.argsort(pts, kind="stable")
        pts, birk = pts[order], birk[order]
        if depth == n_max and not deepest_points:
            pts = np.broadcast_to(np.nan, pts.shape)
        yield PreimageLevel(depth, pts, birk)


def lockstep_curve_reports(imap, phi, chi, ts, x0, n_max, budget):
    """Pressure report of phi + t chi for every t from two walks in
    lockstep, one for phi (zero sums when None) and one for chi, each level
    reduced to the log-sum-exp of S_n phi + t S_n chi. The oracle for
    pressure.pressure_curve, whose estimates and fluctuations must be
    bit-equal to these reports'."""
    a_values = np.empty((len(ts), n_max))
    counts = []
    for phi_level, chi_level in zip(
        iter_preimage_levels(imap, phi, x0, n_max, budget),
        iter_preimage_levels(imap, chi, x0, n_max, budget),
    ):
        if phi_level.depth:
            for i, t in enumerate(ts):
                a_values[i, phi_level.depth - 1] = _level_lse(
                    phi_level.birkhoff + t * chi_level.birkhoff
                )
            counts.append(phi_level.points.size)
    counts = np.asarray(counts, dtype=np.int64)
    return [
        pressure_report(LevelSums(imap.domain, a, counts), n_max)
        for a in a_values
    ]


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
    k^n words; the oracle for the points of maps.iter_preimage_levels, which
    come in ascending order instead of word order."""
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


def greedy_separated(xs, orbit, order, epsilon):
    """One-candidate-at-a-time greedy packing: visit the grid points in
    ``order`` and admit each whose orbit column is at least epsilon from
    every admitted one under the iterated sup metric, checking only the
    admitted points inside the closed window [x - epsilon, x + epsilon].
    Returns the admitted grid indices in position order. The oracle for
    the blocked admission of pressure.separated_pressure."""
    adm_pos: list[float] = []
    adm_idx: list[int] = []
    for idx in order:
        x = xs[idx]
        left = bisect.bisect_left(adm_pos, x - epsilon)
        right = bisect.bisect_right(adm_pos, x + epsilon)
        ok = True
        if right > left:
            neigh = np.asarray(adm_idx[left:right])
            dist = np.abs(orbit[:, neigh] - orbit[:, idx : idx + 1]).max(axis=0)
            ok = bool(np.all(dist >= epsilon))
        if ok:
            ins = bisect.bisect_left(adm_pos, x)
            adm_pos.insert(ins, x)
            adm_idx.insert(ins, int(idx))
    return np.asarray(adm_idx)


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


def transfer_term(avg, x):
    """The function u with avg = base + u o f - u for an AveragedPotential
    avg of window N: u(x) = (1/N) sum_j (N-1-j) base(f^j x)."""
    acc = 0.0
    for j, (cur, _) in enumerate(forward_orbit(avg.imap, x, avg.window)):
        acc = acc + (avg.window - 1 - j) * np.asarray(avg.base(cur), dtype=float)
    acc = acc / avg.window
    return acc if np.ndim(x) else float(acc[0])


def coboundary_sup_bound(avg):
    """Uniform bound on |S_n(avg) - S_n(base)|, valid for every n.

    Shifting the base potential by a constant shifts u by a constant,
    which cancels in u o f^n - u, so the bound uses the oscillation:
    (N - 1) (sup base - inf base) / 2.
    """
    lo, hi = potential_range(avg.base, avg.imap.domain)
    return (avg.window - 1) * (hi - lo) / 2.0


@dataclass(frozen=True)
class HolderAudit:
    alpha: float
    constant: float
    max_ratio: float
    holds: bool


def audit_holder(potential, domain, pairs=4096, seed=0, strict=False):
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
