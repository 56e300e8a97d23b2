"""Piecewise-monotone interval maps and preimage-tree expansion.

A map is a finite ordered list of monotone branches over contiguous
subintervals of its domain. Branches are linear or one of the two monotone
halves of the degree-4 logistic family, which keeps inverse branches
closed-form and numerically stable. The preimage walk enumerates f^{-n}(x0)
level by level, each level ascending, together with backward Birkhoff sums
of a potential, holding at most one level and its parent's sums, under an
explicit node budget that fails loudly instead of thrashing memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import BudgetError, DomainError

TOL_CONTINUITY = 1e-9
TOL_COVER = 1e-12
TOL_DEDUP = 1e-12
# cumulative nodes of one preimage walk; a streaming tree_pressure peaks near
# 20 B per node of its deepest level (scripts/walk_peak.py at depth 20: 2.50
# float64 arrays of that size on the doubling map with a cosine potential,
# 2.62 on the golden tent, 2.50 on logistic4 with a cosine potential), so a
# doubling-map walk stopped here (8.4M deepest nodes) needs about 0.17 GB
DEFAULT_NODE_BUDGET = 20_000_000
POTENTIAL_CHUNK = 16384  # level points per potential call in the preimage walk

_GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class Branch:
    """One monotone branch of a piecewise map.

    ``kind`` is ``"linear"`` (uses ``slope`` and ``intercept``) or one of
    ``"logistic_left"`` / ``"logistic_right"`` for the two monotone halves
    of x -> 4x(1-x). The branch domain is the closed interval [lo, hi].
    """

    lo: float
    hi: float
    kind: str = "linear"
    slope: float = 0.0
    intercept: float = 0.0

    def __post_init__(self) -> None:
        if not self.hi > self.lo:
            raise DomainError(f"branch domain [{self.lo}, {self.hi}] is degenerate")
        if self.kind == "linear":
            if self.slope == 0.0:
                raise DomainError("linear branch must have nonzero slope")
        elif self.kind == "logistic_left":
            if self.lo < -TOL_CONTINUITY or self.hi > 0.5 + TOL_CONTINUITY:
                raise DomainError("logistic_left branch domain must lie in [0, 0.5]")
        elif self.kind == "logistic_right":
            if self.lo < 0.5 - TOL_CONTINUITY or self.hi > 1.0 + TOL_CONTINUITY:
                raise DomainError("logistic_right branch domain must lie in [0.5, 1]")
        else:
            raise DomainError(f"unknown branch kind {self.kind!r}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "linear":
            return self.slope * x + self.intercept
        return 4.0 * x * (1.0 - x)

    def image(self) -> tuple[float, float]:
        a = float(self.forward(np.asarray(self.lo)))
        b = float(self.forward(np.asarray(self.hi)))
        return (a, b) if a <= b else (b, a)

    def covers(self, y: np.ndarray) -> np.ndarray:
        """Mask of values lying in this branch's image (within TOL_COVER)."""
        lo, hi = self.image()
        y = np.asarray(y, dtype=float)
        return (y >= lo - TOL_COVER) & (y <= hi + TOL_COVER)

    @property
    def increasing(self) -> bool:
        """Orientation: whether forward(lo) <= forward(hi)."""
        return bool(self.forward(np.asarray(self.lo)) <= self.forward(np.asarray(self.hi)))

    def inverse(self, y: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Preimage under this branch; callers must mask with covers first.

        Written into ``out`` (an array of y's shape, possibly a strided
        view) when given, with no temporary of y's size. Logistic inverses
        use the rationalized forms that stay accurate near the critical
        value where 1 - y underflows:
        left  branch: x = y / (2 (1 + sqrt(1 - y)))
        right branch: x = (1 + sqrt(1 - y)) / 2
        """
        y = np.asarray(y, dtype=float)
        if out is None:
            out = np.empty(y.shape)
        if self.kind == "linear":
            np.subtract(y, self.intercept, out=out)
            np.divide(out, self.slope, out=out)
        else:
            np.subtract(1.0, y, out=out)
            np.clip(out, 0.0, None, out=out)
            np.sqrt(out, out=out)
            np.add(1.0, out, out=out)
            if self.kind == "logistic_left":
                np.multiply(2.0, out, out=out)
                np.divide(y, out, out=out)
                np.clip(out, 0.0, None, out=out)
            else:
                np.divide(out, 2.0, out=out)
        return np.clip(out, self.lo, self.hi, out=out)

    def derivative_range(self) -> tuple[float, float]:
        """Range of |f'| over the branch domain."""
        if self.kind == "linear":
            s = abs(self.slope)
            return (s, s)
        # |f'(x)| = |4 - 8x| is monotone on either side of 1/2
        a = abs(4.0 - 8.0 * self.lo)
        b = abs(4.0 - 8.0 * self.hi)
        return (min(a, b), max(a, b))


@dataclass(frozen=True)
class IntervalMap:
    """A piecewise-monotone self-map of a closed interval."""

    branches: tuple[Branch, ...]
    name: str = "map"

    def __post_init__(self) -> None:
        if not self.branches:
            raise DomainError("map needs at least one branch")
        for left, right in zip(self.branches, self.branches[1:]):
            if abs(left.hi - right.lo) > TOL_DEDUP:
                raise DomainError(
                    f"branch domains not contiguous at {left.hi} vs {right.lo}"
                )
        lo, hi = self.domain
        for br in self.branches:
            ilo, ihi = br.image()
            if ilo < lo - TOL_CONTINUITY or ihi > hi + TOL_CONTINUITY:
                raise DomainError(
                    f"branch image [{ilo}, {ihi}] escapes domain [{lo}, {hi}]"
                )

    @property
    def domain(self) -> tuple[float, float]:
        return (self.branches[0].lo, self.branches[-1].hi)

    @property
    def breakpoints(self) -> np.ndarray:
        return np.array([br.lo for br in self.branches] + [self.branches[-1].hi])

    @property
    def interior_breakpoints(self) -> np.ndarray:
        return self.breakpoints[1:-1]

    def branch_index(self, x: np.ndarray) -> np.ndarray:
        """Branch owning each point; breakpoints resolve to the left branch."""
        x = np.asarray(x, dtype=float)
        return np.searchsorted(self.interior_breakpoints, x, side="left")

    def eval(self, x: np.ndarray) -> np.ndarray:
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        lo, hi = self.domain
        if np.any(x_arr < lo - TOL_CONTINUITY) or np.any(x_arr > hi + TOL_CONTINUITY):
            raise DomainError("point outside map domain")
        x_arr = np.clip(x_arr, lo, hi)
        out = np.empty_like(x_arr)
        idx = self.branch_index(x_arr)
        for b, br in enumerate(self.branches):
            mask = idx == b
            if mask.any():
                out[mask] = br.forward(x_arr[mask])
        np.clip(out, lo, hi, out=out)
        return out if np.ndim(x) else float(out[0])

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.eval(x)

    def expansion_range(self) -> tuple[float, float]:
        """Min and max of |f'| over all branch domains."""
        lows, highs = zip(*(br.derivative_range() for br in self.branches))
        return (min(lows), max(highs))


# ---------------------------------------------------------------------------
# standard constructions


def full_linear_map(k: int) -> IntervalMap:
    """Sawtooth with k full branches of slope +-k on [0, 1]."""
    if k < 2:
        raise DomainError("need at least two branches")
    branches = []
    for i in range(k):
        lo, hi = i / k, (i + 1) / k
        if i % 2 == 0:
            branches.append(Branch(lo, hi, "linear", float(k), float(-i)))
        else:
            branches.append(Branch(lo, hi, "linear", float(-k), float(i + 1)))
    return IntervalMap(tuple(branches), name=f"sawtooth{k}")


def pw_linear_map(
    breakpoints: Sequence[float],
    slopes: Sequence[float],
    intercepts: Sequence[float],
    name: str = "pw_linear",
) -> IntervalMap:
    if len(breakpoints) != len(slopes) + 1 or len(slopes) != len(intercepts):
        raise DomainError("breakpoints must outnumber slopes by exactly one")
    branches = tuple(
        Branch(float(a), float(b), "linear", float(s), float(c))
        for a, b, s, c in zip(breakpoints, breakpoints[1:], slopes, intercepts)
    )
    return IntervalMap(branches, name=name)


def logistic4_map() -> IntervalMap:
    return IntervalMap(
        (
            Branch(0.0, 0.5, "logistic_left"),
            Branch(0.5, 1.0, "logistic_right"),
        ),
        name="logistic4",
    )


def golden_tent_map() -> IntervalMap:
    """Tent of slope +-golden ratio, rescaled so the core is exactly [0, 1].

    The kink sits at 2 - beta = 1 / beta**2. The left branch maps [0, 2-beta]
    onto [2-beta, 1] and the right branch maps [2-beta, 1] onto [0, 1], so the
    two cells form a Markov partition with transition matrix [[0, 1], [1, 1]].
    """
    beta = _GOLDEN
    kink = 2.0 - beta
    return IntervalMap(
        (
            Branch(0.0, kink, "linear", beta, kink),
            Branch(kink, 1.0, "linear", -beta, beta),
        ),
        name="golden_tent",
    )


# ---------------------------------------------------------------------------
# diagnostics


def is_topologically_exact(imap: IntervalMap) -> bool:
    """Exactness flag: all branches full, or a primitive Markov witness."""
    lo, hi = imap.domain
    if all(
        ilo <= lo + TOL_CONTINUITY and ihi >= hi - TOL_CONTINUITY
        for ilo, ihi in (br.image() for br in imap.branches)
    ):
        return True
    report = markov_witness(imap)
    return report.is_markov and report.primitive and report.min_expansion > 1.0


# ---------------------------------------------------------------------------
# Markov structure witness


@dataclass(frozen=True)
class MarkovReport:
    """Checkable witness that the branch partition is Markov."""

    is_markov: bool
    partition: np.ndarray
    transition: np.ndarray
    primitive: bool
    min_expansion: float
    endpoint_defect: float


def markov_witness(imap: IntervalMap, tol: float = TOL_CONTINUITY) -> MarkovReport:
    """Test whether branch images align with the branch partition itself.

    Every branch endpoint must map onto a partition point (within tol);
    monotonicity then forces each branch image to be a union of contiguous
    cells, read off into a 0/1 transition matrix. Primitivity is checked by
    boolean matrix powers up to the Wielandt bound (k-1)**2 + 1.
    """
    pts = imap.breakpoints
    k = len(imap.branches)
    defect = 0.0
    transition = np.zeros((k, k), dtype=int)
    for i, br in enumerate(imap.branches):
        ilo, ihi = br.image()
        for v in (ilo, ihi):
            defect = max(defect, float(np.min(np.abs(pts - v))))
        for j in range(k):
            if pts[j] >= ilo - tol and pts[j + 1] <= ihi + tol:
                transition[i, j] = 1
    is_markov = defect <= tol
    primitive = False
    power = np.eye(k, dtype=bool)
    mat = transition.astype(bool)
    for _ in range((k - 1) ** 2 + 1):
        power = power @ mat
        if power.all():
            primitive = True
            break
    return MarkovReport(
        is_markov=is_markov,
        partition=pts,
        transition=transition,
        primitive=primitive and is_markov,
        min_expansion=imap.expansion_range()[0],
        endpoint_defect=defect,
    )


# ---------------------------------------------------------------------------
# preimage trees with backward Birkhoff sums


@dataclass(frozen=True)
class PreimageLevel:
    """One level of a preimage tree.

    ``points[i]`` satisfies f^depth(points[i]) = x0 and ``birkhoff[..., i]``
    is the forward Birkhoff sum of the potential along its orbit down to x0
    (zeros without one), of shape (size,), or (k, size) for a potential with
    k rows. Points are ascending.
    """

    depth: int
    points: np.ndarray
    birkhoff: np.ndarray


def iter_preimage_levels(
    imap: IntervalMap,
    potential: Optional[Callable[[np.ndarray], np.ndarray]],
    x0: float,
    n_max: int,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Iterator[PreimageLevel]:
    """Yield preimage levels 0..n_max, raising BudgetError when too large.

    Every level is ascending, so the parents one branch covers form one
    slice, found by two searchsorted calls, and the branch writes their
    inverses into its own block of the next level, through a reversed view
    when it decreases; the Birkhoff sums are copied the same way. Blocks
    follow the branch order, so the level ascends. Preimages by adjacent
    branches of one parent that coincide at their shared breakpoint (within
    1e-12) are merged, keeping the lower branch, so each geometric preimage
    appears once; only the entries of a block within 2e-12 of the previous
    branch's end, its head, can merge, so only those are tested. Merges
    drop only parents two adjacent slices share whose inverse lands in the
    head, so a level whose slice lengths less the count of those parents
    (two searchsorted calls on the head's image) exceed the budget raises
    before it is built. Branch domains that overlap by less than TOL_DEDUP
    can leave two blocks out of order, and such a level is sorted. A level
    is built in two passes: the points pass writes every block's points and
    settles its merges, and the exact count is checked; then the parent
    points are dropped, and the sums pass copies each block's parent sums
    less the merged ones. So the walk holds at most the parent's sums and
    the new level. The potential is added POTENTIAL_CHUNK points at
    a time, so it must act pointwise; one returning k rows, shape (k, n)
    for n points (learnt from a call on no points), gives k sums per point,
    each as its row alone.
    """
    lo, hi = imap.domain
    if not lo - TOL_CONTINUITY <= x0 <= hi + TOL_CONTINUITY:
        raise DomainError(f"base point {x0} outside domain [{lo}, {hi}]")
    branches = imap.branches
    images = [br.image() for br in branches]
    increasing = [br.increasing for br in branches]
    # the parents that can merge lie in the image of each block's head,
    # taken 1e-12 wider than the 2e-12 tested below and TOL_COVER wider in
    # y, so rounding in the inverse cannot put a merge outside it
    heads = []
    for left, br in zip(branches, branches[1:]):
        ends = br.forward(np.array([br.lo, min(left.hi + 3 * TOL_DEDUP, br.hi)]))
        heads.append((ends.min() - TOL_COVER, ends.max() + TOL_COVER))
    pts = np.array([float(np.clip(x0, lo, hi))])
    rows = () if potential is None else np.shape(potential(pts[:0]))[:-1]
    birk = np.zeros(rows + (1,))
    yield PreimageLevel(0, pts, birk)
    used = 1
    for depth in range(1, n_max + 1):
        spans = [
            (int(np.searchsorted(pts, ilo - TOL_COVER, side="left")),
             int(np.searchsorted(pts, ihi + TOL_COVER, side="right")))
            for ilo, ihi in images
        ]
        total = sum(stop - start for start, stop in spans)
        if total == 0:
            raise DomainError(f"no preimages at depth {depth}; map is not onto")
        merges = sum(
            max(0, min(a[1], b[1], int(np.searchsorted(pts, yhi, side="right")))
                - max(a[0], b[0], int(np.searchsorted(pts, ylo, side="left"))))
            for a, b, (ylo, yhi) in zip(spans, spans[1:], heads)
        )
        if used + total - merges > budget:
            raise BudgetError(depth - 1, n_max, budget)
        # points pass: each block's offset, parent slice, direction and
        # merged entries are kept for the sums pass
        new_pts = np.empty(total)
        blocks = []
        size = 0
        unsorted = False
        dropped = np.empty(0, dtype=np.intp)  # parents merged out of the last block
        for b, (br, (start, stop)) in enumerate(zip(branches, spans)):
            n = stop - start
            block = new_pts[size:size + n]
            step = 1 if increasing[b] else -1
            br.inverse(pts[start:stop], out=block[::step])
            # only the block's head, within 2e-12 of the previous branch's
            # end, can hold preimages that merge with that branch's
            m = 0 if b == 0 else int(np.searchsorted(
                block, branches[b - 1].hi + 2 * TOL_DEDUP, side="right"))
            parent = start + np.arange(m) if step == 1 else stop - 1 - np.arange(m)
            left_start, left_stop = spans[b - 1]
            shared = (parent >= left_start) & (parent < left_stop)
            shared &= ~np.isin(parent, dropped)
            left = branches[b - 1].inverse(pts[parent])
            dup = shared & (np.abs(block[:m] - left) <= TOL_DEDUP)
            dropped = parent[dup]
            merged = np.flatnonzero(dup)
            if merged.size:
                n -= merged.size
                block[:n] = np.delete(block, merged)
            if n and size:
                unsorted |= bool(new_pts[size - 1] > new_pts[size])
            blocks.append((size, n, start, stop, step, merged))
            size += n
        if used + size > budget:
            raise BudgetError(depth - 1, n_max, budget)
        used += size
        pts = new_pts[:size]  # the parent points die here
        if unsorted:
            order = np.argsort(pts, kind="stable")
            pts = pts[order]
        # sums pass: each block copies its parents' sums, less the merged ones
        new_birk = np.empty(rows + (size,))
        for at, n, start, stop, step, merged in blocks:
            sums = birk[..., start:stop][..., ::step]
            if merged.size:
                sums = np.delete(sums, merged, axis=-1)
            new_birk[..., at:at + n] = sums
        del sums  # the last view of the parent sums
        birk = new_birk[..., order] if unsorted else new_birk
        if potential is not None:
            for at in range(0, size, POTENTIAL_CHUNK):
                part = slice(at, at + POTENTIAL_CHUNK)
                birk[..., part] += np.asarray(potential(pts[part]), dtype=float)
        yield PreimageLevel(depth, pts, birk)


def forward_orbit(
    imap: IntervalMap,
    x: np.ndarray,
    n: int,
    potential: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> Iterator[tuple[np.ndarray, Optional[np.ndarray]]]:
    """Yield (f^j x, S_{j+1} phi(x)) for j = 0 .. n-1; sums are None without phi.

    The one forward-orbit kernel: f is applied only when the next iterate is
    requested, so n iterates cost n - 1 evaluations, and only the current
    iterate and running sum are kept. Points are 1-d arrays even for a
    scalar x; the sum accumulates phi(f^j x) in j order from zeros.
    """
    cur = np.atleast_1d(np.asarray(x, dtype=float))
    total = None if potential is None else np.zeros_like(cur)
    for j in range(n):
        if j:
            cur = imap.eval(cur)
        if potential is not None:
            total = total + np.asarray(potential(cur), dtype=float)
        yield cur, total


def birkhoff_sum(
    imap: IntervalMap,
    potential: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    n: int,
) -> np.ndarray:
    """Forward Birkhoff sum phi(x) + phi(f x) + ... + phi(f^(n-1) x)."""
    total = np.zeros(np.shape(np.atleast_1d(x)))
    for _, total in forward_orbit(imap, x, n, potential):
        pass
    return total if np.ndim(x) else float(total[0])
