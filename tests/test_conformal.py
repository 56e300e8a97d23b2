"""Tests for the conformal measure construction.

Oracle notes. For a full-branch map with branch-constant weights the level
sums factorize, a_n = n * log(sum_b exp(v_b)) exactly, so the transition
parameter and all slice masses have closed forms. For the golden tent the level counts are
Fibonacci numbers, whose logarithms are affine in n up to an exponentially
small correction, pinning the fitted slope.
"""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from helpers import reference_normalized
from thermomap.conformal import (
    BINS,
    AtomicMeasure,
    atom_audit,
    conformality_audit,
    transition_parameter,
    uniform_atoms,
    weak_limit,
    window_start,
)
from thermomap.errors import DomainError
from thermomap.maps import full_linear_map, golden_tent_map, tent_map
from thermomap.potentials import BranchConstantPotential, CosineSeriesPotential
from thermomap.pressure import level_sums
from thermomap.transfer import GridFunction

LOG2 = np.log(2.0)
C_BERN = np.log(1.0 + np.exp(-1.0))
P0 = 1.0 / (1.0 + np.exp(-1.0))


def bernoulli_potential():
    return BranchConstantPotential(np.array([0.0, 0.5, 1.0]), np.array([0.0, -1.0]))


def point_mass(x):
    return AtomicMeasure(np.array([x]), np.array([1.0]), (0.0, 1.0))


def window_sums(imap, potential, n_max, x0=0.3):
    """Level sums retaining exactly the levels weak_limit mixes."""
    return level_sums(imap, potential, x0, n_max, retain_from=window_start(n_max))


class TestAtomicMeasure:
    def test_duplicate_merge_and_sorting(self):
        mu = AtomicMeasure.normalized(
            np.array([0.7, 0.2, 0.7, 0.4]), np.array([1.0, 2.0, 3.0, 2.0])
        )
        assert mu.size == 3
        np.testing.assert_allclose(mu.points, [0.2, 0.4, 0.7])
        np.testing.assert_allclose(mu.masses, [0.25, 0.25, 0.5])

    def test_mass_interval_closed_endpoints(self):
        mu = AtomicMeasure.normalized(
            np.array([0.0, 0.25, 0.5, 0.75, 1.0]), np.ones(5)
        )
        # closed interval includes atoms sitting exactly on both endpoints
        assert mu.mass_interval(0.25, 0.75) == pytest.approx(0.6)
        assert mu.mass_interval(0.25, 0.25) == pytest.approx(0.2)
        assert mu.mass_interval(0.26, 0.74) == pytest.approx(0.2)
        assert mu.mass_interval(0.8, 0.9) == 0.0
        # argument order does not matter
        assert mu.mass_interval(0.75, 0.25) == pytest.approx(0.6)

    def test_replaced_masses_get_their_own_interval_sums(self):
        # the cumulative masses are built on the first interval query; a
        # measure copied with new masses must not inherit the old ones
        mu = uniform_atoms(4)
        assert mu.mass_interval(0.0, 0.3) == 0.25
        nu = replace(mu, masses=np.array([0.7, 0.1, 0.1, 0.1]))
        assert nu.mass_interval(0.0, 0.3) == 0.7
        assert mu.mass_interval(0.0, 0.3) == 0.25

    def test_bin_masses_partition_unity(self):
        mu = uniform_atoms(1000)
        for bins in (1, 7, 64):
            bm = mu.bin_masses(bins)
            assert bm.shape == (bins,)
            assert bm.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(mu.bin_masses(10), np.full(10, 0.1), atol=1e-12)

    def test_integrate_matches_dot_product(self):
        mu = uniform_atoms(256)
        val = mu.integrate(lambda x: x**2)
        assert val == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            AtomicMeasure(np.array([0.5, 0.2]), np.array([0.5, 0.5]), (0.0, 1.0))
        with pytest.raises(DomainError):
            AtomicMeasure(np.array([0.2, 0.5]), np.array([0.7, 0.7]), (0.0, 1.0))
        with pytest.raises(DomainError):
            AtomicMeasure.normalized(np.array([0.2]), np.array([0.0]))

    @pytest.mark.parametrize(
        "points, masses",
        [
            ([np.nan], [1.0]),
            ([np.inf], [1.0]),
            ([0.2, np.nan], [0.5, 0.5]),
            ([-np.inf, 0.5], [0.5, 0.5]),
            ([0.5], [np.nan]),
            ([0.2, 0.5], [1.0, np.nan]),
        ],
        ids=["nan-point", "inf-point", "nan-last-point", "minus-inf-point",
             "nan-mass", "nan-second-mass"],
    )
    def test_rejects_non_finite_atoms(self, points, masses):
        # nan passes the order, sign and unit-sum comparisons, and an
        # infinite point passes all three too
        with pytest.raises(DomainError, match="finite"):
            AtomicMeasure(np.array(points), np.array(masses), (0.0, 1.0))

    def test_accepts_lists(self):
        mu = AtomicMeasure([0.2, 0.5], [0.5, 0.5], (0, 1))
        assert mu.points.dtype == mu.masses.dtype == np.float64
        assert mu.mass_interval(0.0, 0.3) == 0.5

    def test_dirac(self):
        mu = point_mass(0.5)
        assert mu.mass_interval(0.5, 0.5) == 1.0
        assert mu.bin_masses(8).max() == 1.0

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=30),
        st.floats(0, 1),
        st.floats(0, 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_mass_interval_matches_linear_scan(self, pts, a, b):
        pts = np.asarray(pts)
        mu = AtomicMeasure.normalized(pts, np.ones(pts.size), domain=(0.0, 1.0))
        lo, hi = min(a, b), max(a, b)
        brute = mu.masses[(mu.points >= lo) & (mu.points <= hi)].sum()
        assert mu.mass_interval(a, b) == pytest.approx(brute, abs=1e-12)


# a few values drawn often, so that ties within and across runs are common
TIE_POOL = (0.0, -0.0, 0.125, 1.0 / 3.0, 0.5, 1.0)
point_values = st.one_of(
    st.sampled_from(TIE_POOL), st.floats(-1.0, 2.0, allow_nan=False)
)
mass_values = st.floats(0.0, 8.0)


@st.composite
def weighted_points(draw, points):
    pts = np.asarray(draw(points), dtype=float)
    masses = draw(st.lists(mass_values, min_size=pts.size, max_size=pts.size))
    return pts, np.asarray(masses, dtype=float)


ascending_runs = st.lists(
    st.lists(point_values, min_size=1, max_size=8).map(sorted),
    min_size=1, max_size=5,
).map(lambda runs: [x for run in runs for x in run])
copies_of_one_point = st.tuples(point_values, st.integers(2, 4)).map(
    lambda pc: [pc[0]] * pc[1]
)


def assert_normalized_matches_reference(points, masses, domain=None):
    before = points.copy(), masses.copy()
    try:
        want = reference_normalized(points, masses, domain)
    except DomainError as exc:
        with pytest.raises(DomainError, match=re.escape(str(exc))):
            AtomicMeasure.normalized(points, masses, domain)
        return
    got = AtomicMeasure.normalized(points, masses, domain)
    assert got.points.dtype == got.masses.dtype == want.masses.dtype == np.float64
    assert got.points.tobytes() == want.points.tobytes()
    assert got.masses.size == want.masses.size
    assert np.all(got.masses == want.masses)
    assert got.domain == want.domain
    # the in-place division touches the sorted copy only
    assert before[0].tobytes() == points.tobytes()
    assert before[1].tobytes() == masses.tobytes()


class TestNormalizedMatchesReference:
    """AtomicMeasure.normalized against the sort-and-merge it replaced,
    bit for bit: points, masses, domain and dtype, or the same error."""

    @given(weighted_points(ascending_runs))
    @settings(max_examples=200, deadline=None)
    def test_ascending_runs_with_ties(self, atoms):
        assert_normalized_matches_reference(*atoms)

    @given(weighted_points(copies_of_one_point))
    @settings(max_examples=60, deadline=None)
    def test_copies_of_one_point(self, atoms):
        assert_normalized_matches_reference(*atoms)

    @given(weighted_points(st.lists(point_values, min_size=1, max_size=40)))
    @settings(max_examples=200, deadline=None)
    def test_unsorted(self, atoms):
        assert_normalized_matches_reference(*atoms)

    @given(point_values, st.floats(1e-300, 8.0))
    @settings(max_examples=30, deadline=None)
    def test_single_atom(self, x, m):
        assert_normalized_matches_reference(np.array([x]), np.array([m]))

    def test_window_of_ascending_levels(self):
        # the shape weak_limit hands over: ascending levels back to back,
        # each sharing points with the others, with an explicit domain
        rng = np.random.default_rng(5)
        levels = [np.sort(rng.choice(TIE_POOL + tuple(rng.uniform(0, 1, 50)), n))
                  for n in (40, 80, 160)]
        points = np.concatenate(levels)
        masses = rng.exponential(size=points.size)
        assert_normalized_matches_reference(points, masses, (0.0, 1.0))

    @pytest.mark.parametrize("points", [[0.3], [0.1, 0.7, 0.1], [0.5, 0.2]])
    def test_zero_mass_raises(self, points):
        points = np.asarray(points)
        assert_normalized_matches_reference(points, np.zeros(points.size))
        with pytest.raises(DomainError, match="zero total mass"):
            AtomicMeasure.normalized(points, np.zeros(points.size))

    def test_nan_point_is_not_merged_into_its_neighbour(self):
        # nan sorts last and equals nothing, so it stays an atom of its own
        # and the measure is rejected instead of folding it into 0.2
        with pytest.raises(DomainError, match="finite"):
            AtomicMeasure.normalized(np.array([np.nan, 0.2]), np.array([0.5, 0.5]))


def random_measure(rng, size, lo=0.0, hi=1.0):
    return AtomicMeasure.normalized(
        rng.uniform(lo, hi, size), rng.uniform(0.0, 1.0, size), (lo, hi)
    )


class TestHatWeights:
    """hat_weights(g) @ v is the integral of np.interp(x, g, v) against mu."""

    @staticmethod
    def assert_matches_pointwise(mu, grid, rng):
        # positive values keep the integral away from 0, so the check is relative
        for _ in range(3):
            values = rng.uniform(0.5, 2.0, grid.size)
            pointwise = mu.integrate(GridFunction(grid, values))
            assert mu.hat_weights(grid) @ values == pytest.approx(pointwise, rel=1e-13)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_measures(self, seed):
        rng = np.random.default_rng(seed)
        mu = random_measure(rng, int(rng.integers(1, 20000)))
        grid = np.linspace(0.0, 1.0, int(rng.integers(16, 5000)))
        self.assert_matches_pointwise(mu, grid, rng)

    def test_atoms_on_grid_nodes(self):
        rng = np.random.default_rng(11)
        grid = np.linspace(0.0, 1.0, 257)
        pts = np.concatenate([grid[rng.choice(grid.size, 100, replace=False)],
                              rng.uniform(0.0, 1.0, 100)])
        mu = AtomicMeasure.normalized(pts, rng.uniform(0.0, 1.0, pts.size), (0.0, 1.0))
        self.assert_matches_pointwise(mu, grid, rng)
        # an atom on a node weighs that node alone
        on_node = AtomicMeasure(grid[[3]], np.array([1.0]), (0.0, 1.0))
        w = on_node.hat_weights(grid)
        assert w[3] == 1.0 and np.count_nonzero(w) == 1

    def test_atoms_at_both_domain_ends(self):
        rng = np.random.default_rng(12)
        pts = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 500)])
        mu = AtomicMeasure.normalized(pts, rng.uniform(0.5, 1.0, pts.size), (0.0, 1.0))
        grid = np.linspace(0.0, 1.0, 64)
        self.assert_matches_pointwise(mu, grid, rng)
        ends = AtomicMeasure(np.array([0.0, 1.0]), np.array([0.25, 0.75]), (0.0, 1.0))
        w = ends.hat_weights(grid)
        assert (w[0], w[-1], np.count_nonzero(w)) == (0.25, 0.75, 2)

    @pytest.mark.parametrize("x", [0.0, 0.123456789, 0.5, 1.0])
    def test_single_atom(self, x):
        rng = np.random.default_rng(13)
        self.assert_matches_pointwise(point_mass(x), np.linspace(0.0, 1.0, 100), rng)

    def test_measure_on_a_sub_interval(self):
        rng = np.random.default_rng(14)
        mu = random_measure(rng, 3000, 0.3, 0.6)
        grid = np.linspace(0.0, 1.0, 512)
        self.assert_matches_pointwise(mu, grid, rng)
        assert not mu.hat_weights(grid)[grid < 0.29].any()

    def test_atoms_outside_the_grid_clamp_to_its_end_nodes(self):
        # np.interp holds the end values outside the grid
        rng = np.random.default_rng(15)
        mu = random_measure(rng, 2000, -0.5, 1.5)
        grid = np.linspace(0.0, 1.0, 128)
        self.assert_matches_pointwise(mu, grid, rng)
        w = mu.hat_weights(grid)
        assert w[0] >= mu.mass_interval(-0.5, 0.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)

    def test_kept_for_the_last_grid(self):
        mu = random_measure(np.random.default_rng(16), 1000)
        w = mu.hat_weights(np.linspace(0.0, 1.0, 64))
        assert not w.flags.writeable
        # an equal grid built anew reuses the weights; another grid replaces them
        assert mu.hat_weights(np.linspace(0.0, 1.0, 64)) is w
        other = mu.hat_weights(np.linspace(0.0, 1.0, 65))
        assert other.size == 65
        assert mu.hat_weights(np.linspace(0.0, 1.0, 65)) is other
        # a measure copied with new masses does not inherit the weights
        nu = replace(mu, masses=np.full(mu.size, 1.0 / mu.size))
        assert nu.hat_weights(np.linspace(0.0, 1.0, 65)) is not other

    def test_cached_grid_is_a_copy(self):
        mu = random_measure(np.random.default_rng(17), 100)
        grid = np.linspace(0.0, 1.0, 32)
        w = mu.hat_weights(grid)
        grid[5] = 0.9
        assert mu.hat_weights(np.linspace(0.0, 1.0, 32)) is w

    @pytest.mark.parametrize(
        "grid",
        [np.array([0.5]), np.array([0.0, 0.5, 0.5, 1.0]), np.array([1.0, 0.0]),
         np.array([0.0, np.nan]), np.array([0.0, np.inf])],
    )
    def test_rejects_grids_that_are_not_finite_and_increasing(self, grid):
        with pytest.raises(DomainError, match="grid"):
            point_mass(0.5).hat_weights(grid)


class TestTransitionParameter:
    def test_tent_counting(self):
        seq = transition_parameter(level_sums(tent_map(), None, 0.3, 12))
        # a_n = n log 2 exactly, so slope, intercept and residual are pinned
        assert seq.c == pytest.approx(LOG2, abs=1e-12)
        assert abs(seq.intercept) < 1e-10
        assert seq.residual < 1e-10
        assert seq.limsup_diagnostic == pytest.approx(LOG2, abs=1e-12)
        np.testing.assert_allclose(seq.a_values, seq.depths * LOG2, atol=1e-10)

    def test_bernoulli_weights(self):
        seq = transition_parameter(
            level_sums(tent_map(), bernoulli_potential(), 0.3, 12)
        )
        assert seq.c == pytest.approx(C_BERN, abs=1e-12)

    def test_golden_slope_is_log_golden_ratio(self):
        beta = (1.0 + np.sqrt(5.0)) / 2.0
        seq = transition_parameter(level_sums(golden_tent_map(), None, 0.3, 18))
        # log F_{n+1} = (n+1) log beta - log sqrt 5 + O(beta^{-2n}), so the
        # upper-half fit recovers log beta far better than a_n / n does
        assert seq.c == pytest.approx(np.log(beta), abs=1e-4)
        assert seq.limsup_diagnostic < np.log(beta)

    def test_rejects_breakpoint_base(self):
        with pytest.raises(DomainError):
            transition_parameter(level_sums(tent_map(), None, 0.5, 6))


@pytest.fixture(scope="module")
def bernoulli_limit():
    return weak_limit(window_sums(tent_map(), bernoulli_potential(), 18), c=C_BERN)


class TestWeakLimit:
    def test_converges_with_small_eta(self, bernoulli_limit):
        res = bernoulli_limit
        assert res.converged
        assert res.eta_final <= 0.05
        assert res.stability < 1e-3
        assert res.window == (10, 18)

    def test_branch_cylinder_mass_is_exact(self, bernoulli_limit):
        # every depth slice assigns mass exactly p0 to the left branch cell,
        # so the windowed mixture inherits it to rounding error
        mu = bernoulli_limit.measure
        assert mu.mass_interval(0.0, 0.5) == pytest.approx(P0, abs=1e-9)
        assert mu.mass_interval(0.5, 1.0) == pytest.approx(1.0 - P0, abs=1e-9)

    def test_depth_two_cylinders(self, bernoulli_limit):
        # second-generation cells [0, 1/4], [1/4, 1/2] split the branch mass
        # p0 into p0*p0 and p0*(1-p0); the tent reverses orientation on the
        # right half so the order within [0, 1/2] is (p0, 1-p0) going left
        mu = bernoulli_limit.measure
        assert mu.mass_interval(0.0, 0.25) == pytest.approx(P0 * P0, abs=1e-9)
        assert mu.mass_interval(0.25, 0.5) == pytest.approx(P0 * (1 - P0), abs=1e-9)

    def test_full_support_at_64_bins(self, bernoulli_limit):
        binned = bernoulli_limit.measure.bin_masses(64)
        assert np.all(binned > 0)

    def test_no_heavy_bins_at_512(self, bernoulli_limit):
        assert bernoulli_limit.measure.bin_masses(512).max() <= 3.0 * P0**9

    def test_tent_counting_limit_is_uniform(self):
        res = weak_limit(window_sums(tent_map(), None, 18), c=LOG2)
        assert res.converged
        # zero potential weights every branch word equally; dyadic bins then
        # carry equal mass up to endpoint-atom placement
        np.testing.assert_allclose(
            res.measure.bin_masses(64), np.full(64, 1 / 64), atol=2e-3
        )

    def test_binned_snapshot_matches_measure(self, bernoulli_limit):
        np.testing.assert_allclose(
            bernoulli_limit.binned,
            bernoulli_limit.measure.bin_masses(BINS),
            atol=1e-12,
        )

    def test_rejects_tiny_depth(self):
        with pytest.raises(DomainError):
            weak_limit(window_sums(tent_map(), None, 3), c=LOG2)

    def test_rejects_sums_without_the_window(self):
        sums = level_sums(tent_map(), None, 0.3, 12, retain_from=window_start(12) + 1)
        with pytest.raises(DomainError, match="retain depths 7..12"):
            weak_limit(sums, c=LOG2)
        with pytest.raises(DomainError, match="retain depths"):
            weak_limit(level_sums(tent_map(), None, 0.3, 12), c=LOG2)

    def test_deeper_walk_cut_to_depth_gives_same_measure(self, bernoulli_limit):
        # one walk retaining more levels, deeper than n_max, reduces to the
        # same weak limit once cut at n_max
        sums = level_sums(tent_map(), bernoulli_potential(), 0.3, 20, retain_from=3)
        res = weak_limit(sums.upto(18), c=C_BERN)
        assert res.window == bernoulli_limit.window
        np.testing.assert_array_equal(res.measure.points, bernoulli_limit.measure.points)
        np.testing.assert_array_equal(res.measure.masses, bernoulli_limit.measure.masses)
        np.testing.assert_array_equal(res.s_values, bernoulli_limit.s_values)


    def test_exact_duplicates_across_the_window_merge(self):
        # x0 = 0.5 is a fixed point of sawtooth3's middle branch, so every
        # level contains the one before it: the depth-5..8 window holds
        # 243 + 729 + 2187 + 6561 = 9720 atoms at 6561 distinct points
        f, phi = full_linear_map(3), CosineSeriesPotential((0.3, -0.2))
        sums = window_sums(f, phi, 8, x0=0.5)
        res = weak_limit(sums, transition_parameter(sums).c)
        points = np.concatenate(sums.points)
        assert points.size == 9720
        unique, inverse = np.unique(points, return_inverse=True)
        assert unique.size == 6561
        np.testing.assert_array_equal(res.measure.points, unique)
        s = float(res.s_values[-1])
        depths = range(res.window[0], res.window[1] + 1)
        logw = np.concatenate([birk - n * s for n, birk in zip(depths, sums.birkhoff)])
        merged = np.bincount(inverse, weights=np.exp(logw - logsumexp(logw)))
        np.testing.assert_allclose(res.measure.masses, merged / merged.sum(),
                                   rtol=1e-15, atol=0)

    def test_measure_is_the_reference_sort_merge_of_the_window(self):
        # the window's log-sum-exp and normalization give the masses that
        # scipy's logsumexp and the reference sort-and-merge give, bit for bit
        f, phi = full_linear_map(2), CosineSeriesPotential((0.3, -0.2))
        sums = window_sums(f, phi, 12)
        res = weak_limit(sums, transition_parameter(sums).c)
        s = float(res.s_values[-1])
        depths = range(res.window[0], res.window[1] + 1)
        logw = np.concatenate([birk - n * s for n, birk in zip(depths, sums.birkhoff)])
        want = reference_normalized(
            np.concatenate(sums.points), np.exp(logw - logsumexp(logw)), sums.domain
        )
        assert res.measure.points.tobytes() == want.points.tobytes()
        assert res.measure.masses.tobytes() == want.masses.tobytes()

    def test_peak_memory_is_a_few_window_arrays(self):
        # from the masses to the returned measure, weak_limit holds the
        # window's points and masses, the sort order and their sorted copies:
        # about 5 float64 arrays the size of the window (8.26 when every
        # step made its own copy)
        f, phi = full_linear_map(2), CosineSeriesPotential((0.3, -0.2))
        sums = window_sums(f, phi, 16)
        c = transition_parameter(sums).c
        atoms = sum(pts.size for pts in sums.points)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            res = weak_limit(sums, c)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert res.measure.size == atoms
        assert peak < 6 * 8 * atoms, peak / (8 * atoms)


class TestConformalityAudit:
    def test_lebesgue_is_conformal_for_tent_counting(self):
        # Lebesgue satisfies mu(f(A)) = int_A 2 dmu exactly; midpoint atoms
        # approximate it to one atom spacing per interval endpoint
        mu = uniform_atoms(4096)
        rep = conformality_audit(
            mu, tent_map(), None, LOG2,
            [(0.1, 0.2), (0.3, 0.45), (0.6, 0.9), (0.55, 0.6)],
        )
        assert rep.max_delta <= 2e-3

    def test_weak_limit_is_nearly_conformal(self):
        res = weak_limit(window_sums(tent_map(), bernoulli_potential(), 18), c=C_BERN)
        rep = conformality_audit(
            res.measure, tent_map(), bernoulli_potential(), C_BERN,
            [(0.0, 0.25), (0.125, 0.375), (0.5, 0.75), (0.625, 0.875)],
        )
        assert rep.max_delta <= 1e-2

    def test_straddling_interval_rejected(self):
        mu = uniform_atoms(64)
        with pytest.raises(DomainError, match="straddles"):
            conformality_audit(mu, tent_map(), None, LOG2, [(0.4, 0.6)])

    def test_dirac_violates_conformality(self):
        # a point mass off the fixed point cannot be conformal for counting
        mu = point_mass(0.3)
        rep = conformality_audit(mu, tent_map(), None, LOG2, [(0.25, 0.35)])
        assert rep.max_delta > 0.5


class TestAtomAudit:
    def test_decay_for_spread_measure(self):
        res = weak_limit(window_sums(tent_map(), bernoulli_potential(), 18), c=C_BERN)
        audit = atom_audit(res.measure, [8, 64, 512])
        assert np.all(np.diff(audit.max_bin_masses) < 0)
        assert audit.max_bin_masses[-1] < 0.07

    def test_atom_is_flagged(self):
        mu = AtomicMeasure.normalized(
            np.concatenate([np.linspace(0, 1, 101), [0.5]]),
            np.concatenate([np.full(101, 0.005), [0.495]]),
            domain=(0.0, 1.0),
        )
        audit = atom_audit(mu, [8, 64, 512])
        assert np.all(audit.max_bin_masses >= 0.49)

    def test_rejects_unsorted_levels(self):
        with pytest.raises(DomainError):
            atom_audit(uniform_atoms(16), [64, 8])
