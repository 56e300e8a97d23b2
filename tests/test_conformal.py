"""Tests for the conformal measure construction.

Oracle notes. For a full-branch map with branch-constant weights the level
sums factorize, a_n = n * log(sum_b exp(v_b)) exactly, so the transition
parameter and all slice masses have closed forms. For the golden tent the level counts are
Fibonacci numbers, whose logarithms are affine in n up to an exponentially
small correction, pinning the fitted slope.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermomap.conformal import (
    AtomicMeasure,
    atom_audit,
    conformality_audit,
    transition_parameter,
    uniform_atoms,
    weak_limit,
    window_start,
)
from thermomap.errors import DomainError
from thermomap.maps import golden_tent_map, tent_map
from thermomap.potentials import BranchConstantPotential, CosineSeriesPotential
from thermomap.pressure import level_sums

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


def brute_mix(sums, s, theta):
    """Every retained preimage x of depth n weighted n**theta exp(S_n phi(x)
    - n s), normalized: the measure weak_limit mixes at parameter s."""
    depths = range(sums.retain_from, sums.depth + 1)
    weights = [
        n**theta * np.exp(birk - n * s) for n, birk in zip(depths, sums.birkhoff)
    ]
    return AtomicMeasure.normalized(
        np.concatenate(sums.points), np.concatenate(weights), sums.domain
    )


class TestWeakLimitTheta:
    """Depth weights b_n = n**theta in weak_limit's mix."""

    @pytest.fixture(scope="class")
    def sums(self):
        # a non-constant potential, so the levels of the window carry
        # different measures and their weights matter
        return window_sums(tent_map(), CosineSeriesPotential((0.3, -0.2)), 14)

    @pytest.fixture(scope="class")
    def c(self, sums):
        return transition_parameter(sums).c

    def test_flat_default(self, sums, c):
        flat = weak_limit(sums, c, theta=0.0)
        default = weak_limit(sums, c)
        np.testing.assert_array_equal(flat.measure.points, default.measure.points)
        np.testing.assert_array_equal(flat.measure.masses, default.measure.masses)
        np.testing.assert_array_equal(flat.binned, default.binned)
        np.testing.assert_array_equal(flat.s_values, default.s_values)

    def test_polynomial(self, sums, c):
        res = weak_limit(sums, c, theta=2.0)
        s_final = float(res.s_values[-1])
        want = brute_mix(sums, s_final, 2.0)
        np.testing.assert_array_equal(res.measure.points, want.points)
        np.testing.assert_allclose(res.measure.masses, want.masses, rtol=1e-9, atol=0)
        # the n**2 weights are visible: the flat mix at the same s differs
        flat = brute_mix(sums, s_final, 0.0)
        assert np.max(np.abs(flat.masses - want.masses)) > 1e-3 * want.masses.max()

    def test_rejects_negative(self, sums, c):
        with pytest.raises(DomainError, match="theta"):
            weak_limit(sums, c, theta=-1.0)


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
            bernoulli_limit.measure.bin_masses(bernoulli_limit.bins),
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
