"""Tests for oscillation seminorms and variation norms.

Oracle notes. With 64 uniform midpoint atoms and the closed-interval
pseudo-distance, the eps = 0.1 ball around atom k is exactly the atoms
j with |j - k| <= 5 (mass window (k-5.4, k+5.4)), so the oscillation of
the step at 0.5 is 1 precisely for the 10 centers k in 27..36 and its
m-integral is 10/64. p-variation has an exhaustive-subset oracle for
small k, and |x|^alpha functions realize their Holder constants exactly
at the bump center.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_p_variation,
    dp_p_variation,
    draw_piecewise_holder,
    loop_holder_seminorm,
    osc,
)
from thermomap.conformal import AtomicMeasure, uniform_atoms
from thermomap.errors import DomainError
from thermomap.keller import (
    FLOAT_SLACK,
    SampledFunction,
    c_star,
    eps_grid,
    holder_seminorm,
    keller_seminorm,
    norm_chain_audit,
    norm_report,
    osc_profile,
    p_variation,
)


def step_function(points):
    points = np.asarray(points, dtype=float)
    return SampledFunction(points, (points >= 0.5).astype(float))


def osc1(h, m, eps):
    """m-integral of the ball oscillation over atom centers."""
    vals, _ = osc_profile(h, m, eps)
    return float(np.sum(m.masses * vals))


def holder_norm(h, alpha):
    """(sup norm, Holder seminorm, Holder norm) from `norm_report`."""
    rep = norm_report(h, uniform_atoms(16), alpha, 0.5)
    return rep.sup, rep.holder_seminorm, rep.holder_norm


def norms_draw(rng, points, alpha):
    """Steps plus |x - c|^alpha bumps, drawn the way `thermomap norms` draws."""
    values = np.zeros(points.size)
    for _ in range(rng.integers(0, 4)):
        values += rng.uniform(-1, 1) * (points >= rng.uniform(0.0, 1.0))
    for _ in range(rng.integers(1, 4)):
        c = rng.uniform(0.0, 1.0)
        values += rng.uniform(-1, 1) * np.abs(points - c) ** alpha
    return SampledFunction(points, values)


FINITE = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


@st.composite
def shaped_values(draw):
    """Concatenated plateaus, monotone runs, zig-zags and free stretches."""
    out = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["plateau", "up", "down", "zigzag", "free"]))
        n = draw(st.integers(1, 8))
        if kind == "plateau":
            out += [draw(FINITE)] * n
        elif kind == "zigzag":
            out += [draw(FINITE), draw(FINITE)] * n
        else:
            run = draw(st.lists(FINITE, min_size=n, max_size=n))
            out += run if kind == "free" else sorted(run, reverse=kind == "down")
    return np.array(out)


@st.composite
def irregular_samples(draw):
    """Irregularly spaced positions; values drawn partly from a small pool,
    so ties are common and a one-value pool gives a constant."""
    k = draw(st.integers(1, 40))
    gaps = draw(st.lists(st.floats(1e-6, 3.0), min_size=k, max_size=k))
    positions = draw(st.floats(-2, 2)) + np.cumsum(gaps)
    pool = draw(st.lists(FINITE, min_size=1, max_size=4))
    tied = st.sampled_from(pool)
    value = draw(st.sampled_from([tied, st.one_of(tied, FINITE)]))
    values = draw(st.lists(value, min_size=k, max_size=k))
    return SampledFunction(positions, np.array(values))


ALPHAS = st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.1, 1.0))


class TestSampledFunction:
    def test_step_left_evaluation(self):
        h = SampledFunction(np.array([0.2, 0.6]), np.array([1.0, 5.0]))
        assert h(0.2) == 1.0
        assert h(0.3) == 1.0
        assert h(0.6) == 5.0
        assert h(0.9) == 5.0
        # left of every sample the first value extends
        assert h(0.0) == 1.0
        np.testing.assert_allclose(h(np.array([0.1, 0.59, 0.61])), [1.0, 1.0, 5.0])

    def test_product_requires_matching_positions(self):
        a = SampledFunction(np.array([0.0, 1.0]), np.array([2.0, 3.0]))
        b = SampledFunction(np.array([0.0, 1.0]), np.array([5.0, 7.0]))
        np.testing.assert_allclose((a * b).values, [10.0, 21.0])
        c = SampledFunction(np.array([0.0, 0.5]), np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            a * c

    def test_rejects_unsorted(self):
        with pytest.raises(DomainError):
            SampledFunction(np.array([0.5, 0.2]), np.array([1.0, 2.0]))

    def test_accepts_lists(self):
        h = SampledFunction([0.1, 0.2, 0.5], [0, 1, 2])
        assert h.positions.dtype == h.values.dtype == np.float64
        assert h(0.3) == 1.0

    @pytest.mark.parametrize(
        "positions, values",
        [
            ([0.1, np.nan, 0.5], [0.0, 1.0, 2.0]),
            ([0.1, 0.3, np.inf], [0.0, 1.0, 2.0]),
            ([0.1, 0.3, 0.5], [0.0, np.nan, 2.0]),
            ([0.1, 0.3, 0.5], [-np.inf, 1.0, 2.0]),
        ],
    )
    def test_rejects_non_finite(self, positions, values):
        # checked first: nan fails no order comparison, and a nan value
        # would give norm_report a zero variation and a nan Keller norm
        with pytest.raises(DomainError, match="finite"):
            SampledFunction(np.array(positions), np.array(values))


class TestPseudoDistance:
    """The pseudo-distance d(x, y) is AtomicMeasure.mass_interval(x, y)."""

    def test_uniform_atoms(self):
        m = uniform_atoms(64)
        assert m.mass_interval(0.0, 0.5) == pytest.approx(0.5)
        # a single point carries its own atom mass, or none off the grid
        assert m.mass_interval(m.points[10], m.points[10]) == pytest.approx(1 / 64)
        assert m.mass_interval(0.25, 0.25) == 0.0

    def test_dirac(self):
        m = AtomicMeasure(np.array([0.5]), np.array([1.0]), (0.5, 0.5))
        assert m.mass_interval(0.0, 1.0) == 1.0

    def test_symmetry(self):
        m = uniform_atoms(32)
        assert m.mass_interval(0.7, 0.2) == m.mass_interval(0.2, 0.7)


class TestOsc:
    def test_constant_has_zero_oscillation(self):
        m = uniform_atoms(64)
        h = SampledFunction(m.points, np.full(64, 3.0))
        for x in (0.0, 0.3, 0.97):
            assert osc(h, m, 0.2, x) == 0.0
        vals, empty = osc_profile(h, m, 0.1)
        assert np.all(vals == 0.0)
        assert not np.any(empty)

    def test_step_ball_spans_jump(self):
        m = uniform_atoms(64)
        h = step_function(m.points)
        assert osc(h, m, 0.1, 0.5) == 1.0
        assert osc(h, m, 0.05, 0.1) == 0.0

    def test_heavy_atom_empties_its_own_ball(self):
        m = AtomicMeasure.normalized(
            np.array([0.2, 0.5, 0.8]), np.array([0.005, 0.99, 0.005])
        )
        h = SampledFunction(m.points, np.array([0.0, 1.0, 2.0]))
        # the center atom alone outweighs eps, so d(x, x) >= eps
        vals, empty = osc_profile(h, m, 0.5)
        assert empty[0, 1]
        assert vals[0, 1] == 0.0
        assert osc(h, m, 0.5, 0.5) == 0.0

    def test_rejects_nonpositive_eps(self):
        m = uniform_atoms(8)
        h = step_function(m.points)
        with pytest.raises(DomainError):
            osc_profile(h, m, 0.0)

    @pytest.mark.parametrize("at", range(3))
    @pytest.mark.parametrize("bad", [0.0, -0.25])
    def test_rejects_nonpositive_radius_anywhere(self, at, bad):
        m = uniform_atoms(8)
        radii = np.array([0.5, 0.25, 0.125])
        radii[at] = bad
        with pytest.raises(DomainError):
            osc_profile(step_function(m.points), m, radii)

    @pytest.mark.parametrize("seed", range(4))
    def test_profile_matches_single_ball_oracle_at_every_atom(self, seed):
        rng = np.random.default_rng(seed)
        m = AtomicMeasure.normalized(
            np.sort(rng.uniform(0, 1, 40)), rng.uniform(0.1, 3.0, 40), (0.0, 1.0)
        )
        h = draw_piecewise_holder(rng, 0.5, m.points)
        radii = (0.01, 0.05, 0.2, 0.7)
        profile, _ = osc_profile(h, m, np.array(radii))
        assert profile.shape == (4, 40)
        for vals, eps in zip(profile, radii):
            oracle = [osc(h, m, eps, x) for x in m.points]
            np.testing.assert_array_equal(vals, oracle)


class TestOsc1:
    def test_step_exact_count(self):
        # ball k-5..k+5 spans the 31|32 jump iff 27 <= k <= 36: ten atoms.
        # The closed-interval distance makes balls one atom smaller per side
        # than the naive (x - eps, x + eps) picture, hence 10/64 not 12/64.
        m = uniform_atoms(64)
        assert osc1(step_function(m.points), m, 0.1) == pytest.approx(10 / 64)

    def test_identity_approaches_ball_diameter(self):
        m = uniform_atoms(4096)
        h = SampledFunction(m.points, m.points.copy())
        val = osc1(h, m, 0.1)
        assert 0.2 - 0.012 <= val <= 0.2

    def test_constant_is_zero(self):
        m = uniform_atoms(64)
        assert osc1(SampledFunction(m.points, np.ones(64)), m, 0.3) == 0.0


class TestKellerSeminorm:
    def test_constant(self):
        m = uniform_atoms(64)
        rep = keller_seminorm(SampledFunction(m.points, np.full(64, -3.0)), m, 1.0, 0.5)
        assert rep.seminorm == 0.0
        assert rep.norm == pytest.approx(3.0)

    def test_step_alpha_one(self):
        m = uniform_atoms(64)
        rep = keller_seminorm(step_function(m.points), m, 1.0, 0.5)
        # osc1(eps)/eps sits just under the continuum value 2
        assert 1.75 <= rep.seminorm <= 2.0
        assert rep.norm == pytest.approx(rep.l1 + rep.seminorm, abs=1e-15)
        assert rep.l1 == pytest.approx(0.5)

    def test_step_alpha_half_peaks_at_largest_scale(self):
        m = uniform_atoms(64)
        rep = keller_seminorm(step_function(m.points), m, 0.5, 0.5)
        # ratio ~ 2 eps^{1/2} increases with eps, so the sup is at eps = A
        assert rep.argmax_eps == 0.5
        assert rep.seminorm == pytest.approx(2 * np.sqrt(0.5), rel=0.08)

    def test_scale_monotonicity_on_nested_grids(self):
        m = uniform_atoms(256)
        rng = np.random.default_rng(5)
        for _ in range(5):
            h = draw_piecewise_holder(rng, 0.5, m.points)
            big = keller_seminorm(h, m, 0.5, 0.5)
            small = keller_seminorm(h, m, 0.5, 0.25)
            # the grids share every eps but A=0.5 and the finest of A=0.25
            shared = small.eps_values[:-1]
            np.testing.assert_array_equal(big.eps_values[1:], shared)
            np.testing.assert_array_equal(
                big.osc1_values[1:], small.osc1_values[:-1]
            )
            ratios = small.osc1_values[:-1] / shared**0.5
            assert big.seminorm >= np.max(ratios) - 1e-12

    def test_vanishing_iff_constant(self):
        m = uniform_atoms(64)
        flat = np.full(64, 2.0)
        assert keller_seminorm(SampledFunction(m.points, flat), m, 1.0, 0.5).seminorm == 0
        bumped = flat.copy()
        bumped[30] += 1e-6
        assert keller_seminorm(SampledFunction(m.points, bumped), m, 1.0, 0.5).seminorm > 0

    def test_rejects_bad_parameters(self):
        m = uniform_atoms(8)
        h = step_function(m.points)
        with pytest.raises(DomainError):
            keller_seminorm(h, m, 0.0, 0.5)
        with pytest.raises(DomainError):
            keller_seminorm(h, m, 1.5, 0.5)
        with pytest.raises(DomainError):
            keller_seminorm(h, m, 0.5, -1.0)


class TestPVariation:
    def test_monotone_telescopes_at_p_one(self):
        h = SampledFunction(np.linspace(0, 1, 9), np.linspace(0, 2, 9) ** 2 / 2)
        assert p_variation(h, 1.0) == pytest.approx(2.0)

    def test_zigzag(self):
        h = SampledFunction(np.arange(4.0), np.array([0.0, 1.0, 0.0, 1.0]))
        assert p_variation(h, 2.0) == pytest.approx(np.sqrt(3.0))
        assert p_variation(h, 1.0) == pytest.approx(3.0)

    def test_single_jump(self):
        m = uniform_atoms(64)
        h = step_function(m.points)
        for p in (1.0, 1.5, 2.0, 3.0):
            assert p_variation(h, p) == pytest.approx(1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(2, 13))
            vals = rng.uniform(-1, 1, size=k)
            h = SampledFunction(np.sort(rng.uniform(0, 1, size=k) + np.arange(k)), vals)
            for p in (1.0, 1.5, 2.0, 3.0):
                assert p_variation(h, p) == pytest.approx(
                    brute_p_variation(vals, p), abs=1e-12
                )

    def test_rejects_p_below_one(self):
        with pytest.raises(DomainError):
            p_variation(SampledFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0])), 0.5)

    @pytest.mark.parametrize("p", [np.nan, np.inf])
    def test_rejects_nonfinite_p(self, p):
        # nan fails every comparison and inf has no (1/p)-th root to take
        with pytest.raises(DomainError):
            p_variation(SampledFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0])), p)

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=8), st.sampled_from([1.0, 2.0]))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_brute(self, vals, p):
        vals = np.asarray(vals)
        h = SampledFunction(np.arange(vals.size, dtype=float), vals)
        assert p_variation(h, p) == pytest.approx(brute_p_variation(vals, p), abs=1e-9)

    @given(shaped_values(), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    @settings(max_examples=300, deadline=None)
    def test_extrema_match_full_dp(self, vals, p):
        h = SampledFunction(np.arange(vals.size, dtype=float), vals)
        got, want = p_variation(h, p), dp_p_variation(vals, p)
        assert abs(got - want) <= 1e-12 * want

    @given(
        st.lists(FINITE, min_size=1, max_size=3),
        st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_short_inputs_match_full_dp(self, vals, p):
        vals = np.asarray(vals)
        h = SampledFunction(np.arange(vals.size, dtype=float), vals)
        got, want = p_variation(h, p), dp_p_variation(vals, p)
        assert abs(got - want) <= 1e-12 * want

    def test_no_samples_is_rejected(self):
        assert dp_p_variation([], 2.0) == 0.0
        with pytest.raises(DomainError):
            SampledFunction(np.array([]), np.array([]))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_all_equal_values(self, p):
        h = SampledFunction(np.linspace(0, 1, 50), np.full(50, -1.25))
        assert p_variation(h, p) == dp_p_variation(h.values, p) == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_bit_equal_at_p2_on_norms_dense_draws(self, seed):
        m = uniform_atoms(4096)
        h = norms_draw(np.random.default_rng(seed), m.points, 0.5)
        assert p_variation(h, 2.0) == dp_p_variation(h.values, 2.0)


class TestHolderNorm:
    def test_constant(self):
        h = SampledFunction(np.linspace(0, 1, 16), np.full(16, -2.0))
        assert holder_norm(h, 1.0) == (2.0, 0.0, 2.0)

    def test_identity(self):
        h = SampledFunction(np.linspace(0, 1, 65), np.linspace(0, 1, 65))
        sup, semi, total = holder_norm(h, 1.0)
        assert (sup, semi, total) == pytest.approx((1.0, 1.0, 2.0))

    def test_sqrt_half_exponent(self):
        x = np.linspace(0, 1, 257)
        h = SampledFunction(x, np.sqrt(x))
        sup, semi, total = holder_norm(h, 0.5)
        # |sqrt(x) - sqrt(y)| <= |x-y|^{1/2} with equality against y = 0
        assert semi == pytest.approx(1.0, abs=1e-12)
        assert total == pytest.approx(2.0, abs=1e-12)

    def test_blocked_kernel_matches_direct(self):
        rng = np.random.default_rng(3)
        h = draw_piecewise_holder(rng, 1.0, np.sort(rng.uniform(0, 1, 300)))
        direct = max(
            abs(h.values[i] - h.values[j]) / abs(h.positions[i] - h.positions[j])
            for i in range(h.size)
            for j in range(i + 1, h.size)
        )
        assert holder_seminorm(h, 1.0) == pytest.approx(direct, rel=1e-12)

    @given(irregular_samples(), ALPHAS)
    @settings(max_examples=300, deadline=None)
    def test_offset_scan_bit_equal_to_pair_loop(self, h, alpha):
        assert holder_seminorm(h, alpha) == loop_holder_seminorm(
            h.positions, h.values, alpha
        )

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_offset_scan_bit_equal_on_norms_draws(self, seed, alpha):
        rng = np.random.default_rng(seed)
        points = np.sort(rng.uniform(0, 1, 600))
        h = norms_draw(rng, points, alpha)
        assert holder_seminorm(h, alpha) == loop_holder_seminorm(
            h.positions, h.values, alpha
        )

    def test_one_sample_and_constant(self):
        one = SampledFunction(np.array([0.3]), np.array([7.0]))
        assert holder_seminorm(one, 0.5) == loop_holder_seminorm([0.3], [7.0], 0.5)
        assert holder_seminorm(one, 0.5) == 0.0
        flat = SampledFunction(np.array([0.0, 1e-9, 0.5, 2.0]), np.full(4, 3.0))
        assert holder_seminorm(flat, 0.3) == 0.0


class TestCStar:
    def test_recipe_values(self):
        # A = 0.5: one ball, ell = 1/4, so C* = max(1, A^alpha/(1/2))
        assert c_star(1.0, 0.5) == 1.0
        assert c_star(0.5, 0.5) == pytest.approx(np.sqrt(2.0))
        # A = 0.1: N = 5 balls, ell = 1/20, C* = max(1, A^alpha * 10)
        assert c_star(1.0, 0.1) == 1.0
        assert c_star(0.5, 0.1) == pytest.approx(np.sqrt(0.1) * 10)


class TestNormReport:
    def test_exact_decomposition(self):
        m = uniform_atoms(128)
        rep = norm_report(step_function(m.points), m, 0.5, 0.5)
        kel = rep.keller
        assert kel.norm == kel.l1 + kel.seminorm
        assert (kel.alpha, kel.A) == (0.5, 0.5)
        assert rep.bv_norm == rep.var_p + rep.sup
        assert rep.p == 2.0
        assert rep.measure is m
        for val in (kel.l1, rep.sup, kel.seminorm, rep.var_p):
            assert val >= 0

    def test_rejects_zero_alpha(self):
        # alpha is checked before the default p = 1 / alpha is formed
        m = uniform_atoms(8)
        with pytest.raises(DomainError, match="alpha"):
            norm_report(step_function(m.points), m, 0.0, 0.5)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_osc_power_integrals_bit_equal_to_profiles(self, alpha):
        m = uniform_atoms(256)
        h = norms_draw(np.random.default_rng(41), m.points, alpha)
        kel = norm_report(h, m, alpha, 0.5).keller
        for i, e in enumerate(kel.eps_values):
            osc = osc_profile(h, m, e)[0]
            assert kel.osc_power_values[i] == np.sum(m.masses * osc ** (1 / alpha))
            assert kel.osc1_values[i] == np.sum(m.masses * osc)


class TestNormChainAudit:
    def test_constant_passes_trivially(self):
        m = uniform_atoms(64)
        h = SampledFunction(m.points, np.full(64, 2.0))
        audit = norm_chain_audit(norm_report(h, m, 1.0, 0.5))
        assert audit.passed
        names = [c.name for c in audit.checks]
        assert names == [
            "bv_le_scaled_holder", "keller_le_bv", "osc_power_le_var", "product_bound",
        ]

    def test_step_oscillation_power_check(self):
        # p = 2, eps = 0.1: lhs counts jump-spanning centers, just under 2 eps
        m = uniform_atoms(64)
        h = step_function(m.points)
        vals, _ = osc_profile(h, m, 0.1)
        lhs = float(np.sum(m.masses * vals**2))
        assert lhs == pytest.approx(10 / 64)
        assert lhs <= 2 * 0.1 * p_variation(h, 2.0) ** 2

    def test_random_piecewise_holder_all_pass(self):
        m = uniform_atoms(512)
        rng = np.random.default_rng(11)
        for _ in range(25):
            for alpha in (0.5, 1.0):
                h = draw_piecewise_holder(rng, alpha, m.points)
                audit = norm_chain_audit(norm_report(h, m, alpha, 0.5))
                assert audit.passed, [
                    (c.name, c.lhs, c.rhs) for c in audit.checks if not c.passed
                ]

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_achieving_eps_matches_keller_seminorm(self, alpha):
        rng = np.random.default_rng(29)
        m = AtomicMeasure.normalized(
            np.sort(rng.uniform(0, 1, 256)), rng.uniform(0.1, 3.0, 256), (0.0, 1.0)
        )
        for _ in range(4):
            h = norms_draw(rng, m.points, alpha)
            rep = norm_report(h, m, alpha, 0.5)
            eps = keller_seminorm(h, m, alpha, 0.5).argmax_eps
            factor = (1.0 + float(np.max(m.masses)) / eps) ** alpha
            check = norm_chain_audit(rep).checks[1]
            assert check.rhs == 2.0**alpha * rep.bv_norm * factor
            assert check.detail.startswith(f"eps*={eps:.6g},")

    def test_report_fixes_measure_alpha_and_A(self):
        # every input comes from the report: a reweighted measure sets
        # the atomic factor of (ii), the report's alpha and A set C*
        m = uniform_atoms(128)
        h = step_function(m.points)
        weights = 1.0 + m.points
        other = AtomicMeasure(m.points, weights / weights.sum(), m.domain)
        rep = norm_report(h, other, 0.5, 0.1)
        audit = norm_chain_audit(rep)
        eps = rep.keller.argmax_eps
        factor = (1.0 + float(np.max(other.masses)) / eps) ** 0.5
        assert factor != (1.0 + float(np.max(m.masses)) / eps) ** 0.5
        check = audit.checks[1]
        assert check.rhs == 2.0**0.5 * rep.bv_norm * factor
        assert check.detail == f"eps*={eps:.6g}, atomic factor {factor:.6g}"
        assert audit.c_star == c_star(0.5, 0.1, float(other.masses.sum()))
        assert audit.c_star != c_star(0.5, 0.5)

    def test_every_check_follows_the_one_pass_rule(self):
        m = uniform_atoms(128)
        rng = np.random.default_rng(53)
        outcomes = set()
        for alpha in (0.25, 0.5, 1.0):
            for _ in range(3):
                rep = norm_report(norms_draw(rng, m.points, alpha), m, alpha, 0.5)
                kel = rep.keller
                # doctored reports push each check past its bound
                for r in (
                    rep,
                    replace(rep, bv_norm=rep.bv_norm + 10.0),
                    replace(rep, var_p=0.0, bv_norm=rep.sup),
                    replace(rep, keller=replace(kel, norm=kel.norm * 1e-3)),
                ):
                    audit = norm_chain_audit(r)
                    for c in audit.checks:
                        rule = c.lhs <= c.rhs + FLOAT_SLACK * max(1.0, c.rhs)
                        assert c.passed == rule, c
                        outcomes.add((c.name, c.passed))
                    assert audit.passed == all(c.passed for c in audit.checks)
        names = {name for name, _ in outcomes}
        assert outcomes == {(n, ok) for n in names for ok in (True, False)}

    def test_passed_report_is_used(self):
        m = uniform_atoms(128)
        h = norms_draw(np.random.default_rng(4), m.points, 0.5)
        rep = norm_report(h, m, 0.5, 0.5)
        doctored = replace(rep, bv_norm=rep.bv_norm + 1.0)
        audit = norm_chain_audit(doctored)
        assert audit.checks[0].lhs == rep.bv_norm + 1.0

    def test_report_for_another_p_is_recomputed(self):
        m = uniform_atoms(128)
        h = norms_draw(np.random.default_rng(5), m.points, 0.5)
        rep = norm_report(h, m, 0.5, 0.5, p=3.0)
        assert rep.var_p != norm_report(h, m, 0.5, 0.5).var_p
        audit = norm_chain_audit(rep)
        assert audit.checks == norm_chain_audit(norm_report(h, m, 0.5, 0.5)).checks

    def test_product_check_matches_full_reports(self):
        m = uniform_atoms(256)
        rng = np.random.default_rng(31)
        for _ in range(4):
            h = norms_draw(rng, m.points, 0.5)
            rep = norm_report(h, m, 0.5, 0.5)
            check = norm_chain_audit(rep).checks[3]
            cstar = c_star(0.5, 0.5)
            assert check.lhs == norm_report(h * h, m, 0.5, 0.5).keller.norm
            assert check.rhs == 2.0 * cstar * rep.keller.norm * norm_report(
                h, m, 0.5, 0.5).keller.norm

    def test_product_check_builds_no_report(self, monkeypatch):
        import thermomap.keller as keller

        m = uniform_atoms(128)
        h = norms_draw(np.random.default_rng(37), m.points, 0.5)
        rep = norm_report(h, m, 0.5, 0.5)
        calls = []
        real = keller.norm_report
        monkeypatch.setattr(
            keller, "norm_report", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        norm_chain_audit(rep)
        assert calls == []

    def test_audit_never_scans_h(self, monkeypatch):
        import thermomap.keller as keller

        m = uniform_atoms(128)
        h = norms_draw(np.random.default_rng(43), m.points, 0.5)
        scanned = []
        real = keller.osc_profile
        monkeypatch.setattr(
            keller, "osc_profile", lambda f, *a: scanned.append(f) or real(f, *a)
        )
        rep = norm_report(h, m, 0.5, 0.5)
        # one scan serves all 21 radii
        assert len(scanned) == 1 and scanned[0] is h
        scanned.clear()
        norm_chain_audit(rep)
        # only the product h*h of check (iv): 2 scans per draw with the report
        assert len(scanned) == 1
        assert not any(f is h for f in scanned)
        np.testing.assert_array_equal(scanned[0].values, h.values * h.values)

    def test_report_for_another_p_rescans_nothing(self, monkeypatch):
        import thermomap.keller as keller

        m = uniform_atoms(128)
        h = norms_draw(np.random.default_rng(47), m.points, 0.5)
        rep = norm_report(h, m, 0.5, 0.5, p=3.0)
        calls = []
        real = keller.p_variation
        monkeypatch.setattr(
            keller, "p_variation", lambda *a: calls.append(a[1]) or real(*a)
        )
        monkeypatch.setattr(
            keller, "norm_report", lambda *a, **k: pytest.fail("report rebuilt")
        )
        norm_chain_audit(rep)
        assert calls == [2.0]

    def test_triangle_inequality_for_keller_norm(self):
        m = uniform_atoms(256)
        rng = np.random.default_rng(19)
        for _ in range(10):
            h = draw_piecewise_holder(rng, 0.5, m.points)
            g = draw_piecewise_holder(rng, 0.5, m.points)
            hg = SampledFunction(m.points, h.values + g.values)
            n_sum = keller_seminorm(hg, m, 0.5, 0.5).norm
            n_h = keller_seminorm(h, m, 0.5, 0.5).norm
            n_g = keller_seminorm(g, m, 0.5, 0.5).norm
            assert n_sum <= n_h + n_g + 1e-12


class TestEpsGrid:
    def test_geometric_grid(self):
        grid = eps_grid(0.5)
        assert grid.size == 21
        assert grid[0] == 0.5
        np.testing.assert_allclose(grid[:-1] / grid[1:], 2.0)
