"""Tests for the discretized transfer operator.

Oracle notes. Full-branch maps with branch-constant weights make psi = 1 an
exact eigenfunction with eigenvalue sum_b exp(c_b), so the tent and Bernoulli
eigenpairs are known in closed form. For the tent map the two preimage
contributions of cos(pi x) cancel identically, which pins the cosine examples
and the autocorrelation floor. The logistic family is smoothly conjugate to
the tent, so its zero-potential eigenvalue is also 2 while its conformal
measure is the arcsine law; the eigenfunction of the collocation operator is
the constant, and the arcsine shape lives in the measure, not in h.
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import tent_bernoulli_atoms, tent_map
from thermomap import transfer
from thermomap.conformal import (
    AtomicMeasure,
    transition_parameter,
    uniform_atoms,
    weak_limit,
    window,
)
from thermomap.errors import AuditError, DomainError
from thermomap.maps import (
    IntervalMap,
    full_linear_map,
    golden_tent_map,
    logistic4_map,
)
from thermomap.potentials import (
    AveragedPotential,
    BranchConstantPotential,
    CosineSeriesPotential,
    PiecewiseLinearPotential,
)
from thermomap.pressure import hyperbolicity_check, level_sums, tree_pressure
from thermomap.transfer import (
    CorrelationBatch,
    GridFunction,
    adjoint_invariance_audit,
    apply_transfer,
    correlation,
    equilibrium_state,
    fit_decay,
    power_iteration,
    smoothed_indicator,
)

LOG2 = np.log(2.0)
LAM_BERN = 1.0 + np.exp(-1.0)
P0 = 1.0 / LAM_BERN
LNBETA = np.log((1.0 + np.sqrt(5.0)) / 2.0)


def bern_potential():
    return BranchConstantPotential((0.0, 0.5, 1.0), (0.0, -1.0))


class TestGridFunction:
    def test_rejects_nonuniform_grid(self):
        with pytest.raises(DomainError):
            GridFunction(np.array([0.0, 0.1, 0.5, 1.0]), np.zeros(4))

    def test_rejects_small_grid(self):
        with pytest.raises(DomainError):
            GridFunction.constant(0.0, 8)

    def test_accepts_lists(self):
        g = GridFunction(list(range(16)), [0] * 16)
        assert g.grid.dtype == g.values.dtype == np.float64
        assert g(2.5) == 0.0

    def test_interpolates_linearly(self):
        g = GridFunction.from_callable(lambda x: 3.0 * x, 64)
        assert g(np.array([0.31])) == pytest.approx(0.93, abs=1e-12)

    @pytest.mark.parametrize(
        "field, bad", [("grid", np.nan), ("grid", np.inf), ("values", np.nan)]
    )
    def test_rejects_non_finite(self, field, bad):
        # checked first: a nan node fails no order or uniformity comparison
        arrays = {"grid": np.linspace(0.0, 1.0, 16), "values": np.ones(16)}
        arrays[field][5] = bad
        with pytest.raises(DomainError, match="finite"):
            GridFunction(**arrays)


class TestApplyTransfer:
    def test_tent_constant_doubles(self):
        tent = tent_map()
        one = GridFunction.constant(1.0, 256)
        out = apply_transfer(tent, None, one)
        np.testing.assert_allclose(out.values, 2.0, rtol=0, atol=1e-14)
        norm = apply_transfer(tent, None, one, p_hat=LOG2)
        np.testing.assert_allclose(norm.values, 1.0, rtol=0, atol=1e-14)

    def test_tent_cosine_cancels_nodewise(self):
        tent = tent_map()
        psi = GridFunction.from_callable(lambda x: np.cos(np.pi * x), 512)
        out = apply_transfer(tent, None, psi)
        assert np.max(np.abs(out.values)) <= 1e-12

    def test_branch_constant_weights_sum(self):
        tent = tent_map()
        phi = BranchConstantPotential((0.0, 0.5, 1.0), (0.3, -0.9))
        one = GridFunction.constant(1.0, 128)
        out = apply_transfer(tent, phi, one)
        np.testing.assert_allclose(
            out.values, np.exp(0.3) + np.exp(-0.9), rtol=1e-14
        )

    def test_edge_preimage_uses_branch_side_weight(self):
        # the preimage of the right endpoint is the turning point; each
        # branch must weight it with its own one-sided potential value
        tent = tent_map()
        one = GridFunction.constant(1.0, 128)
        out = apply_transfer(tent, bern_potential(), one)
        assert out.values[-1] == pytest.approx(LAM_BERN, abs=1e-14)

    def test_positivity_preserved(self):
        tent = tent_map()
        rng = np.random.default_rng(7)
        psi = GridFunction(np.linspace(0, 1, 64), rng.uniform(0, 1, 64))
        out = apply_transfer(tent, bern_potential(), psi)
        assert np.all(out.values >= 0)

    def test_linearity(self):
        tent = tent_map()
        rng = np.random.default_rng(11)
        grid = np.linspace(0, 1, 128)
        f1 = GridFunction(grid, rng.normal(size=128))
        f2 = GridFunction(grid, rng.normal(size=128))
        a, b = 1.7, -0.4
        combo = GridFunction(grid, a * f1.values + b * f2.values)
        lhs = apply_transfer(tent, bern_potential(), combo).values
        rhs = (
            a * apply_transfer(tent, bern_potential(), f1).values
            + b * apply_transfer(tent, bern_potential(), f2).values
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestPowerIteration:
    def test_tent_exact_eigenpair(self):
        rep = power_iteration(tent_map(), None, grid_size=1024)
        assert rep.converged
        assert rep.eigenvalue == pytest.approx(2.0, abs=1e-10)
        assert np.max(np.abs(rep.h.values - 1.0)) <= 1e-10

    def test_bernoulli_exact_eigenpair(self):
        rep = power_iteration(tent_map(), bern_potential(), grid_size=1024)
        assert rep.eigenvalue == pytest.approx(LAM_BERN, abs=1e-8)
        assert np.max(np.abs(rep.h.values - 1.0)) <= 1e-8

    def test_logistic4_eigenvalue(self):
        rep = power_iteration(logistic4_map(), None, grid_size=2048)
        assert rep.eigenvalue == pytest.approx(2.0, abs=1e-3)
        # the collocation operator fixes the constant exactly for the zero
        # potential; the arcsine shape belongs to the conformal measure
        assert np.max(np.abs(rep.h.values - 1.0)) <= 1e-8

    def test_four_branch_eigenvalue(self):
        rep = power_iteration(full_linear_map(4), None, grid_size=512)
        assert rep.eigenvalue == pytest.approx(4.0, abs=1e-10)

    def test_golden_markov_eigenvalue(self):
        # partial branches: the grid operator still recovers log beta far
        # more accurately than the depth-18 preimage tree does
        rep = power_iteration(golden_tent_map(), None, grid_size=4096)
        assert rep.log_eigenvalue == pytest.approx(LNBETA, abs=1e-3)

    def test_converged_run_keeps_its_last_residual(self, monkeypatch):
        # iteration 1 sets lam = 2 and iteration 2 repeats it, so its one
        # residual check converges: three plain applications, with no
        # recomputation of that residual after the break
        plain = []

        def counting(imap, potential, psi, p_hat=None):
            if p_hat is None:
                plain.append(psi)
            return apply_transfer(imap, potential, psi, p_hat)

        monkeypatch.setattr(transfer, "apply_transfer", counting)
        rep = power_iteration(tent_map(), None, grid_size=256)
        assert rep.converged and rep.iterations == 2
        assert len(plain) == rep.iterations + 1
        assert rep.residual == 0.0

    def test_one_application_per_step_after_a_failed_check(self, monkeypatch):
        # doubling map, potential peaked at 0.3, tol 1e-4 on 64 nodes: at
        # one step the eigenvalue has settled but the eigen-residual has
        # not. Each step's residual reads the next step's image, so a
        # failed check costs no extra application.
        images = []

        def counting(imap, potential, psi, p_hat=None):
            out = apply_transfer(imap, potential, psi, p_hat)
            if p_hat is None:
                images.append((psi.values, out.values))
            return out

        monkeypatch.setattr(transfer, "apply_transfer", counting)
        tol = 1e-4
        peak = PiecewiseLinearPotential((0.0, 0.3, 1.0), (-2.0, 1.0, -2.0))
        rep = power_iteration(full_linear_map(2), peak, grid_size=64, tol=tol)
        assert rep.converged
        assert len(images) == rep.iterations + 1
        lams = [float(np.max(np.abs(out))) for _, out in images]
        failed = [
            k for k in range(1, rep.iterations)
            if abs(lams[k] - lams[k - 1]) < tol
            and np.max(np.abs(images[k + 1][1] / lams[k] - images[k + 1][0]))
            >= 10 * tol
        ]
        assert failed

    def test_non_convergence_flagged(self, monkeypatch):
        monkeypatch.setattr(transfer, "MAX_ITER", 1)
        rep = power_iteration(tent_map(), bern_potential(), grid_size=256)
        assert rep.iterations == 1
        assert not rep.converged

    def test_invariants(self):
        rep = power_iteration(tent_map(), bern_potential(), grid_size=256)
        assert rep.eigenvalue > 0
        assert np.all(rep.h.values >= 0)
        assert rep.residual <= 1e-10

    def test_h_integrates_to_one_against_mu(self):
        rng = np.random.default_rng(3)
        mu = AtomicMeasure.normalized(
            rng.uniform(0.0, 1.0, 5000), rng.uniform(0.0, 1.0, 5000), (0.0, 1.0)
        )
        cosine = CosineSeriesPotential((0.3, -0.2))
        rep = power_iteration(full_linear_map(2), cosine, grid_size=512, mu=mu)
        assert abs(mu.hat_weights(rep.h.grid) @ rep.h.values - 1.0) <= 1e-15
        assert mu.integrate(rep.h) == pytest.approx(1.0, abs=1e-14)

    # Computed when every integral of a grid function evaluated it at each
    # atom. lambda, log lambda, the residual and the iteration count are
    # read before the eigenfunction is scaled against mu, so the quadrature
    # must leave them bit-equal.
    @pytest.mark.parametrize(
        "imap, potential, grid_size, expected",
        [
            (full_linear_map(2), CosineSeriesPotential((0.3, -0.2)), 512,
             (2.0052666531297527, 0.6957770459952811, 4.176659018639839e-12, 18)),
            (logistic4_map(), bern_potential(), 256,
             (1.3678794411714423, 0.31326168751822286, 0.0, 2)),
            (golden_tent_map(), None, 1024,
             (1.6182385631434848, 0.48133825099597444, 7.327582984828496e-12, 65)),
        ],
        ids=["doubling-cosine", "logistic4-bernoulli", "golden-none"],
    )
    def test_spectral_values_bit_equal_to_reference(
        self, imap, potential, grid_size, expected
    ):
        rng = np.random.default_rng(20)
        mu = AtomicMeasure.normalized(
            rng.uniform(0.0, 1.0, 5000), rng.uniform(0.0, 1.0, 5000), (0.0, 1.0)
        )
        rep = power_iteration(imap, potential, grid_size=grid_size, mu=mu)
        got = (rep.eigenvalue, rep.log_eigenvalue, rep.residual, rep.iterations)
        assert got == expected

    def test_report_keeps_its_trajectories(self):
        cosine = CosineSeriesPotential((0.3, -0.2))
        rep = power_iteration(full_linear_map(2), cosine, grid_size=256)
        lams = rep.lambda_history
        assert lams.size == rep.iterations and lams[-1] == rep.eigenvalue
        assert abs(lams[-1] - lams[-2]) < 1e-12 <= abs(lams[0] - lams[1])

    def test_adjoint_audit_reuses_the_eigenfunction_weights(self):
        # audit-all integrates both on mu and on one grid: one weight build
        rng = np.random.default_rng(5)
        mu = AtomicMeasure.normalized(
            rng.uniform(0.0, 1.0, 2000), rng.uniform(0.0, 1.0, 2000), (0.0, 1.0)
        )
        rep = power_iteration(tent_map(), bern_potential(), grid_size=256, mu=mu)
        w = mu.hat_weights(rep.h.grid)
        probes = [np.cos, smoothed_indicator(0.2, 0.4)]
        dev = adjoint_invariance_audit(
            tent_map(), bern_potential(), rep.log_eigenvalue, mu, probes,
            grid_size=256,
        )
        assert mu.hat_weights(rep.h.grid) is w
        pointwise = 0.0
        for fn in probes:
            psi = GridFunction.from_callable(fn, 256)
            image = apply_transfer(tent_map(), bern_potential(), psi, rep.log_eigenvalue)
            pointwise = max(pointwise, abs(mu.integrate(image) - mu.integrate(psi)))
        assert dev == pytest.approx(pointwise, abs=1e-15)

    def test_cohomology_invariance_of_log_lambda(self):
        tent = tent_map()
        base = power_iteration(tent, bern_potential(), grid_size=1024)
        for window in (2, 3, 5):
            phi_n = AveragedPotential(tent, bern_potential(), window)
            rep = power_iteration(tent, phi_n, grid_size=1024)
            assert abs(rep.log_eigenvalue - base.log_eigenvalue) <= 1e-2

    def test_eigenvalue_matches_tree_pressure(self):
        cases = [
            (tent_map(), None, 12),
            (tent_map(), bern_potential(), 12),
            (full_linear_map(4), None, 9),
            (logistic4_map(), None, 12),
        ]
        for imap, phi, depth in cases:
            rep = power_iteration(imap, phi, grid_size=1024)
            tree = tree_pressure(imap, phi, 0.3, depth)
            bound = max(2.0 * tree.fluctuation, 1e-2)
            assert abs(rep.log_eigenvalue - tree.estimate) <= bound


class TestEquilibriumState:
    def test_tent_zero_potential_uniform(self):
        rep = power_iteration(tent_map(), None, grid_size=1024)
        mu = uniform_atoms(4096, (0.0, 1.0))
        eq = equilibrium_state(None, mu, rep, hyperbolic=True)
        bins = eq.nu.bin_masses(16)
        assert np.ptp(bins) <= 1e-12
        assert eq.entropy == pytest.approx(LOG2, abs=1e-12)

    def test_bernoulli_entropy(self):
        rep = power_iteration(tent_map(), bern_potential(), grid_size=1024)
        mu = tent_bernoulli_atoms(P0, 12)
        eq = equilibrium_state(bern_potential(), mu, rep, hyperbolic=True)
        expected = np.log(LAM_BERN) + (1.0 - P0)
        cross = -P0 * np.log(P0) - (1.0 - P0) * np.log(1.0 - P0)
        assert eq.potential_mean == pytest.approx(-(1.0 - P0), abs=1e-10)
        assert eq.entropy == pytest.approx(expected, abs=5e-3)
        assert eq.entropy == pytest.approx(cross, abs=5e-3)
        assert abs(eq.nu.masses.sum() - 1.0) <= 1e-12

    def test_constant_shift_leaves_nu_invariant(self):
        tent = tent_map()
        mu = tent_bernoulli_atoms(P0, 12)
        shifted = BranchConstantPotential((0.0, 0.5, 1.0), (0.7, -0.3))
        rep_a = power_iteration(tent, bern_potential(), grid_size=1024)
        rep_b = power_iteration(tent, shifted, grid_size=1024)
        eq_a = equilibrium_state(bern_potential(), mu, rep_a)
        eq_b = equilibrium_state(shifted, mu, rep_b)
        diff = np.max(np.abs(eq_a.nu.bin_masses(64) - eq_b.nu.bin_masses(64)))
        assert diff <= 1e-6
        assert rep_b.log_eigenvalue - rep_a.log_eigenvalue == pytest.approx(
            0.7, abs=1e-10
        )

    def test_nu_keeps_mu_atoms(self):
        # mu's atoms are sorted and distinct, so nu is built on them as
        # they are, with the masses the sorting constructor would give
        mu = tent_bernoulli_atoms(P0, 12)
        phi = CosineSeriesPotential((0.3,))
        rep = power_iteration(tent_map(), phi, grid_size=256)
        nu = equilibrium_state(phi, mu, rep).nu
        ref = AtomicMeasure.normalized(
            mu.points, mu.masses * rep.h(mu.points), mu.domain
        )
        assert nu.points is mu.points and nu.domain == mu.domain
        assert np.array_equal(nu.masses, ref.masses)
        assert np.array_equal(nu.points, ref.points)

    def test_grid_projection_matches_mu_entropy(self):
        # doubling + cos at depth 16: on mu's projection onto h's 4096-node
        # grid the potential mean is a grid sum, within O(G^-2) of nu's on
        # mu's 130560 atoms (the gap measured 5.3e-9)
        f, phi, depth = full_linear_map(2), CosineSeriesPotential((0.3, -0.2)), 16
        sums = level_sums(f, phi, 0.3, depth, retain=window(depth))
        mu = weak_limit(sums, transition_parameter(sums).c).measure
        rep = power_iteration(f, phi, grid_size=4096, mu=mu)
        grid = rep.h.grid
        on_grid = AtomicMeasure.normalized(grid, mu.hat_weights(grid), mu.domain)
        atoms = equilibrium_state(phi, mu, rep, hyperbolic=True)
        projected = equilibrium_state(phi, on_grid, rep, hyperbolic=True)
        assert mu.size > 10 * grid.size
        assert projected.entropy == pytest.approx(atoms.entropy, abs=1e-7)

    def test_nonpositive_entropy_fails_hyperbolic_audit(self):
        # a potential peaked at a non-periodic point has pressure far below
        # its supremum; a reference spike at the peak then yields
        # int phi dnu > log lambda and the entropy estimate goes negative
        tent = tent_map()
        peak = PiecewiseLinearPotential((0.0, 0.3, 1.0), (-8.0, 3.0, -8.0))
        rep = power_iteration(tent, peak, grid_size=512)
        spike = AtomicMeasure(
            points=np.array([0.3]), masses=np.array([1.0]), domain=(0.0, 1.0)
        )
        assert rep.log_eigenvalue < 3.0
        with pytest.raises(AuditError):
            equilibrium_state(peak, spike, rep, hyperbolic=True)
        # without the hyperbolic claim the state is still reported
        eq = equilibrium_state(peak, spike, rep, hyperbolic=False)
        assert eq.entropy < 0


    def test_eigenfunction_vanishing_on_mu_raises_audit_error(self):
        # h is 0 on [0, 1/2] and mu lives there, so nu has no mass to
        # normalize: an eigenpair failure, not a malformed measure
        grid = np.linspace(0.0, 1.0, 65)
        h = GridFunction(grid, np.clip(grid - 0.5, 0.0, None))
        rep = transfer.EigenReport(
            eigenvalue=2.0, log_eigenvalue=LOG2, h=h, residual=0.0,
            iterations=1, converged=True, lambda_history=np.array([2.0]),
        )
        mu = uniform_atoms(64, (0.0, 0.5))
        with pytest.raises(AuditError, match="nonpositive mass against mu"):
            equilibrium_state(None, mu, rep)

class TestAdjointInvariance:
    def test_constant_function_exact(self):
        dev = adjoint_invariance_audit(
            tent_map(), None, LOG2, uniform_atoms(4096, (0.0, 1.0)),
            [lambda x: np.ones_like(np.asarray(x, dtype=float))],
        )
        assert dev <= 1e-12

    def test_cosine_function(self):
        dev = adjoint_invariance_audit(
            tent_map(), None, LOG2, uniform_atoms(4096, (0.0, 1.0)),
            [lambda x: np.cos(np.pi * np.asarray(x, dtype=float))],
        )
        assert dev <= 5e-3

    def test_bernoulli_bump(self):
        dev = adjoint_invariance_audit(
            tent_map(), bern_potential(), np.log(LAM_BERN),
            tent_bernoulli_atoms(P0, 12),
            [smoothed_indicator(0.2, 0.4)],
        )
        assert dev <= 1e-2

    def test_ten_function_suite(self):
        mu = uniform_atoms(4096, (0.0, 1.0))
        fns = [
            lambda x: np.ones_like(np.asarray(x, dtype=float)),
            lambda x: np.asarray(x, dtype=float),
            lambda x: np.asarray(x, dtype=float) ** 2,
            lambda x: np.cos(np.pi * np.asarray(x, dtype=float)),
            lambda x: np.sin(2 * np.pi * np.asarray(x, dtype=float)),
            lambda x: np.exp(np.asarray(x, dtype=float)),
            smoothed_indicator(0.1, 0.3),
            smoothed_indicator(0.5, 0.9),
            lambda x: np.abs(np.asarray(x, dtype=float) - 0.37),
            lambda x: (np.asarray(x, dtype=float) >= 1.0 / 3.0).astype(float),
        ]
        dev = adjoint_invariance_audit(tent_map(), None, LOG2, mu, fns)
        assert dev <= 1e-2

    def test_grid_function_probe_is_resampled(self):
        # a GridFunction is one more callable: sampled on the audit grid
        mu = uniform_atoms(1024, (0.0, 1.0))
        coarse = GridFunction.from_callable(lambda x: np.cos(np.pi * x), 64)
        args = (tent_map(), None, LOG2, mu)
        dev = adjoint_invariance_audit(*args, [coarse], grid_size=512)
        assert dev == adjoint_invariance_audit(
            *args, [lambda x: coarse(x)], grid_size=512
        )


def step_third(x):
    return (np.asarray(x, dtype=float) <= 1.0 / 3.0).astype(float)


@lru_cache(maxsize=None)
def tent_lebesgue(grid_size):
    """Lebesgue (2^16 midpoint atoms) and the zero-potential tent eigenpair
    on it; h = 1, so nu is Lebesgue too."""
    mu = uniform_atoms(2**16, (0.0, 1.0))
    return mu, power_iteration(tent_map(), None, grid_size=grid_size, mu=mu)


def tent_correlation(observables, grid_size=4096, n_max=12):
    mu, eigen = tent_lebesgue(grid_size)
    return correlation(tent_map(), None, observables, mu, eigen, n_max=n_max)


@lru_cache(maxsize=None)
def tent_cosine_limit(depth=18, grid_size=4096):
    """Tent + cos [0.3, -0.2]: the depth-`depth` weak limit and the eigenpair
    normalized against it."""
    imap, phi = full_linear_map(2), CosineSeriesPotential((0.3, -0.2))
    sums = level_sums(imap, phi, 0.3, depth, retain=window(depth))
    mu = weak_limit(sums, transition_parameter(sums).c).measure
    return imap, phi, mu, power_iteration(imap, phi, grid_size=grid_size, mu=mu)


class TestCorrelation:
    def test_tent_cosine_autocorrelation_floor(self):
        cos = lambda x: np.cos(np.pi * np.asarray(x, dtype=float))
        rep = tent_correlation([cos]).reports[0]
        assert np.max(np.abs(rep.c_values)) <= 1e-10
        assert rep.below_resolution.all() and rep.rho is None

    def test_constant_observable_stays_at_its_floor(self):
        # C_n = 2.5 (int L-hat^n(2.5 h) dmu - int 2.5 h dmu): the defect
        # the floor is built from, so no lag resolves
        const = lambda x: np.full_like(np.asarray(x, dtype=float), 2.5)
        rep = tent_correlation([const], n_max=6).reports[0]
        assert np.max(np.abs(rep.c_values)) <= 1e-13
        assert rep.below_resolution[0] and rep.rho is None

    def test_smoothed_indicator_fit(self):
        obs = smoothed_indicator(0.0, 0.5)
        rep = tent_correlation([obs], n_max=10).reports[0]
        assert rep.rho is not None
        assert rep.rho <= 0.55
        assert rep.r_squared >= 0.9

    def test_sharp_step_closed_form(self):
        # the step at 1/3 feeds the invariant Fourier pair (1/3 -> 2/3 ->
        # 2/3): on Lebesgue its signed correlations are -(-1/2)^n / 9; the
        # grid smears the jump over one cell, an error that grows with n
        rep = tent_correlation([step_third], grid_size=16384, n_max=7).reports[0]
        expected = -((-0.5) ** rep.ns) / 9.0
        assert np.array_equal(np.sign(rep.c_values), np.sign(expected))
        rel = np.abs(rep.c_values / expected - 1.0)
        assert np.all(rel <= [2e-4, 6e-4, 1.2e-3, 2.5e-3, 5e-3, 1e-2, 2e-2])
        assert not rep.below_resolution.any()
        assert rep.rho == pytest.approx(0.5, abs=1e-2)
        assert rep.r_squared >= 0.999

    def test_tent_cosine_sine_decays_at_the_subdominant_ratio(self):
        # |lambda_2 / lambda_1| = 0.2755671353 for tent + cos [0.3, -0.2];
        # from lag 13 on C_n sits on a plateau near 1.7e-9, the depth-18
        # measure's own error, under the first image's defect floor
        imap, phi, mu, eigen = tent_cosine_limit()
        sine = lambda x: np.sin(2 * np.pi * np.asarray(x, dtype=float))
        rep = correlation(imap, phi, [sine], mu, eigen, n_max=20).reports[0]
        ratios = rep.c_values[5:10] / rep.c_values[4:9]  # C_n / C_{n-1}, n = 6..10
        assert np.all((0.27 <= ratios) & (ratios <= 0.28))
        assert np.all(np.abs(rep.c_values[14:]) >= 1e-9)
        assert not rep.below_resolution[:11].any()
        assert rep.below_resolution[11:].all()
        assert rep.rho < 1.0

    def test_floor_is_the_adjoint_defect_of_the_first_image(self):
        imap, phi, mu, eigen = tent_cosine_limit(depth=12, grid_size=512)
        obs = lambda x: 3.0 * smoothed_indicator(0.2, 0.5)(x)
        rep = correlation(imap, phi, [obs], mu, eigen).reports[0]
        defect = adjoint_invariance_audit(
            imap, phi, eigen.log_eigenvalue, mu, [lambda x: obs(x) * eigen.h(x)],
            grid_size=512,
        )
        sup = np.max(np.abs(obs(eigen.h.grid)))  # on the grid: below 3
        assert rep.floor == pytest.approx(sup * defect, rel=1e-9)
        assert rep.floor > transfer.CORRELATION_FLOOR

    def test_h_is_normalized_against_mu(self):
        # nu = h mu / int h dmu, as equilibrium_state builds it
        imap, phi, mu, eigen = tent_cosine_limit(depth=12, grid_size=512)
        scaled = dataclasses.replace(eigen, h=eigen.h.with_values(3.0 * eigen.h.values))
        obs = smoothed_indicator(0.2, 0.5)
        want = correlation(imap, phi, [obs], mu, eigen).reports[0]
        got = correlation(imap, phi, [obs], mu, scaled).reports[0]
        np.testing.assert_allclose(got.c_values, want.c_values, rtol=1e-12, atol=1e-18)

    def test_rejects_short_window(self):
        with pytest.raises(DomainError):
            tent_correlation([np.cos], n_max=3)

    def test_rejects_empty_observables(self):
        with pytest.raises(DomainError):
            tent_correlation([], grid_size=64, n_max=5)


class TestFitDecay:
    def test_lags_after_the_first_crossing_stay_below(self):
        # |C_3| is at the floor; the larger |C_4| after it is not resolved
        ns = np.arange(1, 6)
        cs = np.array([1e-2, -5e-3, 1e-13, 1e-3, 2e-4])
        rep = fit_decay(ns, cs, 1e-13)
        assert rep.below_resolution.tolist() == [False, False, True, True, True]
        assert rep.rho == pytest.approx(0.5, rel=1e-12)
        assert rep.prefactor == pytest.approx(2e-2, rel=1e-12)
        assert rep.r_squared == 1.0

    def test_fewer_than_two_resolved_lags_leave_no_fit(self):
        rep = fit_decay(np.arange(1, 6), np.array([1e-2, 1e-9, 1e-3, 1e-3, 1e-3]), 1e-8)
        assert rep.below_resolution.tolist() == [False, True, True, True, True]
        assert (rep.rho, rep.prefactor, rep.r_squared) == (None, None, None)


def assert_same_report(got, want):
    assert np.array_equal(got.ns, want.ns)
    assert np.array_equal(got.c_values, want.c_values)
    assert np.array_equal(got.below_resolution, want.below_resolution)
    assert (got.floor, got.rho, got.prefactor, got.r_squared) == (
        want.floor, want.rho, want.prefactor, want.r_squared
    )


@st.composite
def observable(draw):
    kind = draw(st.sampled_from(["smoothed", "step", "cosine", "grid"]))
    a = draw(st.floats(0.0, 0.7))
    b = a + draw(st.floats(0.05, 0.3))
    if kind == "smoothed":
        return smoothed_indicator(a, b, draw(st.floats(0.01, 0.2)))
    if kind == "step":
        return lambda x: (np.asarray(x, dtype=float) <= a).astype(float)
    freq = draw(st.integers(1, 4))
    if kind == "cosine":
        return lambda x: np.cos(np.pi * freq * np.asarray(x, dtype=float))
    return GridFunction.from_callable(lambda x: np.sin(freq * x) + b, 64)


class TestBatchedCorrelation:
    """Each observable of a batch is reduced on its own, with no atom moved."""

    @settings(deadline=None, max_examples=30)
    @given(
        observables=st.lists(observable(), min_size=1, max_size=3),
        n_max=st.integers(5, 9),
    )
    def test_each_report_equals_its_observable_alone(self, observables, n_max):
        batch = tent_correlation(observables, grid_size=256, n_max=n_max)
        assert isinstance(batch, CorrelationBatch)
        assert np.array_equal(batch.ns, np.arange(1, n_max + 1))
        assert len(batch.reports) == len(observables)
        for phi, rep in zip(observables, batch.reports):
            (alone,) = tent_correlation([phi], grid_size=256, n_max=n_max).reports
            assert_same_report(rep, alone)

    def test_prefix_refit_equals_shorter_run(self):
        # the floor is read from the first image, so it does not depend on n_max
        (rep,) = tent_correlation([step_third], n_max=12).reports
        for window in range(5, 13):
            (short,) = tent_correlation([step_third], n_max=window).reports
            assert_same_report(
                fit_decay(rep.ns[:window], rep.c_values[:window], rep.floor), short
            )

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_no_atom_moves(self, monkeypatch, count):
        # one normalized application per observable and lag, and no map evaluation
        evals, applied = [], []
        real_eval = IntervalMap.eval

        def counting(self, x):
            evals.append(np.size(x))
            return real_eval(self, x)

        def applying(imap, potential, psi, p_hat=None):
            applied.append(p_hat)
            return apply_transfer(imap, potential, psi, p_hat)

        # the eigenpair is built first: its own applications are not counted
        log_lam = tent_lebesgue(256)[1].log_eigenvalue
        monkeypatch.setattr(IntervalMap, "eval", counting)
        monkeypatch.setattr(transfer, "apply_transfer", applying)
        fns = [smoothed_indicator(0.1 * k, 0.1 * k + 0.3) for k in range(count)]
        batch = tent_correlation(fns, grid_size=256, n_max=7)
        assert len(batch.reports) == count
        assert evals == []
        assert applied == [log_lam] * (7 * count)


def test_tent_step_correlations_decay_at_half():
    # the sharp step at 1/3 feeds every frequency, so its autocorrelation
    # carries the essential rate 1/2
    rep = tent_correlation([step_third], n_max=7).reports[0]
    assert 0.45 <= rep.rho <= 0.55
    assert rep.r_squared >= 0.9


class TestGnContraction:
    """The iterated-weight contraction sup g_n < 1, g_n = exp(S_n phi - n log
    lambda), is the hyperbolicity inequality at P = log lambda: a witness at
    depth n with margin m gives sup g_n = exp(-n m)."""

    @staticmethod
    def sup_g_n(rep):
        return float(np.exp(-rep.witness_depth * rep.margin))

    def test_tent_zero_potential_immediate(self):
        rep = hyperbolicity_check(tent_map(), None, LOG2)
        assert rep.verdict == "hyperbolic"
        assert rep.witness_depth == 1
        assert self.sup_g_n(rep) == pytest.approx(0.5, abs=1e-12)

    def test_bernoulli_immediate(self):
        rep = hyperbolicity_check(tent_map(), bern_potential(), np.log(LAM_BERN))
        assert rep.verdict == "hyperbolic"
        assert rep.witness_depth == 1
        assert self.sup_g_n(rep) == pytest.approx(P0, abs=1e-12)

    def test_cosine_potential_contracts(self):
        phi = CosineSeriesPotential((2.0,))
        eig = power_iteration(tent_map(), phi, grid_size=1024)
        rep = hyperbolicity_check(tent_map(), phi, eig.log_eigenvalue)
        assert rep.verdict == "hyperbolic"
        assert self.sup_g_n(rep) < 1.0

    def test_zero_pressure_never_contracts(self):
        rep = hyperbolicity_check(tent_map(), None, 0.0, n_max=5)
        assert rep.verdict == "unknown"
        assert rep.witness_depth is None
        assert rep.margin == 0.0
