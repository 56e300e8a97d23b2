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

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pair_correlation, tent_bernoulli_atoms
from thermomap.conformal import AtomicMeasure, uniform_atoms
from thermomap.errors import AuditError, DomainError
from thermomap.maps import (
    IntervalMap,
    full_linear_map,
    golden_tent_map,
    logistic4_map,
    tent_map,
)
from thermomap.potentials import (
    AveragedPotential,
    BranchConstantPotential,
    CosineSeriesPotential,
    PiecewiseLinearPotential,
)
from thermomap.pressure import hyperbolicity_check, tree_pressure
from thermomap.transfer import (
    CORRELATION_CHUNK,
    CorrelationBatch,
    GridFunction,
    adjoint_invariance_audit,
    apply_transfer,
    correlation,
    equilibrium_state,
    fit_decay,
    power_iteration,
    smoothed_indicator,
    spectral_gap_estimate,
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

    def test_interpolates_linearly(self):
        g = GridFunction.from_callable(lambda x: 3.0 * x, 64)
        assert g(np.array([0.31])) == pytest.approx(0.93, abs=1e-12)


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
        # the cosine probe is annihilated in one step, so the deflated
        # subdominant estimate collapses to the honest floor value
        assert rep.rho_hat <= 0.51

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

    def test_non_convergence_flagged(self):
        rep = power_iteration(
            tent_map(), bern_potential(), grid_size=256, max_iter=1
        )
        assert not rep.converged

    def test_invariants(self):
        rep = power_iteration(tent_map(), bern_potential(), grid_size=256)
        assert rep.eigenvalue > 0
        assert np.all(rep.h.values >= 0)
        assert rep.residual <= 1e-10

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
        eq = equilibrium_state(tent_map(), None, mu, rep, hyperbolic=True)
        bins = eq.nu.bin_masses(16)
        assert np.ptp(bins) <= 1e-12
        assert eq.entropy == pytest.approx(LOG2, abs=1e-12)

    def test_bernoulli_entropy(self):
        rep = power_iteration(tent_map(), bern_potential(), grid_size=1024)
        mu = tent_bernoulli_atoms(P0, 12)
        eq = equilibrium_state(
            tent_map(), bern_potential(), mu, rep, hyperbolic=True
        )
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
        eq_a = equilibrium_state(tent, bern_potential(), mu, rep_a)
        eq_b = equilibrium_state(tent, shifted, mu, rep_b)
        diff = np.max(np.abs(eq_a.nu.bin_masses(64) - eq_b.nu.bin_masses(64)))
        assert diff <= 1e-6
        assert rep_b.log_eigenvalue - rep_a.log_eigenvalue == pytest.approx(
            0.7, abs=1e-10
        )

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
            equilibrium_state(tent, peak, spike, rep, hyperbolic=True)
        # without the hyperbolic claim the state is still reported
        eq = equilibrium_state(tent, peak, spike, rep, hyperbolic=False)
        assert eq.entropy < 0


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


class TestCorrelation:
    def test_tent_cosine_autocorrelation_floor(self):
        nu = uniform_atoms(2**16, (0.0, 1.0))
        rep = correlation(
            tent_map(),
            [lambda x: np.cos(np.pi * np.asarray(x, dtype=float))],
            [lambda x: np.cos(np.pi * np.asarray(x, dtype=float))],
            nu,
            n_max=12,
        ).reports[0]
        assert np.max(rep.c_values) <= 1e-10
        assert rep.below_resolution

    def test_constant_observable_zero(self):
        nu = uniform_atoms(1024, (0.0, 1.0))
        rep = correlation(
            tent_map(),
            [lambda x: np.full_like(np.asarray(x, dtype=float), 2.5)],
            [lambda x: np.asarray(x, dtype=float)],
            nu,
            n_max=6,
        ).reports[0]
        assert np.max(rep.c_values) <= 1e-13

    def test_smoothed_indicator_fit(self):
        nu = uniform_atoms(2**18, (0.0, 1.0))
        obs = smoothed_indicator(0.0, 0.5)
        rep = correlation(tent_map(), [obs], [obs], nu, n_max=10).reports[0]
        assert rep.rho is not None
        assert rep.rho <= 0.55
        assert rep.r_squared >= 0.9

    def test_sharp_generic_indicator_rate_half(self):
        # a step at 1/3 feeds the invariant Fourier pair (1/3 -> 2/3 -> 2/3),
        # giving exactly geometric decay C_n = (1/9) 2^{-n} on Lebesgue
        nu = uniform_atoms(2**18, (0.0, 1.0))
        obs = lambda x: (np.asarray(x, dtype=float) <= 1.0 / 3.0).astype(float)
        rep = correlation(tent_map(), [obs], [obs], nu, n_max=7).reports[0]
        expected = (1.0 / 9.0) * 0.5 ** np.arange(1, 8)
        # early lags are resolution-exact; the deepest carry the atom
        # lattice's boundary-counting error, a few percent at 2^18 atoms
        np.testing.assert_allclose(rep.c_values[:4], expected[:4], rtol=1e-3)
        np.testing.assert_allclose(rep.c_values, expected, rtol=7e-2)
        assert rep.rho == pytest.approx(0.5, abs=1e-2)
        assert rep.r_squared >= 0.999

    def test_rejects_short_window(self):
        with pytest.raises(DomainError):
            correlation(
                tent_map(),
                [lambda x: np.asarray(x, dtype=float)],
                [lambda x: np.asarray(x, dtype=float)],
                uniform_atoms(64, (0.0, 1.0)),
                n_max=3,
            )


CHUNK_COUNTS = (
    1,
    CORRELATION_CHUNK - 1,
    CORRELATION_CHUNK,
    CORRELATION_CHUNK + 1,
    3 * CORRELATION_CHUNK + 5,
)
CORRELATION_MAPS = {
    "tent": tent_map(),
    "doubling": full_linear_map(2),
    "logistic4": logistic4_map(),
}


@lru_cache(maxsize=None)
def small_eigen(name):
    imap = CORRELATION_MAPS[name]
    return power_iteration(imap, CosineSeriesPotential((0.3,)), grid_size=256)


def assert_same_report(got, want):
    assert np.array_equal(got.ns, want.ns)
    assert np.array_equal(got.c_values, want.c_values)
    assert (got.rho, got.prefactor, got.r_squared, got.below_resolution) == (
        want.rho, want.prefactor, want.r_squared, want.below_resolution
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
    """`correlation` pushes the atoms forward once for every observable pair
    and reduces each lag chunk by chunk; `helpers.pair_correlation` is the
    old full-array loop, one pushforward per pair."""

    @settings(deadline=None, max_examples=30)
    @given(
        name=st.sampled_from(sorted(CORRELATION_MAPS)),
        count=st.sampled_from(CHUNK_COUNTS),
        kind=st.sampled_from(["uniform", "random", "equilibrium"]),
        pairs=st.lists(
            st.tuples(observable(), observable(), st.booleans()),
            min_size=1, max_size=3,
        ),
        n_max=st.integers(5, 9),
        seed=st.integers(0, 2**16),
    )
    def test_bit_equal_to_pair_loop(self, name, count, kind, pairs, n_max, seed):
        imap = CORRELATION_MAPS[name]
        if kind == "uniform":
            nu = uniform_atoms(count)
        else:
            rng = np.random.default_rng(seed)
            nu = AtomicMeasure.normalized(
                rng.uniform(0.0, 1.0, count), rng.uniform(0.1, 2.0, count),
                (0.0, 1.0),
            )
            if kind == "equilibrium":
                nu = equilibrium_state(
                    imap, CosineSeriesPotential((0.3,)), nu, small_eigen(name)
                ).nu
        phis = [phi for phi, _, _ in pairs]
        psis = [phi if same else psi for phi, psi, same in pairs]
        batch = correlation(imap, phis, psis, nu, n_max=n_max)
        assert isinstance(batch, CorrelationBatch)
        assert np.array_equal(batch.ns, np.arange(1, n_max + 1))
        assert len(batch.reports) == len(pairs)
        for phi, psi, rep in zip(phis, psis, batch.reports):
            assert_same_report(rep, pair_correlation(imap, phi, psi, nu, n_max))

    @pytest.mark.parametrize("pairs", [1, 2, 3])
    def test_one_pushforward_whatever_the_pairs(self, monkeypatch, pairs):
        calls = []
        real_eval = IntervalMap.eval

        def counting(self, x):
            calls.append(np.size(x))
            return real_eval(self, x)

        monkeypatch.setattr(IntervalMap, "eval", counting)
        fns = [smoothed_indicator(0.1 * k, 0.1 * k + 0.3) for k in range(pairs)]
        nu = uniform_atoms(2 * CORRELATION_CHUNK + 3)
        batch = correlation(tent_map(), fns, fns[::-1], nu, n_max=7)
        assert len(batch.reports) == pairs
        assert calls == [nu.size] * 7

    def test_prefix_refit_equals_shorter_run(self):
        # what scripts/correlation_floor.py relies on for its clean window
        obs = lambda x: (np.asarray(x, dtype=float) <= 1.0 / 3.0).astype(float)
        nu = uniform_atoms(2**12)
        full = correlation(full_linear_map(2), [obs], [obs], nu, n_max=12)
        (rep,) = full.reports
        for window in range(5, 13):
            short = correlation(full_linear_map(2), [obs], [obs], nu, n_max=window)
            assert_same_report(
                fit_decay(rep.ns[:window], rep.c_values[:window]), short.reports[0]
            )

    @pytest.mark.parametrize(
        "phis, psis",
        [
            ([np.cos], [np.cos, np.sin]),
            ([], []),
        ],
        ids=["unequal", "empty"],
    )
    def test_rejects_mismatched_observables(self, phis, psis):
        with pytest.raises(DomainError):
            correlation(tent_map(), phis, psis, uniform_atoms(64), n_max=5)


class TestSpectralGap:
    def test_tent_gap_near_half(self):
        mu = uniform_atoms(2**18, (0.0, 1.0))
        gap = spectral_gap_estimate(tent_map(), None, 1024, mu)
        assert 0.45 <= gap.value <= 0.55
        assert gap.corr.r_squared >= 0.9

    def test_bernoulli_strict_gap(self):
        mu = tent_bernoulli_atoms(P0, 12)
        gap = spectral_gap_estimate(tent_map(), bern_potential(), 1024, mu)
        assert gap.value < 0.95
        assert gap.eigen.eigenvalue * gap.value < gap.eigen.eigenvalue

    def test_constant_shift_leaves_gap_invariant(self):
        mu = tent_bernoulli_atoms(P0, 12)
        shifted = BranchConstantPotential((0.0, 0.5, 1.0), (0.7, -0.3))
        g_a = spectral_gap_estimate(tent_map(), bern_potential(), 1024, mu)
        g_b = spectral_gap_estimate(tent_map(), shifted, 1024, mu)
        assert abs(g_a.value - g_b.value) <= 1e-3

    def test_disagreement_flag_logic(self):
        mu = tent_bernoulli_atoms(P0, 12)
        gap = spectral_gap_estimate(tent_map(), bern_potential(), 1024, mu)
        if gap.correlation_rate is None or min(
            gap.deflation_rate, gap.correlation_rate
        ) <= 0:
            assert not gap.flagged
        else:
            ratio = max(gap.deflation_rate, gap.correlation_rate) / min(
                gap.deflation_rate, gap.correlation_rate
            )
            assert gap.flagged == (ratio > 2.0)


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
