"""Tree and separated-set pressure, classifiers, curve probe, construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermomap.errors import BudgetError, DomainError
from thermomap.maps import (
    full_linear_map,
    golden_tent_map,
    logistic4_map,
    tent_map,
)
from thermomap.potentials import (
    BranchConstantPotential,
    ConstantPotential,
    CosineSeriesPotential,
)
from thermomap.pressure import (
    appendix_construct,
    bounded_range_check,
    hyperbolicity_check,
    level_sums,
    pressure_curve,
    pressure_report,
    separated_pressure,
    topological_entropy,
    tree_pressure,
)

LOG2 = np.log(2.0)
GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0
BERNOULLI_PRESSURE = np.log(1.0 + np.exp(-1.0))


def test_tent_entropy_is_log2_at_machine_precision():
    rep = topological_entropy(tent_map(), 0.3, n_max=15)
    assert rep.estimate == pytest.approx(LOG2, abs=1e-10)
    assert rep.fluctuation < 1e-12
    assert rep.complete


def test_four_branch_entropy_is_log4():
    rep = topological_entropy(full_linear_map(4), 0.3, n_max=8)
    assert rep.estimate == pytest.approx(np.log(4.0), abs=1e-10)
    assert rep.fluctuation < 1e-12


def test_logistic_counting_entropy_is_log2():
    # two preimages per interior point regardless of nonlinearity
    rep = topological_entropy(logistic4_map(), 0.3, n_max=12)
    assert rep.estimate == pytest.approx(LOG2, abs=1e-10)


def test_branch_constant_pressure_factorizes_at_every_depth():
    f = tent_map()
    phi = BranchConstantPotential.from_map(f, [0.0, -1.0])
    rep = tree_pressure(f, phi, 0.3, 15)
    assert np.allclose(rep.p_values, BERNOULLI_PRESSURE, atol=1e-10)
    assert rep.fluctuation <= 1e-12
    assert rep.estimate == pytest.approx(BERNOULLI_PRESSURE, abs=1e-10)


def test_golden_tent_entropy_estimate_carries_depth_drift():
    # level counts follow the Fibonacci recursion, so the depth-n value is
    # log(golden) - log(C sqrt(5)^-1 ...)/n; the finite-depth estimate sits
    # below the true value by an O(1/n) offset that has not died out by
    # depth 18
    rep = topological_entropy(golden_tent_map(), 0.3, n_max=18)
    true = np.log(GOLDEN)
    assert rep.estimate < true - 5e-3
    assert rep.estimate > true - 0.03
    # the offset is the only obstruction: n * (p_n - log golden) stabilizes
    drift = rep.depths * (rep.p_values - true)
    assert abs(drift[-1] - drift[-2]) < 1e-3


def test_tree_pressure_rejects_breakpoint_base():
    with pytest.raises(DomainError):
        tree_pressure(tent_map(), None, 0.5, 5)
    with pytest.raises(DomainError):
        tree_pressure(tent_map(), None, 0.0, 5)


def test_tree_pressure_partial_budget():
    rep = tree_pressure(
        tent_map(), None, 0.3, 24, budget=1000, partial_on_budget=True
    )
    assert not rep.complete
    assert rep.feasible_depth == 8
    assert rep.depths[-1] == 8
    assert rep.estimate == pytest.approx(LOG2, abs=1e-10)


def test_tree_pressure_partial_budget_below_n_min_raises():
    with pytest.raises(BudgetError, match="feasible max depth is 8"):
        tree_pressure(
            tent_map(), None, 0.3, 24, n_min=9, budget=1000, partial_on_budget=True
        )


class TestLevelSums:
    def test_sums_and_retained_levels(self):
        phi = CosineSeriesPotential((0.3, -0.2))
        sums = level_sums(tent_map(), phi, 0.3, 9, retain_from=6, retain_to=8)
        assert sums.depth == 9 and sums.complete and sums.feasible_depth is None
        assert [p.size for p in sums.points] == [64, 128, 256]
        for birk, a in zip(sums.birkhoff, sums.a_values[5:8]):
            assert np.log(np.sum(np.exp(birk))) == pytest.approx(a, abs=1e-12)
        assert level_sums(tent_map(), phi, 0.3, 9).points == ()

    def test_upto_cuts_sums_and_levels(self):
        sums = level_sums(tent_map(), None, 0.3, 10, retain_from=4)
        head = sums.upto(6)
        assert head.depth == 6
        np.testing.assert_array_equal(head.a_values, sums.a_values[:6])
        assert [p.size for p in head.points] == [16, 32, 64]
        assert sums.upto(10) is sums
        with pytest.raises(DomainError, match="stop at depth 10"):
            sums.upto(11)

    def test_report_of_one_walk_matches_streaming_estimator(self):
        phi = CosineSeriesPotential((0.3, -0.2))
        sums = level_sums(tent_map(), phi, 0.3, 12, retain_from=7)
        for n_max, n_min in ((12, 1), (9, 1), (9, 4)):
            got = pressure_report(sums, n_max, n_min)
            ref = tree_pressure(tent_map(), phi, 0.3, n_max, n_min=n_min)
            assert got.estimate == ref.estimate
            assert got.fluctuation == ref.fluctuation
            np.testing.assert_array_equal(got.p_values, ref.p_values)
            assert got.requested_depth == n_max and got.complete

    def test_partial_walk(self):
        sums = level_sums(
            tent_map(), None, 0.3, 24, budget=1000, partial_on_budget=True
        )
        assert not sums.complete
        assert sums.depth == sums.feasible_depth == 8
        assert sums.upto(24) is sums
        assert sums.upto(5).complete
        with pytest.raises(BudgetError):
            level_sums(tent_map(), None, 0.3, 24, budget=1000)


def test_separated_singleton_when_epsilon_exceeds_diameter():
    f = tent_map()
    phi = CosineSeriesPotential((0.2,), offset=0.1)
    est = separated_pressure(f, phi, 1, 2.0, 100)
    assert est.count == 1
    xs = np.linspace(0, 1, 100)
    assert est.value == pytest.approx(float(np.max(phi(xs))))
    assert est.verified


def test_separated_zero_potential_value_counts_points():
    # with zero weights the value is exactly log(count)/n; at fine epsilon
    # nearly the whole grid is pairwise separated and the estimate saturates
    # far above the entropy (the packing factor C(eps) dominates)
    est = separated_pressure(tent_map(), None, 8, 0.01, 2000)
    assert est.verified
    assert est.value == pytest.approx(np.log(est.count) / 8, abs=1e-12)
    assert est.count > 1900
    assert est.value > LOG2 + 0.2


def test_separated_count_shrinks_with_epsilon():
    coarse = separated_pressure(tent_map(), None, 10, 0.3, 4000)
    fine = separated_pressure(tent_map(), None, 10, 0.05, 4000)
    assert coarse.count < fine.count
    assert coarse.value < fine.value
    assert coarse.verified and fine.verified


def test_separated_cross_validation_at_matched_scale():
    # the greedy packing is a lower bound with a deficit that grows with
    # depth; at n=10, eps=0.3 it lands close to the tree value on the
    # Markov oracle and stays within a documented band elsewhere
    est = separated_pressure(golden_tent_map(), None, 10, 0.3, 10_000)
    assert abs(est.value - np.log(GOLDEN)) <= 0.05
    est = separated_pressure(logistic4_map(), None, 10, 0.3, 10_000)
    assert -0.12 <= est.value - LOG2 <= 0.05
    est = separated_pressure(tent_map(), None, 10, 0.3, 10_000)
    assert -0.15 <= est.value - LOG2 <= 0.05


def test_separated_weighted_matches_bernoulli_closed_form():
    f = tent_map()
    phi = BranchConstantPotential.from_map(f, [0.0, -1.0])
    est = separated_pressure(f, phi, 10, 0.3, 10_000)
    assert abs(est.value - BERNOULLI_PRESSURE) <= 0.05


def test_hyperbolicity_immediate_for_zero_potential():
    rep = hyperbolicity_check(tent_map(), None, LOG2)
    assert rep.verdict == "hyperbolic"
    assert rep.witness_depth == 1
    assert rep.margin == pytest.approx(LOG2)


def test_hyperbolicity_bernoulli_margin():
    f = tent_map()
    phi = BranchConstantPotential.from_map(f, [0.0, -1.0])
    rep = hyperbolicity_check(f, phi, BERNOULLI_PRESSURE)
    assert rep.verdict == "hyperbolic"
    assert rep.witness_depth == 1
    assert rep.margin == pytest.approx(BERNOULLI_PRESSURE, abs=1e-9)


def test_hyperbolicity_unknown_at_equality():
    rep = hyperbolicity_check(tent_map(), ConstantPotential(LOG2), LOG2, n_max=10)
    assert rep.verdict == "unknown"
    assert rep.witness_depth is None


def test_bounded_range_check():
    assert bounded_range_check((0.0, 0.0), LOG2)
    assert not bounded_range_check((0.0, -1.0), LOG2)
    assert not bounded_range_check((-np.log(4) - 0.5, 0.0), np.log(4))


def test_pressure_curve_matches_closed_form():
    f = tent_map()
    chi = BranchConstantPotential.from_map(f, [0.0, -1.0])
    ts = np.linspace(-1.0, 1.0, 21)
    curve = pressure_curve(f, None, chi, ts, n_max=6)
    exact = np.log(1.0 + np.exp(-ts))
    assert np.allclose(curve.estimates, exact, atol=1e-9)
    i0 = 10  # t = 0
    assert curve.ts[i0] == 0.0
    assert curve.first_diff[i0] == pytest.approx(-0.5, abs=1e-5)
    assert curve.second_diff[i0] == pytest.approx(0.25, abs=1e-2)
    assert np.isnan(curve.first_diff[0]) and np.isnan(curve.first_diff[-1])
    assert curve.fit_residual <= 1e-6
    assert curve.fit_points == 5


def test_pressure_curve_constant_direction_is_linear():
    f = tent_map()
    chi = ConstantPotential(0.7)
    ts = np.linspace(-1.0, 1.0, 9)
    curve = pressure_curve(f, None, chi, ts, n_max=5)
    assert np.allclose(curve.estimates, LOG2 + 0.7 * ts, atol=1e-11)
    inner = curve.second_diff[1:-1]
    assert np.max(np.abs(inner)) < 1e-8


def test_pressure_curve_rejects_nonuniform_grid():
    with pytest.raises(DomainError):
        pressure_curve(
            tent_map(), None, ConstantPotential(1.0), [0.0, 0.1, 0.3, 0.5, 0.6]
        )


def test_constant_shift_calibration():
    f = tent_map()
    phi = CosineSeriesPotential((0.3,), offset=-0.2)
    shifted = phi + ConstantPotential(0.7)
    rep = tree_pressure(f, phi, 0.41, 10)
    rep_shift = tree_pressure(f, shifted, 0.41, 10)
    assert np.allclose(rep_shift.p_values - rep.p_values, 0.7, atol=1e-12)


def test_base_point_dependence_decays_with_depth():
    # level sums from different base points differ by a bounded prefactor,
    # so the estimates drift apart by O(1/n) and reconverge as depth grows
    f = tent_map()
    phi = CosineSeriesPotential((0.3, -0.1), offset=0.1)
    diffs = {}
    for depth in (7, 14):
        r1 = tree_pressure(f, phi, 0.31, depth)
        r2 = tree_pressure(f, phi, 0.77, depth)
        diffs[depth] = abs(r1.estimate - r2.estimate)
    assert diffs[14] <= 0.05
    assert diffs[14] < 0.7 * diffs[7]


def test_appendix_construction_certificates():
    rep = appendix_construct(np.log(4.0))
    assert rep.sup_phi == pytest.approx(0.0, abs=1e-12)
    assert rep.inf_phi == pytest.approx(-(np.log(4.0) + 0.5), abs=1e-12)
    assert rep.phi_range == pytest.approx(np.log(4.0) + 0.5, abs=1e-12)
    assert rep.entropy.estimate == pytest.approx(np.log(4.0), abs=1e-10)
    # two branches carry zero weight, so every level sum is at least 2^n
    assert rep.pressure.estimate >= LOG2 - 0.01
    assert rep.hyperbolic
    assert rep.sup_phi < rep.pressure.estimate
    assert not rep.bounded_range
    assert rep.phi_at_fixed_point < -rep.gap


def test_appendix_small_gap_still_unbounded_range():
    rep = appendix_construct(0.1, n_max=7)
    assert rep.phi_range == pytest.approx(0.6)
    assert not bounded_range_check((rep.inf_phi, rep.sup_phi), rep.gap)


@settings(deadline=None, max_examples=25)
@given(
    v=st.tuples(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    )
)
def test_branch_constant_factorization_property(v):
    f = full_linear_map(3)
    phi = BranchConstantPotential.from_map(f, list(v))
    rep = tree_pressure(f, phi, 0.29, 6)
    oracle = np.log(np.sum(np.exp(np.asarray(v))))
    assert np.allclose(rep.p_values, oracle, atol=1e-10)
