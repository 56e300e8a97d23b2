"""Tree and separated-set pressure, classifiers, curve probe, construction."""

import dataclasses
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from helpers import greedy_separated, lockstep_curve_reports, tent_map, verify_separated
from thermomap import maps, pressure
from thermomap.errors import BudgetError, DomainError
from thermomap.maps import (
    forward_orbit,
    full_linear_map,
    golden_tent_map,
    logistic4_map,
    pw_linear_map,
)
from thermomap.potentials import (
    BranchConstantPotential,
    ConstantPotential,
    CosineSeriesPotential,
)
from thermomap.pressure import (
    PressureReport,
    SeparatedSetEstimate,
    _admit,
    _close_pairs,
    _level_lse,
    _verify_separated,
    appendix_construct,
    hyperbolicity_check,
    level_sums,
    pressure_curve,
    pressure_report,
    reject_base_point,
    separated_pressure,
    tree_pressure,
)

LOG2 = np.log(2.0)
GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0
BERNOULLI_PRESSURE = np.log(1.0 + np.exp(-1.0))


def test_tent_entropy_is_log2_at_machine_precision():
    rep = tree_pressure(tent_map(), None, 0.3, 15)
    assert rep.estimate == pytest.approx(LOG2, abs=1e-10)
    assert rep.fluctuation < 1e-12
    assert rep.complete


def test_four_branch_entropy_is_log4():
    rep = tree_pressure(full_linear_map(4), None, 0.3, 8)
    assert rep.estimate == pytest.approx(np.log(4.0), abs=1e-10)
    assert rep.fluctuation < 1e-12


def test_logistic_counting_entropy_is_log2():
    # two preimages per interior point regardless of nonlinearity
    rep = tree_pressure(logistic4_map(), None, 0.3, 12)
    assert rep.estimate == pytest.approx(LOG2, abs=1e-10)


def test_branch_constant_pressure_factorizes_at_every_depth():
    f = tent_map()
    phi = BranchConstantPotential((0.0, 0.5, 1.0), (0.0, -1.0))
    rep = tree_pressure(f, phi, 0.3, 15)
    assert np.allclose(rep.p_values, BERNOULLI_PRESSURE, atol=1e-10)
    assert rep.fluctuation <= 1e-12
    assert rep.estimate == pytest.approx(BERNOULLI_PRESSURE, abs=1e-10)


def test_golden_tent_entropy_estimate_carries_depth_drift():
    # level counts follow the Fibonacci recursion, so the depth-n value is
    # log(golden) - log(C sqrt(5)^-1 ...)/n; the finite-depth estimate sits
    # below the true value by an O(1/n) offset that has not died out by
    # depth 18
    rep = tree_pressure(golden_tent_map(), None, 0.3, 18)
    true = np.log(GOLDEN)
    assert rep.estimate < true - 5e-3
    assert rep.estimate > true - 0.03
    # the offset is the only obstruction: n * (p_n - log golden) stabilizes
    drift = rep.depths * (rep.p_values - true)
    assert abs(drift[-1] - drift[-2]) < 1e-3


def test_tree_pressure_rejects_breakpoint_base():
    with pytest.raises(DomainError):
        tree_pressure(tent_map(), None, 0.5, 5)


@pytest.mark.parametrize("x0, counts", [(0.0, [2, 3, 5, 9]), (1.0, [1, 2, 4, 8])])
def test_tree_pressure_walks_the_domain_ends(x0, counts):
    # an end lies in one branch only: 1 has the single preimage 1/2, where
    # both branches meet, and 0 the preimages 0 and 1, so the walk from 0
    # counts 2^(n-1) + 1 points and the one from 1 counts 2^(n-1)
    sums = level_sums(tent_map(), None, x0, 4)
    assert sums.counts.tolist() == counts
    assert tree_pressure(tent_map(), None, x0, 4).complete


def test_one_branch_map_has_no_breakpoint_to_reject():
    flip = pw_linear_map([0.0, 1.0], [-1.0], [1.0])
    for x0 in (0.0, 0.5, 1.0):
        reject_base_point(flip, x0)
    with pytest.raises(DomainError, match="outside domain"):
        reject_base_point(flip, 1.5)


def test_tree_pressure_partial_budget():
    rep = tree_pressure(
        tent_map(), None, 0.3, 24, budget=1000, partial_on_budget=True
    )
    assert not rep.complete
    assert rep.feasible_depth == 8
    assert rep.depths[-1] == 8
    assert rep.estimate == pytest.approx(LOG2, abs=1e-10)


def test_tree_pressure_partial_budget_without_a_level_raises():
    with pytest.raises(BudgetError, match="feasible max depth is 0"):
        tree_pressure(tent_map(), None, 0.3, 24, budget=2, partial_on_budget=True)


class TestLevelSums:
    def test_sums_and_retained_levels(self):
        phi = CosineSeriesPotential((0.3, -0.2))
        sums = level_sums(tent_map(), phi, 0.3, 9, retain=range(6, 9))
        assert sums.depth == 9 and sums.complete and sums.feasible_depth is None
        assert [lv.points.size for lv in sums.levels] == [64, 128, 256]
        for lv, a in zip(sums.levels, sums.a_values[5:8]):
            assert np.log(np.sum(np.exp(lv.birkhoff))) == pytest.approx(a, abs=1e-12)
        assert level_sums(tent_map(), phi, 0.3, 9).levels == ()

    def test_upto_cuts_sums_and_levels(self):
        sums = level_sums(tent_map(), None, 0.3, 10, retain=range(4, 11))
        head = sums.upto(6)
        assert head.depth == 6
        np.testing.assert_array_equal(head.a_values, sums.a_values[:6])
        np.testing.assert_array_equal(head.counts, [2, 4, 8, 16, 32, 64])
        assert [lv.points.size for lv in head.levels] == [16, 32, 64]
        assert sums.upto(10) is sums
        with pytest.raises(DomainError, match="stop at depth 10"):
            sums.upto(11)

    def test_retain_keeps_exactly_the_depths_of_its_range(self):
        phi = CosineSeriesPotential((0.3, -0.2))
        walk = list(maps.iter_preimage_levels(tent_map(), phi, 0.3, 9))
        sums = level_sums(tent_map(), phi, 0.3, 9, retain=range(3, 9, 2))
        assert [lv.depth for lv in sums.levels] == [3, 5, 7]
        for lv in sums.levels:
            assert lv.points.tobytes() == walk[lv.depth].points.tobytes()
            assert lv.birkhoff.tobytes() == walk[lv.depth].birkhoff.tobytes()

    def test_upto_keeps_the_retained_levels_it_reaches_bit_for_bit(self):
        phi = CosineSeriesPotential((0.3, -0.2))
        sums = level_sums(tent_map(), phi, 0.3, 10, retain=range(3, 11, 2))
        bits = {lv.depth: (lv.points.tobytes(), lv.birkhoff.tobytes())
                for lv in sums.levels}
        for n in (2, 3, 6, 9):
            head = sums.upto(n)
            assert [lv.depth for lv in head.levels] == [d for d in (3, 5, 7, 9) if d <= n]
            for lv in head.levels:
                assert (lv.points.tobytes(), lv.birkhoff.tobytes()) == bits[lv.depth]

    def test_report_of_one_walk_matches_streaming_estimator(self):
        phi = CosineSeriesPotential((0.3, -0.2))
        sums = level_sums(tent_map(), phi, 0.3, 12, retain=range(7, 13))
        for n_max in (12, 9):
            got = pressure_report(sums, n_max)
            ref = tree_pressure(tent_map(), phi, 0.3, n_max)
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


def _lse_cases():
    rng = np.random.default_rng(12)
    cases = {}
    # both sides of numpy's pairwise-sum blocks (8 and 128 elements) and of
    # a 2^16 block
    for n in (1, 7, 8, 9, 127, 128, 129, 2**16 + 1):
        a = rng.normal(0.0, 3.0, n)
        cases[f"normal-{n}"] = a - 40.0
        # a max of 0 leaves the rounding of the shifted sum visible
        a -= a.max()
        cases[f"max-zero-{n}"] = a
        tied = a.copy()
        tied[rng.integers(0, n, max(1, n // 4))] = a.max()
        cases[f"tied-{n}"] = tied
        holes = a.copy()
        holes[rng.integers(0, n, max(1, n // 3))] = -np.inf
        cases[f"neg-inf-{n}"] = holes
        cases[f"zeros-{n}"] = np.zeros(n)
    cases["one"] = np.array([-2.5])
    cases["all-neg-inf"] = np.full(9, -np.inf)
    cases["pos-inf"] = np.array([0.0, np.inf, -1.0])
    cases["nan"] = np.array([0.0, np.nan, -1.0])
    cases["huge"] = np.full(129, 1e308)
    return cases


LSE_CASES = _lse_cases()


@pytest.mark.parametrize("name", sorted(LSE_CASES))
def test_level_lse_bit_equal_to_scipy(name):
    a = LSE_CASES[name]
    before = a.copy()
    got, want = _level_lse(a), float(logsumexp(a))
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)
    assert np.array_equal(a, before, equal_nan=True)
    in_place = _level_lse(a.copy(), overwrite=True)
    assert np.float64(in_place).tobytes() == np.float64(want).tobytes()


_LSE_ENTRIES = st.one_of(
    st.floats(min_value=-800.0, max_value=800.0),
    st.sampled_from([0.0, -0.0, 3.5, -np.inf]),
    st.sampled_from([np.inf, np.nan]),
)


@settings(max_examples=300)
@given(a=st.one_of(
    st.lists(_LSE_ENTRIES, min_size=1, max_size=300).map(np.array),
    st.integers(min_value=1, max_value=40).map(lambda n: np.full(n, -np.inf)),
))
def test_in_place_level_lse_bit_equal_to_the_copying_call_and_scipy(a):
    # ties at the max come from the sampled values and -inf entries from
    # the sampled -inf; inf, nan or every entry -inf make the max the
    # result, which leaves the array as it was
    want = np.float64(logsumexp(a)).tobytes()
    before = a.copy()
    assert np.float64(_level_lse(a)).tobytes() == want
    assert np.array_equal(a, before, equal_nan=True)
    got = np.float64(_level_lse(a, overwrite=True)).tobytes()
    assert got == want
    if not np.isfinite(np.max(before)):
        assert np.array_equal(a, before, equal_nan=True)


@pytest.mark.parametrize(
    "imap, phi, x0, n, levels",
    [
        (full_linear_map(2), BranchConstantPotential((0.0, 0.5, 1.0), (0.0, -1.0)),
         0.31, 18, 4.0),
        (golden_tent_map(), None, 0.3, 26, 5.0),
        (full_linear_map(2), CosineSeriesPotential((0.3, -0.2)), 0.31, 16, 4.0),
    ],
    ids=["doubling-bernoulli", "golden-tent", "doubling-cosine"],
)
def test_tree_pressure_peak_memory_is_a_few_deepest_levels(
    imap, phi, x0, n, levels
):
    # the walk holds one level while it builds the next, and the level
    # reduction one level-sized temporary: under 4 float64 arrays of the
    # deepest level on a full map, under 5 where masked levels are gathered
    deepest = int(level_sums(imap, None, x0, n).counts[-1])
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tree_pressure(imap, phi, x0, n)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= levels * 8 * deepest, peak / (8 * deepest)


def _peak_arrays(run, deepest):
    """Traced peak of run() above what was live before, in float64 arrays
    of `deepest` entries."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return (tracemalloc.get_traced_memory()[1] - base) / (8 * deepest)
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize(
    "imap, phi, x0, n, levels",
    [
        (full_linear_map(2), BranchConstantPotential((0.0, 0.5, 1.0), (0.0, -1.0)),
         0.31, 18, 2.1),
        (golden_tent_map(), None, 0.3, 26, 2.3),
        (full_linear_map(2), CosineSeriesPotential((0.3, -0.2)), 0.31, 18, 2.1),
    ],
    ids=["doubling-bernoulli", "golden-tent", "doubling-cosine"],
)
def test_tree_pressure_peaks_at_the_deepest_build(imap, phi, x0, n, levels):
    # the walk builds a level's points, drops its parent's, and only then
    # writes the level's sums; the unretained deepest level takes them over
    # its own points and is reduced in place. So the peak is the deepest
    # points pass: the parent's points and sums and the deepest points, 2.0
    # arrays on a full map (2.24 where levels grow by the golden ratio).
    # The potential's temporaries of POTENTIAL_CHUNK points come on top of
    # the parent's sums and the deepest level alone, 1.5 arrays
    deepest = int(level_sums(imap, None, x0, n).counts[-1])
    arrays = _peak_arrays(lambda: tree_pressure(imap, phi, x0, n), deepest)
    assert arrays <= levels, arrays


def test_pressure_curve_peaks_at_the_deepest_build():
    # the build holds the parent's two rows of sums (1 array) and the
    # deepest points and sums (3); the reduction holds the deepest level
    # and one row that every t overwrites and reduces in place
    f, phi = full_linear_map(2), CosineSeriesPotential((0.3, -0.2))
    chi, ts = CosineSeriesPotential((0.0, 0.0, 1.0)), np.linspace(-1.0, 1.0, 21)
    arrays = _peak_arrays(
        lambda: pressure_curve(f, phi, chi, ts, 0.31, 18), 2**18
    )
    assert arrays <= 4.25, arrays


def test_retained_levels_survive_the_in_place_reduction():
    # the deepest level is reduced in place only when it is not retained
    phi = CosineSeriesPotential((0.3, -0.2))
    walk = list(maps.iter_preimage_levels(tent_map(), phi, 0.3, 9))
    for retain_from in (1, 7, 9):
        sums = level_sums(tent_map(), phi, 0.3, 9, retain=range(retain_from, 10))
        assert len(sums.levels) == 10 - retain_from
        for lv, kept in zip(walk[retain_from:], sums.levels):
            assert kept.points.tobytes() == lv.points.tobytes()
            assert kept.birkhoff.tobytes() == lv.birkhoff.tobytes()
        want = [_level_lse(lv.birkhoff) for lv in walk[1:]]
        assert sums.a_values.tobytes() == np.array(want).tobytes()


def test_separated_singleton_when_epsilon_exceeds_diameter():
    f = tent_map()
    phi = CosineSeriesPotential((0.2,), offset=0.1)
    est = separated_pressure(f, phi, 1, 2.0, 100)
    assert est.count == 1
    assert not est.saturated
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
    assert est.saturated


def test_separated_count_shrinks_with_epsilon():
    coarse = separated_pressure(tent_map(), None, 10, 0.3, 4000)
    fine = separated_pressure(tent_map(), None, 10, 0.05, 4000)
    assert coarse.count < fine.count
    assert coarse.value < fine.value
    assert coarse.verified and fine.verified
    assert not coarse.saturated


def test_separated_cross_validation_at_matched_scale():
    # the greedy packing is a lower bound with a deficit that grows with
    # depth; at n=10, eps=0.3 it lands close to the tree value on the
    # Markov oracle and stays within a documented band elsewhere
    est = separated_pressure(golden_tent_map(), None, 10, 0.3, 10_000)
    assert abs(est.value - np.log(GOLDEN)) <= 0.05
    assert not est.saturated
    est = separated_pressure(logistic4_map(), None, 10, 0.3, 10_000)
    assert -0.12 <= est.value - LOG2 <= 0.05
    est = separated_pressure(tent_map(), None, 10, 0.3, 10_000)
    assert -0.15 <= est.value - LOG2 <= 0.05


def test_separated_weighted_matches_bernoulli_closed_form():
    f = tent_map()
    phi = BranchConstantPotential((0.0, 0.5, 1.0), (0.0, -1.0))
    est = separated_pressure(f, phi, 10, 0.3, 10_000)
    assert abs(est.value - BERNOULLI_PRESSURE) <= 0.05


@pytest.mark.parametrize(
    "imap, phi, n, grid",
    [
        (tent_map(), BranchConstantPotential((0.0, 0.5, 1.0), (0.0, -1.0)), 10, 3000),
        (tent_map(), None, 10, 10_000),
        (full_linear_map(4), None, 10, 10_000),
    ],
    ids=["tent-bernoulli-3000", "tent-1e4", "sawtooth4-1e4"],
)
def test_separated_fine_epsilon_saturates_the_grid(imap, phi, n, grid):
    # n iterates stretch the grid spacing past epsilon = 0.01, so adjacent
    # grid points are admitted and the grid, not epsilon, sets the count
    est = separated_pressure(imap, phi, n, 0.01, grid)
    assert est.verified
    assert est.saturated


@st.composite
def verify_cases(draw):
    """Sorted positions on a 1/8 lattice, an orbit matrix of multiples of
    1/8 and the admitted columns; the dyadic values make exact ties at
    epsilon, in space and along orbits, common."""
    n = draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(0, 40), max_size=24, unique=True))
    positions = np.sort(np.asarray(cells, dtype=float)) / 8
    grid = positions.size + draw(st.integers(0, 4))
    entries = draw(
        st.lists(st.integers(0, 24), min_size=n * grid, max_size=n * grid)
    )
    orbit = np.asarray(entries, dtype=float).reshape(n, grid) / 8
    columns = draw(st.permutations(range(grid)))[: positions.size]
    epsilon = draw(st.sampled_from([0.125, 0.25, 0.5, 1.0]))
    return orbit, positions, np.asarray(columns, dtype=int), epsilon


@settings(deadline=None, max_examples=300)
@given(case=verify_cases())
def test_verify_separated_matches_scalar_oracle(case):
    assert _verify_separated(*case) == verify_separated(*case)


def _planted_case():
    """Twelve admitted points an eighth apart at epsilon = 1/2, so offsets
    1-3 are compared and offset 4 is exactly epsilon apart in space; orbit
    k sits at k * epsilon in its first row, so neighbors are exactly
    epsilon apart along the orbit."""
    epsilon = 0.5
    positions = np.arange(12) / 8
    orbit = np.vstack([np.arange(12) * epsilon, np.zeros(12)])
    return orbit, positions, np.arange(12), epsilon


@pytest.mark.parametrize(
    "plant, separated",
    [
        (None, True),  # neighbors exactly epsilon apart are accepted
        ((4, 5), False),  # violation at offset 1
        ((4, 7), False),  # violation at offset 3 only
        ((4, 8), True),  # equal orbits exactly epsilon apart in space
    ],
    ids=["exact-epsilon", "offset-1", "offset-3", "spatial-epsilon"],
)
def test_verify_separated_planted_pairs(plant, separated):
    orbit, positions, indices, epsilon = _planted_case()
    if plant is not None:
        i, j = plant
        orbit[:, j] = orbit[:, i]
    assert verify_separated(orbit, positions, indices, epsilon) is separated
    assert _verify_separated(orbit, positions, indices, epsilon) is separated


def test_verify_separated_rejects_forced_equal_columns():
    # the orbit separated_pressure packs, rebuilt; forcing one admitted orbit
    # onto a spatial neighbor's must fail the check
    f, n, epsilon, grid = tent_map(), 8, 0.05, 800
    est = separated_pressure(f, None, n, epsilon, grid)
    xs = np.linspace(0.0, 1.0, grid)
    orbit = np.array([cur for cur, _ in forward_orbit(f, xs, n)])
    indices = np.searchsorted(xs, est.points)
    assert np.array_equal(xs[indices], est.points)
    assert _verify_separated(orbit, est.points, indices, epsilon)
    near = np.flatnonzero(np.diff(est.points) < epsilon)
    for i in near[[0, near.size // 2, -1]]:
        forced = orbit.copy()
        forced[:, indices[i + 1]] = forced[:, indices[i]]
        assert not _verify_separated(forced, est.points, indices, epsilon)
        assert not verify_separated(forced, est.points, indices, epsilon)


@st.composite
def admission_cases(draw):
    """Ascending distinct positions on a 1/8 lattice, an orbit matrix of
    multiples of 1/8 whose first row is the positions, a visiting order from
    weights with ties, epsilon and a block size; the dyadic values make
    exact ties at epsilon, in space and along orbits, common."""
    n = draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(0, 40), min_size=1, max_size=30, unique=True))
    xs = np.sort(np.asarray(cells, dtype=float)) / 8
    rows = draw(st.lists(
        st.integers(0, 24), min_size=(n - 1) * xs.size, max_size=(n - 1) * xs.size
    ))
    orbit = np.vstack([xs, np.asarray(rows, dtype=float).reshape(n - 1, xs.size) / 8])
    weights = draw(st.lists(st.integers(0, 3), min_size=xs.size, max_size=xs.size))
    order = np.argsort(-np.asarray(weights, dtype=float), kind="stable")
    epsilon = draw(st.sampled_from([0.125, 0.25, 0.5, 1.0]))
    block = draw(st.sampled_from([1, 2, 3, 7, 128]))
    return xs, orbit, order, epsilon, block


@settings(deadline=None, max_examples=300)
@given(case=admission_cases())
def test_blocked_admission_matches_one_at_a_time_oracle(case):
    xs, orbit, order, epsilon, block = case
    with mock.patch.object(pressure, "SEPARATED_BLOCK", block):
        chosen = _admit(xs, orbit, order, epsilon)
    assert np.array_equal(chosen, greedy_separated(xs, orbit, order, epsilon))


TENT_BERNOULLI = BranchConstantPotential((0.0, 0.5, 1.0), (0.0, -1.0))


@pytest.mark.parametrize(
    "imap, phi, n, epsilon, grid",
    [
        (tent_map(), TENT_BERNOULLI, 10, 0.01, 3000),
        (golden_tent_map(), None, 10, 0.01, 3000),
        (golden_tent_map(), None, 10, 0.3, 10_000),
        (tent_map(), None, 10, 0.3, 10_000),
        (logistic4_map(), None, 10, 0.3, 10_000),
        (tent_map(), None, 10, 0.01, 10_000),
        (golden_tent_map(), None, 10, 0.01, 10_000),
        (tent_map(), None, 10, 0.05, 4000),
        (tent_map(), None, 8, 0.01, 2000),
        (tent_map(), CosineSeriesPotential((0.2,), offset=0.1), 1, 2.0, 100),
    ],
    ids=["tent-bernoulli-0.01-3000", "golden-0.01-3000", "golden-0.3-1e4",
         "tent-0.3-1e4", "logistic4-0.3-1e4", "tent-0.01-1e4", "golden-0.01-1e4",
         "tent-0.05-4000", "tent-n8-0.01-2000", "tent-cos-n1-2.0-100"],
)
def test_separated_estimate_equals_the_oracle_packing(imap, phi, n, epsilon, grid):
    est = separated_pressure(imap, phi, n, epsilon, grid)
    xs = np.linspace(*imap.domain, grid)
    orbit = np.empty((n, grid))
    for i, (cur, total) in enumerate(forward_orbit(imap, xs, n, phi)):
        orbit[i] = cur
    weights = np.zeros(grid) if total is None else total
    chosen = greedy_separated(xs, orbit, np.argsort(-weights, kind="stable"), epsilon)
    expected = SeparatedSetEstimate(
        value=float(logsumexp(weights[chosen]) / n),
        points=xs[chosen],
        count=chosen.size,
        grid_size=grid,
        # the oracle admits a point only once it is epsilon-apart from every
        # admitted point of its window, so its packing passes the check
        verified=True,
        saturated=bool(np.any(np.diff(chosen) == 1)),
    )
    for field in dataclasses.fields(SeparatedSetEstimate):
        got, want = getattr(est, field.name), getattr(expected, field.name)
        assert type(got) is type(want), field.name
        assert np.array_equal(got, want), field.name


@pytest.mark.parametrize("seed", range(6))
def test_pair_filter_matches_sup_over_iterates(seed):
    rng = np.random.default_rng(seed)
    n, grid = int(rng.integers(1, 12)), 300
    # lattice values for exact ties at epsilon, smooth ones otherwise
    orbit = rng.integers(0, 16, (n, grid)) / 16 if seed % 2 else rng.random((n, grid))
    a, b = rng.integers(0, grid, (2, 5000))
    epsilon = float(rng.choice([0.0625, 0.25, 0.5, 0.9]))
    expected = np.abs(orbit[:, a] - orbit[:, b]).max(axis=0) < epsilon
    assert expected.any() and not expected.all()
    assert np.array_equal(_close_pairs(orbit, a, b, epsilon), np.flatnonzero(expected))


@pytest.mark.parametrize("epsilon", [np.nan, np.inf])
def test_separated_rejects_nonfinite_epsilon(epsilon):
    with pytest.raises(DomainError):
        separated_pressure(tent_map(), None, 4, epsilon, 100)


def test_hyperbolicity_immediate_for_zero_potential():
    rep = hyperbolicity_check(tent_map(), None, LOG2)
    assert rep.verdict == "hyperbolic"
    assert rep.witness_depth == 1
    assert rep.margin == pytest.approx(LOG2)


def test_hyperbolicity_bernoulli_margin():
    f = tent_map()
    phi = BranchConstantPotential((0.0, 0.5, 1.0), (0.0, -1.0))
    rep = hyperbolicity_check(f, phi, BERNOULLI_PRESSURE)
    assert rep.verdict == "hyperbolic"
    assert rep.witness_depth == 1
    assert rep.margin == pytest.approx(BERNOULLI_PRESSURE, abs=1e-9)


def test_hyperbolicity_unknown_at_equality():
    rep = hyperbolicity_check(tent_map(), ConstantPotential(LOG2), LOG2, n_max=10)
    assert rep.verdict == "unknown"
    assert rep.witness_depth is None


def test_hyperbolicity_unknown_for_nonfinite_estimate():
    # a grid max below +inf is no certificate
    for estimate in (np.inf, -np.inf, np.nan):
        rep = hyperbolicity_check(tent_map(), None, estimate)
        assert (rep.verdict, rep.witness_depth, rep.margin) == ("unknown", None, 0.0)


def test_bounded_range_check():
    # the appendix flag is the comparison of the oscillation with log 4
    small = appendix_construct(0.1, n_max=7)
    assert small.bounded_range and small.phi_range < np.log(4.0)
    wide = appendix_construct(np.log(4.0), n_max=7)
    assert not wide.bounded_range and not wide.phi_range < np.log(4.0)


def test_pressure_curve_matches_closed_form():
    f = tent_map()
    chi = BranchConstantPotential((0.0, 0.5, 1.0), (0.0, -1.0))
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


def test_pressure_curve_fit_residual_is_free_of_t_scale():
    # t * chi spans +-1e40 at every T, where P is piecewise linear to double
    # precision, so only the t axis scales and the residual must not move
    f = tent_map()
    residuals = []
    for t_max in (1e-100, 1.0, 1e40, 1e80):
        chi = BranchConstantPotential((0.0, 0.5, 1.0), (0.0, -1e40 / t_max))
        ts = np.linspace(-t_max, t_max, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = pressure_curve(f, None, chi, ts, n_max=6)
        residuals.append(curve.fit_residual / 1e40)
    assert residuals == pytest.approx([residuals[2]] * 4, rel=1e-12)
    assert residuals[2] == pytest.approx(0.0534522, rel=1e-5)


def test_pressure_curve_rejects_underflowing_step():
    # a step of 5e-201 squares to 0, which would divide the second differences
    ts = np.linspace(-1e-200, 1e-200, 5)
    with pytest.raises(DomainError, match="underflows"):
        pressure_curve(tent_map(), None, ConstantPotential(1.0), ts)


def test_pressure_curve_rejects_nonuniform_grid():
    with pytest.raises(DomainError):
        pressure_curve(
            tent_map(), None, ConstantPotential(1.0), [0.0, 0.1, 0.3, 0.5, 0.6]
        )


def test_pressure_curve_rejects_zero_step():
    # a zero step would divide the central differences by zero
    with pytest.raises(DomainError, match="nonzero step"):
        pressure_curve(tent_map(), None, ConstantPotential(1.0), np.full(5, 0.5))


def _counting_walks(monkeypatch):
    """Record the arguments of every preimage walk the pressure module starts."""
    walk = pressure.iter_preimage_levels
    walks = []

    def counting(*args, **kwargs):
        walks.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(pressure, "iter_preimage_levels", counting)
    return walks


@pytest.mark.parametrize("t_count", [5, 41])
def test_pressure_curve_walks_the_tree_once(monkeypatch, t_count):
    walks = _counting_walks(monkeypatch)
    f = tent_map()
    phi = CosineSeriesPotential((0.3, -0.2))
    chi = CosineSeriesPotential((0.0, 0.0, 1.0))
    pressure_curve(f, phi, chi, np.linspace(-1.0, 1.0, t_count), n_max=7)
    assert [w[3] for w in walks] == [7]


CURVE_CASES = {
    "tent-cosine": (
        tent_map(), CosineSeriesPotential((0.3, -0.2)),
        CosineSeriesPotential((0.0, 0.0, 1.0)), 0.3, 10,
    ),
    "doubling-bernoulli": (
        full_linear_map(2), None,
        BranchConstantPotential((0.0, 0.5, 1.0), (0.0, -1.0)), 0.41, 9,
    ),
    "logistic-cosine": (
        logistic4_map(), None, CosineSeriesPotential((0.2, 0.1), offset=-0.3), 0.3, 8,
    ),
    "golden-shifted": (
        golden_tent_map(), ConstantPotential(0.25),
        CosineSeriesPotential((-0.4,), offset=0.1), 0.37, 9,
    ),
}


@pytest.mark.parametrize("case", list(CURVE_CASES))
def test_pressure_curve_matches_per_t_walks(case):
    # S_n(phi + t chi) summed per level or from the two walks' sums differs
    # only by rounding, and not at all at t = 0
    f, phi, chi, x0, n_max = CURVE_CASES[case]
    ts = np.linspace(-1.0, 1.0, 9)
    curve = pressure_curve(f, phi, chi, ts, x0=x0, n_max=n_max)
    for t, est, fluct in zip(ts, curve.estimates, curve.fluctuations):
        if phi is None:
            pot = lambda x, t=t: t * chi(x)  # noqa: E731
        else:
            pot = lambda x, t=t: phi(x) + t * chi(x)  # noqa: E731
        rep = tree_pressure(f, pot, x0, n_max)
        if t == 0.0:
            assert (est, fluct) == (rep.estimate, rep.fluctuation)
        assert est == pytest.approx(rep.estimate, abs=1e-15, rel=0)
        assert fluct == pytest.approx(rep.fluctuation, abs=1e-15, rel=0)
    assert curve.ts[4] == 0.0


@pytest.mark.parametrize("chunk", [maps.POTENTIAL_CHUNK, 7])
@pytest.mark.parametrize("case", list(CURVE_CASES))
def test_pressure_curve_bit_equal_to_lockstep_walks(monkeypatch, case, chunk):
    # the one walk carrying both sums reduces to the same floats as the two
    # walks it replaced; chunks of 7 points split the deep levels
    monkeypatch.setattr(maps, "POTENTIAL_CHUNK", chunk)
    f, phi, chi, x0, n_max = CURVE_CASES[case]
    ts = np.linspace(-1.5, 0.5, 11)
    curve = pressure_curve(f, phi, chi, ts, x0=x0, n_max=n_max)
    reports = lockstep_curve_reports(f, phi, chi, ts, x0, n_max, 10**6)
    want = np.array([(r.estimate, r.fluctuation) for r in reports])
    assert curve.estimates.tobytes() == want[:, 0].tobytes()
    assert curve.fluctuations.tobytes() == want[:, 1].tobytes()


@pytest.mark.parametrize("phi", [None, CosineSeriesPotential((0.3, -0.2))])
def test_pressure_curve_budget_error_matches_tree_pressure(phi):
    f = tent_map()
    chi = BranchConstantPotential((0.0, 0.5, 1.0), (0.0, -1.0))
    with pytest.raises(BudgetError) as want:
        tree_pressure(f, phi, 0.3, 10, budget=200)
    with pytest.raises(BudgetError) as got:
        pressure_curve(f, phi, chi, np.linspace(-1.0, 1.0, 5), n_max=10, budget=200)
    assert got.value.feasible_depth == want.value.feasible_depth == 6
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("kwargs, match", [
    ({"x0": 0.5}, "breakpoint"),
    # pressure_curve has no n_min, so the message names n_max alone
    ({"n_max": 0}, "^need n_max >= 1$"),
], ids=["breakpoint-base", "n_max-0"])
def test_pressure_curve_rejects_before_walking(monkeypatch, kwargs, match):
    walks = _counting_walks(monkeypatch)
    f = tent_map()
    with pytest.raises(DomainError, match=match):
        pressure_curve(f, None, ConstantPotential(1.0), np.linspace(-1, 1, 5), **kwargs)
    assert walks == []


def test_constant_shift_calibration():
    f = tent_map()
    phi = CosineSeriesPotential((0.3,), offset=-0.2)
    shifted = lambda x: phi(x) + 0.7  # noqa: E731
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


def test_appendix_small_gap_is_hyperbolic_with_bounded_range():
    # at gap 0.1 the range 0.6 is below log 4, and the depth-1 witness
    # margin is the pressure itself, since sup phi = 0
    rep = appendix_construct(0.1, n_max=7)
    assert rep.phi_range == pytest.approx(0.6)
    assert rep.bounded_range
    assert rep.hyperbolic
    assert rep.hyperbolic_margin == pytest.approx(1.205, abs=1e-3)
    assert rep.hyperbolic_margin == rep.pressure.estimate


def test_appendix_walks_the_tree_once(monkeypatch):
    walk = pressure.iter_preimage_levels
    walks = []

    def counting(*args, **kwargs):
        walks.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(pressure, "iter_preimage_levels", counting)
    for n_max in (4, 11):
        walks.clear()
        appendix_construct(np.log(4.0), n_max=n_max)
        assert len(walks) == 1
        assert walks[0][3] == max(n_max, 6)


def _assert_same_report(got, want):
    for name in PressureReport.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert a == b, name


@pytest.mark.parametrize("n_max", [4, 11])
def test_appendix_reports_bit_equal_to_separate_walks(n_max):
    # the entropy reads the node counts of the weighted walk: log of a
    # count is the log-sum-exp of that many zeros, bit for bit
    rep = appendix_construct(np.log(4.0), n_max=n_max)
    _assert_same_report(rep.entropy, tree_pressure(rep.imap, None, 0.3, 6))
    _assert_same_report(
        rep.pressure, tree_pressure(rep.imap, rep.potential, 0.3, n_max)
    )


def test_appendix_rejects_depth_below_one_before_walking():
    # a tiny budget would stop the depth-6 walk: the depth is checked first
    with pytest.raises(DomainError, match="n_max"):
        appendix_construct(np.log(4.0), n_max=0, budget=10)


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
    phi = BranchConstantPotential((0.0, 1 / 3, 2 / 3, 1.0), tuple(v))
    rep = tree_pressure(f, phi, 0.29, 6)
    oracle = np.log(np.sum(np.exp(np.asarray(v))))
    assert np.allclose(rep.p_values, oracle, atol=1e-10)
