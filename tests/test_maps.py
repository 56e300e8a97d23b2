"""Map evaluation, forward orbits, preimage trees, and Markov witnesses."""

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    branch_preimage,
    orbit,
    preimage_words,
    reference_preimage_levels,
    tent_map,
    traced_peak,
)
from thermomap import maps, pressure
from thermomap.errors import BudgetError, DomainError
from thermomap.maps import (
    Branch,
    IntervalMap,
    birkhoff_sum,
    forward_orbit,
    full_linear_map,
    golden_tent_map,
    is_topologically_exact,
    iter_preimage_levels,
    logistic4_map,
    markov_witness,
    pw_linear_map,
)
from thermomap.potentials import (
    AveragedPotential,
    BranchConstantPotential,
    CosineSeriesPotential,
)
from thermomap.pressure import hyperbolicity_check, level_sums, separated_pressure

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0
# the appendix construction's map: four full branches of slope +-4
FOUR_BRANCH = pw_linear_map(
    [0.0, 0.25, 0.5, 0.75, 1.0], [4.0, -4.0, 4.0, -4.0], [0.0, 2.0, -2.0, 4.0]
)


def test_tent_eval_matches_closed_form():
    f = tent_map()
    xs = np.linspace(0.0, 1.0, 1001)
    expected = 1.0 - np.abs(1.0 - 2.0 * xs)
    assert np.allclose(f.eval(xs), expected, atol=1e-14)


def test_eval_scalar_returns_float():
    f = tent_map()
    y = f.eval(0.2)
    assert isinstance(y, float)
    assert y == pytest.approx(0.4)


def test_eval_rejects_points_outside_domain():
    f = tent_map()
    with pytest.raises(DomainError):
        f.eval(1.5)
    with pytest.raises(DomainError):
        f.eval(np.array([0.2, -0.3]))


def level_one(f, y):
    """f^-1(y): depth 1 of the preimage walk from y."""
    *_, level = iter_preimage_levels(f, None, y, 1)
    assert level.depth == 1
    return level.points


def test_tent_preimages_of_half():
    f = tent_map()
    assert np.allclose(level_one(f, 0.5), [0.25, 0.75])


def test_tent_preimage_of_top_is_single_point():
    # both branches hit 1.0 at the shared breakpoint; merged to one point
    f = tent_map()
    assert np.allclose(level_one(f, 1.0), [0.5])


def test_logistic_preimages_match_polynomial_roots():
    f = logistic4_map()
    y = 0.75
    roots = np.sort(np.roots([4.0, -4.0, y]))
    assert np.allclose(np.sort(level_one(f, y)), roots, atol=1e-12)


def test_logistic_preimage_near_critical_value_is_stable():
    f = logistic4_map()
    y = 1.0 - 1e-15
    pre = level_one(f, y)
    assert np.all(np.isfinite(pre))
    assert np.allclose(f.eval(pre), y, atol=1e-12)


def test_logistic_preimage_of_one_merges():
    f = logistic4_map()
    assert np.allclose(level_one(f, 1.0), [0.5])


def test_orbit_values():
    f = tent_map()
    assert np.allclose(orbit(f, 0.2, 3), [0.2, 0.4, 0.8, 0.4])
    pts = [p for p, _ in forward_orbit(f, 0.2, 4)]
    assert np.allclose(np.concatenate(pts), [0.2, 0.4, 0.8, 0.4])


def test_golden_tent_is_continuous_at_kink():
    f = golden_tent_map()
    kink = 2.0 - GOLDEN
    left, right = f.branches
    assert left.forward(np.asarray(kink)) == pytest.approx(1.0, abs=1e-12)
    assert right.forward(np.asarray(kink)) == pytest.approx(1.0, abs=1e-12)
    assert f.eval(kink) == pytest.approx(1.0, abs=1e-12)


def test_expansion_ranges():
    assert tent_map().expansion_range() == (2.0, 2.0)
    lo, hi = golden_tent_map().expansion_range()
    assert lo == pytest.approx(GOLDEN)
    assert hi == pytest.approx(GOLDEN)
    lo, hi = logistic4_map().expansion_range()
    assert lo == pytest.approx(0.0)
    assert hi == pytest.approx(4.0)


def test_branch_validation_errors():
    with pytest.raises(DomainError):
        Branch(0.0, 0.5, "linear", 0.0, 0.0)
    with pytest.raises(DomainError):
        Branch(0.5, 0.5, "linear", 2.0, 0.0)
    with pytest.raises(DomainError):
        Branch(0.0, 0.7, "logistic_left")
    with pytest.raises(DomainError):
        IntervalMap((Branch(0.0, 0.4, "linear", 2.0, 0.0), Branch(0.5, 1.0, "linear", -2.0, 2.0)))
    # adjacent branches share their endpoint exactly: an overlap or a gap
    # of 5e-13, below TOL_DEDUP, is rejected too
    for end in (0.5 + 5e-13, 0.5 - 5e-13):
        with pytest.raises(DomainError, match="not contiguous"):
            IntervalMap((Branch(0.0, end, "linear", -0.5 / end, 0.5),
                         Branch(0.5, 1.0, "linear", -2.0, 2.0)))
    # a branch no wider than 4 TOL_DEDUP could merge one parent twice
    with pytest.raises(DomainError, match="not wider than"):
        Branch(0.5, 0.5 + 3e-12, "linear", 2.0, 0.0)
    with pytest.raises(DomainError):
        # image escapes the domain
        pw_linear_map([0.0, 0.5, 1.0], [3.0, -2.0], [0.0, 2.0])


def test_sawtooth_is_full_and_continuous():
    for k in (2, 3, 4, 5):
        f = full_linear_map(k)
        for br in f.branches:
            lo, hi = br.image()
            assert lo == pytest.approx(0.0, abs=1e-12)
            assert hi == pytest.approx(1.0, abs=1e-12)
        xs = f.interior_breakpoints
        left_vals = [f.branches[i].forward(np.asarray(x)) for i, x in enumerate(xs)]
        right_vals = [f.branches[i + 1].forward(np.asarray(x)) for i, x in enumerate(xs)]
        assert np.allclose(left_vals, right_vals, atol=1e-12)


def test_preimage_counts_full_branches():
    f = full_linear_map(3)
    sums = level_sums(f, None, 0.3, 6)
    assert np.array_equal(sums.counts, [3, 9, 27, 81, 243, 729])


def test_golden_tent_counts_match_transition_matrix_powers():
    # markov oracle: count vector evolves by [[0, 1], [1, 1]] acting on
    # (points in left cell, points in right cell), seeded in the left cell
    f = golden_tent_map()
    sums = level_sums(f, None, 0.3, 12)
    mat = np.array([[0, 1], [1, 1]], dtype=object)
    vec = np.array([1, 0], dtype=object)
    expected = []
    for _ in range(12):
        vec = mat @ vec
        expected.append(int(vec.sum()))
    assert np.array_equal(sums.counts, expected)


def test_preimage_levels_invert_forward_orbit():
    f = golden_tent_map()
    sums = level_sums(f, None, 0.3, 10, retain=range(1, 11))
    for n in (1, 5, 10):
        pts = sums.levels[n - 1].points.copy()
        for _ in range(n):
            pts = f.eval(pts)
        assert np.max(np.abs(pts - 0.3)) < 1e-8


def _walk_level(f, x0, n):
    return list(iter_preimage_levels(f, None, x0, n))[n]


def test_preimage_words_are_lexicographically_sorted():
    f = tent_map()
    words, points = preimage_words(f, 0.37, 6)
    assert words.shape == (64, 6)
    as_ints = words @ (2 ** np.arange(5, -1, -1))
    assert np.array_equal(as_ints, np.arange(64))
    assert np.array_equal(_walk_level(f, 0.37, 6).points, np.sort(points))


def test_words_recompute_points():
    # applying the word's inverse branches to x0 must reproduce the points
    f = golden_tent_map()
    words, points = preimage_words(f, 0.3, 7)
    order = np.argsort(points, kind="stable")
    lv = _walk_level(f, 0.3, 7)
    assert lv.points.size == words.shape[0] == 21
    for i in range(lv.points.size):
        x = 0.3
        for b in words[order[i]]:
            x = float(f.branches[b].inverse(np.asarray(x)))
        assert x == pytest.approx(lv.points[i], abs=1e-10)


WORD_MAPS = {
    "tent": (tent_map(), 0.37, 7),
    "golden_tent": (golden_tent_map(), 0.3, 8),
    "golden_tent_right": (golden_tent_map(), 0.8, 8),
    "logistic4": (logistic4_map(), 0.6, 7),
    "sawtooth3": (full_linear_map(3), 0.41, 5),
    "four_branch": (FOUR_BRANCH, 0.3, 4),
    # x0 = 1 sits on the image of the shared breakpoint: merged preimages
    "tent_top": (tent_map(), 1.0, 6),
}


@pytest.mark.parametrize("name", sorted(WORD_MAPS))
def test_walk_order_matches_word_oracle(name):
    f, x0, n = WORD_MAPS[name]
    levels = list(iter_preimage_levels(f, None, x0, n))
    for depth in range(n + 1):
        words, points = preimage_words(f, x0, depth)
        assert np.array_equal(levels[depth].points, np.sort(points)), depth
        assert np.array_equal(levels[depth].birkhoff, np.zeros(points.size))


# not_onto's two branches both map into [0, 0.6], so a level loses the
# points above 0.6 and x0 > 0.6 has no preimage at all
WALK_MAPS = {
    "tent": tent_map(),
    "sawtooth3": full_linear_map(3),
    "logistic4": logistic4_map(),
    "four_branch": FOUR_BRANCH,
    "golden_tent": golden_tent_map(),
    "not_onto": pw_linear_map([0.0, 0.3, 1.0], [2.0, -6.0 / 7.0], [0.0, 6.0 / 7.0]),
}
WALK_POTENTIALS = {
    "none": None,
    "cosine": CosineSeriesPotential((0.3, -0.2), offset=0.1),
    "branch_constant": BranchConstantPotential((0.0, 0.5, 1.0), (0.0, -1.0)),
}


def _outcome(run):
    """(result, error) of run(); errors compared by type, text and depth."""
    try:
        return run(), None
    except (BudgetError, DomainError) as exc:
        return None, (type(exc), str(exc), getattr(exc, "feasible_depth", None))


def _bits(a):
    return (a.dtype.str, a.shape, a.tobytes())


def _walk(walk, f, phi, x0, n_max, budget, deepest_points=True):
    levels = []

    def run():
        for lv in walk(f, phi, x0, n_max, budget, deepest_points):
            levels.append((lv.depth, _bits(lv.points), _bits(lv.birkhoff)))

    return levels, _outcome(run)[1]


def _sums_bits(sums):
    err = sums.budget_error
    return (
        _bits(sums.a_values), _bits(sums.counts),
        [(lv.depth, _bits(lv.points), _bits(lv.birkhoff)) for lv in sums.levels],
        None if err is None else (str(err), err.feasible_depth),
    )


class TestLeanWalk:
    """The walk is bit-equal to the parent-index walk it replaced with each
    level stably sorted by its points (helpers.reference_preimage_levels),
    level by level, with or without the deepest level's points (then its
    sums are written over its points buffer), and through level_sums,
    whatever the map, potential and budget stop."""

    @settings(deadline=None, max_examples=120)
    @given(
        map_name=st.sampled_from(sorted(WALK_MAPS)),
        phi_name=st.sampled_from(sorted(WALK_POTENTIALS)),
        x0=st.one_of(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                     st.sampled_from([0.0, 0.25, 0.5, 0.6, 1.0, 2.0 - GOLDEN])),
        n_max=st.integers(min_value=1, max_value=9),
        stop=st.integers(min_value=0, max_value=9),
        slack=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        partial=st.booleans(),
        retain=st.builds(range, st.integers(min_value=0, max_value=10),
                         st.integers(min_value=0, max_value=12),
                         st.integers(min_value=1, max_value=3)),
        deepest_points=st.booleans(),
    )
    def test_bit_equal_to_reference_walk(self, map_name, phi_name, x0, n_max,
                                         stop, slack, partial, retain,
                                         deepest_points):
        f, phi = WALK_MAPS[map_name], WALK_POTENTIALS[phi_name]
        # a budget that admits exactly the levels 0..stop
        full, _ = _walk(reference_preimage_levels, f, None, x0, n_max, 10**9)
        cum = np.cumsum([lv[1][1][0] for lv in full])
        stop = min(stop, len(cum) - 1)
        room = int(cum[stop + 1] - cum[stop]) if stop + 1 < cum.size else 2
        budget = int(cum[stop]) + int(slack * room)
        new = _walk(iter_preimage_levels, f, phi, x0, n_max, budget, deepest_points)
        ref = _walk(reference_preimage_levels, f, phi, x0, n_max, budget,
                    deepest_points)
        assert new == ref

        def sums():
            return _sums_bits(level_sums(
                f, phi, x0, n_max, budget=budget, retain=retain,
                partial_on_budget=partial))

        got = _outcome(sums)
        with mock.patch.object(pressure, "iter_preimage_levels",
                               reference_preimage_levels):
            want = _outcome(sums)
        assert got == want


@pytest.mark.parametrize("map_name", ["golden_tent", "sawtooth3"])
@pytest.mark.parametrize("phi_name", ["cosine", "branch_constant"])
@pytest.mark.parametrize("deepest_points", [True, False])
def test_chunked_potential_bit_equal_to_reference_walk(monkeypatch, map_name,
                                                       phi_name, deepest_points):
    # chunks of 7 points split every level of more than 7 points, on a
    # masked map (golden tent) and on a full one; without the deepest
    # points, each chunk of the potential overwrites the points it was
    # called on
    monkeypatch.setattr(maps, "POTENTIAL_CHUNK", 7)
    f, phi = WALK_MAPS[map_name], WALK_POTENTIALS[phi_name]
    new = _walk(iter_preimage_levels, f, phi, 0.3, 9, 10**6, deepest_points)
    ref = _walk(reference_preimage_levels, f, phi, 0.3, 9, 10**6, deepest_points)
    assert new == ref
    levels, error = new
    depth, (_, shape, _), _ = levels[-1]
    assert error is None and depth == 9 and shape[0] > 7


def _levels_until_error(f, x0, n_max, phi=None):
    levels = []
    try:
        for lv in iter_preimage_levels(f, phi, x0, n_max):
            levels.append(lv)
    except DomainError:
        pass
    return levels


@pytest.mark.parametrize("name", sorted(WALK_MAPS))
def test_every_level_ascends(name):
    f = WALK_MAPS[name]
    for x0 in (0.0, 0.25, 0.3, 0.5, 0.6, 0.77, 1.0, 2.0 - GOLDEN):
        levels = _levels_until_error(f, x0, 9)
        assert levels, x0
        for lv in levels:
            assert np.all(np.diff(lv.points) >= 0), (x0, lv.depth)


@pytest.mark.parametrize("f, x0", [(tent_map(), 1.0), (golden_tent_map(), 2.0 - GOLDEN)],
                         ids=["tent_top", "golden_kink"])
def test_merged_preimages_keep_the_lower_branch(f, x0):
    # a parent on the image of a shared breakpoint has two candidates there;
    # branch_preimage keeps the lower branch's, which for the golden tent
    # differs from the upper one's in its last bit
    levels = list(iter_preimage_levels(f, None, x0, 8))
    merged = 0
    for parent, level in zip(levels, levels[1:]):
        kept = []
        for y in parent.points:
            for b, br in enumerate(f.branches):
                x = branch_preimage(f, b, y)
                merged += x is None and bool(br.covers(np.asarray(y)))
                if x is not None:
                    kept.append(x)
        assert np.array_equal(level.points, np.sort(kept)), level.depth
    assert merged > 0


@pytest.mark.parametrize(
    "f, phi_name, x0, n_max",
    [
        # merged preimages at depth 1 only, whose block loses an entry
        (tent_map(), "cosine", 1.0, 1),
        (tent_map(), "cosine", 1.0, 6),
        (golden_tent_map(), "none", 0.3, 12),
        (full_linear_map(2), "none", 0.3, 10),
    ],
    ids=["merging-1", "merging-6", "entropy-golden", "entropy-doubling"],
)
def test_streamed_deepest_level_sums_as_retained(monkeypatch, f, phi_name, x0,
                                                 n_max):
    # a streaming walk does not keep the deepest points: that level yields a
    # read-only nan placeholder of its size, and its sums, written over its
    # points buffer, reduce bit for bit as when retained
    phi = WALK_POTENTIALS[phi_name]
    walk, yielded = pressure.iter_preimage_levels, []

    def recording(*args, **kwargs):
        for lv in walk(*args, **kwargs):
            yielded.append(lv)
            yield lv

    monkeypatch.setattr(pressure, "iter_preimage_levels", recording)
    streamed = level_sums(f, phi, x0, n_max)
    deepest = yielded[-1]
    retained = level_sums(f, phi, x0, n_max, retain=range(n_max, n_max + 1))
    shallow = level_sums(f, phi, x0, n_max, retain=range(1, n_max))
    for sums in (retained, shallow):
        assert _bits(sums.a_values) == _bits(streamed.a_values)
        assert _bits(sums.counts) == _bits(streamed.counts)
    assert deepest.depth == n_max and not deepest.points.flags.writeable
    assert deepest.points.size == streamed.counts[-1]
    assert np.isnan(deepest.points).all()
    assert streamed.levels == ()
    assert [lv.depth for lv in shallow.levels + retained.levels] == list(
        range(1, n_max + 1))
    for lv in retained.levels + shallow.levels:
        assert lv.points.flags.writeable and np.isfinite(lv.points).all()
        assert lv.points.size == streamed.counts[lv.depth - 1]


@pytest.mark.parametrize("name", sorted(WALK_MAPS))
def test_row_walk_bit_equal_to_one_walk_per_row(monkeypatch, name):
    # a potential with k rows gives k Birkhoff sums per point, each the
    # sums of a walk with that row alone; chunks of 7 points split levels
    monkeypatch.setattr(maps, "POTENTIAL_CHUNK", 7)
    f = WALK_MAPS[name]
    pots = [WALK_POTENTIALS["cosine"], WALK_POTENTIALS["branch_constant"],
            CosineSeriesPotential((0.0, 0.0, 1.0))]

    def rows(x):
        return np.stack([phi(x) for phi in pots])

    walk = _levels_until_error(f, 0.3, 9, rows)
    assert len(walk) > 5
    for lv in walk:
        assert lv.birkhoff.shape == (3, lv.points.size)
    for row, phi in enumerate(pots):
        single = _levels_until_error(f, 0.3, 9, phi)
        assert len(single) == len(walk)
        for lv, one in zip(walk, single):
            assert _bits(lv.points) == _bits(one.points)
            assert _bits(lv.birkhoff[row]) == _bits(one.birkhoff), (row, lv.depth)


@pytest.mark.parametrize("f, x0", [(tent_map(), 1.0), (golden_tent_map(), 2.0 - GOLDEN)],
                         ids=["tent_top", "golden_kink"])
def test_budget_boundaries_exact_on_merging_walks(f, x0):
    # merges make a level smaller than its slice lengths less their
    # overlaps, so the early raise must leave the exact check to decide
    cum = np.cumsum([lv.points.size for lv in iter_preimage_levels(f, None, x0, 9)])
    for depth in range(1, 10):
        for budget in (int(cum[depth]) - 1, int(cum[depth])):
            new = _walk(iter_preimage_levels, f, None, x0, 9, budget)
            ref = _walk(reference_preimage_levels, f, None, x0, 9, budget)
            assert new == ref, (depth, budget)
            assert len(new[0]) == depth + (budget == cum[depth])


def _overflow(f, x0, n_max, budget):
    with pytest.raises(BudgetError) as exc:
        for _ in iter_preimage_levels(f, None, x0, n_max, budget):
            pass
    return exc


def test_certain_overflow_raises_before_building_the_level():
    # both doubling-map slices cover the whole depth-15 level, so the next
    # level holds at least one copy of it, which overflows this budget:
    # the walk raises before allocating the depth-16 level
    f, depth = full_linear_map(2), 15
    peak, exc = traced_peak(lambda: _overflow(f, 0.3, depth + 1, 2 ** (depth + 1) - 1))
    assert exc.value.feasible_depth == depth
    # building depth 15 from depth 14 holds 1.5 times the depth-15 points
    # and sums; building depth 16 as well would hold 3 times them
    assert peak < 2 * 16 * 2**depth, peak / (16 * 2**depth)


def test_overflow_within_two_copies_raises_before_building_the_level():
    # both doubling-map slices cover the whole depth-19 level, but only the
    # parents near the image 1 of the shared breakpoint can merge, so with
    # room for between one and two copies of it the next level (two
    # copies) still overflows: the walk raises before allocating it
    f, depth = full_linear_map(2), 19
    budget = 2 ** (depth + 1) - 1 + 700_000
    peak, exc = traced_peak(lambda: _overflow(f, 0.3, depth + 1, budget))
    assert (exc.value.feasible_depth, exc.value.budget) == (depth, budget)
    # building depth 19 from depth 18 holds 1.5 times the depth-19 points
    # and sums (12.6 MB); building depth 20 as well would hold 3 times them
    assert peak < 2 * 16 * 2**depth, peak / (16 * 2**depth)


def test_overcounted_merge_raises_before_allocating_the_child_sums():
    # the tent's depth-15 level holds a point 5e-12 below 1: inside the
    # image of the right branch's head, so the early count takes it for a
    # merge, but its two preimages lie 5e-12 apart and stay. With room for
    # all but one of the depth-16 nodes the early count passes and the
    # exact count raises, after the points pass and before the sums pass
    f, depth = tent_map(), 15
    y = np.array([1.0 - 5e-12])
    for _ in range(depth):
        y = f(y)
    x0 = float(y[0])
    assert 1.0 - list(iter_preimage_levels(f, None, x0, depth))[-1].points[-1] < 7e-12
    budget = 2 ** (depth + 2) - 2
    peak, exc = traced_peak(lambda: _overflow(f, x0, depth + 1, budget))
    assert (exc.value.feasible_depth, exc.value.budget) == (depth, budget)
    # the depth-15 points and sums and the depth-16 points make 2 arrays of
    # the depth-16 size, and the depth-16 sums would make 3; an early raise
    # would leave the depth-15 build's 1.25 as the peak
    arrays = peak / (8 * 2 ** (depth + 1))
    assert 1.75 < arrays < 2.5, arrays


def test_budget_error_reports_feasible_depth():
    f = tent_map()
    with pytest.raises(BudgetError) as exc:
        list(iter_preimage_levels(f, None, 0.3, 10, budget=50))
    # cumulative nodes 1+2+4+8+16 = 31 fit; adding 32 would overflow 50
    assert exc.value.feasible_depth == 4
    assert exc.value.budget == 50
    sums = level_sums(f, None, 0.3, 10, budget=50, partial_on_budget=True)
    assert sums.feasible_depth == 4
    assert np.array_equal(sums.counts, [2, 4, 8, 16])


def test_birkhoff_sums_accumulate_along_tree():
    f = tent_map()
    phi = CosineSeriesPotential((0.25,), offset=-0.1)
    sums = level_sums(f, phi, 0.41, 8, retain=range(8, 9))
    direct = birkhoff_sum(f, phi, sums.levels[-1].points, 8)
    assert np.allclose(direct, sums.levels[-1].birkhoff, atol=1e-9)


def test_markov_witness_golden_tent():
    rep = markov_witness(golden_tent_map())
    assert rep.is_markov
    assert rep.primitive
    assert np.array_equal(rep.transition, [[0, 1], [1, 1]])
    assert rep.min_expansion == pytest.approx(GOLDEN)
    assert rep.endpoint_defect < 1e-9


def test_markov_witness_full_maps():
    for f in (tent_map(), full_linear_map(4), logistic4_map()):
        rep = markov_witness(f)
        assert rep.is_markov
        assert rep.primitive
        assert rep.transition.all()
    assert markov_witness(logistic4_map()).min_expansion == pytest.approx(0.0)


def test_markov_witness_rejects_unaligned_branches():
    # continuous, but the branch image endpoint 0.6 is not a partition point
    f = pw_linear_map([0.0, 0.3, 1.0], [2.0, -6.0 / 7.0], [0.0, 6.0 / 7.0])
    rep = markov_witness(f)
    assert not rep.is_markov
    assert not rep.primitive
    assert rep.endpoint_defect > 0.01


def test_exactness_flag():
    assert is_topologically_exact(tent_map())
    assert is_topologically_exact(logistic4_map())
    assert is_topologically_exact(golden_tent_map())
    weak = pw_linear_map([0.0, 0.3, 1.0], [2.0, -6.0 / 7.0], [0.0, 6.0 / 7.0])
    assert not is_topologically_exact(weak)


def test_doubling_mod_one_is_exact():
    # x -> 2x mod 1 jumps at 1/2, yet both branches are full
    doubling = pw_linear_map([0.0, 0.5, 1.0], [2.0, 2.0], [0.0, -1.0])
    assert is_topologically_exact(doubling)


@settings(deadline=None, max_examples=60)
@given(
    x=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    m=st.integers(min_value=0, max_value=6),
    n=st.integers(min_value=0, max_value=6),
)
def test_birkhoff_additivity(x, m, n):
    f = tent_map()
    phi = CosineSeriesPotential((0.2, -0.05), offset=0.3)
    total = birkhoff_sum(f, phi, x, m + n)
    split = birkhoff_sum(f, phi, x, m) + birkhoff_sum(f, phi, orbit(f, x, m)[-1], n)
    assert total == pytest.approx(split, abs=1e-9)


KERNEL_MAPS = {
    "tent": tent_map(),
    "logistic4": logistic4_map(),
    "golden_tent": golden_tent_map(),
    "sawtooth3": full_linear_map(3),
}


@settings(deadline=None, max_examples=40)
@given(
    name=st.sampled_from(sorted(KERNEL_MAPS)),
    xs=st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=1, max_size=5),
    n=st.integers(min_value=0, max_value=8),
)
def test_forward_orbit_matches_scalar_oracle(name, xs, n):
    f = KERNEL_MAPS[name]
    phi = CosineSeriesPotential((0.2, -0.05), offset=0.3)
    x = np.asarray(xs)
    oracle = np.array([orbit(f, xi, n) for xi in xs])  # one row per start
    steps = list(forward_orbit(f, x, n, phi))
    assert len(steps) == n
    for j, (pts, total) in enumerate(steps):
        assert np.array_equal(pts, oracle[:, j])
        expected = [sum(float(phi(p)) for p in row[: j + 1]) for row in oracle]
        assert np.allclose(total, expected, rtol=1e-12, atol=1e-12)
    expected = [sum(float(phi(p)) for p in row[:n]) for row in oracle]
    assert np.allclose(birkhoff_sum(f, phi, x, n), expected, rtol=1e-12, atol=1e-12)
    assert all(total is None for _, total in forward_orbit(f, x, n))


@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_forward_orbit_evaluates_only_requested_iterates(monkeypatch, n):
    calls = []
    real = IntervalMap.eval

    def counting(self, x):
        calls.append(np.size(x))
        return real(self, x)

    monkeypatch.setattr(IntervalMap, "eval", counting)
    f = tent_map()
    phi = CosineSeriesPotential((0.3,))
    xs = np.linspace(0.0, 1.0, 11)
    steps = forward_orbit(f, xs, n, phi)
    assert calls == []  # nothing runs before the first request
    assert len(list(steps)) == n
    assert calls == [11] * max(n - 1, 0)
    calls.clear()
    birkhoff_sum(f, phi, xs, n)
    assert len(calls) == max(n - 1, 0)


def test_birkhoff_sum_scalar_in_scalar_out():
    f = tent_map()
    phi = CosineSeriesPotential((0.3,), offset=-0.1)
    for n in (0, 1, 4):
        total = birkhoff_sum(f, phi, 0.3, n)
        assert isinstance(total, float)
        assert total == birkhoff_sum(f, phi, np.array([0.3]), n)[0]


class TestOneOrbitKernel:
    """Every forward orbit and Birkhoff sum in the package is a reduction of
    maps.forward_orbit, the only caller of IntervalMap.eval besides
    IntervalMap.__call__."""

    def test_orbit_consumers_go_through_the_kernel(self, monkeypatch):
        kernel_calls = []
        real = forward_orbit

        def counting(*args, **kwargs):
            kernel_calls.append(args[2])
            return real(*args, **kwargs)

        # every module-level copy, so a kernel use from any module is counted
        for name, module in list(sys.modules.items()):
            if name.startswith("thermomap") and (
                getattr(module, "forward_orbit", None) is real
            ):
                monkeypatch.setattr(module, "forward_orbit", counting)
        callers = []
        real_eval = IntervalMap.eval

        def tracking(self, x):
            callers.append(sys._getframe(1).f_code.co_name)
            return real_eval(self, x)

        monkeypatch.setattr(IntervalMap, "eval", tracking)
        f = tent_map()
        phi = CosineSeriesPotential((0.3,))
        runs = {
            "separated_pressure": lambda: separated_pressure(f, phi, 4, 0.05, 40),
            "hyperbolicity_check": lambda: hyperbolicity_check(f, phi, -1.0, n_max=3),
            "AveragedPotential": lambda: AveragedPotential(f, phi, 3)(
                np.linspace(0.0, 1.0, 9)),
        }
        for name, run in runs.items():
            kernel_calls.clear()
            callers.clear()
            run()
            assert kernel_calls, name
            assert callers and set(callers) == {"forward_orbit"}, name


@settings(deadline=None, max_examples=60)
@given(y=st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False))
def test_preimages_are_true_preimages(y):
    for f in (tent_map(), logistic4_map(), golden_tent_map(), full_linear_map(3)):
        pre = level_one(f, y)
        assert np.all(np.diff(pre) > 0)
        assert np.allclose(f.eval(pre), y, atol=1e-9)
