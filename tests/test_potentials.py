"""Potential families, Holder metadata, and orbit averaging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import orbit
from thermomap.errors import AuditError, DomainError
from thermomap.maps import birkhoff_sum, tent_map
from thermomap.potentials import (
    AveragedPotential,
    BranchConstantPotential,
    ConstantPotential,
    CosineSeriesPotential,
    PiecewiseLinearPotential,
    SummedPotential,
    audit_holder,
    potential_range,
)


def test_constant_potential():
    phi = ConstantPotential(-0.7)
    xs = np.linspace(0, 1, 11)
    assert np.all(phi(xs) == -0.7)
    assert phi.holder_constant == 0.0
    assert phi.scale(2.0).value == -1.4


def test_branch_constant_left_edge_convention():
    phi = BranchConstantPotential((0.0, 0.5, 1.0), (1.0, 2.0))
    assert phi(np.asarray(0.25)) == 1.0
    assert phi(np.asarray(0.75)) == 2.0
    # the left cell owns the shared edge
    assert phi(np.asarray(0.5)) == 1.0
    assert phi(np.asarray(0.0)) == 1.0
    assert phi(np.asarray(1.0)) == 2.0


def test_branch_constant_from_map():
    phi = BranchConstantPotential.from_map(tent_map(), [3.0, -1.0])
    assert phi.cell_edges == (0.0, 0.5, 1.0)
    assert np.allclose(phi(np.array([0.1, 0.9])), [3.0, -1.0])
    assert not np.isfinite(phi.holder_constant)
    flat = BranchConstantPotential.from_map(tent_map(), [2.0, 2.0])
    assert flat.holder_constant == 0.0


def test_branch_constant_shape_mismatch():
    with pytest.raises(DomainError):
        BranchConstantPotential((0.0, 1.0), (1.0, 2.0))


@pytest.mark.parametrize(
    "edges", [(0.0, 0.6, 0.2, 1.0), (0.0, 0.5, 0.5, 1.0), (1.0, 0.5, 0.0), (0.0, np.nan, 1.0)]
)
def test_branch_constant_rejects_unsorted_edges(edges):
    # searchsorted on unsorted edges would pick cells silently
    with pytest.raises(DomainError, match="strictly increasing"):
        BranchConstantPotential(edges, (1.0,) * (len(edges) - 1))


def test_cosine_series_values():
    phi = CosineSeriesPotential((0.03,), offset=-0.1)
    assert phi(np.asarray(0.0)) == pytest.approx(-0.07)
    assert phi(np.asarray(0.5)) == pytest.approx(-0.13)
    assert phi(np.asarray(0.25)) == pytest.approx(-0.1)


def test_cosine_lipschitz_constant_bounds_slopes():
    # single frequency: the bound 2 pi j |a| is attained up to grid error
    single = CosineSeriesPotential((0.2,), offset=0.3)
    xs = np.linspace(0, 1, 20001)
    slopes = np.abs(np.diff(single(xs)) / np.diff(xs))
    assert slopes.max() <= single.holder_constant + 1e-9
    assert slopes.max() >= 0.999 * single.holder_constant
    # several frequencies: triangle inequality makes it an upper bound only
    multi = CosineSeriesPotential((0.2, -0.05), offset=0.3)
    slopes = np.abs(np.diff(multi(xs)) / np.diff(xs))
    assert slopes.max() <= multi.holder_constant + 1e-9


def test_cosine_range_is_exact_even_on_coarse_grid():
    phi = CosineSeriesPotential((0.0, 0.0, 0.07), offset=0.2)
    lo, hi = potential_range(phi, (0.0, 1.0), grid=7)
    assert lo == pytest.approx(0.13, abs=1e-12)
    assert hi == pytest.approx(0.27, abs=1e-12)


def test_piecewise_linear_values_and_slope():
    phi = PiecewiseLinearPotential((0.0, 0.5, 0.75, 1.0), (0.0, 0.0, -1.0, -1.0))
    assert phi(np.asarray(0.625)) == pytest.approx(-0.5)
    assert phi(np.asarray(0.3)) == 0.0
    assert phi.holder_constant == pytest.approx(4.0)
    lo, hi = potential_range(phi, (0.0, 1.0))
    assert (lo, hi) == (-1.0, 0.0)


def test_piecewise_linear_validation():
    with pytest.raises(DomainError):
        PiecewiseLinearPotential((0.0, 0.0, 1.0), (1.0, 2.0, 3.0))
    with pytest.raises(DomainError):
        PiecewiseLinearPotential((0.0,), (1.0,))


def test_sum_and_scale():
    a = CosineSeriesPotential((0.1,))
    b = ConstantPotential(2.0)
    s = a + b
    assert isinstance(s, SummedPotential)
    xs = np.linspace(0, 1, 17)
    assert np.allclose(s(xs), a(xs) + b(xs))
    assert np.allclose(s.scale(-3.0)(xs), -3.0 * s(xs))
    three = s + ConstantPotential(1.0)
    assert len(three.parts) == 3
    assert s.holder_constant == pytest.approx(a.holder_constant)


def test_averaged_potential_matches_direct_mean():
    f = tent_map()
    base = CosineSeriesPotential((0.3,), offset=-0.2)
    avg = AveragedPotential(f, base, 4)
    xs = np.linspace(0, 1, 41)
    direct = [np.mean([float(base(p)) for p in orbit(f, x, 3)]) for x in xs]
    assert np.allclose(avg(xs), direct, atol=1e-12)


def test_averaged_potential_scalar_in_scalar_out():
    f = tent_map()
    avg = AveragedPotential(f, CosineSeriesPotential((0.3,), offset=-0.2), 4)
    for fn in (avg, avg.transfer_term):
        value = fn(0.3)
        assert isinstance(value, float)
        assert value == fn(np.array([0.3]))[0]


def test_averaged_window_one_is_identity():
    f = tent_map()
    base = CosineSeriesPotential((0.3,), offset=-0.2)
    avg = AveragedPotential(f, base, 1)
    xs = np.linspace(0, 1, 13)
    assert np.allclose(avg(xs), base(xs), atol=1e-15)
    assert avg.coboundary_sup_bound() == 0.0


def test_averaged_cohomology_identity():
    # avg = base + u o f - u must hold pointwise
    f = tent_map()
    base = CosineSeriesPotential((0.25, 0.1), offset=0.05)
    avg = AveragedPotential(f, base, 5)
    xs = np.linspace(0.01, 0.99, 37)
    lhs = avg(xs) - base(xs)
    rhs = avg.transfer_term(f.eval(xs)) - avg.transfer_term(xs)
    assert np.allclose(lhs, rhs, atol=1e-11)


def test_coboundary_bound_controls_birkhoff_gap():
    f = tent_map()
    base = CosineSeriesPotential((0.3,), offset=-1.0)
    n_window = 6
    avg = AveragedPotential(f, base, n_window)
    bound = avg.coboundary_sup_bound()
    assert bound == pytest.approx((n_window - 1) * 0.6 / 2.0, abs=1e-9)
    rng = np.random.default_rng(7)
    xs = rng.uniform(0, 1, 200)
    for n in (1, 3, 9):
        gap = np.abs(birkhoff_sum(f, avg, xs, n) - birkhoff_sum(f, base, xs, n))
        assert gap.max() <= bound + 1e-9


def test_averaged_scale_commutes():
    f = tent_map()
    base = CosineSeriesPotential((0.2,), offset=0.4)
    avg = AveragedPotential(f, base, 3)
    xs = np.linspace(0, 1, 9)
    assert np.allclose(avg.scale(2.5)(xs), 2.5 * avg(xs), atol=1e-12)
    assert isinstance(avg.scale(2.5), AveragedPotential)


def test_audit_holder_accepts_honest_constants():
    phi = CosineSeriesPotential((0.2, -0.05), offset=0.3)
    rep = audit_holder(phi, (0.0, 1.0))
    assert rep.holds
    assert rep.max_ratio <= rep.constant + 1e-9
    pl = PiecewiseLinearPotential((0.0, 0.5, 1.0), (0.0, 1.0, 0.3))
    assert audit_holder(pl, (0.0, 1.0)).holds


def test_audit_holder_flags_understated_constant():
    class Lying(CosineSeriesPotential):
        @property
        def holder_constant(self) -> float:
            return 0.01 * super().holder_constant

    phi = Lying((0.5,))
    rep = audit_holder(phi, (0.0, 1.0))
    assert not rep.holds
    with pytest.raises(AuditError):
        audit_holder(phi, (0.0, 1.0), strict=True)


def test_audit_holder_infinite_constant_is_vacuous():
    phi = BranchConstantPotential((0.0, 0.5, 1.0), (0.0, 5.0))
    rep = audit_holder(phi, (0.0, 1.0))
    assert rep.holds
    assert not np.isfinite(rep.constant)


@settings(deadline=None, max_examples=60)
@given(x=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_branch_constant_lookup_matches_linear_scan(x):
    edges = (0.0, 0.2, 0.55, 0.8, 1.0)
    values = (1.0, -2.0, 0.5, 3.0)
    phi = BranchConstantPotential(edges, values)
    # reference: last cell whose closed-left interval reaches x
    idx = 0
    for i in range(1, 4):
        if x > edges[i]:
            idx = i
    assert phi(np.asarray(x)) == values[idx]


@settings(deadline=None, max_examples=40)
@given(
    c=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    x=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_scaling_is_pointwise(c, x):
    phi = CosineSeriesPotential((0.4, 0.1), offset=-0.3) + ConstantPotential(1.1)
    assert phi.scale(c)(np.asarray(x)) == pytest.approx(c * phi(np.asarray(x)), abs=1e-9)
