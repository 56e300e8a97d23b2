"""The Chebyshev spectral oracle, pinned to closed forms, and today's
estimators measured against it where no closed form exists."""

import numpy as np
import pytest

from helpers import chebyshev_transfer, tent_map
from thermomap.conformal import transition_parameter
from thermomap.maps import golden_tent_map, logistic4_map
from thermomap.potentials import BranchConstantPotential, CosineSeriesPotential
from thermomap.pressure import level_sums
from thermomap.transfer import power_iteration

BETA = (1.0 + np.sqrt(5.0)) / 2.0
COS = CosineSeriesPotential((0.3, -0.2))
# log lambda_1 of the oracle, stable to 2e-15 over n = 32..96
TENT_COS = 0.6957768143676037
LOGISTIC_COS = 0.745677633489394


def spectrum(imap, potential, n=32):
    """The oracle's eigenvalues, largest modulus first."""
    ev = np.linalg.eigvals(chebyshev_transfer(imap, potential, n)[1])
    return ev[np.argsort(-np.abs(ev))]


def log_lambda(imap, potential, n=32):
    lead = spectrum(imap, potential, n)[0]
    assert abs(lead.imag) < 1e-12 * lead.real
    return float(np.log(lead.real))


def test_nodes_are_one_chebyshev_block_per_cell():
    f = golden_tent_map()
    nodes, mat = chebyshev_transfer(f, None, 8)
    assert nodes.size == 16 and mat.shape == (16, 16)
    kink = f.breakpoints[1]
    assert (nodes[:8] < kink).all() and (nodes[8:] > kink).all()
    assert np.all(np.diff(nodes[:8]) < 0) and np.all(np.diff(nodes[8:]) < 0)


def test_tent_bernoulli_pressure():
    # the constant function is an eigenfunction: L 1 = 1 + e^-1
    bernoulli = BranchConstantPotential((0.0, 0.5, 1.0), (0.0, -1.0))
    assert abs(log_lambda(tent_map(), bernoulli) - np.log1p(np.exp(-1.0))) < 1e-14


def test_tent_counting_spectrum():
    ev = spectrum(tent_map(), None)
    assert abs(np.log(ev[0].real) - np.log(2.0)) < 1e-14
    assert abs(abs(ev[1] / ev[0]) - 0.25) < 1e-12


def test_golden_tent_on_its_two_cells():
    ev = spectrum(golden_tent_map(), None)
    assert abs(np.log(ev[0].real) - np.log(BETA)) < 1e-14
    assert abs(abs(ev[1] / ev[0]) - 1.0 / BETA**2) < 1e-12


@pytest.mark.parametrize("imap, value", [(tent_map(), TENT_COS),
                                         (logistic4_map(), LOGISTIC_COS)],
                         ids=["tent", "logistic4"])
def test_cosine_pressure_is_stable_in_n(imap, value):
    for n in (32, 64):
        assert abs(log_lambda(imap, COS, n) - value) < 1e-14, n


# Each bound is three times the error measured on numpy 2.4 (in the
# comment), rounded up to one significant digit.
@pytest.mark.parametrize("imap, value, bound", [
    (tent_map(), TENT_COS, 2e-8),  # 3.6e-9
    (logistic4_map(), LOGISTIC_COS, 6e-8),  # 1.8e-8
], ids=["tent", "logistic4"])
def test_power_iteration_log_eigenvalue_against_the_oracle(imap, value, bound):
    report = power_iteration(imap, COS, 4096)
    assert report.converged
    assert abs(report.log_eigenvalue - value) < bound


@pytest.mark.parametrize("imap, value, bound", [
    (tent_map(), TENT_COS, 3e-12),  # 7.5e-13
    (logistic4_map(), LOGISTIC_COS, 5e-7),  # 1.6e-7
], ids=["tent", "logistic4"])
def test_transition_parameter_against_the_oracle(imap, value, bound):
    c = transition_parameter(level_sums(imap, COS, 0.3, 16)).c
    assert abs(c - value) < bound
