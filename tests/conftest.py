"""Shared fixtures and the acceptance summary table.

The weak-limit constructions are the only genuinely expensive objects the
suite needs, so they are built once per session. The terminal-summary hook
prints one PASS/FAIL line per acceptance criterion, collected by the
record_acceptance helper in helpers.py, regardless of capture settings.
"""

import numpy as np
import pytest

import helpers
from thermomap.conformal import transition_parameter, weak_limit, window_start
from thermomap.maps import full_linear_map, logistic4_map
from thermomap.potentials import BranchConstantPotential
from thermomap.pressure import level_sums


@pytest.fixture(scope="session")
def bern_limit():
    """Converged weak limit for the doubling map with weights (1, e^-1)."""
    imap = full_linear_map(2)
    phi = BranchConstantPotential((0.0, 0.5, 1.0), (0.0, -1.0))
    sums = level_sums(imap, phi, 0.3, 16, retain_from=window_start(16))
    trans = transition_parameter(sums)
    limit = weak_limit(sums, trans.c, tol=1e-6)
    return imap, phi, trans, limit


@pytest.fixture(scope="session")
def logistic_limit():
    """Converged weak limit for the full quadratic map, zero potential."""
    imap = logistic4_map()
    sums = level_sums(imap, None, 0.3, 16, retain_from=window_start(16))
    trans = transition_parameter(sums)
    limit = weak_limit(sums, trans.c, tol=1e-6)
    return imap, trans, limit


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = helpers.acceptance_lines()
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
