"""Numerical thermodynamic formalism for piecewise-monotone interval maps."""

from .conformal import (
    AtomicMeasure,
    atom_audit,
    conformality_audit,
    transition_parameter,
    uniform_atoms,
    weak_limit,
)
from .errors import (
    AuditError,
    BudgetError,
    ConfigError,
    ConvergenceError,
    DomainError,
    ThermomapError,
)
from .keller import SampledFunction, norm_chain_audit, norm_report, p_variation
from .maps import (
    IntervalMap,
    full_linear_map,
    golden_tent_map,
    logistic4_map,
    pw_linear_map,
)
from .potentials import (
    AveragedPotential,
    BranchConstantPotential,
    ConstantPotential,
    CosineSeriesPotential,
    PiecewiseLinearPotential,
)
from .pressure import (
    appendix_construct,
    hyperbolicity_check,
    level_sums,
    pressure_curve,
    pressure_report,
    separated_pressure,
    tree_pressure,
)
from .transfer import (
    GridFunction,
    correlation,
    equilibrium_state,
    power_iteration,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure",
    "AuditError",
    "AveragedPotential",
    "BranchConstantPotential",
    "BudgetError",
    "ConfigError",
    "ConstantPotential",
    "ConvergenceError",
    "CosineSeriesPotential",
    "DomainError",
    "GridFunction",
    "IntervalMap",
    "PiecewiseLinearPotential",
    "SampledFunction",
    "ThermomapError",
    "appendix_construct",
    "atom_audit",
    "conformality_audit",
    "correlation",
    "equilibrium_state",
    "full_linear_map",
    "golden_tent_map",
    "hyperbolicity_check",
    "level_sums",
    "logistic4_map",
    "norm_chain_audit",
    "norm_report",
    "p_variation",
    "power_iteration",
    "pressure_curve",
    "pressure_report",
    "pw_linear_map",
    "separated_pressure",
    "transition_parameter",
    "tree_pressure",
    "uniform_atoms",
    "weak_limit",
]
