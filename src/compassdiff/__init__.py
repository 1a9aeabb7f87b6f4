"""Guaranteed subgradients of nonsmooth bivariate functions from four
directional-derivative evaluations, plus the constructions built on top of
them: convex-set element location by support probing, parametric ODE cost
subgradients, optimal-value-function subgradients, and a subgradient method.
"""

from .catalog import (
    CatalogEntry,
    GradientHull,
    catalog,
    catalog_entry,
    clarke_membership_check,
)
from .compass import (
    basis_compass_difference,
    compass_difference,
    compass_from_psi,
)
from .danskin import (
    ActiveSet,
    Box,
    FinitePointCloud,
    OptimalValueProblem,
    danskin_subgradient,
    optimal_value,
    psi,
    solve_inner,
)
from .expr import (
    ExprParseError,
    NonsmoothExpr,
    as_oracle,
    eval_dir_deriv,
    eval_value,
    format_expr,
    parse_expr,
)
from .geometry import (
    AmbiguityCertificate,
    IntervalHull,
    MembershipReport,
    MidpointResult,
    SupportOracle,
    interval_hull,
    membership_check,
    midpoint_element,
    polytope_support,
    three_probe_ambiguity,
)
from .odesens import (
    IntegrationConfig,
    IntegrationError,
    OdeProblem,
    SensitivityTrajectory,
    integrate_coupled,
    ode_cost_dirderiv,
    ode_cost_value,
    ode_subgradient,
)
from .optimize import (
    Constant,
    Diminishing,
    OptTrace,
    Polyak,
    StepRule,
    subgradient_method,
)
from .oracle import (
    GUARANTEED,
    UNGUARANTEED,
    CompassResult,
    DirectionalOracle,
    InputError,
    NumericalError,
    OracleError,
    Probe,
    VectorOracle,
)

__version__ = "0.1.0"

__all__ = [
    "ActiveSet",
    "AmbiguityCertificate",
    "Box",
    "CatalogEntry",
    "CompassResult",
    "Constant",
    "Diminishing",
    "DirectionalOracle",
    "ExprParseError",
    "FinitePointCloud",
    "GUARANTEED",
    "GradientHull",
    "InputError",
    "IntegrationConfig",
    "IntegrationError",
    "IntervalHull",
    "MembershipReport",
    "MidpointResult",
    "NonsmoothExpr",
    "NumericalError",
    "OdeProblem",
    "OptTrace",
    "OptimalValueProblem",
    "OracleError",
    "Polyak",
    "Probe",
    "SensitivityTrajectory",
    "StepRule",
    "SupportOracle",
    "UNGUARANTEED",
    "VectorOracle",
    "as_oracle",
    "basis_compass_difference",
    "catalog",
    "catalog_entry",
    "clarke_membership_check",
    "compass_difference",
    "compass_from_psi",
    "danskin_subgradient",
    "eval_dir_deriv",
    "eval_value",
    "format_expr",
    "integrate_coupled",
    "interval_hull",
    "membership_check",
    "midpoint_element",
    "ode_cost_dirderiv",
    "ode_cost_value",
    "ode_subgradient",
    "optimal_value",
    "parse_expr",
    "polytope_support",
    "psi",
    "solve_inner",
    "subgradient_method",
    "three_probe_ambiguity",
]
