"""Verification toolkit for Legendrian surfaces in the unit 5-sphere.

The package evaluates, at machine precision, the geometric data of a
parametrized Legendrian surface (induced metric, second fundamental form,
mean curvature, cubic form, Gauss curvature) together with the variational
residuals of three problems — contact-stationary area (csL), the
Willmore-Legendrian equation, and the csL-Willmore equation — and checks the
web of identities connecting them.  Built-in members: the flat Calabi-type
torus family, a three-parameter torus family with diagonal metric, a totally
geodesic sphere, and arbitrary expression-defined immersions.
"""

from .errors import (
    DegenerateMetricError,
    DegreeError,
    DivideByZeroJetError,
    DomainError,
    GridError,
    LabError,
    NonAnalyticError,
    NotFiniteError,
    NotOnSphereError,
    OrderError,
    ParamConstraintError,
    StencilOutOfDomainError,
    SyntaxParseError,
    UnsupportedSurfaceError,
    ValidationError,
)
from .ambient import (
    apply_J,
    contact_extended_J,
    contact_projection,
    hermitian_inner,
    real_inner,
    reeb,
)
from .jets import Jet2, analytic, extract_partial, lift_point
from .exprlang import Diagnostic, eval_complex, eval_jet, parse, to_source, validate
from .surfaces import (
    ImmersionSpec,
    calabi,
    evaluate_jet_batch,
    from_expression,
    geodesic_sphere,
    grid_points,
    mironov,
    sample_points,
    surface_by_name,
    wrap_coordinate,
)
from .geometry import ChartFrame, brioschi, point_report
from .operators import (
    CheckResult,
    ResidualReport,
    energy_doubling,
    identity_suite,
    run_verification,
    willmore_energy,
)

__version__ = "0.1.0"

__all__ = [
    "Jet2",
    "ImmersionSpec",
    "ChartFrame",
    "CheckResult",
    "ResidualReport",
    "Diagnostic",
    "LabError",
    "DegreeError",
    "OrderError",
    "DivideByZeroJetError",
    "DomainError",
    "SyntaxParseError",
    "NonAnalyticError",
    "ParamConstraintError",
    "ValidationError",
    "NotOnSphereError",
    "NotFiniteError",
    "DegenerateMetricError",
    "StencilOutOfDomainError",
    "GridError",
    "UnsupportedSurfaceError",
    "hermitian_inner",
    "real_inner",
    "apply_J",
    "reeb",
    "contact_projection",
    "contact_extended_J",
    "lift_point",
    "analytic",
    "extract_partial",
    "parse",
    "validate",
    "eval_jet",
    "eval_complex",
    "to_source",
    "calabi",
    "mironov",
    "geodesic_sphere",
    "from_expression",
    "surface_by_name",
    "wrap_coordinate",
    "evaluate_jet_batch",
    "sample_points",
    "grid_points",
    "brioschi",
    "point_report",
    "identity_suite",
    "willmore_energy",
    "energy_doubling",
    "run_verification",
]
