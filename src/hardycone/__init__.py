"""Sharp constants in Hardy inequalities with mixed weights |y|^a |z|^-b on cones."""

from .params import (
    AdmissibilityError,
    AdmissibilityReport,
    ClosedForm,
    ConeKind,
    ConeSpec,
    HardyExponent,
    HardyParams,
    closed_form_constant,
    cone_admissible,
    cylindrical_constant,
    hardy_exponent,
)
from .quadrature import (
    AngularWeight,
    QuadratureRule,
    composite_rule,
    sphere_surface_area,
    sphere_weight_mass,
)
from .spherical import (
    DIRICHLET,
    NATURAL,
    AngularDomain,
    BoundaryCondition,
    ConvergenceError,
    DiscretizedFunction,
    SpectralResult,
    assemble_p2,
    bc_for_cone,
    graded_mesh,
    minimize_rayleigh_p,
    smallest_eigenpair,
    solve_M,
)
from .verifier import (
    RayleighEvaluation,
    cutoff_decay,
    eta_cutoff,
    evaluate_quotient_udelta,
    radial_hardy_quotient,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError", "AdmissibilityReport", "ClosedForm", "ConeKind", "ConeSpec",
    "HardyExponent", "HardyParams", "closed_form_constant", "cone_admissible",
    "cylindrical_constant", "hardy_exponent",
    "AngularWeight", "QuadratureRule", "composite_rule", "sphere_surface_area",
    "sphere_weight_mass",
    "DIRICHLET", "NATURAL", "AngularDomain", "BoundaryCondition", "ConvergenceError",
    "DiscretizedFunction", "SpectralResult", "assemble_p2", "bc_for_cone", "graded_mesh",
    "minimize_rayleigh_p", "smallest_eigenpair", "solve_M",
    "RayleighEvaluation", "cutoff_decay", "eta_cutoff", "evaluate_quotient_udelta",
    "radial_hardy_quotient",
]
