"""Sharp constants in Hardy inequalities with mixed weights |y|^a |z|^-b on cones.

The namespace is lazy (PEP 562): a public name, or one of the submodules
params, quadrature, spherical and verifier, is imported on first access and
then cached here.  So `import hardycone` loads no numpy, and neither does
importing the closed forms or the cones' cross-sections, which come from
the pure-Python params module.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it, in __all__ order
_EXPORTS = {
    **dict.fromkeys([
        "DIRICHLET", "NATURAL", "AdmissibilityError", "AdmissibilityReport", "AngularDomain",
        "BoundaryCondition", "ClosedForm", "ConeKind", "ConeSpec", "HardyExponent", "HardyParams",
        "bc_for_cone", "closed_form_constant", "cone_admissible", "hardy_exponent",
    ], "params"),
    **dict.fromkeys([
        "AngularWeight", "QuadratureRule", "composite_rule", "sphere_surface_area",
        "sphere_weight_mass",
    ], "quadrature"),
    **dict.fromkeys([
        "ConvergenceError", "DiscretizedFunction", "SpectralResult", "assemble_p2", "graded_mesh",
        "minimize_rayleigh_p", "smallest_eigenpair", "solve_M",
    ], "spherical"),
    **dict.fromkeys([
        "RayleighEvaluation", "cutoff_decay", "eta_cutoff", "evaluate_quotient_udelta",
        "radial_hardy_quotient",
    ], "verifier"),
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # the import binds it here too
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
