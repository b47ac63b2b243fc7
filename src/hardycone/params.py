"""Problem parameters, admissibility, the cone's cross-section, and closed-form sharp constants.

Everything here concerns the best constant m in

    m * int_C |y|^a |z|^(-b-p) |u|^p dz  <=  int_C |y|^a |z|^(-b) |grad u|^p dz

for u compactly supported in a cone C of R^d = R^(d-k) x R^k, z = (x, y).
The sign-carrying exponent

    H = (d + a - p - b) / p

governs the radial profile r^(-H) of the extremal family, and |H|^p is the
baseline value of m on the largest cones.  bc_for_cone gives the cone's
polar cross-section with its endpoint conditions, and closed_form_constant
reads the sharp constant off it whenever it is known in closed form; every
value depends on b only through |H|.

The cell's 1-D problem (_SphericalProblem) and what a solve returns or
raises (SpectralResult, ConvergenceError, MIN_MESH_SIZE) live here too,
with the quotient of the extremal profile wherever that profile is known,
so the command line answers such cells without importing numpy or a
solver.  The spherical module re-exports them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .spherical import DiscretizedFunction

HALF_PI = math.pi / 2
MIN_MESH_SIZE = 16  # fewest elements a solve accepts


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class AdmissibilityError(ValueError):
    """A (parameters, cone) pair fails the weight-integrability requirements."""


@dataclass(frozen=True)
class HardyParams:
    """Dimensions (d, k), integrability exponent p, and weight exponents (a, b).

    The cylindrical weight |y|^a acts on the k trailing coordinates; a = 0 is
    accepted as the unweighted cross-validation channel.
    """

    d: int
    k: int
    p: float
    a: float
    b: float

    def __post_init__(self) -> None:
        if not (isinstance(self.d, int) and isinstance(self.k, int)):
            raise ValueError("d and k must be integers")
        if self.d < 2:
            raise ValueError(f"need d >= 2, got d={self.d}")
        if not 1 <= self.k < self.d:
            raise ValueError(f"need 1 <= k < d, got k={self.k}, d={self.d}")
        if not (math.isfinite(self.p) and self.p > 1):
            raise ValueError(f"need p > 1, got p={self.p}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("a and b must be finite")


@dataclass(frozen=True)
class HardyExponent:
    """The signed exponent H = (d+a-p-b)/p and its p-th power |H|^p."""

    H: float
    H_abs_p: float


def hardy_exponent(params: HardyParams) -> HardyExponent:
    """Exponent of the extremal radial profile, H = (d+a)/p - (p+b)/p."""
    H = (params.d + params.a - params.p - params.b) / params.p
    return HardyExponent(H=H, H_abs_p=abs(H) ** params.p)


class ConeKind(str, Enum):
    FULL_SPACE = "full"
    PUNCTURED_SPACE = "punctured"
    COMPLEMENT_SIGMA0 = "complement-sigma0"
    HALF_SPACE = "half-space"
    BAND = "band"


@dataclass(frozen=True)
class ConeSpec:
    """An axisymmetric cone, described by its polar-angle cross-section.

    The polar angle theta satisfies |y| = r cos(theta), |x| = r sin(theta),
    so theta = pi/2 is the singular set Sigma0 = {y = 0} and theta = 0 is the
    y-axis.  Supported cones:

    * full space R^d and the punctured space R^d minus the origin,
    * the complement of Sigma0,
    * the half space {y_k > 0} (requires k = 1),
    * open bands theta1 < theta < theta2.
    """

    kind: ConeKind
    theta1: float = 0.0
    theta2: float = HALF_PI

    def __post_init__(self) -> None:
        if self.kind is ConeKind.BAND:
            if not (0.0 <= self.theta1 < self.theta2 <= HALF_PI):
                raise ValueError(
                    "band needs 0 <= theta1 < theta2 <= pi/2, got "
                    f"({self.theta1}, {self.theta2})"
                )
        elif (self.theta1, self.theta2) != (0.0, HALF_PI):
            raise ValueError(f"{self.kind.value} cone carries the fixed interval (0, pi/2)")

    @classmethod
    def full_space(cls) -> "ConeSpec":
        return cls(ConeKind.FULL_SPACE)

    @classmethod
    def punctured_space(cls) -> "ConeSpec":
        return cls(ConeKind.PUNCTURED_SPACE)

    @classmethod
    def complement_sigma0(cls) -> "ConeSpec":
        return cls(ConeKind.COMPLEMENT_SIGMA0)

    @classmethod
    def half_space(cls) -> "ConeSpec":
        return cls(ConeKind.HALF_SPACE)

    @classmethod
    def band(cls, theta1: float, theta2: float) -> "ConeSpec":
        return cls(ConeKind.BAND, float(theta1), float(theta2))

    @property
    def cross_section_touches_sigma0(self) -> bool:
        """True if the closure of the spherical cross-section meets {y = 0}."""
        return self.kind is not ConeKind.BAND or self.theta2 == HALF_PI

    def describe(self) -> str:
        """Parseable name; band angles carry full precision for round trips."""
        if self.kind is ConeKind.BAND:
            return f"band:{self.theta1!r}:{self.theta2!r}"
        return self.kind.value


class BoundaryCondition(str, Enum):
    DIRICHLET = "dirichlet"
    NATURAL = "natural"


DIRICHLET = BoundaryCondition.DIRICHLET
NATURAL = BoundaryCondition.NATURAL


@dataclass(frozen=True)
class AngularDomain:
    """A polar-angle interval with an endpoint condition at each end.

    Natural (no-flux) conditions are imposed weakly and mark coordinate poles
    interior to the cone; Dirichlet marks genuine cross-section boundary.
    """

    theta1: float
    theta2: float
    bc1: BoundaryCondition
    bc2: BoundaryCondition

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta1 < self.theta2 <= HALF_PI):
            raise ValueError(f"need 0 <= theta1 < theta2 <= pi/2, got ({self.theta1}, {self.theta2})")


@dataclass(frozen=True)
class AdmissibilityReport:
    """Admissibility and superdegeneracy (k+a >= p) of a (parameters, cone) pair."""

    cone_admissible: bool
    superdegenerate: bool
    notes: list[str] = field(default_factory=list)


def cone_admissible(params: HardyParams, cone: ConeSpec) -> AdmissibilityReport:
    """Decide whether the weighted inequality on the cone is well posed.

    A cone whose cross-section closure stays away from {y = 0} is admissible
    for every a; otherwise k + a > 0 is required, and the full space further
    needs d + a > p + b so that the left-hand weight is locally integrable at
    the origin.
    """
    if cone.kind is ConeKind.HALF_SPACE and params.k != 1:
        raise ValueError(f"half-space cone requires k = 1, got k={params.k}")

    ka = params.k + params.a
    notes: list[str] = []
    avoids = not cone.cross_section_touches_sigma0
    admissible = avoids or ka > 0
    if cone.kind is ConeKind.FULL_SPACE:
        admissible = ka > 0 and params.d + params.a > params.p + params.b
        if params.d + params.a <= params.p + params.b:
            notes.append("full space needs d+a > p+b (weight integrable at the origin)")
    if avoids:
        notes.append("cross-section closure avoids {y=0}; any a admissible")
    elif ka <= 0:
        notes.append("k+a <= 0: weight not integrable near {y=0}")

    superdeg = ka >= params.p
    if superdeg:
        notes.append("superdegenerate (k+a >= p): removing {y=0} does not change the constant")

    return AdmissibilityReport(cone_admissible=admissible, superdegenerate=superdeg, notes=notes)


def require_admissible(params: HardyParams, cone: ConeSpec) -> AdmissibilityReport:
    report = cone_admissible(params, cone)
    if not report.cone_admissible:
        raise AdmissibilityError(
            f"inadmissible cone {cone.describe()} for d={params.d}, k={params.k}, "
            f"p={params.p}, a={params.a}, b={params.b}: " + "; ".join(report.notes)
        )
    return report


def bc_for_cone(params: HardyParams, cone: ConeSpec) -> AngularDomain:
    """The cross-section [theta1, theta2] of an admissible cone, with its endpoint conditions.

    theta = 0 (the y-axis) lies inside the cone, so a theta1 = 0 end is
    natural, and an interior end is Dirichlet.  theta = pi/2 is natural
    unless {y = 0} was removed (every cone but the full and punctured
    space) and the cell is not superdegenerate: at k+a >= p the removed set
    has zero weighted p-capacity and the natural condition takes over.
    """
    superdeg = require_admissible(params, cone).superdegenerate
    removed = cone.kind not in (ConeKind.FULL_SPACE, ConeKind.PUNCTURED_SPACE)
    bc1 = NATURAL if cone.theta1 == 0.0 else DIRICHLET
    bc2 = DIRICHLET if cone.theta2 < HALF_PI or (removed and not superdeg) else NATURAL
    return AngularDomain(cone.theta1, cone.theta2, bc1, bc2)


class _SphericalProblem(NamedTuple):
    """p, k+a, d-k, H^2 and the cross-section: all a solve reads, so equal problems solve alike.

    A NamedTuple hashes by value, and costs no dataclass import time.
    """

    p: float
    ka: float
    dk: int
    H2: float
    domain: AngularDomain

    @classmethod
    def of(cls, params: HardyParams, domain: AngularDomain) -> "_SphericalProblem":
        return cls(params.p, params.k + params.a, params.d - params.k, hardy_exponent(params).H ** 2, domain)

    @property
    def s(self) -> float:
        """Boundary-layer exponent: phi ~ cos^s theta, s = (p - (k+a)) / (p - 1), at a Dirichlet pi/2; else 0."""
        if self.domain.theta2 != HALF_PI or self.domain.bc2 is not DIRICHLET:
            return 0.0
        return (self.p - self.ka) / (self.p - 1.0)

    @property
    def exact_profile(self) -> str | None:
        """The extremal profile's regime where it is known in closed form, else None.

        On [0, pi/2] with a natural pi/2 the profile is constant
        ("constant-profile"); with a Dirichlet pi/2 at p = 2 it is cos^s theta
        ("p2-dirichlet").
        """
        if (self.domain.theta1, self.domain.theta2) != (0.0, HALF_PI):
            return None
        if self.domain.bc2 is NATURAL:
            return "constant-profile"
        return "p2-dirichlet" if self.p == 2 else None

    def exact_quotient(self) -> float | None:
        """The sharp constant of the extremal profile (see exact_profile), or None where none is known.

        A constant profile has e = phi'^2 + H^2 phi^2 = H^2 phi^2 everywhere, so
        E/D = |H|^p, taken as sqrt(H^2)^p: abs(H) ** p bit for bit wherever
        H^2 is a normal float (|H| above 1.5e-154; below, the value reads
        the rounded H^2, as a solver does).  cos^s theta at p = 2 has
        phi'^2 = s^2 tan^2 theta phi^2, and against the angular weight
        int tan^2 theta phi^2 = (d-k)/s int phi^2, so E/D = (d-k) s + H^2.
        """
        profile = self.exact_profile
        if profile is None:
            return None
        if profile == "constant-profile":
            return math.sqrt(self.H2) ** self.p
        return self.dk * self.s + self.H2


@dataclass(frozen=True, eq=False)
class SpectralResult:
    """Computed spherical minimum M, eigenvalue lam = M - H^2 (p = 2; else None), and minimizer.

    Every result is built by _of.  Where the extremal profile is known
    (exact), M is the sharp constant itself, closed_form_constant's value
    bit for bit, and iterations and residual are 0 and 0.0.  Elsewhere they
    describe the solve: an hp solve's Newton steps and the change of M
    between its last two levels (hp._hp_solve); a P1 descent's steps and
    last relative step decrement (minimize_rayleigh_p).  The minimizer (a
    spherical._Minimizer) holds the accepted discretization; a grid row
    drops it (None).
    """

    M: float
    lam: float | None
    minimizer: DiscretizedFunction | None
    iterations: int
    residual: float

    @classmethod
    def _of(cls, problem: _SphericalProblem, M: float, minimizer: DiscretizedFunction | None, iterations: int,
            residual: float) -> "SpectralResult":
        """The result of a solve of the problem that gave M, with its lam."""
        return cls(M, M - problem.H2 if problem.p == 2 else None, minimizer, iterations, residual)

    @classmethod
    def exact(cls, problem: _SphericalProblem, minimizer: DiscretizedFunction | None = None) -> "SpectralResult | None":
        """The exact profile's result (see exact_quotient), or None where the problem needs a solve."""
        M = problem.exact_quotient()
        return None if M is None else cls._of(problem, M, minimizer, 0, 0.0)


@dataclass(frozen=True)
class ClosedForm:
    """A sharp constant known exactly, with a tag naming its regime."""

    value: float
    source: str


def closed_form_constant(params: HardyParams, cone: ConeSpec) -> ClosedForm | None:
    """Sharp constant wherever the cross-section's extremal profile is known.

    _SphericalProblem.exact_profile decides, on the cross-section that
    bc_for_cone gives, and exact_quotient gives the value, so the solver
    answers the same cells with the same value, bit for bit.  On [0, pi/2]
    with both ends natural (nothing removed at {y = 0}, or the
    superdegenerate collapse k+a >= p) the profile is constant and
    m = |H|^p ("constant-profile").  With a Dirichlet end pi/2 at p = 2 it
    is cos^s theta, s = 2 - (k+a), and m = (d-k)(2-(k+a)) + H^2
    ("p2-dirichlet").  Every other cross-section gives None (the spherical
    solver is then the only source).  Raises AdmissibilityError on
    inadmissible input.
    """
    problem = _SphericalProblem.of(params, bc_for_cone(params, cone))
    value = problem.exact_quotient()
    return None if value is None else ClosedForm(value, problem.exact_profile)
