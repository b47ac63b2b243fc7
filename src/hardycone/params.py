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
with the quotient, node and u_delta sums of the extremal profile wherever
it is known, and the certifier's arithmetic on them (_udelta_quotient,
_delta_limit), so the command line answers and certifies such cells
without numpy or a solver.  The spherical module re-exports them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, NamedTuple

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

    @property
    def exact_node(self) -> tuple[float, float, float]:
        """(w, phi, phi') of the exact profile phi = cos^s theta at its one Gauss-Jacobi node in t = cos 2 theta.

        s is 2 - (k+a) at p = 2 with a Dirichlet pi/2, else 0 (exact_profile).  With A = (d-k-2)/2,
        B = (k+a-2)/2, w dtheta = ((1+t)/2)^B ((1-t)/2)^A dt / 4 and phi' = -s sin theta cos^(s-1) theta,
        the rule's exponents are A at t = 1 and, at t = -1, B + s - 1 = -(k+a)/2 if s > 0, else B.
        Its node, the weight's mean, is cos^2 theta = m / (d-k+m), m = s, or k+a where s = 0, and it
        integrates phi^2 (constant against that weight), phi'^2 (linear in t) and the constant
        profile's e^(p/2) and |phi|^p exactly.  So w, the angular weight folded in, is D / phi^2 at
        the node, D = B((d-k)/2, (k+a)/2 + s) / 2 formed in logs (finite for any k+a).
        """
        s, dk = self.s, self.dk
        m = s or self.ka
        cos2, sin2 = m / (dk + m), dk / (dk + m)
        x, y = dk / 2, self.ka / 2 + s
        w = math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y) - s * math.log(cos2)) / 2
        cos, sin = math.sqrt(cos2), math.sqrt(sin2)
        return w, cos**s, -s * sin * cos ** (s - 1.0)

    def udelta_sums(self, Gs: tuple[float, ...]) -> tuple[list[tuple[float, float]], float]:
        """(E, dE/dG) at H = G for each G of Gs, and D, of the exact profile in its node (exact_node).

        spherical._RuleSums.udelta_sums in Python floats and numpy's order of operations, with
        D = w phi^2 (phi = 1 unless p = 2).  An E past the float range raises OverflowError.
        """
        w, phi, dphi = self.exact_node
        p, phi2, sums = self.p, phi * phi, []
        for G in Gs:
            e2 = dphi * dphi + G**2 * phi2
            sums.append((w * e2 ** (p / 2), p * G * (w * (e2 ** (p / 2 - 1.0) if e2 > 0.0 else 0.0) * phi2)))
        return sums, w * phi2


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


def _div(a: float, b: float) -> float:
    """a / b, with IEEE's inf or nan where b is 0 (a Python float raises ZeroDivisionError there)."""
    return a / b if b else (a * math.copysign(math.inf, b) if a else math.nan)


def _pow(x: float, y: float) -> float:
    """x^y for x >= 0, with IEEE's inf where it overflows (a Python float raises OverflowError there)."""
    try:
        return x**y
    except OverflowError:
        return math.inf


def _udelta_quotient(sums: list[tuple[float, float]], mass: float, delta: float) -> tuple[float, float]:
    """The u_delta quotient Q and its slope in delta^2, from a discretization's udelta_sums at G = H -/+ delta.

    Q = [E(H-delta) + E(H+delta)] / (2D) and dQ/d(delta^2) = [E_G(H+delta) - E_G(H-delta)] / (4 delta D),
    E_G = dE/dG (see verifier.evaluate_quotient_udelta); 1 at p = 2, to rounding.  A zero divisor
    gives inf or nan, as numpy does.
    """
    (e_minus, g_minus), (e_plus, g_plus) = sums
    return _div(e_minus + e_plus, 2.0 * mass), _div(g_plus - g_minus, 4.0 * delta * mass)


def _nonanalytic_term(params: HardyParams, domain: AngularDomain) -> tuple[float, float] | None:
    """(H, q) of the one known term of the u_delta quotient that is not analytic in delta^2, or None.

    For p != 2, E(G) = int w (Phi'^2 + G^2 Phi^2)^(p/2) is not analytic at
    G = 0 wherever Phi' vanishes.  On two cross-sections of [0, pi/2] the
    quotient then carries e b(delta), b = (|H-delta|^q + |H+delta|^q) / 2,
    with a known q:

    * both ends natural: Phi is constant, so the quotient is C b(delta), q = p;
    * a natural pole at theta = 0 and a Dirichlet pi/2, at H = 0 (decided
      exactly, from d + a - p - b): Phi - Phi(0) ~ theta^(p/(p-1)) against
      the weight theta^(d-k-1) gives q = p + (p-1)(d-k).

    None elsewhere: at p = 2, on a band with theta1 > 0, at H != 0 on a
    Dirichlet cross-section, and where q is an even integer (the term is then
    delta^q log delta).
    """
    p = params.p
    if p == 2.0 or (domain.theta1, domain.theta2, domain.bc1) != (0.0, HALF_PI, NATURAL):
        return None
    if domain.bc2 is NATURAL:
        H, q = hardy_exponent(params).H, p
    elif math.fsum((params.d, params.a, -p, -params.b)) == 0.0:
        H, q = 0.0, p + (p - 1.0) * (params.d - params.k)
    else:
        return None
    return None if q % 2.0 == 0.0 else (H, q)


def _hermite_table(x: list[float], nodes: list[tuple[float, float]]) -> tuple[float, float]:
    """The Hermite interpolant of (value, slope) nodes at x = 0, and its leading coefficient.

    x holds each node's abscissa twice.  The value is the last entry of the
    confluent Neville-Aitken table: its first step at a repeated node is the
    tangent value - x slope, every other step is Richardson's.  The leading
    coefficient is the top confluent divided difference, with
    f[x_i, x_i] = slope_i.
    """
    column, differences = [], []
    for i, (value, slope) in enumerate(nodes):
        if i:  # Richardson's step and the divided difference between node i - 1 and node i
            x0, x1 = x[2 * i - 1], x[2 * i]
            previous = nodes[i - 1][0]
            column.append(_div(x0 * value - x1 * previous, x0 - x1))
            differences.append(_div(value - previous, x1 - x0))
        column.append(value - x[2 * i] * slope)  # the tangent value at node i, taken twice
        differences.append(slope)
    for width in range(2, len(x)):
        column = [_div(x[i] * column[i + 1] - x[i + width] * column[i], x[i] - x[i + width])
                  for i in range(len(column) - 1)]
        differences = [_div(differences[i + 1] - differences[i], x[i + width] - x[i])
                       for i in range(len(differences) - 1)]
    return column[0], differences[0]


def _term_node(H: float, q: float, delta: float) -> tuple[float, float]:
    """b(delta) = (|H-delta|^q + |H+delta|^q) / 2 and its derivative in delta^2."""
    lo, hi = H - delta, H + delta
    slope = q / (4.0 * delta) * (((hi > 0.0) - (hi < 0.0)) * _pow(abs(hi), q - 1.0)
                                 - ((lo > 0.0) - (lo < 0.0)) * _pow(abs(lo), q - 1.0))
    return (_pow(abs(lo), q) + _pow(abs(hi), q)) / 2.0, slope


def _delta_limit(
    trace: Iterable[tuple[float, float, float]], term: tuple[float, float] | None,
) -> tuple[float | None, float | None]:
    """The delta -> 0 limit of a (delta, quotient, slope) trace and its observed order in delta.

    The quotient is M + c2 delta^2 + c4 delta^4 + ..., and slope its derivative in x = delta^2,
    so the limit is the value at x = 0 of the Hermite interpolant in x of every point's quotient
    and slope (_hermite_table).  It is exact on a polynomial in delta^2 of degree below twice the
    point count; two points give the cubic Hermite value at x = 0.

    term is _nonanalytic_term's (H, q) where the trace reaches G = 0 (|H| below the largest
    delta, as the caller decides), else None.  Given a term, the trace is fitted by
    A(delta^2) + e b(delta), b = (|H-delta|^q + |H+delta|^q) / 2, with e b taking the place of
    the interpolant's top power of delta^2, so the 2n conditions of n points still fix the 2n
    unknowns.  A adds nothing to the interpolant's top coefficient, so e = top(quotient) /
    top(b), from the tables of both, and the limit A(0) + e |H|^q is the table's value less
    e (b's table value - |H|^q).  Without a term the table's value is the limit, bit for bit.

    The order is log((q_a - q_b) / (q_b - q_c)) / log(delta_a / delta_b) over the three
    smallest deltas, from the quotients only, None where those differences do not share a sign.
    The points are taken in decreasing delta, so the results do not depend on the trace's
    order.  Values are taken as Python floats, with numpy's IEEE results (_div, _pow): deltas
    whose squares underflow to equal x give a non-finite limit, not a ZeroDivisionError.
    (None, None) below two points.
    """
    points = sorted(((float(delta), float(quotient), float(slope)) for delta, quotient, slope in trace),
                    key=lambda point: -point[0])
    if len(points) < 2:
        return None, None
    x = [_pow(delta, 2.0) for delta, _, _ in points for _ in range(2)]  # each node twice
    limit, top = _hermite_table(x, [(quotient, slope) for _, quotient, slope in points])
    if term is not None:
        H, q = term
        term_limit, term_top = _hermite_table(x, [_term_node(H, q, delta) for delta, _, _ in points])
        limit = limit - _div(top, term_top) * (term_limit - _pow(abs(H), q))
    order = None
    if len(points) >= 3:
        (delta_a, qa, _), (delta_b, qb, _), (_, qc, _) = points[-3:]
        num, den = qa - qb, qb - qc
        if num * den > 0:
            order = math.log(num / den) / math.log(delta_a / delta_b)
    return limit, order
