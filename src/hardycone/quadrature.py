"""Quadrature against the angular weight w(theta) = cos^(k+a-1) sin^(d-k-1).

Integrals over the sphere of axisymmetric functions f(theta) against
|Pi sigma|^a reduce to prefactor * int f w dtheta on (0, pi/2), so all
Rayleigh quotients run through the rules built here.  The weight is singular
(or degenerate) at both ends; rules absorb the endpoint powers exactly:

* a panel covering both ends maps t = cos(2 theta) and uses Gauss-Jacobi with
  exponents ((d-k)/2 - 1, (k+a)/2 - 1),
* a panel touching pi/2 works in u = pi/2 - theta and absorbs u^(k+a-1)
  (cancellation-free even for end elements ~1e-12 wide),
* a panel touching 0 absorbs theta^(d-k-1) the same way,
* interior panels use Gauss-Legendre with the smooth weight in the integrand.

Solves use DEFAULT_PANEL_ORDER = 4 points per mesh element.  That is exact
to degree 7 on interior elements, where a P1 solve integrates the smooth
weight times low-degree functions of theta (quadratics at p = 2), and the
end elements carry the singular powers in their Jacobi weights, so more
points buy nothing the mesh can show: against 8 points, M moves by at most
2e-7 relative at mesh 1024, hundreds of times less than between meshes 1024
and 4096 (tests/test_spherical.py checks this on six hard cells).

Gauss-Jacobi rules start from the Golub-Welsch construction in numpy: the
eigenvalues of the Jacobi matrix of the three-term recurrence, which are
up to thousands of ulp off at n = 64.  One Newton step on the recurrence,
run in np.longdouble (a 64-bit mantissa on x86-64 Linux), makes the nodes
correctly rounded; the weights are the Christoffel numbers
1 / sum_k phat_k(x_i)^2 of the orthonormal polynomials from the same pass,
scaled by the weight's total mass from math.lgamma.  A weight is then a few
ulp off, nearly all of it the mass's error, which every weight of a rule
shares.  With these rules the p = 2 solves meet their closed forms to 2
ulp.  Where np.longdouble is plain double (Windows, macOS on arm64) the
same code runs: the nodes are then within a few ulp, and the weights within
a few hundred ulp at n = 128.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .params import HALF_PI, ConeKind, ConeSpec, HardyParams

DEFAULT_PANEL_ORDER = 4  # points per panel: degree 7 on interior panels


def sphere_surface_area(n: int) -> float:
    """Surface measure of the unit n-sphere, |S^n| = 2 pi^((n+1)/2) / Gamma((n+1)/2); 0 from n = 455."""
    return math.exp(_log_sphere_surface_area(n))


def _log_sphere_surface_area(n: int) -> float:
    """log |S^n| from math.lgamma: finite for every n >= 0."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return math.log(2.0) + (n + 1) / 2 * math.log(math.pi) - math.lgamma((n + 1) / 2)


@dataclass(frozen=True)
class AngularWeight:
    """Weight cos^cos_exponent * sin^sin_exponent with its sphere prefactor.

    prefactor = |S^(k-1)| * |S^(d-k-1)| turns the 1-D integral into the full
    sphere integral of an axisymmetric function; it is halved for the half
    space, whose cross-section is a single hemisphere of the y-axis.
    """

    cos_exponent: float
    sin_exponent: float
    prefactor: float

    @classmethod
    def for_params(cls, params: HardyParams, cone: ConeSpec | None = None) -> "AngularWeight":
        pref = sphere_surface_area(params.k - 1) * sphere_surface_area(params.d - params.k - 1)
        if cone is not None and cone.kind is ConeKind.HALF_SPACE:
            pref *= 0.5
        return cls(
            cos_exponent=params.k + params.a - 1.0,
            sin_exponent=params.d - params.k - 1.0,
            prefactor=pref,
        )


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes/weights with the angular weight folded into the weights."""

    nodes: np.ndarray
    weights: np.ndarray
    theta1: float
    theta2: float

    def __post_init__(self) -> None:
        if self.nodes.ndim != 1 or self.nodes.shape != self.weights.shape:
            raise ValueError("nodes and weights must be matching 1-D arrays")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if self.nodes[0] <= self.theta1 or self.nodes[-1] >= self.theta2:
            raise ValueError("nodes must be interior to the interval")


@lru_cache(maxsize=512)
def _gauss_jacobi(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for (1-x)^alpha (1+x)^beta on (-1, 1), alpha, beta > -1.

    Golub-Welsch start: the eigenvalues of the symmetric Jacobi matrix of the
    orthonormal recurrence x phat_k = b_k phat_(k-1) + a_k phat_k + b_(k+1) phat_(k+1)
    are the nodes to ~1e-12.  One Newton step on phat_n in np.longdouble makes
    them correctly rounded.  The coefficients are long double too: rounded
    to double, they alone move a weight by 8e-14 at beta = -0.999.  The
    same pass sums S = sum_(k<n) phat_k^2 and its derivative, and the weights
    are the Christoffel numbers mu0 / S at the corrected nodes (S moved to them
    to first order; the step is ~1e-13).  Summing S from the recurrence keeps
    full relative accuracy in the small end weights, which the textbook
    mu0 * v_0^2 from the eigenvectors does not.
    """
    alpha_l, beta_l = np.longdouble(alpha), np.longdouble(beta)
    ab = alpha_l + beta_l
    k = np.arange(n + 1, dtype=np.longdouble)
    s = 2.0 * k + ab
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = (beta_l * beta_l - alpha_l * alpha_l) / (s * (s + 2.0))
        off2 = 4.0 * k * (k + alpha_l) * (k + beta_l) * (k + ab) / (s**2 * (s + 1.0) * (s - 1.0))
    # a_0 is 0/0 at alpha + beta = 0 and b_1^2 at alpha + beta = -1: cancelled forms
    diag[0] = (beta_l - alpha_l) / (ab + 2.0)
    off2[0] = 0.0
    off2[1] = 4.0 * (1.0 + alpha_l) * (1.0 + beta_l) / ((ab + 2.0) ** 2 * (ab + 3.0))
    off = np.sqrt(off2)  # b_0 = 0, b_1, ..., b_n
    jacobi = np.diag(diag[:n]) + np.diag(off[1:n], 1) + np.diag(off[1:n], -1)
    x = np.linalg.eigvalsh(jacobi.astype(float)).astype(np.longdouble)
    # rows: phat_k / phat_0 and its x-derivative at the nodes
    prev = np.zeros((2, n), dtype=np.longdouble)
    cur = np.zeros((2, n), dtype=np.longdouble)
    cur[0] = 1.0
    total = np.zeros(n, dtype=np.longdouble)
    slope = np.zeros(n, dtype=np.longdouble)
    for j in range(n):
        total += cur[0] * cur[0]
        slope += cur[0] * cur[1]
        prev, cur = cur, (x - diag[j]) * cur - off[j] * prev
        cur[1] += prev[0]
        cur /= off[j + 1]
    step = cur[0] / cur[1]
    x -= step
    total -= 2.0 * slope * step
    # mu0 = int (1-x)^alpha (1+x)^beta = 2^(alpha+beta+1) B(alpha+1, beta+1) = 1 / phat_0^2
    log_mu0 = (alpha + beta + 1.0) * math.log(2.0) + math.lgamma(alpha + 1.0) + math.lgamma(beta + 1.0)
    w = (math.exp(log_mu0 - math.lgamma(alpha + beta + 2.0)) / total).astype(float)
    x = x.astype(float)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _panel(weight: AngularWeight, th1: float, th2: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule on a panel touching theta = 0 or pi/2 (or both)."""
    alpha = weight.cos_exponent
    beta = weight.sin_exponent
    at0 = th1 == 0.0
    at90 = th2 == HALF_PI
    if at0 and at90:
        # Gauss-Jacobi in t = cos(2 theta); both endpoint powers live in the
        # Jacobi weight (1-t)^A (1+t)^B, A = (beta-1)/2, B = (alpha-1)/2.
        A = (beta - 1.0) / 2.0
        B = (alpha - 1.0) / 2.0
        x, wx = _gauss_jacobi(n, A, B)
        theta = 0.5 * np.arccos(x)
        w = wx * 2.0 ** (-(A + B + 2.0))
    elif at90:
        L = HALF_PI - th1
        x, wx = _gauss_jacobi(n, 0.0, alpha)
        u = 0.5 * L * (1.0 + x)
        w = wx * (0.5 * L) ** (alpha + 1.0) * np.sinc(u / math.pi) ** alpha * np.cos(u) ** beta
        theta = HALF_PI - u
    else:
        L = th2
        x, wx = _gauss_jacobi(n, 0.0, beta)
        theta = 0.5 * L * (1.0 + x)
        w = wx * (0.5 * L) ** (beta + 1.0) * np.sinc(theta / math.pi) ** beta * np.cos(theta) ** alpha
    idx = np.argsort(theta)
    return theta[idx], w[idx]


def composite_rule(
    weight: AngularWeight, mesh: Sequence[float] | np.ndarray, n_per_panel: int = DEFAULT_PANEL_ORDER
) -> QuadratureRule:
    """Panel-by-panel rule over a mesh; exact for piecewise-linear functions.

    Interior panels share one Gauss-Legendre rule, broadcast over panels with
    the smooth weight in the integrand; only the panels touching theta = 0 or
    pi/2 are built one at a time (Gauss-Jacobi).  The default 4 points per
    panel are exact to degree 7 on interior panels, which keeps the rule's
    error in a solve far below the mesh's (see the module docstring).
    """
    mesh = np.asarray(mesh, dtype=float)
    if mesh.ndim != 1 or mesh.size < 2:
        raise ValueError("mesh must be a strictly increasing 1-D array")
    h = np.diff(mesh)
    if np.any(h <= 0):
        raise ValueError("mesh must be a strictly increasing 1-D array")
    if not (0.0 <= mesh[0] and mesh[-1] <= HALF_PI):
        raise ValueError(f"mesh must lie in [0, pi/2], got [{mesh[0]:g}, {mesh[-1]:g}]")
    if mesh[-1] == HALF_PI and weight.cos_exponent <= -1.0:
        raise ValueError(
            f"weight cos^{weight.cos_exponent:g} is not integrable up to theta = pi/2 (needs k+a > 0)"
        )
    # elements first:last touch neither theta = 0 nor pi/2
    n_el = mesh.size - 1
    first = 1 if mesh[0] == 0.0 else 0
    last = n_el - 1 if mesh[-1] == HALF_PI else n_el
    x, wx = _gauss_jacobi(n_per_panel, 0.0, 0.0)
    nodes = np.empty((n_el, n_per_panel))
    weights = np.empty_like(nodes)
    lo, hi = mesh[first:last, None], mesh[first + 1 : last + 1, None]
    theta = nodes[first:last]
    theta[:] = lo + 0.5 * (hi - lo) * (1.0 + x)
    # wx h/2 cos^alpha sin^beta, formed in place in that order
    interior = weights[first:last]
    np.multiply(wx * 0.5, h[first:last, None], out=interior)
    interior *= np.sin(HALF_PI - theta) ** weight.cos_exponent
    interior *= np.sin(theta) ** weight.sin_exponent
    for e in {0, n_el - 1}:
        if not first <= e < last:
            nodes[e], weights[e] = _panel(weight, mesh[e], mesh[e + 1], n_per_panel)
    return QuadratureRule(
        nodes=nodes.ravel(),
        weights=weights.ravel(),
        theta1=float(mesh[0]),
        theta2=float(mesh[-1]),
    )


def sphere_weight_mass(params: HardyParams) -> float:
    """Total mass int_{S^(d-1)} |Pi sigma|^a dsigma = prefactor * B((k+a)/2, (d-k)/2) / 2."""
    if params.k + params.a <= 0:
        raise ValueError(f"sphere weight integrable only for k+a > 0, got {params.k + params.a}")
    x, y = (params.k + params.a) / 2, (params.d - params.k) / 2
    beta = math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))
    return AngularWeight.for_params(params).prefactor * beta / 2
