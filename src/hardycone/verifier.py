"""Numerical certification of the inequality from explicit test functions.

The sharp constant is pinched from both sides: every admissible test function
has quotient >= m, and the separated family

    u_delta = r^(-H+delta) Phi(theta)  (r < 1),   r^(-H-delta) Phi(theta)  (r > 1)

has quotient M + c2 delta^2 + c4 delta^4 + ... with denominator blowing up
like 1/delta, which exhibits both sharpness and non-attainment.
evaluate_quotient_udelta gives each quotient with its exact slope in
delta^2 (params._udelta_quotient; params._delta_limit extrapolates a trace
of both to delta = 0).  Its radial integrals are pure powers, in closed
form, and its angular integrals use the discretization the solver
accepted, which the minimizer holds, so nothing is rebuilt: an exact
profile's one-node Gauss-Jacobi rule, exact for it; an hp minimizer's
elements and their rules for E and D; a P1 minimizer's mesh, quadrature
nodes, weights and shape values.  A profile the caller built from a mesh
and values gets the P1 discretization on that mesh; only a minimizer or
such a profile imports spherical.  At p = 2 the u_delta quotient is the Rayleigh quotient
of the test function the solver returned + delta^2, and on an
exact-profile cell that test function is the profile itself.  For
k+a >= p, cutoff_decay measures the energy a log cutoff near {y = 0}
costs, by tensor-product quadrature in (log r, -log|y|), as the
exponential of _cutoff_log_decay, its logarithm, which stays finite where
the energy underflows; a call holds one full-grid array (0.92 MB).
radial_hardy_quotient is a 1-D oracle for sampled profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .params import (NATURAL, AngularDomain, ConeKind, ConeSpec, HardyParams, _SphericalProblem, _udelta_quotient,
                     hardy_exponent)
from .quadrature import AngularWeight, _gauss_jacobi, _log_sphere_surface_area, composite_rule

if TYPE_CHECKING:
    from .spherical import DiscretizedFunction, _RuleSums

CUTOFF_RADIAL_PANELS = 48  # 10-point Gauss panels in nu = log r for the strip energy
CUTOFF_TAU_PANELS = 24  # and in tau = -log|y|


# ---------------------------------------------------------------------------
# smooth cutoffs

def smooth_step(x: np.ndarray) -> np.ndarray:
    """C-infinity transition: 0 for x <= 0, 1 for x >= 1."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo = np.where(x > 0.0, np.exp(-1.0 / np.where(x > 0.0, x, 1.0)), 0.0)
        hi = np.where(x < 1.0, np.exp(-1.0 / np.where(x < 1.0, 1.0 - x, 1.0)), 0.0)
    return lo / (lo + hi)


def smooth_step_prime(x: np.ndarray) -> np.ndarray:
    """Derivative of smooth_step (vanishes to all orders at 0 and 1)."""
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < 1.0)
    xs = np.where(inside, x, 0.5)
    lo = np.exp(-1.0 / xs)
    hi = np.exp(-1.0 / (1.0 - xs))
    dlo = lo / xs**2
    dhi = -hi / (1.0 - xs) ** 2
    out = (dlo * hi - lo * dhi) / (lo + hi) ** 2
    return np.where(inside, out, 0.0)


def eta_cutoff(t: np.ndarray) -> np.ndarray:
    """Cutoff eta(t): 1 for t <= 1, 0 for t >= 2, smooth-step transition between."""
    return 1.0 - smooth_step(np.asarray(t, dtype=float) - 1.0)


def eta_cutoff_prime(t: np.ndarray) -> np.ndarray:
    return -smooth_step_prime(np.asarray(t, dtype=float) - 1.0)


@dataclass(frozen=True)
class RayleighEvaluation:
    """Numerator/denominator/quotient of a test function's Hardy quotient.

    slope is the quotient's derivative dQ/d(delta^2) along the u_delta
    family, from the same sums as the quotient.
    """

    numerator: float
    denominator: float
    quotient: float
    slope: float

    def __post_init__(self) -> None:
        if not self.denominator > 0:
            raise ValueError("denominator must be positive")


# ---------------------------------------------------------------------------
# the u_delta family (closed-form radial integrals)

def _discretization(params: HardyParams, Phi: DiscretizedFunction) -> tuple[_RuleSums, np.ndarray]:
    """The solver's discretization of Phi and Phi's coefficients in it.

    A solver's minimizer brings the discretization its solve accepted
    (exact profile, hp or P1), with its coefficients, and nothing is rebuilt; a
    caller-built profile gets the P1 discretization on its mesh (all nodes
    free), with its nodal values.
    """
    from .spherical import _Discretization, _Minimizer  # loaded already with a solver's minimizer
    if isinstance(Phi, _Minimizer):
        return Phi.disc, Phi.coefficients
    rule = composite_rule(AngularWeight.for_params(params), Phi.mesh)  # rejects a mesh outside [0, pi/2]
    domain = AngularDomain(Phi.mesh[0], Phi.mesh[-1], NATURAL, NATURAL)  # every node free
    return _Discretization(_SphericalProblem.of(params, domain), Phi.mesh, rule), Phi.values


def evaluate_quotient_udelta(
    params: HardyParams,
    Phi: DiscretizedFunction,
    delta: float,
    cone: ConeSpec | None = None,
) -> RayleighEvaluation:
    """Quotient of u_delta = r^(-H +/- delta) Phi with exact radial integrals, and its slope in delta^2.

    Both radial integrals equal 1/(p delta) per branch, so with
    E(G) = int w (Phi'^2 + G^2 Phi^2)^(p/2) and D = int w |Phi|^p

        numerator   = (1/(p delta)) [E(H-delta) + E(H+delta)]
        denominator = (2/(p delta)) D

    times the transverse sphere prefactor (halved when cone is the half
    space; where it underflows to 0, d - k past ~455, so does the
    denominator, which is rejected).  It cancels, so the quotient and its
    slope come from the sums alone.  E and D are the solver's sums (exact
    profile, hp or P1, see _discretization), so for p = 2 the quotient
    equals the Rayleigh quotient of Phi in that discretization plus
    delta^2, to rounding.  The denominator diverges like 1/delta: the
    divergence of the minimizing family's mass is what prevents any
    function from attaining the sharp constant.  The quotient and its slope
    are params._udelta_quotient's, with E_G(G) = dE/dG =
    p G int w (Phi'^2 + G^2 Phi^2)^(p/2-1) Phi^2 formed in G, not G^2, from
    the nodes and fields of E; nodes where the density vanishes add 0.
    """
    if delta <= 0:
        raise ValueError(f"need delta > 0, got {delta}")
    disc, coefficients = _discretization(params, Phi)
    pref = AngularWeight.for_params(params, cone).prefactor
    H = hardy_exponent(params).H
    sums, mass = disc.udelta_sums(coefficients, (H - delta, H + delta))
    (e_minus, _), (e_plus, _) = sums
    # a delta near the float range gives an inf or nan quotient, which the caller rejects
    with np.errstate(over="ignore", invalid="ignore"):
        numerator = pref * (e_minus + e_plus) / (params.p * delta)
        denominator = pref * 2.0 / (params.p * delta) * mass
        quotient, slope = _udelta_quotient(sums, mass, delta)
    return RayleighEvaluation(numerator=numerator, denominator=denominator, quotient=quotient, slope=slope)


# ---------------------------------------------------------------------------
# cutoff strip energy (superdegenerate regime)

def _gauss_panels(lo: float, hi: float, n_panels: int, n_per: int = 10) -> tuple[np.ndarray, np.ndarray]:
    x, wx = _gauss_jacobi(n_per, 0.0, 0.0)
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    return (mid + half * x).ravel(), (half * wx).ravel()


class _PlateauWindow(NamedTuple):
    """Value 1 on [r0, r1], smooth decay over one e-fold outside."""

    r0: float
    r1: float

    def log_support(self) -> tuple[float, float]:
        return math.log(self.r0) - 1.0, math.log(self.r1) + 1.0

    def profile(self, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Window G(nu) and its log-derivative G'(nu), nu = log r."""
        nu = np.asarray(nu, dtype=float)
        x_up = nu - (math.log(self.r0) - 1.0)
        x_dn = nu - math.log(self.r1)
        up = smooth_step(x_up)
        dn = 1.0 - smooth_step(x_dn)
        return up * dn, smooth_step_prime(x_up) * dn - up * smooth_step_prime(x_dn)


def _plateau_window(delta_inner: float, delta_outer: float) -> _PlateauWindow:
    # the 1-e-fold ramps are kept inside the stated support
    e = math.e
    if delta_outer / e <= delta_inner * e:
        raise ValueError("support must span more than two e-folds")
    return _PlateauWindow(r0=delta_inner * e, r1=delta_outer / e)


def cutoff_decay(params: HardyParams, u_support: tuple[float, float], h: int, cone: ConeSpec | None = None) -> float:
    """Gradient energy I_h of u_h = eta(-log|y|/h) u over the strip e^-2h < |y| < e^-h.

    The model u is a radial plateau window on u_support times the constant
    angular profile, and eta is eta_cutoff.  The strip integral is formed
    exactly in the coordinates (nu, tau) = (log r, -log|y|), where
    cos(theta) = e^(-tau-nu):

        I_h = pref * int dnu e^(nu(d-b-k)) int_h^2h dtau e^(-tau(k+a))
              * (1-c^2)^((d-k-2)/2) * |grad u_h|^p,

    pref halved when cone is the half space (one side of {y = 0}).  So
    I_h -> 0 like h^(1-p) at the threshold k+a = p and exponentially for
    k+a > p, where it underflows to 0 once h(k+a-p) passes ~700
    (_cutoff_log_decay gives log I_h there).  I_h is the exponential of
    that logarithm, or OverflowError above the float range (b = -300).
    """
    return math.exp(_cutoff_log_decay(params, u_support, h, cone))


def _cutoff_log_decay(params: HardyParams, u_support: tuple[float, float], h: int,
                      cone: ConeSpec | None = None) -> float:
    """log I_h of cutoff_decay, finite where I_h itself underflows.

    The tensor-product Gauss rule (480 nu- by 240 tau-nodes) is walked one
    nu-panel of 10 rows at a time: c, 1 - c^2, the gradient and the kernel
    live for one panel only, and just the terms are held in full (0.92 MB),
    so one call peaks near 1 MB of arrays whatever h is.  Each term's
    logarithm is summed with the decay e^(-tau(k+a-p)) kept as the exponent
    -tau(k+a-p), never exponentiated on its own, and the terms are added by
    log-sum-exp, in place, plus the prefactor's log from math.lgamma (exact
    where the prefactor is subnormal or 0).  -inf when every term vanishes.
    """
    if h < 1:
        raise ValueError(f"need h >= 1, got {h}")
    ka = params.k + params.a
    if ka < params.p:
        raise ValueError(f"cutoff decay regime needs k+a >= p, got k+a={ka}, p={params.p}")
    delta_inner, delta_outer = u_support
    if not 0 < delta_inner < delta_outer:
        raise ValueError(f"need 0 < delta_inner < delta_outer, got {u_support}")
    if math.exp(-h) >= delta_inner:
        raise ValueError("strip |y| < e^-h must lie below the support radius delta_inner")

    window = _plateau_window(delta_inner, delta_outer)
    nu_lo, nu_hi = window.log_support()
    nu, w_nu = _gauss_panels(nu_lo, nu_hi, CUTOFF_RADIAL_PANELS)
    tau, w_tau = _gauss_panels(float(h), 2.0 * float(h), CUTOFF_TAU_PANELS)

    g, gp = window.profile(nu)           # f(r) = g(nu), f'(r) = gp(nu)/r
    r = np.exp(nu)
    gp_r, g_r = gp / r, g / r
    eta_v = np.asarray(eta_cutoff(tau / h), dtype=float)
    etp_v = np.asarray(eta_cutoff_prime(tau / h), dtype=float)
    e_tau = np.exp(-tau)
    panel = nu.size // CUTOFF_RADIAL_PANELS  # the 10 Gauss nodes of one panel in nu
    d, k, b = params.d, params.k, params.b
    terms = np.empty((nu.size, tau.size))
    with np.errstate(divide="ignore"):
        radial = (np.log(w_nu) + nu * (d - b - k))[:, None]
        decay = (np.log(w_tau) - tau * (ka - params.p))[None, :]
        # the angular part of |grad u_h| grows like e^tau, so the integrand is
        # formed as e^(-tau(k+a-p)) |e^-tau grad u_h|^p: with k+a >= p neither
        # factor overflows, however large h is
        for start in range(0, nu.size, panel):
            rows = slice(start, start + panel)
            c = np.exp(-(tau[None, :] + nu[rows, None]))
            one_mc2 = np.clip(1.0 - c**2, 0.0, 1.0)
            grad_r = eta_v[None, :] * gp_r[rows, None] - etp_v[None, :] * g_r[rows, None] / h
            scaled_grad_r = grad_r * e_tau[None, :]
            scaled_grad_th = etp_v[None, :] * np.sqrt(one_mc2) * g[rows, None] / h
            grad_p = (scaled_grad_r**2 + scaled_grad_th**2) ** (params.p / 2)
            terms[rows] = radial[rows] + decay + np.log(one_mc2 ** ((d - k - 2) / 2)) + np.log(grad_p)
    top = terms.max()
    if top == -math.inf:
        return -math.inf
    terms -= top
    log_pref = _log_sphere_surface_area(k - 1) + _log_sphere_surface_area(d - k - 1)
    if cone is not None and cone.kind is ConeKind.HALF_SPACE:
        log_pref -= math.log(2.0)
    return log_pref + float(top) + math.log(np.exp(terms, out=terms).sum())


# ---------------------------------------------------------------------------
# 1-D radial oracle

def radial_hardy_quotient(p: float, weight_exponent: float, r: np.ndarray, values: np.ndarray) -> float:
    """Quotient [int r^m |f'|^p dr] / [int r^(m-p) |f|^p dr], m = weight_exponent.

    f is given by samples on a (log-spaced) grid; derivatives and trapezoid
    sums are formed in s = log r.  The one-dimensional sharp bound is
    |(m+1-p)/p|^p, never attained.
    """
    r = np.asarray(r, dtype=float)
    values = np.asarray(values, dtype=float)
    if r.ndim != 1 or r.shape != values.shape or r.size < 3:
        raise ValueError("need matching 1-D sample arrays with at least 3 points")
    if np.any(r <= 0) or np.any(np.diff(r) <= 0):
        raise ValueError("radii must be positive and strictly increasing")
    s = np.log(r)
    df_ds = np.gradient(values, s)
    num = np.trapezoid(np.exp((weight_exponent + 1.0 - p) * s) * np.abs(df_ds) ** p, s)
    den = np.trapezoid(np.exp((weight_exponent + 1.0 - p) * s) * np.abs(values) ** p, s)
    if den <= 0:
        raise ValueError("denominator vanishes: profile is identically zero")
    return float(num / den)

