"""Numerical certification of the inequality from explicit test functions.

The sharp constant is pinched from both sides: every admissible test function
has quotient >= m, and the separated family

    u_delta = r^(-H+delta) Phi(theta)  (r < 1),   r^(-H-delta) Phi(theta)  (r > 1)

has quotient M + c2 delta^2 + c4 delta^4 + ... with denominator blowing up
like 1/delta, which exhibits both sharpness and non-attainment.  For p != 2
the quotient also carries a term that is not analytic in delta^2 wherever
Phi' vanishes and H +/- delta reaches 0.
evaluate_quotient_udelta gives each quotient together with its exact slope
in delta^2, from the same quadrature sums, and _delta_limit extrapolates a
trace of both to delta = 0 by a Hermite table over every point, with that
term modelled where _nonanalytic_term knows its exponent.  Its
radial integrals are pure powers, evaluated in closed form, and its
angular integrals use the discretization the solver accepted, which the
minimizer holds, so nothing is rebuilt: for an exact profile (a cell with
a closed form) its one-node Gauss-Jacobi rule, exact for it; for an hp
minimizer (p != 2 on [0, pi/2], p = 2 on a band) its elements and their
rules for E and D; for a P1 minimizer its mesh, quadrature nodes, weights
and shape values.  A profile the caller built from a mesh and values gets
the P1 discretization on that mesh.  So at p = 2 the u_delta quotient is
the Rayleigh quotient of the test function the solver returned +
delta^2, and on an exact-profile cell that test function is the admissible
profile itself, not an interpolant of it.  In the superdegenerate regime
k+a >= p, cutoff_decay measures the energy a log cutoff near {y = 0} costs,
by tensor-product quadrature in (log r, -log|y|), as the exponential of
_cutoff_log_decay, its logarithm, which stays finite where the energy
itself underflows.  That one sum walks the rule one Gauss panel in log r
at a time, so the per-node factors exist for 10 rows only and a call
holds one full-grid array (the log terms: 0.92 MB) instead of one per
factor.  radial_hardy_quotient is a 1-D oracle for sampled profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .params import HALF_PI, NATURAL, AngularDomain, ConeSpec, HardyParams, hardy_exponent
from .quadrature import AngularWeight, _gauss_jacobi, _log_sphere_surface_area, composite_rule
from .spherical import (
    DiscretizedFunction,
    _Discretization,
    _Minimizer,
    _RuleSums,
    _SphericalProblem,
)

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
    function from attaining the sharp constant.

    The quotient is Q = [E(H-delta) + E(H+delta)] / (2 D), and its slope

        dQ/d(delta^2) = [E_G(H+delta) - E_G(H-delta)] / (4 delta D),
        E_G(G) = dE/dG = p G int w (Phi'^2 + G^2 Phi^2)^(p/2-1) Phi^2,

    formed in G, not G^2, from the nodes and fields of E (1 at p = 2, to
    rounding); nodes where the density vanishes add 0.
    """
    if delta <= 0:
        raise ValueError(f"need delta > 0, got {delta}")
    disc, coefficients = _discretization(params, Phi)
    pref = AngularWeight.for_params(params, cone).prefactor
    H = hardy_exponent(params).H
    ((e_minus, g_minus), (e_plus, g_plus)), mass = disc.udelta_sums(coefficients, (H - delta, H + delta))
    # a delta near the float range gives an inf or nan quotient, which the caller rejects
    with np.errstate(over="ignore", invalid="ignore"):
        numerator = pref * (e_minus + e_plus) / (params.p * delta)
        denominator = pref * 2.0 / (params.p * delta) * mass
        quotient = (e_minus + e_plus) / (2.0 * mass)
        slope = (g_plus - g_minus) / (4.0 * delta * mass)
    return RayleighEvaluation(numerator=numerator, denominator=denominator, quotient=quotient, slope=slope)


def _nonanalytic_term(params: HardyParams, domain: AngularDomain) -> tuple[float, float] | None:
    """(H, q) of the one known term of the u_delta quotient that is not analytic in delta^2, or None.

    The quotient is [E(H-delta) + E(H+delta)] / (2D) with
    E(G) = int w (Phi'^2 + G^2 Phi^2)^(p/2), and for p != 2 E is not analytic
    at G = 0 wherever Phi' vanishes.  On two cross-sections of [0, pi/2] the
    quotient then carries e b(delta), b = (|H-delta|^q + |H+delta|^q) / 2,
    with a known q:

    * both ends natural: Phi is constant, so the quotient is C b(delta),
      q = p;
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
            column.append((x0 * value - x1 * previous) / (x0 - x1))
            differences.append((value - previous) / (x1 - x0))
        column.append(value - x[2 * i] * slope)  # the tangent value at node i, taken twice
        differences.append(slope)
    for width in range(2, len(x)):
        column = [(x[i] * column[i + 1] - x[i + width] * column[i]) / (x[i] - x[i + width])
                  for i in range(len(column) - 1)]
        differences = [(differences[i + 1] - differences[i]) / (x[i + width] - x[i])
                       for i in range(len(differences) - 1)]
    return column[0], differences[0]


def _term_node(H: float, q: float, delta: float) -> tuple[np.float64, np.float64]:
    """b(delta) = (|H-delta|^q + |H+delta|^q) / 2 and its derivative in delta^2."""
    lo, hi = np.float64(H - delta), np.float64(H + delta)
    slope = q / (4.0 * delta) * (np.sign(hi) * abs(hi) ** (q - 1.0) - np.sign(lo) * abs(lo) ** (q - 1.0))
    return (abs(lo) ** q + abs(hi) ** q) / 2.0, slope


def _delta_limit(
    trace: Iterable[tuple[float, float, float]], term: tuple[float, float] | None,
) -> tuple[float | None, float | None]:
    """The delta -> 0 limit of a (delta, quotient, slope) trace and its observed order in delta.

    The quotient is M + c2 delta^2 + c4 delta^4 + ..., and slope its
    derivative in x = delta^2, so the limit is the value at x = 0 of the
    Hermite interpolant in x of every point's quotient and slope
    (_hermite_table).  It is exact on a polynomial in delta^2 of degree below
    twice the point count; two points give the cubic Hermite value at x = 0.

    term is _nonanalytic_term's (H, q) where the trace reaches G = 0 (|H|
    below the largest delta, as the caller decides), else None.  Given a
    term, the trace is fitted by A(delta^2) + e b(delta),
    b = (|H-delta|^q + |H+delta|^q) / 2, with e b taking the place of the
    interpolant's top power of delta^2, so the 2n conditions of n points
    still fix the 2n unknowns.  A adds nothing to the interpolant's top
    coefficient, so e = top(quotient) / top(b), from the tables of both,
    and the limit A(0) + e |H|^q is the table's value less
    e (b's table value - |H|^q).  The tables run in a fixed order, so the
    limit does not depend on BLAS threads.  Without a term the table's
    value is the limit, bit for bit.

    The order is log((q_a - q_b) / (q_b - q_c)) / log(delta_a / delta_b)
    over the three smallest deltas, from the quotients only, None where
    those differences do not share a sign.  The points are taken in
    decreasing delta, so the results do not depend on the trace's order.
    With numpy-scalar quotients, as evaluate_quotient_udelta gives, deltas
    whose squares underflow to equal x give a non-finite limit, which the
    caller rejects, not a ZeroDivisionError.  (None, None) below two points.
    """
    points = sorted(trace, key=lambda point: -point[0])
    if len(points) < 2:
        return None, None
    x = [delta**2 for delta, _, _ in points for _ in range(2)]  # each node twice
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        limit, top = _hermite_table(x, [(quotient, slope) for _, quotient, slope in points])
        if term is not None:
            H, q = term
            term_limit, term_top = _hermite_table(x, [_term_node(H, q, delta) for delta, _, _ in points])
            limit = limit - top / term_top * (term_limit - abs(H) ** q)
    order = None
    if len(points) >= 3:
        (delta_a, qa, _), (delta_b, qb, _), (_, qc, _) = points[-3:]
        num, den = qa - qb, qb - qc
        if num * den > 0:
            order = math.log(num / den) / math.log(delta_a / delta_b)
    return limit, order


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


def cutoff_decay(params: HardyParams, u_support: tuple[float, float], h: int) -> float:
    """Gradient energy I_h of u_h = eta(-log|y|/h) u over the strip e^-2h < |y| < e^-h.

    The model u is a radial plateau window on u_support times the constant
    angular profile, and eta is eta_cutoff.  The strip integral is formed
    exactly in the coordinates (nu, tau) = (log r, -log|y|), where
    cos(theta) = e^(-tau-nu):

        I_h = pref * int dnu e^(nu(d-b-k)) int_h^2h dtau e^(-tau(k+a))
              * (1-c^2)^((d-k-2)/2) * |grad u_h|^p,

    so I_h -> 0 like h^(1-p) at the threshold k+a = p and exponentially for
    k+a > p, where it underflows to 0 once h(k+a-p) passes ~700
    (_cutoff_log_decay gives log I_h there).  I_h is the exponential of
    that logarithm, or OverflowError above the float range (b = -300).
    """
    return math.exp(_cutoff_log_decay(params, u_support, h))


def _cutoff_log_decay(params: HardyParams, u_support: tuple[float, float], h: int) -> float:
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

