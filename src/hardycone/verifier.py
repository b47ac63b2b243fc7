"""Numerical certification of the inequality from explicit test functions.

The sharp constant is pinched from both sides: every admissible test function
has quotient >= m, and the separated family

    u_delta = r^(-H+delta) Phi(theta)  (r < 1),   r^(-H-delta) Phi(theta)  (r > 1)

has quotient M + c2 delta^2 + c4 delta^4 + ... with denominator blowing up
like 1/delta, which exhibits both sharpness and non-attainment.
evaluate_quotient_udelta gives each quotient together with its exact slope
in delta^2, from the same quadrature sums, and _delta_limit extrapolates a
trace of both to delta = 0 by a Hermite table over every point.  Its
radial integrals are pure powers, evaluated in closed form, and its
angular integrals use the solver's
own discretization of Phi: for a factored spectral minimizer (p = 2, unless
the solve fell back to P1) its basis and Gauss-Jacobi rule, exact on
[0, pi/2]; for an hp minimizer (p != 2 on [0, pi/2]) its elements and
their rules for E and D; otherwise the P1 discretization (the same
quadrature nodes, weights and shape values).  So at p = 2 the u_delta quotient is the
Rayleigh quotient of the test function the solver returned + delta^2, and
after a spectral solve that test function is the admissible factored
profile itself, not an interpolant of it.  In the superdegenerate regime
k+a >= p, cutoff_decay measures the energy a log cutoff near {y = 0} costs,
by tensor-product quadrature in (log r, -log|y|); _cutoff_log_decay gives
its logarithm where the energy itself underflows.  Both walk the rule one
Gauss panel in log r at a time, so the per-node factors exist for 10 rows
only and a call holds one full-grid array (the integrand, or the log
terms: 0.92 MB) instead of one per factor.  radial_hardy_quotient is a 1-D
oracle for sampled profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .params import ConeSpec, HardyParams, hardy_exponent
from .quadrature import AngularWeight, _gauss_jacobi, composite_rule
from .spherical import (
    NATURAL,
    AngularDomain,
    DiscretizedFunction,
    _Discretization,
    _RuleSums,
    _SpectralFunction,
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

    A spectral profile (factored or hp) gets its own basis and rules, with
    its coefficients; any other profile the P1 discretization on its mesh
    (all nodes free), with its nodal values.
    """
    if isinstance(Phi, _SpectralFunction):
        return Phi.discretization(), Phi.coefficients
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
    space; the prefactor cancels in the quotient either way).  E and D are
    the solver's sums (spectral or P1, see _discretization), so for p = 2
    the quotient equals the Rayleigh quotient of Phi in that discretization
    plus delta^2, to rounding.  The denominator diverges like 1/delta: the
    divergence of the minimizing family's mass is what prevents any
    function from attaining the sharp constant.

    The quotient is Q = [E(H-delta) + E(H+delta)] / (2 D), so its slope is

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
        quotient = numerator / denominator
        slope = (g_plus - g_minus) / (4.0 * delta * mass)
    return RayleighEvaluation(numerator=numerator, denominator=denominator, quotient=quotient, slope=slope)


def _delta_limit(trace: Iterable[tuple[float, float, float]]) -> tuple[float | None, float | None]:
    """The delta -> 0 limit of a (delta, quotient, slope) trace and its observed order in delta.

    The quotient is M + c2 delta^2 + c4 delta^4 + ..., and slope its
    derivative in x = delta^2, so the limit is the last entry of the
    confluent (Hermite) Neville-Aitken table in x over every point, each
    node taken twice: its first step at a repeated node is the tangent
    value quotient - x slope, every other step is Richardson's.  The table
    is exact on a polynomial in delta^2 of degree below twice the point
    count; two points give the cubic Hermite value at x = 0.  The order is
    log((q_a - q_b) / (q_b - q_c)) / log(delta_a / delta_b) over the
    three smallest deltas, from the quotients only, None where those
    differences do not share a sign.  The points are taken in decreasing
    delta, so the results do not depend on the trace's order.  With
    numpy-scalar quotients, as evaluate_quotient_udelta gives, deltas whose
    squares underflow to equal x give a non-finite limit, which the caller
    rejects, not a ZeroDivisionError.  (None, None) below two points.
    """
    points = sorted(trace, key=lambda point: -point[0])
    if len(points) < 2:
        return None, None
    x = [delta**2 for delta, _, _ in points for _ in range(2)]  # each node twice
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        column = []
        for i, (_, quotient, slope) in enumerate(points):
            if i:  # Richardson's step between node i - 1 and node i
                x0, x1 = x[2 * i - 1], x[2 * i]
                column.append((x0 * quotient - x1 * points[i - 1][1]) / (x0 - x1))
            column.append(quotient - x[2 * i] * slope)  # the tangent value at node i, taken twice
        for width in range(2, len(x)):
            column = [(x[i] * column[i + 1] - x[i + width] * column[i]) / (x[i] - x[i + width])
                      for i in range(len(column) - 1)]
    order = None
    if len(points) >= 3:
        (delta_a, qa, _), (delta_b, qb, _), (_, qc, _) = points[-3:]
        num, den = qa - qb, qb - qc
        if num * den > 0:
            order = math.log(num / den) / math.log(delta_a / delta_b)
    return column[0], order


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
    (_cutoff_log_decay gives log I_h there).

    The tensor-product Gauss rule (480 nu- by 240 tau-nodes) is walked one
    nu-panel of 10 rows at a time: c, 1 - c^2, the gradient and the kernel
    live for one panel only, and just the integrand is held in full
    (0.92 MB), so one call peaks near 1 MB of arrays whatever h is.
    """
    strip = _strip(params, u_support, h)
    d, k, b = params.d, params.k, params.b
    radial = np.exp(strip.nu * (d - b - k))[:, None]
    decay = np.exp(-strip.tau * strip.excess)[None, :]
    integrand = np.empty((strip.nu.size, strip.tau.size))
    for rows, one_mc2, grad_p in strip.panels():
        kernel = radial[rows] * decay
        kernel = kernel * one_mc2 ** ((d - k - 2) / 2)
        integrand[rows] = kernel * grad_p
    # one reduction over the whole integrand: per-panel partial sums would round differently
    return float(strip.pref * strip.w_nu @ integrand @ strip.w_tau)


def _cutoff_log_decay(params: HardyParams, u_support: tuple[float, float], h: int) -> float:
    """log I_h of cutoff_decay, finite where I_h itself underflows.

    Each quadrature term's logarithm is summed with the decay e^(-tau(k+a-p))
    kept as the exponent -tau(k+a-p), never exponentiated on its own, and the
    terms are added by log-sum-exp.  -inf when every term vanishes.  The rule
    is walked panel by panel as in cutoff_decay; only the terms are held in
    full, and the log-sum-exp works on them in place.
    """
    strip = _strip(params, u_support, h)
    d, k, b = params.d, params.k, params.b
    terms = np.empty((strip.nu.size, strip.tau.size))
    with np.errstate(divide="ignore"):
        radial = (np.log(strip.w_nu) + strip.nu * (d - b - k))[:, None]
        decay = (np.log(strip.w_tau) - strip.tau * strip.excess)[None, :]
        for rows, one_mc2, grad_p in strip.panels():
            terms[rows] = (radial[rows] + decay
                           + np.log(one_mc2 ** ((d - k - 2) / 2)) + np.log(grad_p))
    top = terms.max()
    if top == -math.inf:
        return -math.inf
    terms -= top
    return math.log(strip.pref) + float(top) + math.log(np.exp(terms, out=terms).sum())


class _Strip(NamedTuple):
    """Quadrature of the strip energy: nodes and weights in nu and tau, and the factors per nu-panel."""

    nu: np.ndarray
    w_nu: np.ndarray
    tau: np.ndarray
    w_tau: np.ndarray
    excess: float  # k+a-p: the strip integrand decays like e^(-tau (k+a-p))
    pref: float
    # per nu-panel: its rows, and 1-c^2 and |e^-tau grad u_h|^p on them
    panels: Callable[[], Iterator[tuple[slice, np.ndarray, np.ndarray]]]


def _strip(params: HardyParams, u_support: tuple[float, float], h: int) -> _Strip:
    """The strip quadrature of cutoff_decay, after checking its preconditions."""
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

    def panels() -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
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
            yield rows, one_mc2, (scaled_grad_r**2 + scaled_grad_th**2) ** (params.p / 2)

    return _Strip(nu, w_nu, tau, w_tau, ka - params.p, AngularWeight.for_params(params).prefactor, panels)


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

