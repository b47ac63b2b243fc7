"""Numerical certification of the inequality from explicit test functions.

The sharp constant is pinched from both sides: every admissible test function
has quotient >= m, and the separated family

    u_delta = r^(-H+delta) Phi(theta)  (r < 1),   r^(-H-delta) Phi(theta)  (r > 1)

has quotient M + O(delta^2) with denominator blowing up like 1/delta, which
exhibits both sharpness and non-attainment.  Radial integrals of pure powers
are evaluated in closed form; everything else uses tensor-product quadrature
in (log r, theta).  Every angular integral uses the solver's P1
discretization of Phi (the same quadrature nodes, weights and shape values),
so at p = 2 the u_delta quotient is the discrete Rayleigh quotient + delta^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .params import ConeSpec, HardyParams, hardy_exponent, require_admissible
from .quadrature import AngularWeight, _gauss_jacobi, composite_rule
from .spherical import DIRICHLET, AngularDomain, DiscretizedFunction, _Discretization, bc_for_cone

HALF_PI = math.pi / 2


class CertificationError(RuntimeError):
    """An evaluated quotient fell below the reference sharp constant."""


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


# ---------------------------------------------------------------------------
# separated test functions

@dataclass(frozen=True)
class PowerLawSplit:
    """Radial profile r^(-H+delta) inside the unit ball, r^(-H-delta) outside."""

    delta: float

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ValueError(f"need delta > 0, got {self.delta}")


@dataclass(frozen=True)
class PowerWindow:
    """r^exponent on [r0, r1] with smooth decay over `ramp` e-folds outside."""

    exponent: float
    r0: float
    r1: float
    ramp: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.r0 < self.r1:
            raise ValueError(f"need 0 < r0 < r1, got ({self.r0}, {self.r1})")
        if self.ramp <= 0:
            raise ValueError("ramp must be positive")

    def log_support(self) -> tuple[float, float]:
        return math.log(self.r0) - self.ramp, math.log(self.r1) + self.ramp

    def profile(self, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Window G(nu) and its log-derivative G'(nu), nu = log r."""
        nu = np.asarray(nu, dtype=float)
        x_up = (nu - (math.log(self.r0) - self.ramp)) / self.ramp
        x_dn = (nu - math.log(self.r1)) / self.ramp
        up = smooth_step(x_up)
        dn = 1.0 - smooth_step(x_dn)
        dup = smooth_step_prime(x_up) / self.ramp
        ddn = -smooth_step_prime(x_dn) / self.ramp
        return up * dn, dup * dn + up * ddn


@dataclass(frozen=True)
class LogCutoff:
    """Multiplier eta(-log|y| / h) removing a neighborhood of {y = 0}."""

    h: int

    def __post_init__(self) -> None:
        if not (isinstance(self.h, int) and self.h >= 1):
            raise ValueError(f"need integer h >= 1, got {self.h}")


RadialProfile = Union[PowerLawSplit, PowerWindow, LogCutoff]


@dataclass(frozen=True)
class SeparatedTestFunction:
    """u(z) = radial(r) * angular(theta) in spherical coordinates."""

    radial: RadialProfile
    angular: DiscretizedFunction


@dataclass(frozen=True)
class RayleighEvaluation:
    """Numerator/denominator/quotient of a test function's Hardy quotient."""

    numerator: float
    denominator: float
    quotient: float
    closed_form_reference: float | None = None

    def __post_init__(self) -> None:
        if not self.denominator > 0:
            raise ValueError("denominator must be positive")


# ---------------------------------------------------------------------------
# the u_delta family (closed-form radial integrals)

def _discretization(params: HardyParams, Phi: DiscretizedFunction) -> _Discretization:
    """The solver's P1 discretization on Phi's mesh (all nodes free)."""
    rule = composite_rule(AngularWeight.for_params(params), Phi.mesh)
    return _Discretization(params, Phi.mesh, rule, slice(0, Phi.mesh.size))


def evaluate_quotient_udelta(
    params: HardyParams,
    Phi: DiscretizedFunction,
    delta: float,
    reference: float | None = None,
    cone: ConeSpec | None = None,
) -> RayleighEvaluation:
    """Quotient of u_delta = r^(-H +/- delta) Phi with exact radial integrals.

    Both radial integrals equal 1/(p delta) per branch, so with
    E(G) = int w (Phi'^2 + G^2 Phi^2)^(p/2) and D = int w |Phi|^p

        numerator   = (1/(p delta)) [E(H-delta) + E(H+delta)]
        denominator = (2/(p delta)) D

    times the transverse sphere prefactor (halved when cone is the half
    space; the prefactor cancels in the quotient either way).  E and D are
    the solver's sums, so for p = 2 the quotient equals the discrete
    Rayleigh quotient of Phi plus delta^2, to rounding.
    """
    if delta <= 0:
        raise ValueError(f"need delta > 0, got {delta}")
    disc = _discretization(params, Phi)
    pref = AngularWeight.for_params(params, cone).prefactor
    phi, dphi = disc.fields(Phi.values)
    H = hardy_exponent(params).H
    e_minus = disc.energy(phi, dphi, (H - delta) ** 2)[1]
    e_plus = disc.energy(phi, dphi, (H + delta) ** 2)[1]
    numerator = pref * (e_minus + e_plus) / (params.p * delta)
    denominator = pref * 2.0 / (params.p * delta) * disc.mass(phi)
    return RayleighEvaluation(
        numerator=numerator,
        denominator=denominator,
        quotient=numerator / denominator,
        closed_form_reference=reference,
    )


def denominator_blowup(
    params: HardyParams,
    Phi: DiscretizedFunction,
    delta: float,
    cone: ConeSpec | None = None,
) -> float:
    """Denominator (2/(p delta)) * int w |Phi|^p: diverges like 1/delta.

    The divergence of the minimizing family's mass is what prevents any
    function from attaining the sharp constant.
    """
    if delta <= 0:
        raise ValueError(f"need delta > 0, got {delta}")
    disc = _discretization(params, Phi)
    pref = AngularWeight.for_params(params, cone).prefactor
    return pref * 2.0 / (params.p * delta) * disc.mass(disc.fields(Phi.values)[0])


# ---------------------------------------------------------------------------
# cutoff strip energy (superdegenerate regime)

def _gauss_panels(lo: float, hi: float, n_panels: int, n_per: int = 10) -> tuple[np.ndarray, np.ndarray]:
    x, wx = _gauss_jacobi(n_per, 0.0, 0.0)
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    return (mid + half * x).ravel(), (half * wx).ravel()


def _plateau_window(delta_inner: float, delta_outer: float) -> PowerWindow:
    # plateau value 1 with 1-e-fold ramps kept inside the stated support
    e = math.e
    if delta_outer / e <= delta_inner * e:
        raise ValueError("support must span more than two e-folds")
    return PowerWindow(exponent=0.0, r0=delta_inner * e, r1=delta_outer / e)


def cutoff_decay(
    params: HardyParams,
    u_support: tuple[float, float],
    h: int,
    eta: Callable[[np.ndarray], np.ndarray] | None = None,
    eta_prime: Callable[[np.ndarray], np.ndarray] | None = None,
    n_radial_panels: int = 48,
    n_tau_panels: int = 24,
) -> float:
    """Gradient energy I_h of u_h = eta(-log|y|/h) u over the strip e^-2h < |y| < e^-h.

    The model u is a radial plateau window on u_support times the constant
    angular profile.  The strip integral is formed exactly in the coordinates
    (nu, tau) = (log r, -log|y|), where cos(theta) = e^(-tau-nu):

        I_h = pref * int dnu e^(nu(d-b-k)) int_h^2h dtau e^(-tau(k+a))
              * (1-c^2)^((d-k-2)/2) * |grad u_h|^p,

    so I_h -> 0 like h^(1-p) at the threshold k+a = p and exponentially for
    k+a > p.
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
    if eta is None:
        eta = eta_cutoff
    if eta_prime is None:
        eta_prime = eta_cutoff_prime

    window = _plateau_window(delta_inner, delta_outer)
    nu_lo, nu_hi = window.log_support()
    nu, w_nu = _gauss_panels(nu_lo, nu_hi, n_radial_panels)
    tau, w_tau = _gauss_panels(float(h), 2.0 * float(h), n_tau_panels)

    g, gp = window.profile(nu)           # f(r) = g(nu), f'(r) = gp(nu)/r
    r = np.exp(nu)
    eta_v = np.asarray(eta(tau / h), dtype=float)
    etp_v = np.asarray(eta_prime(tau / h), dtype=float)

    c = np.exp(-(tau[None, :] + nu[:, None]))
    one_mc2 = np.clip(1.0 - c**2, 0.0, 1.0)
    grad_r = eta_v[None, :] * (gp / r)[:, None] - etp_v[None, :] * (g / r)[:, None] / h
    grad_th = etp_v[None, :] * np.sqrt(one_mc2) * np.exp(tau)[None, :] * g[:, None] / h
    grad_p = (grad_r**2 + grad_th**2) ** (params.p / 2)

    d, k, b = params.d, params.k, params.b
    kernel = np.exp(nu * (d - b - k))[:, None] * np.exp(-tau * ka)[None, :]
    kernel = kernel * one_mc2 ** ((d - k - 2) / 2)
    pref = AngularWeight.for_params(params).prefactor
    return float(pref * w_nu @ (kernel * grad_p) @ w_tau)


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


# ---------------------------------------------------------------------------
# full separated quotients

def _check_angular_profile(domain: AngularDomain, Phi: DiscretizedFunction) -> None:
    if abs(Phi.mesh[0] - domain.theta1) > 1e-12 or abs(Phi.mesh[-1] - domain.theta2) > 1e-12:
        raise ValueError(
            "angular profile mesh must span the cone cross-section "
            f"[{domain.theta1:g}, {domain.theta2:g}]"
        )
    scale = np.abs(Phi.values).max()
    if scale == 0.0:
        raise ValueError("angular profile is identically zero")
    for bc, endpoint in ((domain.bc1, Phi.values[0]), (domain.bc2, Phi.values[-1])):
        if bc is DIRICHLET and abs(endpoint) > 1e-9 * scale:
            raise ValueError("angular profile violates the Dirichlet endpoint condition")


def verify_inequality(
    params: HardyParams,
    cone: ConeSpec,
    testfn: SeparatedTestFunction,
    reference: float | None = None,
    tol: float = 1e-8,
    n_radial_panels: int = 64,
) -> RayleighEvaluation:
    """Full mixed-weight quotient of a separated test function on the cone.

    Radial power-law integrals are closed-form (PowerLawSplit); windowed
    powers use tensor-product quadrature in (log r, theta) with the radial
    grid tied to the window, so the quotient is exactly dilation invariant.
    When a reference constant is supplied the evaluation must satisfy
    quotient >= reference - tol.
    """
    require_admissible(params, cone)
    domain = bc_for_cone(params, cone)
    Phi = testfn.angular
    _check_angular_profile(domain, Phi)

    if isinstance(testfn.radial, PowerLawSplit):
        ev = evaluate_quotient_udelta(params, Phi, testfn.radial.delta, reference=reference, cone=cone)
    elif isinstance(testfn.radial, PowerWindow):
        ev = _power_window_quotient(params, cone, testfn.radial, Phi, n_radial_panels, reference)
    else:
        raise ValueError(
            "unsupported test-function/cone combination: the log-cutoff multiplier "
            "is not separated; use cutoff_decay for its strip energy"
        )
    if reference is not None and ev.quotient < reference - tol:
        raise CertificationError(
            f"quotient {ev.quotient:.12g} fell below reference {reference:.12g} - {tol:g}"
        )
    return ev


def _power_window_quotient(
    params: HardyParams,
    cone: ConeSpec,
    window: PowerWindow,
    Phi: DiscretizedFunction,
    n_radial_panels: int,
    reference: float | None,
) -> RayleighEvaluation:
    disc = _discretization(params, Phi)
    pref = AngularWeight.for_params(params, cone).prefactor
    phi, dphi = disc.fields(Phi.values)

    nu_lo, nu_hi = window.log_support()
    nu, w_nu = _gauss_panels(nu_lo, nu_hi, n_radial_panels)
    g, gp = window.profile(nu)
    s = window.exponent
    f = g                      # radial profile relative to r^s, split off below
    fp = s * g + gp            # r f'(r) / r^s

    d, a, b, p = params.d, params.a, params.b, params.p
    # |grad u|^2 = r^(2s-2) [ (fp Phi)^2 + (f Phi')^2 ], all powers of r kept
    # as exp(nu * .) so that shifting the window rescales integrals exactly
    rad_num_w = w_nu * np.exp(nu * (d + a - b + p * (s - 1.0)))
    cross = (fp[:, None] * phi.ravel()) ** 2 + (f[:, None] * dphi.ravel()) ** 2
    numerator = pref * float(rad_num_w @ cross ** (p / 2) @ disc.w.ravel())
    rad_den = float((w_nu * np.exp(nu * (d + a - b - p + p * s))) @ np.abs(f) ** p)
    denominator = pref * rad_den * disc.mass(phi)
    return RayleighEvaluation(
        numerator=numerator,
        denominator=denominator,
        quotient=numerator / denominator,
        closed_form_reference=reference,
    )
