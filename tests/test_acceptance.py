"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the k >= 2 comparison report.
"""

import math
import time

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import hardycone.spherical as spherical
from hardycone.params import (
    DIRICHLET,
    NATURAL,
    AngularDomain,
    ConeSpec,
    HardyParams,
    bc_for_cone,
    closed_form_constant,
    cone_admissible,
    hardy_exponent,
)
from hardycone.spherical import (
    assemble_p2,
    minimize_rayleigh_p,
    smallest_eigenpair,
    solve_M,
)
from hardycone.verifier import (
    cutoff_decay,
    evaluate_quotient_udelta,
    radial_hardy_quotient,
    smooth_step,
)

HALF_PI = math.pi / 2

def sigma0_reference(params: HardyParams) -> float:
    H = hardy_exponent(params).H
    return (params.d - params.k) * max(2.0 - (params.k + params.a), 0.0) + H * H


def report(line: str) -> None:
    print(line)


def test_criterion_01_closed_form_dispatch():
    """200 admissible random cells: dispatch + consistency identities at 1e-12."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    cones = [
        ConeSpec.full_space(),
        ConeSpec.punctured_space(),
        ConeSpec.complement_sigma0(),
        ConeSpec.half_space(),
    ]
    cells = 0
    returned = 0
    while cells < 200:
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, d))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        a = float(rng.uniform(-3.0, 3.0))
        b = float(rng.uniform(-3.0, 3.0))
        params = HardyParams(d, k, p, a, b)
        cone = cones[int(rng.integers(0, 4))]
        if cone.kind.value == "half-space" and k != 1:
            continue
        if not cone_admissible(params, cone).cone_admissible:
            continue
        cells += 1
        cf = closed_form_constant(params, cone)
        exponent = hardy_exponent(params)
        habs = exponent.H_abs_p

        # applicability: every explicitly solved case must return a value
        kind = cone.kind.value
        if kind in ("full", "punctured"):
            assert cf is not None
            assert abs(cf.value - habs) <= 1e-12 * max(1.0, habs)
        elif kind == "complement-sigma0":
            if k + a >= p or p == 2.0:
                assert cf is not None
            if k + a >= p:
                assert abs(cf.value - habs) <= 1e-12 * max(1.0, habs)
            elif p == 2.0:
                assert abs(cf.value - sigma0_reference(params)) <= 1e-12 * max(1.0, cf.value)
        elif kind == "half-space":
            if a >= p - 1 or p == 2.0:
                assert cf is not None
        if cf is not None:
            returned += 1

        # b-flip invariance: H -> -H leaves every closed form unchanged
        flipped = HardyParams(d, k, p, a, 2 * (d + a - p) - b)
        if kind != "full":
            cf_flip = closed_form_constant(flipped, cone)
            if cf is None:
                assert cf_flip is None
            else:
                assert abs(cf.value - cf_flip.value) <= 1e-12 * max(1.0, abs(cf.value))

        # superdegenerate collapse
        if k + a >= p:
            sig = closed_form_constant(params, ConeSpec.complement_sigma0())
            punct = closed_form_constant(params, ConeSpec.punctured_space())
            assert abs(sig.value - punct.value) <= 1e-12 * max(1.0, punct.value)

    # fractional-order specialization: d = n+1, a = 1-2s, b = 0
    for n in (1, 2, 3, 4, 5):
        for _ in range(5):
            s = float(rng.uniform(0.01, 0.99))
            params = HardyParams(n + 1, 1, 2.0, 1.0 - 2.0 * s, 0.0)
            if n > 2 * s:
                full = closed_form_constant(params, ConeSpec.full_space())
                assert abs(full.value - ((n - 2 * s) / 2) ** 2) <= 1e-12
            half = closed_form_constant(params, ConeSpec.half_space())
            assert abs(half.value - ((n + 2 * s) / 2) ** 2) <= 1e-12

    # mixed-threshold family a = p-k, b = 0: full-space constant ((d-k)/p)^p
    for _ in range(15):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, d))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        cf = closed_form_constant(HardyParams(d, k, p, p - k, 0.0), ConeSpec.full_space())
        assert abs(cf.value - ((d - k) / p) ** p) <= 1e-12 * max(1.0, cf.value)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(
        f"ACCEPTANCE 1 PASS: closed-form dispatch on 200 cells "
        f"({returned} closed forms, identities at 1e-12, {elapsed:.2f}s)"
    )


K1_CONFIGS = [
    (3, -0.9, 0.0), (4, -0.6, 0.5), (5, -0.4, -0.5), (6, -0.25, 0.0), (3, 0.0, 1.0),
    (4, 0.1, 0.0), (5, 0.2, -1.0), (6, 0.3, 0.0), (3, 0.4, 0.5), (4, 0.5, 0.0),
]

K2_CONFIGS = [(4, 2, -0.5, 0.0), (5, 2, 0.3, 0.0), (6, 3, -1.2, 0.0)]


def test_criterion_02_eigen_vs_closed_form():
    """Weighted eigensolves against (d-k)(2-(k+a)) + H^2: k=1 on two meshes, k>=2 at 1e-12."""
    start = time.perf_counter()
    cone = ConeSpec.complement_sigma0()
    worst = {512: 0.0, 2048: 0.0}
    for d, a, b in K1_CONFIGS:
        params = HardyParams(d, 1, 2.0, a, b)
        reference = sigma0_reference(params)
        for mesh, tol in ((512, 1e-4), (2048, 1e-5)):
            result = solve_M(params, cone, mesh)
            rel = abs(result.M - reference) / reference
            worst[mesh] = max(worst[mesh], rel)
            assert rel <= tol, (d, a, b, mesh, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0

    for d, k, a, b in K2_CONFIGS:
        params = HardyParams(d, k, 2.0, a, b)
        reference = sigma0_reference(params)
        result = solve_M(params, cone, 512)
        rel = abs(result.M - reference) / reference
        report(
            f"  [report] k={k} d={d} a={a}: numeric M = {result.M:.8f}, "
            f"eigenvalue formula = {reference:.8f}, relative discrepancy = {rel:.2e}"
        )
        assert rel <= 1e-12, (d, k, a, b, rel)
    report(
        f"ACCEPTANCE 2 PASS: eigen path matches the explicit eigenvalue formula "
        f"(worst rel {worst[512]:.2e} @512, {worst[2048]:.2e} @2048, {elapsed:.1f}s)"
    )


def test_criterion_03_hemisphere_sanity():
    """a = 0 hemisphere Dirichlet eigenvalue equals d-1 at mesh 1024."""
    worst = 0.0
    for d in (3, 4, 5):
        params = HardyParams(d, 1, 2.0, 0.0, 0.0)
        result = solve_M(params, ConeSpec.half_space(), 1024)
        rel = abs(result.lam - (d - 1)) / (d - 1)
        worst = max(worst, rel)
        assert rel <= 1e-5, (d, rel)
    report(f"ACCEPTANCE 3 PASS: hemisphere eigenvalue d-1 for d in 3..5 (worst rel {worst:.2e})")


def test_criterion_04_superdegenerate_collapse():
    """k+a >= p: forced Dirichlet eigenvalue collapses to H^2 as the mesh refines."""
    params = HardyParams(3, 1, 2.0, 1.5, 0.0)
    H2 = hardy_exponent(params).H ** 2
    domain = AngularDomain(0.0, HALF_PI, NATURAL, DIRICHLET)
    gaps = []
    for mesh in (1024, 2048, 4096):
        S, M, _ = assemble_p2(params, domain, mesh)
        lam, _ = smallest_eigenpair(S, M)
        gaps.append(lam + H2 - H2)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 5e-2
    report(
        "ACCEPTANCE 4 PASS: forced-Dirichlet gap collapses "
        f"({gaps[0]:.2e} -> {gaps[1]:.2e} -> {gaps[2]:.2e} < 5e-2)"
    )


def test_criterion_06_udelta_sharpness():
    """u_delta traces: order >= 1.9, extrapolation within 1e-3 M, exact 1/delta mass."""
    deltas = (0.2, 0.1, 0.05)
    for params, reference in (
        (HardyParams(3, 1, 2.0, 0.0, 0.0), 2.25),
        (HardyParams(4, 1, 2.0, 0.3, 0.5), sigma0_reference(HardyParams(4, 1, 2.0, 0.3, 0.5))),
    ):
        cone = ConeSpec.complement_sigma0()
        result = solve_M(params, cone, 512)
        quotients = []
        products = []
        for delta in deltas:
            ev = evaluate_quotient_udelta(params, result.minimizer, delta)
            quotients.append(ev.quotient)
            products.append(ev.denominator * delta)
        order = math.log((quotients[0] - quotients[1]) / (quotients[1] - quotients[2])) / math.log(2.0)
        assert order >= 1.9
        extrap = (quotients[2] * deltas[1] ** 2 - quotients[1] * deltas[2] ** 2) / (
            deltas[1] ** 2 - deltas[2] ** 2
        )
        assert abs(extrap - reference) <= 1e-3 * reference
        spread = (max(products) - min(products)) / products[0]
        assert spread <= 1e-12
    report(
        f"ACCEPTANCE 6 PASS: u_delta order {order:.3f} >= 1.9, extrapolated limit "
        f"within 1e-3 of the sharp constant, denominator*delta constant to 1e-12"
    )


def test_criterion_07_non_attainment():
    """Quotients stay strictly above M while the mass diverges exactly like 1/delta."""
    params = HardyParams(3, 1, 2.0, 0.0, 0.0)
    cone = ConeSpec.complement_sigma0()
    reference = 2.25
    result = solve_M(params, cone, 512)
    deltas = (0.2, 0.1, 0.05)
    dens = []
    for delta in deltas:
        ev = evaluate_quotient_udelta(params, result.minimizer, delta)
        assert ev.quotient - reference > 0.0
        dens.append(ev.denominator)
    for (d1, n1), (d2, n2) in zip(zip(deltas, dens), zip(deltas[1:], dens[1:])):
        slope = (math.log(n2) - math.log(n1)) / (math.log(d2) - math.log(d1))
        assert abs(slope + 1.0) <= 1e-6
    report(
        "ACCEPTANCE 7 PASS: quotient - M > 0 for every finite delta, "
        f"log-mass slope -1 within 1e-6 (last slope {slope:.9f})"
    )


def test_criterion_08_cutoff_decay():
    """Strip energies: h^(1-p) band at threshold, superpolynomial decay above it."""
    support = (0.05, 20.0)
    threshold = HardyParams(3, 1, 2.0, 1.0, 0.0)  # k + a = p
    scaled = [cutoff_decay(threshold, support, h) * h ** (threshold.p - 1) for h in (4, 8, 16)]
    ratio = max(scaled) / min(scaled)
    assert ratio < 2.0

    above = HardyParams(3, 1, 2.0, 2.5, 0.0)  # k + a - p = 1.5
    values = [cutoff_decay(above, support, h) for h in (4, 8, 16)]
    slopes = [math.log2(values[i] / values[i + 1]) for i in range(2)]
    assert slopes[1] > slopes[0]
    for power in (1.0, 2.0, 3.0):
        assert values[2] < values[1] / 2**power
    report(
        f"ACCEPTANCE 8 PASS: I_h * h^(p-1) bounded within factor {ratio:.3f} at k+a=p; "
        f"above threshold the decay steepens ({slopes[0]:.1f} -> {slopes[1]:.1f} bits/doubling)"
    )


def test_criterion_09_radial_hardy_oracle():
    """1-D radial quotients: 50 random splines above |H|^p, family reaches it."""
    params = HardyParams(3, 1, 2.0, 0.0, 0.0)
    m = params.d + params.a - params.b - 1.0
    bound = hardy_exponent(params).H_abs_p
    rng = np.random.default_rng(77)
    s = np.linspace(-8.0, 8.0, 4096)
    r = np.exp(s)
    low = math.inf
    for _ in range(50):
        n_knots = int(rng.integers(6, 12))
        knots = np.linspace(-6.0, 6.0, n_knots)
        vals = np.concatenate([[0.0], rng.uniform(-1.0, 1.0, n_knots - 2), [0.0]])
        spline = CubicSpline(knots, vals, bc_type="clamped")
        f = np.where(np.abs(s) < 6.0, spline(np.clip(s, -6.0, 6.0)), 0.0)
        if not np.any(f):
            continue
        q = radial_hardy_quotient(params.p, m, r, f)
        low = min(low, q)
        assert q >= bound

    # split-power family on widening plateaus
    quotients = []
    for delta in (0.1, 0.05, 0.025):
        L = 4.0 / delta
        ss = np.linspace(-L - 4.0, L + 4.0, 2**13)
        rr = np.exp(ss)
        window = smooth_step(ss + L + 1.0) * (1.0 - smooth_step(ss - L))
        H = hardy_exponent(params).H
        f = rr ** np.where(rr < 1.0, -H + delta, -H - delta) * window
        quotients.append(radial_hardy_quotient(params.p, m, rr, f))
    assert quotients[0] > quotients[1] > quotients[2] > bound
    assert abs(quotients[-1] - bound) <= 1e-3
    report(
        f"ACCEPTANCE 9 PASS: 50 spline quotients >= {bound} (min {low:.4f}); "
        f"family limit {quotients[-1]:.6f} within 1e-3 of {bound}"
    )


P2_CROSS_CONFIGS = [
    (HardyParams(3, 1, 2.0, 0.0, 0.0), ConeSpec.complement_sigma0()),
    (HardyParams(4, 1, 2.0, 0.3, 0.5), ConeSpec.complement_sigma0()),
    (HardyParams(3, 1, 2.0, 0.0, 0.0), ConeSpec.half_space()),
    (HardyParams(5, 1, 2.0, -0.5, 0.0), ConeSpec.complement_sigma0()),
    (HardyParams(3, 1, 2.0, 0.3, 0.0), ConeSpec.band(0.4, 1.3)),
]

NATURAL_CONFIGS = [
    (HardyParams(3, 1, 1.5, 0.2, 0.0), ConeSpec.full_space()),
    (HardyParams(3, 1, 3.0, 2.0, 0.0), ConeSpec.complement_sigma0()),
    (HardyParams(4, 2, 1.5, 0.5, 0.2), ConeSpec.punctured_space()),
    (HardyParams(4, 1, 3.0, 2.5, 0.0), ConeSpec.half_space()),
]


def tight_generic_descent(monkeypatch) -> None:
    """Descents from 1 + 0.5 cos^2(3 theta), not the cosine profile, to a relative decrease of 1e-13."""
    monkeypatch.setattr(spherical, "_cosine_profile", lambda problem, mesh: 1.0 + 0.5 * np.cos(3.0 * mesh) ** 2)
    monkeypatch.setattr(spherical, "DESCENT_TOL", 1e-13)


def test_criterion_10_p_cross_validation(monkeypatch):
    """Quotient descent vs the P1 eigen path at p=2; constants at p in {1.5, 3}."""
    tight_generic_descent(monkeypatch)
    worst = 0.0
    for params, cone in P2_CROSS_CONFIGS:
        # both legs on the same P1 discretization (solve_M is spectral at p = 2)
        domain = bc_for_cone(params, cone)
        lam, _ = smallest_eigenpair(*assemble_p2(params, domain, 160)[:2])
        eig_M = lam + hardy_exponent(params).H ** 2
        with monkeypatch.context() as patch:
            patch.setattr(spherical, "DESCENT_GRAD_TOL", 1e-9)
            desc = minimize_rayleigh_p(params, domain, 160)
        rel = abs(desc.M - eig_M) / eig_M
        worst = max(worst, rel)
        assert rel <= 1e-6, (params, cone.describe(), rel)

    for params, cone in NATURAL_CONFIGS:
        domain = bc_for_cone(params, cone)
        assert domain.bc1 is NATURAL and domain.bc2 is NATURAL
        habs = hardy_exponent(params).H_abs_p
        result = minimize_rayleigh_p(params, domain, 160)
        assert abs(result.M - habs) <= 1e-6 * max(1.0, habs)
        vals = result.minimizer.values
        assert (vals.max() - vals.min()) <= 1e-4 * vals.max()
    report(
        f"ACCEPTANCE 10 PASS: descent matches eigen path to {worst:.2e} on 5 configs; "
        f"natural domains return |H|^p with constant minimizers at p in {{1.5, 3}}"
    )


def test_criterion_05_lower_bound_and_strict_gap(monkeypatch):
    """M >= |H|^p - 1e-8 across the solves of criteria 2, 3, 6, 7 and 10; strict gap for Dirichlet bands."""
    sigma0, half = ConeSpec.complement_sigma0(), ConeSpec.half_space()
    cells = [(HardyParams(d, 1, 2.0, a, b), sigma0, mesh) for d, a, b in K1_CONFIGS for mesh in (512, 2048)]
    cells += [(HardyParams(d, k, 2.0, a, b), sigma0, 512) for d, k, a, b in K2_CONFIGS]
    cells += [(HardyParams(d, 1, 2.0, 0.0, 0.0), half, 1024) for d in (3, 4, 5)]
    cells += [(HardyParams(3, 1, 2.0, 0.0, 0.0), sigma0, 512), (HardyParams(4, 1, 2.0, 0.3, 0.5), sigma0, 512)]
    solved = [(params, solve_M(params, cone, mesh)) for params, cone, mesh in cells]
    tight_generic_descent(monkeypatch)
    for params, cone in P2_CROSS_CONFIGS + NATURAL_CONFIGS:
        solved.append((params, minimize_rayleigh_p(params, bc_for_cone(params, cone), 160)))
    assert len(solved) >= 30
    for params, result in solved:
        habs = hardy_exponent(params).H_abs_p
        assert result.M >= habs - 1e-8, (params, result.M, habs)

    gaps = []
    for params, band in [
        (HardyParams(3, 1, 2.0, 0.3, 0.0), ConeSpec.band(0.3, 1.2)),
        (HardyParams(4, 1, 2.0, -0.2, 0.5), ConeSpec.band(0.5, HALF_PI)),
        (HardyParams(4, 2, 2.0, 0.5, 0.0), ConeSpec.band(0.0, 1.0)),
        (HardyParams(3, 1, 1.5, 0.4, 0.0), ConeSpec.band(0.4, 1.1)),
    ]:
        result = solve_M(params, band, 160)
        gap = result.M - hardy_exponent(params).H_abs_p
        gaps.append(gap)
        assert gap > 1e-3, (band.describe(), gap)
    report(
        f"ACCEPTANCE 5 PASS: lower bound holds across {len(solved)} solves; "
        f"interior-Dirichlet bands keep gaps > 1e-3 (min {min(gaps):.3f})"
    )
