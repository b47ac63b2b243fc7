"""Quadrature rules against the singular angular weight."""

import math

import numpy as np
import pytest
from scipy.special import betaln

from hardycone.params import ConeSpec, HardyParams
from hardycone.quadrature import (
    AngularWeight,
    _gauss_jacobi,
    composite_rule,
    sphere_surface_area,
    sphere_weight_mass,
)

HALF_PI = math.pi / 2


def beta_mass(d: int, k: int, a: float) -> float:
    """Closed form int_0^(pi/2) cos^(k+a-1) sin^(d-k-1) dtheta = B((k+a)/2, (d-k)/2)/2."""
    return 0.5 * math.exp(betaln((k + a) / 2, (d - k) / 2))


def weight_for(d, k, a, cone=None):
    return AngularWeight.for_params(HardyParams(d, k, 2.0, a, 0.0), cone)


class TestSphereSurfaceArea:
    def test_known_values(self):
        assert sphere_surface_area(0) == pytest.approx(2.0, abs=1e-15)
        assert sphere_surface_area(1) == pytest.approx(2 * math.pi, rel=1e-15)
        assert sphere_surface_area(2) == pytest.approx(4 * math.pi, rel=1e-15)

    def test_three_sphere_gamma_oracle(self):
        # 2 pi^2 / Gamma(2) = 2 pi^2
        assert sphere_surface_area(3) == pytest.approx(
            2 * math.pi**2 / math.gamma(2.0), rel=1e-15
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sphere_surface_area(-1)

    @pytest.mark.parametrize("n", [342, 343, 345, 398, 430])
    def test_finite_where_gamma_overflows(self, n):
        # Gamma((n+1)/2) overflows from n = 343; |S^n| = 2 pi / (n-1) |S^(n-2)| does not
        area = sphere_surface_area(n)
        assert 0.0 < area < 1e-200
        assert area == pytest.approx(2 * math.pi / (n - 1) * sphere_surface_area(n - 2), rel=1e-12)

    def test_underflows_to_zero_past_the_float_range(self):
        assert sphere_surface_area(500) == 0.0


def jacobi_moment(m: int, alpha: float, beta: float) -> float:
    """int_-1^1 (1-x)^alpha (1+x)^(beta+m) dx = 2^(alpha+beta+m+1) B(alpha+1, beta+m+1)."""
    return math.exp(
        (alpha + beta + m + 1) * math.log(2.0) + math.lgamma(alpha + 1) + math.lgamma(beta + m + 1)
        - math.lgamma(alpha + beta + m + 2)
    )


class TestGaussJacobi:
    @pytest.mark.parametrize("n, bound", [(8, 1e-12), (10, 1e-12), (64, 1e-10), (256, 1e-10)])
    @pytest.mark.parametrize(
        "alpha, beta", [(0.0, 0.0), (0.0, -0.5), (0.0, -0.999), (-0.5, -0.5), (0.5, -0.25), (1.5, 0.3)]
    )
    def test_exact_on_polynomials_of_degree_2n_minus_1(self, n, bound, alpha, beta):
        x, w = _gauss_jacobi(n, alpha, beta)
        m = np.arange(2 * n)
        exact = np.array([jacobi_moment(j, alpha, beta) for j in m])
        got = (w * (1.0 + x) ** m[:, None]).sum(axis=1)
        assert np.all(np.abs(got - exact) <= bound * exact)
        assert np.all(np.diff(x) > 0) and np.all(w > 0)
        if alpha == beta:
            assert np.abs(x + x[::-1]).max() <= 1e-14

    @pytest.mark.parametrize("n", [4, 8, 16, 64, 128])
    @pytest.mark.parametrize("kind", [1, 2])
    def test_chebyshev_rules_to_the_last_bits(self, n, kind):
        # alpha = beta = -1/2 (first kind): x_i = cos((2i-1) pi / 2n), w_i = pi/n;
        # alpha = beta = 1/2 (second kind): x_i = cos(i pi / (n+1)),
        # w_i = pi/(n+1) sin^2(i pi / (n+1)).  Each node is the sine of the
        # complementary angle and each sine its smaller angle, so that the
        # references keep full accuracy near x = +-1
        i = np.arange(1, n + 1)
        if kind == 1:
            x_ref = np.sin((2 * i - n - 1) * math.pi / (2 * n))
            w_ref = np.full(n, math.pi / n)
        else:
            x_ref = np.sin((2 * i - n - 1) * math.pi / (2 * (n + 1)))
            w_ref = math.pi / (n + 1) * np.sin(np.minimum(i, n + 1 - i) * math.pi / (n + 1)) ** 2
        x, w = _gauss_jacobi(n, kind - 1.5, kind - 1.5)
        # the Newton step's sums run in np.longdouble; where that is plain
        # double, weights at n = 128 are up to ~100 ulp off
        w_ulp = 8 if np.finfo(np.longdouble).nmant > np.finfo(float).nmant else 256
        assert np.abs(x - x_ref).max() <= 2.0**-52
        assert np.all(np.abs(w - w_ref) <= w_ulp * np.spacing(w_ref))


class TestBuildRule:
    """One-interval rules: composite_rule over the single panel (theta1, theta2)."""

    def test_constant_weight_quarter_circle(self):
        # k=1, a=0, d=2: w = 1 on (0, pi/2)
        rule = composite_rule(weight_for(2, 1, 0.0), (0.0, HALF_PI), 64)
        assert rule.weights.sum() == pytest.approx(HALF_PI, rel=1e-14)

    def test_plain_sine_weight(self):
        # k=1, a=0, d=3: int sin = 1
        rule = composite_rule(weight_for(3, 1, 0.0), (0.0, HALF_PI), 64)
        assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)

    def test_beta_function_values(self):
        rule = composite_rule(weight_for(3, 1, 0.5), (0.0, HALF_PI), 64)
        assert rule.weights.sum() == pytest.approx(2.0 / 3.0, rel=1e-13)
        rule = composite_rule(weight_for(2, 1, 1.0), (0.0, HALF_PI), 64)
        assert rule.weights.sum() == pytest.approx(1.0, rel=1e-13)

    def test_beta_function_random_parameters(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(2, 8))
            k = int(rng.integers(1, d))
            a = float(rng.uniform(-k + 0.02, 3.0))
            rule = composite_rule(weight_for(d, k, a), (0.0, HALF_PI), 128)
            assert rule.weights.sum() == pytest.approx(beta_mass(d, k, a), rel=1e-10)

    def test_polynomial_exactness(self):
        # cos^(2j) is a polynomial of degree j in cos(2 theta); Gauss rule of
        # order n is exact for degree < n
        for (d, k, a) in [(3, 1, 0.5), (5, 2, -1.3), (4, 3, 0.05)]:
            rule = composite_rule(weight_for(d, k, a), (0.0, HALF_PI), 16)
            for j in range(7):
                exact = beta_mass(d, k, a + 2 * j)
                got = rule.weights @ np.cos(rule.nodes) ** (2 * j)
                assert got == pytest.approx(exact, rel=1e-12)

    def test_positive_interior_increasing_nodes(self):
        for interval in [(0.0, HALF_PI), (0.0, 1.0), (0.3, HALF_PI), (0.3, 1.2)]:
            rule = composite_rule(weight_for(4, 2, -0.7), interval, 32)
            assert np.all(rule.weights > 0)
            assert np.all(np.diff(rule.nodes) > 0)
            assert rule.nodes[0] > interval[0] and rule.nodes[-1] < interval[1]

    def test_convergence_as_order_doubles(self):
        weight = weight_for(3, 1, 0.5)
        rules = [composite_rule(weight, (0.0, HALF_PI), n) for n in (16, 32, 64, 128, 256, 512)]
        values = [rule.weights @ np.exp(rule.nodes) for rule in rules]
        diffs = [abs(v1 - v2) for v1, v2 in zip(values, values[1:])]
        scale = abs(values[-1])
        # decreasing until the differences hit the rounding floor
        for d1, d2 in zip(diffs, diffs[1:]):
            assert d2 <= max(d1, 1e-13 * scale)
        assert diffs[-1] <= 1e-6 * scale

    def test_subinterval_against_dense_oracle(self):
        weight = weight_for(4, 2, -0.6)
        rule = composite_rule(weight, (0.4, 1.1), 48)
        theta = np.linspace(0.4, 1.1, 400001)
        oracle = np.trapezoid(np.cos(theta) ** (2 - 0.6 - 1) * np.sin(theta) ** 1 * np.exp(theta), theta)
        assert rule.weights @ np.exp(rule.nodes) == pytest.approx(oracle, rel=1e-9)

    def test_non_integrable_endpoint_rejected(self):
        with pytest.raises(ValueError):
            composite_rule(weight_for(3, 1, -1.0), (0.0, HALF_PI), 32)
        # same exponent away from the singular end is fine
        composite_rule(weight_for(3, 1, -1.0), (0.2, 1.0), 32)

    def test_bad_interval(self):
        for mesh in [(1.0, 0.5), (0.2, 0.2, 1.0)]:  # decreasing, a repeated node
            with pytest.raises(ValueError, match="strictly increasing"):
                composite_rule(weight_for(3, 1, 0.0), mesh, 32)


class TestCompositeRule:
    def test_matches_single_panel(self):
        weight = weight_for(5, 2, 0.4)
        interior = np.sort(np.random.default_rng(5).uniform(0.05, 1.5, 17))
        meshes = [
            np.concatenate([[0.0], interior, [HALF_PI]]),  # both ends
            interior,  # band: no end panel
            np.array([0.0, HALF_PI]),  # one panel, Jacobi in t = cos(2 theta)
            np.array([0.0, 0.8, HALF_PI]),  # both ends, no interior panel
        ]
        for mesh in meshes:
            rule = composite_rule(weight, mesh, 12)
            nodes = rule.nodes.reshape(mesh.size - 1, 12)
            weights = rule.weights.reshape(mesh.size - 1, 12)
            for e in range(mesh.size - 1):
                single = composite_rule(weight, (mesh[e], mesh[e + 1]), 12)
                assert np.array_equal(nodes[e], single.nodes)
                assert np.array_equal(weights[e], single.weights)
        # one-panel rules broadcast too: interior panels against the per-panel Gauss-Legendre formula
        x, wx = _gauss_jacobi(12, 0.0, 0.0)
        for th1, th2 in zip(interior[:-1], interior[1:]):
            theta = th1 + 0.5 * (th2 - th1) * (1.0 + x)
            w = wx * 0.5 * (th2 - th1) * np.cos(theta) ** 1.4 * np.sin(theta) ** 2.0
            single = composite_rule(weight, (th1, th2), 12)
            assert np.array_equal(single.nodes, theta)
            np.testing.assert_allclose(single.weights, w, rtol=1e-14)
        rule = composite_rule(weight, meshes[0], 12)
        assert rule.weights.sum() == pytest.approx(beta_mass(5, 2, 0.4), rel=1e-11)
        assert np.all(rule.weights > 0)
        assert np.all(np.diff(rule.nodes) > 0)

    def test_graded_mesh_with_singular_weight(self):
        from hardycone.spherical import graded_mesh

        weight = weight_for(3, 1, -0.5)
        mesh = graded_mesh(0.0, HALF_PI, 512, 3.0)
        rule = composite_rule(weight, mesh, 8)
        assert rule.weights.sum() == pytest.approx(beta_mass(3, 1, -0.5), rel=1e-9)

    @pytest.mark.parametrize("ka", [1.0, 3.0])
    @pytest.mark.parametrize("dk", [1, 9, 39, 79])
    def test_regular_end_at_zero_on_a_graded_mesh(self, ka, dk):
        # theta = 0 takes Gauss-Legendre: sin^(d-k-1) is a polynomial in sin theta there
        from hardycone.spherical import graded_mesh

        rule = composite_rule(AngularWeight(ka - 1.0, dk - 1.0, 1.0), graded_mesh(0.0, HALF_PI, 512, 3.0))
        for j in range(3):
            exact = 0.5 * math.exp(betaln(ka / 2 + j, dk / 2))
            assert rule.weights @ np.cos(rule.nodes) ** (2 * j) == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("mesh", [(0.0, HALF_PI), (0.0, 0.5, HALF_PI), (0.0, 1.0)])
    @pytest.mark.parametrize("sin_exponent", [0.5, -0.5])
    def test_non_integer_sin_exponent_at_zero_rejected(self, mesh, sin_exponent):
        # at theta = 0 the rule relies on sin^(d-k-1) being a polynomial in sin theta
        with pytest.raises(ValueError, match="nonnegative integer"):
            composite_rule(AngularWeight(0.0, sin_exponent, 1.0), mesh)
        composite_rule(AngularWeight(0.0, sin_exponent, 1.0), (0.1, 1.0))  # away from theta = 0 it is smooth

    def test_mesh_outside_quarter_arc_rejected(self):
        weight = weight_for(3, 1, 0.5)
        for mesh in ([-0.2, 0.5, 1.0], [0.5, 1.0, HALF_PI + 0.1], [-0.3, 1.4]):
            with pytest.raises(ValueError, match=r"\[0, pi/2\]"):
                composite_rule(weight, mesh)
        composite_rule(weight, [0.0, 0.5, HALF_PI])  # the closed arc itself is fine


class TestIntegrate:
    """Integrals as weights @ f(nodes) over a one-interval rule."""

    def test_linear_in_integrand(self):
        rule = composite_rule(weight_for(3, 1, 0.2), (0.0, HALF_PI), 64)
        t = rule.nodes
        assert rule.weights @ np.zeros_like(t) == 0.0
        one = rule.weights @ np.ones_like(t)
        cos2 = rule.weights @ np.cos(t) ** 2
        combo = rule.weights @ (3.0 - 2.0 * np.cos(t) ** 2)
        assert combo == pytest.approx(3 * one - 2 * cos2, rel=1e-14)

    def test_quarter_circle_cos_squared(self):
        # w = 1 (k=1, a=0, d=2): int cos^2 = pi/4
        rule = composite_rule(weight_for(2, 1, 0.0), (0.0, HALF_PI), 64)
        assert rule.weights @ np.cos(rule.nodes) ** 2 == pytest.approx(math.pi / 4, rel=1e-14)


class TestSphereWeightMass:
    def test_unweighted_circle_and_sphere(self):
        assert sphere_weight_mass(HardyParams(2, 1, 2.0, 0.0, 0.0)) == pytest.approx(2 * math.pi, rel=1e-13)
        assert sphere_weight_mass(HardyParams(3, 1, 2.0, 0.0, 0.0)) == pytest.approx(4 * math.pi, rel=1e-13)

    def test_weighted_mass_closed_form(self):
        # d=3, k=2, a=1: |S^1||S^0| B(3/2, 1/2)/2 = 4 pi * (pi/2)/2 = pi^2
        assert sphere_weight_mass(HardyParams(3, 2, 2.0, 1.0, 0.0)) == pytest.approx(math.pi**2, rel=1e-13)

    def test_beta_closed_form_random_parameters(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            d = int(rng.integers(2, 8))
            k = int(rng.integers(1, d))
            a = float(rng.uniform(-k + 0.05, 3.0))
            params = HardyParams(d, k, 2.0, a, 0.0)
            pref = sphere_surface_area(k - 1) * sphere_surface_area(d - k - 1)
            assert sphere_weight_mass(params) == pytest.approx(
                pref * beta_mass(d, k, a), rel=1e-10
            )

    def test_monte_carlo_oracle(self):
        params = HardyParams(3, 2, 2.0, 1.0, 0.0)
        rng = np.random.default_rng(42)
        z = rng.standard_normal((2_000_000, 3))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        # |Pi sigma| projects onto the trailing k=2 coordinates
        mc = sphere_surface_area(2) * np.mean(np.linalg.norm(z[:, 1:], axis=1) ** 1.0)
        assert sphere_weight_mass(params) == pytest.approx(mc, rel=2e-3)

    def test_prefactor_cancellation_convention(self):
        params = HardyParams(3, 1, 2.0, 0.0, 0.0)
        full = AngularWeight.for_params(params)
        half = AngularWeight.for_params(params, ConeSpec.half_space())
        assert half.prefactor == pytest.approx(full.prefactor / 2)

    def test_non_integrable_rejected(self):
        with pytest.raises(ValueError):
            sphere_weight_mass(HardyParams(3, 1, 2.0, -1.5, 0.0))
