"""Certification machinery: u_delta quotients, cutoff energies, 1-D oracle."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, CubicSpline

import hardycone.verifier as verifier
from hardycone.hp import _HpFunction
from hardycone.params import ConeSpec, HardyParams, closed_form_constant, hardy_exponent
from hardycone.quadrature import sphere_weight_mass
from hardycone.spherical import (
    DIRICHLET,
    DiscretizedFunction,
    _Discretization,
    _FactoredDiscretization,
    _FactoredFunction,
    _SphericalProblem,
    bc_for_cone,
    graded_mesh,
    solve_M,
)
from hardycone.verifier import (
    _cutoff_log_decay,
    _delta_limit,
    cutoff_decay,
    eta_cutoff,
    eta_cutoff_prime,
    evaluate_quotient_udelta,
    radial_hardy_quotient,
    smooth_step,
)

HALF_PI = math.pi / 2


def log_grid(r_min=1e-6, r_max=1e6, n=4096):
    return np.exp(np.linspace(math.log(r_min), math.log(r_max), n))


def udelta_radial_family(delta, H=0.5, plateau_factor=4.0, ramp=1.0, n=2**13):
    """r^(-H+delta) / r^(-H-delta) split profile on a plateau of half-width
    plateau_factor/delta e-folds: the window must widen as delta -> 0 for the
    truncation terms (relative size ~ e^(-2 p delta L)) to stay negligible."""
    L = plateau_factor / delta
    s = np.linspace(-L - 4 * ramp, L + 4 * ramp, n)
    r = np.exp(s)
    window = smooth_step((s + L + ramp) / ramp) * (1.0 - smooth_step((s - L) / ramp))
    power = np.where(r < 1.0, -H + delta, -H - delta)
    return r, r**power * window


class TestCutoffShape:
    def test_eta_plateau_and_support(self):
        t = np.array([-1.0, 0.0, 0.5, 1.0])
        assert np.allclose(eta_cutoff(t), 1.0)
        assert np.allclose(eta_cutoff(np.array([2.0, 3.0, 10.0])), 0.0)
        mid = eta_cutoff(np.array([1.5]))[0]
        assert 0.0 < mid < 1.0

    def test_eta_prime_support_and_sign(self):
        t = np.linspace(1.01, 1.99, 9)
        assert np.all(eta_cutoff_prime(t) < 0)
        assert np.allclose(eta_cutoff_prime(np.array([0.5, 2.5])), 0.0)

    def test_eta_prime_matches_finite_differences(self):
        t = np.linspace(1.05, 1.95, 7)
        h = 1e-6
        fd = (eta_cutoff(t + h) - eta_cutoff(t - h)) / (2 * h)
        assert np.allclose(eta_cutoff_prime(t), fd, atol=1e-7)


class TestUdeltaQuotient:
    def setup_method(self):
        self.params = HardyParams(3, 1, 2.0, 0.0, 0.0)
        self.cone = ConeSpec.complement_sigma0()
        self.result = solve_M(self.params, self.cone, 256)

    def test_p2_quotient_is_M_plus_delta_squared(self):
        # algebraic identity: ((H-d)^2 + (H+d)^2)/2 = H^2 + d^2 makes the
        # quotient exceed the discrete minimum by exactly delta^2
        for delta in (0.2, 0.1, 0.05):
            ev = evaluate_quotient_udelta(self.params, self.result.minimizer, delta)
            assert ev.quotient - self.result.M == pytest.approx(delta**2, rel=1e-9)

    @pytest.mark.parametrize("params, cone", [
        (HardyParams(3, 1, 2.0, 0.0, 0.0), ConeSpec.complement_sigma0()),
        (HardyParams(4, 1, 2.0, 0.3, 0.5), ConeSpec.half_space()),
        (HardyParams(3, 1, 2.0, 0.3, 0.0), ConeSpec.band(0.4, 1.3)),
    ], ids=["complement-sigma0", "half-space", "band"])
    def test_p2_quotient_is_solver_quotient_plus_delta_squared(self, params, cone):
        # the certifier sums over the solver's discretization, the factored
        # spectral basis, so the identity holds to rounding against the
        # solver's own quotient
        result = solve_M(params, cone, 256)
        domain = bc_for_cone(params, cone)
        problem = _SphericalProblem.of(params, domain)
        assert np.array_equal(_Discretization.graded(problem, 256).mesh, result.minimizer.mesh)
        Phi = result.minimizer
        assert Phi.problem == problem
        dirichlet_pole = domain.bc2 is DIRICHLET and domain.theta2 == math.pi / 2
        assert Phi.problem.s == (2.0 - (params.k + params.a) if dirichlet_pole else 0.0)
        q = _FactoredDiscretization(Phi.problem, Phi.coefficients.size).value(Phi.coefficients)
        for delta in (0.2, 0.1, 0.05):
            ev = evaluate_quotient_udelta(params, result.minimizer, delta, cone=cone)
            assert ev.quotient - q == pytest.approx(delta**2, rel=1e-11)

    @pytest.mark.parametrize("cone", [ConeSpec.complement_sigma0(), ConeSpec.half_space(),
                                      ConeSpec.punctured_space()], ids=lambda cone: cone.describe())
    def test_factored_minimizer_integrated_exactly(self, monkeypatch, cone):
        # the spectral minimizer is integrated in its own basis and rule, with no
        # P1 rule on its sampling mesh: the quotient is the exact M + delta^2
        params = HardyParams(4, 1, 2.0, 0.3, 0.5)
        result = solve_M(params, cone, 2048)
        monkeypatch.setattr(verifier, "composite_rule", None)
        for delta in (0.2, 0.1, 0.05, 0.025):
            ev = evaluate_quotient_udelta(params, result.minimizer, delta, cone=cone)
            assert ev.quotient - result.M == pytest.approx(delta**2, rel=1e-11)
            assert ev.quotient == pytest.approx(closed_form_constant(params, cone).value + delta**2, rel=1e-13)

    def test_second_order_approach(self):
        qs = [
            evaluate_quotient_udelta(self.params, self.result.minimizer, d).quotient
            for d in (0.2, 0.1, 0.05)
        ]
        order = math.log((qs[0] - qs[1]) / (qs[1] - qs[2])) / math.log(2.0)
        assert order >= 1.9

    def test_constant_profile_any_p(self):
        params = HardyParams(3, 1, 3.0, 2.0, 0.0)  # natural/natural superdegenerate
        mesh = graded_mesh(0.0, HALF_PI, 64, 2.0)
        Phi = DiscretizedFunction(mesh, np.ones(mesh.size))
        H = hardy_exponent(params).H
        for delta in (0.3, 0.1):
            ev = evaluate_quotient_udelta(params, Phi, delta)
            expected = (abs(H - delta) ** 3 + abs(H + delta) ** 3) / 2
            assert ev.quotient == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("params, cone, kind", [
        (HardyParams(4, 1, 2.0, 0.3, 0.5), ConeSpec.half_space(), _FactoredFunction),
        (HardyParams(3, 1, 3.0, 0.0, 0.0), ConeSpec.complement_sigma0(), _HpFunction),
        (HardyParams(3, 1, 3.0, 0.3, 0.0), ConeSpec.band(0.3, 1.2), DiscretizedFunction),
    ], ids=["factored", "hp", "P1"])
    def test_slope_is_the_derivative_in_delta_squared(self, params, cone, kind):
        # against a centred difference of the quotient in x = delta^2
        Phi = solve_M(params, cone, 256).minimizer
        assert type(Phi) is kind
        for delta in (0.2, 0.05):
            x, h = delta**2, 1e-3 * delta**2
            q_up, q_down = (evaluate_quotient_udelta(params, Phi, math.sqrt(x + step), cone=cone).quotient
                            for step in (h, -h))
            slope = evaluate_quotient_udelta(params, Phi, delta, cone=cone).slope
            assert slope == pytest.approx((q_up - q_down) / (2 * h), rel=1e-6)

    @pytest.mark.parametrize("params, cone", [
        (HardyParams(3, 1, 2.0, 0.0, 0.0), ConeSpec.complement_sigma0()),
        (HardyParams(4, 1, 2.0, 0.3, 0.5), ConeSpec.half_space()),
        (HardyParams(3, 1, 2.0, 0.3, 0.0), ConeSpec.band(0.4, 1.3)),
    ], ids=["complement-sigma0", "half-space", "band"])
    def test_p2_slope_is_one(self, params, cone):
        # the quotient is M + delta^2 at p = 2, so its slope in delta^2 is 1 to rounding
        Phi = solve_M(params, cone, 256).minimizer
        assert type(Phi) is _FactoredFunction
        for delta in (0.2, 0.1, 0.05, 0.025):
            assert abs(evaluate_quotient_udelta(params, Phi, delta, cone=cone).slope - 1.0) <= 1e-13

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_constant_profile_slope_where_the_density_vanishes(self):
        # at delta = H the H - delta branch has Phi' = 0 and G = 0: every density
        # there is 0, and with p < 2 e2^(p/2-1) would be inf; those nodes add 0
        params = HardyParams(3, 1, 1.5, 0.5, 0.0)  # natural/natural superdegenerate
        mesh = graded_mesh(0.0, HALF_PI, 64, 2.0)
        Phi = DiscretizedFunction(mesh, np.ones(mesh.size))
        H = hardy_exponent(params).H
        for delta in (H, 0.5 * H):
            # Q = (|H-delta|^p + |H+delta|^p)/2, and dQ/d(delta^2) = dQ/d delta / (2 delta)
            expected = 0.75 * ((H + delta) ** 0.5 - abs(H - delta) ** 0.5) / (2 * delta)
            assert evaluate_quotient_udelta(params, Phi, delta).slope == pytest.approx(expected, rel=1e-12)

    def test_profile_outside_quarter_arc_rejected(self):
        mesh = np.linspace(-0.3, 1.4, 33)
        Phi = DiscretizedFunction(mesh, np.cos(mesh))
        with pytest.raises(ValueError, match=r"\[0, pi/2\]"):
            evaluate_quotient_udelta(self.params, Phi, 0.1)

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(ValueError):
            evaluate_quotient_udelta(self.params, self.result.minimizer, 0.0)


class TestDeltaLimit:
    """The Hermite Neville-Aitken table in x = delta^2 over a (delta, quotient, slope) trace."""

    DELTAS = (0.2, 0.1, 0.05, 0.025, 0.0125)

    @staticmethod
    def polynomial_trace(coefficients, deltas):
        """(delta, q, dq/dx) of q = sum c_j x^j, x = delta^2, as numpy scalars."""
        return [(delta, np.float64(sum(c * delta ** (2 * j) for j, c in enumerate(coefficients))),
                 np.float64(sum(j * c * delta ** (2 * j - 2) for j, c in enumerate(coefficients) if j)))
                for delta in deltas]

    @pytest.mark.parametrize("count", [2, 3, 4, 5])
    def test_exact_on_polynomials_in_delta_squared(self, count):
        # degree 2 count - 1 in delta^2: the table's last entry is the constant term
        coefficients = (2.5, -3.0, 7.0, -11.0, 13.0, -5.0, 3.0, 17.0, -19.0, 23.0)[: 2 * count]
        limit, _ = _delta_limit(self.polynomial_trace(coefficients, self.DELTAS[:count]))
        assert limit == pytest.approx(2.5, rel=1e-12)

    def test_same_bits_for_any_order(self):
        trace = [(delta, np.float64(2.1725999599 + 0.43 * delta**2 - 0.71 * delta**4 + 0.2 * delta**7),
                  np.float64(0.43 - 1.42 * delta**2 + 0.7 * delta**5))
                 for delta in self.DELTAS[:4]]
        expected = _delta_limit(trace)
        assert expected[1] is not None
        for order in itertools.permutations(trace):
            assert _delta_limit(list(order)) == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_two_points_give_the_line_through_them(self, seed):
        # two points give the cubic Hermite value at x = 0: bit for bit the three
        # steps of the table, in either order, and with both slopes the chord's,
        # the line through them
        rng = np.random.default_rng(seed)
        (d0, d1), (q0, q1), (s0, s1) = (sorted(rng.uniform(0.01, 0.5, 2), reverse=True),
                                        rng.uniform(1.0, 3.0, 2), rng.uniform(-2.0, 2.0, 2))
        x0, x1 = d0**2, d1**2
        t0, t1 = q0 - x0 * s0, q1 - x1 * s1
        chord = (x0 * q1 - x1 * q0) / (x0 - x1)
        left, right = (x0 * chord - x1 * t0) / (x0 - x1), (x0 * t1 - x1 * chord) / (x0 - x1)
        hermite = (x0 * right - x1 * left) / (x0 - x1)
        assert _delta_limit([(d0, q0, s0), (d1, q1, s1)]) == (hermite, None)
        assert _delta_limit([(d1, q1, s1), (d0, q0, s0)]) == (hermite, None)
        spline = CubicHermiteSpline([x1, x0], [q1, q0], [s1, s0])
        assert hermite == pytest.approx(float(spline(0.0)), rel=1e-12, abs=1e-12)
        slope = (q0 - q1) / (x0 - x1)
        assert _delta_limit([(d0, q0, slope), (d1, q1, slope)])[0] == pytest.approx(chord, rel=1e-14)

    def test_order_from_the_three_smallest_deltas(self):
        # quadratic below delta = 0.1, anything above it; the slopes do not enter
        trace = [(0.4, 9.0, -7.0), (0.05, 1.0 + 0.05**2, 3.0), (0.1, 1.0 + 0.1**2, math.nan),
                 (0.025, 1.0 + 0.025**2, 1e6)]
        assert _delta_limit(trace)[1] == pytest.approx(2.0, rel=1e-9)

    def test_fewer_than_two_points(self):
        assert _delta_limit([]) == (None, None)
        assert _delta_limit([(0.1, 2.0, 1.0)]) == (None, None)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowing_deltas_give_nan_not_an_exception(self):
        one, two = np.float64(1.0), np.float64(2.0)
        limit, order = _delta_limit([(1e-200, two, one), (1e-300, two, one), (1e-310, two, one)])
        assert math.isnan(limit) and order is None


class TestDenominatorBlowup:
    def setup_method(self):
        self.params = HardyParams(3, 1, 2.0, 0.0, 0.0)
        mesh = graded_mesh(0.0, HALF_PI, 64, 2.0)
        self.Phi = DiscretizedFunction(mesh, np.ones(mesh.size))

    def test_closed_form_value(self):
        # constant profile on the full sphere: denominator = (2/(p delta)) * total mass
        den = evaluate_quotient_udelta(self.params, self.Phi, 0.1).denominator
        expected = 2.0 / (2.0 * 0.1) * sphere_weight_mass(self.params)
        assert den == pytest.approx(expected, rel=1e-12)

    def test_exact_inverse_delta_scaling(self):
        d1 = evaluate_quotient_udelta(self.params, self.Phi, 0.2).denominator
        d2 = evaluate_quotient_udelta(self.params, self.Phi, 0.1).denominator
        assert d2 == pytest.approx(2.0 * d1, rel=1e-14)

    def test_product_with_delta_constant(self):
        products = [
            evaluate_quotient_udelta(self.params, self.Phi, d).denominator * d
            for d in (0.1, 0.01, 0.001)
        ]
        spread = (max(products) - min(products)) / products[0]
        assert spread < 1e-12


# (d,k,p,a,b) at the threshold k+a = p and above it
CUTOFF_CELLS = [
    HardyParams(3, 1, 2.0, 1.0, 0.0),
    HardyParams(4, 2, 2.0, 0.5, 0.0),
    HardyParams(3, 1, 3.0, 2.0, 0.0),
    HardyParams(4, 2, 3.0, 1.5, 0.5),
    HardyParams(3, 1, 2.0, 2.5, 0.0),
]


class TestCutoffDecay:
    def test_threshold_rate(self):
        # k + a = p = 2: I_h ~ h^(1-p), so I_h * h stays within a bounded band
        params = HardyParams(3, 1, 2.0, 1.0, 0.0)
        scaled = [cutoff_decay(params, (0.05, 20.0), h) * h for h in (4, 8, 16)]
        assert max(scaled) / min(scaled) < 2.0

    def test_exponential_decay_above_threshold(self):
        params = HardyParams(3, 1, 2.0, 2.5, 0.0)  # k + a - p = 1.5
        values = [cutoff_decay(params, (0.05, 20.0), h) for h in (4, 8, 16)]
        slopes = [
            math.log2(values[0] / values[1]),
            math.log2(values[1] / values[2]),
        ]
        assert slopes[1] > slopes[0]  # steeper than any fixed power
        assert slopes[1] > 3.0

    def test_no_cutoff_variation_leaves_base_energy(self, monkeypatch):
        params = HardyParams(3, 1, 2.0, 1.0, 0.0)
        active = cutoff_decay(params, (0.05, 20.0), 6)
        # a flat cutoff: the kernel looks eta up in the module when it runs
        monkeypatch.setattr(verifier, "eta_cutoff", lambda t: np.ones_like(np.asarray(t, dtype=float)))
        monkeypatch.setattr(verifier, "eta_cutoff_prime", lambda t: np.zeros_like(np.asarray(t, dtype=float)))
        base = cutoff_decay(params, (0.05, 20.0), 6)
        assert base < 1e-2 * active
        # independent oracle: dense midpoint grid over the strip in (nu, tau)
        oracle = _strip_energy_midpoint_oracle(params, (0.05, 20.0), 6)
        assert base == pytest.approx(oracle, rel=1e-5)

    def test_threshold_separable_asymptotics(self):
        # at k+a = p = 2 and c = e^(-tau-nu) -> 0 the strip integral factors:
        # I_h -> pref * [int e^((d-b-k)nu) g^2 dnu] * [int eta'(t)^2 dt] / h,
        # with corrections decaying like e^(-2h); independent 1-D oracles
        from hardycone.quadrature import AngularWeight
        from hardycone.verifier import _gauss_panels, _plateau_window

        params = HardyParams(3, 1, 2.0, 1.0, 0.0)
        support = (0.05, 20.0)
        window = _plateau_window(*support)
        nu, w_nu = _gauss_panels(*window.log_support(), 64)
        g, _ = window.profile(nu)
        radial = float(w_nu @ (np.exp(nu * (params.d - params.b - params.k)) * g**2))
        t, w_t = _gauss_panels(1.0, 2.0, 32)
        cutoff_mass = float(w_t @ eta_cutoff_prime(t) ** 2)
        pref = AngularWeight.for_params(params).prefactor
        for h, tol in ((10, 1e-8), (16, 1e-10)):
            oracle = pref * radial * cutoff_mass / h
            assert cutoff_decay(params, support, h) == pytest.approx(oracle, rel=tol)

    @pytest.mark.parametrize("params, hs", [
        # |grad u_h|^p alone exceeds the float range for h above ~180 at p = 2
        # and above ~120 at p = 3
        (HardyParams(3, 1, 2.0, 1.0, 0.0), (200, 400)),
        (HardyParams(3, 1, 3.0, 2.0, 0.0), (120, 130)),
    ], ids=["p2", "p3"])
    def test_large_h_energies_finite_and_decreasing(self, params, hs):
        values = [cutoff_decay(params, (0.05, 20.0), h) for h in hs]
        assert all(math.isfinite(value) and value > 0.0 for value in values)
        assert values[1] < values[0]
        # at the threshold k+a = p the energy decays like h^(1-p)
        rate = math.log(values[1] / values[0]) / math.log(hs[1] / hs[0])
        assert rate == pytest.approx(1.0 - params.p, abs=0.05)

    @pytest.mark.parametrize("params, hs", [
        (HardyParams(3, 1, 2.0, 1.0, 0.0), (4, 16, 200)),
        (HardyParams(3, 1, 2.0, 2.5, 0.0), (4, 16, 100)),
        (HardyParams(4, 2, 3.0, 1.5, 0.5), (8, 40)),
    ], ids=["threshold", "above", "p3-above"])
    def test_log_decay_is_the_log_of_the_energy(self, params, hs):
        for h in hs:
            energy = cutoff_decay(params, (0.05, 20.0), h)
            assert _cutoff_log_decay(params, (0.05, 20.0), h) == pytest.approx(math.log(energy), rel=1e-13)

    def test_log_decay_finite_where_the_energy_underflows(self):
        params = HardyParams(3, 1, 2.0, 2.5, 0.0)  # k + a - p = 1.5
        hs = (500, 1000, 2000)
        assert [cutoff_decay(params, (0.05, 20.0), h) for h in hs] == [0.0, 0.0, 0.0]
        logs = [_cutoff_log_decay(params, (0.05, 20.0), h) for h in hs]
        assert all(math.isfinite(value) for value in logs)
        # log I_h ~ -(k+a-p) h and below: the decay outruns every power of h
        for h, value in zip(hs, logs):
            assert -2.0 * 1.5 * h < value < -1.5 * h

    @pytest.mark.parametrize("params", CUTOFF_CELLS, ids=lambda c: f"{c.d},{c.k},{c.p:g},{c.a:g},{c.b:g}")
    def test_panels_match_the_dense_rule_bit_for_bit(self, params):
        # the panel-by-panel kernel forms every node's value by the same
        # operations as the whole-grid formula and reduces the same full
        # integrand, so the energies and their logarithms are equal, not close
        support = (0.05, 20.0)
        for h in (4, 32, 200):
            assert cutoff_decay(params, support, h) == _dense_strip_energy(params, support, h)
        for h in (4, 32, 200, 2000):
            assert _cutoff_log_decay(params, support, h) == _dense_strip_energy(params, support, h, log=True)

    @pytest.mark.parametrize("kernel, params, h", [
        (cutoff_decay, HardyParams(4, 2, 2.0, 0.5, 0.0), 32),
        (_cutoff_log_decay, HardyParams(3, 1, 2.0, 2.5, 0.0), 1000),
    ], ids=["energy", "log"])
    def test_peak_memory_is_one_integrand_array(self, kernel, params, h):
        # one 480 x 240 array (0.92 MB) plus panel-sized factors; the
        # whole-grid formula holds about seven such arrays (~6.5 MB)
        kernel(params, (0.05, 20.0), 4)  # fills the Gauss-node cache, which is not the kernel's memory
        tracemalloc.start()
        try:
            kernel(params, (0.05, 20.0), h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000

    def test_preconditions(self):
        params = HardyParams(3, 1, 2.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            cutoff_decay(params, (0.05, 20.0), 0)
        with pytest.raises(ValueError):
            _cutoff_log_decay(params, (0.05, 20.0), 0)
        with pytest.raises(ValueError):
            cutoff_decay(HardyParams(3, 1, 2.0, 0.5, 0.0), (0.05, 20.0), 4)  # k+a < p
        with pytest.raises(ValueError):
            cutoff_decay(params, (0.005, 20.0), 4)  # strip reaches into r < delta_inner
        with pytest.raises(ValueError):
            _cutoff_log_decay(params, (20.0, 0.05), 4)  # support radii out of order


def _dense_strip_energy(params, support, h, log=False):
    """The strip energy (or its log) by the whole-grid formula: every factor a 480 x 240 array."""
    from hardycone.quadrature import AngularWeight
    from hardycone.verifier import CUTOFF_RADIAL_PANELS, CUTOFF_TAU_PANELS, _gauss_panels, _plateau_window

    window = _plateau_window(*support)
    nu, w_nu = _gauss_panels(*window.log_support(), CUTOFF_RADIAL_PANELS)
    tau, w_tau = _gauss_panels(float(h), 2.0 * float(h), CUTOFF_TAU_PANELS)
    g, gp = window.profile(nu)
    r = np.exp(nu)
    eta_v = eta_cutoff(tau / h)
    etp_v = eta_cutoff_prime(tau / h)
    c = np.exp(-(tau[None, :] + nu[:, None]))
    one_mc2 = np.clip(1.0 - c**2, 0.0, 1.0)
    grad_r = eta_v[None, :] * (gp / r)[:, None] - etp_v[None, :] * (g / r)[:, None] / h
    scaled_grad_r = grad_r * np.exp(-tau)[None, :]
    scaled_grad_th = etp_v[None, :] * np.sqrt(one_mc2) * g[:, None] / h
    grad_p = (scaled_grad_r**2 + scaled_grad_th**2) ** (params.p / 2)
    pref = AngularWeight.for_params(params).prefactor
    d, k, b, excess = params.d, params.k, params.b, params.k + params.a - params.p
    if not log:
        kernel = np.exp(nu * (d - b - k))[:, None] * np.exp(-tau * excess)[None, :]
        kernel = kernel * one_mc2 ** ((d - k - 2) / 2)
        return float(pref * w_nu @ (kernel * grad_p) @ w_tau)
    with np.errstate(divide="ignore"):
        terms = ((np.log(w_nu) + nu * (d - b - k))[:, None]
                 + (np.log(w_tau) - tau * excess)[None, :]
                 + np.log(one_mc2 ** ((d - k - 2) / 2)) + np.log(grad_p))
    top = terms.max()
    if top == -math.inf:
        return -math.inf
    return math.log(pref) + float(top) + math.log(np.exp(terms - top).sum())


def _strip_energy_midpoint_oracle(params, support, h, n_nu=3000, n_tau=3000):
    """Midpoint-rule strip integral of |grad u|^p with no cutoff factor."""
    from hardycone.quadrature import AngularWeight
    from hardycone.verifier import _plateau_window

    window = _plateau_window(*support)
    nu_lo, nu_hi = window.log_support()
    nu = np.linspace(nu_lo, nu_hi, n_nu + 1)
    nu = 0.5 * (nu[:-1] + nu[1:])
    dnu = (nu_hi - nu_lo) / n_nu
    tau = np.linspace(h, 2.0 * h, n_tau + 1)
    tau = 0.5 * (tau[:-1] + tau[1:])
    dtau = float(h) / n_tau
    g, gp = window.profile(nu)
    r = np.exp(nu)
    c = np.exp(-(tau[None, :] + nu[:, None]))
    one_mc2 = 1.0 - c**2
    grad_p = np.abs((gp / r)[:, None] * np.ones_like(tau)[None, :]) ** params.p
    d, k, a, b = params.d, params.k, params.a, params.b
    kernel = np.exp(nu * (d - b - k))[:, None] * np.exp(-tau * (k + a))[None, :]
    kernel *= one_mc2 ** ((d - k - 2) / 2)
    pref = AngularWeight.for_params(params).prefactor
    return float(pref * (kernel * grad_p).sum() * dnu * dtau)


class TestRadialHardyQuotient:
    def test_lower_bound_instance(self):
        # f supported near r = 1, p = 2, H = 1/2: quotient >= 1/4
        r = log_grid(1e-2, 1e2, 2048)
        f = np.exp(-np.log(r) ** 2)
        q = radial_hardy_quotient(2.0, 3 - 1, r, f)  # m = d+a-b-1 = 2
        assert q >= 0.25

    def test_udelta_family_approaches_sharp_constant(self):
        H = 0.5
        quotients = []
        for delta in (0.1, 0.05, 0.025):
            r, f = udelta_radial_family(delta, H)
            quotients.append(radial_hardy_quotient(2.0, 2.0, r, f))
        assert quotients[0] > quotients[1] > quotients[2]
        assert abs(quotients[-1] - H**2) <= 1e-3

    def test_random_splines_respect_bound(self):
        rng = np.random.default_rng(9)
        r = log_grid(1e-4, 1e4, 4096)
        s = np.log(r)
        for _ in range(10):
            knots = np.linspace(-6, 6, 9)
            vals = np.concatenate([[0.0], rng.uniform(-1, 1, 7), [0.0]])
            spline = CubicSpline(knots, vals, bc_type="clamped")
            f = np.where(np.abs(s) < 6, spline(np.clip(s, -6, 6)), 0.0)
            q = radial_hardy_quotient(2.0, 2.0, r, f)
            assert q >= 0.25

    def test_grid_refinement_oracle(self):
        coarse_r, coarse_f = udelta_radial_family(0.05, n=2**13)
        fine_r, fine_f = udelta_radial_family(0.05, n=2**16)
        qc = radial_hardy_quotient(2.0, 2.0, coarse_r, coarse_f)
        qf = radial_hardy_quotient(2.0, 2.0, fine_r, fine_f)
        assert qc == pytest.approx(qf, rel=1e-4)

    def test_zero_profile_rejected(self):
        r = log_grid(1e-2, 1e2, 128)
        with pytest.raises(ValueError):
            radial_hardy_quotient(2.0, 2.0, r, np.zeros_like(r))


class TestVerifyInequality:
    """u_delta quotients of a solved minimizer on its cone, as the verify command forms them."""

    def test_fractional_extension_half_space_family(self):
        # d = 4, a = 0, b = 0 on the half space: sharp constant ((3+1)/2)^2 = 4
        params = HardyParams(4, 1, 2.0, 0.0, 0.0)
        cone = ConeSpec.half_space()
        result = solve_M(params, cone, 512)
        quotients = []
        for delta in (0.2, 0.1, 0.05):
            ev = evaluate_quotient_udelta(params, result.minimizer, delta, cone=cone)
            assert ev.quotient >= 4.0 - 1e-4
            quotients.append(ev.quotient)
        extrap = (quotients[-1] * 0.1**2 - quotients[-2] * 0.05**2) / (0.1**2 - 0.05**2)
        assert extrap == pytest.approx(4.0, abs=1e-3)

    def test_band_cone_quotients_stay_above_minimum(self):
        params = HardyParams(3, 1, 2.0, 0.3, 0.0)
        band = ConeSpec.band(0.4, 1.3)
        result = solve_M(params, band, 160)
        for delta in (0.2, 0.05):
            ev = evaluate_quotient_udelta(params, result.minimizer, delta, cone=band)
            assert ev.quotient >= result.M - 1e-9
            assert ev.quotient == pytest.approx(result.M + delta**2, rel=1e-9)

    def test_udelta_on_cone_equals_evaluate_quotient(self):
        # the half space halves both integrals; the quotient is unchanged
        params = HardyParams(3, 1, 2.0, 0.0, 0.0)
        cone = ConeSpec.half_space()
        result = solve_M(params, cone, 128)
        ev1 = evaluate_quotient_udelta(params, result.minimizer, 0.1, cone=cone)
        ev2 = evaluate_quotient_udelta(params, result.minimizer, 0.1)
        assert ev1.denominator == pytest.approx(ev2.denominator / 2, rel=1e-15)
        assert ev1.quotient == ev2.quotient

    def test_sharpness_pinched_from_both_sides(self):
        # every family member sits above m; the best one is within 5 delta^2 |m|
        params = HardyParams(3, 1, 2.0, 0.0, 0.0)
        cone = ConeSpec.complement_sigma0()
        m_ref = 2.25
        result = solve_M(params, cone, 256)
        deltas = (0.2, 0.1, 0.05)
        quotients = [
            evaluate_quotient_udelta(params, result.minimizer, d, cone=cone).quotient for d in deltas
        ]
        assert min(quotients) >= m_ref - 1e-8
        assert min(quotients) - m_ref <= 5 * min(deltas) ** 2 * abs(m_ref)
