"""Certification machinery: u_delta quotients, cutoff energies, 1-D oracle."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, CubicSpline

import hardycone.verifier as verifier
from hardycone.cli import RunConfig, cmd_verify, parse_cone
from hardycone.hp import _HpDiscretization
from hardycone.params import (
    ConeSpec,
    HardyParams,
    _delta_limit,
    _nonanalytic_term,
    closed_form_constant,
    hardy_exponent,
)
from hardycone.quadrature import sphere_weight_mass
from hardycone.spherical import (
    DIRICHLET,
    DiscretizedFunction,
    _Discretization,
    _ExactProfile,
    _SphericalProblem,
    bc_for_cone,
    graded_mesh,
    solve_M,
)
from hardycone.verifier import (
    _cutoff_log_decay,
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
        # the certifier sums over the solver's discretization (the exact
        # profile's one-node rule on [0, pi/2], hp on a band), so the identity
        # holds to rounding against the solver's own quotient
        result = solve_M(params, cone, 256)
        domain = bc_for_cone(params, cone)
        problem = _SphericalProblem.of(params, domain)
        assert np.array_equal(_Discretization.graded(problem, 256).mesh, result.minimizer.mesh)
        Phi = result.minimizer
        assert Phi.disc.problem == problem
        dirichlet_pole = domain.bc2 is DIRICHLET and domain.theta2 == math.pi / 2
        assert problem.s == (2.0 - (params.k + params.a) if dirichlet_pole else 0.0)
        q = Phi.disc.value(Phi.coefficients)
        for delta in (0.2, 0.1, 0.05):
            ev = evaluate_quotient_udelta(params, result.minimizer, delta, cone=cone)
            assert ev.quotient - q == pytest.approx(delta**2, rel=1e-11)

    @pytest.mark.parametrize("cone", [ConeSpec.complement_sigma0(), ConeSpec.half_space(),
                                      ConeSpec.punctured_space()], ids=lambda cone: cone.describe())
    def test_factored_minimizer_integrated_exactly(self, monkeypatch, cone):
        # the exact profile is integrated in its own one-node rule, with no P1
        # rule on its sampling mesh: the quotient is the exact M + delta^2
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
        (HardyParams(4, 1, 2.0, 0.3, 0.5), ConeSpec.half_space(), _ExactProfile),
        (HardyParams(3, 1, 3.0, 0.0, 0.0), ConeSpec.complement_sigma0(), _HpDiscretization),
        (HardyParams(3, 1, 3.0, 0.3, 0.0), ConeSpec.band(0.3, 1.2), _Discretization),
    ], ids=["factored", "hp", "P1"])  # "factored": the exact profile, under the id of the basis it replaced
    def test_slope_is_the_derivative_in_delta_squared(self, params, cone, kind):
        # against a centred difference of the quotient in x = delta^2
        Phi = solve_M(params, cone, 256).minimizer
        assert type(Phi.disc) is kind
        for delta in (0.2, 0.05):
            x, h = delta**2, 1e-3 * delta**2
            q_up, q_down = (evaluate_quotient_udelta(params, Phi, math.sqrt(x + step), cone=cone).quotient
                            for step in (h, -h))
            slope = evaluate_quotient_udelta(params, Phi, delta, cone=cone).slope
            assert slope == pytest.approx((q_up - q_down) / (2 * h), rel=1e-6)

    @pytest.mark.parametrize("params, cone, kind", [
        (HardyParams(3, 1, 2.0, 0.0, 0.0), ConeSpec.complement_sigma0(), _ExactProfile),
        (HardyParams(4, 1, 2.0, 0.3, 0.5), ConeSpec.half_space(), _ExactProfile),
        (HardyParams(3, 1, 2.0, 0.3, 0.0), ConeSpec.band(0.4, 1.3), _HpDiscretization),
    ], ids=["complement-sigma0", "half-space", "band"])
    def test_p2_slope_is_one(self, params, cone, kind):
        # the quotient is M + delta^2 at p = 2, so its slope in delta^2 is 1 to rounding
        Phi = solve_M(params, cone, 256).minimizer
        assert type(Phi.disc) is kind
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


# an exact-profile, an hp and a P1 cell, and the discretizations each one's solve
# builds; the first keeps the id "factored" of the basis the exact profile replaced
SOLVE_BUILDS = [
    ((3, 1, 2.0, 0.0, 0.0), "half-space", {}),  # an exact cell calls no solver: its sums come from params
    ((3, 1, 3.0, 0.0, 0.0), "complement-sigma0", {"hp": 2}),  # two hp levels
    ((3, 1, 3.0, 0.3, 0.0), "band:0.3:1.2", {"P1": 1}),
]


class TestHeldDiscretization:
    """The certifier integrates a solver minimizer in the discretization its solve accepted."""

    @pytest.mark.parametrize("cell, cone, builds", SOLVE_BUILDS, ids=["factored", "hp", "P1"])
    def test_verify_builds_nothing_after_its_solve(self, monkeypatch, cell, cone, builds):
        counts = dict.fromkeys(["factored", "hp", "P1", "rule"], 0)
        for key, cls in (("factored", _ExactProfile), ("hp", _HpDiscretization), ("P1", _Discretization)):
            def counting(self, *args, _key=key, _init=cls.__init__):
                counts[_key] += 1
                _init(self, *args)

            monkeypatch.setattr(cls, "__init__", counting)
        rule = verifier.composite_rule
        monkeypatch.setattr(verifier, "composite_rule",
                            lambda *args: counts.__setitem__("rule", counts["rule"] + 1) or rule(*args))
        d, k, p, a, b = cell
        config = RunConfig("verify", d=(d,), k=(k,), p=(p,), a=(a,), b=(b,), cones=(cone,), mesh_size=256,
                           delta_list=(0.2, 0.1, 0.05, 0.025))
        [row] = cmd_verify(config)
        assert row.status == "ok" and len(row.quotient_trace) == 4
        assert counts == {"factored": 0, "hp": 0, "P1": 0, "rule": 0, **builds}

    @pytest.mark.parametrize("cell, cone", [
        ((3, 1, 1.5, 0.5, 0.0), "complement-sigma0"),  # k+a >= p: a constant profile
        ((4, 1, 2.0, 0.3, 0.5), "half-space"),  # cos^s theta
        ((4, 1, 3.0, -0.5, 0.3), "full"),  # constant, with the non-analytic term in the trace
    ])
    def test_verify_trace_is_the_library_quotient(self, cell, cone):
        # verify solves nothing on an exact cell, and its trace and limit are those of the
        # solver's minimizer, bit for bit
        params, spec = HardyParams(*cell), parse_cone(cone)
        deltas = (0.2, 0.1, 0.05, 0.025)
        config = RunConfig("verify", d=(cell[0],), k=(cell[1],), p=(cell[2],), a=(cell[3],), b=(cell[4],),
                           cones=(cone,), mesh_size=256, delta_list=deltas)
        [row] = cmd_verify(config)
        Phi = solve_M(params, spec, 256).minimizer
        assert type(Phi.disc) is _ExactProfile and row.status == "ok"
        evaluations = [evaluate_quotient_udelta(params, Phi, delta, cone=spec) for delta in deltas]
        assert row.quotient_trace == tuple((delta, ev.quotient) for delta, ev in zip(deltas, evaluations))
        term = _nonanalytic_term(params, bc_for_cone(params, spec))
        if term is not None and not abs(term[0]) < max(deltas):
            term = None  # as verify: a trace that does not reach G = 0 carries no term
        trace = [(delta, ev.quotient, ev.slope) for delta, ev in zip(deltas, evaluations)]
        assert row.extrapolated == _delta_limit(trace, term)[0]

    @pytest.mark.parametrize("cell, cone, fallback", [
        ((3, 1, 3.0, 0.3, 0.0), ConeSpec.band(0.3, 1.2), False),
        ((3, 2, 1.5, 0.3, 0.0), ConeSpec.band(0.3, HALF_PI), False),  # a Dirichlet pi/2
        ((3, 1, 3.0, 0.0, 0.0), ConeSpec.complement_sigma0(), True),  # hp's check forced to fail
    ], ids=["band", "band-to-pi/2", "fallback"])
    def test_p1_minimizer_sums_as_its_samples_do(self, monkeypatch, cell, cone, fallback):
        # the solve's P1 rule has the exponents of AngularWeight.for_params, and
        # udelta_sums reads no Dirichlet mask, so the held discretization gives
        # the numbers of the one rebuilt on the samples, bit for bit
        if fallback:
            monkeypatch.setattr("hardycone.hp.HP_TOL", -1.0)
        params = HardyParams(*cell)
        Phi = solve_M(params, cone, 256).minimizer
        assert type(Phi.disc) is _Discretization
        assert np.array_equal(Phi.mesh, Phi.disc.mesh) and np.array_equal(Phi.values, Phi.coefficients)
        sampled = DiscretizedFunction(Phi.mesh, Phi.values)
        for delta in (0.2, 0.1, 0.05, 0.025):
            held = evaluate_quotient_udelta(params, Phi, delta, cone=cone)
            assert held == evaluate_quotient_udelta(params, sampled, delta, cone=cone)


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
        limit, _ = _delta_limit(self.polynomial_trace(coefficients, self.DELTAS[:count]), None)
        assert limit == pytest.approx(2.5, rel=1e-12)

    def test_same_bits_for_any_order(self):
        trace = [(delta, np.float64(2.1725999599 + 0.43 * delta**2 - 0.71 * delta**4 + 0.2 * delta**7),
                  np.float64(0.43 - 1.42 * delta**2 + 0.7 * delta**5))
                 for delta in self.DELTAS[:4]]
        expected = _delta_limit(trace, None)
        assert expected[1] is not None
        for order in itertools.permutations(trace):
            assert _delta_limit(list(order), None) == expected

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
        assert _delta_limit([(d0, q0, s0), (d1, q1, s1)], None) == (hermite, None)
        assert _delta_limit([(d1, q1, s1), (d0, q0, s0)], None) == (hermite, None)
        spline = CubicHermiteSpline([x1, x0], [q1, q0], [s1, s0])
        assert hermite == pytest.approx(float(spline(0.0)), rel=1e-12, abs=1e-12)
        slope = (q0 - q1) / (x0 - x1)
        assert _delta_limit([(d0, q0, slope), (d1, q1, slope)], None)[0] == pytest.approx(chord, rel=1e-14)

    def test_order_from_the_three_smallest_deltas(self):
        # quadratic below delta = 0.1, anything above it; the slopes do not enter
        trace = [(0.4, 9.0, -7.0), (0.05, 1.0 + 0.05**2, 3.0), (0.1, 1.0 + 0.1**2, math.nan),
                 (0.025, 1.0 + 0.025**2, 1e6)]
        assert _delta_limit(trace, None)[1] == pytest.approx(2.0, rel=1e-9)

    def test_fewer_than_two_points(self):
        assert _delta_limit([], None) == (None, None)
        assert _delta_limit([(0.1, 2.0, 1.0)], None) == (None, None)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowing_deltas_give_nan_not_an_exception(self):
        one, two = np.float64(1.0), np.float64(2.0)
        limit, order = _delta_limit([(1e-200, two, one), (1e-300, two, one), (1e-310, two, one)], None)
        assert math.isnan(limit) and order is None
        # Python floats, as an exact profile's sums give: the same nan, not a ZeroDivisionError
        limit, order = _delta_limit([(1e-200, 2.0, 1.0), (1e-300, 2.0, 1.0), (1e-310, 2.0, 1.0)], None)
        assert math.isnan(limit) and order is None


def hermite_table_limit(trace):
    """The Hermite Neville-Aitken table at delta = 0 over (delta, quotient, slope), written out on its own."""
    points = sorted(trace, key=lambda point: -point[0])
    x = [delta**2 for delta, _, _ in points for _ in range(2)]
    column = []
    for i, (_, quotient, slope) in enumerate(points):
        if i:
            column.append((x[2 * i - 1] * quotient - x[2 * i] * points[i - 1][1]) / (x[2 * i - 1] - x[2 * i]))
        column.append(quotient - x[2 * i] * slope)
    for width in range(2, len(x)):
        column = [(x[i] * column[i + 1] - x[i + width] * column[i]) / (x[i] - x[i + width])
                  for i in range(len(column) - 1)]
    return column[0]


def udelta_trace(params, result, deltas):
    return [(delta, ev.quotient, ev.slope)
            for delta in deltas for ev in [evaluate_quotient_udelta(params, result.minimizer, delta)]]


class TestNonanalyticTerm:
    """The term e b(delta), b = (|H-delta|^q + |H+delta|^q) / 2, that _delta_limit models."""

    DELTAS = (0.2, 0.1, 0.05, 0.025)

    @pytest.mark.parametrize("e", [1.0, -40.0])
    def test_exact_on_a_polynomial_plus_delta_to_the_seventh(self, e):
        # A of degree 6 = 2n - 2 in delta^2 plus e delta^7: eight unknowns, four values and slopes
        coefficients = (2.5, -3.0, 7.0, -11.0, 13.0, -5.0, 3.0)
        trace = [(delta,
                  np.float64(sum(c * delta ** (2 * j) for j, c in enumerate(coefficients)) + e * delta**7),
                  np.float64(sum(j * c * delta ** (2 * j - 2) for j, c in enumerate(coefficients) if j)
                             + 3.5 * e * delta**5))
                 for delta in self.DELTAS]
        assert abs(_delta_limit(trace, (0.0, 7.0))[0] - 2.5) <= 1e-14 * 2.5
        assert abs(_delta_limit(trace, None)[0] - 2.5) > 1e-12  # the table alone leaves the delta^7 term

    @pytest.mark.parametrize("H", [0.067, -0.15, 0.0])
    def test_exact_on_a_constant_profile_trace(self, H):
        # both ends natural: the quotient is C (|H-delta|^3 + |H+delta|^3) / 2 exactly, limit C |H|^3
        C = 1.7
        trace = [(delta, np.float64(C * (abs(H - delta) ** 3 + abs(H + delta) ** 3) / 2),
                  np.float64(0.75 * C / delta * ((H + delta) * abs(H + delta)
                                                 - (H - delta) * abs(H - delta))))
                 for delta in self.DELTAS]
        assert abs(_delta_limit(trace, (H, 3.0))[0] - C * abs(H) ** 3) <= 1e-14

    @pytest.mark.parametrize("cell, mesh", [((3, 1, 3.0, 0.0, 0.0), 2048), ((3, 1, 3.0, 0.3, 0.3), 256)])
    def test_h_zero_cells_meet_their_minimum(self, cell, mesh):
        # a natural pole and a Dirichlet pi/2 at H = 0: q = p + (p-1)(d-k) = 7; the table
        # alone is 8.7e-13 off at (3,1,3,0,0), 1.9e-12 at (3,1,3,0.3,0.3)
        params, cone = HardyParams(*cell), ConeSpec.complement_sigma0()
        term = _nonanalytic_term(params, bc_for_cone(params, cone))
        assert term == (0.0, 7.0)
        result = solve_M(params, cone, mesh)
        limit, _ = _delta_limit(udelta_trace(params, result, self.DELTAS), term)
        assert limit == pytest.approx(result.M, rel=1e-13)

    def test_h_zero_is_decided_exactly(self):
        # d + a - p - b = 0 exactly, though the computed H is -5.6e-17
        params = HardyParams(3, 1, 3.0, 0.3, 0.3)
        assert hardy_exponent(params).H != 0.0
        assert _nonanalytic_term(params, bc_for_cone(params, ConeSpec.half_space())) == (0.0, 7.0)

    @pytest.mark.parametrize("cell, cone, term", [
        ((3, 2, 3.0, 0.5, 0.5), ConeSpec.complement_sigma0(), (0.0, 5.0)),
        ((4, 1, 3.0, -0.5, 0.3), ConeSpec.full_space(), ((4 - 0.5 - 3.0 - 0.3) / 3.0, 3.0)),
        ((3, 1, 1.5, 2.0, 0.0), ConeSpec.complement_sigma0(), ((3 + 2.0 - 1.5) / 1.5, 1.5)),  # k+a >= p: natural
        ((3, 1, 2.0, 0.5, 0.0), ConeSpec.full_space(), None),  # p = 2
        ((3, 1, 3.0, 0.5, 0.0), ConeSpec.complement_sigma0(), None),  # H != 0 at a Dirichlet pi/2
        ((3, 1, 4.0, 1.0, 0.0), ConeSpec.complement_sigma0(), None),  # q = 10: delta^10 log delta
        ((3, 2, 1.5, -1.0, 0.5), ConeSpec.complement_sigma0(), None),  # H = 0, q = 2: delta^2 log delta
        ((3, 1, 3.0, 0.0, 0.0), ConeSpec.band(0.3, HALF_PI), None),  # theta1 > 0
    ])
    def test_which_cells_carry_the_term(self, cell, cone, term):
        params = HardyParams(*cell)
        assert _nonanalytic_term(params, bc_for_cone(params, cone)) == term

    @pytest.mark.parametrize("cell, cone", [
        ((3, 1, 3.0, 0.5, 0.0), "complement-sigma0"),  # H = 1/6 at a Dirichlet pi/2
        ((4, 1, 3.0, 1.0, 0.0), "full"),  # both ends natural, H = 2/3 above every delta
        ((3, 1, 4.0, 1.0, 0.0), "complement-sigma0"),  # H = 0, q = 10 even
        ((3, 1, 3.0, 0.0, 0.0), "band:0.3:1.2"),
        ((3, 1, 2.0, 0.0, 0.0), "complement-sigma0"),  # p = 2
    ])
    def test_table_limit_unchanged_off_the_term(self, cell, cone):
        # where no term is modelled, verify's limit is the Hermite table's, bit for bit
        config = RunConfig(command="verify", d=(cell[0],), k=(cell[1],), p=(cell[2],), a=(cell[3],),
                           b=(cell[4],), cones=(cone,), mesh_size=256, delta_list=self.DELTAS)
        row = cmd_verify(config)[0]
        params = HardyParams(*cell)
        result = solve_M(params, parse_cone(cone), 256)
        assert row.status == "ok"
        assert row.extrapolated == hermite_table_limit(udelta_trace(params, result, self.DELTAS))


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
        # the panel-by-panel log sum forms every node's term by the same
        # operations as the whole-grid formula and reduces the same full
        # array, so the logarithms are equal, not close; the energy is the
        # exponential of that logarithm, bit for bit
        support = (0.05, 20.0)
        for h in (4, 32, 200, 2000):
            log_energy = _cutoff_log_decay(params, support, h)
            assert log_energy == _dense_strip_energy(params, support, h, log=True)
            assert cutoff_decay(params, support, h) == math.exp(log_energy)

    @pytest.mark.parametrize("params", CUTOFF_CELLS, ids=lambda c: f"{c.d},{c.k},{c.p:g},{c.a:g},{c.b:g}")
    def test_energy_matches_the_dense_direct_sum(self, params):
        # exp of the log-sum-exp against the direct sum of the whole integrand:
        # the exponential turns the logarithm's rounding, a few ulp of |log I_h|,
        # into relative error; at most 2.3e-14 over these cells at h = 4..400,
        # on (3,1,2,2.5,0) at h = 100, where log I_h is about -150
        support = (0.05, 20.0)
        for h in (4, 32, 100, 200):
            dense = _dense_strip_energy(params, support, h)
            assert cutoff_decay(params, support, h) == pytest.approx(dense, rel=3e-14, abs=0.0)

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

    @pytest.mark.parametrize("d", [446, 452, 500])
    def test_h_row_exact_where_the_prefactor_is_subnormal_or_0(self, d):
        # |S^0| |S^(d-2)| is subnormal from d - k of about 437 (4e-322, a few
        # significant bits, at d = 452) and 0 past about 455; the energies stay
        # normal through the radial factor e^(nu(d-b-k)), and take the
        # prefactor from its logarithm
        params = HardyParams(d, 1, 2.0, 1.0, 0.0)
        config = RunConfig(command="verify", d=(d,), k=(1,), p=(2.0,), a=(1.0,), b=(0.0,),
                           mesh_size=64, delta_list=(), h_list=(4, 8))
        hrow = cmd_verify(config)[1]
        assert hrow.status == "ok"
        for h, energy in hrow.quotient_trace:
            oracle = math.exp(_dense_strip_energy(params, (0.05, 20.0), int(h), log=True))
            assert 1e-300 < energy == pytest.approx(oracle, rel=1e-13)

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
    # log |S^(k-1)| + log |S^(d-k-1)|, formed in logs: pref itself is subnormal or 0 past d - k of about 437
    log_pref = sum(math.log(2.0) + (n + 1) / 2 * math.log(math.pi) - math.lgamma((n + 1) / 2) for n in (k - 1, d - k - 1))
    return log_pref + float(top) + math.log(np.exp(terms - top).sum())


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
