"""Parameter handling, admissibility predicates, and the closed-form dispatch."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hardycone.params import (
    AdmissibilityError,
    ConeSpec,
    HardyParams,
    closed_form_constant,
    cone_admissible,
    hardy_exponent,
)

HALF_PI = math.pi / 2


class TestHardyParams:
    def test_valid_construction(self):
        params = HardyParams(3, 1, 2.0, 0.0, 0.0)
        assert (params.d, params.k) == (3, 1)

    @pytest.mark.parametrize(
        "d,k,p",
        [(1, 1, 2.0), (3, 0, 2.0), (3, 3, 2.0), (3, 1, 1.0), (3, 1, 0.5), (3, 1, math.inf)],
    )
    def test_rejects_bad_dimensions(self, d, k, p):
        with pytest.raises(ValueError):
            HardyParams(d, k, p, 0.0, 0.0)

    def test_a_zero_is_allowed(self):
        HardyParams(4, 2, 2.0, 0.0, 1.0)


class TestHardyExponent:
    def test_classical_case(self):
        exp = hardy_exponent(HardyParams(3, 1, 2.0, 0.0, 0.0))
        assert exp.H == 0.5
        assert exp.H_abs_p == 0.25

    def test_vanishing_threshold(self):
        # b = d + a - p makes the exponent zero
        exp = hardy_exponent(HardyParams(5, 2, 3.0, 1.0, 3.0))
        assert exp.H == 0.0
        assert exp.H_abs_p == 0.0

    def test_exact_rational_case(self):
        # (4 + 3/2 - 3 + 1/2) / 3 = 1 via exact rational arithmetic
        oracle = (Fraction(4) + Fraction(3, 2) - Fraction(3) + Fraction(1, 2)) / Fraction(3)
        assert oracle == 1
        exp = hardy_exponent(HardyParams(4, 2, 3.0, 1.5, -0.5))
        assert exp.H == pytest.approx(float(oracle), abs=1e-15)

    def test_defining_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            d = int(rng.integers(2, 8))
            k = int(rng.integers(1, d))
            p = float(rng.uniform(1.1, 4.0))
            a = float(rng.uniform(-3, 3))
            b = float(rng.uniform(-3, 3))
            H = hardy_exponent(HardyParams(d, k, p, a, b)).H
            assert abs(p * H + (p + b) - (d + a)) < 1e-12


class TestIntegrabilityPredicates:
    """Local integrability of |y|^a |z|^(-b-p), as cone_admissible decides it."""

    def test_punctured_depends_only_on_cylindrical_exponent(self):
        punctured = ConeSpec.punctured_space()
        assert not cone_admissible(HardyParams(3, 1, 2.0, -1.0, 0.0), punctured).cone_admissible
        assert cone_admissible(HardyParams(3, 1, 2.0, -0.5, 98.0), punctured).cone_admissible

    def test_whole_space_unweighted(self):
        assert cone_admissible(HardyParams(4, 2, 2.0, 0.0, 0.0), ConeSpec.full_space()).cone_admissible

    def test_whole_space_origin_threshold(self):
        # d + a = 3.5 <= p + b = 3.6: not integrable at the origin
        params = HardyParams(3, 1, 2.0, 0.5, 1.6)
        assert not cone_admissible(params, ConeSpec.full_space()).cone_admissible
        # radial-integral oracle: int_eps^1 r^{d+a-(p+b)-1} dr grows as eps -> 0
        tails = []
        for eps in (1e-2, 1e-4, 1e-6):
            r = np.linspace(eps, 1.0, 20001)
            tails.append(np.trapezoid(r ** (3 + 0.5 - 3.6 - 1.0), r))
        assert tails[0] < tails[1] < tails[2]
        assert tails[2] > 5 * tails[0]

    def test_sphere_weight(self):
        # cones touching {y = 0} need the sphere weight |Pi sigma|^a integrable: k + a > 0
        cone = ConeSpec.complement_sigma0()
        assert cone_admissible(HardyParams(3, 1, 2.0, 0.5, 0.0), cone).cone_admissible
        assert not cone_admissible(HardyParams(5, 2, 2.0, -2.0, 0.0), cone).cone_admissible
        assert cone_admissible(HardyParams(5, 3, 2.0, 0.0, 0.0), cone).cone_admissible


class TestConeSpec:
    def test_band_validation(self):
        ConeSpec.band(0.1, 1.0)
        with pytest.raises(ValueError):
            ConeSpec.band(1.0, 1.0)  # degenerate
        with pytest.raises(ValueError):
            ConeSpec.band(-0.1, 1.0)
        with pytest.raises(ValueError):
            ConeSpec.band(0.5, HALF_PI + 0.1)

    def test_cross_section_contact(self):
        assert not ConeSpec.band(0.1, 1.0).cross_section_touches_sigma0
        assert ConeSpec.band(0.1, HALF_PI).cross_section_touches_sigma0
        assert ConeSpec.full_space().cross_section_touches_sigma0

    def test_describe_round_trip_text(self):
        assert ConeSpec.band(0.25, 1.0).describe() == "band:0.25:1.0"
        assert ConeSpec.half_space().describe() == "half-space"

    def test_describe_parses_back_exactly(self):
        from hardycone.cli import parse_cone

        for cone in (
            ConeSpec.band(0.25, 1.0),
            ConeSpec.band(0.0, HALF_PI),  # pi/2 must survive the text form
            ConeSpec.punctured_space(),
        ):
            assert parse_cone(cone.describe()) == cone


class TestConeAdmissible:
    def test_band_away_from_sigma0_any_a(self):
        params = HardyParams(3, 1, 2.0, -4.0, 0.0)  # k + a < 0
        report = cone_admissible(params, ConeSpec.band(0.1, 1.0))
        assert report.cone_admissible
        report = cone_admissible(params, ConeSpec.band(0.1, HALF_PI))
        assert not report.cone_admissible

    def test_classical_full_space(self):
        report = cone_admissible(HardyParams(3, 1, 2.0, 0.0, 0.0), ConeSpec.full_space())
        assert report.cone_admissible

    def test_full_space_needs_positive_exponent(self):
        # d + a = 3 <= p + b = 3.5
        params = HardyParams(3, 1, 2.0, 0.0, 1.5)
        assert not cone_admissible(params, ConeSpec.full_space()).cone_admissible
        assert cone_admissible(params, ConeSpec.punctured_space()).cone_admissible

    def test_superdegenerate_flag(self):
        report = cone_admissible(HardyParams(3, 1, 2.0, 1.5, 0.0), ConeSpec.complement_sigma0())
        assert report.superdegenerate
        assert not cone_admissible(
            HardyParams(3, 1, 2.0, 0.5, 0.0), ConeSpec.complement_sigma0()
        ).superdegenerate

    def test_half_space_requires_k1(self):
        with pytest.raises(ValueError):
            cone_admissible(HardyParams(4, 2, 2.0, 0.0, 0.0), ConeSpec.half_space())

    def test_flags_reproducible(self):
        params = HardyParams(4, 2, 2.0, 0.3, -0.2)
        r1 = cone_admissible(params, ConeSpec.punctured_space())
        r2 = cone_admissible(params, ConeSpec.punctured_space())
        assert r1 == r2


class TestClosedFormConstant:
    def test_complement_sigma0_p2(self):
        cf = closed_form_constant(HardyParams(3, 1, 2.0, 0.0, 0.0), ConeSpec.complement_sigma0())
        assert cf.value == pytest.approx((3 - 1) * (2 - 1) + 0.25, abs=1e-15)

    def test_punctured_equals_abs_H_p(self):
        params = HardyParams(3, 1, 2.0, 0.0, 0.0)
        cf = closed_form_constant(params, ConeSpec.punctured_space())
        assert cf.value == pytest.approx(0.25, abs=1e-16)

    def test_full_equals_punctured_when_positive(self):
        rng = np.random.default_rng(11)
        hits = 0
        while hits < 15:
            d = int(rng.integers(2, 7))
            k = int(rng.integers(1, d))
            p = float(rng.choice([1.5, 2.0, 3.0]))
            a = float(rng.uniform(-k + 0.05, 2.5))
            b = float(rng.uniform(-2, 2))
            params = HardyParams(d, k, p, a, b)
            if d + a <= p + b:
                continue
            hits += 1
            full = closed_form_constant(params, ConeSpec.full_space())
            punct = closed_form_constant(params, ConeSpec.punctured_space())
            assert full.value == pytest.approx(punct.value, rel=1e-15)

    def test_fractional_extension_rows(self):
        # extension-weight family d = n+1, a = 1-2s, b = 0
        for n in (2, 3):
            for s in (0.25, 0.5, 0.75):
                params = HardyParams(n + 1, 1, 2.0, 1.0 - 2.0 * s, 0.0)
                full = closed_form_constant(params, ConeSpec.full_space())
                assert full.value == pytest.approx(((n - 2 * s) / 2) ** 2, rel=1e-14)
                half = closed_form_constant(params, ConeSpec.half_space())
                assert half.value == pytest.approx(((n + 2 * s) / 2) ** 2, rel=1e-14)

    def test_half_space_consistency_at_a_ge_1(self):
        # p = 2, a >= 1: the degenerate formula and the explicit one coincide at H^2
        for a in (1.0, 1.5, 2.0):
            params = HardyParams(4, 1, 2.0, a, 0.0)
            cf = closed_form_constant(params, ConeSpec.half_space())
            H = hardy_exponent(params).H
            assert cf.value == pytest.approx(H * H, rel=1e-15)

    def test_half_space_open_case_returns_none(self):
        assert closed_form_constant(HardyParams(3, 1, 3.0, 0.5, 0.0), ConeSpec.half_space()) is None

    def test_sigma0_complement_p3_open(self):
        assert closed_form_constant(HardyParams(3, 1, 3.0, 0.5, 0.0), ConeSpec.complement_sigma0()) is None

    def test_superdegenerate_collapse(self):
        for (d, k, p, a) in [(3, 1, 2.0, 1.5), (4, 2, 3.0, 1.2), (5, 2, 1.5, 0.0)]:
            params = HardyParams(d, k, p, a, 0.3)
            sig = closed_form_constant(params, ConeSpec.complement_sigma0())
            punct = closed_form_constant(params, ConeSpec.punctured_space())
            assert sig.value == punct.value

    def test_b_flip_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            k = int(rng.integers(1, d))
            p = float(rng.choice([1.5, 2.0, 3.0]))
            a = float(rng.uniform(-k + 0.05, 2.5))
            b = float(rng.uniform(-2, 2))
            params = HardyParams(d, k, p, a, b)
            flipped = HardyParams(d, k, p, a, 2 * (d + a - p) - b)
            for cone in (ConeSpec.punctured_space(), ConeSpec.complement_sigma0()):
                cf = closed_form_constant(params, cone)
                cf_flip = closed_form_constant(flipped, cone)
                if cf is None:
                    assert cf_flip is None
                else:
                    assert cf.value == pytest.approx(cf_flip.value, abs=1e-14)

    def test_mixed_threshold_family(self):
        # a = p - k, b = 0 on the full space: ((d-k)/p)^p
        for (d, k, p) in [(3, 1, 2.0), (4, 2, 3.0), (5, 2, 1.5)]:
            params = HardyParams(d, k, p, p - k, 0.0)
            cf = closed_form_constant(params, ConeSpec.full_space())
            assert cf.value == pytest.approx(((d - k) / p) ** p, rel=1e-14)

    @pytest.mark.parametrize("params,value,source", [
        (HardyParams(3, 1, 2.0, 0.0, 0.0), 2.25, "p2-dirichlet"),
        (HardyParams(3, 1, 2.0, 1.0, 0.0), 1.0, "constant-profile"),  # k + a >= p
    ], ids=["p2", "superdegenerate"])
    def test_band_with_sigma0_removed_matches_complement(self, params, value, source):
        band = ConeSpec.band(0.0, HALF_PI)
        cf = closed_form_constant(params, band)
        assert cf.value == pytest.approx(value)
        assert cf.source == source

    @pytest.mark.parametrize("p", [1.1, 1.2, 1.3, 1.5, 1.7, 1.9, 2.0, 2.1, 2.2, 2.3, 2.5, 2.7, 3.0, 3.1,
                                   3.3, 3.7, 4.0, 4.1, 6.0, 6.3])
    def test_half_space_complement_and_band_agree_bit_for_bit(self, p):
        # at k = 1 the three cones share the cross-section [0, pi/2]; a = p - 1 is the
        # threshold k + a = p, both as computed and as the decimal a user types
        cones = (ConeSpec.half_space(), ConeSpec.complement_sigma0(), ConeSpec.band(0.0, HALF_PI))
        for d in (3, 4, 5):
            for a in (p - 1, round(p - 1, 9), 0.9, 0.0, 0.5, -0.5, 0.3):
                for b in (0.0, 0.5):
                    forms = [closed_form_constant(HardyParams(d, 1, p, a, b), cone) for cone in cones]
                    assert forms[0] == forms[1] == forms[2], (d, p, a, b)
                    if a >= p - 1 or p == 2:
                        assert forms[0] is not None, (d, p, a, b)

    def test_interior_band_has_no_closed_form(self):
        assert closed_form_constant(HardyParams(3, 1, 2.0, 0.0, 0.0), ConeSpec.band(0.2, 1.0)) is None

    def test_inadmissible_raises(self):
        with pytest.raises(AdmissibilityError):
            closed_form_constant(HardyParams(3, 2, 2.0, -3.0, 0.0), ConeSpec.full_space())
