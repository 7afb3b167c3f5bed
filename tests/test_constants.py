import math
import re

import pytest

from bvsharp import (
    SurfaceModel,
    boundary_arc_expansion,
    boundary_arc_inside,
    cap_measure,
    cap_measure_expansion,
    classify_achievability,
    critical_curvature_threshold,
    critical_quotient_expansion,
    euler_beta,
    gamma_half_integer,
    geodesic_ball_area,
    geodesic_circle_expansion,
    geodesic_circle_length,
    gray_expansion,
    half_space_constant,
    sharp_sobolev_constant,
    surface_two_valued_quotient,
    two_valued_quotient_exact,
    unit_ball_volume,
    unit_sphere_area,
)

SQRT_PI = math.sqrt(math.pi)
# The five expansions that take omega_n from unit_ball_volume, at dimension n.
EXPANSIONS = (
    lambda n: cap_measure_expansion(0.7, 0.13, n),
    lambda n: boundary_arc_expansion(0.7, 0.13, n),
    lambda n: critical_quotient_expansion(1.3, 5.0, 0.13, n),
    lambda n: gray_expansion(1.3, 0.13, n),
    lambda n: geodesic_circle_expansion(1.3, 0.13, n),
)


class TestGammaHalfInteger:
    def test_base_cases(self):
        assert gamma_half_integer(0.5) == SQRT_PI
        assert gamma_half_integer(1.0) == 1.0

    def test_recurrence_five_halves(self):
        # Gamma(5/2) = (3/2)(1/2) sqrt(pi)
        assert gamma_half_integer(2.5) == pytest.approx(1.5 * 0.5 * SQRT_PI, rel=1e-15, abs=0)

    def test_integer_values(self):
        assert gamma_half_integer(2.0) == 1.0
        assert gamma_half_integer(5.0) == 24.0

    @pytest.mark.parametrize("bad", [0.0, -1.5, 0.3, 1.24])
    def test_rejects_non_half_integers(self, bad):
        with pytest.raises(ValueError):
            gamma_half_integer(bad)

    def test_beyond_the_float_range_raises_naming_x(self):
        # Gamma(171.5) ~ 9.5e307 is the last half-integer value below the
        # float maximum; Gamma(172) = 171! ~ 1.2e309 is not.
        assert gamma_half_integer(171.5) == 9.483367566824795e307
        for x in (172.0, 172.5, 1e6):
            with pytest.raises(ValueError, match=rf"Gamma\({x}\) lies beyond the float range"):
                gamma_half_integer(x)

    def test_constants_past_the_gamma_range_raise(self):
        # n = 341 is the last dimension whose Gamma(n/2 + 1) is finite; its
        # constants keep their values, and n = 342 raises instead of
        # returning omega_n = c*_n = 0.
        assert unit_ball_volume(341) == 6.124783060200241e-224
        assert sharp_sobolev_constant(341) == 75.53897148141543
        for constant in (unit_ball_volume, sharp_sobolev_constant, half_space_constant):
            with pytest.raises(ValueError, match=r"Gamma\(172.0\)"):
                constant(342)
        with pytest.raises(ValueError, match=r"Gamma\(1501.0\)"):
            unit_ball_volume(3000)  # not an OverflowError from pi^(n/2)
        with pytest.raises(ValueError, match=r"Gamma\(172.0\)"):
            unit_sphere_area(343)
        # Every expansion takes omega_n from unit_ball_volume, which
        # evaluates Gamma first: at n = 1300 pi^650 alone overflows.
        for expansion in EXPANSIONS:
            with pytest.raises(ValueError, match=r"Gamma\(651.0\) lies beyond the float range"):
                expansion(1300)


@pytest.mark.parametrize("n, values", [
    (2, (0.026033824589500425, 0.3965770449666731, 3.5588610490522736,
         0.05304431370562046, 0.81531863947036)),
    (4, (0.0006720537901371622, 0.02042734248028483, 5.884000061607136,
         0.0014085687133870868, 0.0433273428255953)),
])
def test_expansions_keep_their_bits(n, values):
    # Literals taken when each expansion still formed pi^(n/2) / Gamma
    # itself; at n = 2 and 4 Gamma(n/2 + 1) is 1 or 2, so the division
    # by it and by 2 is exact in either order.
    assert tuple(expansion(n) for expansion in EXPANSIONS) == values


class TestEulerBeta:
    def test_known_values(self):
        assert euler_beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-15, abs=0)
        assert euler_beta(1.0, 1.0) == 1.0
        assert euler_beta(0.5, 1.0) == pytest.approx(2.0, rel=1e-15, abs=0)

    def test_symmetry(self):
        args = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        for x in args:
            for y in args:
                assert euler_beta(x, y) == pytest.approx(euler_beta(y, x), rel=1e-14, abs=0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            euler_beta(0.25, 1.0)


class TestUnitBallVolume:
    def test_low_dimensions(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-15, abs=0)
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15, abs=0)
        # pi^(3/2)/Gamma(5/2) = 4 pi / 3
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14, abs=0)

    def test_rejects_dimension_zero(self):
        with pytest.raises(ValueError):
            unit_ball_volume(0)


class TestSharpSobolevConstant:
    def test_dimension_two_is_two_sqrt_pi(self):
        assert sharp_sobolev_constant(2) == pytest.approx(2.0 * SQRT_PI, abs=1e-15)

    def test_dual_formula_agreement(self):
        # pi^(1/2) n / Gamma(n/2+1)^(1/n) must equal n omega_n^(1/n).
        for n in range(2, 11):
            c = sharp_sobolev_constant(n)
            alt = n * unit_ball_volume(n) ** (1.0 / n)
            assert abs(c - alt) <= 1e-12 * c

    def test_dimension_three(self):
        oracle = 3.0 * (4.0 * math.pi / 3.0) ** (1.0 / 3.0)
        assert sharp_sobolev_constant(3) == pytest.approx(oracle, rel=1e-14, abs=0)
        assert sharp_sobolev_constant(3) == pytest.approx(4.835975862049408, abs=1e-12)

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            sharp_sobolev_constant(1)


class TestHalfSpaceConstant:
    def test_dimension_two(self):
        oracle = 2.0 * SQRT_PI / math.sqrt(2.0)
        assert half_space_constant(2) == pytest.approx(oracle, abs=1e-14)
        assert half_space_constant(2) == pytest.approx(2.5066282746310002, abs=1e-12)

    def test_dimension_three(self):
        oracle = sharp_sobolev_constant(3) / 2.0 ** (1.0 / 3.0)
        assert half_space_constant(3) == pytest.approx(oracle, rel=1e-15, abs=0)
        assert half_space_constant(3) == pytest.approx(3.838316585355025, abs=1e-12)

    def test_ratio_is_always_two_to_minus_inverse_n(self):
        for n in range(2, 11):
            ratio = half_space_constant(n) / sharp_sobolev_constant(n)
            assert ratio == pytest.approx(2.0 ** (-1.0 / n), rel=1e-15, abs=0)

    def test_strictly_below_sharp_constant(self):
        for n in range(2, 11):
            assert half_space_constant(n) < sharp_sobolev_constant(n)


class TestSharpConstantsBundle:
    def test_invariants(self):
        for n in range(2, 8):
            c_star, c_half = sharp_sobolev_constant(n), half_space_constant(n)
            assert c_half == pytest.approx(c_star * 2.0 ** (-1.0 / n), rel=1e-14, abs=0)
            assert abs(c_star - n * unit_ball_volume(n) ** (1.0 / n)) <= 1e-12 * c_star

    def test_rejects_low_dimension(self):
        for constant in (sharp_sobolev_constant, half_space_constant):
            with pytest.raises(ValueError):
                constant(1)


@pytest.mark.parametrize("constant", [unit_ball_volume, unit_sphere_area,
                                      sharp_sobolev_constant, half_space_constant])
class TestDimensionCheck:
    @pytest.mark.parametrize("n", [2.5, 3.25, math.nan, math.inf])
    def test_non_integral_dimension_is_named(self, constant, n):
        # 2.5 used to raise "expected a positive half-integer, got 2.25",
        # naming Gamma's argument instead of n.
        with pytest.raises(ValueError, match=rf"dimension must be an integer, got {n}$"):
            constant(n)

    @pytest.mark.parametrize("n", [0, -3])
    def test_low_dimension_is_named(self, constant, n):
        least = 1 if constant in (unit_ball_volume, unit_sphere_area) else 2
        with pytest.raises(ValueError, match=rf"dimension must be >= {least}, got {n}$"):
            constant(n)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_integral_float_keeps_the_bits(self, constant, n):
        assert constant(float(n)) == constant(n)


def test_unit_sphere_area_low_dimensions():
    assert unit_sphere_area(1) == pytest.approx(2.0 * math.pi, rel=1e-15, abs=0)
    assert unit_sphere_area(2) == pytest.approx(4.0 * math.pi, rel=1e-15, abs=0)
    assert unit_sphere_area(3) == pytest.approx(2.0 * math.pi**2, rel=1e-14, abs=0)


class TestInputRules:
    """The theory's three hypotheses each have one implementation in
    `constants`, so every entry point rejects a bad value with the same
    message."""

    SPHERE = SurfaceModel.sphere(1.0)

    @pytest.mark.parametrize("n, message", [
        (1, "dimension must be >= 2, got 1"),
        (2.5, "dimension must be an integer, got 2.5"),
    ])
    @pytest.mark.parametrize("entry", [
        sharp_sobolev_constant,
        lambda n: cap_measure_expansion(0.7, 0.13, n),
        lambda n: critical_curvature_threshold(n, 4.0 * math.pi),
    ], ids=["sharp_sobolev_constant", "cap_measure_expansion", "critical_curvature_threshold"])
    def test_dimension(self, entry, n, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            entry(n)

    @pytest.mark.parametrize("q", [0.0, -0.5, 2.0, math.nan])
    @pytest.mark.parametrize("entry", [
        "two_valued_quotient_exact", "surface_two_valued_quotient", "classify_achievability",
    ])
    def test_exponent(self, disk128, entry, q):
        call = {
            "two_valued_quotient_exact": lambda: two_valued_quotient_exact(
                disk128, (1.0, 0.0), 0.2, q),
            "surface_two_valued_quotient": lambda: surface_two_valued_quotient(
                self.SPHERE, (0.5, 0.0), 0.3, q),
            "classify_achievability": lambda: classify_achievability(self.SPHERE, q),
        }[entry]
        with pytest.raises(ValueError, match=rf"^q must lie in \(0, 2\.0\), got {q}$"):
            call()

    @pytest.mark.parametrize("eps, message", [
        (0.0, "eps must be positive, got 0.0"),
        (-1.0, "eps must be positive, got -1.0"),
        (math.nan, "eps must be finite, got nan"),
        (math.inf, "eps must be finite, got inf"),
    ])
    @pytest.mark.parametrize("entry", [
        "cap_measure", "boundary_arc_inside", "geodesic_ball_area", "geodesic_circle_length",
        "gray_expansion",
    ])
    def test_radius(self, disk128, entry, eps, message):
        call = {
            "cap_measure": lambda: cap_measure(disk128, (1.0, 0.0), eps),
            "boundary_arc_inside": lambda: boundary_arc_inside(disk128, (1.0, 0.0), eps),
            "geodesic_ball_area": lambda: geodesic_ball_area(self.SPHERE, (0.5, 0.0), eps),
            "geodesic_circle_length": lambda: geodesic_circle_length(
                self.SPHERE, (0.5, 0.0), eps),
            "gray_expansion": lambda: gray_expansion(1.3, eps, 2),
        }[entry]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
