import math

import pytest

from bvsharp import (
    boundary_arc_expansion,
    cap_measure_expansion,
    critical_quotient_expansion,
    euler_beta,
    gamma_half_integer,
    geodesic_circle_expansion,
    gray_expansion,
    half_space_constant,
    sharp_sobolev_constant,
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


def test_unit_sphere_area_low_dimensions():
    assert unit_sphere_area(1) == pytest.approx(2.0 * math.pi, rel=1e-15, abs=0)
    assert unit_sphere_area(2) == pytest.approx(4.0 * math.pi, rel=1e-15, abs=0)
    assert unit_sphere_area(3) == pytest.approx(2.0 * math.pi**2, rel=1e-14, abs=0)
