import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bvsharp import (
    achievability_certificate,
    beta_eps,
    boundary_arc_expansion,
    cap_measure,
    cap_measure_expansion,
    constraint_residual,
    critical_quotient_expansion,
    domain_quotient_expansion,
    fit_linear_coefficient,
    fit_remainder_order,
    geodesic_circle_expansion,
    gray_expansion,
    half_space_constant,
    minimize_quotient,
    optimal_epsilon,
    profiles,
    sharp_sobolev_constant,
    shift_to_constraint,
    sign_power,
    surface_quotient_expansion,
    two_valued_quotient_exact,
    unit_ball_volume,
)
from bvsharp.geometry import DomainSpec, build_domain
from oracles import disk_arc_inside, lens_area, two_valued_quotient

C_HALF = half_space_constant(2)
C_STAR = sharp_sobolev_constant(2)


class TestSignPower:
    def test_identity_for_exponent_one(self):
        assert sign_power(-2.0, 1.0) == -2.0

    def test_continuous_extension_at_zero(self):
        assert sign_power(0.0, 0.5) == 0.0

    def test_square_root_branch(self):
        assert sign_power(4.0, 0.5) == pytest.approx(2.0, rel=1e-15, abs=0)
        assert sign_power(-4.0, 0.5) == pytest.approx(-2.0, rel=1e-15, abs=0)

    def test_vectorized(self):
        out = sign_power(np.array([-1.0, 0.0, 9.0]), 0.5)
        assert out == pytest.approx([-1.0, 0.0, 3.0])

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            sign_power(1.0, 0.0)


class TestBetaEps:
    def test_equal_halves_give_one(self):
        for q in (0.25, 1.0, 1.7):
            assert beta_eps(2.0, 1.0, q) == pytest.approx(1.0, rel=1e-15, abs=0)

    def test_disk_cap_value(self):
        cap = lens_area(1.0, 0.2, 1.0)
        oracle = 1.0 / (math.pi / cap - 1.0)
        assert oracle == pytest.approx(0.01952421711531892, abs=1e-15)
        assert beta_eps(math.pi, cap, 1.0) == pytest.approx(oracle, rel=1e-14, abs=0)

    @pytest.mark.parametrize("cap", [0.0, -1.0, math.pi, 4.0])
    def test_rejects_degenerate_caps(self, cap):
        with pytest.raises(ValueError):
            beta_eps(math.pi, cap, 1.0)

    @pytest.mark.parametrize("q", [1.0, 1.5])
    def test_boundary_cap_asymptotics(self, q):
        # beta / eps^(n/q) approaches (omega_n / (2 |Omega|))^(1/q), which
        # on the unit disk is (1/2)^(1/q).
        limit = 0.5 ** (1.0 / q)
        ratios = []
        for eps in (0.08, 0.02):
            cap = lens_area(1.0, eps, 1.0)
            ratios.append(beta_eps(math.pi, cap, q) / eps ** (2.0 / q))
        assert ratios[-1] == pytest.approx(limit, rel=0.02)
        assert abs(ratios[-1] - limit) < abs(ratios[0] - limit)

    def test_overflow_names_beta_q_and_the_cap_fraction(self):
        with pytest.raises(OverflowError, match=r"beta .* q = 0\.01, cap/total = 0\.9994$"):
            beta_eps(1.0, 0.9994, 0.01)

    def test_plateau_makes_the_two_valued_profile_feasible(self, disk256):
        cap = cap_measure(disk256, (1.0, 0.0), 0.2)
        for q in (0.5, 1.0, 1.5):
            beta = beta_eps(math.pi, cap, q)
            assert beta > 0
            pairs = [(1.0, cap), (-beta, math.pi - cap)]
            assert abs(constraint_residual(pairs, q)) <= 1e-10


class TestConstraintResidual:
    def test_antisymmetric_levels_cancel(self):
        for q in (0.5, 1.0, 1.5):
            assert constraint_residual([(1.0, 3.7), (-1.0, 3.7)], q) == 0.0

    def test_profile_built_with_beta_eps_is_feasible(self):
        cap = lens_area(1.0, 0.2, 1.0)
        for q in (0.5, 1.0, 1.5):
            beta = beta_eps(math.pi, cap, q)
            residual = constraint_residual([(1.0, cap), (-beta, math.pi - cap)], q)
            assert abs(residual) <= 1e-10

    def test_hand_algebra_case(self):
        # 1*sqrt(1) - 2*sqrt(1/4) = 0
        assert constraint_residual([(1.0, 1.0), (-0.25, 2.0)], 0.5) == pytest.approx(
            0.0, abs=1e-15
        )


class TestShiftToConstraint:
    def test_symmetric_levels_shift_to_zero(self):
        for q in (0.5, 1.0, 1.5):
            lam = shift_to_constraint([(1.0, 2.0), (-1.0, 2.0)], q)
            assert lam == pytest.approx(0.0, abs=1e-12)

    def test_exponent_one_gives_weighted_mean(self):
        lam = shift_to_constraint([(1.0, 3.0), (0.0, 5.0)], 1.0)
        assert lam == pytest.approx(3.0 / 8.0, abs=1e-12)

    def test_square_root_case(self):
        # (1 - lam)^(1/2) = 2 lam^(1/2)  =>  lam = 1/5
        lam = shift_to_constraint([(1.0, 1.0), (0.0, 2.0)], 0.5)
        assert lam == pytest.approx(0.2, abs=1e-11)

    def test_degenerate_input_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            shift_to_constraint([(1.0, 1.0), (1.0, 2.0)], 1.0)


SHIFT_EXPONENTS = (0.25, 0.5, 1.0, 1.5)


def _residual(levels, measures, lam, q):
    d = np.asarray(levels) - lam
    return float(np.sum(np.asarray(measures) * np.copysign(np.abs(d) ** q, d)))


def _bisection_root(levels, measures, q):
    # Reference root: halve [min, max] until no double lies strictly
    # inside, independent of the residual stop of shift_to_constraint.
    lo, hi = float(np.min(levels)), float(np.max(levels))
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if _residual(levels, measures, mid, q) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


_levels = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def level_sets(draw):
    """(levels, measures): random sets, or two levels at a 1:1e4 measure imbalance.

    Some random sets share one scalar measure, as grid cells do.  Half
    of all sets are offset by +100, far from the bracket around 0.
    """
    if draw(st.booleans()):
        size = draw(st.integers(2, 12))
        levels = draw(st.lists(_levels, min_size=size, max_size=size))
        measures = draw(st.one_of(
            st.lists(st.floats(1e-3, 1.0), min_size=size, max_size=size),
            st.floats(1e-3, 1e4),
        ))
    else:
        low = draw(_levels)
        levels = [low + draw(st.floats(1e-3, 2.0)), low]
        measures = draw(st.sampled_from([[1.0, 1e4], [1e4, 1.0]]))
    offset = draw(st.sampled_from([0.0, 100.0]))
    levels = np.array(levels) + offset
    if np.ptp(levels) < 1e-3:
        levels[0] = levels[1] + 1e-3
    return levels, np.array(measures)


def _total(levels, measures):
    return float(np.sum(np.broadcast_to(measures, np.shape(levels))))


class TestSharedShift:
    """Contract of the one feasible-shift routine, on random level sets."""

    @pytest.mark.parametrize("q", SHIFT_EXPONENTS)
    @given(data=level_sets())
    def test_residual_within_tolerance_or_unreachable(self, q, data):
        levels, measures = data
        lam = shift_to_constraint((levels, measures), q)
        tol = 1e-12 * _total(levels, measures)
        if abs(_residual(levels, measures, lam, q)) <= tol:
            return
        # No double meets the tolerance: the residual jumps over it
        # between lambda and one of its neighbouring doubles.
        below, above = np.nextafter(lam, -np.inf), np.nextafter(lam, np.inf)
        pair = (below, lam) if _residual(levels, measures, lam, q) < 0.0 else (lam, above)
        r_left, r_right = (_residual(levels, measures, x, q) for x in pair)
        assert r_left > tol and r_right < -tol

    @pytest.mark.parametrize("q", SHIFT_EXPONENTS)
    @given(data=level_sets())
    def test_agrees_with_reference_bisection(self, q, data):
        levels, measures = data
        lam = shift_to_constraint((levels, measures), q)
        ref = _bisection_root(levels, measures, q)
        # The residual stop leaves lambda within tol / |slope| of the
        # root; the slope q * sum m |level - ref|^(q-1) is small only
        # for q > 1 on clustered levels.
        with np.errstate(divide="ignore"):  # a level at the root: infinite slope for q < 1
            slope = q * float(np.sum(measures * np.abs(levels - ref) ** (q - 1.0)))
        allowed = 1e-12 + 2.0 * 1e-12 * _total(levels, measures) / slope
        assert abs(lam - ref) <= allowed

    @given(
        levels=st.lists(st.integers(-2048, 2048), min_size=2, max_size=12),
        weights=st.lists(st.integers(1, 1000), min_size=12, max_size=12),
    )
    def test_exponent_one_is_the_weighted_mean(self, levels, weights):
        # Dyadic levels and integer measures keep every product and sum
        # exact, so the weighted mean is one correctly rounded division.
        if len(set(levels)) < 2:
            levels = levels + [levels[0] + 1]
        weights = weights[: len(levels)]
        weighted = Fraction(sum(l * w for l, w in zip(levels, weights)), 1024 * sum(weights))
        equal = Fraction(sum(levels), 1024 * len(levels))
        grid = np.array(levels, dtype=float) / 1024.0
        for measures, exact in ((np.array(weights, dtype=float), weighted), (0.25, equal)):
            lam = shift_to_constraint((grid, measures), 1.0)
            assert abs(Fraction(lam) - exact) <= 4 * Fraction(math.ulp(float(exact)))

    @pytest.mark.parametrize(
        "values, cause",
        [
            ([(math.nan, 1.0), (1.0, 1.0)], "non-finite level"),
            ([(math.inf, 1.0), (1.0, 1.0)], "non-finite level"),
            ([(0.0, math.nan), (1.0, 1.0)], "non-finite measure"),
            ([(0.0, math.inf), (1.0, 1.0)], "non-finite measure"),
            ((np.array([0.0, 1.0]), math.nan), "non-finite measure"),
            ([(0.0, 0.0), (1.0, 0.0)], "zero total measure"),
            ((np.array([0.0, 1.0]), 0.0), "zero total measure"),
        ],
    )
    def test_unusable_input_raises_naming_the_cause(self, values, cause):
        for q in (0.5, 1.0):
            with pytest.raises(ValueError, match=cause):
                shift_to_constraint(values, q)

    @pytest.mark.parametrize("q", [0.5, 1.0])
    def test_solver_snapshot_is_feasible(self, disk128, q):
        assert minimize_quotient(disk128, q, budget=12).residual <= 1e-13


class TestTwoValuedQuotientExact:
    def test_disk_at_eps_02_matches_closed_form_oracle(self, disk256):
        cap = lens_area(1.0, 0.2, 1.0)
        arc = disk_arc_inside(0.2)
        oracle = two_valued_quotient(cap, arc, math.pi, 1.0)
        assert oracle == pytest.approx(2.4215803553186914, abs=1e-12)
        qv = two_valued_quotient_exact(disk256, (1.0, 0.0), 0.2, 1.0)
        assert qv.value == pytest.approx(oracle, rel=1e-6)
        assert qv.threshold == pytest.approx(C_HALF, rel=1e-15, abs=0)
        assert qv.gap_to_threshold < 0  # strict-inequality certificate

    def test_small_radius_limit_is_half_space_constant(self, disk256):
        qv = two_valued_quotient_exact(disk256, (1.0, 0.0), 0.01, 1.0)
        assert qv.value == pytest.approx(C_HALF, rel=0.01)

    def test_scale_invariance_of_two_level_quotient(self):
        # The quotient of s*u, computed from its level representation,
        # agrees with the quotient of u to near machine precision.
        rng = np.random.default_rng(7)
        for _ in range(50):
            cap = float(rng.uniform(0.05, 1.0))
            total = float(rng.uniform(cap + 0.5, 6.0))
            arc = float(rng.uniform(0.1, 2.0))
            beta = beta_eps(total, cap, 1.0)
            s = float(rng.uniform(0.1, 20.0)) * (1 if rng.random() < 0.5 else -1)

            def quotient(scale):
                hi, lo = scale * 1.0, scale * (-beta)
                num = abs(hi - lo) * arc
                den = math.sqrt(hi * hi * cap + lo * lo * (total - cap))
                return num / den

            assert abs(quotient(s) - quotient(1.0)) <= 1e-12 * quotient(1.0)

    @pytest.mark.parametrize("s", [0.5, 3.0])
    @pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("shape", ["disk", "ellipse", "fourier"])
    def test_invariant_under_dilation(self, shape, q, s):
        # At n = 2 the arc scales like s and the L^2 norm like s, so the
        # quotient of the dilated profile on the dilated domain is unchanged.
        def spec(k):
            return {
                "disk": DomainSpec.disk(k),
                "ellipse": DomainSpec.ellipse(2.0 * k, k),
                "fourier": DomainSpec.fourier(k, (0.0, 0.15 * k), (0.05 * k,)),
            }[shape]

        centre, eps = {"disk": ((1.0, 0.0), 0.3), "ellipse": ((2.0, 0.0), 0.4),
                       "fourier": ((1.0, 0.1), 0.35)}[shape]

        def quotient(k):
            domain = build_domain(spec(k), k / 128)
            return two_valued_quotient_exact(
                domain, (k * centre[0], k * centre[1]), k * eps, q).value

        assert abs(quotient(s) - quotient(1.0)) <= 1e-12 * quotient(1.0)

    def test_rejects_cap_covering_domain(self, disk256):
        with pytest.raises(ValueError):
            two_valued_quotient_exact(disk256, (1.0, 0.0), 3.0, 1.0)

    @pytest.mark.parametrize("q", [0.0, -0.5, 2.0, 3.0, math.nan])
    def test_rejects_q_outside_the_exponent_range(self, disk256, q):
        with pytest.raises(ValueError, match="q must lie"):
            two_valued_quotient_exact(disk256, (1.0, 0.0), 0.2, q)

    def test_rejects_nonpositive_radius(self, disk256):
        with pytest.raises(ValueError, match="eps must be positive"):
            two_valued_quotient_exact(disk256, (1.0, 0.0), 0.0, 1.0)

    @pytest.mark.parametrize("cap", [0.9994, 0.99999])
    def test_overflowing_plateau_gives_the_finite_quotient(self, cap):
        # At q = 0.01, beta = (V/W)^100 lies beyond the float range; the
        # quotient itself is finite.
        mpmath = pytest.importorskip("mpmath")
        qv = profiles._two_valued_quotient(1.0, cap, 1.0 - cap, 3.9, 0.01, 2, C_STAR)
        with mpmath.workdps(50):
            V = mpmath.mpf(cap)
            beta = (V / (1 - V)) ** 100
            exact = float((1 + beta) * mpmath.mpf(3.9) / mpmath.sqrt(V + beta**2 * (1 - V)))
        assert qv.value == pytest.approx(exact, rel=1e-14, abs=0)
        assert qv.gap_to_threshold == qv.value - C_STAR
        with pytest.raises(OverflowError):
            beta_eps(1.0, cap, 0.01)
        assert qv.beta == math.inf

    @pytest.mark.parametrize("rest, q", [(2.0, 0.037), (50.0, 0.028)])
    def test_overflowing_complement_term_gives_the_finite_quotient(self, rest, q):
        # beta^2 is finite here but beta^2 * rest is not: the denominator read
        # inf and the quotient 0, a false certificate on any threshold.
        mpmath = pytest.importorskip("mpmath")
        total = 1e6
        qv = profiles._two_valued_quotient(total, total - rest, rest, 10.0, q, 2, C_HALF)
        assert qv.beta**2 * rest == math.inf
        with mpmath.workdps(50):
            V, W = mpmath.mpf(total - rest), mpmath.mpf(rest)
            beta = (mpmath.mpf(total) / V - 1) ** (-1 / mpmath.mpf(q))
            exact = float((1 + beta) * 10 / mpmath.sqrt(V + beta**2 * W))
        assert qv.value == pytest.approx(exact, rel=1e-14, abs=0)

    @pytest.mark.parametrize("eps, q", [(0.2, 1.0), (0.5, 0.5), (1.0, 1.5), (1.99, 0.01)])
    def test_beta_is_the_plateau_of_beta_eps(self, disk256, eps, q):
        # At eps = 1.99 and q = 0.01 beta is finite but beta^2 overflows, so the
        # quotient takes the scaled path and must still report the finite beta.
        qv = two_valued_quotient_exact(disk256, (1.0, 0.0), eps, q)
        assert qv.beta == beta_eps(disk256.measure, cap_measure(disk256, (1.0, 0.0), eps), q)
        if eps == 1.99:
            assert qv.beta == 1.5884058399835718e+307

    @pytest.mark.parametrize("q", [0.1, 0.5, 1.0, 1.5, 1.9])
    def test_certificate_holds_across_the_exponent_range(self, disk256, q):
        qv = two_valued_quotient_exact(disk256, (1.0, 0.0), 0.3, q)
        assert qv.value < C_HALF


def _quarter_turns(cos_coeffs, sin_coeffs):
    """Coefficients of the domain turned by 0, 1, 2 and 3 quarter turns:
    rho(t - pi/2) maps (c1, c2; s1) to (-s1, -c2; c1), exactly."""
    (c1, c2), (s1,) = cos_coeffs, sin_coeffs
    turns = [((c1, c2), (s1,))]
    for _ in range(3):
        (c1, c2), (s1,) = turns[-1]
        turns.append(((-s1, -c2), (c1,)))
    return turns


class TestCertificateRotationInvariance:
    @pytest.mark.parametrize("q", [0.5, 1.0])
    def test_quarter_turns_give_the_same_gap(self, q):
        # A turned domain has the same optimum; its witness centre turns
        # with it, (x, y) -> (-y, x) per quarter turn.  The shape is
        # symmetric about the y-axis, so two mirror points tie for the
        # largest curvature, and the witness may sit at either of them.
        results = [
            achievability_certificate(build_domain(DomainSpec.fourier(1.0, c, s), 1.0 / 128), q)
            for c, s in _quarter_turns((0.0, 0.15), (0.05,))
        ]
        x, y = results[0].witness["center"]
        for turns, result in enumerate(results[1:], start=1):
            assert result.gap == pytest.approx(results[0].gap, rel=1e-9, abs=0)
            x, y = -y, x
            mirror = (x, -y) if turns % 2 else (-x, y)  # the axis turns too
            cx, cy = result.witness["center"]
            assert min(math.hypot(cx - px, cy - py) for px, py in ((x, y), mirror)) <= 1e-7


class TestDomainQuotientExpansion:
    def test_flat_boundary_gives_half_space_constant(self):
        for eps in (0.05, 0.3):
            assert domain_quotient_expansion(0.0, eps, 2) == C_HALF

    def test_unit_curvature_value(self):
        oracle = C_HALF * (1.0 - 0.4 / (3.0 * math.pi))
        assert oracle == pytest.approx(2.4002436665239513, abs=1e-12)
        assert domain_quotient_expansion(1.0, 0.2, 2) == pytest.approx(oracle, rel=1e-14, abs=0)

    def test_slope_against_exact_quadrature(self, disk256):
        radii = [0.05, 0.1, 0.2]
        values = [
            two_valued_quotient_exact(disk256, (1.0, 0.0), eps, 1.0).value
            for eps in radii
        ]
        fitted = fit_linear_coefficient(radii, values, C_HALF)
        target = -C_HALF * 2.0 / (3.0 * math.pi)
        assert target == pytest.approx(-0.5319230405352435, abs=1e-12)
        assert abs(fitted - target) <= 0.15 * abs(target)


    @pytest.mark.parametrize("radii", [[0.1, 0.1], [0.05, 0.1, 0.1]])
    def test_fits_reject_repeated_radii(self, radii):
        # [0.1, 0.1] made a singular fit: numpy's RankWarning and a number.
        values = [2.4 + 0.1 * eps for eps in radii]
        with pytest.raises(ValueError, match="radii must be distinct for a coefficient fit"):
            fit_linear_coefficient(radii, values, C_HALF)
        with pytest.raises(ValueError, match="radii must be distinct for an order fit"):
            fit_remainder_order(radii, values)


class TestSurfaceQuotientExpansion:
    def test_flat_case_is_sharp_constant(self):
        assert surface_quotient_expansion(0.0, 0.3, 2) == C_STAR

    def test_positive_curvature_value(self):
        oracle = C_STAR * (1.0 - 2.0 * 0.09 / 16.0)
        assert oracle == pytest.approx(3.5050274901656575, abs=1e-12)
        assert surface_quotient_expansion(2.0, 0.3, 2) == pytest.approx(oracle, rel=1e-14, abs=0)

    def test_positive_curvature_decreases_quotient(self):
        for eps in (0.05, 0.2):
            assert surface_quotient_expansion(2.0, eps, 2) < C_STAR


class TestCriticalQuotientExpansion:
    def test_round_sphere_coefficient_cancels_exactly(self):
        # S = 2 on the unit sphere (area 4 pi) sits exactly at the
        # threshold: the eps^2 coefficient vanishes.
        for eps in (0.1, 0.37):
            value = critical_quotient_expansion(2.0, 4.0 * math.pi, eps, 2)
            assert abs(value - C_STAR) <= 1e-12 * C_STAR

    def test_above_threshold_drops_below_sharp_constant(self):
        assert critical_quotient_expansion(3.0, 4.0 * math.pi, 0.1, 2) < C_STAR

    def test_zero_curvature_stays_above(self):
        for eps in (0.05, 0.1):
            assert critical_quotient_expansion(0.0, 4.0 * math.pi, eps, 2) > C_STAR

    @staticmethod
    def _coefficients(volume, boundary, total, S, n, eps=1e-3):
        """(Q/c*_n - 1)/eps^2 of the exact two-valued quotient of a ball, and
        of the expansion, at the critical exponent."""
        c_star = sharp_sobolev_constant(n)
        q = n * n / (n * n + n - 2)
        exact = profiles._two_valued_quotient(total, volume, total - volume, boundary, q, n,
                                              c_star).value
        expansion = critical_quotient_expansion(S, total, eps, n)
        return (exact / c_star - 1.0) / eps**2, (expansion / c_star - 1.0) / eps**2

    def test_two_dimensional_value_pinned(self):
        # The n >= 3 sign leaves n = 2 bit for bit as it was.
        assert critical_quotient_expansion(1.0, 10.0, 0.3, 2) == 3.57508254795983

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_flat_ball_plateau_term(self, n):
        # A flat ball of radius eps in a space of total volume 1: the
        # plateau term is +pi/2 at n = 2 and negative for n >= 3.
        eps = 1e-3
        omega = unit_ball_volume(n)
        exact, expansion = self._coefficients(omega * eps**n, n * omega * eps ** (n - 1),
                                              1.0, 0.0, n, eps)
        assert (expansion > 0) == (n == 2)
        assert expansion == pytest.approx(exact, rel=5e-3)

    def test_three_sphere_ball(self):
        # A ball of the unit S^3: volume pi (2 eps - sin 2 eps), boundary
        # 4 pi sin^2 eps, total 2 pi^2, S = 6; the exact coefficient is -0.43722.
        eps = 1e-3
        exact, expansion = self._coefficients(math.pi * (2.0 * eps - math.sin(2.0 * eps)),
                                              4.0 * math.pi * math.sin(eps) ** 2,
                                              2.0 * math.pi**2, 6.0, 3, eps)
        assert exact == pytest.approx(-0.43722, abs=1e-5)
        assert expansion == pytest.approx(exact, rel=5e-3)


# Every small-radius expansion with finite values for its arguments other
# than eps and n, and each argument that a non-finite value must be named by.
_EXPANSIONS = [
    (gray_expansion, {"S": 1.0}),
    (geodesic_circle_expansion, {"S": 1.0}),
    (domain_quotient_expansion, {"H": 1.0}),
    (surface_quotient_expansion, {"S": 1.0}),
    (critical_quotient_expansion, {"S": 1.0, "area": 4.0 * math.pi}),
    (cap_measure_expansion, {"H": 1.0}),
    (boundary_arc_expansion, {"H": 1.0}),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "expansion, values, argument",
    [pytest.param(f, values, arg, id=f"{f.__name__}-{arg}")
     for f, values in _EXPANSIONS for arg in (*values, "eps")],
)
def test_expansion_rejects_non_finite_input_by_name(expansion, values, argument, bad):
    with pytest.raises(ValueError, match=f"^{argument} must be finite"):
        expansion(**{**values, "eps": 0.1, "n": 2, argument: bad})

class TestOptimalEpsilon:
    def test_improves_on_fixed_radius(self, disk256):
        eps, qv = optimal_epsilon(disk256, (1.0, 0.0), 1.0)
        fixed = two_valued_quotient_exact(disk256, (1.0, 0.0), 0.2, 1.0)
        assert qv.value <= fixed.value + 1e-12
        assert qv.value < C_HALF

    def test_refinement_beats_coarse_sweep(self, disk256):
        eps, qv = optimal_epsilon(disk256, (1.0, 0.0), 1.0)
        lo, hi = 8.0 * disk256.h, disk256.diameter / 4.0
        coarse = min(
            two_valued_quotient_exact(disk256, (1.0, 0.0), e, 1.0).value
            for e in np.geomspace(lo, hi, 16)
        )
        assert qv.value <= coarse + 1e-12

    def test_empty_range_rejected(self):
        # At h = 1/10 the lower end 8 h = 0.8 lies above diameter / 4 = 0.5.
        coarse = build_domain(DomainSpec.disk(1.0), 0.1)
        with pytest.raises(ValueError, match="empty feasible eps range"):
            optimal_epsilon(coarse, (1.0, 0.0), 1.0)

    @pytest.mark.parametrize("q", [0.0, -0.5, 2.0, 3.0, math.nan])
    def test_rejects_q_outside_the_exponent_range(self, disk128, q):
        with pytest.raises(ValueError, match="q must lie"):
            optimal_epsilon(disk128, (1.0, 0.0), q)


class TestShiftVariationalProperties:
    def _random_three_level(self, rng, q):
        # Wellseparated levels, and a minimizer that does not sit on top
        # of the middle level (where |v - lam|^{p} loses smoothness and
        # no derivative-free oracle can localize it reliably).
        while True:
            levels = np.sort(rng.uniform(-2.0, 2.0, size=3))
            if np.min(np.diff(levels)) < 0.05:
                continue
            measures = rng.uniform(0.2, 2.0, size=3)
            pairs = list(zip(levels.tolist(), measures.tolist()))
            at_middle = constraint_residual(
                [(lv - levels[1], m) for lv, m in pairs], q
            )
            if abs(at_middle) > 0.1:
                return pairs

    def _scan_minimizer(self, pairs, p):
        # Oracle for argmin of sum m |level - lam|^p: dense scan, then
        # bisection on a central finite-difference slope built from
        # objective values only; independent of shift_to_constraint.
        levels = np.array([lv for lv, _ in pairs])
        measures = np.array([m for _, m in pairs])

        def objective(lam):
            return float(np.sum(measures * np.abs(levels - lam) ** p))

        span = float(levels.max() - levels.min())
        delta = 1e-7 * span

        def slope(lam):
            return objective(lam + delta) - objective(lam - delta)

        grid = np.linspace(levels.min(), levels.max(), 4001)
        vals = [objective(g) for g in grid]
        k = int(np.argmin(vals))
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, len(grid) - 1)]
        s_lo = slope(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            s_mid = slope(mid)
            if s_mid == 0.0:
                return mid
            if (s_mid > 0.0) == (s_lo > 0.0):
                lo, s_lo = mid, s_mid
            else:
                hi = mid
            if hi - lo <= 1e-14 * span:
                break
        return 0.5 * (lo + hi)

    @pytest.mark.parametrize("n", [2, 3])
    def test_first_order_condition_on_random_three_level_functions(self, n):
        # The minimizer of sum m |v - lam|^{n/(n-1)} must satisfy the
        # constraint at exponent 1/(n-1).
        rng = np.random.default_rng(11 + n)
        p = n / (n - 1)
        q = 1.0 / (n - 1)
        for _ in range(100):
            pairs = self._random_three_level(rng, q)
            lam_star = self._scan_minimizer(pairs, p)
            shifted = [(lv - lam_star, m) for lv, m in pairs]
            assert abs(constraint_residual(shifted, q)) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3])
    def test_feasible_functions_minimize_the_norm(self, n):
        # If the constraint already holds, any shift can only increase
        # sum m |v - lam|^{n/(n-1)} (convexity).
        rng = np.random.default_rng(29 + n)
        p = n / (n - 1)
        q = 1.0 / (n - 1)
        for _ in range(50):
            pairs = self._random_three_level(rng, q)
            lam = shift_to_constraint(pairs, q)
            centered = [(lv - lam, m) for lv, m in pairs]
            base = sum(m * abs(lv) ** p for lv, m in centered)
            for probe in np.linspace(-1.0, 1.0, 21):
                probed = sum(m * abs(lv - probe) ** p for lv, m in centered)
                assert probed >= base - 1e-12
