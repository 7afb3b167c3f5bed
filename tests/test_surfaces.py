import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bvsharp import (
    SurfaceModel,
    classify_achievability,
    critical_curvature_threshold,
    fit_remainder_order,
    gauss_bonnet_check,
    geodesic_ball_area,
    geodesic_circle_expansion,
    geodesic_circle_length,
    gray_expansion,
    hemisphere_certificate,
    scalar_curvature,
    sharp_sobolev_constant,
    surface_two_valued_quotient,
    surfaces,
)
from oracles import (
    oblate_spheroid_area,
    prolate_spheroid_area,
    sphere_cap_area,
    sphere_circle_length,
)

C_STAR = sharp_sobolev_constant(2)
SPHEROID = SurfaceModel.spheroid(1.0, 1.3)
TORUS = SurfaceModel.flat_torus(1.0, 1.0)


class TestSurfaceModels:
    def test_sphere_area_and_curvature(self):
        sphere = SurfaceModel.sphere(2.0)
        assert sphere.area == pytest.approx(16.0 * math.pi, rel=1e-14, abs=0)
        assert scalar_curvature(sphere, (0.7, 0.1)) == pytest.approx(0.5, rel=1e-14, abs=0)
        assert sphere.euler_characteristic == 2

    # (1, 5) and (1, 0.05) are far from round: the fixed panel rule must
    # hold its accuracy where the meridian integrand is sharply peaked.
    def test_prolate_spheroid_area_closed_form(self):
        for a, c in ((1.0, 1.3), (1.0, 5.0), (1.0, 100.0)):
            area = SurfaceModel.spheroid(a, c).area
            assert area == pytest.approx(prolate_spheroid_area(a, c), rel=1e-12)

    def test_oblate_spheroid_area_closed_form(self):
        for a, c in ((1.3, 1.0), (1.0, 0.05)):
            area = SurfaceModel.spheroid(a, c).area
            assert area == pytest.approx(oblate_spheroid_area(a, c), rel=1e-12)

    @pytest.mark.parametrize("a, c", [(100.0, 1.0), (1000.0, 1.0), (1.0, 1e-5), (1.0, 1000.0)])
    def test_unresolved_area_raises(self, a, c):
        # The 8- and 16-panel areas differ by 1.7e-12 relative at (100, 1)
        # and by 6.3e-9 at (1000, 1); at (1, 100) by 8.9e-14, which passes.
        with pytest.raises(ValueError, match=rf"spheroid a={a!r}, c={c!r}: the area is not "
                                             r"resolved .* on 8 panels, .* on 16"):
            SurfaceModel.spheroid(a, c).area

    def test_spheroid_pole_curvature(self):
        # K at the pole of a spheroid is c^2/a^4, so S = 2 c^2 / a^4.
        assert scalar_curvature(SPHEROID, (0.0, 0.0)) == pytest.approx(3.38, rel=1e-12)

    @pytest.mark.parametrize("a, c", [(1.0, 1.3), (1.3, 1.0), (1.0, 0.8), (1.0, 0.2),
                                      (1.0, 0.1), (1.0, 1.0), (2.5, 0.7), (0.3, 1.9),
                                      (7.0, 3.0), (0.5, 4.0)])
    def test_spheroid_curvature_is_the_closed_form_bit_for_bit(self, a, c):
        # S = 2 c^2 / (a^2 cos^2 theta + c^2 sin^2 theta)^2, formed here on its
        # own over an array of angles, as the Gauss-Bonnet integrand forms it.
        # Formed angle by angle on scalars, it rounds differently at 5 of
        # these 10,010 angles.
        surface = SurfaceModel.spheroid(a, c)
        theta = np.linspace(0.0, math.pi, 1001)
        E = a**2 * np.cos(theta) ** 2 + c**2 * np.sin(theta) ** 2
        expected = 2.0 * c**2 / E**2
        for k, t in enumerate(theta):
            assert scalar_curvature(surface, (t, 0.3)) == expected[k]

    def test_curvature_range_meets_scalar_curvature_at_the_ends(self):
        # The range forms its ends as 2 c^2 / a^4 and 2 / c^2, which round
        # differently from scalar_curvature in up to 4 ulp, on 60% of draws.
        rng = np.random.default_rng(7)
        for a, c in rng.uniform(0.2, 5.0, size=(2000, 2)):
            surface = SurfaceModel.spheroid(float(a), float(c))
            s_min, s_max, _ = surface.curvature_range()
            ends = (scalar_curvature(surface, (0.0, 0.0)),
                    scalar_curvature(surface, (0.5 * math.pi, 0.0)))
            assert s_max == pytest.approx(max(ends), rel=1e-15, abs=0)
            assert s_min == pytest.approx(min(ends), rel=1e-15, abs=0)

    def test_torus_is_flat(self):
        assert scalar_curvature(TORUS, (0.3, 0.9)) == 0.0
        assert TORUS.euler_characteristic == 0
        assert TORUS.area == 1.0

    def test_models_are_two_dimensional(self):
        for surface in (SurfaceModel.sphere(1.0), SPHEROID, TORUS):
            assert surface.dimension == 2
        with pytest.raises(TypeError):
            SurfaceModel(kind="sphere", dimension=3)

    def test_area_is_not_a_constructor_field(self):
        with pytest.raises(TypeError):
            SurfaceModel(kind="sphere", _area=1.0)

    def test_area_computed_once(self, monkeypatch):
        spheroid = SurfaceModel.spheroid(1.0, 2.0)
        first = spheroid.area
        calls = []
        monkeypatch.setattr(SurfaceModel, "_metric_E", lambda self, th: calls.append(th))
        assert spheroid.area == first
        assert calls == []

    def test_equality_ignores_area_cache(self):
        spheroid = SurfaceModel.spheroid(1.0, 2.0)
        spheroid.area
        assert spheroid == SurfaceModel.spheroid(1.0, 2.0)
        assert repr(spheroid) == repr(SurfaceModel.spheroid(1.0, 2.0))
        assert "_area" not in repr(spheroid)

    def test_spheroid_injectivity_bound_within_conjugate_radius(self):
        # pi / sqrt(K_max) is below (pi / 2) min(a, c) only when c > 2 a.
        for a, c in ((1.0, 0.7), (1.0, 1.3), (1.0, 2.0), (2.0, 1.0)):
            bound = SurfaceModel.spheroid(a, c).injectivity_radius()
            assert bound == 0.5 * math.pi * min(a, c)
        assert SurfaceModel.spheroid(1.0, 5.0).injectivity_radius() == pytest.approx(
            math.pi / 5.0, rel=1e-15, abs=0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="sphere r must be positive, got -1.0"):
            SurfaceModel.sphere(-1.0)
        with pytest.raises(ValueError, match="spheroid c must be positive, got 0.0"):
            SurfaceModel.spheroid(1.0, 0.0)
        with pytest.raises(ValueError, match="flat-torus L1 must be positive, got 0.0"):
            SurfaceModel.flat_torus(0.0, 1.0)
        with pytest.raises(ValueError, match="sphere r must be finite, got nan"):
            SurfaceModel.sphere(math.nan)
        with pytest.raises(ValueError, match=r"spheroid a=1.0, c=1e-170: c\^2 = 0.0"):
            SurfaceModel.spheroid(1.0, 1e-170)
        with pytest.raises(ValueError, match="flat torus L1=1e\\+200, L2=1e\\+200: area"):
            SurfaceModel.flat_torus(1e200, 1e200)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("kind, name, named", [
        ("sphere", "r", lambda v: SurfaceModel.sphere(v)),
        ("spheroid", "a", lambda v: SurfaceModel.spheroid(v, 1.0)),
        ("spheroid", "c", lambda v: SurfaceModel.spheroid(1.0, v)),
        ("flat-torus", "L1", lambda v: SurfaceModel.flat_torus(v, 1.0)),
        ("flat-torus", "L2", lambda v: SurfaceModel.flat_torus(1.0, v)),
    ])
    def test_both_constructors_reject_with_one_message(self, kind, name, named, value):
        # Only the named constructors used to check, and not for NaN: a
        # sphere of radius -1 had area 4 pi and a torus of side -1 area -1.
        messages = []
        for make in (named, lambda v: SurfaceModel(kind=kind, **{name: v})):
            with pytest.raises(ValueError) as info:
                make(value)
            messages.append(str(info.value))
        rule = "finite" if not math.isfinite(value) else "positive"
        assert messages == [f"{kind} {name} must be {rule}, got {value}"] * 2

    def test_unknown_kind_rejected_when_made(self):
        # A "klein" model fell through to the spheroid formulas with
        # a = c = 1 and was classified achieved by Thm8.
        with pytest.raises(ValueError, match="unknown surface kind 'klein'"):
            SurfaceModel(kind="klein")

    def test_model_is_frozen_and_caches_its_area(self):
        sphere = SurfaceModel.sphere(2.0)
        with pytest.raises(AttributeError):
            sphere.r = -1.0
        assert sphere.area is sphere.area
        assert sphere.area == 16.0 * math.pi


class TestGeodesicBallArea:
    def test_sphere_closed_form(self):
        sphere = SurfaceModel.sphere(1.0)
        assert geodesic_ball_area(sphere, (0.0, 0.0), 0.5) == pytest.approx(
            sphere_cap_area(0.5), rel=1e-14, abs=0
        )

    def test_hemisphere(self):
        sphere = SurfaceModel.sphere(1.0)
        assert geodesic_ball_area(sphere, (0.0, 0.0), math.pi / 2.0) == pytest.approx(
            2.0 * math.pi, rel=1e-14, abs=0
        )

    def test_torus_ball_is_euclidean(self):
        assert geodesic_ball_area(TORUS, (0.0, 0.0), 0.2) == pytest.approx(
            math.pi * 0.04, rel=1e-14, abs=0
        )

    def test_beyond_injectivity_radius_rejected(self):
        with pytest.raises(ValueError, match="injectivity"):
            geodesic_ball_area(TORUS, (0.0, 0.0), 0.6)
        with pytest.raises(ValueError, match="injectivity"):
            geodesic_ball_area(SPHEROID, (0.0, 0.0), 2.0)
        # Below (pi / 2) min(a, c) = 1.571 but past the conjugate radius pi / 5.
        with pytest.raises(ValueError, match="injectivity"):
            surface_two_valued_quotient(SurfaceModel.spheroid(1.0, 5.0), (0.3, 0.0), 1.2, 1.0)

    def test_spheroid_pole_remainder_order_empirical(self):
        # The two-term small-ball expansion misses at order eps^(n+4) = 6;
        # the 5.5 cutoff is an empirical margin.
        S_pole = scalar_curvature(SPHEROID, (0.0, 0.0))
        radii = [0.05, 0.1, 0.2, 0.3]
        diffs = [
            geodesic_ball_area(SPHEROID, (0.0, 0.0), eps) - gray_expansion(S_pole, eps, 2)
            for eps in radii
        ]
        assert fit_remainder_order(radii, diffs) >= 5.5

    def test_sphere_remainder_order_empirical(self):
        radii = [0.05, 0.1, 0.2, 0.3]
        diffs = [sphere_cap_area(eps) - gray_expansion(2.0, eps, 2) for eps in radii]
        assert fit_remainder_order(radii, diffs) >= 5.5

    def test_generic_center_integration_against_sphere(self):
        # A unit sphere parameterized as a degenerate spheroid exercises
        # the embedded-geodesic path with a center away from the poles.
        round_spheroid = SurfaceModel.spheroid(1.0, 1.0)
        ball = geodesic_ball_area(round_spheroid, (1.0, 0.3), 0.4)
        assert ball == pytest.approx(sphere_cap_area(0.4), rel=1e-9)
        circle = geodesic_circle_length(round_spheroid, (1.0, 0.3), 0.4)
        assert circle == pytest.approx(sphere_circle_length(0.4), rel=1e-9)

    def test_generic_center_respects_rotational_symmetry(self):
        # Balls around equator points of a genuine spheroid must agree
        # for any longitude.
        a = geodesic_ball_area(SPHEROID, (math.pi / 2.0, 0.0), 0.35)
        b = geodesic_ball_area(SPHEROID, (math.pi / 2.0, 1.234), 0.35)
        assert a == b


class TestSingleBallRoutine:
    """Area and perimeter come from one Jacobi integration at every center."""

    @pytest.mark.parametrize("theta0", [0.0, math.pi])
    @pytest.mark.parametrize("eps", [0.05, 0.3, 0.8])
    def test_pole_balls_match_sphere_closed_forms(self, theta0, eps):
        round_spheroid = SurfaceModel.spheroid(1.0, 1.0)
        centre = (theta0, 0.0)
        ball = geodesic_ball_area(round_spheroid, centre, eps)
        circle = geodesic_circle_length(round_spheroid, centre, eps)
        assert ball == pytest.approx(sphere_cap_area(eps), rel=1e-12)
        assert circle == pytest.approx(sphere_circle_length(eps), rel=1e-12)

    @pytest.mark.parametrize("theta0", [0.7, 1.9, 2.6])
    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.5, 0.8])
    def test_generic_centre_balls_match_sphere_closed_forms(self, theta0, eps):
        round_spheroid = SurfaceModel.spheroid(1.0, 1.0)
        centre = (theta0, 0.4)
        ball = geodesic_ball_area(round_spheroid, centre, eps)
        circle = geodesic_circle_length(round_spheroid, centre, eps)
        assert ball == pytest.approx(sphere_cap_area(eps), rel=1e-14, abs=0.0)
        assert circle == pytest.approx(sphere_circle_length(eps), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("eps", [0.05, 0.3, 0.8])
    def test_north_and_south_poles_agree(self, eps):
        north, south = (0.0, 0.0), (math.pi, 0.0)
        assert geodesic_ball_area(SPHEROID, south, eps) == pytest.approx(
            geodesic_ball_area(SPHEROID, north, eps), rel=1e-13, abs=0
        )
        assert geodesic_circle_length(SPHEROID, south, eps) == pytest.approx(
            geodesic_circle_length(SPHEROID, north, eps), rel=1e-13, abs=0
        )

    def test_spheroid_ball_independent_of_blas_threads(self):
        # The DOP853 stages run through matrix products on small arrays; a
        # thread split of those products would round differently.
        root = Path(__file__).resolve().parent.parent
        probe = (
            "from bvsharp import surfaces as s; "
            "m = s.SurfaceModel.spheroid(1.0, 1.3); "
            "print(repr([s._geodesic_ball(m, (0.9, 0.0), e) for e in (0.3, 0.8)]))"
        )
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS=threads)
            result = subprocess.run([sys.executable, "-c", probe], env=env,
                                    capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0].count("(") == 2  # two (area, perimeter) pairs
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
    def test_quotient_matches_public_ball_functions(self, q):
        centre, eps = (1.1, 2.3), 0.4
        ball = geodesic_ball_area(SPHEROID, centre, eps)
        perim = geodesic_circle_length(SPHEROID, centre, eps)
        total = SPHEROID.area
        beta = (total / ball - 1.0) ** (-1.0 / q)  # the plateau's closed form
        numerator = (1.0 + beta) * perim
        denominator = (ball + beta**2.0 * (total - ball)) ** 0.5
        qv = surface_two_valued_quotient(SPHEROID, centre, eps, q)
        assert qv.numerator == numerator
        assert qv.denominator == denominator
        assert qv.value == numerator / denominator

    @pytest.mark.parametrize("surface", [SPHEROID, SurfaceModel.sphere(1.0), TORUS],
                             ids=["spheroid", "sphere", "torus"])
    @pytest.mark.parametrize("entry", ["area", "length", "quotient"])
    def test_radius_below_floor_raises(self, surface, entry):
        # At 1e-160 the ball's area pi eps^2 is subnormal, and the quotient
        # at q = 1 read c*_2 (1 - 2.7e-5) on the sphere and the torus and
        # c*_2 (1 - 5.9e-3) on the spheroid: false strict witnesses.
        centre, eps = (1.0, 0.0), 1e-160
        call = {
            "area": lambda: geodesic_ball_area(surface, centre, eps),
            "length": lambda: geodesic_circle_length(surface, centre, eps),
            "quotient": lambda: surface_two_valued_quotient(surface, centre, eps, 1.0),
        }[entry]
        with pytest.raises(ValueError, match=r"radius 1e-160 is below the floor .* 2\^-500"):
            call()

    @pytest.mark.parametrize("surface", [SPHEROID, SurfaceModel.sphere(1.0), TORUS],
                             ids=["spheroid", "sphere", "torus"])
    @pytest.mark.parametrize("centre, eps, cause", [
        ((math.nan, 0.0), 0.3, "centre"),
        ((0.5, math.nan), 0.3, "centre"),
        ((0.5, math.inf), 0.3, "centre"),
        ((0.5, -math.inf), 0.3, "centre"),
        ((0.5, 0.0), math.nan, "eps"),
        ((0.5, 0.0), math.inf, "eps"),
    ])
    @pytest.mark.parametrize("entry", ["area", "length", "quotient"])
    def test_non_finite_input_raises_naming_the_cause(self, surface, centre, eps, cause, entry):
        call = {
            "area": lambda: geodesic_ball_area(surface, centre, eps),
            "length": lambda: geodesic_circle_length(surface, centre, eps),
            "quotient": lambda: surface_two_valued_quotient(surface, centre, eps, 1.0),
        }[entry]
        with pytest.raises(ValueError, match=cause):
            call()


def _reference_ball(a, c, centre, eps):
    """(area, perimeter) by plain RK4 along all 256 directions at any longitude.

    Independent of the integrator under test: no symmetry, the full mean
    over directions, the state kept as separate arrays, and Simpson's
    rule in s.  RK4 and Simpson both err at order h^4, so the
    Richardson combination (16 R(h / 2) - R(h)) / 15 of steps h <= 0.004
    and h / 2 removes that term; it is within 3e-15 of the same
    combination at an eighth of the step, where one RK4 run at
    h <= 0.002 is up to 6e-13 off.
    """
    steps = max(16, 2 * math.ceil(eps / 0.008))
    coarse = np.array(_rk4_simpson_ball(a, c, centre, eps, steps))
    fine = np.array(_rk4_simpson_ball(a, c, centre, eps, 2 * steps))
    return tuple((16.0 * fine - coarse) / 15.0)


def _rk4_simpson_ball(a, c, centre, eps, steps):
    """(area, perimeter) by RK4 with an even number of steps."""
    n_dirs = 256
    theta0, phi0 = centre
    st, ct, sp, cp = math.sin(theta0), math.cos(theta0), math.sin(phi0), math.cos(phi0)
    E0 = math.sqrt(a * a * ct * ct + c * c * st * st)
    e1 = np.array([a * ct * cp, a * ct * sp, -c * st]) / E0
    e2 = np.array([-sp, cp, 0.0])
    alphas = np.linspace(0.0, 2.0 * math.pi, n_dirs, endpoint=False)
    x = np.repeat(np.array([[a * st * cp], [a * st * sp], [c * ct]]), n_dirs, axis=1)
    v = np.outer(e1, np.cos(alphas)) + np.outer(e2, np.sin(alphas))
    J, Jp = np.zeros(n_dirs), np.ones(n_dirs)
    inv = np.array([[1.0 / a**2], [1.0 / a**2], [1.0 / c**2]])

    def deriv(x, v, J, Jp):
        gx = 2.0 * inv * x
        lam = -2.0 * np.sum(v * v * inv, axis=0) / np.sum(gx * gx, axis=0)
        W = c * c + (a * a - c * c) * x[2] ** 2 / (c * c)
        return v, lam * gx, Jp, -(c * c / W**2) * J

    ds = eps / steps
    rows = [J]
    for _ in range(steps):
        k1 = deriv(x, v, J, Jp)
        k2 = deriv(*(y + 0.5 * ds * k for y, k in zip((x, v, J, Jp), k1)))
        k3 = deriv(*(y + 0.5 * ds * k for y, k in zip((x, v, J, Jp), k2)))
        k4 = deriv(*(y + ds * k for y, k in zip((x, v, J, Jp), k3)))
        x, v, J, Jp = (y + ds / 6.0 * (p + 2.0 * q + 2.0 * r + t)
                       for y, p, q, r, t in zip((x, v, J, Jp), k1, k2, k3, k4))
        gx = 2.0 * inv * x
        x = x - (np.sum(x * x * inv, axis=0) - 1.0) / np.sum(gx * gx, axis=0) * gx
        nhat = 2.0 * inv * x
        nhat = nhat / np.linalg.norm(nhat, axis=0)
        v = v - np.sum(v * nhat, axis=0) * nhat
        v = v / np.linalg.norm(v, axis=0)
        rows.append(J)
    simpson = np.ones(steps + 1)
    simpson[1:-1:2], simpson[2:-1:2] = 4.0, 2.0
    area = 2.0 * math.pi * np.mean(ds / 3.0 * (simpson @ np.array(rows)))
    return area, 2.0 * math.pi * np.mean(rows[-1])


class TestSpheroidIntegrator:
    """The half-direction integrator, which checks its own direction count,
    against a plain 256-direction one."""

    # (axes, theta0, eps, area, perimeter), taken from the integrator before
    # its numpy calls were fused; a rewrite may move a ball by rounding only.
    @pytest.mark.parametrize("axes, theta0, eps, area, perimeter", [
        ((1.0, 0.7), 0.4, 0.05, 0.007853039297263723, 0.31408385715604753),
        ((1.0, 0.7), 0.4, 0.8, 1.938991434446415, 4.64178469182226),
        ((1.0, 0.7), 1.2, 0.05, 0.007851397136766278, 0.31395250900930965),
        ((1.0, 0.7), 1.2, 0.8, 1.8521932076484153, 4.267854522616587),
        ((1.0, 1.3), 0.4, 0.05, 0.007851716332383933, 0.3139780768685217),
        ((1.0, 1.3), 0.4, 0.8, 1.8760657451986902, 4.385448268232966),
        ((1.0, 1.3), 1.2, 0.05, 0.0078529005673189, 0.31407277686499613),
        ((1.0, 1.3), 1.2, 0.8, 1.9385264467084158, 4.663198812192433),
        ((1.0, 2.0), 0.4, 1.0, 2.7241607112767294, 4.801002877322105),
    ])
    def test_pinned_balls(self, axes, theta0, eps, area, perimeter):
        surface = SurfaceModel.spheroid(*axes)
        assert geodesic_ball_area(surface, (theta0, 0.0), eps) == pytest.approx(
            area, rel=4e-15, abs=0.0)
        assert geodesic_circle_length(surface, (theta0, 0.0), eps) == pytest.approx(
            perimeter, rel=4e-15, abs=0.0)

    @pytest.mark.parametrize("axes", [(1.0, 0.7), (1.0, 1.3)], ids=["oblate", "prolate"])
    @pytest.mark.parametrize("theta0", [0.0, 0.4, 1.2, math.pi / 2.0, 2.8, math.pi])
    @pytest.mark.parametrize("eps", [0.05, 0.3, 0.8])
    def test_matches_full_direction_reference(self, axes, theta0, eps):
        surface = SurfaceModel.spheroid(*axes)
        centre = (theta0, 2.3)
        area, perimeter = _reference_ball(*axes, centre, eps)
        assert geodesic_ball_area(surface, centre, eps) == pytest.approx(area, rel=1e-14, abs=0.0)
        assert geodesic_circle_length(surface, centre, eps) == pytest.approx(
            perimeter, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("axes", [(1.0, 0.7), (1.0, 1.3)], ids=["oblate", "prolate"])
    @pytest.mark.parametrize("theta0", [0.4, 1.2])
    @pytest.mark.parametrize("eps", [0.05, 0.3, 0.8])
    def test_equatorial_reflection(self, axes, theta0, eps):
        # x3 -> -x3 maps the ball at theta0 onto the one at pi - theta0;
        # the two are separate integrations.
        surface = SurfaceModel.spheroid(*axes)
        north, south = (theta0, 0.0), (math.pi - theta0, 0.0)
        assert geodesic_ball_area(surface, south, eps) == pytest.approx(
            geodesic_ball_area(surface, north, eps), rel=1e-13, abs=0)
        assert geodesic_circle_length(surface, south, eps) == pytest.approx(
            geodesic_circle_length(surface, north, eps), rel=1e-13, abs=0)

    def test_conjugate_point_raises(self):
        """A check of J at each step end is enough: zeros of J are at least
        pi / sqrt(K_max) apart (Sturm comparison), far more than one step of
        0.04 / sqrt(K_max), so J cannot turn negative and back within a step.
        """
        # On spheroid(1, 5), K = 25 at the pole: J along alpha = pi from
        # polar angle 0.3 turns negative near s = 0.78.
        with pytest.raises(ValueError, match=r"conjugate point.*1\.2.*0\.3"):
            surfaces._spheroid_ball(SurfaceModel.spheroid(1.0, 5.0), 0.3, 1.2)

    def test_one_integration_per_ball(self, monkeypatch):
        calls = _count_profiles(monkeypatch)
        geodesic_ball_area(SPHEROID, (0.7, 0.2), 0.3)
        geodesic_circle_length(SPHEROID, (0.7, 0.2), 0.3)
        assert len(calls) == 1
        surface_two_valued_quotient(SPHEROID, (0.7, 1.9), 0.3, 1.0)  # longitude only
        assert len(calls) == 1
        geodesic_ball_area(SPHEROID, (0.7, 0.2), 0.4)  # new radius
        assert len(calls) == 2
        geodesic_ball_area(SPHEROID, (0.8, 0.2), 0.4)  # new polar angle
        assert len(calls) == 3
        geodesic_ball_area(SPHEROID, (0.7, 0.2), 0.4)  # evicted by the last ball
        assert len(calls) == 4
        # Validation comes before the memo: a NaN longitude never reaches it.
        with pytest.raises(ValueError, match="centre"):
            geodesic_ball_area(SPHEROID, (0.7, math.nan), 0.4)
        assert len(calls) == 4
        # 64 directions resolve every ball: 33 columns in [0, pi], one
        # integration each, on the catalog spheroids and the round one.
        for axes in [(1.0, 1.3), (1.3, 1.0), (1.0, 0.8), (1.0, 1.0)]:
            for theta0 in [0.0, 0.7, math.pi / 2.0]:
                for eps in [0.05, 0.6, 1.2]:
                    surface_two_valued_quotient(
                        SurfaceModel.spheroid(*axes), (theta0, 0.4), eps, 1.0)
        assert len(calls) == 4 + 36
        assert set(calls) == {33}

    @pytest.mark.parametrize("axes, theta0, eps, columns", [
        ((1.0, 0.4), math.pi / 2.0, 0.6, [33, 65]),
        ((1.0, 0.4), 1.2, 0.6, [33, 65, 129]),
        ((1.0, 0.2), math.pi / 2.0, 0.3, [33, 65, 129]),
        ((1.0, 0.2), 1.2, 0.3, [33, 65, 129, 257]),
    ])
    def test_eccentric_balls_double_their_directions(self, monkeypatch, axes, theta0, eps,
                                                      columns):
        calls = _count_profiles(monkeypatch)
        spheroid = SurfaceModel.spheroid(*axes)
        got = surfaces._spheroid_ball(spheroid, theta0, eps)
        assert calls == columns
        # The trapezoid rule on 1024 directions, as a reference.
        A, J = surfaces._spheroid_generic_profile(spheroid, theta0, eps, 513)
        reference = surfaces._direction_mean(A), surfaces._direction_mean(J)
        assert got == pytest.approx(reference, rel=1e-13, abs=0.0)

    def test_unresolved_ball_raises_at_1024_directions(self, monkeypatch):
        calls = _count_profiles(monkeypatch)
        # This ball's two means differ in the last bits at every direction
        # count, so a zero tolerance accepts none of them.
        monkeypatch.setattr(surfaces, "_AREA_RTOL", 0.0)
        with pytest.raises(ValueError, match=(
                r"spheroid a=1\.0, c=0\.7: the ball of radius 0\.8 at polar angle 1\.2 "
                r"is not resolved by 1024 directions \(area .* on 1024, .* on 512; "
                r"perimeter .* on 1024, .* on 512\)")):
            surfaces._spheroid_ball(SurfaceModel.spheroid(1.0, 0.7), 1.2, 0.8)
        assert calls == [33, 65, 129, 257, 513]


def _count_profiles(monkeypatch):
    """The column counts of the profiles integrated from here on, with the
    ball memo cleared."""
    calls = []
    profile = surfaces._spheroid_generic_profile

    def counted(*args):
        calls.append(args[-1])
        return profile(*args)

    monkeypatch.setattr(surfaces, "_spheroid_generic_profile", counted)
    surfaces._spheroid_ball.cache_clear()
    return calls


class TestButcherTableau:
    """The eighth-order Runge-Kutta method (DOP853) behind the spheroid balls."""

    def test_consistency(self):
        A, b, c = surfaces._RK8_A, surfaces._RK8_B, surfaces._RK8_C
        assert A.shape == (b.size, b.size) and c.size == b.size
        assert np.all(np.triu(A) == 0.0)  # explicit
        np.testing.assert_allclose(A.sum(axis=1), c, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_quadrature_order_conditions(self, k):
        # sum_i b_i c_i^(k-1) = 1/k for k <= 8; k = 9 fails by 2.7e-5.
        b, c = surfaces._RK8_B, surfaces._RK8_C
        assert b @ c ** (k - 1) == pytest.approx(1.0 / k, rel=0.0, abs=1e-15)

    def test_empirical_order(self):
        # y' = y^2, y(0) = 1 has y = 1 / (1 - t); y(0.5) = 2.  From 16
        # steps on the error is at roundoff, so compare 8 with 16.
        def solve(steps):
            h, y = 0.5 / steps, 1.0
            for _ in range(steps):
                k = []
                for row in surfaces._RK8_A:
                    stage = y + h * sum(a * kj for a, kj in zip(row, k))
                    k.append(stage * stage)
                y += h * sum(bi * ki for bi, ki in zip(surfaces._RK8_B, k))
            return y

        order = math.log2(abs(solve(8) - 2.0) / abs(solve(16) - 2.0))
        assert order >= 7.8

    def test_literals_match_scipy(self):
        # Transcription check only: bvsharp itself never imports scipy.
        dop853 = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        assert np.array_equal(surfaces._RK8_A, dop853.A[:12, :12])
        assert np.array_equal(surfaces._RK8_B, dop853.B)
        assert np.array_equal(surfaces._RK8_C, dop853.C[:12])


class TestPanelRule:
    def test_table_is_leggauss_bit_for_bit(self):
        # The literal table stands in for numpy.polynomial, which the
        # package does not import; the test may.
        for table, reference in zip((surfaces._GL_NODES, surfaces._GL_WEIGHTS),
                                    np.polynomial.legendre.leggauss(32)):
            assert table.shape == reference.shape and table.dtype == reference.dtype
            assert table.tobytes() == reference.tobytes()

    def test_integrates_monomials_exactly(self):
        # 32 Gauss-Legendre nodes integrate degree 63 exactly on each panel,
        # a check that does not rest on numpy's nodes.
        t, w = surfaces._panel_rule(0.0, 1.0)
        errors = {k: math.fsum((w * t**k).ravel()) * (k + 1) - 1.0 for k in range(64)}
        assert {k: e for k, e in errors.items() if abs(e) > 1e-14} == {}

    @pytest.mark.parametrize("name", ["_GL_NODES", "_GL_WEIGHTS", "_PANEL_EDGES"])
    def test_shared_constants_are_read_only(self, name):
        # Every meridian integral reads the module-level tables, so a stray
        # write would corrupt all later ones.
        array = getattr(surfaces, name)
        with pytest.raises(ValueError, match="read-only"):
            array[...] = array


class TestGrayExpansion:
    def test_flat_case_is_euclidean_volume(self):
        for eps in (0.1, 0.7):
            assert gray_expansion(0.0, eps, 2) == pytest.approx(
                math.pi * eps * eps, rel=1e-15, abs=0
            )
            assert gray_expansion(0.0, eps, 3) == pytest.approx(
                4.0 * math.pi * eps**3 / 3.0, rel=1e-14, abs=0
            )

    def test_unit_sphere_value(self):
        oracle = math.pi * 0.25 * (1.0 - 0.25 / 12.0)
        assert oracle == pytest.approx(0.7690357016600015, abs=1e-15)
        assert gray_expansion(2.0, 0.5, 2) == pytest.approx(oracle, rel=1e-14, abs=0)
        # close to the closed form 2 pi (1 - cos 0.5), off only at eps^6
        assert gray_expansion(2.0, 0.5, 2) == pytest.approx(sphere_cap_area(0.5), abs=2e-4)

    def test_taylor_identity_with_sphere_series(self):
        # 2 pi (1 - cos eps) agrees with pi eps^2 (1 - eps^2/12) through
        # eps^4; the gap is pi eps^6/360 + O(eps^8).
        for eps in (0.02, 0.05, 0.1):
            gap = abs(sphere_cap_area(eps) - gray_expansion(2.0, eps, 2))
            assert gap <= 1.1 * math.pi * eps**6 / 360.0


class TestGeodesicCircleLength:
    def test_sphere_closed_form(self):
        sphere = SurfaceModel.sphere(1.0)
        assert geodesic_circle_length(sphere, (0.0, 0.0), 0.5) == pytest.approx(
            sphere_circle_length(0.5), rel=1e-14, abs=0
        )

    def test_equator(self):
        sphere = SurfaceModel.sphere(1.0)
        assert geodesic_circle_length(sphere, (0.0, 0.0), math.pi / 2.0) == pytest.approx(
            2.0 * math.pi, rel=1e-14, abs=0
        )

    def test_expansion_remainder_order_empirical(self):
        radii = [0.05, 0.1, 0.2, 0.3]
        diffs = [
            sphere_circle_length(eps) - geodesic_circle_expansion(2.0, eps, 2)
            for eps in radii
        ]
        assert fit_remainder_order(radii, diffs) >= 4.5


class TestSurfaceTwoValuedQuotient:
    def test_unit_sphere_equator_equals_hemisphere_certificate(self):
        sphere = SurfaceModel.sphere(1.0)
        qv = surface_two_valued_quotient(sphere, (0.0, 0.0), math.pi / 2.0, 1.0)
        cert = hemisphere_certificate(1.0)
        assert abs(qv.value - cert.value) <= 1e-9
        assert qv.value == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-12)

    def test_round_sphere_is_borderline_at_small_radius(self):
        # On the round sphere the eps^2 coefficient cancels; the quotient
        # stays within O(eps^4) of the sharp constant instead of dipping
        # below it.
        sphere = SurfaceModel.sphere(1.0)
        for eps in (0.2, 0.3, 0.4):
            qv = surface_two_valued_quotient(sphere, (0.0, 0.0), eps, 1.0)
            assert abs(qv.value - C_STAR) <= 0.5 * eps**4

    @pytest.mark.parametrize("eps", [2.0**-500, 1e-6, 1e-5, 1e-3, 0.1, 1.0, math.pi / 2.0, 2.5,
                                     3.0, math.pi - 1e-3, math.pi - 1e-6])
    def test_round_sphere_ball_equals_sharp_constant_at_q1(self, eps):
        # Q = P sqrt(T) / sqrt(V (T - V)) = 2 sqrt(pi) for every ball; the
        # cap area 2 pi (1 - cos eps) cancels at small eps unless written
        # as 4 pi sin^2(eps / 2), and near pi the complement T - V cancels
        # unless written as 4 pi cos^2(eps / 2): T - V reads c*_2 (1 - 1.2e-4)
        # at pi - 1e-6.
        sphere = SurfaceModel.sphere(1.0)
        qv = surface_two_valued_quotient(sphere, (0.0, 0.0), eps, 1.0)
        assert qv.value == pytest.approx(C_STAR, rel=1e-14, abs=0)

    def test_complement_in_closed_form_on_a_larger_sphere(self):
        # The quotient is scale-free in two dimensions, so a sphere of
        # radius 2.5 reads c*_2 at eps = 2.5 (pi - 1e-6) as well.
        sphere = SurfaceModel.sphere(2.5)
        qv = surface_two_valued_quotient(sphere, (0.0, 0.0), 2.5 * (math.pi - 1e-6), 1.0)
        assert qv.value == pytest.approx(C_STAR, rel=1e-14, abs=0)

    def test_dimension_comes_from_the_model(self):
        with pytest.raises(TypeError):
            surface_two_valued_quotient(SPHEROID, (0.0, 0.0), 0.3, 1.2, n=2)

    def test_spheroid_pole_certifies_strict_inequality(self):
        qv = surface_two_valued_quotient(SPHEROID, (0.0, 0.0), 0.3, 1.0)
        assert qv.value < C_STAR
        assert qv.threshold == pytest.approx(C_STAR, rel=1e-15, abs=0)
        assert qv.gap_to_threshold < -0.02

    @pytest.mark.parametrize("q", [0.0, 2.0, 2.5, math.nan])
    def test_rejects_q_out_of_range(self, q):
        with pytest.raises(ValueError, match="q must lie"):
            surface_two_valued_quotient(SPHEROID, (0.0, 0.0), 0.3, q)


class TestCriticalCurvatureThreshold:
    def test_two_dimensional_form_is_8pi_over_area(self):
        assert critical_curvature_threshold(2, 4.0 * math.pi) == pytest.approx(2.0, abs=1e-12)
        assert critical_curvature_threshold(2, 8.0 * math.pi) == pytest.approx(1.0, abs=1e-12)
        for area in (1.0, 11.7):
            assert critical_curvature_threshold(2, area) == pytest.approx(
                8.0 * math.pi / area, rel=1e-14, abs=0
            )

    def test_round_three_sphere_sits_at_threshold(self):
        # The round S^3 has volume 2 pi^2 and scalar curvature 6.
        assert critical_curvature_threshold(3, 2.0 * math.pi**2) == pytest.approx(6.0, abs=1e-6)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            critical_curvature_threshold(1, 1.0)
        with pytest.raises(ValueError):
            critical_curvature_threshold(2, 0.0)

    @pytest.mark.parametrize("area, message", [
        (math.nan, "area must be finite, got nan"),
        (math.inf, "area must be finite, got inf"),
        (0.0, "area must be positive, got 0.0"),
        (-1.0, "area must be positive, got -1.0"),
    ])
    def test_area_outside_the_rule_is_named(self, area, message):
        # nan returned nan and inf returned 0.0: a "Thm6" comparison against
        # either was silently false.
        with pytest.raises(ValueError, match=f"^{message}$"):
            critical_curvature_threshold(2, area)


class TestGaussBonnet:
    def test_unit_sphere(self):
        integral, target = gauss_bonnet_check(SurfaceModel.sphere(1.0))
        assert target == pytest.approx(8.0 * math.pi, rel=1e-15, abs=0)
        assert integral == pytest.approx(8.0 * math.pi, rel=1e-10)

    def test_flat_torus(self):
        integral, target = gauss_bonnet_check(TORUS)
        assert integral == 0.0
        assert target == 0.0

    def test_spheroid(self):
        integral, target = gauss_bonnet_check(SPHEROID)
        assert target == pytest.approx(8.0 * math.pi, rel=1e-15, abs=0)
        assert abs(integral - target) <= 1e-3 * target

    def test_normalized_defect_below_tolerance_for_all_models(self):
        for surface in (SurfaceModel.sphere(0.7), SPHEROID,
                        SurfaceModel.spheroid(1.3, 1.0), SurfaceModel.spheroid(1.0, 5.0),
                        SurfaceModel.spheroid(1.0, 0.05), TORUS):
            integral, target = gauss_bonnet_check(surface)
            defect = abs(integral - target) / max(1.0, abs(target))
            assert defect <= 1e-3


    @pytest.mark.parametrize("a, c", [(1.0, 100.0), (100.0, 1.0), (1.0, 1000.0), (1e-5, 1.0)])
    def test_unresolved_integral_raises(self, a, c):
        # The 8-panel rule read 26.23 against 8 pi = 25.13 at (1, 1000).
        with pytest.raises(ValueError, match=rf"spheroid a={a!r}, c={c!r}: the Gauss-Bonnet "
                                             r"integral is not resolved .* on 8 panels"):
            gauss_bonnet_check(SurfaceModel.spheroid(a, c))

    def test_resolved_integral_keeps_the_eight_panel_value(self):
        # At (1, 50) the two rules differ by 3.9e-9 of the target: it passes,
        # and the value is the 8-panel one, which the literal was taken from
        # before the 16-panel check existed.
        integral, target = gauss_bonnet_check(SurfaceModel.spheroid(1.0, 50.0))
        assert integral == 25.132741131214775
        assert abs(integral - target) <= 1e-8 * target


class TestHemisphereCertificate:
    @pytest.mark.parametrize("q", [0.01, 0.5, 1.0, 1.5, 1.99])
    def test_value_is_sharp_constant(self, q):
        cert = hemisphere_certificate(q)
        hemisphere = 2.0 * math.pi  # the levels 1 and -beta, each on a hemisphere
        assert hemisphere - hemisphere * cert.beta**q == 0.0
        assert abs(cert.value - C_STAR) <= 1e-12
        assert abs(cert.gap_to_threshold) <= 1e-12
        # beta = 1 at every q, so the shared quotient is 4 pi / sqrt(4 pi) bit for bit.
        assert cert.beta == 1.0
        assert cert.value == 4.0 * math.pi / math.sqrt(4.0 * math.pi)

    def test_numerator_and_denominator(self):
        cert = hemisphere_certificate(1.0)
        assert cert.numerator == pytest.approx(4.0 * math.pi, rel=1e-15, abs=0)
        assert cert.denominator == pytest.approx(
            math.sqrt(4.0 * math.pi), rel=1e-15, abs=0
        )

    def test_rejects_q_out_of_range(self):
        with pytest.raises(ValueError):
            hemisphere_certificate(2.0)


class _StubSurface:
    """Duck-typed surface for classifier branches the catalog cannot reach."""

    def __init__(self, kind, chi, s_min, s_max, area, dimension=2):
        self.dimension = dimension
        self.kind = kind
        self.euler_characteristic = chi
        self._range = (s_min, s_max)
        self.area = area

    def curvature_range(self):
        s_min, s_max = self._range
        return s_min, s_max, (0.0, 0.0)


class TestClassifyAchievability:
    def test_round_sphere_uses_sphere_rule(self):
        verdict = classify_achievability(SurfaceModel.sphere(1.0), 1.5)
        assert verdict.verdict == "achieved"
        assert verdict.justification == "Thm8"
        assert verdict.witness is not None

    def test_constant_curvature_spheroid_detected_as_round(self):
        verdict = classify_achievability(SurfaceModel.spheroid(1.0, 1.0), 0.7)
        assert verdict.justification == "Thm8"

    def test_spheroid_uses_nonconstant_curvature_rule(self):
        verdict = classify_achievability(SPHEROID, 1.5)
        assert verdict.verdict == "achieved"
        assert verdict.justification == "Thm7"
        assert verdict.witness["chi"] == 2
        assert verdict.witness["S_a"] == pytest.approx(3.38, rel=1e-12)

    def test_oblate_spheroid_witness_at_equator(self):
        verdict = classify_achievability(SurfaceModel.spheroid(1.3, 1.0), 1.0)
        assert verdict.justification == "Thm7"
        assert verdict.witness["point"][0] == pytest.approx(math.pi / 2.0)
        assert verdict.witness["S_a"] == pytest.approx(2.0, rel=1e-12)  # 2/c^2

    def test_flat_torus_is_inconclusive(self):
        verdict = classify_achievability(TORUS, 1.5)
        assert verdict.verdict == "inconclusive"
        assert verdict.justification == "none"
        assert verdict.witness is None

    def test_higher_dimensional_rule(self):
        # At n = 3 the exponent range is (0, 3/2).
        stub = _StubSurface("abstract", 0, 0.5, 1.5, 10.0, dimension=3)
        verdict = classify_achievability(stub, 1.2)
        assert verdict.justification == "Thm4"
        with pytest.raises(ValueError, match="q must lie"):
            classify_achievability(stub, 1.6)

    def test_dimension_comes_from_the_model(self):
        # A 2-surface never takes the n >= 3 rule.
        assert classify_achievability(SPHEROID, 1.2).justification == "Thm7"
        with pytest.raises(TypeError):
            classify_achievability(SPHEROID, 1.2, n=3)

    def test_curvature_above_threshold_rule(self):
        # chi = 0 keeps rule (iii) out; S_max above 8 pi / area fires (iv).
        area = 10.0
        stub = _StubSurface("abstract", 0, 0.0, 8.0 * math.pi / area + 1.0, area)
        verdict = classify_achievability(stub, 1.5)
        assert verdict.justification == "Thm6"
        assert verdict.witness["threshold"] == pytest.approx(8.0 * math.pi / area, rel=1e-12)

    def test_subcritical_exponent_rule(self):
        area = 100.0
        stub = _StubSurface("abstract", 0, 0.0, 0.01, area)  # below threshold
        assert classify_achievability(stub, 0.7).justification == "Thm5"
        assert classify_achievability(stub, 1.5).verdict == "inconclusive"

    def test_rejects_q_out_of_range(self):
        with pytest.raises(ValueError):
            classify_achievability(SPHEROID, 2.0)

    def test_achieved_verdicts_carry_verifiable_witnesses(self):
        # Re-check each witness against the hypothesis of its rule.
        cases = [
            (SurfaceModel.sphere(1.0), 1.5),
            (SPHEROID, 1.5),
            (SurfaceModel.spheroid(1.3, 1.0), 0.5),
        ]
        for surface, q in cases:
            verdict = classify_achievability(surface, q)
            if verdict.verdict != "achieved":
                continue
            witness = verdict.witness
            point = tuple(witness["point"])
            if verdict.justification == "Thm8":
                s_min, s_max, _ = surface.curvature_range()
                assert s_max > 0 and (s_max - s_min) <= 1e-12 * s_max
            elif verdict.justification == "Thm7":
                s_min, s_max, _ = surface.curvature_range()
                assert surface.euler_characteristic == 2
                assert s_max - s_min > 1e-12 * s_max
                assert scalar_curvature(surface, point) == pytest.approx(witness["S_a"])
            elif verdict.justification == "Thm6":
                assert witness["S_a"] > witness["threshold"]
