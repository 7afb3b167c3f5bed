import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from bvsharp import (
    DomainBuildError,
    DomainSpec,
    boundary_arc_expansion,
    boundary_arc_inside,
    boundary_mean_curvature,
    build_domain,
    cap_measure,
    cap_measure_expansion,
    fit_remainder_order,
    geometry,
    max_curvature_seed,
    optimal_epsilon,
)
from oracles import disk_arc_inside, ellipse_curvature, lens_area


class TestBuildDomain:
    def test_disk_measure(self, disk256):
        assert abs(disk256.measure - math.pi) < 1e-3

    def test_ellipse_measure(self, ellipse256):
        assert abs(ellipse256.measure - 2.0 * math.pi) < 1e-2

    @pytest.mark.parametrize(
        "spec, area",
        [
            (DomainSpec.disk(1.0), math.pi),
            (DomainSpec.ellipse(2.0, 1.0), 2.0 * math.pi),
            (
                DomainSpec.fourier(1.0, cos_coeffs=(0.0, 0.15), sin_coeffs=(0.05,)),
                math.pi + 0.5 * math.pi * (0.15**2 + 0.05**2),
            ),
        ],
    )
    def test_measure_is_exact_green_integral(self, spec, area):
        # pi r0^2 + (pi/2) sum (c^2 + s^2) is the polar area of a Fourier domain.
        assert abs(build_domain(spec, 1.0 / 64).measure - area) <= 1e-12

    def test_interior_mask_is_exact_inside_test(self, ellipse256):
        gx, gy = ellipse256.cell_centers()
        expected = (gx / 2.0) ** 2 + gy**2 < 1.0
        assert ellipse256.interior_mask.shape == (ellipse256.ny, ellipse256.nx)
        assert np.array_equal(ellipse256.interior_mask, expected)

    def test_square_rejected(self):
        with pytest.raises(DomainBuildError, match="curvature"):
            build_domain(DomainSpec(kind="square"), 1.0 / 256)

    def test_too_coarse_grid_rejected(self):
        with pytest.raises(DomainBuildError, match="too coarse"):
            build_domain(DomainSpec.disk(1.0), 0.5)

    def test_nonpositive_fourier_radius_rejected(self):
        with pytest.raises(DomainBuildError, match="positive"):
            build_domain(DomainSpec.fourier(1.0, cos_coeffs=(1.2,)), 1.0 / 256)

    @pytest.mark.parametrize("spec, name", [
        (DomainSpec.disk(math.inf), "r=inf"),
        (DomainSpec.disk(math.nan), "r=nan"),
        (DomainSpec.ellipse(2.0, -math.inf), "b=-inf"),
        (DomainSpec.ellipse(math.nan, 1.0), "a=nan"),
        (DomainSpec.fourier(math.inf), "r0=inf"),
        (DomainSpec.fourier(1.0, cos_coeffs=(0.1, math.nan)), "cos_coeffs[1]=nan"),
        (DomainSpec.fourier(1.0, sin_coeffs=(-math.inf,)), "sin_coeffs[0]=-inf"),
    ])
    def test_non_finite_parameter_named(self, spec, name):
        with pytest.raises(DomainBuildError, match=rf"{re.escape(name)} is not finite"):
            spec.validate()

    @pytest.mark.parametrize("spec, cause", [
        (DomainSpec.disk(1e308), "disk boundary curvature is not finite"),
        (DomainSpec.ellipse(1e200, 1e200), "ellipse boundary radius is not finite"),
    ])
    def test_overflowing_boundary_named(self, spec, cause):
        with pytest.raises(DomainBuildError, match=cause):
            spec.validate()

    @pytest.mark.parametrize("spec, radius", [
        (DomainSpec.disk(1e154), "1e+154"),
        (DomainSpec.ellipse(1e150, 5e149), "1e+150"),
        (DomainSpec.fourier(1e154, cos_coeffs=(1e152,)), "1.01e+154"),
    ], ids=["disk", "ellipse", "fourier"])
    def test_overflowing_curvature_names_the_radius(self, spec, radius):
        # (rho^2 + rho'^2)^(3/2) overflows to inf, so the curvature would
        # read 0 and the feature size become the radius; a closed curve has
        # max |curvature| >= 1/diameter > 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainBuildError,
                               match=rf"boundary radius {re.escape(radius)} is too large"):
                build_domain(spec, 1e150)

    def test_overflowing_cell_count_names_h(self):
        # A subnormal h passes the positivity and feature checks, but
        # (xmax - xmin) / h is inf.
        with pytest.raises(DomainBuildError, match="h=1e-320 gives a non-finite cell count"):
            build_domain(DomainSpec.disk(1.0), 1e-320)

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_non_finite_cell_size_named(self, h):
        with pytest.raises(DomainBuildError, match=rf"h={h} is not finite"):
            build_domain(DomainSpec.disk(1.0), h)

    def test_interior_mask_is_built_on_first_read(self):
        domain = build_domain(DomainSpec.disk(1.0), 1.0 / 64)
        assert "interior_mask" not in domain.__dict__
        assert domain.interior_mask is domain.interior_mask
        assert "interior_mask" in domain.__dict__

    def test_curvature_sampled_once(self, monkeypatch):
        # validate() and the feature size share the 4096 samples; the only
        # other evaluation is the measure's tangent on 2048 points.
        sizes = []
        radial = DomainSpec._radial

        def counted(self, t):
            sizes.append(np.size(t))
            return radial(self, t)

        monkeypatch.setattr(DomainSpec, "_radial", counted)
        build_domain(DomainSpec.fourier(1.0, cos_coeffs=(0.0, 0.15), sin_coeffs=(0.05,)), 1 / 64)
        assert sorted(sizes) == [2048, 4096]


def _all_pairs_squared_diameter(spec):
    """The diameter's reference: every pair of the 1024 samples, in row chunks."""
    sx, sy = spec.boundary_point(np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False))
    d2 = 0.0
    for lo in range(0, sx.size, 128):
        dx = sx[lo:lo + 128, None] - sx
        dy = sy[lo:lo + 128, None] - sy
        d2 = max(d2, float(np.max(dx * dx + dy * dy)))
    return d2


class TestDiameter:
    @pytest.mark.parametrize("spec", [DomainSpec.disk(1.0), DomainSpec.disk(0.37)],
                             ids=["unit", "small"])
    def test_disk_matches_all_pairs(self, spec):
        assert build_domain(spec, 1.0 / 64).diameter == math.sqrt(
            _all_pairs_squared_diameter(spec))

    @pytest.mark.parametrize("ratio", np.geomspace(0.3, 3.0, 13))
    def test_ellipse_matches_all_pairs(self, ratio):
        spec = DomainSpec.ellipse(float(ratio), 1.0)
        h = spec.min_feature_size() / 8.0
        assert build_domain(spec, h).diameter == math.sqrt(_all_pairs_squared_diameter(spec))

    @given(coeffs=st.lists(st.floats(-0.12, 0.12), min_size=1, max_size=3),
           split=st.integers(0, 3))
    def test_fourier_matches_all_pairs(self, coeffs, split):
        spec = DomainSpec.fourier(1.0, coeffs[:split], coeffs[split:])
        domain = build_domain(spec, spec.min_feature_size() / 8.0)
        assert domain.diameter == math.sqrt(_all_pairs_squared_diameter(spec))


def _reference_radial(spec, t):
    """(rho, rho', rho''), each from its own formula, every trigonometric
    value taken where it is used: the reference for `DomainSpec._radial`."""
    t = np.asarray(t, dtype=float)
    if spec.kind == "disk":
        return spec.r, np.zeros_like(t), np.zeros_like(t)
    if spec.kind == "ellipse":
        rho = spec.a * spec.b / np.hypot(spec.b * np.cos(t), spec.a * np.sin(t))
        spread = spec.a * spec.a - spec.b * spec.b
        d0 = spec.b * spec.b + spread * np.sin(t) ** 2
        d1 = spread * np.sin(2.0 * t) / d0
        d2 = 2.0 * spread * np.cos(2.0 * t) / d0
        return rho, -0.5 * rho * d1, rho * (0.75 * d1 * d1 - 0.5 * d2)
    rho = np.full_like(t, spec.r0)
    for k, c in enumerate(spec.cos_coeffs, start=1):
        rho = rho + c * np.cos(k * t)
    for k, s in enumerate(spec.sin_coeffs, start=1):
        rho = rho + s * np.sin(k * t)
    d1, d2 = np.zeros_like(t), np.zeros_like(t)
    for k, c in enumerate(spec.cos_coeffs, start=1):
        d1 = d1 - c * k * np.sin(k * t)
        d2 = d2 - c * k * k * np.cos(k * t)
    for k, s in enumerate(spec.sin_coeffs, start=1):
        d1 = d1 + s * k * np.cos(k * t)
        d2 = d2 - s * k * k * np.sin(k * t)
    return rho, d1, d2


RADIAL_SHAPES = [
    DomainSpec.disk(1.3),
    DomainSpec.ellipse(2.4, 1.0),
    DomainSpec.fourier(1.0, cos_coeffs=(0.0, 0.15), sin_coeffs=(0.05,)),
]


class TestRadialModel:
    @pytest.mark.parametrize("a, b", [(2.0, 1.0), (2.4, 1.0), (1.0, 3.0)])
    def test_ellipse_curvature_matches_parametric_oracle(self, a, b):
        spec = DomainSpec.ellipse(a, b)
        for t in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
            phi = math.atan2(b * math.sin(t), a * math.cos(t))
            assert float(spec.curvature(phi)) == pytest.approx(
                ellipse_curvature(a, b, t), rel=1e-12
            )

    @pytest.mark.parametrize("spec", RADIAL_SHAPES, ids=lambda s: s.kind)
    def test_radial_derivatives_match_central_differences(self, spec):
        # Steps balance truncation against rounding: errors stay below 1e-8
        # and 1e-6 on these shapes, whose rho'' reaches 11.4 (the ellipse).
        t = np.linspace(0.0, 2.0 * math.pi, 97)
        _, d1, d2 = spec._radial(t)
        assert d1.shape == d2.shape == t.shape
        step = 1e-5
        central = (spec._rho(t + step) - spec._rho(t - step)) / (2.0 * step)
        np.testing.assert_allclose(d1, central, rtol=0.0, atol=1e-7)
        step = 1e-4
        second = (spec._rho(t + step) - 2.0 * spec._rho(t) + spec._rho(t - step)) / step**2
        np.testing.assert_allclose(d2, second, rtol=0.0, atol=1e-5)

    @pytest.mark.parametrize("spec", RADIAL_SHAPES + [
        DomainSpec.fourier(0.9, cos_coeffs=(0.02, -0.05, 0.01)),
        DomainSpec.fourier(1.1, sin_coeffs=(0.03, 0.0, -0.02, 0.01)),
    ], ids=["disk", "ellipse", "fourier", "cos-only", "sin-only"])
    def test_radial_equals_separate_formulas(self, spec):
        # One trigonometric pass gives the bits of the separate formulas.
        t = np.random.default_rng(5).uniform(-4.0 * math.pi, 4.0 * math.pi, 4099)
        for point in (t, float(t[0])):
            got, want = spec._radial(point), _reference_radial(spec, point)
            for a, b in zip(got, want):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @pytest.mark.parametrize("spec", RADIAL_SHAPES, ids=lambda s: s.kind)
    def test_boundary_param_inverts_boundary_point(self, spec):
        phi = np.linspace(-math.pi, math.pi, 129)[1:]
        np.testing.assert_allclose(
            spec.boundary_param(*spec.boundary_point(phi)), phi, rtol=0.0, atol=1e-14
        )

    def test_ellipse_boundary_points_lie_on_the_ellipse(self):
        spec = DomainSpec.ellipse(2.4, 1.0)
        x, y = spec.boundary_point(np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False))
        np.testing.assert_allclose((x / 2.4) ** 2 + y**2, 1.0, rtol=0.0, atol=1e-14)


class TestBoundaryCurvature:
    def test_circle_constant(self, disk256):
        for t in (0.0, 1.0, 2.5):
            p = (math.cos(t), math.sin(t))
            assert boundary_mean_curvature(disk256, p) == pytest.approx(1.0, rel=1e-12)

    def test_ellipse_vertices(self, ellipse256):
        assert boundary_mean_curvature(ellipse256, (2.0, 0.0)) == pytest.approx(
            ellipse_curvature(2.0, 1.0, 0.0), rel=1e-12
        )
        assert boundary_mean_curvature(ellipse256, (0.0, 1.0)) == pytest.approx(
            ellipse_curvature(2.0, 1.0, math.pi / 2.0), rel=1e-10
        )
        # a/b^2 and b/a^2 in closed form
        assert ellipse_curvature(2.0, 1.0, 0.0) == pytest.approx(2.0)
        assert ellipse_curvature(2.0, 1.0, math.pi / 2.0) == pytest.approx(0.25)

    def test_off_boundary_point_rejected(self, disk256):
        with pytest.raises(ValueError, match="boundary"):
            boundary_mean_curvature(disk256, (0.5, 0.0))


class TestMaxCurvatureSeed:
    def test_circle_tie_breaks_to_smallest_parameter(self, disk256):
        seed = max_curvature_seed(disk256)
        assert seed.param == 0.0
        assert seed.point == pytest.approx((1.0, 0.0))
        assert seed.curvature == pytest.approx(1.0)
        assert seed.curvature_lower_bound == pytest.approx(0.5, rel=1e-3)
        assert seed.curvature >= seed.curvature_lower_bound

    def test_ellipse_finds_high_curvature_vertex(self, ellipse256):
        seed = max_curvature_seed(ellipse256)
        assert seed.curvature == pytest.approx(2.0, rel=1e-9)
        assert seed.point == pytest.approx((2.0, 0.0), abs=1e-6)
        assert seed.diameter == pytest.approx(4.0, rel=1e-4)
        assert seed.curvature_lower_bound == pytest.approx(0.25, rel=1e-3)


class TestCapMeasure:
    def test_disk_cap_matches_lens_oracle(self, disk256):
        cap = cap_measure(disk256, (1.0, 0.0), 0.2)
        oracle = lens_area(1.0, 0.2, 1.0)
        assert oracle == pytest.approx(0.06016251112712917, abs=1e-15)
        assert cap == pytest.approx(oracle, rel=1e-6)

    def test_disk_cap_matches_lens_oracle_to_rounding(self, disk256):
        # Below eps ~ 0.05 the oracle itself loses digits to cancellation.
        for eps in (0.1, 0.2, 0.5, 1.0, 1.5):
            cap = cap_measure(disk256, (1.0, 0.0), eps)
            assert cap == pytest.approx(lens_area(1.0, eps, 1.0), rel=1e-12)

    def test_circle_inside_domain_gives_full_disk(self, disk256):
        assert cap_measure(disk256, (0.1, -0.2), 0.3) == pytest.approx(
            math.pi * 0.09, rel=1e-15, abs=0
        )

    def test_domain_inside_ball_gives_measure(self, disk256):
        assert cap_measure(disk256, (0.3, 0.1), 2.5) == disk256.measure

    def test_disjoint_ball_gives_zero(self, ellipse256):
        assert cap_measure(ellipse256, (2.5, 0.5), 0.3) == 0.0

    def test_quarter_turn_invariance_on_fourier_domain(self):
        # rho(t - pi/2) has coefficients (c_k cos(k pi/2) - s_k sin(k pi/2),
        # c_k sin(k pi/2) + s_k cos(k pi/2)): exact in floating point.
        cos_coeffs, sin_coeffs = (0.04, 0.12, -0.03), (0.05, 0.0, 0.02)
        quarter = ((1, 0), (0, 1), (-1, 0), (0, -1))
        turned_cos = tuple(c * quarter[k % 4][0] - s * quarter[k % 4][1]
                           for k, (c, s) in enumerate(zip(cos_coeffs, sin_coeffs), start=1))
        turned_sin = tuple(c * quarter[k % 4][1] + s * quarter[k % 4][0]
                           for k, (c, s) in enumerate(zip(cos_coeffs, sin_coeffs), start=1))
        domain = build_domain(DomainSpec.fourier(1.0, cos_coeffs, sin_coeffs), 1.0 / 64)
        turned = build_domain(DomainSpec.fourier(1.0, turned_cos, turned_sin), 1.0 / 64)
        for t in (0.3, 2.0, 4.4):
            bx, by = domain.spec.boundary_point(t)
            point = (float(bx), float(by))
            for eps in (0.1, 0.4, 0.9):
                cap = cap_measure(domain, point, eps)
                assert cap_measure(turned, (-point[1], point[0]), eps) == pytest.approx(
                    cap, rel=1e-12
                )

    def test_saturation_at_large_radius(self, disk256):
        assert cap_measure(disk256, (1.0, 0.0), 2.5) == pytest.approx(math.pi, rel=1e-5)

    def test_monotone_in_radius(self, disk256):
        radii = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.5, 3.0]
        caps = [cap_measure(disk256, (1.0, 0.0), eps) for eps in radii]
        assert all(b >= a - 1e-9 for a, b in zip(caps, caps[1:]))
        assert caps[-1] == pytest.approx(math.pi, rel=1e-5)

    def test_rotation_invariance_on_disk(self, disk256):
        caps = []
        for ang in (0.0, math.pi / 4.0, 1.2345, 2.0):
            a = (math.cos(ang), math.sin(ang))
            caps.append(cap_measure(disk256, a, 0.2))
        assert max(caps) - min(caps) <= 1e-5 * min(caps)

    def test_expansion_remainder_order_empirical(self, disk256):
        # |cap - two-term expansion| should vanish at order >= n+1 = 3;
        # the tolerance order is an empirical choice, not a proved bound.
        radii = [0.02, 0.04, 0.08, 0.16]
        diffs = [
            abs(lens_area(1.0, eps, 1.0) - cap_measure_expansion(1.0, eps, 2))
            for eps in radii
        ]
        assert fit_remainder_order(radii, diffs) >= 3.0

    def test_quadrature_tracks_expansion_at_same_order_empirical(self, disk256):
        # Same fit, but against the quadrature itself: its 1e-5-level
        # noise must not disturb the eps^4 remainder visible here.
        radii = [0.02, 0.04, 0.08, 0.16]
        diffs = [
            abs(cap_measure(disk256, (1.0, 0.0), eps) - cap_measure_expansion(1.0, eps, 2))
            for eps in radii
        ]
        assert fit_remainder_order(radii, diffs) >= 3.0

    def test_rejects_nonpositive_radius(self, disk256):
        with pytest.raises(ValueError):
            cap_measure(disk256, (1.0, 0.0), 0.0)

    @pytest.mark.parametrize(
        "spec_name, point",
        [("ellipse", (2.0, 0.0)), ("fourier", None)],
    )
    def test_cross_validated_by_dense_riemann_count(self, spec_name, point, ellipse256):
        # No closed form exists off the disk; a brute-force inside-count
        # on a fine lattice pins the boundary-integral value to a percent.
        if spec_name == "ellipse":
            domain = ellipse256
        else:
            domain = build_domain(
                DomainSpec.fourier(1.0, cos_coeffs=(0.0, 0.15), sin_coeffs=(0.05,)),
                1.0 / 128,
            )
            t = 0.7
            bx, by = domain.spec.boundary_point(t)
            point = (float(bx), float(by))
        eps = 0.25
        cap = cap_measure(domain, point, eps)

        cells = 3000
        step = 2.0 * eps / cells
        xs = point[0] - eps + (np.arange(cells) + 0.5) * step
        ys = point[1] - eps + (np.arange(cells) + 0.5) * step
        gx, gy = np.meshgrid(xs, ys)
        in_ball = (gx - point[0]) ** 2 + (gy - point[1]) ** 2 < eps * eps
        in_domain = domain.spec.is_inside(gx.ravel(), gy.ravel()).reshape(gx.shape)
        riemann = float(np.count_nonzero(in_ball & in_domain)) * step * step
        assert cap == pytest.approx(riemann, rel=0.01)


class TestCapMeasureExpansion:
    def test_flat_boundary_is_half_ball(self):
        for eps in (0.1, 0.5, 1.3):
            assert cap_measure_expansion(0.0, eps, 2) == pytest.approx(
                math.pi * eps * eps / 2.0, rel=1e-15, abs=0
            )

    def test_two_dimensional_value(self):
        oracle = math.pi * 0.04 / 2.0 * (1.0 - 2.0 * 0.2 / (3.0 * math.pi))
        assert oracle == pytest.approx(0.060165186405129197, abs=1e-15)
        assert cap_measure_expansion(1.0, 0.2, 2) == pytest.approx(oracle, rel=1e-14, abs=0)

    def test_three_dimensional_value(self):
        # (2 pi/3) eps^3 (1 - 3 eps/8): B(1/2, 1) = 2 and omega_3/2 = 2 pi/3
        oracle = (2.0 * math.pi / 3.0) * 0.008 * (1.0 - 3.0 * 0.2 / 8.0)
        assert oracle == pytest.approx(0.015498523757709645, abs=1e-15)
        assert cap_measure_expansion(1.0, 0.2, 3) == pytest.approx(oracle, rel=1e-14, abs=0)


class TestBoundaryArcInside:
    def test_disk_matches_analytic_arc(self, disk256):
        arc = boundary_arc_inside(disk256, (1.0, 0.0), 0.2)
        oracle = disk_arc_inside(0.2)
        assert oracle == pytest.approx(0.5882515622533347, abs=1e-15)
        assert arc == pytest.approx(oracle, rel=1e-6)

    def test_flat_boundary_expansion_is_half_circle(self):
        for eps in (0.05, 0.2):
            assert boundary_arc_expansion(0.0, eps, 2) == pytest.approx(
                math.pi * eps, rel=1e-15, abs=0
            )

    def test_nearly_flat_boundary_approaches_half_circle(self):
        # At curvature H = 1/64 the first-order deficit is eps^2/r, about
        # 0.25% here; the arc must sit within that of the flat value.
        big = build_domain(DomainSpec.disk(64.0), 0.5)
        arc = boundary_arc_inside(big, (64.0, 0.0), 0.5)
        assert arc == pytest.approx(disk_arc_inside(0.5, r=64.0), rel=1e-9)
        assert arc == pytest.approx(math.pi * 0.5, rel=3e-3)

    def test_expansion_remainder_order_empirical(self):
        # arc = pi eps - eps^2 + O(eps^3) on the unit disk (H = 1)
        radii = [0.02, 0.05, 0.1, 0.2]
        diffs = [
            abs(disk_arc_inside(eps) - boundary_arc_expansion(1.0, eps, 2))
            for eps in radii
        ]
        assert fit_remainder_order(radii, diffs) >= 3.0

    def test_huge_radius_gives_zero(self, disk256):
        assert boundary_arc_inside(disk256, (1.0, 0.0), 5.0) == 0.0


CATALOG = [
    pytest.param(DomainSpec.disk(1.0), 1.0 / 256, id="disk"),
    pytest.param(DomainSpec.ellipse(2.0, 1.0), 1.0 / 128, id="ellipse"),
    pytest.param(DomainSpec.fourier(1.0, cos_coeffs=(0.0, 0.15), sin_coeffs=(0.05,)), 1.0 / 128,
                 id="fourier"),
]


def _exhaustive_bisection(spec, ax, ay, eps):
    """The crossing finder's scan, then bisection of every bracket until the
    midpoint equals an endpoint: the reference for the Newton polish."""

    def negative(theta):
        return spec.radial_gap(ax + eps * np.cos(theta), ay + eps * np.sin(theta)) < 0.0

    thetas = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    signs = negative(thetas)
    flips = np.nonzero(signs != np.roll(signs, -1))[0]
    lo = thetas[flips]
    hi = lo + 2.0 * math.pi / 4096
    lo_inside = signs[flips]
    mid = 0.5 * (lo + hi)
    while not np.all((mid == lo) | (mid == hi)):
        same = negative(mid) == lo_inside
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
        mid = 0.5 * (lo + hi)
    return np.sort(mid)


def _reference_crossings(spec, ax, ay, eps):
    """The crossing finder with every finish bracket bisected by gap calls
    and every arc's side read at its midpoint, on the separate radial
    formulas: the reference for the tabulated finish and the inside flags."""

    def gap(theta):
        return spec.radial_gap(ax + eps * np.cos(theta), ay + eps * np.sin(theta))

    def gap_and_slope(theta):
        cos, sin = np.cos(theta), np.sin(theta)
        px, py = ax + eps * cos, ay + eps * sin
        r = np.hypot(px, py)
        phi = np.arctan2(py, px)
        rho, drho, _ = _reference_radial(spec, phi)
        slope = eps * ((py * cos - px * sin) / r - drho * (px * cos + py * sin) / (r * r))
        return r - rho, slope, r

    thetas = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    gaps = np.asarray(gap(thetas))
    signs = gaps < 0.0
    flips = np.nonzero(signs != np.roll(signs, -1))[0]
    if flips.size == 0:
        return flips.astype(float), signs[:1].copy()
    lo = thetas[flips]
    hi = lo + 2.0 * math.pi / 4096
    lo_inside = signs[flips]
    g_lo, g_hi = gaps[flips], gaps[(flips + 1) % 4096]
    t = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
    active = np.ones(flips.size, dtype=bool)
    for _ in range(8):
        g, slope, r = gap_and_slope(t)
        same = (g < 0.0) == lo_inside
        lo, hi = np.where(same, t, lo), np.where(same, hi, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = g / slope
        active &= (np.abs(g) > 4.0 * np.spacing(r)) & ~(np.abs(step) < 2.0 * np.spacing(t))
        if not active.any():
            break
        newton = t - step
        newton = np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi))
        t = np.where(active, newton, t)
    if np.any(np.abs(slope) <= 1e-8 * eps):
        raise ValueError("tangential")
    width = 8.0 * np.spacing(t) + (np.abs(g) + 4.0 * np.spacing(r)) / np.abs(slope)
    near = np.asarray(gap(np.concatenate((t - width, t + width)))) < 0.0
    straddle = (near[:t.size] == lo_inside) & (near[t.size:] != lo_inside)
    lo, hi = np.where(straddle, t - width, lo), np.where(straddle, t + width, hi)
    midpoint = 0.5 * (lo + hi)
    while not np.all((midpoint == lo) | (midpoint == hi)):
        same = (np.asarray(gap(midpoint)) < 0.0) == lo_inside
        lo, hi = np.where(same, midpoint, lo), np.where(same, hi, midpoint)
        midpoint = 0.5 * (lo + hi)
    theta = np.sort(midpoint)
    following = np.append(theta[1:], theta[0] + 2.0 * math.pi)
    return theta, np.asarray(gap(0.5 * (theta + following))) < 0.0


def _same_crossings(spec, ax, ay, eps):
    """Whether `_circle_crossings` gives the reference's bits, or both raise."""
    try:
        want = _reference_crossings(spec, ax, ay, eps)
    except ValueError:
        with pytest.raises(ValueError, match="tangentially"):
            geometry._circle_crossings(spec, ax, ay, eps)
        return True
    got = geometry._circle_crossings(spec, ax, ay, eps)
    return all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(got, want))


@st.composite
def _radial_specs(draw):
    """Valid ellipses and Fourier shapes; a Fourier shape of several
    harmonics often has rho_lo <= 0 while its rho stays positive."""
    if draw(st.booleans()):
        return DomainSpec.ellipse(draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0)))
    coeffs = st.lists(st.floats(-0.4, 0.4), min_size=1, max_size=8)
    cos_coeffs, sin_coeffs = draw(coeffs), draw(coeffs)
    low = float(np.min(DomainSpec.fourier(1.0, cos_coeffs, sin_coeffs)._rho(
        np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False))))
    if low < 0.05:  # shrink the harmonics until the sampled rho is at least 0.05
        scale = 0.95 / (1.0 - low)
        cos_coeffs, sin_coeffs = [scale * c for c in cos_coeffs], [scale * c for c in sin_coeffs]
    spec = DomainSpec.fourier(draw(st.floats(0.5, 2.0)), cos_coeffs, sin_coeffs)
    try:
        spec.validate()
    except DomainBuildError:
        assume(False)
    return spec


class TestSidesByRadius:
    # A band that starts below 0: rho = 1 + 0.6 cos t + 0.6 cos 2t stays
    # above 0.32, while rho_lo = 1 - 1.2.
    @example(spec=DomainSpec.fourier(1.0, cos_coeffs=(0.6, 0.6)), cx=0.0, cy=0.0, eps=0.3)
    @given(spec=_radial_specs(), cx=st.floats(-3.0, 3.0), cy=st.floats(-3.0, 3.0),
           eps=st.floats(0.01, 4.0))
    def test_placed_samples_agree_with_radial_gap(self, spec, cx, cy, eps):
        # The scan of dB(c, eps), and points on the circles about the origin
        # whose radii are the band ends and the two thresholds.
        rho_lo, rho_hi = spec._radial_range()
        margin = geometry._BAND_MARGIN * rho_hi
        radii = np.repeat([rho_lo, rho_hi, rho_lo - margin, rho_hi + margin], 1024)
        px = np.concatenate((cx + eps * geometry._SCAN_COS, radii * geometry._SCAN_COS[:4096]))
        py = np.concatenate((cy + eps * geometry._SCAN_SIN, radii * geometry._SCAN_SIN[:4096]))
        inside, known = geometry._sides_by_radius(spec, px, py)
        negative = spec.radial_gap(px, py) < 0.0
        assert np.array_equal(inside[known], negative[known])
        assert not np.any(inside[~known])
        # A computed rho strays from the range by rounding alone, under 1e-12 rho_hi.
        rho = spec._rho(np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False))
        assert rho_lo - 1e-12 * rho_hi <= np.min(rho) and np.max(rho) <= rho_hi + 1e-12 * rho_hi


def _band_edge_circles(spec, rng):
    """Circles at the edges of the scan's radial band: centres far off
    Omega, disks B(a, eps) that contain Omega, and circles about the origin
    whose radius is an end of the band or lies just inside or outside it."""
    rho_lo, rho_hi = spec._radial_range()
    for _ in range(100):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        far = rng.uniform(2.5, 6.0) * rho_hi
        yield far * math.cos(phi), far * math.sin(phi), rng.uniform(0.05, 3.0) * rho_hi
        near = rng.uniform(0.0, 0.9) * rho_lo
        yield near * math.cos(phi), near * math.sin(phi), near + rng.uniform(1.0, 3.0) * rho_hi
    for radius in (rho_lo, rho_hi):
        for factor in (1.0 - 2e-9, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.0 + 2e-9):
            yield 1e-7 * rho_hi, -2e-7 * rho_hi, factor * radius


# Its radial band, under 3e-10 wide, is much narrower than the band margin, so
# the circle jumps from a sample placed inside to one placed outside.
NEAR_DISK = pytest.param(DomainSpec.fourier(1.0, cos_coeffs=(0.0, 1e-10), sin_coeffs=(1e-10,)),
                         1.0 / 128, id="near-disk")


class TestCrossingFinder:
    @pytest.mark.parametrize("spec, h", CATALOG + [NEAR_DISK])
    def test_equals_reference_bit_for_bit(self, spec, h):
        # Centres on the boundary and off it (the circle may miss dOmega).
        rng = np.random.default_rng(17)
        for _ in range(2000):
            bx, by = spec.boundary_point(rng.uniform(0.0, 2.0 * math.pi))
            scale = 1.0 if rng.uniform() < 0.5 else rng.uniform(0.6, 1.4)
            eps = math.exp(rng.uniform(math.log(0.005), math.log(1.5)))
            assert _same_crossings(spec, scale * float(bx), scale * float(by), eps)
        for ax, ay, eps in _band_edge_circles(spec, np.random.default_rng(19)):
            assert _same_crossings(spec, ax, ay, eps)

    @pytest.mark.parametrize("spec, h", CATALOG)
    @pytest.mark.parametrize("delta, tables", [(1e-13, 1), (2e-15, 1), (-3e-13, 2), (0.3, 2)],
                             ids=["loop-1e-13", "loop-2e-15", "table-near-2pi", "table"])
    def test_both_finish_paths_equal_reference(self, spec, h, delta, tables, monkeypatch):
        # The circle crosses dOmega at theta = delta.  Just above theta = 0
        # the floats are too dense to tabulate the finish bracket, which is
        # then bisected by gap calls; a crossing just below 0 is found near
        # 2 pi, where the bracket holds a few floats, as at theta = 0.3.
        bx, by = spec.boundary_point(0.7)
        eps = 0.3
        ax, ay = float(bx) - eps * math.cos(delta), float(by) - eps * math.sin(delta)
        assert _same_crossings(spec, ax, ay, eps)
        calls = []
        table = geometry._bisect_table
        monkeypatch.setattr(geometry, "_bisect_table",
                            lambda *args: calls.append(args) or table(*args))
        theta, _ = geometry._circle_crossings(spec, ax, ay, eps)
        assert theta.size == 2 and len(calls) == tables
        assert min(abs(theta - delta % (2.0 * math.pi))) <= 1e-12

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5, 1.5])
    def test_disk_roots_match_closed_form(self, eps):
        # |a + eps e(theta)| = 1 with a = (1, 0) gives cos theta = -eps / 2.
        theta, inside = geometry._circle_crossings(DomainSpec.disk(1.0), 1.0, 0.0, eps)
        root = math.acos(-eps / 2.0)
        np.testing.assert_allclose(theta, [root, 2.0 * math.pi - root], rtol=0.0, atol=1e-14)
        assert inside.tolist() == [True, False]

    @pytest.mark.parametrize("spec, h", CATALOG)
    def test_matches_exhaustive_bisection(self, spec, h):
        # Where the sign of the rounded gap is monotone near a root, both
        # methods return the same float.  Where rounding makes it flicker,
        # any sign change is as good, and they may pick different ones
        # within the rounding band ulp(r) / |slope|.
        rng = np.random.default_rng(7)
        equal = total = 0
        for _ in range(200):
            bx, by = spec.boundary_point(rng.uniform(0.0, 2.0 * math.pi))
            ax, ay = float(bx), float(by)
            eps = math.exp(rng.uniform(math.log(0.01), 0.0))
            theta, _ = geometry._circle_crossings(spec, ax, ay, eps)
            reference = _exhaustive_bisection(spec, ax, ay, eps)
            assert theta.shape == reference.shape
            _, slope, r = geometry._gap_and_slope(spec, ax, ay, eps, reference)
            band = 2.0 * np.spacing(reference) + 4.0 * np.spacing(r) / np.abs(slope)
            assert np.all(np.abs(theta - reference) <= band)
            # Each root is a sign change between neighbouring floats.
            gap = spec.radial_gap(ax + eps * np.cos(theta), ay + eps * np.sin(theta)) < 0.0
            before = np.nextafter(theta, -np.inf)
            after = np.nextafter(theta, np.inf)
            gap_before = spec.radial_gap(ax + eps * np.cos(before), ay + eps * np.sin(before))
            gap_after = spec.radial_gap(ax + eps * np.cos(after), ay + eps * np.sin(after))
            assert np.all((gap != (gap_before < 0.0)) | (gap != (gap_after < 0.0)))
            equal += int(np.sum(theta == reference))
            total += theta.size
        assert equal >= 0.97 * total

    @pytest.mark.parametrize("spec, h", CATALOG)
    def test_cap_derivative_is_inside_arc(self, spec, h):
        # Coarea: d|Omega n B(a, eps)|/d eps is the length of dB(a, eps) n Omega.
        domain = build_domain(spec, h)
        rng = np.random.default_rng(11)
        for _ in range(20):
            bx, by = spec.boundary_point(rng.uniform(0.0, 2.0 * math.pi))
            scale = rng.uniform(0.7, 1.3)
            a = (scale * float(bx), scale * float(by))
            eps = math.exp(rng.uniform(math.log(0.05), 0.0))
            step = 1e-5 * eps
            slope = (cap_measure(domain, a, eps + step)
                     - cap_measure(domain, a, eps - step)) / (2.0 * step)
            assert slope == pytest.approx(boundary_arc_inside(domain, a, eps), rel=1e-7, abs=1e-12)

    @pytest.mark.parametrize("spec, h", CATALOG)
    def test_gap_evaluations_per_scan(self, spec, h, monkeypatch):
        # The scans of one radius search: 62 gap evaluations each with a
        # 60-step bisection, about 10 with the Newton polish and a finish
        # bisected by gap calls, 4 or 5 with the tabulated finish (the scan,
        # 2 or 3 Newton steps, the table).  The cap and the arc of a
        # quotient both ask for the circle's measures, and only the first
        # request scans it.
        geometry._circle_measures.cache_clear()
        domain = build_domain(spec, h)
        calls = []
        per_scan = []
        radial_gap, gap_and_slope = DomainSpec.radial_gap, geometry._gap_and_slope
        crossings = geometry._circle_crossings

        def counted(function):
            def wrapper(*args):
                calls.append(function.__name__)
                return function(*args)
            return wrapper

        def scan(*args):
            calls.clear()
            result = crossings(*args)
            per_scan.append(list(calls))
            return result

        monkeypatch.setattr(DomainSpec, "radial_gap", counted(radial_gap))
        monkeypatch.setattr(geometry, "_gap_and_slope", counted(gap_and_slope))
        monkeypatch.setattr(geometry, "_circle_crossings", scan)
        optimal_epsilon(domain, max_curvature_seed(domain).point, 1.0)
        assert len(per_scan) == 58
        assert 0 < min(map(len, per_scan)) and max(map(len, per_scan)) <= 5
        # The scan, samples placed by |p|^2 and the rest alike, is one gap call.
        assert all(names[:2] == ["radial_gap", "_gap_and_slope"] for names in per_scan)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="two crossings inside one scan step are missed silently; "
                              "ROADMAP item 10 (double crossings)")
    def test_two_crossings_in_one_scan_step(self, disk256):
        # dB(a, eps) leaves the unit disk over 1.8e-4 rad around the angle of
        # a, pi / 4096, which lies midway between two scan samples; the arc
        # read is the whole circle, 3.14159266, against 3.14150322.
        alpha = math.pi / 4096
        eps = 0.5 + 1e-9
        # |a + eps e(theta)| > 1 where cos(theta - alpha) > (0.75 - eps^2) / eps.
        outside = 2.0 * math.acos((0.75 - eps * eps) / eps)
        arc = boundary_arc_inside(disk256, (0.5 * math.cos(alpha), 0.5 * math.sin(alpha)), eps)
        assert arc == pytest.approx(eps * (2.0 * math.pi - outside), rel=1e-9, abs=0)

    def test_tangential_crossing_raises(self, disk256):
        # dB((0.5, 0), 0.5) touches the unit circle from inside at theta = 0,
        # which is a scan sample.  A failed scan is not memoized, so a
        # repeated call raises again.
        for function in (cap_measure, boundary_arc_inside, cap_measure):
            with pytest.raises(ValueError, match=r"eps=0\.5 centred at \(0\.5, 0\.0\).*theta="):
                function(disk256, (0.5, 0.0), 0.5)

    @pytest.mark.parametrize("spec, h", CATALOG)
    def test_memoized_scan_gives_the_same_bits(self, spec, h):
        domain = build_domain(spec, h)
        rng = np.random.default_rng(13)
        for _ in range(20):
            bx, by = spec.boundary_point(rng.uniform(0.0, 2.0 * math.pi))
            a = (float(bx), float(by))
            eps = math.exp(rng.uniform(math.log(0.01), 0.0))
            geometry._circle_measures.cache_clear()
            cold = (cap_measure(domain, a, eps), boundary_arc_inside(domain, a, eps))
            geometry._circle_measures.cache_clear()
            arc = boundary_arc_inside(domain, a, eps)
            warm = (cap_measure(domain, a, eps), boundary_arc_inside(domain, a, eps))
            assert geometry._circle_measures.cache_info().misses == 1
            assert warm == cold and arc == cold[1]

    @pytest.mark.parametrize("a, eps", [((1.0, 0.0), 0.3), ((0.0, 0.0), 0.3)],
                             ids=["crossing", "inside"])
    def test_memoized_arrays_are_read_only(self, a, eps):
        theta, inside = geometry._circle_crossings(DomainSpec.disk(1.0), a[0], a[1], eps)
        for array in (theta, inside):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = array
        # Neither is a view: the circle inside the disk, without a
        # crossing, gets a copy of the scan's first sign.
        assert theta.base is None and inside.base is None

    @pytest.mark.parametrize("name", ["_SCAN_THETAS", "_SCAN_COS", "_SCAN_SIN", "_GL_NODES",
                                      "_GL_WEIGHTS", "_PANEL_EDGES"])
    def test_shared_constants_are_read_only(self, name):
        # `surfaces` shares the panel rule, so a stray write would corrupt
        # both modules.
        array = getattr(geometry, name)
        with pytest.raises(ValueError, match="read-only"):
            array[...] = array

    @pytest.mark.parametrize("function", [cap_measure, boundary_arc_inside])
    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_radius_raises(self, disk256, function, eps):
        with pytest.raises(ValueError, match="radius eps=.* is not finite"):
            function(disk256, (1.0, 0.0), eps)

    @pytest.mark.parametrize("function", [cap_measure, boundary_arc_inside])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_centre_raises(self, disk256, function, value, axis):
        centre = [1.0, 0.0]
        centre[axis] = value
        with pytest.raises(ValueError, match="non-finite coordinate"):
            function(disk256, tuple(centre), 0.2)
