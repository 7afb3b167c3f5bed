import inspect
import itertools
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvsharp import (
    DomainBuildError,
    DomainSpec,
    boundary_arc_expansion,
    boundary_arc_inside,
    build_domain,
    cap_measure,
    cap_measure_expansion,
    fit_remainder_order,
    geometry,
    max_curvature_seed,
    optimal_epsilon,
    two_valued_quotient_exact,
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

    def test_square_rejected_when_made(self):
        with pytest.raises(DomainBuildError, match="corners have undefined curvature"):
            DomainSpec(kind="square")

    def test_unknown_kind_rejected_when_made(self):
        # A hexagon used to be accepted here and to fail only at build time.
        with pytest.raises(ValueError, match="unknown shape kind 'hexagon'"):
            DomainSpec(kind="hexagon")

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("kind, name, named", [
        ("disk", "r", lambda v: DomainSpec.disk(v)),
        ("ellipse", "a", lambda v: DomainSpec.ellipse(v, 1.0)),
        ("ellipse", "b", lambda v: DomainSpec.ellipse(1.0, v)),
        ("fourier", "r0", lambda v: DomainSpec.fourier(v)),
    ])
    def test_both_constructors_reject_with_one_message(self, kind, name, named, value):
        messages = []
        for make in (named, lambda v: DomainSpec(kind=kind, **{name: v})):
            with pytest.raises(ValueError) as info:
                make(value)
            assert not isinstance(info.value, DomainBuildError)
            messages.append(str(info.value))
        rule = "finite" if not math.isfinite(value) else "positive"
        assert messages == [f"{kind} {name} must be {rule}, got {value}"] * 2

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["cos_coeffs", "sin_coeffs"])
    def test_both_constructors_reject_a_non_finite_coefficient(self, name, value):
        messages = []
        for make in (lambda c: DomainSpec.fourier(1.0, **{name: (0.1, c)}),
                     lambda c: DomainSpec(kind="fourier", **{name: (0.1, c)})):
            with pytest.raises(ValueError) as info:
                make(value)
            messages.append(str(info.value))
        assert messages == [f"fourier {name}[1] must be finite, got {value}"] * 2

    def test_cell_size_must_be_positive(self):
        with pytest.raises(ValueError, match="h must be positive, got 0.0"):
            build_domain(DomainSpec.disk(1.0), 0.0)

    def test_too_coarse_grid_rejected(self):
        with pytest.raises(DomainBuildError, match="too coarse"):
            build_domain(DomainSpec.disk(1.0), 0.5)

    def test_nonpositive_fourier_radius_rejected(self):
        with pytest.raises(DomainBuildError, match="positive"):
            build_domain(DomainSpec.fourier(1.0, cos_coeffs=(1.2,)), 1.0 / 256)

    @pytest.mark.parametrize("make, message", [
        (lambda: DomainSpec.disk(math.inf), "disk r must be finite, got inf"),
        (lambda: DomainSpec.disk(math.nan), "disk r must be finite, got nan"),
        (lambda: DomainSpec.ellipse(2.0, -math.inf), "ellipse b must be finite, got -inf"),
        (lambda: DomainSpec.ellipse(math.nan, 1.0), "ellipse a must be finite, got nan"),
        (lambda: DomainSpec.fourier(math.inf), "fourier r0 must be finite, got inf"),
        (lambda: DomainSpec.fourier(1.0, cos_coeffs=(0.1, math.nan)),
         "fourier cos_coeffs[1] must be finite, got nan"),
        (lambda: DomainSpec.fourier(1.0, sin_coeffs=(-math.inf,)),
         "fourier sin_coeffs[0] must be finite, got -inf"),
    ])
    def test_non_finite_parameter_named(self, make, message):
        # The spec checks its parameters when it is made.
        with pytest.raises(ValueError, match=re.escape(message)):
            make()

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
        with pytest.raises(ValueError, match=rf"h must be finite, got {h}"):
            build_domain(DomainSpec.disk(1.0), h)

    def test_interior_mask_is_built_on_first_read(self):
        domain = build_domain(DomainSpec.disk(1.0), 1.0 / 64)
        assert "interior_mask" not in domain.__dict__
        assert domain.interior_mask is domain.interior_mask
        assert "interior_mask" in domain.__dict__

    def test_curvature_sampled_once(self, monkeypatch):
        # validate(), the measure, the diameter, the seed's grid and the
        # centre's table share the 4096 samples: a build, its seed and a
        # radius search take rho'' there once, and at single angles for the
        # seed's polish.  Every crossing frame takes rho and rho' alone.
        # Single angles go in as floats, never as small arrays, whose numpy
        # calls cost more than the arithmetic.
        for memo in (geometry._boundary_samples, geometry._centre_table,
                     geometry._circle_measures):
            memo.cache_clear()
        calls, frames = [], []
        radial, frame = DomainSpec._radial, DomainSpec._boundary_frame

        def counted(self, t, second=True, **kwargs):
            calls.append((t, second))
            return radial(self, t, second, **kwargs)

        def counted_frame(self, t):
            frames.append(t)
            return frame(self, t)

        monkeypatch.setattr(DomainSpec, "_radial", counted)
        monkeypatch.setattr(DomainSpec, "_boundary_frame", counted_frame)
        domain = build_domain(
            DomainSpec.fourier(1.0, cos_coeffs=(0.0, 0.15), sin_coeffs=(0.05,)), 1 / 64)
        optimal_epsilon(domain, max_curvature_seed(domain).point, 1.0)
        sizes = [(np.size(t), second) for t, second in calls]
        assert [size for size, second in sizes if second and size > 1] == [4096]
        assert 0 < max(size for size, second in sizes if not second) < 1024
        for inputs in ([t for t, _ in calls], frames):
            assert all(isinstance(t, float) or np.size(t) >= 256 for t in inputs)
            assert any(isinstance(t, float) for t in inputs)


def _all_pairs_squared_diameter(spec):
    """The largest squared distance between two of 1024 boundary samples:
    every pair, in row chunks against the samples from the chunk on (a
    pair's squared distance has the same bits in either order)."""
    sx, sy = spec.boundary_point(np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False))
    d2 = 0.0
    for lo in range(0, sx.size, 128):
        dx = sx[lo:lo + 128, None] - sx[lo:]
        dy = sy[lo:lo + 128, None] - sy[lo:]
        d2 = max(d2, float(np.max(dx * dx + dy * dy)))
    return d2


def _turned_quarter(turn):
    """A near-circular shape in one of its four quarter turns, as the sweep
    benchmark runs it: (c1, c2; s1) -> (-s1, -c2; c1), exact in floats."""
    (c1, c2), (s1,) = (0.0028371899280616175, 0.10811128711822446), (-0.0854016929472879,)
    for _ in range(turn):
        (c1, c2), (s1,) = (-s1, -c2), (c1,)
    return DomainSpec.fourier(1.0, (c1, c2), (s1,))


def _valid_fourier_shapes(count, seed):
    """Seeded valid Fourier shapes, each just validated: up to 8 harmonics,
    sum of |h_k| up to 3 r0."""
    rng = np.random.default_rng(seed)
    while count:
        r0, k = float(rng.uniform(0.5, 2.0)), int(rng.integers(1, 9))
        coeffs = rng.normal(size=(2, k))
        coeffs *= rng.uniform(0.0, 3.0) * r0 / np.sum(np.hypot(*coeffs))
        spec = DomainSpec.fourier(r0, *coeffs)
        try:
            spec.validate()
        except DomainBuildError:
            continue
        count -= 1
        yield spec


class TestDiameter:
    # The diameter is the closed-form bound 2 R0 of `_radial_bounds`.  The
    # samples round on their own, so the all-pairs reference may exceed it
    # by an ulp: on the disk of radius 0.37 it reads 2 r plus one ulp.
    @staticmethod
    def _bounds_all_pairs(spec):
        diameter = build_domain(spec, spec.validate() / 8.0).diameter
        assert diameter >= math.sqrt(_all_pairs_squared_diameter(spec)) * (1.0 - 2.0 ** -51)

    @pytest.mark.parametrize("spec", [DomainSpec.disk(0.37), DomainSpec.disk(1e-3),
                                      DomainSpec.disk(1e3), *map(_turned_quarter, range(4)),
                                      DomainSpec.fourier(1.0, (0.0, 0.1))],
                             ids=["small", "tiny", "huge", *(f"turn-{k}" for k in range(4)),
                                  "even"])
    def test_bound_covers_all_pairs(self, spec):
        # "even": rho = 1 + 0.1 cos 2t reaches R0 at two antipodes, so D = 2 R0.
        self._bounds_all_pairs(spec)

    @settings(max_examples=20)
    @given(coeffs=st.lists(st.floats(-0.12, 0.12), min_size=1, max_size=3),
           split=st.integers(0, 3), r0=st.sampled_from([0.5, 1.0, 2.0]))
    def test_fourier_bound_covers_all_pairs(self, coeffs, split, r0):
        coeffs = [r0 * c for c in coeffs]
        self._bounds_all_pairs(DomainSpec.fourier(r0, coeffs[:split], coeffs[split:]))

    def test_unit_disk_is_exact(self):
        spec = DomainSpec.disk(1.0)
        assert build_domain(spec, 1.0 / 64).diameter == 2.0 == math.sqrt(
            _all_pairs_squared_diameter(spec))

    @pytest.mark.parametrize("ratio", [*np.geomspace(0.3, 3.0, 13), 0.1, 0.2, 5.0, 10.0])
    def test_ellipse_matches_all_pairs(self, ratio):
        spec = DomainSpec.ellipse(float(ratio), 1.0)
        h = spec.validate() / 8.0
        assert build_domain(spec, h).diameter == math.sqrt(_all_pairs_squared_diameter(spec))

    @pytest.mark.parametrize("spec", [
        DomainSpec.disk(1.0), DomainSpec.ellipse(2.0, 1.0),
        DomainSpec.fourier(1.0, cos_coeffs=(0.0, 0.15), sin_coeffs=(0.05,))],
        ids=["disk", "ellipse", "fourier"])
    def test_cap_covering_the_domain_is_rejected(self, spec):
        # A cap is a strict subset of Omega or no cap: past the diameter it
        # covers Omega, and `_two_valued_quotient` rejects it with the
        # rule's name.
        domain = build_domain(spec, 1.0 / 64)
        centre = max_curvature_seed(domain).point
        eps = 1.01 * math.sqrt(_all_pairs_squared_diameter(spec))
        with pytest.raises(ValueError, match="the cap must be a strict subset of the domain"):
            two_valued_quotient_exact(domain, centre, eps, 1.0)

    def test_bracket_end_stays_inside_from_every_boundary_point(self):
        # The radius search ends at diameter / 4 = R0 / 2.  From every 16th
        # of the 1024 boundary samples, the farthest sample lies beyond it,
        # so no cap of the bracket covers Omega.  This is proved for sum
        # |h_k| < r0, where R0 / 2 < r0 <= D / 2; the draws go to 3 r0.
        t = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
        for spec in _valid_fourier_shapes(100, 53):
            sx, sy = spec.boundary_point(t)
            d2 = np.square(sx[::16, None] - sx) + np.square(sy[::16, None] - sy)
            end = build_domain(spec, spec.validate() / 8.0).diameter / 4.0
            assert end < math.sqrt(float(np.min(np.max(d2, axis=1)))), spec


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
FORMULA_SHAPES = pytest.mark.parametrize("spec", RADIAL_SHAPES + [
    DomainSpec.fourier(0.9, cos_coeffs=(0.02, -0.05, 0.01)),
    DomainSpec.fourier(1.1, sin_coeffs=(0.03, 0.0, -0.02, 0.01)),
], ids=["disk", "ellipse", "fourier", "cos-only", "sin-only"])


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

        def rho(s):
            return spec._radial(s, second=False)[0]

        step = 1e-5
        central = (rho(t + step) - rho(t - step)) / (2.0 * step)
        np.testing.assert_allclose(d1, central, rtol=0.0, atol=1e-7)
        step = 1e-4
        second = (rho(t + step) - 2.0 * rho(t) + rho(t - step)) / step**2
        np.testing.assert_allclose(d2, second, rtol=0.0, atol=1e-5)

    @FORMULA_SHAPES
    def test_radial_equals_separate_formulas(self, spec):
        # One trigonometric pass gives the bits of the separate formulas.
        t = np.random.default_rng(5).uniform(-4.0 * math.pi, 4.0 * math.pi, 4099)
        for point in (t, float(t[0])):
            got, want = spec._radial(point), _reference_radial(spec, point)
            for a, b in zip(got, want):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @FORMULA_SHAPES
    def test_point_and_gap_equal_separate_formulas(self, spec):
        # The boundary point and the radial gap read rho from `_radial`,
        # with the bits of rho's own formula.
        rng = np.random.default_rng(7)
        t = rng.uniform(-4.0 * math.pi, 4.0 * math.pi, 4099)
        px, py = rng.uniform(-3.0, 3.0, (2, 4099))
        for point, x, y in ((t, px, py), (float(t[0]), float(px[0]), float(py[0]))):
            rho = _reference_radial(spec, point)[0]
            want = (rho * np.cos(point), rho * np.sin(point),
                    np.hypot(x, y) - _reference_radial(spec, np.arctan2(y, x))[0])
            got = (*spec.boundary_point(point), spec.radial_gap(x, y))
            for a, b in zip(got, want):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @pytest.mark.parametrize("spec", RADIAL_SHAPES, ids=lambda s: s.kind)
    def test_boundary_param_inverts_boundary_point(self, spec):
        phi = np.linspace(-math.pi, math.pi, 129)[1:]
        x, y = spec.boundary_point(phi)
        np.testing.assert_allclose(np.arctan2(y, x), phi, rtol=0.0, atol=1e-14)

    def test_ellipse_boundary_points_lie_on_the_ellipse(self):
        spec = DomainSpec.ellipse(2.4, 1.0)
        x, y = spec.boundary_point(np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False))
        np.testing.assert_allclose((x / 2.4) ** 2 + y**2, 1.0, rtol=0.0, atol=1e-14)


class TestBoundaryCurvature:
    def test_circle_constant(self, disk256):
        for t in (0.0, 1.0, 2.5):
            assert disk256.spec.curvature(t) == pytest.approx(1.0, rel=1e-12)

    def test_ellipse_vertices(self, ellipse256):
        assert ellipse256.spec.curvature(0.0) == pytest.approx(
            ellipse_curvature(2.0, 1.0, 0.0), rel=1e-12
        )
        assert ellipse256.spec.curvature(math.pi / 2.0) == pytest.approx(
            ellipse_curvature(2.0, 1.0, math.pi / 2.0), rel=1e-10
        )
        # a/b^2 and b/a^2 in closed form
        assert ellipse_curvature(2.0, 1.0, 0.0) == pytest.approx(2.0)
        assert ellipse_curvature(2.0, 1.0, math.pi / 2.0) == pytest.approx(0.25)


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
        assert ellipse256.diameter == pytest.approx(4.0, rel=1e-4)
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


def _per_call_pair_masks(mask):
    """The stencil pair masks as the solver once built them on every call."""
    nx = mask.shape[1]
    cells = mask.ravel()
    px = cells[1:] & cells[:-1]
    px[nx - 1::nx] = False
    py = cells[nx:] & cells[:-nx]
    return px, py


class TestPairMasks:
    @pytest.mark.parametrize("edges", [False, True], ids=["mask", "interior-row-ends"])
    @pytest.mark.parametrize("spec, h", CATALOG)
    def test_cached_masks_equal_the_per_call_construction(self, spec, h, edges):
        domain = build_domain(spec, h)
        mask = domain.interior_mask
        assert not mask[:, [0, -1]].any()
        if edges:  # make every row's first and last cells interior
            mask = mask.copy()
            mask[:, [0, -1]] = True
            domain.__dict__["interior_mask"] = mask
        assert "pair_masks" not in domain.__dict__
        px, py = domain.pair_masks
        assert domain.pair_masks[0] is px and domain.pair_masks[1] is py
        ref_px, ref_py = _per_call_pair_masks(mask)
        assert np.array_equal(px, ref_px) and np.array_equal(py, ref_py)
        # On the 2-D grid: right and lower neighbours, never across a row end.
        right = np.append(px, False).reshape(mask.shape)
        below = np.append(py, np.zeros(domain.nx, dtype=bool)).reshape(mask.shape)
        assert not right[:, -1].any()
        assert np.array_equal(right[:, :-1], mask[:, 1:] & mask[:, :-1])
        assert np.array_equal(below[:-1], mask[1:] & mask[:-1])


def _reference_point(spec, s):
    """The boundary in the shape's own parameter: (a cos s, b sin s) for the
    disk and the ellipse, the polar curve for a Fourier shape."""
    if spec.kind == "fourier":
        return spec.boundary_point(s)
    a, b = (spec.r, spec.r) if spec.kind == "disk" else (spec.a, spec.b)
    return a * np.cos(s), b * np.sin(s)


def _reference_green(spec, ax, ay, s0, s1):
    """The integral of (x - ax) y' - (y - ay) x' ds over [s0, s1] in closed
    form: x y' - y x' is a b on the disk and the ellipse and rho^2 on a
    Fourier shape, whose antiderivative follows from the coefficients of
    rho^2, the convolution of rho's complex coefficients with themselves."""
    (x0, y0), (x1, y1) = _reference_point(spec, s0), _reference_point(spec, s1)
    if spec.kind == "fourier":
        k = max(len(spec.cos_coeffs), len(spec.sin_coeffs))
        z = np.zeros(2 * k + 1, dtype=complex)
        z[k] = spec.r0
        for j, c in enumerate(spec.cos_coeffs, start=1):
            z[k + j] += 0.5 * c
            z[k - j] += 0.5 * c
        for j, s in enumerate(spec.sin_coeffs, start=1):
            z[k + j] -= 0.5j * s
            z[k - j] += 0.5j * s
        w, m = np.convolve(z, z), np.arange(-2 * k, 2 * k + 1)
        nonzero = np.where(m == 0, 1, m)

        def antiderivative(t):
            t = np.asarray(t, dtype=float)[..., None]
            return np.sum(np.where(m == 0, w * t, w * np.exp(1j * m * t) / (1j * nonzero)),
                          axis=-1).real

        squared = antiderivative(s1) - antiderivative(s0)
    else:
        a, b = (spec.r, spec.r) if spec.kind == "disk" else (spec.a, spec.b)
        squared = a * b * (np.asarray(s1) - np.asarray(s0))
    return squared - ax * (y1 - y0) + ay * (x1 - x0)


def _reference_measures(spec, circles, samples=8192):
    """(cap, arc) of every circle (ax, ay, eps), independently of the finder.

    Crossings are bracketed by the sign of |gamma(s) - a|^2 - eps^2 at
    samples half a step off the finder's, in the shape's own parameter, and
    bisected to a float sign change, all circles at once.  The pieces of
    dOmega inside B are integrated in closed form, and each arc of dB lies
    in Omega when its midpoint passes the inside test.
    """
    step = 2.0 * math.pi / samples
    s = (np.arange(samples) + 0.5) * step
    bx, by = _reference_point(spec, s)
    lo, exits, owner = [], [], []
    for k, (ax, ay, eps) in enumerate(circles):
        inside = (bx - ax) ** 2 + (by - ay) ** 2 < eps * eps
        flips = np.flatnonzero(inside != np.roll(inside, -1))
        lo.append(s[flips])
        exits.append(inside[flips])
        owner.append(np.full(flips.size, k))
    lo, exits, owner = (np.concatenate(v) for v in (lo, exits, owner))
    hi = lo + step
    cx, cy, ce = np.asarray(circles, dtype=float)[owner].T
    mid = 0.5 * (lo + hi)
    while np.any((mid != lo) & (mid != hi)):
        x, y = _reference_point(spec, mid)
        same = ((x - cx) ** 2 + (y - cy) ** 2 < ce * ce) == exits
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
        mid = 0.5 * (lo + hi)

    measure = 0.5 * float(_reference_green(spec, 0.0, 0.0, 0.0, 2.0 * math.pi))
    result = []
    for k, (ax, ay, eps) in enumerate(circles):
        order = np.argsort(mid[owner == k])
        t, out = mid[owner == k][order], exits[owner == k][order]
        if t.size == 0:
            if (bx[0] - ax) ** 2 + (by[0] - ay) ** 2 < eps * eps:
                result.append((measure, 0.0))
            elif spec.is_inside(ax, ay):
                result.append((math.pi * eps * eps, 2.0 * math.pi * eps))
            else:
                result.append((0.0, 0.0))
            continue
        x, y = _reference_point(spec, t)
        theta = np.sort(np.arctan2(y - ay, x - ax))
        following = np.append(theta[1:], theta[0] + 2.0 * math.pi)
        middle = 0.5 * (theta + following)
        inside = spec.is_inside(ax + eps * np.cos(middle), ay + eps * np.sin(middle))
        angle = float(np.sum((following - theta)[inside]))
        t_next = np.append(t[1:], t[0] + 2.0 * math.pi)
        pieces = float(np.sum(_reference_green(spec, ax, ay, t[~out], t_next[~out])))
        result.append((0.5 * eps * eps * angle + 0.5 * pieces, eps * angle))
    return np.array(result)


def _random_circles(spec, diameter, rng, centres=40, radii=50):
    """Centres on dOmega or up to 30% off it, each with radii log-uniform
    from 0.005 to the diameter."""
    circles = []
    for _ in range(centres):
        bx, by = spec.boundary_point(rng.uniform(0.0, 2.0 * math.pi))
        scale = 1.0 if rng.uniform() < 0.5 else rng.uniform(0.7, 1.3)
        for eps in np.exp(rng.uniform(math.log(0.005), math.log(diameter), radii)):
            circles.append((scale * float(bx), scale * float(by), float(eps)))
    return circles


def _inward_circle(spec, t, depth):
    """A circle inside Omega that touches dOmega at gamma(t) from within,
    with half the radius of curvature there, grown by `depth`: it leaves
    Omega over a short arc around gamma(t), between two nearby crossings."""
    x, y, x1, y1 = (float(v) for v in spec._boundary_frame(t))
    speed = math.hypot(x1, y1)
    radius = 0.5 / float(spec.curvature(t))
    ax, ay = x - radius * y1 / speed, y + radius * x1 / speed  # the inward normal
    return ax, ay, radius + depth


class TestCrossingFinder:
    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5, 1.5])
    def test_disk_roots_match_closed_form(self, eps):
        # |gamma(t) - (1, 0)| = 2 sin(t / 2) = eps; dOmega leaves B at the first.
        crossings = geometry._circle_crossings(DomainSpec.disk(1.0), 1.0, 0.0, eps)
        t, x, y, exits = map(np.array, crossings)
        root = 2.0 * math.asin(eps / 2.0)
        np.testing.assert_allclose(t, [root, 2.0 * math.pi - root], rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(np.hypot(x - 1.0, y), eps, rtol=1e-14, atol=0.0)
        assert exits.tolist() == [True, False]

    @pytest.mark.parametrize("turn", [0.0, 0.7, 2.1, -1.3])
    def test_disk_matches_the_lens_closed_forms(self, disk256, turn):
        # Centred on the unit circle, eps in [0.01, 1.5], in mpmath so that
        # the closed forms keep their digits at small eps.
        a = (math.cos(turn), math.sin(turn))
        for eps in np.geomspace(0.01, 1.5, 30).tolist():
            with mpmath.workdps(40):
                s, e = mpmath.hypot(*a), mpmath.mpf(eps)
                far = mpmath.acos((s * s + e * e - 1) / (2 * s * e))
                near = mpmath.acos((s * s + 1 - e * e) / (2 * s))
                lens = near + e * e * far - mpmath.sqrt(
                    (-s + 1 + e) * (s + 1 - e) * (s - 1 + e) * (s + 1 + e)) / 2
            assert cap_measure(disk256, a, eps) == pytest.approx(float(lens), rel=1e-13, abs=0)
            assert boundary_arc_inside(disk256, a, eps) == pytest.approx(
                float(2 * e * far), rel=1e-13, abs=0)

    @pytest.mark.parametrize("spec, h", CATALOG)
    def test_random_circles_match_the_dense_reference(self, spec, h):
        # 2000 circles about 40 centres, on dOmega and off it (the circle
        # may miss dOmega or hold all of Omega).
        domain = build_domain(spec, h)
        circles = _random_circles(spec, domain.diameter, np.random.default_rng(17))
        want = _reference_measures(spec, circles)
        got = np.array([(cap_measure(domain, a, eps), boundary_arc_inside(domain, a, eps))
                        for *a, eps in circles])
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

    def test_green_cap_matches_shifted_lattice_counts(self):
        # Random valid Fourier shapes.  A lattice shifted uniformly at random
        # counts the points of Omega n B with expectation |Omega n B| / cell,
        # so the mean of 16 shifted counts estimates the cap without bias,
        # and their spread gives the estimate's own standard error.
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 8:
            harmonics = rng.integers(1, 5)
            scale = 0.25 / np.arange(1, harmonics + 1)
            cos_coeffs, sin_coeffs = (rng.uniform(-scale, scale) for _ in range(2))
            spec = DomainSpec.fourier(1.0, cos_coeffs.tolist(), sin_coeffs.tolist())
            try:
                domain = build_domain(spec, spec.validate() / 8.0)
            except DomainBuildError:
                continue
            bx, by = spec.boundary_point(rng.uniform(0.0, 2.0 * math.pi))
            a = (float(bx), float(by))
            eps = float(rng.uniform(0.05, 0.5) * domain.diameter)
            cap = cap_measure(domain, a, eps)
            cells = 150
            step = 2.0 * eps / cells
            grid = (np.arange(cells) - 0.5 * cells) * step
            counts = []
            for shift in rng.uniform(0.0, step, (16, 2)):
                gx, gy = np.meshgrid(a[0] + grid + shift[0], a[1] + grid + shift[1])
                in_ball = (gx - a[0]) ** 2 + (gy - a[1]) ** 2 < eps * eps
                counts.append(np.count_nonzero(in_ball & spec.is_inside(gx, gy)) * step * step)
            error = np.std(counts, ddof=1) / math.sqrt(len(counts))
            assert abs(cap - np.mean(counts)) <= 6.0 * error
            checked += 1

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
    def test_one_table_per_radius_search(self, spec, h, monkeypatch):
        # The search's circles, one per quotient evaluation, share their
        # centre's table, made from the spec's 4096 shared boundary samples.
        # Once those exist, nothing evaluates the boundary at 4096, 2048 or
        # 1024 points.
        geometry._circle_measures.cache_clear()
        geometry._centre_table.cache_clear()
        domain = build_domain(spec, h)
        seed = max_curvature_seed(domain)
        samples = geometry._boundary_samples.cache_info().misses
        sizes, circles = [], []
        crossings = geometry._circle_crossings

        def counted(function):
            def wrapper(self, t, **kwargs):
                sizes.append(np.size(t))
                return function(self, t, **kwargs)
            return wrapper

        for name in ("_radial", "boundary_point", "_boundary_frame"):
            monkeypatch.setattr(DomainSpec, name, counted(getattr(DomainSpec, name)))
        monkeypatch.setattr(geometry, "_circle_crossings",
                            lambda *args: circles.append(args) or crossings(*args))
        optimal_epsilon(domain, seed.point, 1.0)
        params = inspect.signature(optimal_epsilon).parameters
        assert len(circles) == params["coarse"].default + 2 + params["golden_iters"].default
        assert geometry._centre_table.cache_info().misses == 1
        assert geometry._boundary_samples.cache_info().misses == samples
        assert 0 < max(sizes) < 1024
        # The table is keyed on the spec, not the domain: an equal spec on
        # another grid shares it, and a new centre builds its own.
        boundary_arc_inside(build_domain(spec, 2.0 * h), seed.point, 0.3)
        assert geometry._centre_table.cache_info().misses == 1
        cap_measure(domain, (0.0, 0.0), 0.5)
        assert geometry._centre_table.cache_info().misses == 2

    def test_two_crossings_in_one_scan_step(self, disk256):
        # dB(a, eps) leaves the unit disk over 1.8e-4 rad around the angle of
        # a, pi / 4096, which lies midway between two scan samples; the arc
        # read was the whole circle, 3.14159266, against 3.14150322.
        alpha = math.pi / 4096
        eps = 0.5 + 1e-9
        # |a + eps e(theta)| > 1 where cos(theta - alpha) > (0.75 - eps^2) / eps.
        outside = 2.0 * math.acos((0.75 - eps * eps) / eps)
        arc = boundary_arc_inside(disk256, (0.5 * math.cos(alpha), 0.5 * math.sin(alpha)), eps)
        assert arc == pytest.approx(eps * (2.0 * math.pi - outside), rel=1e-9, abs=0)

    @pytest.mark.parametrize("spec, rho, sample", [
        (DomainSpec.ellipse(2.0, 1.0),
         lambda u: 2 / mpmath.sqrt(mpmath.cos(u) ** 2 + 4 * mpmath.sin(u) ** 2), 200),
        (DomainSpec.fourier(1.0, cos_coeffs=(0.0, 0.15), sin_coeffs=(0.05,)),
         lambda u: 1 + mpmath.mpf(0.15) * mpmath.cos(2 * u) + mpmath.mpf(0.05) * mpmath.sin(u),
         300),
    ], ids=["ellipse", "fourier"])
    def test_two_crossings_in_one_scan_step_on_curved_shapes(self, spec, rho, sample):
        # The same on the catalog's curved shapes, rho their polar radius in
        # mpmath: a circle inside Omega, touching dOmega from within midway
        # between two samples of the polar angle, grown by 1e-9 so that it
        # leaves Omega between two crossings inside that sample step (4.7e-5
        # apart on the ellipse, a thirtieth of the step).
        domain = build_domain(spec, 1.0 / 128)
        t = (sample + 0.5) * geometry._SCAN_STEP
        ax, ay, eps = _inward_circle(spec, t, 1e-9)
        t_cross, _, _, exits = geometry._circle_crossings(spec, ax, ay, eps)
        assert exits == [False, True]
        assert sample < t_cross[0] / geometry._SCAN_STEP < t_cross[1] / geometry._SCAN_STEP < sample + 1
        with mpmath.workdps(30):
            def point(u):
                return rho(u) * mpmath.cos(u), rho(u) * mpmath.sin(u)

            def gap(u):
                x, y = point(u)
                return mpmath.hypot(x - ax, y - ay) - eps

            roots = [mpmath.findroot(gap, (t, t + side * mpmath.mpf("1e-3")), solver="anderson")
                     for side in (-1, 1)]
            (x0, y0), (x1, y1) = point(roots[0]), point(roots[1])
            ends = [mpmath.atan2(y - ay, x - ax) for x, y in ((x0, y0), (x1, y1))]
            arc = float(eps * (2 * mpmath.pi - abs(ends[1] - ends[0])))
            # On a polar curve (x - ax) y' - (y - ay) x' = rho^2 - ax y' + ay x'.
            piece = (mpmath.quad(lambda u: rho(u) ** 2, roots)
                     - ax * (y1 - y0) + ay * (x1 - x0))
        assert boundary_arc_inside(domain, (ax, ay), eps) == pytest.approx(arc, rel=1e-9, abs=0)
        assert cap_measure(domain, (ax, ay), eps) == pytest.approx(
            0.5 * eps * arc + 0.5 * float(piece), rel=1e-12, abs=0)

    @pytest.mark.parametrize("spec, h", CATALOG)
    def test_crossings_lie_on_both_curves_and_alternate(self, spec, h):
        # Entries and exits alternate along dOmega, each one where the
        # distance to a rises (an exit) or falls (an entry).
        domain = build_domain(spec, h)
        for ax, ay, eps in _random_circles(spec, domain.diameter, np.random.default_rng(29),
                                           centres=8, radii=20):
            t, x, y, exits = (np.array(v) for v in geometry._circle_crossings(spec, ax, ay, eps))
            assert t.size % 2 == 0
            assert np.all(np.diff(t) > 0) and (t.size == 0 or 0.0 <= t[0] <= t[-1] <= 2 * math.pi)
            assert np.all(exits[1:] != exits[:-1])
            np.testing.assert_allclose(np.hypot(x - ax, y - ay), eps, rtol=0.0, atol=1e-13)
            np.testing.assert_allclose(np.array(spec.boundary_point(t)), [x, y],
                                       rtol=0.0, atol=1e-13)
            px, py, px1, py1 = spec._boundary_frame(t)
            assert np.array_equal((px - ax) * px1 + (py - ay) * py1 > 0.0, exits)

    @pytest.mark.parametrize("spec, h", CATALOG + [
        pytest.param(DomainSpec.ellipse(2.36, 1.0), 1.0 / 128, id="ellipse-2.36")])
    def test_table_bound_dominates_the_second_derivative(self, spec, h):
        # M >= max |f''| for f(t) = |gamma(t) - a|^2, by central second
        # differences on 16 times the table's samples, about centres on
        # dOmega, off it, at the origin and far away.  M is exact on the
        # disk, so the differences may pass it by their own rounding.
        step = geometry._SCAN_STEP / 16
        t = np.arange(16 * 4096) * step
        x, y = spec.boundary_point(t)
        centres = [(s * float(bx), s * float(by)) for s in (1.0, 0.6, 1.4)
                   for bx, by in zip(*spec.boundary_point(np.array([0.0, 1.1, 2.9, 4.4])))]
        for ax, ay in centres + [(0.0, 0.0), (5.0, -3.0)]:
            d = np.square(x - ax) + np.square(y - ay)
            second = (np.roll(d, -1) - 2.0 * d + np.roll(d, 1)) / (step * step)
            rounding = 16.0 * math.ulp(float(np.max(d))) / (step * step)
            assert np.max(np.abs(second)) <= geometry._centre_table(spec, ax, ay)[3] + rounding

    @pytest.mark.parametrize("spec, h", CATALOG)
    def test_cleared_steps_hold_no_crossing(self, spec, h):
        # A sample step whose [lo, hi] misses eps^2 is never searched: f
        # keeps one sign at 16 points inside each such step.  Random radii
        # about random centres, and circles that leave Omega inside one step
        # as in the tests above, whose two ends lie on the same side of eps.
        domain = build_domain(spec, h)
        sub = np.arange(4096)[:, None] + np.linspace(0.0, 1.0, 17)
        x, y = spec.boundary_point(sub * geometry._SCAN_STEP)
        rng = np.random.default_rng(31)
        circles = [(*a, np.exp(rng.uniform(math.log(0.005), math.log(domain.diameter), 30)))
                   for *a, _ in _random_circles(spec, domain.diameter, rng, centres=10, radii=1)]
        for k in rng.integers(0, 4096, 10):
            ax, ay, eps = _inward_circle(spec, (k + 0.5) * geometry._SCAN_STEP, 1e-9)
            circles.append((ax, ay, [eps]))
        for ax, ay, radii in circles:
            d = np.square(x - ax) + np.square(y - ay)
            _, lo, hi, *_ = geometry._centre_table(spec, ax, ay)
            for eps in radii:
                cleared = (eps * eps < lo) | (hi < eps * eps)
                inside = d[cleared] < eps * eps
                assert np.all(inside.all(axis=1) | (~inside).all(axis=1))

    @pytest.mark.parametrize("spec, a, eps", [
        (DomainSpec.disk(1.0), (2.0, 0.0), 1.0),  # from outside, at theta = pi
        (DomainSpec.ellipse(2.0, 1.0), (1.75, 0.0), 0.25),  # from inside the vertex
        (DomainSpec.ellipse(2.0, 1.0), (3.0, 0.0), 1.0),  # from outside the vertex
    ], ids=["disk-outside", "ellipse-inside", "ellipse-outside"])
    def test_tangency_at_a_sample_raises(self, spec, a, eps):
        # Each circle touches dOmega at t = 0, where f = 0 exactly and no
        # subdivision decides the steps on either side.
        domain = build_domain(spec, 0.05)
        for function in (cap_measure, boundary_arc_inside):
            with pytest.raises(ValueError, match=rf"eps={eps} centred at \({a[0]}, {a[1]}\)"
                                                 r".*tangentially at angle theta="):
                function(domain, a, eps)

    def test_circles_about_the_disk_centre_are_decided_from_the_table(self, disk256, monkeypatch):
        # About the centre f = 1 - eps^2 all along dOmega, and M = 0: circles
        # 1e-12 inside and outside dOmega are decided without a midpoint, and
        # the unit circle itself, which runs along dOmega, raises at once.
        geometry._centre_table(disk256.spec, 0.0, 0.0)
        sizes = []
        point = DomainSpec.boundary_point
        monkeypatch.setattr(DomainSpec, "boundary_point",
                            lambda self, t: sizes.append(np.size(t)) or point(self, t))
        inner, outer = 1.0 - 1e-12, 1.0 + 1e-12
        assert cap_measure(disk256, (0.0, 0.0), inner) == math.pi * inner * inner
        assert boundary_arc_inside(disk256, (0.0, 0.0), inner) == 2.0 * math.pi * inner
        assert cap_measure(disk256, (0.0, 0.0), outer) == disk256.measure
        assert boundary_arc_inside(disk256, (0.0, 0.0), outer) == 0.0
        with pytest.raises(ValueError, match=r"eps=1\.0 centred at \(0\.0, 0\.0\).*tangentially"):
            cap_measure(disk256, (0.0, 0.0), 1.0)
        assert sizes == [1]  # the touching point of the message

    def test_a_loose_bound_cannot_grow_the_search_without_limit(self, ellipse256, monkeypatch):
        # With M 1e12 times too large every sample step stays undecided for
        # some twenty halvings; the level that would split more steps than
        # the table has samples raises instead.
        table = geometry._centre_table

        def loose(spec, ax, ay):
            d, lo, hi, bound, *rest = table(spec, ax, ay)
            return (d, np.full_like(lo, -np.inf), np.full_like(hi, np.inf), 1e12 * bound, *rest)

        monkeypatch.setattr(geometry, "_centre_table", loose)
        with pytest.raises(ValueError, match=r"eps=0\.5 centred at \(2\.0, 0\.0\).*tangentially"):
            cap_measure(ellipse256, (2.0, 0.0), 0.5)

    def test_tangential_crossing_raises(self, disk256):
        # dB((0.5, 0), 0.5) touches the unit circle from inside at theta = 0,
        # which is a scan sample.  A failed scan is not memoized, so a
        # repeated call raises again.
        for function in (cap_measure, boundary_arc_inside, cap_measure):
            with pytest.raises(ValueError, match=r"eps=0\.5 centred at \(0\.5, 0\.0\).*theta="):
                function(disk256, (0.5, 0.0), 0.5)

    @pytest.mark.parametrize("spec, a, eps", [
        (DomainSpec.ellipse(2.0, 1.0), (2.0, 0.0), 3e-16),  # read a negative cap
        (DomainSpec.ellipse(2.0, 1.0), (2.0, 0.0), 1e-16),  # read 4e32 x pi eps^2 / 2
        (DomainSpec.ellipse(2.0, 1.0), (2.0, 0.0), 1e-14),  # off by 7.1e-3
        (DomainSpec.disk(1.0), (1.0, 0.0), 1e-17),  # read the whole domain
        (DomainSpec.disk(1.0), (1.0, 0.0), 1e-12),  # off by 3.5e-5
    ])
    def test_radius_below_the_floor_raises(self, spec, a, eps):
        domain = build_domain(spec, 0.01)
        for function in (cap_measure, boundary_arc_inside):
            with pytest.raises(ValueError, match=rf"eps={eps} of the circle centred at "
                                                 rf"\({a[0]}, {a[1]}\).*resolution floor"):
                function(domain, a, eps)

    @pytest.mark.parametrize("spec, a", [(DomainSpec.disk(1.0), (1.0, 0.0)),
                                         (DomainSpec.ellipse(2.0, 1.0), (2.0, 0.0))])
    def test_radius_at_the_floor_keeps_its_digits(self, spec, a):
        domain = build_domain(spec, 0.01)
        H = spec.curvature(0.0)  # both centres lie at polar angle 0
        eps = 2.0 ** -26 * math.hypot(*a)
        cap = cap_measure(domain, a, eps)
        arc = boundary_arc_inside(domain, a, eps)
        assert cap == pytest.approx(cap_measure_expansion(H, eps, 2), rel=1e-8, abs=0)
        assert arc == pytest.approx(boundary_arc_expansion(H, eps, 2), rel=1e-8, abs=0)

    def test_circles_clear_of_the_boundary_keep_their_closed_forms(self, disk256):
        # Below the floor, but the centre's table keeps dOmega off the circle.
        assert cap_measure(disk256, (0.5, 0.0), 1e-12) == math.pi * 1e-24
        assert boundary_arc_inside(disk256, (0.5, 0.0), 1e-12) == 2.0 * math.pi * 1e-12
        assert cap_measure(disk256, (3.0, 0.0), 1e-12) == 0.0
        assert boundary_arc_inside(disk256, (3.0, 0.0), 1e-12) == 0.0

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

    @pytest.mark.parametrize("a", [(1.0, 0.0), (0.0, 0.0)], ids=["crossing", "inside"])
    def test_memoized_arrays_are_read_only(self, a):
        # Every radius about a reads the centre's memoized table.  No array
        # of it is a view of another.
        for array in geometry._centre_table(DomainSpec.disk(1.0), *a)[:3]:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = array
            assert array.base is None

    @pytest.mark.parametrize("function", [cap_measure, boundary_arc_inside])
    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_radius_raises(self, disk256, function, eps):
        with pytest.raises(ValueError, match="eps must be finite, got"):
            function(disk256, (1.0, 0.0), eps)

    @pytest.mark.parametrize("function", [cap_measure, boundary_arc_inside])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_centre_raises(self, disk256, function, value, axis):
        centre = [1.0, 0.0]
        centre[axis] = value
        with pytest.raises(ValueError, match="non-finite coordinate"):
            function(disk256, tuple(centre), 0.2)


def _mp_radial(spec):
    """(rho, rho') of the spec as functions of an mpmath t."""
    if spec.kind == "disk":
        return (lambda t: mpmath.mpf(spec.r)), (lambda t: mpmath.mpf(0))
    if spec.kind == "ellipse":
        a, b = mpmath.mpf(spec.a), mpmath.mpf(spec.b)

        def rho(t):
            return a * b / mpmath.sqrt((b * mpmath.cos(t)) ** 2 + (a * mpmath.sin(t)) ** 2)

        # rho = a b D^(-1/2), D = b^2 cos^2 t + a^2 sin^2 t, D' = (a^2 - b^2) sin 2t.
        return rho, lambda t: -rho(t) ** 3 * (a * a - b * b) * mpmath.sin(2 * t) / (2 * a * a * b * b)
    harmonics = list(itertools.zip_longest(spec.cos_coeffs, spec.sin_coeffs, fillvalue=0.0))
    return (lambda t: spec.r0 + mpmath.fsum(c * mpmath.cos(k * t) + s * mpmath.sin(k * t)
                                            for k, (c, s) in enumerate(harmonics, start=1)),
            lambda t: mpmath.fsum(k * (s * mpmath.cos(k * t) - c * mpmath.sin(k * t))
                                  for k, (c, s) in enumerate(harmonics, start=1)))


def _mp_measures(spec, ax, ay, eps):
    """(cap, arc) of the circle at 40 digits, apart from the package's forms.

    Each float crossing of the finder seeds Newton's method on
    |gamma(t) - a| - eps in mpmath; dOmega leaves B where that distance
    grows.  The pieces of dOmega inside B are integrated by mpmath.quad and
    the arcs of dB inside Omega, from an exit to the next crossing on the
    circle, measured by atan2.  The circle must cross dOmega."""
    rho, drho = _mp_radial(spec)
    with mpmath.workdps(40):
        e = mpmath.mpf(eps)

        def frame(t):
            r, dr, c, s = rho(t), drho(t), mpmath.cos(t), mpmath.sin(t)
            return r * c - ax, r * s - ay, dr * c - r * s, dr * s + r * c

        crossings = []
        for t in geometry._circle_crossings(spec, ax, ay, eps)[0]:
            t = mpmath.mpf(t)
            for _ in range(8):
                u, v, du, dv = frame(t)
                distance = mpmath.hypot(u, v)
                step = (distance - e) * distance / (u * du + v * dv)
                t -= step
            assert abs(step) < mpmath.mpf(10) ** -30
            u, v, du, dv = frame(t)
            crossings.append((t, u, v, u * du + v * dv > 0))
        assert crossings, "the circle does not cross the boundary"
        ends = crossings + [(crossings[0][0] + 2 * mpmath.pi, *crossings[0][1:])]
        pieces = mpmath.fsum(
            mpmath.quad(lambda t: (lambda u, v, du, dv: u * dv - v * du)(*frame(t)), [t0, t1])
            for (t0, _, _, out), (t1, *_) in zip(ends, ends[1:]) if not out)
        radii = sorted(crossings, key=lambda c: mpmath.atan2(c[2], c[1]))
        angle = mpmath.fsum(
            mpmath.atan2(u0 * v1 - v0 * u1, u0 * u1 + v0 * v1) % (2 * mpmath.pi)
            for (_, u0, v0, out), (_, u1, v1, _) in zip(radii, radii[1:] + radii[:1]) if out)
        return (e * e * angle + pieces) / 2, e * angle


# The three shapes of the closed-form grid, with their grid cell sizes.
CLOSED_FORM_SHAPES = [
    pytest.param(DomainSpec.disk(1.0), 1.0 / 256, id="disk"),
    pytest.param(DomainSpec.ellipse(2.36, 1.0), 1.0 / 128, id="ellipse"),
    pytest.param(DomainSpec.fourier(1.0, cos_coeffs=(0.0, 0.15), sin_coeffs=(0.05,)), 1.0 / 128,
                 id="fourier"),
]
CLOSED_FORM_RADII = [1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.7, 1.2]


def _grid_centre(domain, where, eps):
    """The seed point, or a centre 0.4 eps inside or outside dOmega along the
    normal at t = 2, so that every radius of the grid crosses dOmega."""
    if where == "seed":
        return max_curvature_seed(domain).point
    x, y, x1, y1 = domain.spec._boundary_frame(2.0)
    side = 0.4 * eps / math.hypot(x1, y1) * (1.0 if where == "exterior" else -1.0)
    return x + side * y1, y - side * x1


class TestClosedFormCap:
    # The boundary term of the cap in closed form, against references that
    # share none of its formulas.

    @pytest.mark.parametrize("where", ["seed", "interior", "exterior"])
    @pytest.mark.parametrize("spec, h", CLOSED_FORM_SHAPES)
    def test_cap_and_arc_match_mpmath(self, spec, h, where):
        # The crossings carry a relative error of about ulp / eps, so the
        # bound grows like R0 / eps at small radii.  On the disk the cap's
        # reference is the lens area, evaluated in mpmath.
        domain = build_domain(spec, h)
        reach = spec._radial_bounds()[0]
        for eps in CLOSED_FORM_RADII:
            ax, ay = _grid_centre(domain, where, eps)
            cap_ref, arc_ref = _mp_measures(spec, ax, ay, eps)
            if spec.kind == "disk":
                with mpmath.workdps(40):
                    cap_ref = lens_area(mpmath.mpf(eps), mpmath.mpf(spec.r), mpmath.hypot(ax, ay),
                                        lib=mpmath)
            bound = 16.0 * 2.0 ** -53 * (1.0 + reach / eps)
            for got, want in ((cap_measure(domain, (ax, ay), eps), cap_ref),
                              (boundary_arc_inside(domain, (ax, ay), eps), arc_ref)):
                assert abs(got - want) <= bound * abs(want), (eps, got, float(want))

    @pytest.mark.parametrize("where", ["seed", "interior", "exterior"])
    @pytest.mark.parametrize("spec, h", CLOSED_FORM_SHAPES)
    def test_cap_grows_by_the_arc(self, spec, h, where):
        # The coarea identity d cap / d eps = arc, by central differences.
        domain = build_domain(spec, h)
        for eps in (0.01, 0.1, 0.3, 0.7):
            a, step = _grid_centre(domain, where, eps), 1e-4 * eps
            slope = (cap_measure(domain, a, eps + step) - cap_measure(domain, a, eps - step)) / (2 * step)
            assert slope == pytest.approx(boundary_arc_inside(domain, a, eps), rel=1e-7, abs=0)

    @pytest.mark.parametrize("t0, t1", [
        (0.3, 0.3 + math.pi - 1e-9), (0.3, 0.3 + math.pi), (0.3, 0.3 + math.pi + 1e-9),
        (5.9, 7.2), (0.1, 0.1 + 2.0 * math.pi - 1e-9), (2.0, 2.0 + 1e-7)],
        ids=["below-pi", "pi", "above-pi", "past-2pi", "nearly-whole", "short"])
    def test_ellipse_turn_takes_the_right_branch(self, t0, t1):
        # The eccentric angle's turn is taken in [0, 2 pi): past pi exactly
        # when t1 - t0 is, and through t = 2 pi without a jump.
        spec = DomainSpec.ellipse(2.36, 1.0)
        rho = _mp_radial(spec)[0]
        with mpmath.workdps(40):
            want = mpmath.quad(lambda t: rho(t) ** 2, [t0, 0.5 * (t0 + t1), t1])
        assert geometry._rho_squared_integral(spec, t0, t1) == pytest.approx(
            float(want), rel=4e-16, abs=0)

    @pytest.mark.parametrize("spec", [
        DomainSpec.fourier(1.0, (), (0.1,)),
        DomainSpec.fourier(1.0, (0.05,), (0.02, 0.1, -0.03)),
        DomainSpec.fourier(0.8, (0.0, 0.0, 0.04), (0.0, 0.0, 0.0, 0.0, 0.01)),
        DomainSpec.fourier(1.0, (0.04, 0.12, -0.03), (0.05,)),
    ], ids=["sine-only", "sine-longer", "sine-longer-sparse", "cosine-longer"])
    def test_fourier_square_matches_mpmath(self, spec):
        # rho^2's coefficients come from the convolution of rho's, whichever
        # of the two coefficient lists is longer.
        rho = _mp_radial(spec)[0]
        domain = build_domain(spec, spec.validate() / 8.0)
        with mpmath.workdps(40):
            whole = mpmath.quad(lambda t: rho(t) ** 2, mpmath.linspace(0, 2 * mpmath.pi, 9))
        assert domain.measure == pytest.approx(float(whole / 2), rel=4e-16, abs=0)
        for t0, t1 in ((0.0, 1e-5), (0.4, 1.9), (2.5, 8.0), (-1.0, 5.0)):
            with mpmath.workdps(40):
                want = mpmath.quad(lambda t: rho(t) ** 2, mpmath.linspace(t0, t1, 5))
            assert geometry._rho_squared_integral(spec, t0, t1) == pytest.approx(
                float(want), rel=1e-15, abs=0)
        ax, ay = _grid_centre(domain, "exterior", 0.3)
        cap, arc = _mp_measures(spec, ax, ay, 0.3)
        assert cap_measure(domain, (ax, ay), 0.3) == pytest.approx(float(cap), rel=1e-14, abs=0)
        assert boundary_arc_inside(domain, (ax, ay), 0.3) == pytest.approx(
            float(arc), rel=1e-14, abs=0)

def _radial_frame(spec, t):
    """(x, y, x', y') through `_radial`, rho'' and all: the reference for
    `DomainSpec._boundary_frame`."""
    t = np.asarray(t, dtype=float)
    rho, drho, _ = spec._radial(t)
    ct, st = np.cos(t), np.sin(t)
    return rho * ct, rho * st, drho * ct - rho * st, drho * st + rho * ct


def _sampled_seed(spec):
    """(param, curvature) of the largest kappa on the seed's own 2048-point
    grid; `TestSeedPolish` checks the polish against mpmath."""
    t = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
    kappa = spec.curvature(t)
    i = int(np.argmax(kappa))
    return float(t[i]), float(kappa[i])


def _random_fourier_shapes(count, seed):
    rng = np.random.default_rng(seed)
    return [DomainSpec.fourier(1.0, rng.uniform(-0.06, 0.06, rng.integers(0, 4)),
                               rng.uniform(-0.06, 0.06, rng.integers(1, 4)))
            for _ in range(count)]


SAMPLED_SHAPES = [pytest.param(p.values[0], id=p.id) for p in CATALOG] + [
    pytest.param(spec, id=f"random-{k}") for k, spec in enumerate(_random_fourier_shapes(4, 41))]


def _mpmath_fourier_curvature(spec, t):
    """The curvature of a Fourier boundary at t, in mpmath."""
    rho, d1, d2 = mpmath.mpf(spec.r0), mpmath.mpf(0), mpmath.mpf(0)
    for k, c in enumerate(spec.cos_coeffs, start=1):
        rho, d1, d2 = (rho + c * mpmath.cos(k * t), d1 - c * k * mpmath.sin(k * t),
                       d2 - c * k * k * mpmath.cos(k * t))
    for k, c in enumerate(spec.sin_coeffs, start=1):
        rho, d1, d2 = (rho + c * mpmath.sin(k * t), d1 + c * k * mpmath.cos(k * t),
                       d2 - c * k * k * mpmath.sin(k * t))
    return (rho * rho + 2 * d1 * d1 - rho * d2) / (rho * rho + d1 * d1) ** 1.5


SEED_SHAPES = [
    pytest.param(DomainSpec.fourier(1.0, cos_coeffs=(0.0, 0.15), sin_coeffs=(0.05,)),
                 id="fourier"),
    pytest.param(DomainSpec.fourier(1.0, cos_coeffs=(0.0, 0.1, 0.05),
                                    sin_coeffs=(0.08, 0.0, 0.03)), id="fourier-3"),
] + [pytest.param(spec, id=f"random-{k}") for k, spec in enumerate(_random_fourier_shapes(20, 53))]


class TestSeedPolish:
    @pytest.mark.parametrize("spec", SEED_SHAPES)
    def test_seed_curvature_is_the_maximum_on_its_bracket(self, spec):
        # The mpmath maximum of kappa on the two sample intervals beside the
        # sampled maximum, by 200 golden-section steps at 40 digits.
        seed = max_curvature_seed(build_domain(spec, spec.validate() / 8.0))
        t = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
        i = int(np.argmax(spec.curvature(t)))
        with mpmath.workdps(40):
            lo, hi = mpmath.mpf(t[i]) - mpmath.mpf(t[1]), mpmath.mpf(t[i]) + mpmath.mpf(t[1])
            inv_phi = (mpmath.sqrt(5) - 1) / 2
            for _ in range(200):
                c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
                if _mpmath_fourier_curvature(spec, c) > _mpmath_fourier_curvature(spec, d):
                    hi = d
                else:
                    lo = c
            best = _mpmath_fourier_curvature(spec, (lo + hi) / 2)
            at_seed = _mpmath_fourier_curvature(spec, mpmath.mpf(seed.param))
            assert float(best - at_seed) <= 16.0 * math.ulp(float(best))
        assert abs(seed.curvature - float(at_seed)) <= 16.0 * math.ulp(float(best))


def _textbook_measure(spec):
    """pi r^2, pi a b, or pi r0^2 + (pi / 2) sum_k (c_k^2 + s_k^2), its sum
    rounded once."""
    if spec.kind == "disk":
        return math.pi * spec.r * spec.r
    if spec.kind == "ellipse":
        return math.pi * spec.a * spec.b
    return (math.pi * spec.r0 * spec.r0
            + 0.5 * math.pi * math.fsum(c * c for c in (*spec.cos_coeffs, *spec.sin_coeffs)))


class TestSharedSamples:
    # Every reader of the spec's 4096 shared boundary samples gets the
    # floats that its own direct evaluation gives, bit for bit.

    @pytest.mark.parametrize("spec", SAMPLED_SHAPES)
    def test_readers_match_direct_evaluations(self, spec):
        geometry._boundary_samples.cache_clear()
        geometry._centre_table.cache_clear()
        h = spec.validate() / 8.0
        domain = build_domain(spec, h)
        t = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
        bx, by = spec.boundary_point(t)
        assert domain.measure == _textbook_measure(spec)
        xmin, ymin = float(np.min(bx)) - 3.0 * h, float(np.min(by)) - 3.0 * h
        assert (domain.xmin, domain.ymin, domain.nx, domain.ny) == (
            xmin, ymin, math.ceil((float(np.max(bx)) + 3.0 * h - xmin) / h),
            math.ceil((float(np.max(by)) + 3.0 * h - ymin) / h))
        assert domain.diameter == 2.0 * spec._radial_bounds()[0]
        seed = max_curvature_seed(domain)
        t_i, k_i = _sampled_seed(spec)
        if seed.curvature > k_i + 1e-12:  # polished, within a sample step
            assert abs(math.remainder(seed.param - t_i, 2.0 * math.pi)) < 2.0 * math.pi / 2048
        else:
            assert (seed.param, seed.curvature) == (t_i, k_i)
        x, y = spec.boundary_point(np.arange(4096) * geometry._SCAN_STEP)
        for ax, ay in (seed.point, (0.3, -0.2)):
            d = np.square(x - ax) + np.square(y - ay)
            assert geometry._centre_table(spec, ax, ay)[0].tobytes() == np.append(d, d[0]).tobytes()

    @pytest.mark.parametrize("spec", SAMPLED_SHAPES)
    def test_samples_match_the_points_and_curvature(self, spec):
        t = np.arange(4096) * geometry._SCAN_STEP
        samples = geometry._boundary_samples(spec)[0]
        for got, want in zip(samples, (*spec.boundary_point(t), spec.curvature(t))):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", SAMPLED_SHAPES)
    def test_frame_without_rho_second_keeps_the_bits(self, spec):
        rng = np.random.default_rng(43)
        for t in (0.0, float(rng.uniform(-7.0, 7.0)), rng.uniform(-7.0, 7.0, 2),
                  rng.uniform(-7.0, 7.0, 256), np.arange(4096) * geometry._SCAN_STEP):
            for got, want in zip(spec._boundary_frame(t), _radial_frame(spec, t)):
                # A float t gives Python floats, also for the random shapes,
                # whose coefficients were given as numpy floats.
                assert type(got) is float if isinstance(t, float) else type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestFloatPath:
    # At one float t the boundary is evaluated with math's functions: the
    # same formulas in the same order as on an array, and the same bits.

    def test_math_trigonometry_matches_numpy(self):
        x = np.random.default_rng(47).uniform(-8.0, 8.0, 100_000)
        for name in ("cos", "sin"):
            want = getattr(np, name)(x)
            got = np.array([getattr(math, name)(v) for v in x.tolist()])
            assert got.tobytes() == want.tobytes(), (
                f"math.{name} differs from np.{name} of numpy {np.__version__} at "
                f"{np.count_nonzero(got != want)} of {x.size} float64 arguments")

    @pytest.mark.parametrize("make, args", [
        (DomainSpec.disk, (1.3,)), (DomainSpec.ellipse, (2.4, 1)),
        (DomainSpec.fourier, (1.0, (0.0, 0.15), (0.05,))),
        (DomainSpec.fourier, (0.9, (0.02, -0.05, 0.01), ())),
    ], ids=["disk", "ellipse", "fourier", "cos-only"])
    def test_numpy_parameters_are_stored_as_floats(self, make, args):
        spec = make(*(np.array(a, dtype=float) if isinstance(a, tuple) else np.float64(a)
                      for a in args))
        reference = make(*args)
        values = [spec.r, spec.a, spec.b, spec.r0, *spec.cos_coeffs, *spec.sin_coeffs]
        assert all(type(v) is float for v in values)
        assert spec == reference
        t = np.random.default_rng(59).uniform(-7.0, 7.0, 257)
        for point in (t, float(t[0]), np.float64(t[1])):
            for got, want in zip(spec._radial(point), reference._radial(point)):
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("spec", SAMPLED_SHAPES)
    def test_float_matches_array_bits(self, spec):
        rng = np.random.default_rng(53)
        points = [0.0, *rng.uniform(-7.0, 7.0, 1000).tolist(),
                  *(np.arange(4096) * (2.0 * math.pi / 4096)).tolist()]
        for t in points + [np.float64(t) for t in points[::64]]:
            array = np.asarray(t)
            for got, want in [(spec._radial(t), spec._radial(array)),
                              (spec._radial(t, False), spec._radial(array, False)),
                              (spec._boundary_frame(t), spec._boundary_frame(array)),
                              ((spec.curvature(t),), (spec.curvature(array),))]:
                assert all(isinstance(v, float) for v in got)
                assert np.array(got).tobytes() == np.array(want, dtype=float).tobytes(), t
