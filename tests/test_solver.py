import math

import numpy as np
import pytest

from bvsharp import (
    GridFunction,
    SolverConfig,
    achievability_certificate,
    ball_indicator,
    concentration_report,
    fit_remainder_order,
    grid_quotient,
    half_space_constant,
    lp_norm_power,
    minimize_quotient,
    rasterize_two_valued,
    rectangle_grid,
    total_variation,
    two_valued_quotient_exact,
)
from bvsharp.geometry import DomainSpec, build_domain

C_HALF = half_space_constant(2)


@pytest.fixture(scope="module")
def square256():
    return rectangle_grid(1.0, 1.0, 1.0 / 256)


@pytest.fixture(scope="module")
def square128():
    return rectangle_grid(1.0, 1.0, 1.0 / 128)


class TestTotalVariation:
    def test_constant_function_has_zero_tv(self, square256):
        u = GridFunction(square256, np.full(square256.interior_mask.shape, 2.5))
        assert total_variation(u) == 0.0

    def test_ramp_on_unit_square(self, square256):
        gx, _ = square256.cell_centers()
        for a in (1.0, -3.0):
            u = GridFunction(square256, a * gx)
            assert abs(total_variation(u) - abs(a)) <= 0.01 * abs(a)

    def test_disk_indicator_perimeter(self):
        square = rectangle_grid(1.0, 1.0, 1.0 / 512)
        u = ball_indicator(square, (0.5, 0.5), 0.25)
        perimeter = 2.0 * math.pi * 0.25
        assert abs(total_variation(u) - perimeter) <= 0.03 * perimeter

    def test_shift_invariance_exact_on_dyadic_values(self, square128):
        # Values on a coarse dyadic lattice stay exact under the shift,
        # so the TV sums are bitwise identical.
        rng = np.random.default_rng(5)
        values = np.round(rng.uniform(-1, 1, square128.interior_mask.shape) * 1024) / 1024
        u = GridFunction(square128, values)
        shifted = GridFunction(square128, values + 4.0)
        assert total_variation(shifted) == total_variation(u)

    def test_shift_invariance_for_generic_constants(self, square128):
        rng = np.random.default_rng(6)
        values = rng.uniform(-1, 1, square128.interior_mask.shape)
        u = GridFunction(square128, values)
        shifted = GridFunction(square128, values + math.pi)
        assert total_variation(shifted) == pytest.approx(total_variation(u), rel=1e-10)

    def test_no_charge_across_domain_boundary(self):
        # A function equal to 1 on every interior cell of a disk has zero
        # TV: the boundary trace does not count.
        disk = build_domain(DomainSpec.disk(0.5), 1.0 / 64)
        u = GridFunction(disk, np.where(disk.interior_mask, 1.0, 0.0))
        assert total_variation(u) == 0.0


class TestLpNormPower:
    def test_binary_indicator_gives_sqrt_of_measure(self, square256):
        gx, gy = square256.cell_centers()
        inside = (gx - 0.5) ** 2 + (gy - 0.5) ** 2 < 0.25**2
        u = GridFunction(square256, inside.astype(float))
        measure = float(np.count_nonzero(inside)) * square256.h**2
        assert lp_norm_power(u) == pytest.approx(math.sqrt(measure), rel=1e-12)

    def test_scaling_homogeneity(self, square128):
        rng = np.random.default_rng(17)
        u = GridFunction(square128, rng.uniform(-1, 1, square128.interior_mask.shape))
        for s in (2.0, -0.3):
            scaled = GridFunction(square128, s * u.values)
            assert lp_norm_power(scaled) == pytest.approx(abs(s) * lp_norm_power(u), rel=1e-12)

    def test_two_valued_profile_matches_closed_form(self, disk256, disk512):
        # The transition band biases the norm by O(width * h); check the
        # magnitude and that halving h roughly halves the deviation.
        from oracles import lens_area

        cap = lens_area(1.0, 0.2, 1.0)
        deviations = []
        for dom in (disk256, disk512):
            u, beta = rasterize_two_valued(dom, (1.0, 0.0), 0.2, 1.0)
            closed = math.sqrt(cap + beta * beta * (math.pi - cap))
            deviations.append(abs(lp_norm_power(u) - closed) / closed)
        assert deviations[0] <= 0.05
        assert deviations[1] <= 0.6 * deviations[0]


class TestGridQuotient:
    def test_opposite_half_disks(self, disk256):
        gx, _ = disk256.cell_centers()
        u = GridFunction(disk256, np.sign(gx))
        value = grid_quotient(u, 1.0)
        assert np.isfinite(value) and value > 0
        flipped = GridFunction(disk256, -u.values)
        assert grid_quotient(flipped, 1.0) == pytest.approx(value, rel=1e-12)

    def test_diameter_split_matches_closed_form(self, disk512):
        # The balanced split u = sign(x) jumps by 2 across the vertical
        # diameter (length 2) and has unit modulus: quotient 4/sqrt(pi).
        # The jump set is axis-aligned, so even the one-sided TV is
        # nearly exact; only the O(h) band bias remains.
        gx, _ = disk512.cell_centers()
        band = np.clip(gx / (4.0 * disk512.h), -0.5, 0.5) * 2.0  # anti-aliased sign
        u = GridFunction(disk512, band)
        oracle = 4.0 / math.sqrt(math.pi)
        assert grid_quotient(u, 1.0) == pytest.approx(oracle, rel=0.02)

    def test_two_valued_profile_close_to_exact_quadrature(self, disk512):
        u, _ = rasterize_two_valued(disk512, (1.0, 0.0), 0.2, 1.0)
        exact = two_valued_quotient_exact(disk512, (1.0, 0.0), 0.2, 1.0).value
        assert abs(grid_quotient(u, 1.0) - exact) <= 0.05 * exact

    def test_scale_invariance_on_random_functions(self, square128):
        rng = np.random.default_rng(23)
        for _ in range(100):
            values = rng.uniform(-1, 1, square128.interior_mask.shape)
            u = GridFunction(square128, values)
            s = float(rng.uniform(0.2, 5.0)) * (1 if rng.random() < 0.5 else -1)
            scaled = GridFunction(square128, s * values)
            q = float(rng.choice([0.5, 1.0, 1.5]))
            assert grid_quotient(scaled, q) == pytest.approx(
                grid_quotient(u, q), rel=1e-10
            )

    def test_constant_function_rejected(self, square128):
        u = GridFunction(square128, np.ones(square128.interior_mask.shape))
        with pytest.raises(ValueError, match="degenerate"):
            grid_quotient(u, 1.0)

    def test_h_convergence_order_empirical(self, disk128, disk256, disk512):
        # Grid quotients approach the exact quadrature value roughly
        # linearly in h; 0.9 is the empirical cutoff.
        exact = two_valued_quotient_exact(disk128, (1.0, 0.0), 0.2, 1.0).value
        errors = []
        for dom in (disk128, disk256, disk512):
            u, _ = rasterize_two_valued(dom, (1.0, 0.0), 0.2, 1.0)
            errors.append(abs(grid_quotient(u, 1.0) - exact))
        hs = [dom.h for dom in (disk128, disk256, disk512)]
        assert fit_remainder_order(hs, errors) >= 0.9


class TestMinimizeQuotient:
    CONFIG = SolverConfig(budget=40, restart_count=1, seed=123, patience=25)

    def test_deterministic_under_fixed_seed(self, disk128):
        first = minimize_quotient(disk128, 1.0, self.CONFIG)
        second = minimize_quotient(disk128, 1.0, self.CONFIG)
        assert np.array_equal(first.history, second.history)
        assert first.value == second.value

    def test_best_history_is_nonincreasing(self, disk128):
        estimate = minimize_quotient(disk128, 1.0, self.CONFIG)
        best = estimate.history[:, 1]
        assert np.all(np.diff(best) <= 0.0 + 1e-15)

    def test_never_worse_than_first_iterate(self, disk128):
        estimate = minimize_quotient(disk128, 1.0, self.CONFIG)
        assert estimate.value <= estimate.history[0, 3] + 1e-12

    def test_value_is_quotient_of_snapshot(self, disk128):
        estimate = minimize_quotient(disk128, 1.0, self.CONFIG)
        assert grid_quotient(estimate.snapshot, 1.0) == pytest.approx(
            estimate.value, abs=1e-10
        )

    def test_below_half_space_threshold(self, disk256):
        estimate = minimize_quotient(
            disk256, 1.0, SolverConfig(budget=60, restart_count=0, seed=0, patience=30)
        )
        assert estimate.value < C_HALF
        assert estimate.below_threshold

    def test_light_monotonicity_sweep(self, disk128):
        config = SolverConfig(budget=25, restart_count=0, seed=7, patience=15)
        reference = minimize_quotient(disk128, 1.0, config).value
        for q in (0.5, 1.5):
            estimate = minimize_quotient(disk128, q, config)
            assert estimate.value <= reference + 0.02

    def test_invalid_config_rejected(self, disk128):
        with pytest.raises(ValueError):
            minimize_quotient(disk128, 1.0, SolverConfig(budget=0))
        with pytest.raises(ValueError):
            minimize_quotient(disk128, 1.0, SolverConfig(step=-1.0))
        with pytest.raises(ValueError):
            minimize_quotient(disk128, 2.5, self.CONFIG)


class TestConcentrationReport:
    @staticmethod
    def _normalized(domain, values):
        u = GridFunction(domain, values)
        return GridFunction(domain, u.values / lp_norm_power(u))

    def test_shrinking_balls_make_one_atom(self, square128):
        center = (0.37, 0.61)
        family = [
            self._normalized(square128, ball_indicator(square128, center, r, width=2.0).values)
            for r in (0.2, 0.1, 0.05, 0.025)
        ]
        report = concentration_report(family, [0.2, 0.1, 0.05])
        assert len(report.atoms) == 1
        (location, mass), = report.atoms
        assert mass == pytest.approx(1.0, abs=0.01)
        assert math.hypot(location[0] - center[0], location[1] - center[1]) <= 0.05
        assert report.diffuse == pytest.approx(0.0, abs=0.01)
        assert report.total_audit == pytest.approx(1.0, abs=1e-6)

    def test_fixed_smooth_bump_has_no_atoms(self, square128):
        gx, gy = square128.cell_centers()
        bump = np.exp(-((gx - 0.5) ** 2 + (gy - 0.5) ** 2) / (2.0 * 0.22**2))
        member = self._normalized(square128, bump)
        report = concentration_report([member] * 3, [0.2, 0.1, 0.05])
        assert report.atoms == []
        assert report.diffuse == pytest.approx(1.0, abs=1e-6)

    def test_half_concentrating_family(self, square128):
        gx, gy = square128.cell_centers()
        bump = np.exp(-((gx - 0.62) ** 2 + (gy - 0.62) ** 2) / (2.0 * 0.22**2))
        bump_gf = self._normalized(square128, bump)
        family = []
        for r in (0.2, 0.1, 0.05, 0.025):
            spike = ball_indicator(square128, (0.25, 0.25), r, width=2.0)
            spike_values = spike.values / lp_norm_power(spike)
            mixed = math.sqrt(0.5) * spike_values + math.sqrt(0.5) * bump_gf.values
            family.append(self._normalized(square128, mixed))
        report = concentration_report(family, [0.2, 0.1, 0.05])
        assert len(report.atoms) == 1
        (_, mass), = report.atoms
        assert abs(mass - 0.5) <= 0.05
        assert report.total_audit == pytest.approx(1.0, abs=1e-6)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            concentration_report([], [0.2, 0.1])

    def test_unnormalized_member_rejected(self, square128):
        u = GridFunction(square128, np.full(square128.interior_mask.shape, 0.5))
        with pytest.raises(ValueError, match="normalized"):
            concentration_report([u], [0.2, 0.1])

    def test_nondecreasing_radii_rejected(self, square128):
        member = self._normalized(
            square128, ball_indicator(square128, (0.5, 0.5), 0.1, width=2.0).values
        )
        with pytest.raises(ValueError, match="decreasing"):
            concentration_report([member], [0.1, 0.2])


class TestAchievabilityCertificate:
    def test_unit_disk_certificate(self, disk256):
        result = achievability_certificate(disk256, 1.0)
        assert result.achieved
        assert result.gap >= 0.07
        assert result.gap == result.witness["threshold"] - result.exact.value
        assert result.flag == "achieved (Prop 3.1 + Prop 3.5)"
        assert result.witness["threshold"] == pytest.approx(C_HALF, rel=1e-15)

    def test_ellipse_witness_at_high_curvature_vertex(self, ellipse256):
        result = achievability_certificate(ellipse256, 1.0)
        assert result.achieved
        assert result.gap > 0
        cx, cy = result.witness["center"]
        assert abs(abs(cx) - 2.0) <= 1e-6 and abs(cy) <= 1e-6

    def test_every_catalog_domain_certifies(self, disk256, ellipse256):
        fourier = build_domain(
            DomainSpec.fourier(1.0, cos_coeffs=(0.0, 0.15), sin_coeffs=(0.05,)), 1.0 / 128
        )
        cases = [(disk256, 0.5), (ellipse256, 1.5), (fourier, 1.0)]
        for domain, q in cases:
            result = achievability_certificate(domain, q)
            assert result.achieved
            assert result.gap > 0
