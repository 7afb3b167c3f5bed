import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bvsharp import (
    GridFunction,
    achievability_certificate,
    ball_indicator,
    fit_remainder_order,
    grid_quotient,
    half_space_constant,
    lp_norm_power,
    minimize_quotient,
    rasterize_two_valued,
    total_variation,
    two_valued_quotient_exact,
)
from bvsharp import solver
from bvsharp.geometry import DomainSpec, build_domain

C_HALF = half_space_constant(2)


class TestTotalVariation:
    def test_constant_function_has_zero_tv(self, disk256):
        u = GridFunction(disk256, np.full(disk256.interior_mask.shape, 2.5))
        assert total_variation(u) == 0.0

    def test_ramp_total_variation_is_slope_times_area(self, disk256, ellipse256):
        # |D(a x)|(Omega) = |a| |Omega|; cells whose right neighbour lies
        # outside Omega drop their difference, an O(h) loss.
        for domain in (disk256, ellipse256):
            gx, _ = domain.cell_centers()
            for a in (1.0, -3.0):
                u = GridFunction(domain, a * gx)
                expected = abs(a) * domain.measure
                assert abs(total_variation(u) - expected) <= 0.01 * expected

    def test_disk_indicator_perimeter(self, disk512):
        u = ball_indicator(disk512, (0.1, -0.2), 0.25)
        perimeter = 2.0 * math.pi * 0.25
        assert abs(total_variation(u) - perimeter) <= 0.03 * perimeter

    def test_shift_invariance_exact_on_dyadic_values(self, disk128):
        # Values on a coarse dyadic lattice stay exact under the shift,
        # so the TV sums are bitwise identical.
        rng = np.random.default_rng(5)
        values = np.round(rng.uniform(-1, 1, disk128.interior_mask.shape) * 1024) / 1024
        u = GridFunction(disk128, values)
        shifted = GridFunction(disk128, values + 4.0)
        assert total_variation(shifted) == total_variation(u)

    def test_shift_invariance_for_generic_constants(self, ellipse256):
        rng = np.random.default_rng(6)
        values = rng.uniform(-1, 1, ellipse256.interior_mask.shape)
        u = GridFunction(ellipse256, values)
        shifted = GridFunction(ellipse256, values + math.pi)
        assert total_variation(shifted) == pytest.approx(total_variation(u), rel=1e-10)

    def test_no_charge_across_domain_boundary(self):
        # A function equal to 1 on every interior cell of a disk has zero
        # TV: the boundary trace does not count.
        disk = build_domain(DomainSpec.disk(0.5), 1.0 / 64)
        u = GridFunction(disk, np.where(disk.interior_mask, 1.0, 0.0))
        assert total_variation(u) == 0.0

    @pytest.mark.parametrize("s", [1e100, -1e100, 1e-100])
    def test_homogeneity_at_extreme_scales(self, disk128, s):
        rng = np.random.default_rng(31)
        u = GridFunction(disk128, rng.uniform(-1, 1, disk128.interior_mask.shape))
        scaled = GridFunction(disk128, s * u.values)
        for norm in (total_variation, lp_norm_power):
            assert abs(norm(scaled) - abs(s) * norm(u)) <= 1e-13 * abs(s) * norm(u)

    @pytest.mark.parametrize("s", [1e-160, 1e-170, 1e-300])
    def test_homogeneity_where_squares_underflow(self, disk128, s):
        # The squares of these differences and values are subnormal or 0;
        # the sums are redone without squaring.
        rng = np.random.default_rng(41)
        u = GridFunction(disk128, rng.uniform(-1, 1, disk128.interior_mask.shape))
        scaled = GridFunction(disk128, s * u.values)
        for norm in (total_variation, lp_norm_power):
            assert abs(norm(scaled) / (s * norm(u)) - 1.0) <= 1e-12, norm.__name__

    def test_overflow_raises_by_name(self, disk128):
        rng = np.random.default_rng(37)
        u = GridFunction(disk128, 1e200 * rng.uniform(-1, 1, disk128.interior_mask.shape))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="squared differences overflowed"):
                total_variation(u)
            with pytest.raises(ValueError, match="squared values overflowed"):
                lp_norm_power(u)
            with pytest.raises(ValueError, match="overflowed"):
                grid_quotient(u, 1.0)  # used to return 0 from an infinite norm


def _where_differences(v, mask):
    """The reference stencil: np.where on the pair masks."""
    dx = np.zeros_like(v)
    dy = np.zeros_like(v)
    px = mask[:, 1:] & mask[:, :-1]
    py = mask[1:, :] & mask[:-1, :]
    with np.errstate(invalid="ignore"):  # inf - inf on exterior cells
        dx[:, :-1] = np.where(px, v[:, 1:] - v[:, :-1], 0.0)
        dy[:-1, :] = np.where(py, v[1:, :] - v[:-1, :], 0.0)
    return dx, dy


def _reference_gradient(v, mask, h, delta):
    """The reference Huber-TV gradient, on the reference stencil."""
    dx, dy = _where_differences(v, mask)
    w = 1.0 / np.maximum(np.sqrt(dx * dx + dy * dy), delta)
    gx = dx * w
    gy = dy * w
    grad = np.zeros_like(v)
    grad -= gx
    grad[:, 1:] += gx[:, :-1]
    grad -= gy
    grad[1:, :] += gy[:-1, :]
    grad[~mask] = 0.0
    return h * grad


class TestForwardDifferences:
    def test_matches_where_formulation(self, disk128):
        rng = np.random.default_rng(11)
        y, x = np.mgrid[-1:1:90j, -1:1:120j]
        isolated = np.zeros((40, 60), dtype=bool)
        isolated[1::3, 2::4] = True  # no two interior cells are neighbours
        isolated[20, 10:14] = True  # but one short row
        masks = {
            "disk128": disk128.interior_mask,
            "annulus": (np.hypot(x, y) > 0.35) & (np.hypot(x, y) < 0.9),
            "scattered": rng.random((70, 50)) < 0.55,
            "isolated": isolated,
            "column": np.ones((9, 1), dtype=bool),
            "row": np.ones((1, 9), dtype=bool),
        }
        for name, mask in masks.items():
            v = rng.standard_normal(mask.shape)
            v[::7] = 0.25  # runs of equal values give exact zero differences
            v[~mask] = np.inf  # the stencil never reads an exterior cell
            dx, dy = solver._forward_differences(v, mask)
            ref_dx, ref_dy = _where_differences(v, mask)
            assert np.array_equal(dx, ref_dx), name
            assert np.array_equal(dy, ref_dy), name
            norms = solver._pair_norms(dx, dy)
            assert np.array_equal(norms, np.sqrt(ref_dx * ref_dx + ref_dy * ref_dy)), name
            exact = np.hypot(ref_dx, ref_dy)  # the sqrt form stays within 1 ulp of it
            assert np.all(np.abs(norms - exact) <= np.spacing(exact)), name
            assert np.array_equal(solver._smoothed_tv_gradient(v, mask, 0.02, 1e-3),
                                  _reference_gradient(v, mask, 0.02, 1e-3)), name


class TestLpNormPower:
    def test_binary_indicator_gives_sqrt_of_measure(self, disk256):
        gx, gy = disk256.cell_centers()
        inside = (gx - 0.2) ** 2 + (gy + 0.1) ** 2 < 0.25**2
        u = GridFunction(disk256, inside.astype(float))
        measure = float(np.count_nonzero(inside)) * disk256.h**2
        assert lp_norm_power(u) == pytest.approx(math.sqrt(measure), rel=1e-12)

    def test_scaling_homogeneity(self, ellipse256):
        rng = np.random.default_rng(17)
        u = GridFunction(ellipse256, rng.uniform(-1, 1, ellipse256.interior_mask.shape))
        for s in (2.0, -0.3):
            scaled = GridFunction(ellipse256, s * u.values)
            assert lp_norm_power(scaled) == pytest.approx(abs(s) * lp_norm_power(u), rel=1e-12)

    def test_two_valued_profile_matches_closed_form(self, disk256, disk512):
        # The 10-cell transition band biases the norm by O(10 h); check the
        # magnitude and that halving h roughly halves the deviation.
        from oracles import lens_area

        cap = lens_area(1.0, 0.2, 1.0)
        deviations = []
        for dom in (disk256, disk512):
            beta = two_valued_quotient_exact(dom, (1.0, 0.0), 0.2, 1.0).beta
            u = rasterize_two_valued(dom, (1.0, 0.0), 0.2, beta)
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
        qv = two_valued_quotient_exact(disk512, (1.0, 0.0), 0.2, 1.0)
        u = rasterize_two_valued(disk512, (1.0, 0.0), 0.2, qv.beta)
        exact = qv.value
        assert abs(grid_quotient(u, 1.0) - exact) <= 0.05 * exact

    def test_scale_invariance_on_random_functions(self, disk128):
        rng = np.random.default_rng(23)
        for _ in range(100):
            values = rng.uniform(-1, 1, disk128.interior_mask.shape)
            u = GridFunction(disk128, values)
            s = float(rng.uniform(0.2, 5.0)) * (1 if rng.random() < 0.5 else -1)
            scaled = GridFunction(disk128, s * values)
            q = float(rng.choice([0.5, 1.0, 1.5]))
            assert grid_quotient(scaled, q) == pytest.approx(
                grid_quotient(u, q), rel=1e-10
            )

    def test_constant_function_rejected(self, disk128):
        u = GridFunction(disk128, np.ones(disk128.interior_mask.shape))
        with pytest.raises(ValueError, match="degenerate"):
            grid_quotient(u, 1.0)

    def test_h_convergence_order_empirical(self, disk128, disk256, disk512):
        # Grid quotients approach the exact quadrature value roughly
        # linearly in h; 0.9 is the empirical cutoff.
        exact = two_valued_quotient_exact(disk128, (1.0, 0.0), 0.2, 1.0).value
        errors = []
        for dom in (disk128, disk256, disk512):
            beta = two_valued_quotient_exact(dom, (1.0, 0.0), 0.2, 1.0).beta
            u = rasterize_two_valued(dom, (1.0, 0.0), 0.2, beta)
            errors.append(abs(grid_quotient(u, 1.0) - exact))
        hs = [dom.h for dom in (disk128, disk256, disk512)]
        assert fit_remainder_order(hs, errors) >= 0.9


class TestMinimizeQuotient:
    BUDGET = 40

    def test_deterministic_under_fixed_seed(self, disk128):
        first = minimize_quotient(disk128, 1.0, self.BUDGET)
        second = minimize_quotient(disk128, 1.0, self.BUDGET)
        assert np.array_equal(first.history, second.history)
        assert first.value == second.value

    def test_best_history_is_nonincreasing(self, disk128):
        estimate = minimize_quotient(disk128, 1.0, self.BUDGET)
        best = estimate.history[:, 1]
        assert np.all(np.diff(best) <= 0.0 + 1e-15)

    def test_never_worse_than_first_iterate(self, disk128):
        estimate = minimize_quotient(disk128, 1.0, self.BUDGET)
        assert estimate.value <= estimate.history[0, 3] + 1e-12

    def test_value_is_quotient_of_snapshot(self, disk128):
        estimate = minimize_quotient(disk128, 1.0, self.BUDGET)
        assert grid_quotient(estimate.snapshot, 1.0) == pytest.approx(
            estimate.value, abs=1e-10
        )

    def test_below_half_space_threshold(self, disk256):
        estimate = minimize_quotient(disk256, 1.0, budget=60)
        assert estimate.value < C_HALF
        assert estimate.below_threshold

    def test_light_monotonicity_sweep(self, disk128):
        reference = minimize_quotient(disk128, 1.0, budget=25).value
        for q in (0.5, 1.5):
            estimate = minimize_quotient(disk128, q, budget=25)
            assert estimate.value <= reference + 0.02

    def test_invalid_config_rejected(self, disk128):
        with pytest.raises(ValueError):
            minimize_quotient(disk128, 1.0, budget=0)
        with pytest.raises(ValueError):
            minimize_quotient(disk128, 2.5, self.BUDGET)

    def test_trajectory_matches_hypot_norms(self, disk128, monkeypatch):
        # The sqrt(dx^2 + dy^2) pair norm moves TV by a few ulps against
        # hypot; the descent takes the same steps and stops at the same row.
        fast = minimize_quotient(disk128, 1.0, self.BUDGET)
        monkeypatch.setattr(solver, "_pair_norms", np.hypot)
        exact = minimize_quotient(disk128, 1.0, self.BUDGET)
        assert fast.history.shape == exact.history.shape
        for col in (0, 1, 3, 4):
            assert np.all(np.abs(fast.history[:, col] - exact.history[:, col])
                          <= 2e-15 * np.abs(exact.history[:, col])), col
        assert np.all(np.abs(fast.history[:, 2] - exact.history[:, 2]) <= 1e-15)
        assert abs(fast.value - exact.value) <= 2e-15 * exact.value

    def test_history_independent_of_blas_threads(self):
        # Each reduction in the loop is a numpy pairwise sum; a BLAS dot
        # product would be split across threads and round differently.
        root = Path(__file__).resolve().parent.parent
        probe = (
            "import hashlib, bvsharp as b; "
            "d = b.build_domain(b.DomainSpec.disk(1.0), 1.0 / 96); "
            "e = b.minimize_quotient(d, 1.0, budget=30); "
            "print(e.history.shape[0], hashlib.sha256(e.history.tobytes()).hexdigest())"
        )
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS=threads)
            result = subprocess.run([sys.executable, "-c", probe], env=env,
                                    capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            digests.append(result.stdout.split())
        assert digests[0][0] == "30"
        assert digests[0] == digests[1]

    def test_solver_makes_no_blas_calls(self):
        source = Path(solver.__file__).read_text()
        for token in ("np.linalg", "np.dot", ".dot(", " @ "):
            assert token not in source, token

    def test_constant_seed_rejected(self, disk128, monkeypatch):
        # A seed with one level leaves no iterate to evaluate.
        constant = GridFunction(disk128, np.ones(disk128.interior_mask.shape))
        monkeypatch.setattr(solver, "rasterize_two_valued", lambda *args: constant)
        with pytest.raises(ValueError, match="all levels equal"):
            minimize_quotient(disk128, 1.0, budget=5)


class TestAchievabilityCertificate:
    def test_unit_disk_certificate(self, disk256):
        result = achievability_certificate(disk256, 1.0)
        assert result.achieved
        assert result.gap >= 0.07
        assert result.gap == result.witness["threshold"] - result.exact.value
        assert result.flag == "achieved (Prop 3.1 + Prop 3.5)"
        assert result.witness["threshold"] == pytest.approx(C_HALF, rel=1e-15, abs=0)

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

    @pytest.mark.parametrize("q", [0.0, -0.5, 2.0, 3.0, math.nan])
    def test_rejects_q_outside_the_exponent_range(self, disk128, q):
        # q = 3 once certified with gap 1.581, and q = NaN gave a NaN
        # quotient reported as "not certified".
        with pytest.raises(ValueError, match="q must lie"):
            achievability_certificate(disk128, q)
