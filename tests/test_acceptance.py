"""Acceptance suite: one test per release criterion.

Each test prints a PASS line with the measured numbers once its
assertions hold, so `pytest -s tests/test_acceptance.py` doubles as a
human-readable report.  Expected values marked as oracle-derived are
computed in place from closed forms (lens areas, arc angles, spherical
caps) that never touch the quadrature paths they judge.
"""

import math
import time

import numpy as np
import pytest

from bvsharp import (
    SurfaceModel,
    classify_achievability,
    constraint_residual,
    critical_curvature_threshold,
    fit_linear_coefficient,
    fit_remainder_order,
    gauss_bonnet_check,
    geodesic_circle_expansion,
    gray_expansion,
    grid_quotient,
    half_space_constant,
    hemisphere_certificate,
    minimize_quotient,
    optimal_epsilon,
    rasterize_two_valued,
    sharp_sobolev_constant,
    two_valued_quotient_exact,
    unit_ball_volume,
)
from oracles import (
    disk_arc_inside,
    lens_area,
    sphere_cap_area,
    sphere_circle_length,
    two_valued_quotient,
)

C_STAR_2 = 3.5449077
C_HALF_2 = 2.5066283


def test_criterion_1_constants():
    c2 = sharp_sobolev_constant(2)
    assert abs(c2 - C_STAR_2) <= 1e-6
    for n in range(2, 11):
        cn = sharp_sobolev_constant(n)
        assert abs(cn - n * unit_ball_volume(n) ** (1.0 / n)) <= 1e-12 * cn
    ch2 = half_space_constant(2)
    assert abs(ch2 - C_HALF_2) <= 1e-6
    print(f"\nPASS criterion 1 (constants): c*_2 = {c2:.9f}, c_half(2) = {ch2:.9f}, "
          f"dual formulas agree to 1e-12 for n = 2..10")


def test_criterion_2_hemisphere_certificate():
    for q in (0.5, 1.0, 1.5):
        cert = hemisphere_certificate(q)
        assert abs(cert.value - sharp_sobolev_constant(2)) <= 1e-12
        hemisphere = 2.0 * math.pi
        assert constraint_residual([(1.0, hemisphere), (-cert.beta, hemisphere)], q) == 0.0
    print("PASS criterion 2 (hemisphere certificate): value = c*_2 to 1e-12, "
          "residual 0 for q in {0.5, 1, 1.5}")


def test_criterion_3_strict_inequality_on_unit_disk(disk256):
    started = time.time()
    # Closed-form oracle: circle-circle lens area and inside-arc length
    # composed through the plateau algebra.
    cap = lens_area(1.0, 0.2, 1.0)
    arc = disk_arc_inside(0.2)
    oracle = two_valued_quotient(cap, arc, math.pi, 1.0)
    assert oracle == pytest.approx(2.4215803553186914, abs=1e-12)

    qv = two_valued_quotient_exact(disk256, (1.0, 0.0), 0.2, 1.0)
    assert abs(qv.value - oracle) <= 2e-3
    assert qv.value < C_HALF_2 - 0.05

    best_eps, best = optimal_epsilon(disk256, (1.0, 0.0), 1.0)
    assert best.value <= qv.value + 1e-12
    elapsed = time.time() - started
    print(f"PASS criterion 3 (disk strict inequality): Q(0.2) = {qv.value:.6f} "
          f"(oracle {oracle:.6f}), optimal eps = {best_eps:.3f} -> {best.value:.6f}; "
          f"{elapsed:.1f} s")


def test_criterion_4_domain_expansion_slope(disk256):
    started = time.time()
    radii = [0.05, 0.1, 0.2]
    values = [
        two_valued_quotient_exact(disk256, (1.0, 0.0), eps, 1.0).value for eps in radii
    ]
    fitted = fit_linear_coefficient(radii, values, half_space_constant(2))
    target = -0.5319  # -c_half * 2H / ((n+1) B(1/2,1/2)) at H = 1, n = 2
    assert abs(fitted - target) <= 0.15 * abs(target)
    print(f"PASS criterion 4 (expansion slope): fitted {fitted:.4f} vs {target} "
          f"(deviation {abs(fitted-target)/abs(target)*100:.1f}%); "
          f"{time.time()-started:.1f} s")


def test_criterion_5_gray_audit():
    started = time.time()
    radii = np.geomspace(0.05, 0.4, 6)
    ball_diffs = [abs(sphere_cap_area(e) - gray_expansion(2.0, e, 2)) for e in radii]
    circle_diffs = [
        abs(sphere_circle_length(e) - geodesic_circle_expansion(2.0, e, 2)) for e in radii
    ]
    ball_order = fit_remainder_order(radii, ball_diffs)
    circle_order = fit_remainder_order(radii, circle_diffs)
    assert ball_order >= 3.5
    assert circle_order >= 3.5
    print(f"PASS criterion 5 (Gray audit): ball order {ball_order:.2f}, "
          f"circle order {circle_order:.2f} (both >= 3.5); {time.time()-started:.1f} s")


def test_criterion_6_critical_threshold():
    t2 = critical_curvature_threshold(2, 4.0 * math.pi)
    assert abs(t2 - 2.0) <= 1e-9   # the round unit sphere's S: equality case
    t3 = critical_curvature_threshold(3, 2.0 * math.pi**2)
    assert abs(t3 - 6.0) <= 1e-6   # round S^3 numbers: equality again
    print(f"PASS criterion 6 (critical threshold): threshold(2, 4pi) = {t2!r}, "
          f"threshold(3, 2pi^2) = {t3!r}")


def test_criterion_7_gauss_bonnet_and_classifier():
    started = time.time()
    spheroid = SurfaceModel.spheroid(1.0, 1.3)
    integral, target = gauss_bonnet_check(spheroid)
    assert target == pytest.approx(8.0 * math.pi, rel=1e-15, abs=0)
    assert abs(integral - target) <= 1e-3 * target

    verdict = classify_achievability(spheroid, 1.5)
    assert verdict.verdict == "achieved"
    assert verdict.justification == "Thm7"
    torus = classify_achievability(SurfaceModel.flat_torus(1.0, 1.0), 1.5)
    assert torus.verdict == "inconclusive"
    print(f"PASS criterion 7 (Gauss-Bonnet + classifier): spheroid integral "
          f"{integral:.6f} vs 8pi = {8*math.pi:.6f}; spheroid -> Thm7, torus -> "
          f"inconclusive; {time.time()-started:.1f} s")


SOLVER_BUDGET = 120


def test_criterion_8_monotonicity(disk256):
    started = time.time()
    reference = minimize_quotient(disk256, 1.0, budget=SOLVER_BUDGET).value
    estimates = {}
    for q in (0.25, 0.5, 1.5):
        estimates[q] = minimize_quotient(disk256, q, budget=SOLVER_BUDGET).value
        assert estimates[q] <= reference + 0.02

    # First-order condition of the shift on random three-level functions:
    # the residual at exponent 1 vanishes at the weighted mean, which is
    # the minimizer of the quadratic norm (n = 2).
    rng = np.random.default_rng(2718)
    for _ in range(100):
        levels = rng.uniform(-2.0, 2.0, size=3)
        measures = rng.uniform(0.2, 2.0, size=3)
        mean = float(np.sum(levels * measures) / np.sum(measures))
        pairs = [(lv - mean, m) for lv, m in zip(levels, measures)]
        assert abs(constraint_residual(pairs, 1.0)) <= 1e-8
    values = ", ".join(f"c^{q} = {v:.4f}" for q, v in sorted(estimates.items()))
    print(f"PASS criterion 8 (monotonicity): {values} all <= c^1 = {reference:.4f} "
          f"+ 0.02; shift first-order condition at 1e-8 on 100 samples; "
          f"{time.time()-started:.0f} s")


def test_criterion_9_solver_sanity(disk256, disk512):
    started = time.time()
    first = minimize_quotient(disk256, 1.0, budget=40)
    second = minimize_quotient(disk256, 1.0, budget=40)
    assert np.array_equal(first.history, second.history)
    assert np.all(np.diff(first.history[:, 1]) <= 0.0)

    u, _ = rasterize_two_valued(disk512, (1.0, 0.0), 0.2, 1.0)
    exact = two_valued_quotient_exact(disk512, (1.0, 0.0), 0.2, 1.0).value
    seed_error = abs(grid_quotient(u, 1.0) - exact) / exact
    assert seed_error <= 0.05

    print(f"PASS criterion 9 (solver sanity): bitwise-deterministic histories, "
          f"nonincreasing best quotient, seed grid error {seed_error*100:.1f}% <= 5%; "
          f"{time.time()-started:.0f} s")
