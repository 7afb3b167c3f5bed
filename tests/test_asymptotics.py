"""The expansions' one home: `bvsharp.asymptotics` defines every
small-radius expansion, the exact-quadrature modules import only the
constants they evaluate, and the package exports each expansion from
there."""

import ast
import importlib
import inspect
import math
import random
import re
import types
from pathlib import Path

import mpmath
import pytest

import bvsharp
from bvsharp import asymptotics, constants, euler_beta, half_space_constant

EXPANSIONS = (
    "cap_measure_expansion",
    "boundary_arc_expansion",
    "domain_quotient_expansion",
    "surface_quotient_expansion",
    "critical_quotient_expansion",
    "gray_expansion",
    "geodesic_circle_expansion",
)

MODULES = ("asymptotics", "cli", "constants", "geometry", "profiles", "solver", "surfaces")

# What each module takes from `constants`: the constants it evaluates and
# the input rules it checks.
CONSTANTS_IMPORTS = {
    "asymptotics": {"_check_dimension", "_check_finite", "_check_positive", "euler_beta",
                    "half_space_constant", "sharp_sobolev_constant", "unit_ball_volume"},
    "cli": set(),
    "constants": set(),
    "geometry": {"_check_finite", "_check_positive", "_checked_centre"},
    "profiles": {"_check_exponent", "half_space_constant"},
    "solver": {"_check_exponent", "_check_positive"},
    "surfaces": {"_check_dimension", "_check_exponent", "_check_positive", "_checked_centre",
                 "sharp_sobolev_constant", "unit_sphere_area"},
}

# Every name the package exported before the expansions moved, less the
# removed `boundary_mean_curvature`, `constraint_residual` and `beta_eps`.
EXPORTS = (
    "AchievabilityVerdict", "ConstantEstimate", "DomainBuildError", "DomainSpec", "GridDomain",
    "GridFunction", "MaxCurvatureSeed", "QuotientValue", "SurfaceModel",
    "achievability_certificate", "ball_indicator", "boundary_arc_expansion",
    "boundary_arc_inside", "build_domain", "cap_measure", "cap_measure_expansion",
    "classify_achievability", "critical_curvature_threshold",
    "critical_quotient_expansion", "domain_quotient_expansion", "euler_beta",
    "fit_linear_coefficient", "fit_remainder_order", "gamma_half_integer", "gauss_bonnet_check",
    "geodesic_ball_area", "geodesic_circle_expansion", "geodesic_circle_length",
    "gray_expansion", "grid_quotient", "half_space_constant", "hemisphere_certificate",
    "lp_norm_power", "max_curvature_seed", "minimize_quotient", "optimal_epsilon",
    "rasterize_two_valued", "scalar_curvature", "sharp_sobolev_constant",
    "shift_to_constraint", "sign_power", "surface_quotient_expansion",
    "surface_two_valued_quotient", "total_variation", "two_valued_quotient_exact",
    "unit_ball_volume", "unit_sphere_area",
)


def _constants_imports(name):
    """Names module `name` imports from `.constants`."""
    path = Path(importlib.import_module(f"bvsharp.{name}").__file__)
    return {alias.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module == "constants" for alias in node.names}


def test_only_asymptotics_defines_expansions():
    defined = {
        name: {f for f, fn in inspect.getmembers(importlib.import_module(f"bvsharp.{name}"),
                                                 inspect.isfunction)
               if fn.__module__ == f"bvsharp.{name}" and f.endswith("_expansion")
               and not f.startswith("_")}
        for name in MODULES
    }
    assert defined.pop("asymptotics") == set(EXPANSIONS)
    assert all(not names for names in defined.values()), defined


@pytest.mark.parametrize("name", MODULES)
def test_modules_import_only_their_constants(name):
    assert _constants_imports(name) == CONSTANTS_IMPORTS[name]


def test_constants_keeps_no_expansion_check():
    assert not hasattr(constants, "_check_expansion_inputs")


def test_package_exports_every_expansion_from_asymptotics():
    missing = [name for name in EXPORTS if not hasattr(bvsharp, name)]
    assert missing == []
    assert not hasattr(bvsharp, "boundary_mean_curvature")
    assert not hasattr(bvsharp, "constraint_residual")
    assert not hasattr(bvsharp, "beta_eps")
    for name in EXPANSIONS:
        assert getattr(bvsharp, name) is getattr(asymptotics, name)
        for module in ("geometry", "profiles", "surfaces"):
            assert not hasattr(importlib.import_module(f"bvsharp.{module}"), name)


class TestDomainQuotientSlope:
    @pytest.mark.parametrize("H", [0.0, 0.25, 1.0, 2.0, -0.3, 7.5])
    def test_planar_bits(self, H):
        # The audit's target coefficient as it was formed at n = 2.
        c_half = half_space_constant(2)
        assert asymptotics.domain_quotient_slope(H, 2) == -c_half * 2.0 * H / (
            3.0 * euler_beta(0.5, 0.5))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_is_the_expansion_slope(self, n):
        eps, H = 0.01, 1.3
        expansion = asymptotics.domain_quotient_expansion(H, eps, n)
        assert (expansion - half_space_constant(n)) / eps == pytest.approx(
            asymptotics.domain_quotient_slope(H, n), rel=1e-12, abs=0)


def test_asymptotics_binds_no_numpy_module():
    numpy_modules = [name for name, value in vars(asymptotics).items()
                     if isinstance(value, types.ModuleType) and value.__name__.split(".")[0] == "numpy"]
    assert numpy_modules == []


def _mpmath_line(x, y):
    """(intercept, slope) of the least-squares line through the float points, in mpmath."""
    with mpmath.workdps(60):
        x, y = [mpmath.mpf(v) for v in x], [mpmath.mpf(v) for v in y]
        mx, my = sum(x) / len(x), sum(y) / len(y)
        slope = (sum((a - mx) * (b - my) for a, b in zip(x, y))
                 / sum((a - mx) ** 2 for a in x))
        return float(my - slope * mx), float(slope)


def _audit_like_data(seed):
    """Seeded radii in [0.01, 0.5] and an expansion limit + s eps + c eps^2 + d eps^3
    of them, the shape of the audits' data."""
    rng = random.Random(seed)
    radii = sorted(rng.uniform(0.01, 0.5) for _ in range(rng.randint(3, 8)))
    limit, s, c, d = (rng.uniform(-3.0, 3.0) for _ in range(4))
    return radii, limit, [limit + s * e + c * e * e + d * e ** 3 for e in radii]


class TestLineFit:
    """The two audit fits share one least-squares line, in closed form on floats."""

    @pytest.mark.parametrize("seed", range(20))
    def test_coefficient_fit_matches_an_mpmath_line(self, seed):
        radii, limit, values = _audit_like_data(seed)
        fitted = asymptotics.fit_linear_coefficient(radii, values, limit)
        want = _mpmath_line(radii, [(v - limit) / e for v, e in zip(values, radii)])[0]
        assert abs(fitted - want) <= 8.0 * math.ulp(want)

    @pytest.mark.parametrize("seed", range(20))
    def test_order_fit_matches_an_mpmath_line(self, seed):
        radii, limit, values = _audit_like_data(seed)
        order = random.Random(seed).uniform(1.0, 6.0)
        diffs = [(v - limit) * e ** order for v, e in zip(values, radii)]
        fitted = asymptotics.fit_remainder_order(radii, diffs)
        want = _mpmath_line([math.log(e) for e in radii], [math.log(abs(d)) for d in diffs])[1]
        assert abs(fitted - want) <= 8.0 * math.ulp(want)

    def test_exact_line_is_recovered(self):
        radii = [0.05, 0.1, 0.2, 0.4]
        assert asymptotics.fit_remainder_order(radii, [3.0 * e ** 4 for e in radii]) == \
            pytest.approx(4.0, rel=1e-14, abs=0)
        values = [2.0 - 0.5 * e + 0.25 * e * e for e in radii]
        assert asymptotics.fit_linear_coefficient(radii, values, 2.0) == pytest.approx(
            -0.5, rel=1e-14, abs=0)

    @pytest.mark.parametrize("fit, name", [
        (lambda radii: asymptotics.fit_remainder_order(radii, [1e-3, 2e-3]), "an order fit"),
        (lambda radii: asymptotics.fit_linear_coefficient(radii, [2.4, 2.3], 2.5),
         "a coefficient fit"),
    ])
    def test_near_equal_radii_are_rejected_by_name(self, fit, name):
        # 0.1 and 0.1000000000000001 gave numpy's RankWarning and an order of 1.127.
        with pytest.raises(ValueError, match=re.escape(
                f"radii must spread by more than 2^-26 of the largest for {name}, "
                "got [0.1, 0.1000000000000001]")):
            fit([0.1, 0.1000000000000001])
        with pytest.raises(ValueError, match="radii must spread"):
            fit([0.1, 0.1 * (1.0 + 2.0**-27)])
        assert math.isfinite(fit([0.1, 0.1 * (1.0 + 2.0**-25)]))
