"""The expansions' one home: `bvsharp.asymptotics` defines every
small-radius expansion, the exact-quadrature modules import only the
constants they evaluate, and the package exports each expansion from
there."""

import ast
import importlib
import inspect
from pathlib import Path

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
    "asymptotics": {"_check_dimension", "_check_positive", "euler_beta", "half_space_constant",
                    "sharp_sobolev_constant", "unit_ball_volume"},
    "cli": set(),
    "constants": set(),
    "geometry": {"_check_finite", "_check_positive"},
    "profiles": {"_check_exponent", "half_space_constant"},
    "solver": set(),
    "surfaces": {"_check_dimension", "_check_exponent", "_check_positive",
                 "sharp_sobolev_constant", "unit_sphere_area"},
}

# Every name the package exported before the expansions moved, less the
# removed `boundary_mean_curvature`.
EXPORTS = (
    "AchievabilityVerdict", "ConstantEstimate", "DomainBuildError", "DomainSpec", "GridDomain",
    "GridFunction", "MaxCurvatureSeed", "QuotientValue", "SurfaceModel",
    "achievability_certificate", "ball_indicator", "beta_eps", "boundary_arc_expansion",
    "boundary_arc_inside", "build_domain", "cap_measure", "cap_measure_expansion",
    "classify_achievability", "constraint_residual", "critical_curvature_threshold",
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
