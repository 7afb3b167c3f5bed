"""Sharp Poincare-Sobolev constants for BV functions.

A numerical toolkit around the constrained isoperimetric quotient

    |Du|(Omega) / (int |u|^{n/(n-1)})^{1-1/n},   int sgn(u)|u|^q = 0,

on bounded planar domains and closed surfaces: exact special-function
constants, boundary-cap quadrature and curvature expansions, two-valued
certificate profiles, geodesic-ball asymptotics, an achievability
classifier, and an exploratory discrete total-variation minimizer.
"""

from .asymptotics import (
    boundary_arc_expansion,
    cap_measure_expansion,
    critical_quotient_expansion,
    domain_quotient_expansion,
    fit_linear_coefficient,
    fit_remainder_order,
    geodesic_circle_expansion,
    gray_expansion,
    surface_quotient_expansion,
)
from .constants import (
    euler_beta,
    gamma_half_integer,
    half_space_constant,
    sharp_sobolev_constant,
    unit_ball_volume,
    unit_sphere_area,
)
from .geometry import (
    DomainBuildError,
    DomainSpec,
    GridDomain,
    MaxCurvatureSeed,
    boundary_arc_inside,
    build_domain,
    cap_measure,
    max_curvature_seed,
)
from .profiles import (
    QuotientValue,
    achievability_certificate,
    beta_eps,
    constraint_residual,
    optimal_epsilon,
    shift_to_constraint,
    sign_power,
    two_valued_quotient_exact,
)
from .solver import (
    ConstantEstimate,
    GridFunction,
    ball_indicator,
    grid_quotient,
    lp_norm_power,
    minimize_quotient,
    rasterize_two_valued,
    total_variation,
)
from .surfaces import (
    AchievabilityVerdict,
    SurfaceModel,
    classify_achievability,
    critical_curvature_threshold,
    gauss_bonnet_check,
    geodesic_ball_area,
    geodesic_circle_length,
    hemisphere_certificate,
    scalar_curvature,
    surface_two_valued_quotient,
)

__version__ = "0.1.0"
