"""Sharp Poincare-Sobolev constants for BV functions.

A numerical toolkit around the constrained isoperimetric quotient

    |Du|(Omega) / (int |u|^{n/(n-1)})^{1-1/n},   int sgn(u)|u|^q = 0,

on bounded planar domains and closed surfaces: exact special-function
constants, boundary-cap quadrature and curvature expansions, two-valued
certificate profiles, geodesic-ball asymptotics, an achievability
classifier, and an exploratory discrete total-variation minimizer.
"""

from .asymptotics import fit_linear_coefficient, fit_remainder_order
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
    boundary_arc_expansion,
    boundary_arc_inside,
    boundary_mean_curvature,
    build_domain,
    cap_measure,
    cap_measure_expansion,
    max_curvature_seed,
)
from .profiles import (
    QuotientValue,
    achievability_certificate,
    beta_eps,
    constraint_residual,
    critical_quotient_expansion,
    domain_quotient_expansion,
    optimal_epsilon,
    shift_to_constraint,
    sign_power,
    surface_quotient_expansion,
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
    geodesic_circle_expansion,
    geodesic_circle_length,
    gray_expansion,
    hemisphere_certificate,
    scalar_curvature,
    surface_two_valued_quotient,
)

__version__ = "0.1.0"
