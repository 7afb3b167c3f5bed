"""Small-radius expansions and the empirical fits that audit them.

The expansions are the boundary-cap area and inside arc of a planar
domain (Hulin & Troyanov's asymptotic volume of small balls), the domain
quotient with its linear coefficient, Gray's geodesic-ball volume and
perimeter, and the surface quotients at subcritical and critical q.
Each checks its inputs through `_check_expansion_inputs`.

Remainder orders come out of a log-log least-squares line; the leading
linear coefficient of a quotient expansion comes from fitting the
difference quotient (Q(eps) - limit)/eps against eps and reading off
the intercept, which strips the next-order contamination that a direct
slope fit would keep.  Both fits draw one least-squares line (`_line`),
in closed form on Python floats, and need two or more distinct positive
radii, spread by more than 2^-26 relative, and a finite value at each.
"""

from __future__ import annotations

import math

from .constants import (_check_dimension, _check_finite, _check_positive, euler_beta,
                        half_space_constant, sharp_sobolev_constant, unit_ball_volume)


def _check_expansion_inputs(n: int, eps: float, **coefficients: float) -> None:
    """Raise ValueError naming a non-finite coefficient, or from eps's and n's rules."""
    for name, value in coefficients.items():
        _check_finite(value, name)
    _check_positive(eps, "eps")
    _check_dimension(n, 2)


def cap_measure_expansion(H: float, eps: float, n: int) -> float:
    """Two-term small-radius expansion of the boundary-cap area,

        (omega_n eps^n / 2) * (1 - n H eps / ((n+1) B(1/2, (n-1)/2))),

    where H is the boundary mean curvature at the center (Hulin &
    Troyanov's asymptotic volume of small balls).
    """
    _check_expansion_inputs(n, eps, H=H)
    lead = unit_ball_volume(n) * eps**n / 2.0
    corr = n * H * eps / ((n + 1) * euler_beta(0.5, (n - 1) / 2.0))
    return lead * (1.0 - corr)


def boundary_arc_expansion(H: float, eps: float, n: int) -> float:
    """Two-term expansion of the inside arc length,

        (n omega_n eps^(n-1) / 2) * (1 - H eps / B(1/2, (n-1)/2)).
    """
    _check_expansion_inputs(n, eps, H=H)
    lead = n * unit_ball_volume(n) * eps ** (n - 1) / 2.0
    return lead * (1.0 - H * eps / euler_beta(0.5, (n - 1) / 2.0))


def domain_quotient_expansion(H: float, eps: float, n: int) -> float:
    """First-order expansion of the domain quotient in the cap radius,

        (c*_n / 2^(1/n)) * (1 - 2 H eps / ((n+1) B(1/2, (n-1)/2))).

    At H = 0 this is exactly the half-space constant.
    """
    _check_expansion_inputs(n, eps, H=H)
    slope = 2.0 * H * eps / ((n + 1) * euler_beta(0.5, (n - 1) / 2.0))
    return half_space_constant(n) * (1.0 - slope)


def domain_quotient_slope(H: float, n: int) -> float:
    """Linear coefficient in eps of `domain_quotient_expansion`, the
    target of the domain-quotient audit's fit."""
    return -half_space_constant(n) * 2.0 * H / ((n + 1) * euler_beta(0.5, (n - 1) / 2.0))


def gray_expansion(S: float, eps: float, n: int) -> float:
    """Two-term geodesic-ball volume expansion (Gray's small-ball formula),

        omega_n eps^n (1 - S eps^2 / (6 (n+2))).
    """
    _check_expansion_inputs(n, eps, S=S)
    lead = unit_ball_volume(n) * eps**n
    return lead * (1.0 - S * eps**2 / (6.0 * (n + 2)))


def geodesic_circle_expansion(S: float, eps: float, n: int) -> float:
    """Two-term geodesic-sphere perimeter expansion,

        n omega_n eps^(n-1) (1 - S eps^2 / (6 n)).
    """
    _check_expansion_inputs(n, eps, S=S)
    lead = n * unit_ball_volume(n) * eps ** (n - 1)
    return lead * (1.0 - S * eps**2 / (6.0 * n))


def surface_quotient_expansion(S: float, eps: float, n: int) -> float:
    """Second-order expansion of the closed-surface quotient (subcritical q),

        c*_n * (1 - S eps^2 / (2 n (n+2))),

    where S is the scalar curvature at the geodesic-ball center.
    """
    _check_expansion_inputs(n, eps, S=S)
    return sharp_sobolev_constant(n) * (1.0 - S * eps**2 / (2.0 * n * (n + 2)))


def critical_quotient_expansion(S: float, area: float, eps: float, n: int) -> float:
    """Surface quotient expansion at the critical exponent q = n^2/(n^2+n-2),

        c*_n * (1 + sigma ((n-1)/n) (omega_n / area)^(2/n) eps^2
                  - S eps^2 / (2 n (n+2))),

    with omega_n the unit-ball volume, sigma = +1 at n = 2 and -1 for
    n >= 3.  The sigma term is the back-reaction of the constraint
    plateau beta ~ eps^(n/q): beta^(n/(n-1)) raises the denominator by
    ((n-1)/n)(omega_n/area)^(2/n) eps^2, and at n = 2 only the factor
    1 + beta of the numerator is of the same order, and twice as large.
    At n = 2 the plateau and curvature terms cancel exactly on a round
    sphere (S = 2 on the unit sphere of area 4 pi), the borderline case.
    """
    _check_expansion_inputs(n, eps, S=S)
    _check_positive(area, "area")
    plateau_term = (n - 1) / n * (unit_ball_volume(n) / area) ** (2.0 / n)
    if n >= 3:
        plateau_term = -plateau_term
    curvature_term = S / (2.0 * n * (n + 2))
    return sharp_sobolev_constant(n) * (1.0 + (plateau_term - curvature_term) * eps**2)


def _checked_radii(eps, values, fit: str, limit: float = 0.0):
    """(eps, values) as lists of floats.  Raises ValueError, naming the first
    offender, unless there are two or more radii, all positive and distinct,
    spread by more than 2^-26 = sqrt(ulp) of the largest, one finite value
    per radius and a finite `limit`: a repeated radius leaves the line
    singular, and closer radii leave it to the rounding of the values."""
    eps, values = [float(e) for e in eps], [float(v) for v in values]
    if len(values) != len(eps):
        raise ValueError(f"{len(eps)} radii but {len(values)} values for {fit}")
    if len(eps) < 2:
        raise ValueError(f"need at least two radii for {fit}")
    for i, (radius, value) in enumerate(zip(eps, values)):
        _check_positive(radius, f"eps[{i}]")
        _check_finite(value, f"values[{i}]")
    _check_finite(limit, "limit")
    if len(set(eps)) < len(eps):
        raise ValueError(f"radii must be distinct for {fit}, got {eps}")
    if max(eps) - min(eps) <= 2.0**-26 * max(eps):
        raise ValueError(f"radii must spread by more than 2^-26 of the largest for {fit}, "
                         f"got {eps}")
    return eps, values


def _line(x: list, y: list):
    """(intercept, slope) of the least-squares line through the points
    (x_i, y_i), in closed form about the means, each sum rounded once."""
    mx, my = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [xi - mx for xi in x]
    slope = math.fsum(d * (yi - my) for d, yi in zip(dx, y)) / math.fsum(d * d for d in dx)
    return my - slope * mx, slope


def fit_remainder_order(eps, diffs) -> float:
    """Slope of log|diff| against log eps (the empirical remainder order)."""
    eps, diffs = _checked_radii(eps, [abs(d) for d in diffs], "an order fit")
    if min(diffs) <= 0.0:
        raise ValueError("differences must be nonzero for a log-log fit")
    return _line([math.log(e) for e in eps], [math.log(d) for d in diffs])[1]


def fit_linear_coefficient(eps, values, limit: float) -> float:
    """Leading coefficient s in values(eps) = limit + s*eps + O(eps^2).

    Fits (values - limit)/eps = s + c*eps by least squares and returns
    the intercept s.
    """
    eps, values = _checked_radii(eps, values, "a coefficient fit", limit)
    return _line(eps, [(v - limit) / e for v, e in zip(values, eps)])[0]
