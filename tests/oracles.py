"""Independent closed-form oracles shared by the test modules.

These stay deliberately separate from the package's quadrature paths:
every [expected value] asserted against the library is computed here
from textbook formulas (circle-circle lens area, circular arc angles,
ellipse curvature, spheroid areas, spherical caps).
"""

import math


def lens_area(r: float, R: float, d: float, lib=math):
    """Area of the intersection of circles (radius r) and (radius R, center d apart).

    lib supplies acos and sqrt: math for floats, or mpmath for mpf arguments,
    which keeps the digits that the float form loses to cancellation at small r."""
    return (
        r * r * lib.acos((d * d + r * r - R * R) / (2 * d * r))
        + R * R * lib.acos((d * d + R * R - r * r) / (2 * d * R))
        - lib.sqrt((-d + r + R) * (d + r - R) * (d - r + R) * (d + r + R)) / 2
    )


def disk_arc_inside(eps: float, r: float = 1.0) -> float:
    """Length of the circle dB(a, eps), a on the unit-r circle, lying inside it."""
    return eps * (math.pi - 2.0 * math.asin(eps / (2.0 * r)))


def ellipse_curvature(a: float, b: float, t: float) -> float:
    """Curvature of (a cos t, b sin t)."""
    return a * b / (b**2 * math.cos(t) ** 2 + a**2 * math.sin(t) ** 2) ** 1.5


def two_valued_quotient(cap: float, arc: float, total: float, q: float) -> float:
    """Quotient of the two-valued profile from its closed-form ingredients (n = 2)."""
    beta = (total / cap - 1.0) ** (-1.0 / q)
    return (1.0 + beta) * arc / math.sqrt(cap + beta * beta * (total - cap))


def prolate_spheroid_area(a: float, c: float) -> float:
    """Surface area for c > a (prolate)."""
    e = math.sqrt(1.0 - a * a / (c * c))
    return 2.0 * math.pi * a * a * (1.0 + (c / (a * e)) * math.asin(e))


def oblate_spheroid_area(a: float, c: float) -> float:
    """Surface area for a > c (oblate)."""
    e = math.sqrt(1.0 - c * c / (a * a))
    return 2.0 * math.pi * a * a + math.pi * (c * c / e) * math.log((1.0 + e) / (1.0 - e))


def sphere_cap_area(eps: float, r: float = 1.0) -> float:
    """Area of a geodesic ball of radius eps on the sphere of radius r,
    2 pi r^2 (1 - cos(eps/r)) written as 4 pi r^2 sin^2(eps/2r), which does
    not cancel at small eps."""
    return 4.0 * math.pi * r * r * math.sin(eps / (2.0 * r)) ** 2


def sphere_circle_length(eps: float, r: float = 1.0) -> float:
    return 2.0 * math.pi * r * math.sin(eps / r)
