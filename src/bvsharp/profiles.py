"""Two-valued certificate profiles and their exact quotients.

The basic object is the two-valued profile

    u = chi_{B(a,eps) n Omega}  -  beta * chi_{Omega \\ B(a,eps)},

whose plateau beta = (|Omega|/cap - 1)^(-1/q) meets the constraint
int sgn(u) |u|^q = 0 in closed form, with no shift.  Its quotient

    |Du|(Omega) / (int |u|^{n/(n-1)})^{1-1/n}

is assembled from the geometry module's exact quadrature, never from
grid total variation: discrete TV carries anisotropy error that would
contaminate a strict-inequality certificate.  One function,
`_two_valued_quotient`, forms beta and the quotient from the measures
of the cap, of its complement and of the jump set, for every witness:
boundary caps here, geodesic balls and the hemisphere in `surfaces`.
The radius search refines a coarse sweep by the seed's minimiser, Brent's.

Quotients are compared against a threshold (the half-space constant on
domains, the full sharp constant on closed surfaces); a value strictly
below threshold certifies that the sharp constant of the domain problem
is attained.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .constants import _check_exponent, half_space_constant
from .geometry import (
    GridDomain,
    _brent,
    boundary_arc_inside,
    cap_measure,
    max_curvature_seed,
)


@dataclass(frozen=True)
class QuotientValue:
    """A two-valued quotient, its plateau beta and its certificate threshold.

    gap_to_threshold = value - threshold; negative means the profile
    certifies strict inequality.  beta is inf only where it overflows.
    """

    numerator: float
    denominator: float
    value: float
    threshold: float
    gap_to_threshold: float
    beta: float


# --------------------------------------------------------------------------
# exact quotient on a domain


def two_valued_quotient_exact(domain: GridDomain, a, eps: float, q: float) -> QuotientValue:
    """Exact-quadrature quotient of the two-valued profile at (a, eps).

    numerator   = (1 + beta) * |arc of dB(a,eps) inside Omega|
    denominator = (cap + beta^2 (measure - cap))^(1/2)

    The jump set of the profile is exactly that arc, with jump height
    1 + beta; the part of the cap boundary on dOmega carries no
    variation inside Omega.  The domain is planar, so n = 2.  A cap that
    is empty or covers Omega raises ValueError from `_two_valued_quotient`.
    """
    cap = cap_measure(domain, a, eps)
    arc = boundary_arc_inside(domain, a, eps)
    return _two_valued_quotient(domain.measure, cap, domain.measure - cap, arc, q, 2,
                                half_space_constant(2))


def _two_valued_quotient(total: float, cap: float, rest: float, jump: float, q: float, n: int,
                         threshold: float) -> QuotientValue:
    """Quotient of chi_cap - beta chi_rest from the measures of the cap and
    of the rest (a closed form keeps the digits that total - cap loses
    near total) and the length of the jump set:

        (1 + beta) jump / (cap + beta^(n/(n-1)) rest)^(1-1/n).

    Every two-valued witness and its beta are formed here, so q is checked
    here: ValueError unless 0 < q < n/(n-1) and 0 < cap < total.  When beta,
    beta^p or beta^p rest lies beyond the float range, numerator and
    denominator are both divided by beta, which leaves the quotient unchanged:

        (1 + 1/beta) jump / (cap beta^(-p) + rest)^(1-1/n).
    """
    _check_exponent(q, n)
    if not 0.0 < cap < total:
        raise ValueError(f"the cap must be a strict subset of the domain: its measure must lie "
                         f"strictly between 0 and the total ({cap} vs {total})")
    p = n / (n - 1)
    beta = math.inf
    try:
        beta = (total / cap - 1.0) ** (-1.0 / q)
        numerator = (1.0 + beta) * jump
        denominator = (cap + beta**p * rest) ** (1.0 - 1.0 / n)
        if denominator == math.inf:  # beta^p rest overflowed silently: the value would read 0
            raise OverflowError
    except OverflowError:
        inv_beta = (total / cap - 1.0) ** (1.0 / q)
        numerator = (1.0 + inv_beta) * jump
        denominator = (cap * inv_beta**p + rest) ** (1.0 - 1.0 / n)
    value = numerator / denominator
    return QuotientValue(numerator=numerator, denominator=denominator, value=value,
                         threshold=threshold, gap_to_threshold=value - threshold, beta=beta)


# --------------------------------------------------------------------------
# radius sweep


def optimal_epsilon(domain: GridDomain, a, q: float, coarse: int = 16, golden_iters: int = 10):
    """Best cap radius for the two-valued profile at boundary point a.

    A 16-point log-spaced sweep of [8 h, diameter / 4] brackets the
    minimum between the best radius's neighbours; Brent's method refines
    it, from the bracket's two golden-section points, in `golden_iters`
    iterations of one evaluation each, parabolic or golden: 16 + 2 + 10 =
    28 quotient evaluations.  The lower end is resolution aware (8 cells)
    so that downstream grid seeds stay representable; a grid too coarse
    for the bracket raises ValueError, and so does one so fine that 8 h
    lies below the crossing finder's radius floor 2^-26 |a|, that is
    h < 2^-26 |a| / 8.  Deterministic; the lowest quotient evaluated wins,
    and a tie resolves to the smaller radius.

    Returns (eps, QuotientValue).
    """
    lo, hi = 8.0 * domain.h, domain.diameter / 4.0
    if not 0.0 < lo < hi:
        raise ValueError(f"empty feasible eps range [{lo}, {hi}]")

    def evaluate(eps):
        return two_valued_quotient_exact(domain, a, eps, q)

    grid = np.geomspace(lo, hi, coarse).tolist()  # Python floats: scalar arithmetic is faster
    values = [evaluate(e) for e in grid]
    k = min(range(coarse), key=lambda i: values[i].value)

    b_lo, b_hi = grid[max(k - 1, 0)], grid[min(k + 1, coarse - 1)]  # geomspace ends at lo and hi
    seen = _brent(evaluate, b_lo, b_hi, golden_iters, (grid[k], values[k]),
                  key=operator.attrgetter("value"))
    return min([(grid[k], values[k])] + seen, key=lambda p: (p[1].value, p[0]))


# --------------------------------------------------------------------------
# certificates


def achievability_certificate(domain: GridDomain, q: float):
    """Certify that the sharp constant of the domain problem is attained.

    The witness is the best two-valued cap at the maximum-curvature
    boundary point (`optimal_epsilon`, exact quadrature).  Returns
    (center, eps, QuotientValue); the certificate holds where the
    quotient's gap_to_threshold is negative.
    """
    center = max_curvature_seed(domain).point
    eps, exact = optimal_epsilon(domain, center, q)
    return center, eps, exact
