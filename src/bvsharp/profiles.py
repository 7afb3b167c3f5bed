"""Two-valued test profiles and Rayleigh-type quotients for the BV problem.

The basic object is the two-valued profile

    u = chi_{B(a,eps) n Omega}  -  beta * chi_{Omega \\ B(a,eps)},

whose plateau beta is chosen so that the nonlinear constraint
int sgn(u) |u|^q = 0 holds exactly.  Its quotient

    |Du|(Omega) / (int |u|^{n/(n-1)})^{1-1/n}

is assembled from the geometry module's exact quadrature, never from
grid total variation: discrete TV carries anisotropy error that would
contaminate a strict-inequality certificate.  One function,
`_two_valued_quotient`, forms beta and the quotient from the measures
of the cap, of its complement and of the jump set, for every witness:
boundary caps here, geodesic balls and the hemisphere in `surfaces`.

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

from .constants import (
    _check_expansion_inputs,
    euler_beta,
    half_space_constant,
    sharp_sobolev_constant,
    unit_ball_volume,
)
from .geometry import (
    GridDomain,
    _golden_section,
    boundary_arc_inside,
    cap_measure,
    max_curvature_seed,
)

__all__ = [
    "QuotientValue",
    "sign_power",
    "beta_eps",
    "constraint_residual",
    "shift_to_constraint",
    "two_valued_quotient_exact",
    "domain_quotient_expansion",
    "surface_quotient_expansion",
    "critical_quotient_expansion",
    "optimal_epsilon",
    "CertificateResult",
    "achievability_certificate",
]

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


def sign_power(t: float, q: float):
    """sgn(t) |t|^q, with the continuous extension 0 at t = 0.

    The extension matters for q < 1, where the raw |t|^(q-1) t form is
    singular at the origin.
    """
    if q <= 0:
        raise ValueError(f"exponent q must be positive, got {q}")
    t = np.asarray(t, dtype=float)
    out = np.copysign(np.abs(t) ** q, t)
    if out.ndim == 0:
        return float(out)
    return out


def beta_eps(total_measure: float, cap: float, q: float) -> float:
    """Plateau making the two-valued profile satisfy the q-constraint,

        beta = (total/cap - 1)^(-1/q).

    Raises OverflowError, naming q and cap/total, when beta lies beyond
    the float range.
    """
    if q <= 0:
        raise ValueError(f"exponent q must be positive, got {q}")
    if not 0.0 < cap < total_measure:
        raise ValueError(
            f"cap measure must lie strictly between 0 and the total "
            f"({cap} vs {total_measure})"
        )
    try:
        return (total_measure / cap - 1.0) ** (-1.0 / q)
    except OverflowError as exc:
        raise OverflowError(f"beta = (total/cap - 1)^(-1/q) lies beyond the float range "
                            f"at q = {q}, cap/total = {cap / total_measure}") from exc


def constraint_residual(values, q: float) -> float:
    """sum of measure * sgn(level) |level|^q over (level, measure) pairs."""
    levels, measures = _as_level_arrays(values)
    return float(np.sum(measures * sign_power(levels, q)))


def shift_to_constraint(values, q: float) -> float:
    """The unique lambda with sum measure * sgn(level-lambda)|level-lambda|^q = 0.

    `values` is a list of (level, measure) pairs or a (levels, measures)
    tuple of arrays, where the measures may be one scalar shared by all
    levels (the cells of a grid).  At q = 1 lambda is the weighted mean;
    otherwise the residual, strictly decreasing in lambda, goes to
    Illinois regula falsi on [-w, w] with w = 1e-5 (max - min level), which
    holds the root for the nearly feasible iterates of the solver, or
    on the part of [min, max] beyond it.  lambda has |residual| <= 1e-12
    times the total measure, unless no double gets there (a root within
    an ulp of a level, which a 1:1e4 measure imbalance gives at small
    q): then the residual changes sign next to lambda.  Non-finite
    levels or measures, zero total measure and equal levels raise.
    """
    levels, measures = _as_level_arrays(values)
    if q <= 0:
        raise ValueError(f"exponent q must be positive, got {q}")
    lo = float(np.min(levels))
    hi = float(np.max(levels))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("non-finite level: shift is undefined")
    total = float(np.sum(measures)) * (levels.size if measures.ndim == 0 else 1)
    if not math.isfinite(total):
        raise ValueError("non-finite measure: shift is undefined")
    if total == 0.0:
        raise ValueError("zero total measure: shift is undefined")
    if hi - lo <= 0.0:
        raise ValueError("all levels equal: shift is undefined (degenerate input)")
    tol = 1e-12 * total
    seen = {}

    def residual(lam):  # 0 inside the tolerance
        if lam not in seen:
            terms = sign_power(levels - lam, q)
            seen[lam] = float(measures * np.sum(terms) if measures.ndim == 0
                              else np.sum(measures * terms))
        return 0.0 if abs(seen[lam]) <= tol else seen[lam]

    if q == 1.0:
        lam = float(np.sum(measures * levels)) / total
        if residual(lam) == 0.0:
            return lam
    w = 1e-5 * (hi - lo)
    a, b = max(lo, -w), min(hi, w)
    if a >= b:
        a, b = lo, hi
    elif residual(a) < 0.0:
        a, b = lo, a
    elif residual(b) > 0.0:
        a, b = b, hi
    fa, fb = residual(a), residual(b)
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    side = 0  # Illinois: halve the value kept at an end that survives twice
    while True:
        lam = b - fb * (b - a) / (fb - fa)
        if not a < lam < b:
            lam = 0.5 * (a + b)
            if not a < lam < b:  # a and b are neighbouring doubles
                return lam
        r = residual(lam)
        if r == 0.0:
            return lam
        if r > 0.0:
            a, fa = lam, r
            fb *= 0.5 if side > 0 else 1.0
            side = 1
        else:
            b, fb = lam, r
            fa *= 0.5 if side < 0 else 1.0
            side = -1


def _as_level_arrays(values):
    if isinstance(values, tuple) and len(values) == 2 and np.ndim(values[0]) >= 1:
        levels = np.asarray(values[0], dtype=float)
        measures = np.asarray(values[1], dtype=float)
    else:
        pairs = list(values)
        levels = np.array([p[0] for p in pairs], dtype=float)
        measures = np.array([p[1] for p in pairs], dtype=float)
    if np.any(measures < 0):
        raise ValueError("measures must be nonnegative")
    return levels, measures


# --------------------------------------------------------------------------
# exact quotient on a domain


def two_valued_quotient_exact(domain: GridDomain, a, eps: float, q: float) -> QuotientValue:
    """Exact-quadrature quotient of the two-valued profile at (a, eps).

    numerator   = (1 + beta) * |arc of dB(a,eps) inside Omega|
    denominator = (cap + beta^2 (measure - cap))^(1/2)

    The jump set of the profile is exactly that arc, with jump height
    1 + beta; the part of the cap boundary on dOmega carries no
    variation inside Omega.  The domain is planar, so n = 2.
    """
    if eps >= domain.diameter:
        raise ValueError(
            f"eps={eps} covers the whole domain (diameter {domain.diameter:.6g}); "
            "the cap must be a strict subset"
        )
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
    p = n / (n - 1)
    if not 0.0 < q < p:
        raise ValueError(f"q must lie in (0, {p}), got {q}")
    beta = math.inf
    try:
        beta = beta_eps(total, cap, q)
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


def domain_quotient_expansion(H: float, eps: float, n: int) -> float:
    """First-order expansion of the domain quotient in the cap radius,

        (c*_n / 2^(1/n)) * (1 - 2 H eps / ((n+1) B(1/2, (n-1)/2))).

    At H = 0 this is exactly the half-space constant.
    """
    _check_expansion_inputs(n, eps, H=H)
    slope = 2.0 * H * eps / ((n + 1) * euler_beta(0.5, (n - 1) / 2.0))
    return half_space_constant(n) * (1.0 - slope)


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
    _check_expansion_inputs(n, eps, S=S, area=area)
    if area <= 0:
        raise ValueError("area must be positive")
    plateau_term = (n - 1) / n * (unit_ball_volume(n) / area) ** (2.0 / n)
    if n >= 3:
        plateau_term = -plateau_term
    curvature_term = S / (2.0 * n * (n + 2))
    return sharp_sobolev_constant(n) * (1.0 + (plateau_term - curvature_term) * eps**2)


# --------------------------------------------------------------------------
# radius sweep


def optimal_epsilon(domain: GridDomain, a, q: float, coarse: int = 16, golden_iters: int = 40):
    """Best cap radius for the two-valued profile at boundary point a.

    A 16-point log-spaced sweep of [8 h, diameter / 4] brackets the
    minimum, then golden section refines it.  The lower end is resolution
    aware (8 cells) so that downstream grid seeds stay representable; a
    grid too coarse for the bracket raises ValueError, and so does one so
    fine that 8 h lies below the crossing finder's radius floor 2^-26 |a|,
    that is h < 2^-26 |a| / 8.  Deterministic; ties resolve to the
    smaller radius.

    Returns (eps, QuotientValue).
    """
    lo, hi = 8.0 * domain.h, domain.diameter / 4.0
    if not 0.0 < lo < hi:
        raise ValueError(f"empty feasible eps range [{lo}, {hi}]")

    def evaluate(eps):
        return two_valued_quotient_exact(domain, a, eps, q)

    grid = np.geomspace(lo, hi, coarse)
    values = [evaluate(e) for e in grid]
    k = int(np.argmin([v.value for v in values]))
    best_eps, best_val = float(grid[k]), values[k]

    b_lo = float(grid[k - 1]) if k > 0 else lo
    b_hi = float(grid[k + 1]) if k < coarse - 1 else hi
    _, _, interior = _golden_section(evaluate, b_lo, b_hi, golden_iters,
                                     key=operator.attrgetter("value"))
    for eps, val in interior:
        if val.value < best_val.value or (val.value == best_val.value and eps < best_eps):
            best_eps, best_val = float(eps), val
    return best_eps, best_val


# --------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class CertificateResult:
    gap: float
    achieved: bool
    flag: str
    witness: dict
    exact: QuotientValue


def achievability_certificate(domain: GridDomain, q: float) -> CertificateResult:
    """Certify that the sharp constant of the domain problem is attained.

    The witness is the best two-valued cap at the maximum-curvature
    boundary point (`optimal_epsilon`, exact quadrature);
    gap = half-space constant minus its quotient, and achieved means
    the gap is positive.
    """
    seed_point = max_curvature_seed(domain).point
    best_eps, exact = optimal_epsilon(domain, seed_point, q)
    threshold = exact.threshold
    achieved = exact.value < threshold
    witness = {
        "center": [seed_point[0], seed_point[1]],
        "eps": best_eps,
        "q": q,
        "quotient": exact.value,
        "threshold": threshold,
    }
    return CertificateResult(
        gap=threshold - exact.value,
        achieved=achieved,
        flag="achieved (Prop 3.1 + Prop 3.5)" if achieved else "not certified",
        witness=witness,
        exact=exact,
    )
