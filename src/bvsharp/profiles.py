"""Two-valued test profiles and Rayleigh-type quotients for the BV problem.

The basic object is the two-valued profile

    u = chi_{B(a,eps) n Omega}  -  beta * chi_{Omega \\ B(a,eps)},

whose plateau beta is chosen so that the nonlinear constraint
int sgn(u) |u|^q = 0 holds exactly.  Its quotient

    |Du|(Omega) / (int |u|^{n/(n-1)})^{1-1/n}

is assembled from the geometry module's exact quadrature, never from
grid total variation: discrete TV carries anisotropy error that would
contaminate a strict-inequality certificate.

Quotients are compared against a threshold (the half-space constant on
domains, the full sharp constant on closed surfaces); a value strictly
below threshold certifies that the sharp constant of the domain problem
is attained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    euler_beta,
    gamma_half_integer,
    half_space_constant,
    sharp_sobolev_constant,
)
from .geometry import GridDomain, boundary_arc_inside, cap_measure, max_curvature_seed

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

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class QuotientValue:
    """A quotient evaluation together with its certificate threshold.

    gap_to_threshold = value - threshold; negative means the profile
    certifies strict inequality.
    """

    numerator: float
    denominator: float
    value: float
    threshold: float
    gap_to_threshold: float

    @classmethod
    def against(cls, numerator: float, denominator: float, threshold: float) -> "QuotientValue":
        value = numerator / denominator
        return cls(
            numerator=numerator,
            denominator=denominator,
            value=value,
            threshold=threshold,
            gap_to_threshold=value - threshold,
        )


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
    """
    if q <= 0:
        raise ValueError(f"exponent q must be positive, got {q}")
    if not 0.0 < cap < total_measure:
        raise ValueError(
            f"cap measure must lie strictly between 0 and the total "
            f"({cap} vs {total_measure})"
        )
    return (total_measure / cap - 1.0) ** (-1.0 / q)


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


def two_valued_quotient_exact(domain: GridDomain, a, eps: float, q: float, n: int = 2) -> QuotientValue:
    """Exact-quadrature quotient of the two-valued profile at (a, eps).

    numerator   = (1 + beta) * |arc of dB(a,eps) inside Omega|
    denominator = (cap + beta^(n/(n-1)) (measure - cap))^(1-1/n)

    The jump set of the profile is exactly that arc, with jump height
    1 + beta; the part of the cap boundary on dOmega carries no
    variation inside Omega.  The domain is planar, so n must be 2.
    """
    if n != 2:
        raise ValueError(
            f"dimension n={n} does not match the planar domain (n = 2); "
            "the quotient would be compared with the wrong half-space constant"
        )
    if eps <= 0:
        raise ValueError("eps must be positive")
    if eps >= domain.diameter:
        raise ValueError(
            f"eps={eps} covers the whole domain (diameter {domain.diameter:.6g}); "
            "the cap must be a strict subset"
        )
    cap = cap_measure(domain, a, eps)
    arc = boundary_arc_inside(domain, a, eps)
    return _two_valued_quotient(domain.measure, cap, arc, q, n, half_space_constant(n))


def _two_valued_quotient(total: float, cap: float, jump: float, q: float, n: int,
                         threshold: float) -> QuotientValue:
    """Quotient of chi_cap - beta chi_rest from the cap measure and the
    length of its jump set, on a space of the given total measure:

        (1 + beta) jump / (cap + beta^(n/(n-1)) (total - cap))^(1-1/n).

    Raises ValueError unless 0 < cap < total.
    """
    beta = beta_eps(total, cap, q)
    p = n / (n - 1)
    numerator = (1.0 + beta) * jump
    denominator = (cap + beta**p * (total - cap)) ** (1.0 - 1.0 / n)
    return QuotientValue.against(numerator, denominator, threshold)


def domain_quotient_expansion(H: float, eps: float, n: int) -> float:
    """First-order expansion of the domain quotient in the cap radius,

        (c*_n / 2^(1/n)) * (1 - 2 H eps / ((n+1) B(1/2, (n-1)/2))).

    At H = 0 this is exactly the half-space constant.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if n < 2:
        raise ValueError("dimension must be >= 2")
    slope = 2.0 * H * eps / ((n + 1) * euler_beta(0.5, (n - 1) / 2.0))
    return half_space_constant(n) * (1.0 - slope)


def surface_quotient_expansion(S: float, eps: float, n: int) -> float:
    """Second-order expansion of the closed-surface quotient (subcritical q),

        c*_n * (1 - S eps^2 / (2 n (n+2))),

    where S is the scalar curvature at the geodesic-ball center.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if n < 2:
        raise ValueError("dimension must be >= 2")
    return sharp_sobolev_constant(n) * (1.0 - S * eps**2 / (2.0 * n * (n + 2)))


def critical_quotient_expansion(S: float, area: float, eps: float, n: int) -> float:
    """Surface quotient expansion at the critical exponent q = n^2/(n^2+n-2),

        c*_n * (1 + ((n-1)/n) (omega_n / area)^(2/n) eps^2
                  - S eps^2 / (2 n (n+2))),

    with omega_n = pi^(n/2)/Gamma(n/2+1).  The positive term is the
    back-reaction of the constraint plateau, which at this exponent
    enters at the same eps^2 order as the curvature correction; the two
    cancel exactly on a round sphere (S = 2 on the unit sphere of area
    4 pi), which is the borderline case.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if area <= 0:
        raise ValueError("area must be positive")
    omega_n = math.pi ** (n / 2.0) / gamma_half_integer(n / 2.0 + 1.0)
    plateau_term = (n - 1) / n * (omega_n / area) ** (2.0 / n)
    curvature_term = S / (2.0 * n * (n + 2))
    return sharp_sobolev_constant(n) * (1.0 + (plateau_term - curvature_term) * eps**2)


# --------------------------------------------------------------------------
# radius sweep


def optimal_epsilon(domain: GridDomain, a, q: float, eps_range=None, n: int = 2,
                    coarse: int = 16, golden_iters: int = 40):
    """Best cap radius for the two-valued profile at boundary point a.

    A 16-point log-spaced sweep brackets the minimum, then golden
    section refines it.  The lower cutoff is resolution aware (8 cells)
    so that downstream grid seeds stay representable.  Deterministic;
    ties resolve to the smaller radius.  A non-finite end of eps_range
    raises ValueError.

    Returns (eps, QuotientValue).
    """
    lo_default = 8.0 * domain.h
    hi_default = domain.diameter / 4.0
    if eps_range is None:
        lo, hi = lo_default, hi_default
    else:
        for end, value in zip(("lower", "upper"), eps_range):
            if not math.isfinite(value):
                raise ValueError(f"eps range {end} end {value} is not finite")
        lo = max(float(eps_range[0]), lo_default)
        hi = min(float(eps_range[1]), hi_default)
    if not (0.0 < lo < hi):
        raise ValueError(f"empty feasible eps range [{lo}, {hi}]")

    def evaluate(eps):
        return two_valued_quotient_exact(domain, a, eps, q, n=n)

    grid = np.geomspace(lo, hi, coarse)
    values = [evaluate(e) for e in grid]
    k = int(np.argmin([v.value for v in values]))
    best_eps, best_val = float(grid[k]), values[k]

    b_lo = float(grid[k - 1]) if k > 0 else lo
    b_hi = float(grid[k + 1]) if k < coarse - 1 else hi
    c = b_hi - _INV_PHI * (b_hi - b_lo)
    d = b_lo + _INV_PHI * (b_hi - b_lo)
    fc, fd = evaluate(c), evaluate(d)
    for _ in range(golden_iters):
        if fc.value < fd.value:
            b_hi, d, fd = d, c, fc
            c = b_hi - _INV_PHI * (b_hi - b_lo)
            fc = evaluate(c)
        else:
            b_lo, c, fc = c, d, fd
            d = b_lo + _INV_PHI * (b_hi - b_lo)
            fd = evaluate(d)
    for eps, val in ((c, fc), (d, fd)):
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
    threshold = half_space_constant(2)
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
