"""Discrete minimization of the BV quotient on grid domains.

The solver searches for upper bounds on the sharp constant

    c_q = inf { |Du|(Omega) : ||u||_{n/(n-1)} = 1, int sgn(u)|u|^q = 0 }

by one projected subgradient descent on a shift-normalized quotient,
started from the best two-valued profile; nothing in it is random.  That
profile's plateau beta, the exponent check and the threshold all come
from the `QuotientValue` of the radius search, their one source
(`profiles._two_valued_quotient`); the solver forms none of them.  The
nonconvex constraint is handled by reparameterization, never by
penalties: every iterate is shifted to the unique feasible level and
renormalized, so every quotient the solver reports is the exact
discrete quotient of a feasible function, hence a rigorous upper bound
for the discrete functional (and a heuristic estimate of the continuum
constant).  The shift is `profiles.shift_to_constraint` on the interior
levels with the common cell measure h^2: the mean at q = 1, otherwise
Illinois regula falsi warm-started on a narrow bracket around 0, since
the previous iterate was feasible; both stop on the same residual
tolerance.

Descent directions come from a Huber-smoothed total variation to avoid
stagnation on flat regions; reported values always use the exact
(unsmoothed) TV.  Certificates quoted against the half-space threshold
rely on the geometry module's exact quadrature, not on grid TV, whose
anisotropy error is unquantified here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import GridDomain, max_curvature_seed
from .profiles import optimal_epsilon, shift_to_constraint, sign_power

__all__ = [
    "GridFunction",
    "ConstantEstimate",
    "total_variation",
    "lp_norm_power",
    "grid_quotient",
    "minimize_quotient",
    "ball_indicator",
    "rasterize_two_valued",
]

# Descent schedule: step _STEP / (1 + k)^_DECAY at iteration k; Huber
# width _SMOOTHING_WIDTH cells; an iterate counts as an improvement only
# below (1 - _TOL) times the best value, and the descent stops after
# _PATIENCE iterations in a row without one.
_STEP = 0.05
_DECAY = 0.5
_SMOOTHING_WIDTH = 1.0
_TOL = 1e-7
_PATIENCE = 60
# TV and L^2 sums below this are redone without squares, which underflow.
_TINY_SUM = 1e-100
# Width, in cells, of the anti-aliased band of a rasterized ball.
_BAND_CELLS = 10.0


class GridFunction:
    """Cell values on a GridDomain's interior.

    Values live on the full raster, in a read-only copy; only interior
    cells (center inside the domain) enter TV and L^p sums.
    """

    def __init__(self, domain: GridDomain, values):
        values = np.array(values, dtype=float, copy=True)
        if values.shape != domain.interior_mask.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid {domain.interior_mask.shape}"
            )
        if not np.all(np.isfinite(values[domain.interior_mask])):
            raise ValueError("grid function values must be finite")
        values.flags.writeable = False
        self.domain = domain
        self.values = values

    def interior_values(self) -> np.ndarray:
        return self.values[self.domain.interior_mask]


def _forward_differences(v: np.ndarray, mask: np.ndarray):
    """One-sided differences (dx, dy) of v, zero unless both cells are interior.

    Works on the row-major flattened grid, where the right neighbour of
    cell i is i + 1 and the lower one i + nx: both are contiguous shifts.
    """
    nx = v.shape[1]
    cells = mask.ravel()
    px = cells[1:] & cells[:-1]
    px[nx - 1::nx] = False  # a row's last cell and the next row's first
    py = cells[nx:] & cells[:-nx]
    flat = v.ravel()
    dx = np.zeros(v.size)
    dy = np.zeros(v.size)
    np.subtract(flat[1:], flat[:-1], out=dx[:-1], where=px)
    np.subtract(flat[nx:], flat[:-nx], out=dy[:-nx], where=py)
    return dx.reshape(v.shape), dy.reshape(v.shape)


def _pair_norms(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """sqrt(dx*dx + dy*dy) on every cell, into one new array.

    Within an ulp of hypot(dx, dy) while |dx| and |dy| lie in about
    [1e-154, 1e154]: above that the squares overflow, and TV and the
    L^2 norm raise; below it they lose digits, and TV and the L^2 norm
    sum again without squares when their sum is below _TINY_SUM.
    """
    rho = np.multiply(dx, dx)
    rho += np.multiply(dy, dy)
    return np.sqrt(rho, out=rho)


def total_variation(u: GridFunction) -> float:
    """Isotropic discrete TV with one-sided differences.

    Only differences between pairs of interior cells contribute; there
    is no charge across the domain boundary (BV(Omega) is indifferent
    to the boundary trace).
    """
    dx, dy = _forward_differences(u.values, u.domain.interior_mask)
    tv = float(np.sum(_pair_norms(dx, dy)))
    if tv < _TINY_SUM:  # squares may have underflowed
        tv = float(np.sum(np.hypot(dx, dy)))
    return _finite(u.domain.h * tv, "squared differences")


def lp_norm_power(u: GridFunction) -> float:
    """(sum h^2 u^2)^(1/2) over interior cells: the L^{n/(n-1)} norm at n = 2."""
    vals = u.interior_values()
    norm = float((u.domain.h**2 * np.sum(vals * vals)) ** 0.5)
    if norm < _TINY_SUM:  # squares may have underflowed: scale by the largest value
        top = float(np.max(np.abs(vals), initial=0.0)) or 1.0
        norm = u.domain.h * top * float(np.sum(np.square(vals / top))) ** 0.5
    return _finite(norm, "squared values")


def _finite(result: float, squares: str) -> float:
    if not math.isfinite(result):
        raise ValueError(f"{squares} overflowed: the result is not finite")
    return result


def grid_quotient(u: GridFunction, q: float) -> float:
    """TV(u) / ||u - lambda_q(u)||_2 with the feasible shift.

    TV is shift invariant, so the numerator needs no adjustment.
    """
    lam = shift_to_constraint((u.interior_values(), u.domain.h**2), q)
    shifted = GridFunction(u.domain, u.values - lam)
    denom = lp_norm_power(shifted)
    if denom == 0.0:
        raise ValueError("zero function after shift")
    return total_variation(u) / denom


# --------------------------------------------------------------------------
# seeds


def _plane_cut_fraction(d, nx, ny, h):
    """Fraction of an axis-aligned square cell inside the half-plane
    {x : d + n.(x - center) <= 0}, i.e. a straight interface at signed
    distance d from the cell center with outward unit normal n."""
    a = 0.5 * h * np.abs(nx)
    b = 0.5 * h * np.abs(ny)
    big = np.maximum(a, b)
    small = np.minimum(a, b)
    c = -np.asarray(d, dtype=float)
    width = big + small
    flat = small <= 1e-14 * big
    mid = (c + big) / (2.0 * big)
    denom = np.where(flat, 1.0, 8.0 * big * small)
    rising = (c + width) ** 2 / denom
    falling = 1.0 - (width - c) ** 2 / denom
    frac = np.where(c <= -(big - small), rising, np.where(c >= big - small, falling, mid))
    frac = np.where(flat, mid, frac)
    frac = np.where(c <= -width, 0.0, np.where(c >= width, 1.0, frac))
    return np.clip(frac, 0.0, 1.0)


def ball_indicator(domain: GridDomain, center, radius: float) -> GridFunction:
    """Anti-aliased indicator of B(center, radius), transition _BAND_CELLS cells.

    One-sided differences overcharge interfaces whose normal opposes
    the stencil direction (up to 41% for a hard 0/1 indicator on a
    diagonal edge); smearing the jump over a band of cells brings the
    discrete TV within about a percent of the true perimeter while the
    band bias stays O(_BAND_CELLS * h).
    """
    ax, ay = float(center[0]), float(center[1])
    gx, gy = domain.cell_centers()
    rho = np.hypot(gx - ax, gy - ay)
    d = rho - radius
    safe = np.maximum(rho, 1e-300)
    frac = _plane_cut_fraction(
        d.ravel(), ((gx - ax) / safe).ravel(), ((gy - ay) / safe).ravel(),
        _BAND_CELLS * domain.h,
    ).reshape(d.shape)
    return GridFunction(domain, frac)


def rasterize_two_valued(domain: GridDomain, a, eps: float, beta: float) -> GridFunction:
    """Grid realization of the two-valued profile with plateau beta.

    beta is the exact one of `two_valued_quotient_exact` at (a, eps); the
    grid quotient then re-shifts, so small rasterization mismatches never
    break feasibility.
    """
    frac = ball_indicator(domain, a, eps).values
    values = frac * 1.0 + (1.0 - frac) * (-beta)
    return GridFunction(domain, values)


# --------------------------------------------------------------------------
# solver


@dataclass
class ConstantEstimate:
    """Best discrete quotient found, with provenance.

    `value` is a rigorous upper bound for the discrete functional; the
    snapshot is the feasible function attaining it.  `history` rows are
    (iter, best quotient so far, |constraint residual|, tv, norm), where
    tv and norm belong to the normalized iterate: its quotient and 1.0.
    The quotient column is nonincreasing by construction.
    """

    value: float
    q: float
    snapshot: GridFunction
    residual: float
    history: np.ndarray
    threshold: float
    below_threshold: bool
    seed_value: float
    seed_eps: float


def _smoothed_tv_gradient(v: np.ndarray, mask: np.ndarray, h: float, delta: float):
    """Gradient of the Huber-smoothed TV sum h * phi_delta(|D v|).

    Zero outside the mask: every pair it sums has both cells interior.
    """
    gx, gy = _forward_differences(v, mask)
    w = _pair_norms(gx, gy)
    np.divide(1.0, np.maximum(w, delta, out=w), out=w)  # Huber: phi'(rho)/rho
    gx *= w
    gy *= w
    nx = v.shape[1]
    gx, gy = gx.ravel(), gy.ravel()
    grad = -gx
    grad[1:] += gx[:-1]  # gx is zero at row ends, so nothing crosses a row
    grad -= gy
    grad[nx:] += gy[:-nx]
    grad *= h
    return grad.reshape(v.shape)


def minimize_quotient(domain: GridDomain, q: float, budget: int = 300) -> ConstantEstimate:
    """Upper-bound search for the sharp constant on a grid domain.

    One descent of at most `budget` iterations from the best two-valued
    profile (radius from `optimal_epsilon`, whose quotient raises
    ValueError unless 0 < q < 2), stopped early after _PATIENCE
    iterations without improvement.  Every reduction in the loop is a
    numpy pairwise sum, never a BLAS call, whose split across threads
    would change the rounding; so the history is bitwise identical
    whatever the BLAS thread count.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")

    seed_point = max_curvature_seed(domain).point
    seed_eps, seed_qv = optimal_epsilon(domain, seed_point, q)  # checks q
    u_seed = rasterize_two_valued(domain, seed_point, seed_eps, seed_qv.beta)

    mask = domain.interior_mask
    h = domain.h
    v = u_seed.values.copy()
    best_value, best_resid = math.inf, math.nan
    best_snapshot = None
    rows = []
    stale = 0
    for k in range(budget):
        v -= shift_to_constraint((v[mask], h * h), q)  # raises on equal levels
        v *= mask
        gf = GridFunction(domain, v)
        norm = lp_norm_power(gf)
        value = total_variation(gf) / norm  # TV is 1-homogeneous
        v /= norm  # the normalized iterate w
        levels = v[mask]  # for the residual and the Huber width
        resid = abs(float(np.sum(sign_power(levels, q))) * h * h)
        improved = value < best_value * (1.0 - _TOL)
        if value < best_value:
            best_value, best_resid = value, resid
            best_snapshot = GridFunction(domain, v)
        rows.append((k, best_value, resid, value, 1.0))
        stale = 0 if improved else stale + 1
        if stale > _PATIENCE:
            break

        delta = _SMOOTHING_WIDTH * h * max(float(np.ptp(levels)), 1e-12)
        grad = _smoothed_tv_gradient(v, mask, h, delta)
        gnorm = math.sqrt(float(np.sum(np.square(grad))))  # zero off the mask
        if gnorm == 0.0:
            break
        alpha = _STEP / (1.0 + k) ** _DECAY
        v -= grad * (alpha / gnorm)

    return ConstantEstimate(
        value=best_value,
        q=q,
        snapshot=best_snapshot,
        residual=best_resid,
        history=np.array(rows, dtype=float),
        threshold=seed_qv.threshold,
        below_threshold=best_value < seed_qv.threshold,
        seed_value=seed_qv.value,
        seed_eps=seed_eps,
    )
