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
constant).  The shift, `shift_to_constraint`, is the solver's alone (each
certificate witness is feasible in closed form): on the interior levels
with the one cell measure h^2 it is the mean at q = 1, otherwise Illinois
regula falsi warm-started on a narrow bracket around 0, since the previous
iterate was feasible; both stop on the same residual tolerance.  One
gather of the interior levels per iteration, shifted and scaled in place;
pair masks built per domain; at q = 1 no power is taken.

Descent directions come from a Huber-smoothed total variation to avoid
stagnation on flat regions; reported values always use the exact
(unsmoothed) TV.  One difference stencil per iteration: the iterate is
normalized before it is measured, and the differences and pair norms of
its TV feed the Huber gradient, in work arrays allocated once per
descent.  Certificates quoted against the half-space threshold
rely on the geometry module's exact quadrature, not on grid TV, whose
anisotropy error is unquantified here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import _check_exponent, _check_positive
from .geometry import GridDomain
from .profiles import achievability_certificate

# Descent schedule: step _STEP / (1 + k)^_DECAY at iteration k; Huber
# width _SMOOTHING_WIDTH cells; an improvement is an iterate below
# (1 - _TOL) times the best value, and the descent stops once more than
# _PATIENCE iterates in a row lack one (in 150 measured descents no
# improvement followed more than 2).
_STEP = 0.05
_DECAY = 0.5
_SMOOTHING_WIDTH = 1.0
_TOL = 1e-7
_PATIENCE = 5
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
        if not np.all(np.isfinite(values) | ~domain.interior_mask):
            raise ValueError("grid function values must be finite")
        values.flags.writeable = False
        self.domain = domain
        self.values = values


def _forward_differences(v: np.ndarray, pairs, dx=None, dy=None):
    """One-sided differences (dx, dy) of v, zero unless both cells are interior.

    Works on the row-major flattened grid, where the right neighbour of
    cell i is i + 1 and the lower one i + nx: `pairs` is the domain's
    `pair_masks`.  dx and dy, contiguous arrays of v's shape, are new
    ones when omitted.
    """
    nx = v.shape[1]
    if dx is None:
        dx, dy = np.empty(v.shape), np.empty(v.shape)
    dx.fill(0.0)  # where no pair is
    dy.fill(0.0)
    flat, fdx, fdy = v.ravel(), dx.reshape(-1), dy.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=fdx[:-1], where=pairs[0])
    np.subtract(flat[nx:], flat[:-nx], out=fdy[:-nx], where=pairs[1])
    return dx, dy


def _pair_norms(dx: np.ndarray, dy: np.ndarray, out=None, spare=None) -> np.ndarray:
    """sqrt(dx*dx + dy*dy) on every cell into `out`, with dy*dy in `spare`.

    Within an ulp of hypot(dx, dy) while |dx| and |dy| lie in about
    [1e-154, 1e154]: above that the squares overflow, and TV and the
    L^2 norm raise; below it they lose digits, and TV and the L^2 norm
    sum again without squares when their sum is below _TINY_SUM.
    """
    out = np.multiply(dx, dx, out=out)
    out += np.multiply(dy, dy, out=spare)
    return np.sqrt(out, out=out)


def total_variation(u: GridFunction, work=None) -> float:
    """Isotropic discrete TV with one-sided differences.

    Only differences between pairs of interior cells contribute; there
    is no charge across the domain boundary (BV(Omega) is indifferent
    to the boundary trace).  `work`, four contiguous float arrays of the
    grid's shape (new ones when omitted), receives dx, dy and their pair
    norms, which `_smoothed_tv_gradient` reads; the fourth is scratch.
    """
    dx, dy, rho, spare = (None,) * 4 if work is None else work
    dx, dy = _forward_differences(u.values, u.domain.pair_masks, dx, dy)
    rho = _pair_norms(dx, dy, rho, spare)
    tv = float(np.sum(rho))
    if tv < _TINY_SUM:  # squares may have underflowed: the norms are redone without them
        tv = float(np.sum(np.hypot(dx, dy, out=rho)))
    return _finite(u.domain.h * tv, "squared differences")


def lp_norm_power(u: GridFunction) -> float:
    """(sum h^2 u^2)^(1/2) over interior cells: the L^{n/(n-1)} norm at n = 2."""
    return _l2_norm(u.values[u.domain.interior_mask], u.domain.h)


def _l2_norm(vals: np.ndarray, h: float, scratch=None) -> float:
    """The norm of `lp_norm_power` on interior values; the squares go into `scratch` if given."""
    norm = float((h**2 * np.sum(np.multiply(vals, vals, out=scratch))) ** 0.5)
    if norm < _TINY_SUM:  # squares may have underflowed: scale by the largest value
        top = float(np.max(np.abs(vals), initial=0.0)) or 1.0
        norm = h * top * float(np.sum(np.square(vals / top))) ** 0.5
    return _finite(norm, "squared values")


def _finite(result: float, squares: str) -> float:
    if not math.isfinite(result):
        raise ValueError(f"{squares} overflowed: the result is not finite")
    return result


def grid_quotient(u: GridFunction, q: float) -> float:
    """TV(u) / ||u - lambda_q(u)||_2 with the feasible shift.

    TV is shift invariant, so the numerator needs no adjustment.
    """
    levels = u.values[u.domain.interior_mask]
    denom = _l2_norm(levels - shift_to_constraint(levels, u.domain.h**2, q), u.domain.h)
    if denom == 0.0:
        raise ValueError("zero function after shift")
    return total_variation(u) / denom


# --------------------------------------------------------------------------
# feasible shift


def sign_power(t: float, q: float, out=None):
    """sgn(t) |t|^q, extended by 0 at t = 0, where the raw |t|^(q-1) t is
    singular for q < 1; at q = 1 a copy of t, bit for bit.  The result goes
    into `out` when given, which may be t itself."""
    _check_exponent(q)
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t) if out is None else out
    if q == 1.0:
        np.copyto(out, t)
    else:  # raised and signed in place; the sign bits are read first
        negative = np.signbit(t)
        np.abs(t, out=out)
        out **= q
        np.negative(out, out=out, where=negative)
    return float(out) if out.ndim == 0 else out


def shift_to_constraint(levels, cell: float, q: float, scratch=None) -> float:
    """The unique lambda with sum cell * sgn(level-lambda)|level-lambda|^q = 0.

    `levels` is a 1-D array and `cell` the measure all levels share (h^2
    on a grid).  At q = 1 lambda is the mean; otherwise the residual,
    strictly decreasing in lambda, goes to Illinois regula falsi on [-w, w],
    w = 1e-5 (max - min level), which holds the root for the solver's nearly
    feasible iterates, or on the part of [min, max] beyond it.  lambda has
    |residual| <= 1e-12 times the total measure, unless no double gets there
    (a root within an ulp of a level, which one level against 1e4 gives at
    small q): then the residual changes sign next to lambda.  Non-finite
    levels, a total measure not finite and positive, and equal levels
    raise.  The terms go into `scratch` when given, else into a new array.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 1 or np.ndim(cell) != 0:
        raise ValueError(f"the shift takes a 1-D array of levels and one cell measure, "
                         f"got shapes {levels.shape} and {np.shape(cell)}")
    _check_exponent(q)
    lo, hi = float(np.min(levels)), float(np.max(levels))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("non-finite level: shift is undefined")
    total = float(cell) * levels.size
    _check_positive(total, "the total measure")
    if hi - lo <= 0.0:
        raise ValueError("all levels equal: shift is undefined (degenerate input)")
    tol = 1e-12 * total
    seen = {}
    terms = np.empty_like(levels) if scratch is None else scratch

    def residual(lam):  # 0 inside the tolerance
        if lam not in seen:
            np.subtract(levels, lam, out=terms)
            if q != 1.0:  # at q = 1 the power is the identity
                sign_power(terms, q, out=terms)
            seen[lam] = float(cell * np.sum(terms))
        return 0.0 if abs(seen[lam]) <= tol else seen[lam]

    if q == 1.0:
        lam = float(np.sum(np.multiply(cell, levels, out=terms))) / total
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

    One-sided differences overcharge interfaces whose normal opposes the
    stencil (by up to 41% for a hard 0/1 indicator on a diagonal edge); a
    band of cells brings TV within a percent of the perimeter at a bias
    O(H), H = _BAND_CELLS * h.  Cells H or more from the circle skip the
    cut, which would give exactly 0.0 or 1.0: its half-width is <= 0.71 H.
    So does the centre's own cell (rho = 0, no normal), plainly inside.  Squared
    distances sort out the cells past the band by a margin of 1e-12: hypot takes the rest.
    """
    band_width = _BAND_CELLS * domain.h
    gx, gy = domain.cell_centers()
    gx -= float(center[0])
    gy -= float(center[1])
    r2 = gx * gx + gy * gy
    inner = (max(radius - band_width, 0.0) * (1.0 - 1e-12)) ** 2
    frac = (r2 < inner).astype(float)
    ring = (r2 >= inner) & (r2 <= ((radius + band_width) * (1.0 + 1e-12)) ** 2)
    rx, ry = gx[ring], gy[ring]
    rho = np.hypot(rx, ry)
    d = rho - radius
    band = (np.abs(d) < band_width) & (rho > 0.0)
    cut = (d < 0.0).astype(float)
    cut[band] = _plane_cut_fraction(d[band], rx[band] / rho[band], ry[band] / rho[band],
                                    band_width)
    frac[ring] = cut
    return GridFunction(domain, frac)


def rasterize_two_valued(domain: GridDomain, a, eps: float, beta: float) -> GridFunction:
    """Grid realization of the two-valued profile with plateau beta.

    beta is the exact one of `two_valued_quotient_exact` at (a, eps); the
    grid quotient then re-shifts, so small rasterization mismatches never
    break feasibility.
    """
    frac = ball_indicator(domain, a, eps).values
    return GridFunction(domain, frac + (1.0 - frac) * -beta)


# --------------------------------------------------------------------------
# solver


@dataclass
class ConstantEstimate:
    """Best discrete quotient found, with provenance.

    `value` is a rigorous upper bound for the discrete functional; the
    snapshot is the feasible, normalized function attaining it, and
    `value` is exactly `total_variation(snapshot)`.  `history` rows are
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


def _smoothed_tv_gradient(work, h: float, delta: float) -> np.ndarray:
    """Gradient of the Huber-smoothed TV sum h * phi_delta(|D v|).

    Reads the differences and pair norms of v that `total_variation(u,
    work)` left in `work`, and overwrites them: the gradient takes the
    place of the norms.  Zero outside the mask: every pair it sums has
    both cells interior.
    """
    gx, gy, w = work[:3]
    np.divide(1.0, np.maximum(w, delta, out=w), out=w)  # Huber: phi'(rho)/rho
    gx *= w
    gy *= w
    nx = w.shape[1]
    gx, gy, grad = gx.ravel(), gy.ravel(), np.negative(gx, out=w).ravel()
    grad[1:] += gx[:-1]  # gx is zero at row ends, so nothing crosses a row
    grad -= gy
    grad[nx:] += gy[:-nx]
    grad *= h
    return w


def minimize_quotient(domain: GridDomain, q: float, budget: int = 300) -> ConstantEstimate:
    """Upper-bound search for the sharp constant on a grid domain.

    One descent of at most `budget` iterations from the best two-valued
    profile of `achievability_certificate`, whose quotient raises
    ValueError unless 0 < q < 2, stopped early once more than _PATIENCE
    iterates in a row fail to improve on the best by the factor 1 - _TOL.
    Each iteration shifts and normalizes the iterate, then makes its one
    `total_variation` call, whose differences and pair norms the Huber
    gradient reuses: one difference stencil per iteration, and no new
    array but the gather's and the iterate's validated copy.  Every loop
    reduction is a numpy pairwise sum, never a BLAS call, whose split
    across threads would change the rounding; so the history is bitwise
    identical whatever the BLAS thread count.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")

    seed_point, seed_eps, seed_qv = achievability_certificate(domain, q)  # checks q
    v = rasterize_two_valued(domain, seed_point, seed_eps, seed_qv.beta).values.copy()

    mask = domain.interior_mask
    h = domain.h
    # The work arrays of the whole descent.  TV leaves the differences and
    # pair norms of each iterate in (dx, dy, rho) for the gradient, and
    # uses v as scratch: from TV to the step, gf holds v's bits.  Until TV,
    # the interior levels and their scratch live at the head of dx and dy.
    dx, dy, rho = (np.empty_like(v) for _ in range(3))
    work = (dx, dy, rho, v)
    n = np.count_nonzero(mask)
    levels, spare = dx.reshape(-1)[:n], dy.reshape(-1)[:n]
    best_value, best_resid, best = math.inf, math.nan, None
    rows = []
    stale = 0
    for k in range(budget):
        levels[:] = v[mask]  # the one gather (np.compress(out=) is 3x slower)
        lam = shift_to_constraint(levels, h * h, q, spare)  # raises on equal levels
        v -= lam
        v *= mask
        levels -= lam
        norm = _l2_norm(levels, h, spare)
        v /= norm  # the normalized iterate w
        levels /= norm
        delta = _SMOOTHING_WIDTH * h * max(float(np.ptp(levels)), 1e-12)
        terms = levels if q == 1.0 else sign_power(levels, q, out=levels)
        resid = abs(float(np.sum(terms)) * h * h)
        gf = GridFunction(domain, v)
        value = total_variation(gf, work)  # overwrites levels
        improved = value < best_value * (1.0 - _TOL)
        if value < best_value:
            best_value, best_resid, best = value, resid, gf
        rows.append((k, best_value, resid, value, 1.0))
        stale = 0 if improved else stale + 1
        if stale > _PATIENCE:
            break

        grad = _smoothed_tv_gradient(work, h, delta)
        gnorm = math.sqrt(float(np.sum(np.square(grad, out=v))))  # zero off the mask
        if gnorm == 0.0:
            break
        grad *= _STEP / (1.0 + k) ** _DECAY / gnorm  # the step length over |grad|
        np.subtract(gf.values, grad, out=v)
        gf = None  # unless it is the best, its copy goes before the next one is made

    return ConstantEstimate(
        value=best_value,
        q=q,
        snapshot=best,
        residual=best_resid,
        history=np.array(rows, dtype=float),
        threshold=seed_qv.threshold,
        below_threshold=best_value < seed_qv.threshold,
        seed_value=seed_qv.value,
        seed_eps=seed_eps,
    )
