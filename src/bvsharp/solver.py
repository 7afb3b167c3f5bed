"""Discrete minimization of the BV quotient on grid domains.

The solver searches for upper bounds on the sharp constant

    c_q = inf { |Du|(Omega) : ||u||_{n/(n-1)} = 1, int sgn(u)|u|^q = 0 }

by projected subgradient descent on a shift-normalized quotient.  The
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
from numpy.lib.stride_tricks import sliding_window_view

from .constants import half_space_constant
from .geometry import GridDomain, _plane_cut_fraction, cap_measure, max_curvature_seed
from .profiles import beta_eps, optimal_epsilon, shift_to_constraint, sign_power

__all__ = [
    "GridFunction",
    "SolverConfig",
    "ConstantEstimate",
    "ConcentrationReport",
    "total_variation",
    "lp_norm_power",
    "grid_quotient",
    "minimize_quotient",
    "concentration_report",
    "ball_indicator",
    "rasterize_two_valued",
]


class GridFunction:
    """Cell values on a GridDomain's interior.

    Values live on the full raster; only interior cells (center inside
    the domain) enter TV and L^p sums.
    """

    def __init__(self, domain: GridDomain, values):
        values = np.array(values, dtype=float, copy=True)
        if values.shape != domain.interior_mask.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid {domain.interior_mask.shape}"
            )
        if not np.all(np.isfinite(values[domain.interior_mask])):
            raise ValueError("grid function values must be finite")
        self.domain = domain
        self._values = values

    @property
    def values(self) -> np.ndarray:
        view = self._values.view()
        view.flags.writeable = False
        return view

    def interior_values(self) -> np.ndarray:
        return self._values[self.domain.interior_mask]


def _forward_differences(v: np.ndarray, mask: np.ndarray):
    """One-sided differences (dx, dy) of v, zero unless both cells are interior."""
    dx = np.zeros_like(v)
    dy = np.zeros_like(v)
    px = mask[:, 1:] & mask[:, :-1]
    py = mask[1:, :] & mask[:-1, :]
    dx[:, :-1] = np.where(px, v[:, 1:] - v[:, :-1], 0.0)
    dy[:-1, :] = np.where(py, v[1:, :] - v[:-1, :], 0.0)
    return dx, dy


def total_variation(u: GridFunction) -> float:
    """Isotropic discrete TV with one-sided differences.

    Only differences between pairs of interior cells contribute; there
    is no charge across the domain boundary (BV(Omega) is indifferent
    to the boundary trace).
    """
    dx, dy = _forward_differences(u._values, u.domain.interior_mask)
    return float(u.domain.h * np.sum(np.hypot(dx, dy)))


def lp_norm_power(u: GridFunction, n: int = 2) -> float:
    """(sum h^n |u|^{n/(n-1)})^{1-1/n} over interior cells."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    p = n / (n - 1)
    vals = np.abs(u.interior_values())
    return float((u.domain.h**n * np.sum(vals**p)) ** (1.0 - 1.0 / n))


def grid_quotient(u: GridFunction, q: float, n: int = 2) -> float:
    """TV(u) / ||u - lambda_q(u)||_{n/(n-1)} with the feasible shift.

    TV is shift invariant, so the numerator needs no adjustment.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    lam = shift_to_constraint((u.interior_values(), u.domain.h**2), q)
    shifted = GridFunction(u.domain, u._values - lam)
    denom = lp_norm_power(shifted, n)
    if denom == 0.0:
        raise ValueError("zero function after shift")
    return total_variation(u) / denom


# --------------------------------------------------------------------------
# seeds


def ball_indicator(domain: GridDomain, center, radius: float, width: float = 10.0) -> GridFunction:
    """Anti-aliased indicator of B(center, radius), transition `width` cells.

    One-sided differences overcharge interfaces whose normal opposes
    the stencil direction (up to 41% for a hard 0/1 indicator on a
    diagonal edge); smearing the jump over a band of cells brings the
    discrete TV within about a percent of the true perimeter while the
    band bias stays O(width * h).
    """
    ax, ay = float(center[0]), float(center[1])
    gx, gy = domain.cell_centers()
    rho = np.hypot(gx - ax, gy - ay)
    d = rho - radius
    safe = np.maximum(rho, 1e-300)
    frac = _plane_cut_fraction(
        d.ravel(), ((gx - ax) / safe).ravel(), ((gy - ay) / safe).ravel(),
        width * domain.h,
    ).reshape(d.shape)
    return GridFunction(domain, frac)


def rasterize_two_valued(domain: GridDomain, a, eps: float, q: float, width: float = 10.0):
    """Grid realization of the two-valued profile; returns (function, beta).

    beta comes from the exact cap quadrature; the grid quotient then
    re-shifts, so small rasterization mismatches never break
    feasibility.
    """
    cap = cap_measure(domain, a, eps)
    beta = beta_eps(domain.measure, cap, q)
    frac = ball_indicator(domain, a, eps, width).values
    values = frac * 1.0 + (1.0 - frac) * (-beta)
    return GridFunction(domain, values), beta


def rectangle_grid(width: float, height: float, h: float) -> GridDomain:
    """Raw rectangular grid with every cell interior.

    A container for discrete TV experiments (ramps, synthetic
    concentration families); it has no analytic boundary, so the
    geometric queries of GridDomain are unavailable on it.
    """
    if width <= 0 or height <= 0 or h <= 0:
        raise ValueError("rectangle dimensions and cell size must be positive")
    nx = int(round(width / h))
    ny = int(round(height / h))
    return GridDomain(
        spec=None, h=h, xmin=0.0, ymin=0.0, nx=nx, ny=ny,
        interior_mask=np.ones((ny, nx), dtype=bool), measure=nx * ny * h * h,
        _diameter=math.hypot(width, height),
    )


# --------------------------------------------------------------------------
# solver


@dataclass(frozen=True)
class SolverConfig:
    budget: int = 300
    step: float = 0.05
    decay: float = 0.5
    restart_count: int = 2
    seed: int = 0
    smoothing_width: float = 1.0  # Huber width in cells
    tol: float = 1e-7
    patience: int = 60

    def validate(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.restart_count < 0:
            raise ValueError("restart_count must be >= 0")
        if self.smoothing_width <= 0:
            raise ValueError("smoothing_width must be positive")


@dataclass
class ConstantEstimate:
    """Best discrete quotient found, with provenance.

    `value` is a rigorous upper bound for the discrete functional; the
    snapshot is the feasible function attaining it.  `history` rows are
    (iter, best quotient so far, |constraint residual|, tv, lp norm);
    the quotient column is nonincreasing by construction.
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
    """Gradient of the Huber-smoothed TV sum h * phi_delta(|D v|)."""
    dx, dy = _forward_differences(v, mask)
    rho = np.hypot(dx, dy)
    w = 1.0 / np.maximum(rho, delta)  # Huber: phi'(rho)/rho
    gx = dx * w
    gy = dy * w
    grad = np.zeros_like(v)
    grad -= gx
    grad[:, 1:] += gx[:, :-1]
    grad -= gy
    grad[1:, :] += gy[:-1, :]
    grad[~mask] = 0.0
    return h * grad


def minimize_quotient(domain: GridDomain, q: float, config: SolverConfig) -> ConstantEstimate:
    """Upper-bound search for the sharp constant on a grid domain.

    Restart 0 starts from the best two-valued profile (radius from
    `optimal_epsilon`); further restarts perturb it with seeded noise.
    Restarts are independent and reduce deterministically (minimum
    value, ties to the lower restart index), so a fixed seed gives a
    bitwise reproducible history.
    """
    config.validate()
    n = 2
    if not 0.0 < q < n / (n - 1):
        raise ValueError(f"q must lie in (0, {n/(n-1)}), got {q}")

    seed_point = max_curvature_seed(domain).point
    seed_eps, seed_qv = optimal_epsilon(domain, seed_point, q)
    u_seed, _ = rasterize_two_valued(domain, seed_point, seed_eps, q)

    mask = domain.interior_mask
    h = domain.h
    amp = 0.1 * float(np.ptp(u_seed.interior_values()))

    best_value = math.inf
    best_snapshot = None
    rows = []
    global_iter = 0

    for restart in range(config.restart_count + 1):
        rng = np.random.default_rng([config.seed, restart])
        v = u_seed.values.copy()
        if restart > 0:
            noise = rng.standard_normal(v.shape)
            v = v + amp * noise * mask
        stale = 0
        for k in range(config.budget):
            levels = v[mask]
            if np.max(levels) - np.min(levels) <= 0.0:
                break
            lam = shift_to_constraint((levels, h * h), q)
            gf = GridFunction(domain, (v - lam) * mask)
            norm = lp_norm_power(gf, n)
            value = total_variation(gf) / norm  # TV is 1-homogeneous
            w = gf.values / norm
            resid = abs(
                float(np.sum(sign_power(w[mask], q))) * h * h
            )
            improved = value < best_value * (1.0 - config.tol)
            if value < best_value:
                best_value = value
                best_snapshot = GridFunction(domain, w)
            rows.append((global_iter, best_value, resid, value, 1.0))
            global_iter += 1
            stale = 0 if improved else stale + 1
            if stale > config.patience:
                break

            delta = config.smoothing_width * h * max(float(np.ptp(w[mask])), 1e-12)
            grad = _smoothed_tv_gradient(w, mask, h, delta)
            gnorm = float(np.linalg.norm(grad[mask]))
            if gnorm == 0.0:
                break
            alpha = config.step / (1.0 + k) ** config.decay
            v = w - alpha * grad / gnorm

    if best_snapshot is None:  # budget exhausted without a single evaluation
        best_snapshot, _ = rasterize_two_valued(domain, seed_point, seed_eps, q)
        best_value = grid_quotient(best_snapshot, q)

    residual = abs(
        float(np.sum(sign_power(best_snapshot.interior_values(), q))) * h * h
    )
    threshold = half_space_constant(n)
    history = np.array(rows, dtype=float) if rows else np.zeros((0, 5))
    return ConstantEstimate(
        value=best_value,
        q=q,
        snapshot=best_snapshot,
        residual=residual,
        history=history,
        threshold=threshold,
        below_threshold=best_value < threshold,
        seed_value=seed_qv.value,
        seed_eps=seed_eps,
    )


# --------------------------------------------------------------------------
# concentration diagnostic


@dataclass
class ConcentrationReport:
    """Atoms and diffuse mass of a (normalized) minimizing family.

    atoms are (location, mass) pairs with mass > the atom threshold and
    stable across the two smallest probing radii; the mass audit
    sum(atoms) + diffuse must reproduce the total mass.
    """

    atoms: list
    diffuse: float
    total_audit: float
    radii: tuple


def concentration_report(family, radii, atom_threshold: float = 0.05,
                         stability_window: float = 0.10, n: int = 2) -> ConcentrationReport:
    """Detect mass atoms of the final members of a minimizing family.

    For each probing radius r the map x -> int_{B(x,r)} |u|^{n/(n-1)}
    is computed by FFT convolution on the grid; atoms are the local
    maxima of the smallest-radius map whose mass exceeds
    `atom_threshold` and varies less than `stability_window`
    (relatively) across the last two radii.  Detected atoms closer than
    twice the smallest radius are merged into the strongest one, which
    keeps their mass balls disjoint and the audit exact.
    """
    family = list(family)
    if not family:
        raise ValueError("empty family")
    radii = [float(r) for r in radii]
    if len(radii) < 2 or any(r <= 0 for r in radii) or any(
        radii[i + 1] >= radii[i] for i in range(len(radii) - 1)
    ):
        raise ValueError("radii must be a decreasing list of positive lengths")
    for member in family:
        norm = lp_norm_power(member, n)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"family member not normalized (lp norm {norm})")

    u = family[-1]
    domain = u.domain
    h = domain.h
    p = n / (n - 1)
    density = (np.abs(u.values) ** p) * (h**n)
    density = density * domain.interior_mask
    total = float(np.sum(density))

    def mass_map(r):
        k = int(math.floor(r / h))
        offsets = np.arange(-k, k + 1)
        oi, oj = np.meshgrid(offsets, offsets, indexing="ij")
        kernel = ((oi * oi + oj * oj) * h * h <= r * r).astype(float)
        # Linear convolution on the full (ny + 2k, nx + 2k) grid, cropped
        # to the cells of the density.
        shape = (density.shape[0] + 2 * k, density.shape[1] + 2 * k)
        full = np.fft.irfft2(np.fft.rfft2(density, shape) * np.fft.rfft2(kernel, shape), shape)
        return full[k:k + density.shape[0], k:k + density.shape[1]]

    m_last = mass_map(radii[-1])
    m_prev = mass_map(radii[-2])

    # 3 x 3 neighbourhood maximum, edge cells compared with their own copies.
    window_max = sliding_window_view(np.pad(m_last, 1, mode="edge"), (3, 3)).max(axis=(-2, -1))
    peaks = (window_max == m_last) & (m_last > atom_threshold)
    ii, jj = np.nonzero(peaks)
    order = np.lexsort((jj, ii, -m_last[ii, jj]))
    ii, jj = ii[order], jj[order]

    r_min = radii[-1]
    kept = []
    for i, j in zip(ii, jj):
        x = domain.xmin + (j + 0.5) * h
        y = domain.ymin + (i + 0.5) * h
        if any((x - kx) ** 2 + (y - ky) ** 2 <= (2.0 * r_min) ** 2 for kx, ky, *_ in kept):
            continue
        mass = float(m_last[i, j])
        prev = float(m_prev[i, j])
        if abs(prev - mass) > stability_window * max(mass, 1e-300):
            continue
        kept.append((x, y, i, j, mass))

    gx, gy = domain.cell_centers()
    union = np.zeros(density.shape, dtype=bool)
    atoms = []
    for x, y, i, j, mass in kept:
        union |= (gx - x) ** 2 + (gy - y) ** 2 <= r_min**2
        atoms.append(((x, y), mass))
    diffuse = float(np.sum(density[~union]))
    audit = sum(m for _, m in atoms) + diffuse
    return ConcentrationReport(atoms=atoms, diffuse=diffuse, total_audit=audit,
                               radii=tuple(radii))
