"""Bounded planar domains with C^2 boundary and exact cap/arc quadrature.

Every supported shape (disk, ellipse, boundary given by a Fourier radius
function) is star-shaped with respect to the origin, so one boundary
model serves them all: the polar curve rho(t) (cos t, sin t) in the polar
angle t.  Only the radial function rho and its first two derivatives
differ per shape; the boundary point, tangent, curvature, the exact
inside test |p| < rho(angle of p) and the radial gap each have a single
code path, except that the disk's radial gap skips the polar angle of p,
which its constant rho ignores.  A "square" spec is recognized only to be
rejected: its corners have no curvature, so it fails the C^2 requirement
that every expansion here relies on.

A domain is described analytically (`DomainSpec`) and rasterized to a
`GridDomain` that carries the interior mask of the cell centres, the
Lebesgue measure and an analytic curvature evaluator.  The measure is
Green's theorem, 1/2 of the loop integral of rho(t)^2 dt, by the
trapezoid rule, which converges spectrally on a periodic analytic curve.
Curvature is never differenced from the grid: it comes from the closed
forms of rho, rho' and rho''.

The two quadrature operations that feed certificate-grade numbers are

* `boundary_arc_inside` -- length of the part of dB(a, eps) lying inside
  Omega, the sum of the inside arcs between crossings;
* `cap_measure`      -- area of Omega intersected with the disk B(a, eps),
  by Green's theorem on the boundary of the intersection: the inside arcs
  of dB contribute eps^2 dtheta / 2 in closed form, the pieces of dOmega
  inside B are integrated by the panel rule `_panel_rule`: 32-point
  Gauss-Legendre on 8 equal panels, the package's one quadrature rule
  for smooth integrals (the surface area and Gauss-Bonnet integrals in
  `surfaces` use it too).

They share one crossing finder.  It brackets the angles at which the
circle dB(a, eps) crosses dOmega by the sign of the radial gap, then
narrows each bracket by safeguarded Newton steps on the analytic slope of
the gap and a short bisection to the floating-point sign change.  A
tangential crossing raises ValueError, and so does a non-finite centre
or radius.  The finder is memoized on (spec, centre, radius), so a circle
is scanned once and its crossings are shared by the cap and the arc:
the two-valued quotient, which needs both, pays for one scan.

Both are exact to rounding for the supported shapes, so strict-inequality
certificates are not contaminated by quadrature noise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import euler_beta, gamma_half_integer

__all__ = [
    "DomainSpec",
    "GridDomain",
    "build_domain",
    "boundary_mean_curvature",
    "max_curvature_seed",
    "MaxCurvatureSeed",
    "cap_measure",
    "cap_measure_expansion",
    "boundary_arc_inside",
    "boundary_arc_expansion",
]

class DomainBuildError(ValueError):
    """Raised when a DomainSpec cannot produce a valid C^2 domain."""


@dataclass(frozen=True)
class DomainSpec:
    """Analytic description of a bounded planar domain, star-shaped at 0.

    Every boundary is the polar curve rho(t) (cos t, sin t), t the polar
    angle; the shapes differ only in the radial function rho:

    kind:
        "disk"     params: r; rho(t) = r
        "ellipse"  params: a, b (semi-axes);
                   rho(t) = a b / sqrt(b^2 cos^2 t + a^2 sin^2 t)
        "fourier"  params: r0, cos_coeffs, sin_coeffs;
                   rho(t) = r0 + sum_k (c_k cos((k+1) t) + s_k sin((k+1) t))
        "square"   params: side; always rejected at build time (corners).
    """

    kind: str
    r: float = 1.0
    a: float = 1.0
    b: float = 1.0
    side: float = 1.0
    r0: float = 1.0
    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()

    @staticmethod
    def disk(r: float = 1.0) -> "DomainSpec":
        return DomainSpec(kind="disk", r=r)

    @staticmethod
    def ellipse(a: float, b: float) -> "DomainSpec":
        return DomainSpec(kind="ellipse", a=a, b=b)

    @staticmethod
    def fourier(r0: float, cos_coeffs=(), sin_coeffs=()) -> "DomainSpec":
        return DomainSpec(
            kind="fourier",
            r0=r0,
            cos_coeffs=tuple(cos_coeffs),
            sin_coeffs=tuple(sin_coeffs),
        )

    # ----- radial function ------------------------------------------------

    def _rho(self, t):
        """rho(t) alone: the inside test and the radial gap need nothing else.

        The disk returns the scalar r, which broadcasts against t.
        """
        if self.kind == "disk":
            return self.r
        if self.kind == "ellipse":
            return self.a * self.b / np.hypot(self.b * np.cos(t), self.a * np.sin(t))
        if self.kind == "fourier":
            rho = np.full_like(np.asarray(t, dtype=float), self.r0)
            for k, c in enumerate(self.cos_coeffs, start=1):
                rho = rho + c * np.cos(k * t)
            for k, s in enumerate(self.sin_coeffs, start=1):
                rho = rho + s * np.sin(k * t)
            return rho
        raise DomainBuildError(f"no boundary curve for kind {self.kind!r}")

    def _rho_derivatives(self, t):
        """(rho'(t), rho''(t)), arrays shaped like t."""
        t = np.asarray(t, dtype=float)
        if self.kind == "disk":
            zero = np.zeros_like(t)
            return zero, zero
        if self.kind == "ellipse":
            # rho = a b D^(-1/2), D = b^2 + (a^2 - b^2) sin^2 t; d1 = D'/D, d2 = D''/D.
            rho = self._rho(t)
            spread = self.a * self.a - self.b * self.b
            d0 = self.b * self.b + spread * np.sin(t) ** 2
            d1 = spread * np.sin(2.0 * t) / d0
            d2 = 2.0 * spread * np.cos(2.0 * t) / d0
            return -0.5 * rho * d1, rho * (0.75 * d1 * d1 - 0.5 * d2)
        if self.kind == "fourier":
            d1 = np.zeros_like(t)
            d2 = np.zeros_like(t)
            for k, c in enumerate(self.cos_coeffs, start=1):
                d1 = d1 - c * k * np.sin(k * t)
                d2 = d2 - c * k * k * np.cos(k * t)
            for k, s in enumerate(self.sin_coeffs, start=1):
                d1 = d1 + s * k * np.cos(k * t)
                d2 = d2 - s * k * k * np.sin(k * t)
            return d1, d2
        raise DomainBuildError(f"no boundary curve for kind {self.kind!r}")

    # ----- boundary parameterization (polar angle t) ----------------------

    def boundary_point(self, t):
        t = np.asarray(t, dtype=float)
        rho = self._rho(t)
        return rho * np.cos(t), rho * np.sin(t)

    def boundary_param(self, px, py):
        """Boundary parameter, the polar angle in (-pi, pi], of points on the curve."""
        return np.arctan2(np.asarray(py, dtype=float), np.asarray(px, dtype=float))

    def boundary_tangent(self, t):
        t = np.asarray(t, dtype=float)
        rho = self._rho(t)
        drho, _ = self._rho_derivatives(t)
        ct, st = np.cos(t), np.sin(t)
        return drho * ct - rho * st, drho * st + rho * ct

    def curvature(self, t):
        """Signed curvature, positive for the (counterclockwise) convex side.

        The polar form (rho^2 + 2 rho'^2 - rho rho'') / (rho^2 + rho'^2)^(3/2)
        is constant in t for the disk, so curvature ties there are exact.
        """
        t = np.asarray(t, dtype=float)
        rho = self._rho(t)
        drho, ddrho = self._rho_derivatives(t)
        speed2 = rho * rho + drho * drho
        return (speed2 + drho * drho - rho * ddrho) / speed2 ** 1.5

    # ----- point queries --------------------------------------------------

    def is_inside(self, px, py):
        """Exact inside test (all supported shapes are star-shaped at 0)."""
        return self.radial_gap(px, py) < 0.0

    def radial_gap(self, px, py):
        """|p| - rho(angle of p): negative inside, same sign as the distance."""
        px = np.asarray(px, dtype=float)
        py = np.asarray(py, dtype=float)
        if self.kind == "disk":
            return np.hypot(px, py) - self.r
        return np.hypot(px, py) - self._rho(np.arctan2(py, px))

    def validate(self):
        """Check closed/simple/C^2 by dense sampling; raise DomainBuildError."""
        if self.kind == "square":
            raise DomainBuildError(
                "square boundary rejected: corners have undefined curvature "
                "(the boundary must be C^2)"
            )
        if self.kind == "disk":
            if self.r <= 0:
                raise DomainBuildError("disk radius must be positive")
            return
        if self.kind == "ellipse":
            if self.a <= 0 or self.b <= 0:
                raise DomainBuildError("ellipse semi-axes must be positive")
            return
        if self.kind == "fourier":
            t = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
            rho = self._rho(t)
            if np.min(rho) <= 0:
                raise DomainBuildError(
                    "fourier boundary radius must stay positive (simple closed curve)"
                )
            kappa = self.curvature(t)
            if not np.all(np.isfinite(kappa)):
                raise DomainBuildError("fourier boundary curvature is not finite")
            return
        raise DomainBuildError(f"unknown shape kind {self.kind!r}")

    def min_feature_size(self) -> float:
        """Smallest geometric scale: min(1/max curvature, min boundary radius)."""
        t = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        kmax = float(np.max(np.abs(self.curvature(t))))
        bx, by = self.boundary_point(t)
        rmin = float(np.min(np.hypot(bx, by)))
        return min(1.0 / kmax if kmax > 0 else np.inf, rmin)


# --------------------------------------------------------------------------
# cell fractions


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


# --------------------------------------------------------------------------
# GridDomain


@dataclass
class GridDomain:
    """A rasterized domain: the interior mask of the cell centres plus the
    analytic spec.

    Immutable after construction; every query below is read-only.
    """

    spec: DomainSpec
    h: float
    xmin: float
    ymin: float
    nx: int
    ny: int
    interior_mask: np.ndarray = field(repr=False)
    measure: float = 0.0
    _diameter: float = 0.0

    @property
    def xs(self):
        return self.xmin + (np.arange(self.nx) + 0.5) * self.h

    @property
    def ys(self):
        return self.ymin + (np.arange(self.ny) + 0.5) * self.h

    @property
    def diameter(self) -> float:
        return self._diameter

    def cell_centers(self):
        gx, gy = np.meshgrid(self.xs, self.ys)
        return gx, gy

    def boundary_point(self, t):
        return self.spec.boundary_point(t)

    def curvature(self, t):
        return self.spec.curvature(t)


def build_domain(spec: DomainSpec, h: float) -> GridDomain:
    """Rasterize a valid spec at cell size h and compute its measure.

    The interior mask is the exact inside test at the cell centres.  The
    measure is 1/2 of the loop integral of (x y' - y x') dt by the
    trapezoid rule on 2048 points (the integrand is rho^2): exact for the
    disk and for a Fourier boundary of degree below 1024; for the ellipse,
    whose rho^2 has Fourier coefficients decaying like ((a-b)/(a+b))^k,
    the error is at rounding level.
    """
    spec.validate()
    if h <= 0:
        raise DomainBuildError("cell size h must be positive")
    feature = spec.min_feature_size()
    if h > feature / 8.0:
        raise DomainBuildError(
            f"cell size h={h} too coarse: boundary feature size {feature:.4g} "
            "requires h <= feature/8"
        )

    t = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
    bx, by = spec.boundary_point(t)
    tx, ty = spec.boundary_tangent(t)
    measure = math.pi * float(np.mean(bx * ty - by * tx))

    pad = 3.0 * h
    xmin, xmax = float(np.min(bx)) - pad, float(np.max(bx)) + pad
    ymin, ymax = float(np.min(by)) - pad, float(np.max(by)) + pad
    nx = int(math.ceil((xmax - xmin) / h))
    ny = int(math.ceil((ymax - ymin) / h))
    mx, my = np.meshgrid(xmin + (np.arange(nx) + 0.5) * h, ymin + (np.arange(ny) + 0.5) * h)
    mask = spec.is_inside(mx, my)

    # Largest pairwise distance of 1024 boundary samples, in row chunks so
    # that no 1024 x 1024 difference array is ever held.  A chunk of rows
    # i meets only the columns j >= its first row: every pair i <= j is
    # still seen, and d(i, j) and d(j, i) round alike.
    sx, sy = spec.boundary_point(np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False))
    d2 = 0.0
    for lo in range(0, sx.size, 128):
        dx = sx[lo:lo + 128, None] - sx[lo:]
        dy = sy[lo:lo + 128, None] - sy[lo:]
        d2 = max(d2, float(np.max(dx * dx + dy * dy)))

    return GridDomain(
        spec=spec, h=h, xmin=xmin, ymin=ymin, nx=nx, ny=ny,
        interior_mask=mask, measure=measure, _diameter=math.sqrt(d2),
    )


# --------------------------------------------------------------------------
# curvature queries


def boundary_mean_curvature(domain: GridDomain, point) -> float:
    """Curvature of the boundary at the polar angle of `point`.

    The query point must lie on the boundary (|radial gap| < h).
    """
    px, py = float(point[0]), float(point[1])
    spec = domain.spec
    gap = float(spec.radial_gap(px, py))
    if abs(gap) >= domain.h:
        raise ValueError(
            f"point {point} is not on the boundary (radial gap {gap:.3g}, "
            f"cell size {domain.h:.3g})"
        )
    return float(spec.curvature(spec.boundary_param(px, py)))


@dataclass(frozen=True)
class MaxCurvatureSeed:
    """The boundary point of maximal curvature; `param` is its polar angle."""

    point: tuple
    param: float
    curvature: float
    diameter: float
    curvature_lower_bound: float  # 1/diam; the boundedness argument for H > 0


def max_curvature_seed(domain: GridDomain) -> MaxCurvatureSeed:
    """Boundary point of maximal curvature, plus the 1/diameter audit bound.

    Ties (constant curvature) resolve to the smallest parameter value.
    """
    spec = domain.spec
    ts = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
    kappa = spec.curvature(ts)
    i = int(np.argmax(kappa))  # argmax takes the first index, so ties break low
    t_best, k_best = float(ts[i]), float(kappa[i])

    # Local golden-section polish; kept only if it genuinely improves.
    lo, hi = t_best - ts[1], t_best + ts[1]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = float(spec.curvature(c)), float(spec.curvature(d))
    for _ in range(60):
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = float(spec.curvature(c))
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = float(spec.curvature(d))
    t_ref = 0.5 * (lo + hi)
    k_ref = float(spec.curvature(t_ref))
    if k_ref > k_best + 1e-12:
        t_best, k_best = t_ref % (2.0 * math.pi), k_ref

    bx, by = spec.boundary_point(t_best)
    return MaxCurvatureSeed(
        point=(float(bx), float(by)),
        param=t_best,
        curvature=k_best,
        diameter=domain.diameter,
        curvature_lower_bound=1.0 / domain.diameter,
    )


# --------------------------------------------------------------------------
# circle crossings


_SCAN_SAMPLES = 4096
# Newton from the regula falsi point stops after 2 or 3 steps; the cap
# only bounds the loop, since the finish is exact from any bracket.
_NEWTON_STEPS = 8
# A crossing where |d gap/d theta| <= _TANGENT_SLOPE_FLOOR * eps is
# tangential: the circle touches dOmega there, and the sign scan can miss
# or mispair such crossings.  Boundary-centred circles cross at slopes
# close to eps, far above the floor.
_TANGENT_SLOPE_FLOOR = 1e-8


def _gap_and_slope(spec: DomainSpec, ax: float, ay: float, eps: float, theta):
    """(gap, d gap/d theta, r) at p = a + eps (cos theta, sin theta), r = |p|.

    The gap is computed exactly as `DomainSpec.radial_gap` computes it, so
    the two agree in sign.  With phi the polar angle of p,
    dr/dtheta = eps (p_y cos - p_x sin) / r and
    dphi/dtheta = eps (p_x cos + p_y sin) / r^2.
    """
    cos, sin = np.cos(theta), np.sin(theta)
    px, py = ax + eps * cos, ay + eps * sin
    r = np.hypot(px, py)
    phi = np.arctan2(py, px)
    drho, _ = spec._rho_derivatives(phi)
    slope = eps * ((py * cos - px * sin) / r - drho * (px * cos + py * sin) / (r * r))
    return r - spec._rho(phi), slope, r


def _checked_centre(a, eps):
    """The centre (ax, ay) as floats; raises ValueError unless the centre
    and the radius eps are finite and eps is positive."""
    ax, ay = float(a[0]), float(a[1])
    if not (math.isfinite(ax) and math.isfinite(ay)):
        raise ValueError(f"centre ({ax}, {ay}) has a non-finite coordinate")
    if not math.isfinite(eps):
        raise ValueError(f"radius eps={eps} is not finite")
    if eps <= 0:
        raise ValueError("eps must be positive")
    return ax, ay


# Memoized: the cap and the arc of one circle share a scan.  The entries
# are read-only, since every caller gets the same arrays, and the callers
# validate the centre and radius first, so no NaN key enters the cache.
# One entry suffices: every caller asks for the cap and the arc of a
# circle one after the other, before it moves to the next circle.
@functools.lru_cache(maxsize=1)
def _circle_crossings(spec: DomainSpec, ax: float, ay: float, eps: float):
    """Angles at which the circle dB(a, eps) crosses dOmega, and the inside arcs.

    Crossings are bracketed by sign changes of the radial gap between
    4096 equispaced angles.  In each bracket a safeguarded Newton iteration
    on the analytic slope (rtsafe, Numerical Recipes section 9.4) starts at
    the regula falsi point of the two scan values.  Every step narrows the
    bracket by the sign of the gap, and a step leaving the open bracket
    falls back to its midpoint.  An element stops once |gap| <= 4 ulp(r)
    or its step is below 2 ulp(t), and keeps that iterate t.

    t lies |gap| / |slope| from the root of the exact gap, and the rounded
    gap changes sign within about 4 ulp(r) / |slope| of that root.  The
    finish bisects t +- (8 ulp(t) + (|gap| + 4 ulp(r)) / |slope|), or the
    Newton bracket where the signs there do not straddle the change, until
    the midpoint equals an endpoint.  The root is thus a floating-point
    sign change of the gap: the one that bisecting the scan bracket to
    exhaustion returns, wherever the sign of the rounded gap is monotone
    near the root.

    Returns (theta, inside): the sorted crossing angles, and for each k
    whether the arc from theta[k] to theta[k+1] (cyclically) lies in
    Omega.  Without a crossing theta is empty and inside holds one entry,
    for the whole circle.  Both arrays are read-only.  Raises ValueError
    at a tangential crossing.
    """

    def gap(theta):
        return spec.radial_gap(ax + eps * np.cos(theta), ay + eps * np.sin(theta))

    thetas = np.linspace(0.0, 2.0 * math.pi, _SCAN_SAMPLES, endpoint=False)
    gaps = np.asarray(gap(thetas))
    signs = gaps < 0.0
    flips = np.nonzero(signs != np.roll(signs, -1))[0]
    if flips.size == 0:
        theta, inside = flips.astype(float), signs[:1].copy()
        theta.flags.writeable = inside.flags.writeable = False
        return theta, inside

    lo = thetas[flips]
    hi = lo + 2.0 * math.pi / _SCAN_SAMPLES
    lo_inside = signs[flips]
    g_lo, g_hi = gaps[flips], gaps[(flips + 1) % _SCAN_SAMPLES]
    t = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
    active = np.ones(flips.size, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        g, slope, r = _gap_and_slope(spec, ax, ay, eps, t)
        same = (g < 0.0) == lo_inside
        lo = np.where(same, t, lo)
        hi = np.where(same, hi, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = g / slope
        active &= (np.abs(g) > 4.0 * np.spacing(r)) & ~(np.abs(step) < 2.0 * np.spacing(t))
        if not active.any():
            break
        # A stopped t is an endpoint of its bracket, where even a zero step
        # would fail the open-bracket test and jump to the midpoint.
        newton = t - step
        newton = np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi))
        t = np.where(active, newton, t)

    tangent = np.abs(slope) <= _TANGENT_SLOPE_FLOOR * eps
    if tangent.any():
        raise ValueError(
            f"circle of radius eps={eps} centred at ({ax}, {ay}) touches the "
            f"boundary tangentially at angle theta={float(t[tangent][0])} "
            f"(|d gap/d theta| = {float(abs(slope[tangent][0])):.3g}); "
            "the crossings are not transversal"
        )

    width = 8.0 * np.spacing(t) + (np.abs(g) + 4.0 * np.spacing(r)) / np.abs(slope)
    near = np.asarray(gap(np.concatenate((t - width, t + width)))) < 0.0
    straddle = (near[:t.size] == lo_inside) & (near[t.size:] != lo_inside)
    lo = np.where(straddle, t - width, lo)
    hi = np.where(straddle, t + width, hi)
    midpoint = 0.5 * (lo + hi)
    while not np.all((midpoint == lo) | (midpoint == hi)):
        same = (np.asarray(gap(midpoint)) < 0.0) == lo_inside
        lo = np.where(same, midpoint, lo)
        hi = np.where(same, hi, midpoint)
        midpoint = 0.5 * (lo + hi)
    theta = np.sort(midpoint)
    following = np.append(theta[1:], theta[0] + 2.0 * math.pi)
    inside = np.asarray(gap(0.5 * (theta + following))) < 0.0
    theta.flags.writeable = inside.flags.writeable = False
    return theta, inside


def _arc_widths(theta):
    """Angular width of each arc between cyclically consecutive angles."""
    return np.diff(theta, append=theta[0] + 2.0 * math.pi)


# --------------------------------------------------------------------------
# cap quadrature

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _panel_rule(t0, t1):
    """Nodes and weights of 32-point Gauss-Legendre on 8 equal panels of
    each interval [t0, t1] (scalars, or arrays of interval ends)."""
    t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
    edges = t0[..., None] + (t1 - t0)[..., None] * np.linspace(0.0, 1.0, 9)
    half = 0.5 * np.diff(edges, axis=-1)[..., None]
    t = 0.5 * (edges[..., 1:] + edges[..., :-1])[..., None] + half * _GL_NODES
    return t, half * _GL_WEIGHTS


def _green_boundary_integral(spec: DomainSpec, ax: float, ay: float, t0, t1):
    """Sum over the parameter intervals [t0, t1] of the integral of
    (x - ax) y' - (y - ay) x' dt, by the panel rule."""
    t, w = _panel_rule(t0, t1)
    x, y = spec.boundary_point(t)
    x1, y1 = spec.boundary_tangent(t)
    return float(np.sum(w * ((x - ax) * y1 - (y - ay) * x1)))


def cap_measure(domain: GridDomain, a, eps: float) -> float:
    """Area of Omega intersected with the disk B(a, eps).

    Green's theorem in coordinates centred at a: the area is 1/2 of the
    loop integral of (X dY - Y dX) over the boundary of the intersection,
    which runs along the arcs of dB(a, eps) inside Omega and the pieces of
    dOmega inside B.  An arc of angular width dtheta contributes
    eps^2 dtheta / 2 exactly; a piece of dOmega, delimited by the boundary
    parameters of two crossings, is integrated by 32-point Gauss-Legendre
    quadrature on 8 panels, which is exact to rounding for the analytic
    boundaries supported here.  Without a crossing the area is pi eps^2
    (circle inside Omega), the measure (Omega inside B) or 0 (disjoint).
    """
    ax, ay = _checked_centre(a, eps)
    spec = domain.spec
    theta, inside = _circle_crossings(spec, ax, ay, eps)
    if theta.size == 0:
        if inside[0]:
            return math.pi * eps * eps
        bx, by = spec.boundary_point(0.0)
        return domain.measure if math.hypot(float(bx) - ax, float(by) - ay) < eps else 0.0

    arcs = 0.5 * eps * eps * float(np.sum(_arc_widths(theta)[inside]))
    t = np.sort(spec.boundary_param(ax + eps * np.cos(theta), ay + eps * np.sin(theta)))
    following = np.append(t[1:], t[0] + 2.0 * math.pi)
    mx, my = spec.boundary_point(0.5 * (t + following))
    in_ball = np.hypot(mx - ax, my - ay) < eps
    return arcs + 0.5 * _green_boundary_integral(spec, ax, ay, t[in_ball], following[in_ball])


def cap_measure_expansion(H: float, eps: float, n: int) -> float:
    """Two-term small-radius expansion of the boundary-cap area,

        (pi^(n/2) eps^n / (2 Gamma(n/2+1))) *
            (1 - n H eps / ((n+1) B(1/2, (n-1)/2))),

    where H is the boundary mean curvature at the center (Hulin &
    Troyanov's asymptotic volume of small balls).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if n < 2:
        raise ValueError("dimension must be >= 2")
    lead = math.pi ** (n / 2.0) * eps**n / (2.0 * gamma_half_integer(n / 2.0 + 1.0))
    corr = n * H * eps / ((n + 1) * euler_beta(0.5, (n - 1) / 2.0))
    return lead * (1.0 - corr)


# --------------------------------------------------------------------------
# relative perimeter of the cap


def boundary_arc_inside(domain: GridDomain, a, eps: float) -> float:
    """Length of the circular arc dB(a, eps) inside Omega.

    This is the relative perimeter of Omega n B(a, eps) in Omega: the
    portion of the cap boundary running along dOmega carries no
    gradient mass inside the domain and is excluded.
    """
    ax, ay = _checked_centre(a, eps)
    theta, inside = _circle_crossings(domain.spec, ax, ay, eps)
    if theta.size == 0:
        return 2.0 * math.pi * eps if inside[0] else 0.0
    return eps * float(np.sum(_arc_widths(theta)[inside]))


def boundary_arc_expansion(H: float, eps: float, n: int) -> float:
    """Two-term expansion of the inside arc length,

        eps^(n-1) (pi^(n/2) n / (2 Gamma(n/2+1))) *
            (1 - H eps / B(1/2, (n-1)/2)).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if n < 2:
        raise ValueError("dimension must be >= 2")
    lead = eps ** (n - 1) * math.pi ** (n / 2.0) * n / (2.0 * gamma_half_integer(n / 2.0 + 1.0))
    return lead * (1.0 - H * eps / euler_beta(0.5, (n - 1) / 2.0))
