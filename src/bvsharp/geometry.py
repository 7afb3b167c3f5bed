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

A domain is described analytically (`DomainSpec`) and placed on a
`GridDomain` that carries the spec, the grid, the Lebesgue measure and
the diameter.  The interior mask of the cell centres is built on first
read, so only the TV solver pays for the raster; the certificates need
the spec, the measure and the diameter alone.  The measure is Green's
theorem, 1/2 of the loop integral of rho(t)^2 dt, by the trapezoid rule,
which converges spectrally on a periodic analytic curve.
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
circle dB(a, eps) crosses dOmega by the sign of the radial gap at 4096
angles.  A sample p whose |p|^2 lies clear of the shape's radial range
[rho_lo, rho_hi] takes its side from |p|^2; one radial-gap call
evaluates the rest and both ends of every bracket.  The finder then
narrows each bracket by safeguarded Newton steps on the analytic slope of
the gap and a bisection to the floating-point sign change, replayed on a
table of the gap's signs where the bracket holds at most 1024 floats.
Each Newton step is one vectorised call for all brackets; the bracket
updates and the finish run on Python floats.  The scan's signs tell
which arcs lie in Omega.  A tangential crossing
raises ValueError, and so does a non-finite centre or radius.  A circle's
cap and arc are memoized together on (spec, centre, radius): one scan
and one cap quadrature per circle serve every request for either, so
the two-valued quotient, which needs both, pays for one of each.

Both are exact to rounding for the supported shapes, so strict-inequality
certificates are not contaminated by quadrature noise.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .constants import _check_expansion_inputs, euler_beta, gamma_half_integer

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
        "square"   no params; always rejected at build time (corners).
    """

    kind: str
    r: float = 1.0
    a: float = 1.0
    b: float = 1.0
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

    def _radial(self, t):
        """(rho(t), rho'(t), rho''(t)), each harmonic's cos and sin taken once;
        rho equals `_rho(t)` bit for bit, the derivatives are shaped like t."""
        t = np.asarray(t, dtype=float)
        if self.kind == "disk":
            zero = np.zeros_like(t)
            return self.r, zero, zero
        if self.kind == "ellipse":
            # rho = a b D^(-1/2), D = b^2 + (a^2 - b^2) sin^2 t; d1 = D'/D, d2 = D''/D.
            sin = np.sin(t)
            rho = self.a * self.b / np.hypot(self.b * np.cos(t), self.a * sin)
            spread = self.a * self.a - self.b * self.b
            d0 = self.b * self.b + spread * sin ** 2
            d1 = spread * np.sin(2.0 * t) / d0
            d2 = 2.0 * spread * np.cos(2.0 * t) / d0
            return rho, -0.5 * rho * d1, rho * (0.75 * d1 * d1 - 0.5 * d2)
        if self.kind == "fourier":
            harmonics = [(np.cos(k * t), np.sin(k * t))
                         for k in range(1, max(len(self.cos_coeffs), len(self.sin_coeffs)) + 1)]
            rho, d1, d2 = np.full_like(t, self.r0), np.zeros_like(t), np.zeros_like(t)
            for k, c in enumerate(self.cos_coeffs, start=1):
                cos, sin = harmonics[k - 1]
                rho = rho + c * cos
                d1 = d1 - c * k * sin
                d2 = d2 - c * k * k * cos
            for k, s in enumerate(self.sin_coeffs, start=1):
                cos, sin = harmonics[k - 1]
                rho = rho + s * sin
                d1 = d1 + s * k * cos
                d2 = d2 - s * k * k * sin
            return rho, d1, d2
        raise DomainBuildError(f"no boundary curve for kind {self.kind!r}")

    def _radial_range(self):
        """(rho_lo, rho_hi) with rho_lo <= rho(t) <= rho_hi at every angle.

        A Fourier harmonic c cos(k t) + s sin(k t) lies within hypot(c, s)
        of 0, so a Fourier rho_lo may be 0 or negative although rho is not.
        """
        if self.kind == "disk":
            return self.r, self.r
        if self.kind == "ellipse":
            return min(self.a, self.b), max(self.a, self.b)
        if self.kind == "fourier":
            spread = sum(math.hypot(c, s) for c, s in itertools.zip_longest(
                self.cos_coeffs, self.sin_coeffs, fillvalue=0.0))
            return self.r0 - spread, self.r0 + spread
        raise DomainBuildError(f"no boundary curve for kind {self.kind!r}")

    # ----- boundary parameterization (polar angle t) ----------------------

    def boundary_point(self, t):
        t = np.asarray(t, dtype=float)
        rho = self._rho(t)
        return rho * np.cos(t), rho * np.sin(t)

    def boundary_param(self, px, py):
        """Boundary parameter, the polar angle in (-pi, pi], of points on the curve."""
        return np.arctan2(np.asarray(py, dtype=float), np.asarray(px, dtype=float))

    def _boundary_frame(self, t):
        """(x, y, x', y'): the boundary point at t and its derivative in t."""
        t = np.asarray(t, dtype=float)
        rho, drho, _ = self._radial(t)
        ct, st = np.cos(t), np.sin(t)
        return rho * ct, rho * st, drho * ct - rho * st, drho * st + rho * ct

    def curvature(self, t):
        """Signed curvature, positive for the (counterclockwise) convex side.

        The polar form (rho^2 + 2 rho'^2 - rho rho'') / (rho^2 + rho'^2)^(3/2)
        is constant in t for the disk, so curvature ties there are exact.
        """
        return _polar_curvature(*self._radial(t))

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

    def validate(self) -> float:
        """Check finite/closed/simple/C^2 by dense sampling; raise DomainBuildError.

        Returns `min_feature_size()`, measured on the same 4096 samples
        that the checks read.
        """
        if self.kind == "square":
            raise DomainBuildError(
                "square boundary rejected: corners have undefined curvature "
                "(the boundary must be C^2)"
            )
        names = {"disk": ("r",), "ellipse": ("a", "b"), "fourier": ("r0",)}.get(self.kind)
        if names is None:
            raise DomainBuildError(f"unknown shape kind {self.kind!r}")
        values = [(name, getattr(self, name)) for name in names]
        if self.kind == "fourier":
            for name in ("cos_coeffs", "sin_coeffs"):
                values += [(f"{name}[{k}]", c) for k, c in enumerate(getattr(self, name))]
        for name, value in values:
            if not math.isfinite(value):
                raise DomainBuildError(f"{self.kind} parameter {name}={value} is not finite")
        if self.kind == "disk" and self.r <= 0:
            raise DomainBuildError("disk radius must be positive")
        if self.kind == "ellipse" and (self.a <= 0 or self.b <= 0):
            raise DomainBuildError("ellipse semi-axes must be positive")

        t = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        with np.errstate(over="ignore", invalid="ignore"):  # checked next
            rho, drho, ddrho = self._radial(t)
            kappa = _polar_curvature(rho, drho, ddrho)
            cubed = np.max(rho * rho + drho * drho) ** 1.5
        if not np.all(np.isfinite(rho)):
            raise DomainBuildError(f"{self.kind} boundary radius is not finite")
        if self.kind == "fourier" and np.min(rho) <= 0:
            raise DomainBuildError(
                "fourier boundary radius must stay positive (simple closed curve)"
            )
        if not np.all(np.isfinite(kappa)):
            raise DomainBuildError(f"{self.kind} boundary curvature is not finite")
        kmax = float(np.max(np.abs(kappa)))
        if kmax == 0.0 or not np.isfinite(cubed):  # a closed curve has kmax >= 1/diameter
            raise DomainBuildError(f"{self.kind} boundary radius {float(np.max(rho)):.6g} is too "
                                   "large: (rho^2 + rho'^2)^(3/2) in its curvature overflows")
        rmin = float(np.min(np.hypot(rho * np.cos(t), rho * np.sin(t))))
        return min(1.0 / kmax, rmin)

    def min_feature_size(self) -> float:
        """Smallest geometric scale: min(1/max curvature, min boundary radius).

        The spec is validated on the way, so an invalid one raises.
        """
        return self.validate()


def _polar_curvature(rho, drho, ddrho):
    """(rho^2 + 2 rho'^2 - rho rho'') / (rho^2 + rho'^2)^(3/2)."""
    speed2 = rho * rho + drho * drho
    return (speed2 + drho * drho - rho * ddrho) / speed2 ** 1.5


# --------------------------------------------------------------------------
# GridDomain


@dataclass
class GridDomain:
    """The analytic spec placed on a grid of cell size h, with its measure
    and diameter.

    The interior mask of the cell centres is built on first read: only the
    TV solver reads it, and the certificates never pay for the raster.
    Immutable after construction; every query below is read-only.
    """

    spec: DomainSpec
    h: float
    xmin: float
    ymin: float
    nx: int
    ny: int
    measure: float = 0.0
    _diameter: float = 0.0

    @property
    def xs(self):
        return self.xmin + (np.arange(self.nx) + 0.5) * self.h

    @property
    def ys(self):
        return self.ymin + (np.arange(self.ny) + 0.5) * self.h

    @functools.cached_property
    def interior_mask(self) -> np.ndarray:
        """The exact inside test at the cell centres, shape (ny, nx)."""
        return self.spec.is_inside(*self.cell_centers())

    @property
    def diameter(self) -> float:
        """Largest distance between 1024 boundary samples: a lower bound."""
        return self._diameter

    def cell_centers(self):
        gx, gy = np.meshgrid(self.xs, self.ys)
        return gx, gy


# The diameter's 1024 boundary samples are cut into blocks of 16
# consecutive samples, and a pair of blocks is skipped when the bounding
# boxes prove that none of its distances reaches the largest one found in
# the most promising pair.  Rounding is monotone, so the float squared
# distance of a pair never exceeds the float bound ux^2 + uy^2 of its
# blocks; the margin only widens that by far more than the few ulp either
# is off the exact value.  A skipped pair thus lies strictly below the
# maximum and cannot tie it, and the maximum is the all-pairs one bit for bit.
_DIAMETER_BLOCK = 16
_DIAMETER_MARGIN = 1e-12


def _largest_squared_distance(sx, sy) -> float:
    """max over i, j of (sx_i - sx_j)^2 + (sy_i - sy_j)^2, pruned by blocks."""
    bx, by = sx.reshape(-1, _DIAMETER_BLOCK), sy.reshape(-1, _DIAMETER_BLOCK)

    def span(b):
        lo, hi = b.min(axis=1), b.max(axis=1)
        return np.maximum(hi[None, :] - lo[:, None], hi[:, None] - lo[None, :])

    def block_d2(i, j):
        dx = bx[i][..., :, None] - bx[j][..., None, :]
        dy = by[i][..., :, None] - by[j][..., None, :]
        return float(np.max(dx * dx + dy * dy))

    ux, uy = span(bx), span(by)
    bound = ux * ux + uy * uy
    best = block_d2(*np.unravel_index(np.argmax(bound), bound.shape))
    return block_d2(*np.nonzero(np.triu(bound * (1.0 + _DIAMETER_MARGIN) >= best)))


def build_domain(spec: DomainSpec, h: float) -> GridDomain:
    """Place a valid spec on a grid of cell size h and compute its measure.

    The interior mask, built on first read, is the exact inside test at
    the cell centres.  The measure is 1/2 of the loop integral of
    (x y' - y x') dt by the trapezoid rule on 2048 points (the integrand
    is rho^2): exact for the disk and for a Fourier boundary of degree
    below 1024; for the ellipse, whose rho^2 has Fourier coefficients
    decaying like ((a-b)/(a+b))^k, the error is at rounding level.  The
    diameter is the maximum distance over 1024 boundary samples, so it is
    a lower bound on the true one.
    """
    feature = spec.validate()
    if h <= 0:
        raise DomainBuildError("cell size h must be positive")
    if not math.isfinite(h):
        raise DomainBuildError(f"cell size h={h} is not finite")
    if h > feature / 8.0:
        raise DomainBuildError(
            f"cell size h={h} too coarse: boundary feature size {feature:.4g} "
            "requires h <= feature/8"
        )

    t = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
    bx, by, tx, ty = spec._boundary_frame(t)
    measure = math.pi * float(np.mean(bx * ty - by * tx))

    pad = 3.0 * h
    xmin, xmax = float(np.min(bx)) - pad, float(np.max(bx)) + pad
    ymin, ymax = float(np.min(by)) - pad, float(np.max(by)) + pad
    cells_x, cells_y = (xmax - xmin) / h, (ymax - ymin) / h
    if not (math.isfinite(cells_x) and math.isfinite(cells_y)):
        raise DomainBuildError(f"cell size h={h} gives a non-finite cell count")
    nx = int(math.ceil(cells_x))
    ny = int(math.ceil(cells_y))

    sx, sy = spec.boundary_point(np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False))
    return GridDomain(
        spec=spec, h=h, xmin=xmin, ymin=ymin, nx=nx, ny=ny, measure=measure,
        _diameter=math.sqrt(_largest_squared_distance(sx, sy)),
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


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(f, lo: float, hi: float, iters: int, key):
    """Golden-section search for a minimum of key(f(x)) on [lo, hi].

    Calls f 2 + iters times.  Returns the final bracket ends and its two
    interior points with their values: (lo, hi, ((c, f(c)), (d, f(d)))).
    """
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if key(fc) < key(fd):
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    return lo, hi, ((c, fc), (d, fd))


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
    lo, hi, _ = _golden_section(lambda t: float(spec.curvature(t)), t_best - ts[1],
                                t_best + ts[1], 60, key=operator.neg)
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
# The scan angles are the same for every circle; built once, read-only.
# The cosines and sines repeat angle 0 at the end, after the last sample.
_SCAN_THETAS = np.linspace(0.0, 2.0 * math.pi, _SCAN_SAMPLES, endpoint=False)
_SCAN_COS, _SCAN_SIN = np.cos(np.append(_SCAN_THETAS, 0.0)), np.sin(np.append(_SCAN_THETAS, 0.0))
_SCAN_THETAS.flags.writeable = _SCAN_COS.flags.writeable = _SCAN_SIN.flags.writeable = False
_SCAN_STEP = 2.0 * math.pi / _SCAN_SAMPLES
# A point p with |p| < rho_lo - m or |p| > rho_hi + m, m = _BAND_MARGIN * rho_hi,
# takes its side from |p|^2 alone (`_sides_by_radius`).
_BAND_MARGIN = 1e-9
_TABLE_FLOATS = 1024  # the most floats of a finish bracket that is tabulated
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
    rho, drho, _ = spec._radial(phi)
    slope = eps * ((py * cos - px * sin) / r - drho * (px * cos + py * sin) / (r * r))
    return r - rho, slope, r


def _sides_by_radius(spec: DomainSpec, px, py):
    """(inside, known): the points p that |p|^2 places in Omega, and those it places at all.

    With [rho_lo, rho_hi] the spec's radial range and m = _BAND_MARGIN rho_hi,
    p is inside when |p| < rho_lo - m (never when rho_lo <= m) and outside
    when |p| > rho_hi + m.  Rounding moves |p|^2 and |p| by a few ulp, and
    rho and the band ends by under 1e-12 rho_hi (a Fourier term of harmonic
    k by about k pi ulp), far inside m: a known point has the side of `radial_gap`.
    """
    rho_lo, rho_hi = spec._radial_range()
    margin = _BAND_MARGIN * rho_hi
    r2 = px * px + py * py
    outside = r2 > (rho_hi + margin) ** 2
    if rho_lo <= margin:
        return np.zeros_like(outside), outside
    inside = r2 < (rho_lo - margin) ** 2
    return inside, inside | outside


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


def _circle_crossings(spec: DomainSpec, ax: float, ay: float, eps: float):
    """Angles at which the circle dB(a, eps) crosses dOmega, and the inside arcs.

    Crossings are bracketed by sign changes of the radial gap between
    4096 equispaced angles.  The scan reads the side of most samples from
    |p|^2 and the spec's radial range (`_sides_by_radius`); one
    `radial_gap` call evaluates the rest, their neighbours and both ends
    of every sign change between two samples placed by |p|^2, so every
    bracket and both its end values are those of a scan by `radial_gap`.

    In each bracket a safeguarded Newton iteration on the analytic slope
    (rtsafe, Numerical Recipes section 9.4) starts at the regula falsi
    point of the two scan values.  Every step narrows the bracket by the
    sign of the gap, and a step leaving the open bracket falls back to its
    midpoint.  An element stops once |gap| <= 4 ulp(r) or its step is
    below 2 ulp(t), and keeps that iterate t.  One `_gap_and_slope` call
    per step serves every bracket; the updates, like the finish below,
    run on Python floats, whose arithmetic is numpy's to the bit, and
    `math.ulp` is `np.spacing` on the non-negative t and r.

    t lies |gap| / |slope| from the root of the exact gap, and the rounded
    gap changes sign within about 4 ulp(r) / |slope| of that root.  The
    finish bisects t +- (8 ulp(t) + (|gap| + 4 ulp(r)) / |slope|), or the
    Newton bracket where the signs there do not straddle the change, until
    the midpoint equals an endpoint.  The root is thus a floating-point
    sign change of the gap: the one that bisecting the scan bracket to
    exhaustion returns, wherever the sign of the rounded gap is monotone
    near the root.

    A straddling bracket of at most `_TABLE_FLOATS` positive floats, whose
    int64 bit patterns are consecutive, is tabulated in the same gap call
    as the straddle test and bisected by lookup (`_bisect_table`); any
    other is bisected by gap calls.  The arc after crossing k lies in
    Omega exactly when the scan sample before it lies outside.

    Returns (theta, inside): the sorted crossing angles, and for each k
    whether the arc from theta[k] to theta[k+1] (cyclically) lies in
    Omega.  Without a crossing theta is empty and inside holds one entry,
    for the whole circle.  Both arrays are read-only and own their data.
    Raises ValueError at a tangential crossing.
    """

    def gap(theta):
        return spec.radial_gap(ax + eps * np.cos(theta), ay + eps * np.sin(theta))

    # Sample _SCAN_SAMPLES repeats sample 0, so pair i is samples i and i + 1.
    # A pair that |p|^2 places on one side needs no gap; any other needs
    # both ends, and sample i ends pairs i - 1 and i (cyclically).
    px, py = ax + eps * _SCAN_COS, ay + eps * _SCAN_SIN
    signs, known = _sides_by_radius(spec, px, py)
    unsettled = ~(known[:-1] & known[1:] & (signs[:-1] == signs[1:]))
    needed = unsettled.copy()
    needed[1:] |= unsettled[:-1]
    needed[0] |= unsettled[-1]
    needed = np.flatnonzero(needed)
    found = spec.radial_gap(px[needed], py[needed])
    gaps = np.zeros(signs.size)
    gaps[needed], signs[needed] = found, found < 0.0
    gaps[-1], signs[-1] = gaps[0], signs[0]
    flips = np.flatnonzero(signs[:-1] != signs[1:])
    if flips.size == 0:
        theta, inside = flips.astype(float), signs[:1].copy()
        theta.flags.writeable = inside.flags.writeable = False
        return theta, inside

    n = flips.size
    lo_inside = signs[flips].tolist()
    lo = _SCAN_THETAS[flips].tolist()
    hi = [x + _SCAN_STEP for x in lo]
    t = [a + (b - a) * (ga / (ga - gb))
         for a, b, ga, gb in zip(lo, hi, gaps[flips].tolist(), gaps[flips + 1].tolist())]
    active = [True] * n
    for _ in range(_NEWTON_STEPS):
        g, slope, r = (v.tolist() for v in _gap_and_slope(spec, ax, ay, eps, np.array(t)))
        for k in range(n):
            if (g[k] < 0.0) == lo_inside[k]:
                lo[k] = t[k]
            else:
                hi[k] = t[k]
            # numpy's g / 0 is +-inf, or NaN at g = 0, and either fails both
            # the step test and the open-bracket test, as inf does.
            step = g[k] / slope[k] if slope[k] else math.inf
            active[k] = (active[k] and abs(g[k]) > 4.0 * math.ulp(r[k])
                         and not abs(step) < 2.0 * math.ulp(t[k]))
            if active[k]:
                newton = t[k] - step
                t[k] = newton if lo[k] < newton < hi[k] else 0.5 * (lo[k] + hi[k])
        if not any(active):
            break

    for k in range(n):
        if abs(slope[k]) <= _TANGENT_SLOPE_FLOOR * eps:
            raise ValueError(
                f"circle of radius eps={eps} centred at ({ax}, {ay}) touches the "
                f"boundary tangentially at angle theta={t[k]} "
                f"(|d gap/d theta| = {abs(slope[k]):.3g}); "
                "the crossings are not transversal"
            )

    width = [8.0 * math.ulp(tk) + (abs(gk) + 4.0 * math.ulp(rk)) / abs(sk)
             for tk, gk, rk, sk in zip(t, g, r, slope)]
    below = [tk - wk for tk, wk in zip(t, width)]
    above = [tk + wk for tk, wk in zip(t, width)]
    ends = np.array(below + above)
    bits = ends.view(np.int64).tolist()
    spans = [range(first, last + 1) if 0 <= first <= last < first + _TABLE_FLOATS else range(0)
             for first, last in zip(bits[:n], bits[n:])]
    query = np.concatenate([ends] + [np.arange(span.start, span.stop).view(float)
                                     for span in spans if span])
    negative = np.asarray(gap(query)) < 0.0
    near = negative[:2 * n].tolist()
    stop = 2 * n
    for k, span in enumerate(spans):
        table = slice(stop, stop + len(span))
        stop = table.stop
        if near[k] == lo_inside[k] and near[n + k] != lo_inside[k]:
            lo[k], hi[k] = below[k], above[k]
            if span:  # the root closes the bracket, and the loop leaves it
                lo[k] = hi[k] = _bisect_table(lo[k], hi[k], query[table].tolist(),
                                              (negative[table] == lo_inside[k]).tolist())

    midpoint = [0.5 * (a + b) for a, b in zip(lo, hi)]
    unfinished = [k for k in range(n) if midpoint[k] not in (lo[k], hi[k])]
    while unfinished:
        sides = np.asarray(gap(np.array([midpoint[k] for k in unfinished]))) < 0.0
        for k, side in zip(unfinished, sides.tolist()):
            if side == lo_inside[k]:
                lo[k] = midpoint[k]
            else:
                hi[k] = midpoint[k]
            midpoint[k] = 0.5 * (lo[k] + hi[k])
        unfinished = [k for k in unfinished if midpoint[k] not in (lo[k], hi[k])]
    midpoint = np.array(midpoint)
    order = np.argsort(midpoint)
    theta, inside = midpoint[order], ~signs[flips][order]
    theta.flags.writeable = inside.flags.writeable = False
    return theta, inside


def _bisect_table(lo: float, hi: float, floats: list, same: list) -> float:
    """Bisect [lo, hi] as `_circle_crossings` does, reading each midpoint's
    side from a table: floats lists every float of [lo, hi] in ascending
    order, and same[i] whether the gap there has the sign it has at lo."""
    mid = 0.5 * (lo + hi)
    while mid != lo and mid != hi:
        lo, hi = (mid, hi) if same[bisect.bisect_left(floats, mid)] else (lo, mid)
        mid = 0.5 * (lo + hi)
    return mid


# --------------------------------------------------------------------------
# cap quadrature

# Read-only: `surfaces` shares the rule.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_PANEL_EDGES = np.linspace(0.0, 1.0, 9)
_GL_NODES.flags.writeable = _GL_WEIGHTS.flags.writeable = _PANEL_EDGES.flags.writeable = False


def _panel_rule(t0, t1):
    """Nodes and weights of 32-point Gauss-Legendre on 8 equal panels of
    each interval [t0, t1] (scalars, or arrays of interval ends)."""
    t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
    edges = t0[..., None] + (t1 - t0)[..., None] * _PANEL_EDGES
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])[..., None]
    t = 0.5 * (edges[..., 1:] + edges[..., :-1])[..., None] + half * _GL_NODES
    return t, half * _GL_WEIGHTS


def _green_boundary_integral(spec: DomainSpec, ax: float, ay: float, t0, t1):
    """Sum over the parameter intervals [t0, t1] of the integral of
    (x - ax) y' - (y - ay) x' dt, by the panel rule."""
    t, w = _panel_rule(t0, t1)
    x, y, x1, y1 = spec._boundary_frame(t)
    return float(np.sum(w * ((x - ax) * y1 - (y - ay) * x1)))


# Memoized: the cap and the arc of one circle share a scan and a cap
# quadrature.  The callers validate the centre and radius first, so no
# NaN key enters the cache.  One entry suffices: every caller asks for
# the cap and the arc of a circle one after the other, before it moves to
# the next circle.
@functools.lru_cache(maxsize=1)
def _circle_measures(spec: DomainSpec, ax: float, ay: float, eps: float):
    """What the cap and the inside arc of the circle dB(a, eps) are made of.

    Returns (angle, boundary, alone).  With crossings, angle is the total
    angular width of the arcs of dB inside Omega, boundary the integral of
    `_green_boundary_integral` over the pieces of dOmega inside B, and
    alone is None.  Without one, angle and boundary are 0.0 and alone
    names the case: "circle" when dB lies in Omega, "domain" when Omega
    lies in B, "apart" when the two are disjoint.
    """
    theta, inside = _circle_crossings(spec, ax, ay, eps)
    if theta.size == 0:
        if inside[0]:
            return 0.0, 0.0, "circle"
        bx, by = spec.boundary_point(0.0)
        return 0.0, 0.0, "domain" if math.hypot(float(bx) - ax, float(by) - ay) < eps else "apart"

    following = np.concatenate((theta[1:], theta[:1] + 2.0 * math.pi))
    angle = float(np.sum((following - theta)[inside]))
    t = np.sort(spec.boundary_param(ax + eps * np.cos(theta), ay + eps * np.sin(theta)))
    following = np.concatenate((t[1:], t[:1] + 2.0 * math.pi))
    mx, my = spec.boundary_point(0.5 * (t + following))
    in_ball = np.hypot(mx - ax, my - ay) < eps
    return angle, _green_boundary_integral(spec, ax, ay, t[in_ball], following[in_ball]), None


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
    angle, boundary, alone = _circle_measures(domain.spec, ax, ay, eps)
    if alone is None:
        return 0.5 * eps * eps * angle + 0.5 * boundary
    return {"circle": math.pi * eps * eps, "domain": domain.measure, "apart": 0.0}[alone]


def cap_measure_expansion(H: float, eps: float, n: int) -> float:
    """Two-term small-radius expansion of the boundary-cap area,

        (pi^(n/2) eps^n / (2 Gamma(n/2+1))) *
            (1 - n H eps / ((n+1) B(1/2, (n-1)/2))),

    where H is the boundary mean curvature at the center (Hulin &
    Troyanov's asymptotic volume of small balls).
    """
    _check_expansion_inputs(n, eps, H=H)
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
    angle, _, alone = _circle_measures(domain.spec, ax, ay, eps)
    if alone is None:
        return eps * angle
    return 2.0 * math.pi * eps if alone == "circle" else 0.0


def boundary_arc_expansion(H: float, eps: float, n: int) -> float:
    """Two-term expansion of the inside arc length,

        eps^(n-1) (pi^(n/2) n / (2 Gamma(n/2+1))) *
            (1 - H eps / B(1/2, (n-1)/2)).
    """
    _check_expansion_inputs(n, eps, H=H)
    lead = eps ** (n - 1) * math.pi ** (n / 2.0) * n / (2.0 * gamma_half_integer(n / 2.0 + 1.0))
    return lead * (1.0 - H * eps / euler_beta(0.5, (n - 1) / 2.0))
