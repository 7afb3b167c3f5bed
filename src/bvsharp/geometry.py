"""Bounded planar domains with C^2 boundary and exact cap/arc quadrature.

Every supported shape (disk, ellipse, boundary given by a Fourier radius
function) is star-shaped with respect to the origin, so one boundary
model serves them all: the polar curve rho(t) (cos t, sin t) in the polar
angle t.  Only the radial function rho differs per shape; every boundary
quantity (point, tangent, curvature, the exact inside test |p| < rho(angle
of p), the radial gap) comes from its one evaluator `_radial`, except that
the disk's frame and radial gap read its constant rho = r directly, the
latter without the polar angle of p.  A "square" spec is rejected when it
is made: its corners have no curvature, so it fails the C^2 requirement
that the boundary-cap expansions of `asymptotics` rely on.

A domain is described analytically (`DomainSpec`) and placed on a
`GridDomain` with the spec, the grid, the measure and the diameter bound
2 R0, R0 >= |rho| in closed form; its interior and pair masks are built on
first read: only the TV solver pays.  A spec's boundary is evaluated once,
at 4096 samples of t, and read by the validation, the measure (Green's
theorem, trapezoid rule on every second sample), the curvature seed and
the crossing finder's tables.  Curvature is never differenced from the
grid: it comes from the closed forms of rho, rho' and rho''.  The crossing
finder's own boundary evaluations take rho and rho' alone.  At one point
(a Newton step, the seed's polish) the boundary is evaluated on Python
floats, which give the bits of numpy's functions without their cost per call.

The two quadrature operations that feed certificate-grade numbers are

* `boundary_arc_inside` -- length of the part of dB(a, eps) lying inside
  Omega, the sum of the inside arcs between crossings;
* `cap_measure`      -- area of Omega intersected with the disk B(a, eps),
  by Green's theorem on the boundary of the intersection: the inside arcs
  of dB contribute eps^2 dtheta / 2 in closed form, the pieces of dOmega
  inside B are integrated by the panel rule `_panel_rule`: 32-point
  Gauss-Legendre on 8 equal panels, the package's one quadrature rule
  for smooth integrals (the surface area and Gauss-Bonnet integrals in
  `surfaces` use it too).  Its nodes and weights are a literal table,
  equal bit for bit to numpy's `leggauss(32)` (a test checks it), kept
  literal so that the package loads only numpy's core.

They share one crossing finder, which works along the boundary parameter
t: dB(a, eps) meets dOmega where f(t) = |gamma(t) - a|^2 - eps^2 changes
sign.  A table per centre holds |gamma(t_i) - a|^2 at 4096 samples and a
bound M on |f''|, so a radius costs a comparison with the table; M clears
or splits every sample interval near eps^2, so no pair of crossings hides
in one, and bracketed Newton on |gamma(t) - a| - eps polishes each
crossing.  A tangential crossing raises ValueError, and so does a
non-finite centre or radius, or a radius below 2^-26 |centre| on a circle
that can reach dOmega, whose crossings floats cannot resolve.  A circle's
cap and arc are memoized together on (spec, centre, radius), so the
two-valued quotient, which needs both, pays for one crossing search and
one cap quadrature.

Both are exact to rounding for the supported shapes, so strict-inequality
certificates are not contaminated by quadrature noise.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import types
from dataclasses import dataclass

import numpy as np

from .constants import _check_finite, _check_positive

# What `_radial` and `_boundary_frame` evaluate with on a float t, without
# numpy's cost per call.  math.cos and math.sin give np.cos's and np.sin's
# bits (tests check it); math.hypot rounds unlike np.hypot, so the ellipse
# keeps numpy's.
_FLOATS = types.SimpleNamespace(
    cos=math.cos, sin=math.sin, full_like=lambda t, value: value,
    hypot=lambda x, y: float(np.hypot(x, y)))


def _library(t):
    """(functions, t): `_FLOATS` and float(t) for a float t, else numpy and
    t as a float array."""
    if isinstance(t, float):
        return _FLOATS, float(t)
    return np, np.asarray(t, dtype=float)


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
        "square"   no params; rejected when made (corners).

    Either constructor checks the kind and the parameters when the spec is
    made, raising ValueError; `validate` checks the sampled boundary.
    """

    kind: str
    r: float = 1.0
    a: float = 1.0
    b: float = 1.0
    r0: float = 1.0
    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()

    def __post_init__(self):
        if self.kind == "square":
            raise DomainBuildError("square boundary rejected: corners have undefined "
                                   "curvature (the boundary must be C^2)")
        names = {"disk": ("r",), "ellipse": ("a", "b"), "fourier": ("r0",)}.get(self.kind)
        if names is None:
            raise ValueError(f"unknown shape kind {self.kind!r}")
        for name in names:
            _check_positive(getattr(self, name), f"{self.kind} {name}")
        for name in ("cos_coeffs", "sin_coeffs"):
            for k, c in enumerate(getattr(self, name)):
                _check_finite(c, f"{self.kind} {name}[{k}]")

    # Python floats, so that one-point evaluations run float arithmetic.
    @staticmethod
    def disk(r: float = 1.0) -> "DomainSpec":
        return DomainSpec(kind="disk", r=float(r))

    @staticmethod
    def ellipse(a: float, b: float) -> "DomainSpec":
        return DomainSpec(kind="ellipse", a=float(a), b=float(b))

    @staticmethod
    def fourier(r0: float, cos_coeffs=(), sin_coeffs=()) -> "DomainSpec":
        return DomainSpec(
            kind="fourier",
            r0=float(r0),
            cos_coeffs=tuple(map(float, cos_coeffs)),
            sin_coeffs=tuple(map(float, sin_coeffs)),
        )

    # ----- radial function ------------------------------------------------

    def _radial(self, t, second=True, trig=None):
        """(rho(t), rho'(t), rho''(t)), each harmonic's cos and sin taken once;
        the disk's rho is the scalar r, the derivatives are shaped like t.
        With second=False the tuple stops at rho'; trig is (cos t, sin t) if known.
        A float t (np.float64 too) gives floats, by the same formulas in the same order."""
        lib, t = _library(t)
        if self.kind == "disk":
            zero = lib.full_like(t, 0.0)
            return (self.r, zero, zero)[:2 + second]
        if self.kind == "ellipse":
            # rho = a b D^(-1/2), D = b^2 + (a^2 - b^2) sin^2 t; d1 = D'/D, d2 = D''/D.
            cos, sin = trig or (lib.cos(t), lib.sin(t))
            rho = self.a * self.b / lib.hypot(self.b * cos, self.a * sin)
            spread = self.a * self.a - self.b * self.b
            d0 = self.b * self.b + spread * sin ** 2
            d1 = spread * lib.sin(2.0 * t) / d0
            if not second:
                return rho, -0.5 * rho * d1
            d2 = 2.0 * spread * lib.cos(2.0 * t) / d0
            return rho, -0.5 * rho * d1, rho * (0.75 * d1 * d1 - 0.5 * d2)
        harmonics = [trig or (lib.cos(t), lib.sin(t))] + [
            (lib.cos(k * t), lib.sin(k * t))
            for k in range(2, max(len(self.cos_coeffs), len(self.sin_coeffs)) + 1)]
        rho, d1, d2 = lib.full_like(t, self.r0), lib.full_like(t, 0.0), lib.full_like(t, 0.0)
        for k, c in enumerate(self.cos_coeffs, start=1):
            cos, sin = harmonics[k - 1]
            rho = rho + c * cos
            d1 = d1 - c * k * sin
            d2 = d2 - c * k * k * cos if second else d2
        for k, s in enumerate(self.sin_coeffs, start=1):
            cos, sin = harmonics[k - 1]
            rho = rho + s * sin
            d1 = d1 + s * k * cos
            d2 = d2 - s * k * k * sin if second else d2
        return (rho, d1, d2)[:2 + second]

    def _radial_bounds(self):
        """(R0, R1, R2) with |rho| <= R0, |rho'| <= R1 and |rho''| <= R2 at every angle.

        The ellipse's rho = a b D^(-1/2), D = b^2 cos^2 t + a^2 sin^2 t >=
        min(a, b)^2, has |D'/D| <= s and |D''/D| <= 2 s, s = |a^2 - b^2| /
        min(a, b)^2.  The j-th derivative of a Fourier harmonic
        c cos(k t) + s sin(k t) stays within k^j hypot(c, s).
        """
        if self.kind == "disk":
            return self.r, 0.0, 0.0
        if self.kind == "ellipse":
            big = max(self.a, self.b)
            s = abs(self.a * self.a - self.b * self.b) / min(self.a, self.b) ** 2
            return big, 0.5 * big * s, big * (0.75 * s * s + s)
        sizes = [math.hypot(c, s) for c, s in itertools.zip_longest(
            self.cos_coeffs, self.sin_coeffs, fillvalue=0.0)]
        return (self.r0 + sum(sizes), sum(k * h for k, h in enumerate(sizes, start=1)),
                sum(k * k * h for k, h in enumerate(sizes, start=1)))

    # ----- boundary parameterization (polar angle t) ----------------------

    def boundary_point(self, t):
        """(x, y) at t, Python floats for a float t."""
        return self._boundary_frame(t)[:2]

    def _boundary_frame(self, t):
        """(x, y, x', y'): the boundary point at t and its derivative in t,
        Python floats for a float t."""
        lib, t = _library(t)
        ct, st = lib.cos(t), lib.sin(t)
        if self.kind == "disk":  # rho' = 0, so x' = 0 - y: +0 at t = 0, where -y is -0
            x, y = self.r * ct, self.r * st
            return x, y, 0.0 - y, x
        rho, drho = self._radial(t, second=False, trig=(ct, st))
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
        return np.hypot(px, py) - self._radial(np.arctan2(py, px), second=False)[0]

    def validate(self) -> float:
        """Check finite/closed/simple/C^2 by dense sampling; raise DomainBuildError.

        Returns the smallest geometric scale, min(1/max curvature, min
        boundary radius), measured on the same 4096 samples that the checks read.
        """
        rho_lo, rho_hi, kmax, cubed, rmin = _boundary_samples(self)[1]
        if not (math.isfinite(rho_lo) and math.isfinite(rho_hi)):
            raise DomainBuildError(f"{self.kind} boundary radius is not finite")
        if self.kind == "fourier" and rho_lo <= 0:
            raise DomainBuildError(
                "fourier boundary radius must stay positive (simple closed curve)"
            )
        if not math.isfinite(kmax):
            raise DomainBuildError(f"{self.kind} boundary curvature is not finite")
        if kmax == 0.0 or not math.isfinite(cubed):  # a closed curve has kmax >= 1/diameter
            raise DomainBuildError(f"{self.kind} boundary radius {rho_hi:.6g} is too "
                                   "large: (rho^2 + rho'^2)^(3/2) in its curvature overflows")
        return min(1.0 / kmax, rmin)


def _polar_curvature(rho, drho, ddrho):
    """(rho^2 + 2 rho'^2 - rho rho'') / (rho^2 + rho'^2)^(3/2)."""
    speed2 = rho * rho + drho * drho
    return (speed2 + drho * drho - rho * ddrho) / speed2 ** 1.5


# One entry: a build, its seed and its radius searches read one spec.
@functools.lru_cache(maxsize=1)
def _boundary_samples(spec: DomainSpec):
    """The boundary at the 4096 samples t_i = i h of `_centre_table`.

    Returns the read-only arrays (x, y, kappa); what `validate` checks, (min
    rho, max rho, max |kappa|, max (rho^2 + rho'^2)^(3/2), min |gamma|), NaN
    or inf where a sample overflows; and `build_domain`'s measure.  Every
    second t_i is linspace(0, 2 pi, 2048, endpoint=False) bit for bit: a
    reader's slice is a direct evaluation there."""
    t = np.arange(_SCAN_SAMPLES) * _SCAN_STEP
    with np.errstate(over="ignore", invalid="ignore"):  # `validate` checks
        ct, st = np.cos(t), np.sin(t)
        rho, drho, ddrho = spec._radial(t, trig=(ct, st))
        x, y, kappa = rho * ct, rho * st, _polar_curvature(rho, drho, ddrho)
        tx, ty = (drho * ct - rho * st)[::2], (drho * st + rho * ct)[::2]
        measure = math.pi * float(np.mean(x[::2] * ty - y[::2] * tx))
        checks = (float(np.min(rho)), float(np.max(rho)), float(np.max(np.abs(kappa))),
                  float(np.max(rho * rho + drho * drho) ** 1.5), float(np.min(np.hypot(x, y))))
    for array in (x, y, kappa):
        array.flags.writeable = False
    return (x, y, kappa), checks, measure


# --------------------------------------------------------------------------
# GridDomain


@dataclass(frozen=True)
class GridDomain:
    """The analytic spec placed on a grid of cell size h, with its measure
    and diameter, the bound 2 R0 of `build_domain` (exact on disks and ellipses).

    The interior and stencil pair masks are built on first read: only the
    TV solver reads them, and the certificates never pay for the raster.
    """

    spec: DomainSpec
    h: float
    xmin: float
    ymin: float
    nx: int
    ny: int
    measure: float
    diameter: float

    @functools.cached_property
    def interior_mask(self) -> np.ndarray:
        """The exact inside test at the cell centres, shape (ny, nx)."""
        return self.spec.is_inside(*self.cell_centers())

    @functools.cached_property
    def pair_masks(self):
        """(px, py) flat: px[i] if cells i, i + 1 (one row) are interior, py[i] if i, i + nx."""
        cells = self.interior_mask.ravel()
        px = cells[1:] & cells[:-1]
        px[self.nx - 1::self.nx] = False  # a row's last cell and the next row's first
        return px, cells[self.nx:] & cells[:-self.nx]

    def cell_centers(self):
        """The cell centres' coordinates (gx, gy), each of shape (ny, nx)."""
        return np.meshgrid(self.xmin + (np.arange(self.nx) + 0.5) * self.h,
                           self.ymin + (np.arange(self.ny) + 0.5) * self.h)


def build_domain(spec: DomainSpec, h: float) -> GridDomain:
    """Place a valid spec on a grid of cell size h and compute its measure.

    The interior mask, built on first read, is the exact inside test at
    the cell centres.  The measure is 1/2 of the loop integral of
    (x y' - y x') dt by the trapezoid rule on 2048 points (the integrand
    is rho^2): exact for the disk and for a Fourier boundary of degree
    below 1024; for the ellipse, whose rho^2 has Fourier coefficients
    decaying like ((a-b)/(a+b))^k, the error is at rounding level.  The
    diameter is the closed-form bound 2 R0: every boundary point lies in
    the disk B(0, R0), where R0 is r for the disk, max(a, b) for the
    ellipse and r0 + sum_k hypot(c_k, s_k) for a Fourier boundary.
    """
    feature = spec.validate()
    _check_positive(h, "h")
    if h > feature / 8.0:
        raise DomainBuildError(
            f"cell size h={h} too coarse: boundary feature size {feature:.4g} "
            "requires h <= feature/8"
        )

    (x, y, _), _, measure = _boundary_samples(spec)
    bx, by = x[::2], y[::2]

    pad = 3.0 * h
    xmin, xmax = float(np.min(bx)) - pad, float(np.max(bx)) + pad
    ymin, ymax = float(np.min(by)) - pad, float(np.max(by)) + pad
    cells_x, cells_y = (xmax - xmin) / h, (ymax - ymin) / h
    if not (math.isfinite(cells_x) and math.isfinite(cells_y)):
        raise DomainBuildError(f"cell size h={h} gives a non-finite cell count")
    nx = int(math.ceil(cells_x))
    ny = int(math.ceil(cells_y))

    return GridDomain(
        spec=spec, h=h, xmin=xmin, ymin=ymin, nx=nx, ny=ny, measure=measure,
        diameter=2.0 * spec._radial_bounds()[0],
    )


# --------------------------------------------------------------------------
# curvature queries


@dataclass(frozen=True)
class MaxCurvatureSeed:
    """The boundary point of maximal curvature; `param` is its polar angle."""

    point: tuple
    param: float
    curvature: float
    curvature_lower_bound: float  # 1/(2 R0); the boundedness argument for H > 0


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
    """Boundary point of maximal curvature, plus the 1/diameter audit bound
    (the boundary lies in B(0, R0), so its curvature reaches 1/R0 somewhere).

    Ties (constant curvature) resolve to the smallest parameter value.  The
    polish evaluates kappa on Python floats, where the (...)^(3/2) of
    `_polar_curvature` is C `pow`; the sampled grid takes numpy's vector
    power, which differs from it in the last bit for about 5% of arguments
    in (0.5, 2).  A polished and a sampled kappa at one t can thus differ by
    an ulp, which the 1e-12 margin of the polish absorbs.
    """
    spec = domain.spec
    kappa = _boundary_samples(spec)[0][2][::2]  # at t = i step, i < 2048
    step = 2.0 * _SCAN_STEP
    i = int(np.argmax(kappa))  # argmax takes the first index, so ties break low
    t_best, k_best = i * step, float(kappa[i])

    # Local golden-section polish; kept only if it genuinely improves.
    lo, hi, _ = _golden_section(lambda t: float(spec.curvature(t)), t_best - step,
                                t_best + step, 60, key=operator.neg)
    t_ref = 0.5 * (lo + hi)
    k_ref = float(spec.curvature(t_ref))
    if k_ref > k_best + 1e-12:
        t_best, k_best = t_ref % (2.0 * math.pi), k_ref

    bx, by = spec.boundary_point(t_best)
    return MaxCurvatureSeed(
        point=(float(bx), float(by)),
        param=t_best,
        curvature=k_best,
        curvature_lower_bound=1.0 / domain.diameter,
    )


# --------------------------------------------------------------------------
# circle crossings


_SCAN_SAMPLES = 4096
_SCAN_STEP = 2.0 * math.pi / _SCAN_SAMPLES
# A circle that can reach dOmega needs eps >= _RADIUS_FLOOR |a|: its
# crossing angles carry a relative error of about 0.3 ulp(|a|) / eps, so
# the cap and the arc keep about 5e-9 relative at the floor, and below it
# they fall apart (a negative cap, or the whole domain).
_RADIUS_FLOOR = 2.0 ** -26


@functools.lru_cache(maxsize=1)
def _centre_table(spec: DomainSpec, ax: float, ay: float):
    """What the crossing finder knows of dOmega seen from the centre a.

    Along dOmega, f(t) = |gamma(t) - a|^2 - eps^2 depends on the radius only
    through the constant eps^2, so one table serves every radius about a:
    d_i = |gamma(t_i) - a|^2 at the samples t_i = i h (d_4096 repeats d_0),
    and a bound M >= max|f''| from the spec's bounds on rho.  As |gamma|^2 =
    rho^2, f'' = (rho^2)'' - 2 a . gamma'', so M = 2 max|rho'^2 + rho rho''|
    + 2 |a| max|gamma''|, which is 0 for a disk about its centre.  f stays
    within M h^2 / 8 of its chord, so no circle whose eps^2 lies outside
    [lo_i, hi_i] = [min(d_i, d_i+1), max(d_i, d_i+1)] widened by M h^2 / 8
    and the rounding of d meets dOmega on [t_i, t_i+1].

    Returns the read-only arrays d, lo, hi, then M, the bounds on |gamma'|
    and |gamma''|, and 4 ulp of the bound on |gamma - a|, the rounding level
    of a distance.
    """
    x, y = _boundary_samples(spec)[0][:2]
    d = np.square(x - ax) + np.square(y - ay)
    d = np.append(d, d[0])
    rho, drho, ddrho = spec._radial_bounds()
    reach = rho + math.hypot(ax, ay)
    # |gamma'|^2 = rho^2 + rho'^2 and |gamma''|^2 = (rho'' - rho)^2 + 4 rho'^2.
    speed, bend = math.hypot(rho, drho), math.hypot(rho + ddrho, 2.0 * drho)
    bound = 2.0 * (drho * drho + rho * ddrho) + 2.0 * math.hypot(ax, ay) * bend
    margin = bound * _SCAN_STEP * _SCAN_STEP / 8.0 + 8.0 * reach * math.ulp(reach)
    lo = np.minimum(d[:-1], d[1:]) - margin
    hi = np.maximum(d[:-1], d[1:]) + margin
    d.flags.writeable = lo.flags.writeable = hi.flags.writeable = False
    return d, lo, hi, bound, speed, bend, 4.0 * math.ulp(reach)


def _checked_centre(a, eps):
    """The centre (ax, ay) as floats; raises ValueError unless the centre is
    finite and the radius eps positive.  Caps and geodesic balls check here."""
    ax, ay = float(a[0]), float(a[1])
    if not (math.isfinite(ax) and math.isfinite(ay)):
        raise ValueError(f"centre ({ax}, {ay}) has a non-finite coordinate")
    _check_positive(eps, "eps")
    return ax, ay


def _circle_crossings(spec: DomainSpec, ax: float, ay: float, eps: float):
    """The points where the circle dB(a, eps) crosses dOmega, in boundary order.

    Every sample interval of `_centre_table` whose [lo, hi] holds eps^2 is
    decided on f = d - eps^2 at its ends and M, with w its width and r the
    rounding of f near f = 0, 2 eps times that of a distance: where
    |f(t1) - f(t0)| > M w^2 + 2 r, f' keeps its sign, so the interval holds
    one crossing if f changes sign and none if not; one sign at two ends
    more than M w^2 / 8 + r from 0 also rules a crossing out.  Any other
    interval is split at its midpoint and decided again, so no pair of
    crossings hides in an interval.  One still undecided once M w^2 <= r,
    where f is its rounding across the interval, raises ValueError as a
    tangential crossing, and so does a level that splits more intervals
    than the table has samples (the circle runs along dOmega).

    Each crossing is then polished by bracketed Newton on the distance
    g(t) = |gamma(t) - a| - eps, which keeps its relative accuracy at radii
    where f is rounding noise.  It starts at the regula falsi point of f,
    and a step leaving the bracket is replaced by the midpoint.  Newton's
    error after a step s is about |g''| s^2 / (2 |g'|), with
    |g''| <= |gamma'|^2 / eps + |gamma''|; a step whose error moves gamma by
    less than the rounding level of a distance is the last, and gamma
    follows it by its Taylor update.

    Returns lists (t, x, y, exits): the sorted boundary parameters, the
    crossing points, and whether dOmega leaves B there.  Raises ValueError
    when eps < 2^-26 |a| and the table cannot keep dOmega off the circle.
    """
    d, lo, hi, bound, speed, bend, noise = _centre_table(spec, ax, ay)
    e2 = eps * eps
    near = np.flatnonzero((lo <= e2) & (e2 <= hi)).tolist()
    if near and eps < _RADIUS_FLOOR * math.hypot(ax, ay):
        raise ValueError(
            f"radius eps={eps} of the circle centred at ({ax}, {ay}) lies below the "
            f"resolution floor {_RADIUS_FLOOR * math.hypot(ax, ay):.6g} = 2^-26 |centre|: "
            "its crossings with the boundary are not resolved in floating point"
        )
    pending = [(i * _SCAN_STEP, (i + 1) * _SCAN_STEP, d.item(i) - e2, d.item(i + 1) - e2)
               for i in near]
    rounding = 2.0 * eps * noise
    brackets = []
    while pending:
        split = []
        for t0, t1, f0, f1 in pending:
            curve = bound * (t1 - t0) ** 2
            steep = abs(f1 - f0) > curve + 2.0 * rounding
            if (f0 < 0.0) != (f1 < 0.0):
                if steep:
                    brackets.append((t0, t1, f0, f1))
                    continue
            elif steep or min(abs(f0), abs(f1)) > curve / 8.0 + rounding:
                continue
            if (curve <= rounding or len(split) == _SCAN_SAMPLES
                    or t1 - t0 < 64.0 * math.ulp(2.0 * math.pi)):
                t = 0.5 * (t0 + t1)
                bx, by = spec.boundary_point(t)
                raise ValueError(
                    f"circle of radius eps={eps} centred at ({ax}, {ay}) touches the "
                    f"boundary tangentially at angle theta={math.atan2(by - ay, bx - ax)} "
                    f"(boundary parameter t={t}); the crossings are not transversal"
                )
            split.append((t0, t1, f0, f1))
        if not split:
            break
        mid = [0.5 * (t0 + t1) for t0, t1, _, _ in split]
        x, y = spec.boundary_point(np.array(mid))
        fm = (np.square(x - ax) + np.square(y - ay) - e2).tolist()
        pending = [half for (t0, t1, f0, f1), m, g in zip(split, mid, fm)
                   for half in ((t0, m, f0, g), (m, t1, g, f1))]

    brackets.sort()
    exits = [b[2] < 0.0 for b in brackets]
    found = []
    growth = 0.5 * speed * (speed * speed / eps + bend)
    for (lo_t, hi_t, f0, f1), out in zip(brackets, exits):
        t = lo_t + (hi_t - lo_t) * (f0 / (f0 - f1))
        while True:
            px, py, px1, py1 = spec._boundary_frame(t)
            dx, dy = px - ax, py - ay
            r = math.hypot(dx, dy)
            if (r < eps) == out:
                lo_t = t
            else:
                hi_t = t
            slope = (dx * px1 + dy * py1) / r
            step = (r - eps) / slope if slope else math.inf
            newton = t - step
            if growth * step * step <= noise * abs(slope) and lo_t <= newton <= hi_t:
                found.append((newton, px - step * px1, py - step * py1))
                break
            following = newton if lo_t < newton < hi_t else 0.5 * (lo_t + hi_t)
            if following == t:  # a bracket narrowed to one float stops
                found.append((t, px, py))
                break
            t = following
    t, x, y = (list(v) for v in zip(*found)) if found else ([],) * 3
    return t, x, y, exits


# --------------------------------------------------------------------------
# cap quadrature

# Read-only: `surfaces` shares the rule.  A literal table, the positive half of
# numpy 2.4.6's `leggauss(32)` printed with repr and mirrored, equal to it bit
# for bit (a test checks it): literal, so that bvsharp loads only numpy's core.
_GL_HALF = np.array([  # (node, weight)
    (0.048307665687738324, 0.09654008851472766), (0.1444719615827965, 0.09563872007927471),
    (0.23928736225213706, 0.09384439908080451), (0.33186860228212767, 0.09117387869576378),
    (0.42135127613063533, 0.08765209300440378), (0.5068999089322294, 0.08331192422694671),
    (0.5877157572407623, 0.07819389578707023), (0.6630442669302152, 0.07234579410884834),
    (0.7321821187402897, 0.06582222277636168), (0.7944837959679424, 0.058684093478535565),
    (0.84936761373257, 0.05099805926237609), (0.8963211557660521, 0.042835898022226836),
    (0.9349060759377397, 0.034273862913021765), (0.9647622555875064, 0.025392065309262024),
    (0.9856115115452684, 0.016274394730905743), (0.9972638618494816, 0.007018610009470506),
])
_GL_NODES = np.concatenate((-_GL_HALF[::-1, 0], _GL_HALF[:, 0]))
_GL_WEIGHTS = np.concatenate((_GL_HALF[::-1, 1], _GL_HALF[:, 1]))
_PANEL_EDGES = np.linspace(0.0, 1.0, 9)
_GL_NODES.flags.writeable = _GL_WEIGHTS.flags.writeable = _PANEL_EDGES.flags.writeable = False


def _panel_rule(t0, t1, panel_edges=_PANEL_EDGES):
    """Nodes and weights of 32-point Gauss-Legendre on 8 equal panels of
    each interval [t0, t1] (scalars, or arrays of interval ends), or on the
    panels whose edges, as fractions of the interval, are `panel_edges`."""
    t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
    edges = t0[..., None] + (t1 - t0)[..., None] * panel_edges
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])[..., None]
    t = 0.5 * (edges[..., 1:] + edges[..., :-1])[..., None] + half * _GL_NODES
    return t, half * _GL_WEIGHTS


def _green_boundary_integral(spec: DomainSpec, ax: float, ay: float, t0, t1):
    """Sum over the parameter intervals [t0, t1] of the integral of
    (x - ax) y' - (y - ay) x' dt, by the panel rule."""
    t, w = _panel_rule(t0, t1)
    x, y, x1, y1 = spec._boundary_frame(t)
    return float(np.sum(w * ((x - ax) * y1 - (y - ay) * x1)))


# Memoized: the cap and the arc of one circle share a crossing search and a
# cap quadrature.  The callers validate the centre and radius first, so no
# NaN key enters the cache.  One entry suffices: every caller asks for the
# cap and the arc of a circle one after the other.
@functools.lru_cache(maxsize=1)
def _circle_measures(spec: DomainSpec, ax: float, ay: float, eps: float):
    """(cap, arc): the area of Omega n B(a, eps) and the length of dB(a, eps)
    inside Omega, as `cap_measure` and `boundary_arc_inside` describe them.

    A piece of dOmega inside B runs from an entry to the next crossing in t,
    an exit.  Omega lies left of dOmega, so an arc of dB inside Omega runs
    counterclockwise from an exit to the next crossing on the circle.
    """
    t, x, y, exits = _circle_crossings(spec, ax, ay, eps)
    if not t:
        if _centre_table(spec, ax, ay)[0][0] < eps * eps:  # Omega inside B
            return _boundary_samples(spec)[2], 0.0
        if spec.is_inside(ax, ay):  # dB inside Omega
            return math.pi * eps * eps, 2.0 * math.pi * eps
        return 0.0, 0.0
    # Each arc's width is the angle between the radii to its ends, which
    # keeps its relative accuracy where the width is small.
    radii = sorted((math.atan2(py - ay, px - ax), px - ax, py - ay, out)
                   for px, py, out in zip(x, y, exits))
    angle = math.fsum(math.atan2(ux * vy - uy * vx, ux * vx + uy * vy) % (2.0 * math.pi)
                      for (_, ux, uy, out), (_, vx, vy, _) in zip(radii, radii[1:] + radii[:1])
                      if out)
    pieces = [(t0, t1) for t0, t1, out in zip(t, t[1:] + [t[0] + 2.0 * math.pi], exits) if not out]
    boundary = _green_boundary_integral(spec, ax, ay, *zip(*pieces))
    return 0.5 * eps * eps * angle + 0.5 * boundary, eps * angle


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
    return _circle_measures(domain.spec, *_checked_centre(a, eps), eps)[0]


# --------------------------------------------------------------------------
# relative perimeter of the cap


def boundary_arc_inside(domain: GridDomain, a, eps: float) -> float:
    """Length of the circular arc dB(a, eps) inside Omega.

    This is the relative perimeter of Omega n B(a, eps) in Omega: the
    portion of the cap boundary running along dOmega carries no
    gradient mass inside the domain and is excluded.
    """
    return _circle_measures(domain.spec, *_checked_centre(a, eps), eps)[1]
