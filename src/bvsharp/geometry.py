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
at 4096 samples of t, and read by the validation, the grid's extent, the
curvature seed and the crossing finder's tables.  Curvature is never
differenced from the grid: it comes from the closed forms of rho, rho' and
rho''.  The crossing finder's own boundary evaluations take rho and rho'
alone.  At one point (a Newton step, the seed's polish) the boundary is
evaluated on Python floats, which give the bits of numpy's functions
without their cost per call.  The seed's polish and the radius search of
`profiles` share one minimiser, Brent's (`_brent`).

The two measures that feed certificate-grade numbers are

* `boundary_arc_inside` -- length of the part of dB(a, eps) lying inside
  Omega, the sum of the inside arcs between crossings;
* `cap_measure`      -- area of Omega intersected with the disk B(a, eps),
  by Green's theorem on the boundary of the intersection: the inside arcs
  of dB contribute eps^2 dtheta / 2, and the pieces of dOmega inside B
  contribute, as gamma x gamma' = rho^2 on a polar curve, the integral of
  rho^2 less a chord term, in closed form (`_boundary_term`), as is |Omega|.

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
one boundary term.

Both are closed forms, exact to rounding for the supported shapes, so
strict-inequality certificates are not contaminated by quadrature noise.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import types
from dataclasses import dataclass

import numpy as np

from .constants import _check_finite, _check_positive, _checked_centre

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
    or inf where a sample overflows; `build_domain`'s measure; and, for a
    Fourier boundary, rho^2 = A_0 + sum_m (A_m cos m t + B_m sin m t) as
    (A_0, [(A_1, B_1), ...]).  Every second t_i is linspace(0, 2 pi, 2048,
    endpoint=False) bit for bit: a reader's slice is a direct evaluation there."""
    t = np.arange(_SCAN_SAMPLES) * _SCAN_STEP
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # `validate` checks
        ct, st = np.cos(t), np.sin(t)
        rho, drho, ddrho = spec._radial(t, trig=(ct, st))
        x, y, kappa = rho * ct, rho * st, _polar_curvature(rho, drho, ddrho)
        checks = (float(np.min(rho)), float(np.max(rho)), float(np.max(np.abs(kappa))),
                  float(np.max(rho * rho + drho * drho) ** 1.5), float(np.min(np.hypot(x, y))))
    for array in (x, y, kappa):
        array.flags.writeable = False
    if spec.kind != "fourier":
        sides = (spec.r, spec.r) if spec.kind == "disk" else (spec.a, spec.b)
        return (x, y, kappa), checks, math.pi * sides[0] * sides[1], None
    # rho = sum_{|k| <= K} z_k e^(i k t), z_k = (c_k - i s_k) / 2 for k > 0 and
    # z_-k its conjugate; rho^2's coefficients are the convolution of z with z.
    w = np.array([2.0 * spec.r0] + [complex(c, -s) for c, s in itertools.zip_longest(
        spec.cos_coeffs, spec.sin_coeffs, fillvalue=0.0)])
    z = 0.5 * np.concatenate((np.conj(w[:0:-1]), w))
    u = np.convolve(z, z)[len(z) - 1:]
    square = float(u[0].real), list(zip((2.0 * u[1:].real).tolist(), (-2.0 * u[1:].imag).tolist()))
    measure = (math.pi * spec.r0 * spec.r0
               + 0.5 * math.pi * math.fsum(c * c for c in (*spec.cos_coeffs, *spec.sin_coeffs)))
    return (x, y, kappa), checks, measure, square


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
    the cell centres.  The measure is 1/2 of the integral of rho^2 over
    [0, 2 pi] in its textbook form: pi r^2, pi a b, or pi r0^2 + (pi / 2)
    sum_k (c_k^2 + s_k^2), that sum rounded once by `fsum`.  The diameter
    is the closed-form bound 2 R0: every boundary point lies in B(0, R0),
    R0 = r, max(a, b) or r0 + sum_k hypot(c_k, s_k).
    """
    feature = spec.validate()
    _check_positive(h, "h")
    if h > feature / 8.0:
        raise DomainBuildError(
            f"cell size h={h} too coarse: boundary feature size {feature:.4g} "
            "requires h <= feature/8"
        )

    (x, y, _), _, measure, _ = _boundary_samples(spec)
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
_SQRT_ULP = 2.0**-26  # the square root of the float epsilon


def _brent(f, lo: float, hi: float, iters: int, known, key) -> list:
    """Brent's minimiser of key(f(x)) on (lo, hi), 0 < lo, with a fixed budget.

    Evaluates the two golden-section points of [lo, hi], then takes `iters`
    steps of one evaluation each: parabolic through the best three points
    so far (`known`, an (x, f(x)) pair, is the third at the start) where
    the step stays in the bracket and is under half the step before last,
    golden otherwise.  No step lands within sqrt(ulp) x of the best point
    x, and none leaves (lo, hi).  Returns every (x, f(x)) it evaluated.
    """
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    seen = [(c, f(c)), (d, f(d))]
    (x, fx), (w, fw), (v, fv) = sorted([(t, key(ft)) for t, ft in seen + [known]],
                                       key=operator.itemgetter(1))
    a = max([lo] + [t for t in (w, v) if t < x])
    b, step, last = min([hi] + [t for t in (w, v) if t > x]), 0.0, 0.0
    for _ in range(iters):
        tol, m = _SQRT_ULP * x, 0.5 * (a + b)
        r, p = (x - w) * (fx - fv), (x - v) * (fx - fw)
        p, s = (x - v) * p - (x - w) * r, 2.0 * (p - r)
        p, s = (-p, s) if s > 0.0 else (p, -s)
        if abs(p) < abs(0.5 * s * last) and s * (a - x) < p < s * (b - x):
            last, step = step, p / s
            if x + step - a < 2.0 * tol or b - x - step < 2.0 * tol:
                step = tol if x < m else -tol
        else:
            last = b - x if x < m else a - x
            step = (1.0 - _INV_PHI) * last
        u = x + step if abs(step) >= tol else x + math.copysign(tol, m - x)
        if not lo < u < hi:  # a bracket collapsed on an end: step the other way
            u = 2.0 * x - u
        seen.append((u, f(u)))
        fu = key(seen[-1][1])
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v in (x, w):
                v, fv = u, fu
    return seen


_SEED_ITERS = 20  # Brent steps of the seed's polish; kappa's parabolas converge in a few


def max_curvature_seed(domain: GridDomain) -> MaxCurvatureSeed:
    """Boundary point of maximal curvature, plus the 1/diameter audit bound
    (the boundary lies in B(0, R0), so its curvature reaches 1/R0 somewhere).

    The largest of 2048 sampled kappa is polished by `_SEED_ITERS` steps of
    Brent's minimiser of -kappa on the two sample intervals beside it.  Ties
    (constant curvature) resolve to the smallest parameter value.  The
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

    # Brent polish on t_best +- step, in the offset s = t - (t_best - step)
    # in (0, 2 step), so that its step floor sqrt(ulp) s stays small and
    # positive; kept only if it genuinely improves.
    t_lo = t_best - step
    s_ref, k_ref = max(_brent(lambda s: spec.curvature(t_lo + s), 0.0, 2.0 * step, _SEED_ITERS,
                              (step, k_best), key=operator.neg), key=operator.itemgetter(1))
    if k_ref > k_best + 1e-12:
        t_best, k_best = (t_lo + s_ref) % (2.0 * math.pi), k_ref

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
# cap boundary term


def _rho_squared_integral(spec: DomainSpec, t0: float, t1: float) -> float:
    """The integral of rho^2 over [t0, t1], t0 < t1 < t0 + 2 pi, in closed
    form without a difference of nearly equal values.  The ellipse (a cos E,
    b sin E) sweeps a b dE / 2; E increases with t, so its turn dE lies past
    pi exactly when t1 - t0 does.  A Fourier rho^2 is a trigonometric polynomial."""
    span = t1 - t0
    if spec.kind == "disk":
        return spec.r * spec.r * span
    if spec.kind == "ellipse":
        a, b = spec.a, spec.b
        turn = math.atan2(a * b * math.sin(span), b * b * math.cos(t0) * math.cos(t1)
                          + a * a * math.sin(t0) * math.sin(t1))
        return a * b * (turn % (2.0 * math.pi))
    mean, harmonics = _boundary_samples(spec)[3]
    mid = 0.5 * (t0 + t1)
    return mean * span + sum(2.0 / m * math.sin(0.5 * m * span)
                             * (c * math.cos(m * mid) + s * math.sin(m * mid))
                             for m, (c, s) in enumerate(harmonics, start=1))


def _boundary_term(spec: DomainSpec, ax: float, ay: float, pieces) -> float:
    """The sum over the parameter intervals (t0, t1) of dOmega of the
    integral of (gamma - a) x gamma' dt: as gamma x gamma' = rho^2, with
    gamma_i = gamma(t_i), int rho^2 - rho0 rho1 sin(t1 - t0), twice the area
    between the piece and its chord, plus (gamma0 - a) x (gamma1 - gamma0),
    terms of size eps or less; int rho^2 - a x (gamma1 - gamma0) cancels."""
    def end(t):  # (t, rho, x, y) on Python floats, the bits of `boundary_point`
        cos, sin = math.cos(t), math.sin(t)
        rho = spec._radial(t, second=False, trig=(cos, sin))[0]
        return t, rho, rho * cos, rho * sin

    return sum(_rho_squared_integral(spec, t0, t1) - r0 * r1 * math.sin(t1 - t0)
               + (x0 - ax) * (y1 - y0) - (y0 - ay) * (x1 - x0)
               for (t0, r0, x0, y0), (t1, r1, x1, y1) in ((end(t0), end(t1)) for t0, t1 in pieces))


# Memoized: the cap and the arc of one circle share a crossing search and a
# boundary term.  The callers validate the centre and radius first, so no
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
    return 0.5 * eps * eps * angle + 0.5 * _boundary_term(spec, ax, ay, pieces), eps * angle


def cap_measure(domain: GridDomain, a, eps: float) -> float:
    """Area of Omega intersected with the disk B(a, eps).

    Green's theorem in coordinates centred at a: the area is 1/2 of the
    loop integral of (X dY - Y dX) over the boundary of the intersection,
    which runs along the arcs of dB(a, eps) inside Omega and the pieces of
    dOmega inside B.  An arc of angular width dtheta contributes
    eps^2 dtheta / 2 exactly; a piece of dOmega, delimited by the boundary
    parameters of two crossings, contributes the integral of rho^2 over it
    less a chord term in closed form (`_boundary_term`); the crossings set
    its relative rounding, about ulp / eps.  Without a crossing the area is
    pi eps^2 (circle inside Omega), the measure (Omega inside B) or 0.
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
