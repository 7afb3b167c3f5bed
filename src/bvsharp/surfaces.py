"""Closed analytic surfaces: curvature, geodesic balls, and achievability.

Three model surfaces cover all the certificate branches:

* round sphere of radius r        (constant positive curvature),
* spheroid with semi-axes (a, c)  (nonconstant positive curvature),
* flat torus [0,L1] x [0,L2]      (zero curvature, the negative control).

The scalar curvature convention is S = 2K (twice the Gaussian
curvature), fixed by the Gauss-Bonnet identity int_M S = 4 pi chi(M)
that the classifier relies on.

Geodesic balls on the spheroid are computed in geodesic polar
coordinates: unit-speed geodesics are integrated from the center, the
Jacobi field J along each of them solves J'' + K J = 0 with J(0) = 0,
J'(0) = 1, and then

    area(B(a, eps))     = int_0^{2pi} int_0^eps J(s, alpha) ds dalpha,
    length(dB(a, eps))  = int_0^{2pi} J(eps, alpha) dalpha.

One Jacobi integration per ball gives both numbers, at every center,
poles included: the geodesics are integrated in the R^3 embedding,
which has no coordinate singularities at the poles, by the
eighth-order Runge-Kutta method of DOP853 with steps of at most 1/25 of
the curvature length, and the inner integral
A(s) = int_0^s J is carried as one more state, so the area and the
perimeter are read off the final state.  A spheroid ball depends only
on the polar angle of its center and is symmetric about the meridian
plane through it, so of n equally spaced directions the n/2 + 1 in
[0, pi] are integrated.  The mean over directions is a periodic
trapezoid rule, which converges geometrically for analytic integrands,
so the ball checks n itself: from n = 64 it doubles n until the area
and the perimeter agree with the means over every other direction to
1e-12 relative, and past n = 1024 it raises.  The benchmark's balls
and those tested on spheroids (1, 1.3), (1.3, 1) and (1, 0.8) stop at
64, while eccentric ones go further: (1, 0.2) up to 512, (1, 0.1) to
1024.
The last ball is memoized, so its area and its perimeter cost one
integration together.  The state of all directions is one
(9, n/2 + 1) array, so the integrator costs mostly what its numpy
calls cost: eight calls a stage, on views built once per ball.  Points
are parametric pairs (theta, phi) on the sphere and spheroid (polar
angle from the north pole, longitude) and (x, y) on the torus.

The spheroid area and the Gauss-Bonnet integral are integrals over the
meridian angle theta in [0, pi] of analytic integrands; both use the
package's one quadrature rule, 32-point Gauss-Legendre (`_panel_rule`)
on 8 panels, and both raise where 16 panels differ by more than a
tolerance: 1e-12 of the area, 1e-8 of the Gauss-Bonnet target.

`_geodesic_ball` is the one place that knows each model's closed forms
for a ball: its area, the area of its complement and its perimeter.  It
refuses radii below 2^-500, where the ball's area nears the subnormal
range.  Surface quotients, the hemisphere's included, are formed from
those measures by `profiles._two_valued_quotient`, as the planar ones are.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .constants import (_check_dimension, _check_exponent, _check_positive, _checked_centre,
                        sharp_sobolev_constant, unit_sphere_area)
from .profiles import QuotientValue, _two_valued_quotient

# Read-only.  A literal table, the positive half of numpy 2.4.6's
# `leggauss(32)` printed with repr and mirrored, equal to it bit for bit (a
# test checks it): literal, so that bvsharp loads only numpy's core.
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

# The spheroid area and the Gauss-Bonnet integral over the meridian are
# checked against the same panel rule on twice as many panels, to 1e-12
# of the area and to 1e-8 of the Gauss-Bonnet target, the tolerance of
# the benchmark's check.  A geodesic ball's direction count is checked to
# the same 1e-12.
_CHECK_PANEL_EDGES = np.linspace(0.0, 1.0, 17)
_CHECK_PANEL_EDGES.flags.writeable = False
_AREA_RTOL = 1e-12
_GAUSS_BONNET_RTOL = 1e-8


@dataclass(frozen=True)
class SurfaceModel:
    """Analytic closed surface, frozen (area cached lazily).  Either constructor
    checks the kind, its parameters and the quantities derived from them."""

    dimension: ClassVar[int] = 2
    kind: str  # "sphere" | "spheroid" | "flat-torus"
    r: float = 1.0
    a: float = 1.0
    c: float = 1.0
    L1: float = 1.0
    L2: float = 1.0

    def __post_init__(self):
        names = {"sphere": ("r",), "spheroid": ("a", "c"),
                 "flat-torus": ("L1", "L2")}.get(self.kind)
        if names is None:
            raise ValueError(f"unknown surface kind {self.kind!r}")
        for name in names:
            _check_positive(getattr(self, name), f"{self.kind} {name}")
        # The derived quantities take a few float operations and no quadrature.
        if self.kind == "sphere":
            r2 = self.r * self.r
            derived = {"r^2": r2, "scalar curvature 2/r^2": 2.0 / r2 if r2 else math.inf,
                       "area 4 pi r^2": 4.0 * math.pi * r2}
        elif self.kind == "spheroid":
            # max(a, c)^4 bounds E^2 in the Gauss-Bonnet integrand.  With these
            # finite and positive, so is the area, between 4 pi a min(a, c) and
            # 4 pi a max(a, c).
            a2, c2 = self.a * self.a, self.c * self.c
            derived = {
                "a^4": a2 * a2, "c^2": c2, "max(a, c)^4": max(a2 * a2, c2 * c2),
                "polar scalar curvature 2c^2/a^4": 2.0 * c2 / (a2 * a2) if a2 * a2 else math.inf,
                "equatorial scalar curvature 2/c^2": 2.0 / c2 if c2 else math.inf}
        else:
            derived = {"area L1 L2": self.L1 * self.L2}
        for name, value in derived.items():
            if not 0.0 < value < math.inf:
                raise ValueError(f"{self._name}: {name} = {value!r} is not finite and positive")

    @staticmethod
    def sphere(r: float = 1.0) -> "SurfaceModel":
        return SurfaceModel(kind="sphere", r=r)

    @staticmethod
    def spheroid(a: float, c: float) -> "SurfaceModel":
        return SurfaceModel(kind="spheroid", a=a, c=c)

    @staticmethod
    def flat_torus(L1: float, L2: float) -> "SurfaceModel":
        return SurfaceModel(kind="flat-torus", L1=L1, L2=L2)

    # ----- invariants of the model --------------------------------------

    @property
    def euler_characteristic(self) -> int:
        return 0 if self.kind == "flat-torus" else 2

    @functools.cached_property
    def area(self) -> float:
        """Area; on the spheroid the panel rule's 8-panel meridian integral.

        The same rule on 16 panels checks it: where the two differ by more
        than 1e-12 relative, the rule does not resolve the integrand (a
        spheroid such as (100, 1) or (1, 1000)), and ValueError names the
        model and both estimates.  The difference detects that failure but
        does not bound the error: at (1, 1e-5) it is 6.9e-11 against a true
        error of 3.7e-10.
        """
        if self.kind == "sphere":
            return 4.0 * math.pi * self.r**2
        if self.kind == "flat-torus":
            return self.L1 * self.L2
        value, finer = _meridian_integrals(
            lambda th: self.a * np.sin(th) * np.sqrt(self._metric_E(th)))
        if not abs(value - finer) <= _AREA_RTOL * value:
            raise ValueError(
                f"{self._name}: the area is not resolved by the panel rule "
                f"({value!r} on 8 panels, {finer!r} on 16)"
            )
        return value

    @property
    def _name(self) -> str:
        """The model and its parameters, as error messages name them."""
        if self.kind == "sphere":
            return f"sphere r={self.r!r}"
        if self.kind == "spheroid":
            return f"spheroid a={self.a!r}, c={self.c!r}"
        return f"flat torus L1={self.L1!r}, L2={self.L2!r}"

    def injectivity_radius(self) -> float:
        """Conservative global lower bound on the injectivity radius.

        On the spheroid it is at most the conjugate radius pi / sqrt(K_max)
        (Klingenberg, Ann. of Math. 69, 1959), which is the smaller bound
        when c > 2 a: a geodesic ball no larger holds no conjugate point.
        """
        if self.kind == "sphere":
            return math.pi * self.r
        if self.kind == "flat-torus":
            return 0.5 * min(self.L1, self.L2)
        k_max = 0.5 * self.curvature_range()[1]
        return min(0.5 * math.pi * min(self.a, self.c), math.pi / math.sqrt(k_max))

    def pole(self) -> tuple:
        """Coordinates of the north pole (sphere, spheroid) or the origin (torus)."""
        return (0.0, 0.0)

    # ----- local geometry -------------------------------------------------

    def _metric_E(self, theta):
        """theta-theta metric coefficient of the spheroid meridian."""
        return self.a**2 * np.cos(theta) ** 2 + self.c**2 * np.sin(theta) ** 2

    def _spheroid_scalar_curvature(self, E):
        """S = 2 c^2 / E^2 on the spheroid, E = `_metric_E` of the polar angle, for an
        array E.  On a scalar angle, C `pow` in E**2 and the scalar cos and sin of
        `_metric_E` each round differently from the array loops in the last bit."""
        return 2.0 * self.c**2 / E**2

    def curvature_range(self):
        """(S_min, S_max, argmax point) of the scalar curvature.

        On the spheroid the ends are 2 c^2 / a^4 and 2 / c^2, which agree
        with `scalar_curvature` at the pole and the equator to 1e-15
        relative (4 ulp at most), not bit for bit.
        """
        if self.kind == "sphere":
            s = 2.0 / self.r**2
            return s, s, (0.0, 0.0)
        if self.kind == "flat-torus":
            return 0.0, 0.0, (0.0, 0.0)
        s_pole = 2.0 * self.c**2 / self.a**4
        s_equator = 2.0 / self.c**2
        # K is monotone along the meridian, so the extrema are at the ends.
        if s_pole >= s_equator:
            return s_equator, s_pole, (0.0, 0.0)
        return s_pole, s_equator, (0.5 * math.pi, 0.0)


def _panel_rule(t0: float, t1: float, panel_edges=_PANEL_EDGES):
    """Nodes and weights, each (panels, 32), of 32-point Gauss-Legendre on the
    panels of [t0, t1] whose edges, as fractions of it, are `panel_edges`."""
    edges = t0 + (t1 - t0) * panel_edges
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    t = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * _GL_NODES
    return t, half * _GL_WEIGHTS


def _meridian_integrals(integrand):
    """2 pi times the panel rule's integral of integrand(theta) over
    [0, pi], on 8 panels and on the 16 that check it."""
    def integral(panel_edges):
        th, w = _panel_rule(0.0, math.pi, panel_edges)
        return 2.0 * math.pi * float(np.sum(w * integrand(th)))

    return integral(_PANEL_EDGES), integral(_CHECK_PANEL_EDGES)


def scalar_curvature(surface: SurfaceModel, point) -> float:
    """Scalar curvature S(p) = 2 K(p) (so that int_M S = 4 pi chi)."""
    if surface.kind == "sphere":
        return 2.0 / surface.r**2
    if surface.kind == "flat-torus":
        return 0.0
    theta = np.array([float(point[0])])  # the Gauss-Bonnet integrand's array path
    return float(surface._spheroid_scalar_curvature(surface._metric_E(theta))[0])


# --------------------------------------------------------------------------
# geodesic-ball quadrature


# The 12-stage explicit Runge-Kutta method of order 8 that propagates the
# solution in DOP853 (Prince & Dormand, J. Comput. Appl. Math. 7, 1981;
# Hairer, Norsett & Wanner, Solving ODEs I, 2nd ed., sec. II.10): nodes c,
# stage matrix A, weights b.  The literals are those of
# scipy/integrate/_ivp/dop853_coefficients.py (its C[:12], A[:12, :12] and
# B), copied so that bvsharp does not import scipy.
_RK8_C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
])
_RK8_A = np.zeros((12, 12))
_RK8_A[1, :1] = [5.26001519587677318785587544488e-2]
_RK8_A[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
_RK8_A[3, :3] = [2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2]
_RK8_A[4, :4] = [2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
                 9.24834003261792003115737966543e-1]
_RK8_A[5, :5] = [3.7037037037037037037037037037e-2, 0.0, 0.0,
                 1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1]
_RK8_A[6, :6] = [3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
                 6.02165389804559606850219397283e-2, -1.7578125e-2]
_RK8_A[7, :7] = [3.70920001185047927108779319836e-2, 0.0, 0.0,
                 1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
                 -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3]
_RK8_A[8, :8] = [6.24110958716075717114429577812e-1, 0.0, 0.0,
                 -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
                 2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
                 -4.34898841810699588477366255144e1]
_RK8_A[9, :9] = [4.77662536438264365890433908527e-1, 0.0, 0.0,
                 -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
                 2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
                 -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2]
_RK8_A[10, :10] = [-9.3714243008598732571704021658e-1, 0.0, 0.0,
                   5.18637242884406370830023853209, 1.09143734899672957818500254654,
                   -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
                   2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
                   -3.0467644718982195003823669022]
_RK8_A[11, :11] = [2.27331014751653820792359768449, 0.0, 0.0,
                   -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
                   -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
                   -2.85899827713502369474065508674, -8.87285693353062954433549289258,
                   1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1]
_RK8_B = np.array([
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
])


def _spheroid_generic_profile(surface: SurfaceModel, theta0: float, eps: float, m: int):
    """(A(eps, alpha_m), J(eps, alpha_m)) for geodesics from (theta0, 0).

    J is the Jacobi field along the unit-speed geodesic in direction
    alpha_m and A(s) = int_0^s J is carried as a state, A' = J, A(0) = 0,
    so one integration gives the area and the perimeter of the ball.

    On a surface of revolution J does not depend on the longitude of the
    center, so the geodesics start at longitude 0, where the reflection
    x2 -> -x2 fixes the center and maps direction alpha to -alpha.  So
    J(s, alpha) = J(s, 2 pi - alpha), and of n = 2(m - 1) equally spaced
    directions only the m columns alpha_k = 2 pi k / n, k = 0..m-1, in
    [0, pi] are integrated.  `_spheroid_ball` chooses m: it starts at 33
    columns (64 directions) and doubles the directions until the rule
    agrees with its every-other-column subset.

    Integration happens in the R^3 embedding of the spheroid
    (x1^2+x2^2)/a^2 + x3^2/c^2 = 1, which is immune to the coordinate
    degeneracy at the poles.  The state (A, x, J, v, J') of all
    directions is one (9, m) array, advanced by the eighth-order
    Runge-Kutta method of DOP853 and re-projected in place to the surface
    and to unit speed after every step.  The step count is
    ceil(eps sqrt(K_max) / 0.04): steps of at most 1/25 of the curvature
    length 1/sqrt(K_max).  J must stay positive: a step that ends with
    J <= 0 has passed a conjugate point, and the ball is then no longer
    given by these formulas, so that raises `ValueError`.  Zeros of J are
    at least pi / sqrt(K_max) apart (Sturm comparison), so J cannot turn
    negative and back within one step, and step ends are enough to check.

    The arrays are small, so the cost is mostly per numpy call: every view
    is built once per ball, before the step loop, and a stage makes eight
    calls, seven for the right-hand side `rhs` and one matrix product that
    combines the stage derivatives into the next stage state.  The columns
    still count: twelve balls (spheroids (1, 0.8) and (1, 1.2), polar angle
    1, radii 0.1 to 0.8) cost 21.0, 24.2, 30.3, 43.6 and 69.8 ms at 33, 65,
    129, 257 and 513 columns (CPU time, medians of 15 runs, 2 vCPUs).
    """
    a, c = surface.a, surface.c
    a2, c2 = a * a, c * c
    k_max = 0.5 * surface.curvature_range()[1]
    steps = math.ceil(eps * math.sqrt(k_max) / 0.04)
    st, ct = math.sin(theta0), math.cos(theta0)
    E0 = math.sqrt(a2 * ct * ct + c2 * st * st)
    # F(x) = g . (x * x) / 2 - 1 is the spheroid, with gradient g * x.
    g = np.array([2.0 / a2, 2.0 / a2, 2.0 / c2])
    neg_g, g2 = -g[:, None], g * g

    alphas = np.linspace(0.0, math.pi, m)  # 2 pi k / (2m - 2), k = 0..m-1
    # S[0] is the state, S[1..12] the stage derivatives, Ys the stage state.
    # State rows A, x1, x2, x3, J, v1, v2, v3, J': d/ds of rows 0..4 is rows 4..8.
    stages = _RK8_B.size
    S = np.zeros((stages + 1, 9, m))
    S_flat, Y, Ys = S.reshape(stages + 1, -1), S[0], np.zeros((9, m))
    Ys[1], Ys[3], Ys[8] = a * st, c * ct, 1.0
    Ys[5:8] = np.outer([a * ct / E0, 0.0, -c * st / E0], np.cos(alphas))
    Ys[6] = np.sin(alphas)
    Y[:] = Ys
    x, J, v = Ys[1:4], Ys[4], Ys[5:8]

    # Row i < stages of `combine` forms the state of stage i from S[0..i],
    # the last row the next state from all of S.  Entry i of `plan` puts
    # the derivative at stage i - 1 in S[i] and the state of stage i in Ys.
    ds = eps / steps
    combine = np.zeros((stages + 1, stages + 1))
    combine[:, 0] = 1.0
    combine[:stages, 1:] = ds * _RK8_A
    combine[stages, 1:] = ds * _RK8_B
    plan = [(S[i, :5], S[i, 5:], combine[i, :i + 1], S_flat[:i + 1]) for i in range(1, stages + 1)]

    # Rows 0..7 of `squares` take the squares of rows 1..8, and row 8 is 1:
    # one product with M gives -g (g . (v * v)), g2 . (x * x) three times
    # and u = W / c, W = c^2 + (a^2 - c^2) x3^2 / c^2.
    squares = np.ones((9, m))
    M = np.zeros((7, 9))
    M[:3, 4:7], M[3:6, :3], M[6, 2], M[6, 8] = neg_g * g, g2, (a2 - c2) / (c2 * c), c
    r, coef = np.empty((7, m)), np.empty((4, m))
    tail, rows, xJ, sq = Ys[4:], Ys[1:], Ys[1:5], squares[:8]
    lam_num, lam_den, u, coef_x, coef_J = r[:3], r[3:6], r[6], coef[:3], coef[3]

    def rhs(head, accel):
        np.copyto(head, tail)
        np.multiply(rows, rows, out=sq)
        np.dot(M, squares, out=r)
        # Geodesic acceleration: the normal force -lam g * x that keeps x
        # on F = 0, lam = g . (v * v) / g2 . (x * x).  J'' = -K J with
        # K = c^2 / W^2 = 1 / u^2, exactly 1 / c^2 on a round spheroid.
        # x and J are rows 1..4, so one product gives both accelerations.
        np.divide(lam_num, lam_den, out=coef_x)
        np.multiply(u, u, out=u)
        np.divide(-1.0, u, out=coef_J)
        np.multiply(xJ, coef, out=accel)

    # F + 1 and |grad F|^2 from x * x; the speed from v * v.
    P, ones = np.array([0.5 * g, g2]), np.ones(3)
    xx, tmp, Fg = np.empty((3, m)), np.empty((3, m)), np.empty((2, m))
    F, grad2 = Fg
    Ys_flat, J_min = Ys.reshape(-1), np.full(m, np.inf)
    for _ in range(steps):
        for head, accel, row, block in plan:
            rhs(head, accel)
            np.dot(row, block, out=Ys_flat)

        # Project back to the surface, along grad F ...
        np.multiply(x, x, out=xx)
        np.dot(P, xx, out=Fg)
        F -= 1.0
        F /= grad2
        np.multiply(x, neg_g, out=tmp)
        tmp *= F
        x += tmp
        # ... and v to the tangent plane there, then to unit speed.
        np.multiply(x, x, out=xx)
        np.multiply(v, x, out=tmp)
        vn = (g @ tmp) / (g2 @ xx)
        np.multiply(x, neg_g, out=tmp)
        tmp *= vn
        v += tmp
        np.multiply(v, v, out=tmp)
        v /= np.sqrt(ones @ tmp)
        np.minimum(J_min, J, out=J_min)
        np.copyto(Y, Ys)
    k = int(np.argmin(J_min))
    if J_min[k] <= 0.0:
        raise ValueError(
            f"conjugate point within radius {eps} of polar angle {theta0}: "
            f"J <= 0 along direction alpha = {alphas[k]:.6g}"
        )
    return Ys[0], J


# A ball's area is about pi eps^2, subnormal below eps = 8.4e-155.  At
# 1e-160 and q = 1 the quotient read c*_2 (1 - 2.7e-5) on the unit sphere
# and the flat torus, false strict witnesses; at 1e-162 the sphere's ball
# is 0.  From 2^-500 up, the sphere, the flat torus and the spheroids read
# c*_2 at q = 1 to 1.4e-15.  The floor is absolute, as areas are.
_RADIUS_FLOOR = 2.0 ** -500


# The mean over directions is a periodic trapezoid rule, which converges
# geometrically for analytic integrands (Trefethen & Weideman, SIAM Rev. 56,
# 2014), so a ball checks its direction count against every other direction
# and doubles it until the two agree.
_DIRECTION_COUNTS = (64, 128, 256, 512, 1024)


def _direction_mean(values) -> float:
    """2 pi times the mean over the 2(m - 1) equally spaced directions whose
    m columns lie in [0, pi]: columns 1..m-2 stand for -alpha too.  Each
    measure takes its own 1-D dot product: one (2, m) matrix product rounds
    differently, and put round-spheroid balls an ulp further from the
    closed forms."""
    m = values.size
    weights = np.full(m, 2.0)
    weights[[0, -1]] = 1.0
    return (2.0 * math.pi / (2 * (m - 1))) * float(values @ weights)


# Memoized on the last ball: callers ask for its area and its perimeter
# back to back, as for the crossing memo in `geometry`.  `_geodesic_ball`
# validates first, so no NaN key enters the cache.
@functools.lru_cache(maxsize=1)
def _spheroid_ball(surface: SurfaceModel, theta0: float, eps: float):
    """(area, perimeter) of the spheroid ball of radius eps at polar angle theta0.

    From n = 64 directions up, the means over n directions are accepted when
    the area and the perimeter both agree with the means over every other
    direction to _AREA_RTOL relative; otherwise n doubles and the ball is
    integrated again.  Past 1024 directions, ValueError names the model, the
    ball, n and both estimates.
    """
    for n in _DIRECTION_COUNTS:
        A, J = _spheroid_generic_profile(surface, theta0, eps, n // 2 + 1)
        area, perimeter = _direction_mean(A), _direction_mean(J)
        half_area, half_perimeter = _direction_mean(A[::2]), _direction_mean(J[::2])
        if (abs(area - half_area) <= _AREA_RTOL * area
                and abs(perimeter - half_perimeter) <= _AREA_RTOL * perimeter):
            return area, perimeter
    raise ValueError(
        f"{surface._name}: the ball of radius {eps!r} at polar "
        f"angle {theta0!r} is not resolved by {n} directions (area {area!r} on {n}, "
        f"{half_area!r} on {n // 2}; perimeter {perimeter!r} on {n}, "
        f"{half_perimeter!r} on {n // 2})"
    )


def _geodesic_ball(surface: SurfaceModel, center, eps: float):
    """(area, complement area, perimeter) of the geodesic ball B(center, eps).

    The one home of the closed forms on the sphere and the flat torus; on
    the spheroid ball and perimeter come from one Jacobi integration per
    ball (2 pi times the means over directions of A(eps) and of J(eps)),
    and the complement is the model's area less the ball.
    """
    theta0, _ = _checked_centre(center, eps)
    if eps < _RADIUS_FLOOR:
        raise ValueError(
            f"geodesic radius {eps!r} is below the floor {_RADIUS_FLOOR:.6g} = 2^-500, "
            "where the ball's area nears the subnormal range"
        )
    inj = surface.injectivity_radius()
    if eps > inj:
        raise ValueError(
            f"geodesic radius {eps} exceeds the injectivity bound {inj:.6g} "
            f"for this {surface.kind}"
        )
    if surface.kind == "sphere":
        # 2 pi r^2 (1 -+ cos(eps/r)) without cancellation near eps = 0 and pi r
        r = surface.r
        return (4.0 * math.pi * r**2 * math.sin(0.5 * eps / r) ** 2,
                4.0 * math.pi * r**2 * math.cos(0.5 * eps / r) ** 2,
                2.0 * math.pi * r * math.sin(eps / r))
    if surface.kind == "flat-torus":
        return math.pi * eps**2, surface.area - math.pi * eps**2, 2.0 * math.pi * eps
    ball, perimeter = _spheroid_ball(surface, theta0, float(eps))
    return ball, surface.area - ball, perimeter


def geodesic_ball_area(surface: SurfaceModel, center, eps: float) -> float:
    """Area of the geodesic ball B(center, eps); eps within injectivity."""
    return _geodesic_ball(surface, center, eps)[0]


def geodesic_circle_length(surface: SurfaceModel, center, eps: float) -> float:
    """Perimeter of the geodesic ball B(center, eps)."""
    return _geodesic_ball(surface, center, eps)[2]


# --------------------------------------------------------------------------
# quotients and certificates


def surface_two_valued_quotient(surface: SurfaceModel, center, eps: float,
                                q: float) -> QuotientValue:
    """Exact quadrature quotient of chi_B - beta chi_complement on M,
    compared with c*_n for the dimension n of the model."""
    ball, rest, perim = _geodesic_ball(surface, center, eps)
    n = surface.dimension
    return _two_valued_quotient(surface.area, ball, rest, perim, q, n, sharp_sobolev_constant(n))


def critical_curvature_threshold(n: int, area: float) -> float:
    """Scalar-curvature threshold for the critical-exponent certificate.

    Equals the scalar curvature of the round n-sphere with the given
    n-volume,

        n (n-1) (sigma_n / area)^(2/n),    sigma_n = |S^n|,

    which for n = 2 reduces to 8 pi / area.  The round sphere sits
    exactly at the threshold in every dimension, but only at n = 2 is it
    borderline, the strict inequality of the certificate just failing
    there: for n >= 3 the plateau term of `critical_quotient_expansion`
    has the other sign, and the hemisphere of S^3 already lies below c*_3.
    """
    _check_dimension(n, 2)
    _check_positive(area, "area")
    return n * (n - 1) * (unit_sphere_area(n) / area) ** (2.0 / n)


def gauss_bonnet_check(surface: SurfaceModel):
    """Numerically integrated int_M S dmu and its target 4 pi chi(M).

    The integral is the panel rule's 8-panel value.  The same rule on 16
    panels checks it: where the two differ by more than 1e-8 of the
    target, the rule does not resolve the curvature peak (a spheroid of
    aspect ratio near 100 or more), and ValueError names the model and
    both estimates.
    """
    target = 4.0 * math.pi * surface.euler_characteristic
    if surface.kind == "flat-torus":
        # The flat metric has S = 0 at every point, so the integral is exactly 0.
        return 0.0, target

    def integrand(th):
        if surface.kind == "sphere":
            r = surface.r
            return (2.0 / r**2) * r * r * np.sin(th)
        E = surface._metric_E(th)
        return surface._spheroid_scalar_curvature(E) * surface.a * np.sin(th) * np.sqrt(E)

    value, finer = _meridian_integrals(integrand)
    if not abs(value - finer) <= _GAUSS_BONNET_RTOL * target:
        raise ValueError(
            f"{surface._name}: the Gauss-Bonnet integral is not resolved by the panel rule "
            f"({value!r} on 8 panels, {finer!r} on 16, target {target!r})"
        )
    return value, target


def hemisphere_certificate(q: float) -> QuotientValue:
    """The hemisphere-difference profile on the unit sphere.

    u = chi(northern hemisphere) - chi(southern hemisphere): the halves'
    equal areas give beta = 1 for every exponent q, the jump height 2
    across the equator of length 2 pi gives |Du| = 4 pi, and int |u|^2 =
    4 pi; the quotient is 4 pi / sqrt(4 pi) = 2 sqrt(pi), exactly c*_2.
    """
    hemisphere = 2.0 * math.pi  # the area of each half and the length of the equator
    return _two_valued_quotient(4.0 * math.pi, hemisphere, hemisphere, hemisphere, q, 2,
                                sharp_sobolev_constant(2))


# --------------------------------------------------------------------------
# achievability classifier


@dataclass(frozen=True)
class AchievabilityVerdict:
    """Outcome of the certificate decision tree.

    justification is one of the rule tags "Thm4".."Thm8" (or "none");
    an "achieved" verdict always carries a witness whose hypothesis can
    be re-checked from the fields stored in it.
    """

    verdict: str
    justification: str
    witness: dict | None


def classify_achievability(surface: SurfaceModel, q: float) -> AchievabilityVerdict:
    """Decide achievability of the sharp constant on a closed surface.

    The dimension n is the model's.  Rules are tried in priority order:

      (i)   round sphere, n = 2, q in (0, 2)          -> "Thm8"
      (ii)  n >= 3 with max S > 0                      -> "Thm4"
      (iii) n = 2, chi = 2, nonconstant S              -> "Thm7"
      (iv)  n = 2, max S > critical threshold          -> "Thm6"
      (v)   n = 2, q < 1, max S > 0                    -> "Thm5"

    and anything that matches none of them is reported inconclusive
    (the zero-curvature flat torus, for instance).
    """
    n = surface.dimension
    _check_exponent(q, n)
    s_min, s_max, argmax_point = surface.curvature_range()
    spread = s_max - s_min
    constant_curvature = spread <= 1e-12 * max(1.0, abs(s_max))

    def achieved(justification, **extra):
        return AchievabilityVerdict(verdict="achieved", justification=justification,
                                    witness={"point": list(argmax_point), "S_a": s_max, **extra})

    is_round_sphere = surface.euler_characteristic == 2 and constant_curvature and s_max > 0
    if n == 2 and is_round_sphere:
        return achieved("Thm8", q=q)
    if n >= 3 and s_max > 0:
        return achieved("Thm4")
    if n == 2 and surface.euler_characteristic == 2 and not constant_curvature:
        return achieved("Thm7", S_spread=spread, chi=surface.euler_characteristic)
    if n == 2:
        threshold = critical_curvature_threshold(2, surface.area)
        if s_max > threshold:
            return achieved("Thm6", threshold=threshold)
        if q < 1.0 and s_max > 0:
            return achieved("Thm5", q=q)
    return AchievabilityVerdict(verdict="inconclusive", justification="none", witness=None)
