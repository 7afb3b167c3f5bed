"""Exact special-function constants for the sharp BV Sobolev inequalities.

Everything here is evaluated from the half-integer Gamma recurrence
Gamma(x+1) = x*Gamma(x) with base cases Gamma(1/2) = sqrt(pi) and
Gamma(1) = 1, so the values are reproducible bit for bit.  The main
quantities are

    omega_n  = pi^(n/2) / Gamma(n/2 + 1)        (unit-ball volume)
    c_star_n = pi^(1/2) * n / Gamma(n/2+1)^(1/n) = n * omega_n^(1/n)
    c_half_n = c_star_n / 2^(1/n)               (half-space constant)

c_star_n is the isoperimetric (Federer-Fleming) constant of the
inequality  c * ||u||_{n/(n-1)} <= |Du|(R^n);  the half-space variant
follows by reflecting across the flat boundary.

This module is their one source: every expansion in `asymptotics` takes
omega_n from `unit_ball_volume`, which evaluates Gamma first, so a
dimension beyond the float range raises ValueError naming Gamma.

It is also the one home of the theory's three input rules, which every
entry point calls: n >= 2 (`_check_dimension`), 0 < q < n/(n-1)
(`_check_exponent`), and a positive radius or area (`_check_positive`),
which also checks every model parameter and h when a model or grid is made.
"""

from __future__ import annotations

import math

_SQRT_PI = math.sqrt(math.pi)


def _check_dimension(n, least: int) -> None:
    """Raise ValueError, naming n, unless n is an integer (3.0 counts) >= least."""
    if not float(n).is_integer():
        raise ValueError(f"dimension must be an integer, got {n}")
    if n < least:
        raise ValueError(f"dimension must be >= {least}, got {n}")


def _check_exponent(q, n=None) -> None:
    """Raise ValueError, naming q, unless 0 < q < n/(n-1); without n, unless q > 0."""
    if n is not None and not 0.0 < q < n / (n - 1):  # NaN fails too
        raise ValueError(f"q must lie in (0, {n / (n - 1)}), got {q}")
    if not math.isfinite(q):
        raise ValueError(f"exponent q must be finite, got {q}")
    if q <= 0:
        raise ValueError(f"exponent q must be positive, got {q}")


def _check_finite(value, name: str) -> None:
    """Raise ValueError, naming `name`, unless the value (a Fourier coefficient) is finite."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _check_positive(value, name: str) -> None:
    """Raise ValueError, naming `name`, unless the value is finite and positive."""
    _check_finite(value, name)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def gamma_half_integer(x: float) -> float:
    """Gamma(x) for x in {1/2, 1, 3/2, 2, ...} via the exact recurrence.

    Raises ValueError, naming x, when Gamma(x) lies beyond the float
    range (from x = 172 on).
    """
    # k counts half-steps: k even -> integer argument, k odd -> half-integer.
    k = round(2.0 * x)
    if k <= 0 or abs(2.0 * x - k) > 1e-12:
        raise ValueError(f"expected a positive half-integer, got {x!r}")
    value = 1.0 if k % 2 == 0 else _SQRT_PI
    t = 1.0 if k % 2 == 0 else 0.5
    while t < x - 0.25:
        value *= t
        t += 1.0
        if value == math.inf:
            raise ValueError(f"Gamma({x}) lies beyond the float range")
    return value


def euler_beta(x: float, y: float) -> float:
    """Euler beta B(x, y) = Gamma(x)Gamma(y)/Gamma(x+y), half-integer arguments."""
    return gamma_half_integer(x) * gamma_half_integer(y) / gamma_half_integer(x + y)


def unit_ball_volume(n: int) -> float:
    """Volume omega_n of the unit ball in R^n."""
    _check_dimension(n, 1)
    gamma = gamma_half_integer(n / 2.0 + 1.0)  # first: it names an out-of-range n
    return math.pi ** (n / 2.0) / gamma


def unit_sphere_area(n: int) -> float:
    """Surface measure sigma_n of the unit n-sphere S^n embedded in R^(n+1)."""
    _check_dimension(n, 1)
    gamma = gamma_half_integer((n + 1) / 2.0)  # first: it names an out-of-range n
    return 2.0 * math.pi ** ((n + 1) / 2.0) / gamma


def sharp_sobolev_constant(n: int) -> float:
    """Sharp constant c*_n = pi^(1/2) n / Gamma(n/2+1)^(1/n).

    Equal to n * omega_n^(1/n); indicators of balls are the extremals.
    """
    _check_dimension(n, 2)
    return _SQRT_PI * n / gamma_half_integer(n / 2.0 + 1.0) ** (1.0 / n)


def half_space_constant(n: int) -> float:
    """Half-space constant c*_n / 2^(1/n).

    Attained by indicators of half-balls centered on the flat boundary.
    """
    return sharp_sobolev_constant(n) / 2.0 ** (1.0 / n)
