"""Empirical fits used by the expansion audits.

Remainder orders come out of a log-log least-squares line; the leading
linear coefficient of a quotient expansion comes from fitting the
difference quotient (Q(eps) - limit)/eps against eps and reading off
the intercept, which strips the next-order contamination that a direct
slope fit would keep.  Both fits need two or more distinct radii.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fit_remainder_order", "fit_linear_coefficient"]


def _check_radii(eps: np.ndarray, fit: str) -> None:
    """Raise ValueError unless there are two or more radii, all distinct:
    a repeated radius leaves the least-squares line singular or
    determined by fewer points than it was given."""
    if eps.size < 2:
        raise ValueError(f"need at least two radii for {fit}")
    if np.unique(eps).size < eps.size:
        raise ValueError(f"radii must be distinct for {fit}, got {eps.tolist()}")


def fit_remainder_order(eps, diffs) -> float:
    """Slope of log|diff| against log eps (the empirical remainder order)."""
    eps = np.asarray(eps, dtype=float)
    diffs = np.abs(np.asarray(diffs, dtype=float))
    _check_radii(eps, "an order fit")
    if np.any(diffs <= 0):
        raise ValueError("differences must be nonzero for a log-log fit")
    return float(np.polyfit(np.log(eps), np.log(diffs), 1)[0])


def fit_linear_coefficient(eps, values, limit: float) -> float:
    """Leading coefficient s in values(eps) = limit + s*eps + O(eps^2).

    Fits (values - limit)/eps = s + c*eps by least squares and returns
    the intercept s.
    """
    eps = np.asarray(eps, dtype=float)
    values = np.asarray(values, dtype=float)
    _check_radii(eps, "a coefficient fit")
    ratios = (values - limit) / eps
    design = np.vstack([np.ones_like(eps), eps]).T
    coef, *_ = np.linalg.lstsq(design, ratios, rcond=None)
    return float(coef[0])
