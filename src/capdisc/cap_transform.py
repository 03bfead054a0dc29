"""Cap integral transform and its spectral action on zonal functions.

Averaging a function over the height-s cap around each point defines an
integral transform; on a degree-k zonal function P_k(e . v) it acts as
multiplication by a scalar lambda_k(s).  That eigenvalue is the weighted
integral of P_k over [s, 1], normalized by the full-sphere weight mass,
and it vanishes exactly at the freak heights for degree k-1.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .orthopoly import MAX_DEGREE, legendre_eval

__all__ = [
    "funk_hecke_lambda",
    "odd_mean_zero_check",
    "weight_mass",
]


@lru_cache(maxsize=None)
def _gauss_rule(order):
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def weight_mass(n: int) -> float:
    """Full integral of (1-t^2)^((n-3)/2) over [-1, 1]."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    from scipy.special import beta

    return float(beta(0.5, (n - 1) / 2))


def _zonal_integral(n, k, theta_lo, theta_hi, order):
    # After t = cos(theta) the weighted integrand becomes the trigonometric
    # polynomial P_k(cos theta) sin(theta)^(n-2), so Gauss-Legendre in theta
    # converges super-geometrically regardless of the parity of n.
    x, w = _gauss_rule(order)
    half = 0.5 * (theta_hi - theta_lo)
    theta = theta_lo + half * (x + 1.0)
    f = legendre_eval(n, k, np.cos(theta)) * np.sin(theta) ** (n - 2)
    return half * float(np.dot(w, f))


def _default_order(k):
    return max(40, 4 * k)


@lru_cache(maxsize=4096)
def funk_hecke_lambda(n: int, k: int, s: float, order: int | None = None) -> float:
    """Eigenvalue lambda_k(s) of the height-s cap transform in dimension n.

    Defined by the normalized weighted integral of the dimension-n Legendre
    polynomial of degree k over [s, 1]:

        lambda_k(s) = int_s^1 P_k(t) (1-t^2)^((n-3)/2) dt / weight_mass(n)

    so that averaging v -> P_k(e . v) over the cap C_s(u) gives
    lambda_k(s) * P_k(e . u); for k=0 this is the uniform cap measure.
    Computed by Gauss-Legendre quadrature of order max(40, 4k) after the
    substitution t = cos(theta).  k is capped at MAX_DEGREE: the recurrence
    is unvalidated past it, and the rule's eigen-solve cost grows as order^3.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if not 0 <= k <= MAX_DEGREE:
        raise ValueError(f"degree must lie in [0, {MAX_DEGREE}], got {k}")
    if not -1.0 < s < 1.0:
        raise ValueError(f"cap height must lie in (-1, 1), got {s}")
    if order is None:
        order = _default_order(k)
    num = _zonal_integral(n, k, 0.0, float(np.arccos(s)), order)
    return num / weight_mass(n)


def odd_mean_zero_check(n: int, k: int, order: int | None = None) -> float:
    """Full-sphere mean of the degree-k zonal function for odd k.

    Returns the normalized integral of P_k(e . v) over the whole sphere,
    computed by quadrature; for odd degrees the symmetry of the weight
    forces it below 1e-12 in magnitude.
    """
    if k % 2 == 0:
        raise ValueError("mean-zero identity is claimed only for odd degrees")
    if order is None:
        order = _default_order(k)
    num = _zonal_integral(n, k, 0.0, np.pi, order)
    return num / weight_mass(n)
