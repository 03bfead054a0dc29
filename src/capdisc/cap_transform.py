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
from .sphere import _weight_tail, cap_measure

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
    """Full integral of (1-t^2)^((n-3)/2) over [-1, 1], for an integer n in
    [2, 10^5]: W(2) = pi, W(3) = 2 and W(n) = W(n-2) (n-3)/(n-2)."""
    return _weight_tail(n, -1.0)


# Twice the largest default order: the rule is an order x order eigen-solve,
# so its cost grows as order^3.
_MAX_ORDER = 8 * MAX_DEGREE


def _normalized_integral(n, k, theta_hi, order):
    """int_{cos(theta_hi)}^1 P_k(t) (1-t^2)^((n-3)/2) dt / weight_mass(n)."""
    mass = weight_mass(n)
    if order is None:
        order = max(40, 4 * k)
    if not 1 <= order <= _MAX_ORDER:
        raise ValueError(f"quadrature order must lie in [1, {_MAX_ORDER}], got {order}")
    # After t = cos(theta) the weighted integrand becomes the trigonometric
    # polynomial P_k(cos theta) sin(theta)^(n-2), so Gauss-Legendre in theta
    # converges super-geometrically regardless of the parity of n.
    x, w = _gauss_rule(order)
    half = 0.5 * theta_hi
    theta = half * (x + 1.0)
    f = legendre_eval(n, k, np.cos(theta)) * np.sin(theta) ** (n - 2)
    return half * float(np.dot(w, f)) / mass


@lru_cache(maxsize=4096)
def funk_hecke_lambda(n: int, k: int, s: float, order: int | None = None) -> float:
    """Eigenvalue lambda_k(s) of the height-s cap transform in dimension n.

    Defined by the normalized weighted integral of the dimension-n Legendre
    polynomial of degree k over [s, 1]:

        lambda_k(s) = int_s^1 P_k(t) (1-t^2)^((n-3)/2) dt / weight_mass(n)

    so that averaging v -> P_k(e . v) over the cap C_s(u) gives
    lambda_k(s) * P_k(e . u); for k=0 this is the uniform cap measure.
    Without `order` it is evaluated in closed form: lambda_0 = cap_measure
    and, for k >= 1,

        lambda_k(s) = (1-s^2)^((n-1)/2) P^(n+2)_{k-1}(s) / ((n-1) weight_mass(n)),

    from the Sturm-Liouville form ((1-t^2)^((n-1)/2) P_k')' =
    -k(k+n-2) (1-t^2)^((n-3)/2) P_k and P_k' = k(k+n-2)/(n-1) P^(n+2)_{k-1}.
    An explicit `order` in [1, 8 * MAX_DEGREE] evaluates the integral by
    Gauss-Legendre quadrature of that order after t = cos(theta), the
    reference the closed form is checked against.  k is capped at
    MAX_DEGREE, where the recurrence is validated, and n must be an integer
    in [2, 10^5] (see weight_mass).
    """
    if not 0 <= k <= MAX_DEGREE:
        raise ValueError(f"degree must lie in [0, {MAX_DEGREE}], got {k}")
    if not -1.0 < s < 1.0:
        raise ValueError(f"cap height must lie in (-1, 1), got {s}")
    if order is not None:
        return _normalized_integral(n, k, float(np.arccos(s)), order)
    if k == 0:
        return cap_measure(n, s)
    weight = ((1.0 - s) * (1.0 + s)) ** (0.5 * (n - 1))
    return weight * legendre_eval(n + 2, k - 1, s) / ((n - 1) * weight_mass(n))


def odd_mean_zero_check(n: int, k: int, order: int | None = None) -> float:
    """Full-sphere mean of the degree-k zonal function for odd k.

    Returns the normalized integral of P_k(e . v) over the whole sphere,
    computed by quadrature; for odd degrees the symmetry of the weight
    forces it below 1e-12 in magnitude.  Needs an integer n in [2, 10^5],
    odd k in [1, MAX_DEGREE] and an `order` in [1, 8 * MAX_DEGREE].
    """
    if not 1 <= k <= MAX_DEGREE:
        raise ValueError(f"degree must lie in [1, {MAX_DEGREE}], got {k}")
    if k % 2 == 0:
        raise ValueError("mean-zero identity is claimed only for odd degrees")
    return _normalized_integral(n, k, np.pi, order)
