"""Dimension-d Legendre polynomials, their roots, and the freak-height set.

The dimension-d Legendre polynomial of degree k is the Gegenbauer
(ultraspherical) polynomial with parameter (d-2)/2, rescaled so that its
value at t=1 is exactly 1.  For d=3 these are the classical Legendre
polynomials; for d=2 the Chebyshev polynomials of the first kind.  They
are orthogonal on [-1, 1] for the weight (1-t^2)^((d-3)/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Forward recurrence accuracy is unvalidated past this degree.
MAX_DEGREE = 200

# Roots of distinct moderate degrees are separated far beyond this.
DEDUP_TOL = 1e-10

# Dot products of rotated unit vectors can overshoot [-1, 1] by a few ulp.
_DOMAIN_SLACK = 1e-12

# Newton steps applied to each Golub-Welsch root.
_POLISH_STEPS = 2


def _check_dim_degree(d, k):
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")


def legendre_eval(d: int, k: int, t):
    """Evaluate the dimension-d Legendre polynomial of degree k at t.

    Uses the forward three-term recurrence

        (j + d - 2) P_{j+1}(t) = (2j + d - 2) t P_j(t) - j P_{j-1}(t)

    seeded with P_0 = 1 and P_1(t) = t, which keeps P_k(1) = 1 exact and
    is numerically stable on [-1, 1].  Accepts a scalar or an ndarray.
    """
    _check_dim_degree(d, k)
    arr = np.asarray(t, dtype=float)
    if np.any(np.abs(arr) > 1.0 + _DOMAIN_SLACK):
        raise ValueError("argument outside [-1, 1]")
    arr = np.clip(arr, -1.0, 1.0)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)

    if k == 0:
        out = np.ones_like(arr)
    elif k == 1:
        out = arr.copy()
    else:
        p_prev = np.ones_like(arr)
        p = arr.copy()
        for j in range(1, k):
            p, p_prev = ((2 * j + d - 2) * arr * p - j * p_prev) / (j + d - 2), p
        out = p
    return float(out[0]) if scalar else out


def _eval_with_derivative(d, k, t):
    """P_k and P_k' at each entry of the array t, by differentiating the recurrence."""
    p_prev, dp_prev = np.ones_like(t), np.zeros_like(t)
    p, dp = t, np.ones_like(t)
    for j in range(1, k):
        denom = j + d - 2
        p_next = ((2 * j + d - 2) * t * p - j * p_prev) / denom
        dp_next = ((2 * j + d - 2) * (p + t * dp) - j * dp_prev) / denom
        p_prev, dp_prev, p, dp = p, dp, p_next, dp_next
    return p, dp


def _newton_polish(d, k, roots):
    # A root whose derivative vanishes keeps its value from then on.
    x = np.array(roots, dtype=float)
    moving = np.ones(x.shape, dtype=bool)
    for _ in range(_POLISH_STEPS):
        p, dp = _eval_with_derivative(d, k, x)
        moving &= dp != 0.0
        step = x - p / np.where(moving, dp, 1.0)
        x = np.where(moving, np.clip(step, -1.0, 1.0), x)
    return x


def _roots_eigen(d, k):
    # Golub-Welsch: eigenvalues of the symmetrized Jacobi matrix of the
    # recurrence t P_j = [(j+d-2) P_{j+1} + j P_{j-1}] / (2j+d-2).  The
    # squared j = 0 entry (d-2)/((d-2) d) is 0/0 at d = 2; its limit 1/d
    # is the same double for every d >= 3.
    if k == 1:
        return np.zeros(1)
    j = np.arange(1, k - 1, dtype=float)
    sq = (j + d - 2) * (j + 1) / ((2 * j + d - 2) * (2 * j + d))
    off = np.sqrt(np.concatenate(([1.0 / d], sq)))
    return np.sort(np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1)))


def legendre_roots(d: int, k: int) -> np.ndarray:
    """All k roots of the dimension-d Legendre polynomial, sorted ascending.

    Diagonalizes the symmetric Jacobi matrix of the recurrence
    (Golub-Welsch), then polishes every root with Newton steps so
    residuals stay below 1e-12.  Valid for every d >= 2.
    """
    _check_dim_degree(d, k)
    if k < 1:
        raise ValueError("root extraction needs degree >= 1")
    return np.sort(_newton_polish(d, k, _roots_eigen(d, k)))


@dataclass(frozen=True)
class FreakHeight:
    """One height together with the even degree whose polynomial it annihilates."""

    height: float
    degree: int


@dataclass(frozen=True)
class FreakHeights:
    """Sorted positive roots in (0,1) of dimension-(n+2) Legendre polynomials
    of even degree up to max_degree.  Caps of these heights admit non-uniform
    sequences whose empirical measure is still exact on every such cap."""

    dim: int
    max_degree: int
    entries: tuple[FreakHeight, ...]

    @property
    def heights(self) -> np.ndarray:
        return np.array([e.height for e in self.entries])

    def to_json_obj(self):
        return [{"height": e.height, "degree": e.degree} for e in self.entries]


def freak_heights(n: int, max_degree: int) -> FreakHeights:
    """Freak-height set for the (n-1)-sphere up to a given even degree.

    Collects the positive roots of the dimension-(n+2) Legendre polynomials
    of degrees 2, 4, ..., max_degree, sorts them, and merges duplicates
    closer than DEDUP_TOL (keeping the lowest contributing degree).
    """
    if n < 3:
        raise ValueError(f"sphere dimension n must be >= 3, got {n}")
    if max_degree < 2 or max_degree % 2 != 0:
        raise ValueError(f"max_degree must be a positive even integer, got {max_degree}")
    if max_degree > MAX_DEGREE:
        raise ValueError(f"max_degree capped at {MAX_DEGREE}")

    found: list[FreakHeight] = []
    for deg in range(2, max_degree + 1, 2):
        for r in legendre_roots(n + 2, deg):
            if r > 0.0:
                found.append(FreakHeight(float(r), deg))
    found.sort(key=lambda e: e.height)

    merged: list[FreakHeight] = []
    for e in found:
        if merged and abs(e.height - merged[-1].height) < DEDUP_TOL:
            if e.degree < merged[-1].degree:
                merged[-1] = e
            continue
        merged.append(e)
    return FreakHeights(dim=n, max_degree=max_degree, entries=tuple(merged))
