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

# Dot products of rotated unit vectors can overshoot [-1, 1] by a few ulp.
_DOMAIN_SLACK = 1e-12

# Newton steps applied to each root from the singular values.
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
    is numerically stable on [-1, 1].  Accepts a scalar, for which it
    returns a float, or an ndarray.
    """
    _check_dim_degree(d, k)
    scalar = np.ndim(t) == 0
    x = float(t) if scalar else np.asarray(t, dtype=float)
    if np.any(np.abs(x) > 1.0 + _DOMAIN_SLACK):
        raise ValueError("argument outside [-1, 1]")
    # Points within _DOMAIN_SLACK of [-1, 1] are clipped into it.  A scalar
    # runs the recurrence on Python floats, which round each operation as
    # the array path does, so both give the same bits.
    x = min(max(x, -1.0), 1.0) if scalar else np.clip(x, -1.0, 1.0)
    p_prev = 1.0 if scalar else np.ones_like(x)
    p = x if k else p_prev
    for j in range(1, k):
        # ((2j + d - 2) t P_j - j P_{j-1}) / (j + d - 2), arrays in place on the new one.
        q = (2 * j + d - 2) * x
        q *= p
        q -= j * p_prev
        q /= j + d - 2
        p, p_prev = q, p
    return p


def _eval_with_derivative(d, k, t):
    """P_k and P_k' at each entry of the array t, by differentiating the recurrence.

    k is one degree, or one degree per entry of t sorted highest first; step
    j of the recurrence then runs on the leading entries of degree > j.
    """
    k = np.broadcast_to(k, t.shape)
    p_prev, dp_prev = np.ones_like(t), np.zeros_like(t)
    p, dp = t.copy(), np.ones_like(t)
    steps = range(1, int(k[0]))
    for j, m in zip(steps, np.searchsorted(-k, -np.array(steps), side="left")):
        # As legendre_eval's step, on the m entries of degree > j, and its
        # derivative ((2j + d - 2)(P_j + t P_j') - j P_{j-1}') / (j + d - 2).
        tm, pm, dpm = t[:m], p[:m], dp[:m]
        q = (2 * j + d - 2) * tm
        q *= pm
        q -= j * p_prev[:m]
        q /= j + d - 2
        dq = tm * dpm
        dq += pm
        dq *= 2 * j + d - 2
        dq -= j * dp_prev[:m]
        dq /= j + d - 2
        p_prev[:m], dp_prev[:m] = pm, dpm
        p[:m], dp[:m] = q, dq
    return p, dp


def _newton_polish(d, k, roots):
    # k as in _eval_with_derivative.  A root whose derivative vanishes
    # keeps its value from then on.
    x = np.array(roots, dtype=float)
    moving = np.ones(x.shape, dtype=bool)
    for _ in range(_POLISH_STEPS):
        p, dp = _eval_with_derivative(d, k, x)
        moving &= dp != 0.0
        step = x - p / np.where(moving, dp, 1.0)
        x = np.where(moving, np.clip(step, -1.0, 1.0), x)
    return x


def _positive_roots(d, k):
    # The k//2 positive roots, ascending, unpolished.  The Jacobi matrix of
    # the recurrence t P_j = [(j+d-2) P_{j+1} + j P_{j-1}] / (2j+d-2) has a
    # zero diagonal (the weight is even), so after ordering its rows and
    # columns even indices first it is [[0, B], [B^T, 0]] with B the
    # ceil(k/2) x floor(k/2) lower bidiagonal of its even rows and odd
    # columns, and its eigenvalues (Golub-Welsch) are +-sigma, the singular
    # values of B (Golub-Kahan), with one more 0 for odd k.  The squared
    # j = 0 entry (d-2)/((d-2) d) is 0/0 at d = 2; its limit 1/d is the
    # same double for every d >= 3.
    j = np.arange(1, k - 1, dtype=float)
    sq = (j + d - 2) * (j + 1) / ((2 * j + d - 2) * (2 * j + d))
    off = np.sqrt(np.concatenate(([1.0 / d], sq)))
    b = np.zeros((k - k // 2, k // 2))
    np.fill_diagonal(b, off[0::2])
    np.fill_diagonal(b[1:], off[1::2])
    return np.linalg.svd(b, compute_uv=False)[::-1]


def legendre_roots(d: int, k: int) -> np.ndarray:
    """All k roots of the dimension-d Legendre polynomial, sorted ascending.

    Takes the positive roots from the singular values of half the Jacobi
    matrix of the recurrence, mirrors them (with an exact 0 for odd k),
    then polishes every root with Newton steps so residuals stay below
    1e-12.  The recurrence rounds -t as it rounds t, so the roots come out
    exactly antisymmetric.  Valid for every d >= 2.
    """
    _check_dim_degree(d, k)
    if k < 1:
        raise ValueError("root extraction needs degree >= 1")
    sigma = _positive_roots(d, k)
    roots = np.concatenate((-sigma[::-1], np.zeros(k % 2), sigma))
    return np.sort(_newton_polish(d, k, roots))


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
    of degrees 2, 4, ..., max_degree and sorts them: one entry per
    (height, degree) pair.
    """
    if n < 3:
        raise ValueError(f"sphere dimension n must be >= 3, got {n}")
    if max_degree < 2 or max_degree % 2 != 0:
        raise ValueError(f"max_degree must be a positive even integer, got {max_degree}")
    if max_degree > MAX_DEGREE:
        raise ValueError(f"max_degree capped at {MAX_DEGREE}")

    # Every even degree's positive roots, highest degree first, share one
    # Newton polish.
    degrees = np.arange(max_degree, 1, -2)
    root_degree = np.repeat(degrees, degrees // 2)
    heights = _newton_polish(
        n + 2, root_degree, np.concatenate([_positive_roots(n + 2, int(k)) for k in degrees])
    )
    order = np.argsort(heights)
    entries = tuple(map(FreakHeight, heights[order].tolist(), root_degree[order].tolist()))
    return FreakHeights(dim=n, max_degree=max_degree, entries=entries)
