"""Counterexample densities against cap-based uniformity testing, their exact
cap/arc probabilities, and constructive generation of sequences uniformly
distributed for them.

Two families are provided.  The planar density 1 + sin(2*q*theta)/2 has zero
net mass on every arc of length 2*pi*j/(2*q), j = 1, ..., 2q - 1, so its
sequences fool all arcs of those lengths: the target 2*pi*p/q and the other
multiples of 2*pi/(2*q) (for q = 3, arc fractions 1/6 and 1/3 alike).  The
zonal density 1 + c*P_k(axis . v) has zero net mass on every cap whose
height annihilates the cap-transform eigenvalue, so its sequences fool all
caps of that one height.  Sequences are produced by inverse-CDF transport of
a deterministic low-discrepancy driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cap_transform import funk_hecke_lambda, weight_mass
from .orthopoly import MAX_DEGREE, legendre_eval
from .sphere import (
    _SWEEP_BLOCK,
    Cap,
    GOLDEN_RATIO_CONJUGATE,
    TWO_PI,
    PointSet,
    Provenance,
    _map_blocks,
    cap_measure,
    radical_inverse,
    unit_vector,
)

DRIVER_KINDS = ("van_der_corput_base2", "halton_2_3", "kronecker_golden")

# Inverse-CDF transport: bisection halvings, then Newton steps.
_BISECT_STEPS = 52
_NEWTON_STEPS = 3


@dataclass(frozen=True)
class Driver:
    """Deterministic low-discrepancy source in [0,1)^m, m in {1, 2}."""

    kind: str
    offset: int = 0

    def __post_init__(self):
        if self.kind not in DRIVER_KINDS:
            raise ValueError(f"unknown driver {self.kind!r}; expected one of {DRIVER_KINDS}")
        if self.offset < 0:
            raise ValueError("driver offset must be nonnegative")
        self._check_count(1)

    def _check_count(self, N):
        # Indices offset .. offset + N - 1 are int64 driver inputs.
        if N < 1:
            raise ValueError("need N >= 1 driver values")
        last = self.offset + N - 1
        if last > np.iinfo(np.int64).max:
            raise ValueError(f"driver indices up to {last} pass the int64 maximum 2^63 - 1")

    @property
    def ndim(self) -> int:
        return 2 if self.kind == "halton_2_3" else 1

    def values(self, N: int) -> np.ndarray:
        """First N outputs: shape (N,) for 1-D kinds, (N, 2) for halton_2_3."""
        self._check_count(N)
        # From int64 zero: arange(offset, offset + N) turns float64 when the
        # stop reaches 2^63.
        idx = np.arange(N, dtype=np.int64)
        idx += self.offset
        if self.kind == "van_der_corput_base2":
            return radical_inverse(2, idx)
        if self.kind == "halton_2_3":
            return np.column_stack([radical_inverse(2, idx), radical_inverse(3, idx)])
        frac = idx * GOLDEN_RATIO_CONJUGATE
        return frac - np.floor(frac)


@dataclass(frozen=True)
class PlanarRationalDensity:
    """Circle density 1 + sin(2*q*theta)/2 targeting arcs of length 2*pi*p/q.

    sin(2*q*theta) has period 2*pi/(2*q), so the density has zero net mass,
    and fools arcs, of every length 2*pi*j/(2*q), j = 1, ..., 2q - 1, of
    which 2*pi*p/q (j = 2p) is one.
    """

    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError("p and q must be positive integers")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"p={self.p} and q={self.q} must be coprime")
        if 2 * self.p >= self.q:
            raise ValueError(f"arc fraction p/q must be below 1/2, got {self.p}/{self.q}")

    @property
    def arc_fraction(self) -> float:
        return self.p / self.q

    def density(self, theta):
        """Radon-Nikodym density relative to normalized arc length."""
        return 1.0 + 0.5 * np.sin(2.0 * self.q * np.asarray(theta, dtype=float))

    def cdf(self, theta):
        """Probability of [0, theta); the closed-form antiderivative."""
        th = np.asarray(theta, dtype=float)
        return th / TWO_PI + (1.0 - np.cos(2.0 * self.q * th)) / (8.0 * np.pi * self.q)


@dataclass(frozen=True)
class ZonalDensity:
    """Sphere density 1 + c * P_k(axis . v) with odd degree k and 0 < c < 1."""

    dim: int
    degree: int
    coefficient: float
    axis: np.ndarray

    def __post_init__(self):
        if self.dim < 3:
            raise ValueError(f"zonal densities need dim >= 3, got {self.dim}")
        if not 1 <= self.degree <= MAX_DEGREE or self.degree % 2 == 0:
            raise ValueError(f"degree must be odd and in [1, {MAX_DEGREE}], got {self.degree}")
        if not 0.0 < self.coefficient < 1.0:
            raise ValueError(f"coefficient must lie in (0, 1), got {self.coefficient}")
        axis = unit_vector(self.axis)
        if axis.size != self.dim:
            raise ValueError("axis dimension does not match dim")
        object.__setattr__(self, "axis", axis)

    def density_at_t(self, t):
        """Density as a function of t = axis . v."""
        return 1.0 + self.coefficient * legendre_eval(self.dim, self.degree, t)

    def density(self, v):
        dot = float(np.clip(np.dot(unit_vector(v), self.axis), -1.0, 1.0))
        return float(self.density_at_t(dot))


def planar_arc_probability(d: PlanarRationalDensity, theta0: float, length: float) -> float:
    """Probability of the half-open arc [theta0, theta0 + length).

    Closed form from the antiderivative of the density; for
    length = 2*pi*j/(2*q), j = 1, ..., 2q - 1, the oscillatory term cancels
    and the result is j/(2*q) for every starting angle.  The target length
    2*pi*p/q is the case j = 2p.
    """
    if not 0.0 < length <= TWO_PI:
        raise ValueError(f"arc length must lie in (0, 2*pi], got {length}")
    q = d.q
    osc = (np.cos(2.0 * q * theta0) - np.cos(2.0 * q * (theta0 + length))) / (8.0 * np.pi * q)
    return float(length / TWO_PI + osc)


def zonal_cap_probability(d: ZonalDensity, caps, s: float | None = None):
    """Probability of caps under the zonal density.

    Splits into the uniform cap measure plus the cap-transform eigenvalue
    term c * lambda_k(s) * P_k(axis . center); when s annihilates the
    eigenvalue the cap probability coincides with the uniform one for
    every cap center.

    `caps` is either one Cap, giving a float, or an (M, n) array of cap
    centers that share the height `s`, giving an (M,) array.  Center rows
    must be nonzero and finite and are normalized to unit length.  A Cap
    is the M = 1 case of the same array expression.
    """
    if isinstance(caps, Cap):
        if s is not None:
            raise ValueError("a Cap carries its own height; do not pass s")
        centers, s = caps.center[None, :], caps.height
    else:
        if s is None:
            raise ValueError("an array of cap centers needs the height s")
        centers = PointSet(caps, Provenance("cap centers")).coords
    if centers.shape[1] != d.dim:
        raise ValueError("dimension mismatch between density and cap")
    lam = funk_hecke_lambda(d.dim, d.degree, s)
    # vecdot runs np.dot's kernel on each row; a matrix product rounds differently.
    dots = np.clip(np.vecdot(centers, d.axis), -1.0, 1.0)
    prob = cap_measure(d.dim, s) + d.coefficient * lam * legendre_eval(d.dim, d.degree, dots)
    return float(prob[0]) if isinstance(caps, Cap) else prob


def positivity_margin(d) -> float:
    """Minimum of the density, in closed form.

    A zonal density 1 + c * P_k(t) has its minimum 1 - c at t = -1: |P_k|
    <= 1 on [-1, 1] and P_k(-1) = -1 for odd k.  The planar density
    1 + sin(2*q*theta)/2 has its minimum 1/2 where the sine is -1.
    """
    if isinstance(d, ZonalDensity):
        return 1.0 - d.coefficient
    if isinstance(d, PlanarRationalDensity):
        return 0.5
    raise TypeError(f"unsupported density type {type(d).__name__}")


def _zonal_cdf_dim3(d: ZonalDensity, t):
    # For S^2 the weight is constant, so the antiderivative is polynomial:
    # int_{-1}^t P_k = (P_{k+1} - P_{k-1}) / (2k+1), vanishing at t = -1.
    t = np.asarray(t, dtype=float)
    k, c = d.degree, d.coefficient
    poly = (legendre_eval(3, k + 1, t) - legendre_eval(3, k - 1, t)) / (2 * k + 1)
    return 0.5 * (t + 1.0) + 0.5 * c * poly


def marginal_cdf(d: ZonalDensity, t: float) -> float:
    """CDF of the coordinate t = axis . v under the zonal density.

    G(t) is the weighted density integral over [-1, t] normalized by the
    full weight mass; strictly increasing with G(-1) = 0 and G(1) = 1.
    """
    if not -1.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [-1, 1], got {t}")
    if t == -1.0:
        return 0.0
    if t == 1.0:
        return 1.0
    if d.dim == 3:
        return float(_zonal_cdf_dim3(d, t))
    # The complement of G is the cap probability of the cap at height t
    # centered on the axis.
    lam = funk_hecke_lambda(d.dim, d.degree, t)
    return 1.0 - cap_measure(d.dim, t) - d.coefficient * lam


def _invert_monotone_vec(fvec, dvec, y, lo, hi):
    """Vectorized bisection plus Newton polish for increasing CDFs."""
    y = np.asarray(y, dtype=float)
    a = np.full(y.shape, lo)
    b = np.full(y.shape, hi)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (a + b)
        less = fvec(mid) < y
        a = np.where(less, mid, a)
        b = np.where(less, b, mid)
    x = 0.5 * (a + b)
    for _ in range(_NEWTON_STEPS):
        slope = np.maximum(dvec(x), 1e-300)
        x = np.clip(x - (fvec(x) - y) / slope, lo, hi)
    return x


def _orthonormal_frame(axis):
    e = unit_vector(axis)
    pivot = int(np.argmin(np.abs(e)))
    b1 = -e[pivot] * e
    b1[pivot] += 1.0
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(e, b1)
    return e, b1, b2


def generate_qud(d, N: int, driver: Driver, threads: int = 1) -> PointSet:
    """Sequence uniformly distributed for the density, by inverse-CDF transport.

    Planar densities transport a 1-D driver through the circle CDF.  Zonal
    densities (dim 3 only) transport the first Halton coordinate through the
    marginal CDF of t = axis . v and use the second as the azimuth around
    the axis.  Bitwise deterministic for fixed (density, N, driver).

    Points are made in fixed blocks of 2^16: each block draws its own
    driver values and transports them, so temporaries are O(block) beside
    the (N, n) result.  `threads` (>= 1) transport blocks in parallel; the
    block edges, and so every output bit, do not depend on it.
    """
    if N < 1:
        raise ValueError(f"need N >= 1 points, got {N}")
    driver._check_count(N)

    if isinstance(d, PlanarRationalDensity):
        if driver.ndim != 1:
            raise ValueError("planar generation needs a 1-D driver")

        def transport(x):
            theta = _invert_monotone_vec(
                d.cdf, lambda th: d.density(th) / TWO_PI, x, 0.0, TWO_PI
            )
            return np.column_stack([np.cos(theta), np.sin(theta)])

        dim = 2
        desc = f"planar(p={d.p},q={d.q},driver={driver.kind},N={N})"
    elif isinstance(d, ZonalDensity):
        if d.dim != 3:
            raise ValueError("zonal generation is restricted to dim 3")
        if driver.ndim != 2:
            raise ValueError("zonal generation needs a 2-D driver")
        e, b1, b2 = _orthonormal_frame(d.axis)
        # Once, on the calling thread: its first call imports scipy.
        mass = weight_mass(3)

        def transport(xy):
            t = _invert_monotone_vec(
                lambda tt: _zonal_cdf_dim3(d, tt),
                lambda tt: d.density_at_t(tt) / mass,
                xy[:, 0],
                -1.0,
                1.0,
            )
            phi = TWO_PI * xy[:, 1]
            r = np.sqrt(np.maximum(0.0, 1.0 - t * t))
            return (
                t[:, None] * e[None, :]
                + (r * np.cos(phi))[:, None] * b1[None, :]
                + (r * np.sin(phi))[:, None] * b2[None, :]
            )

        dim = 3
        desc = (
            f"zonal(n={d.dim},k={d.degree},c={d.coefficient!r},"
            f"axis={','.join(format(a, '.17g') for a in d.axis)},driver={driver.kind},N={N})"
        )
    else:
        raise TypeError(f"unsupported density type {type(d).__name__}")

    coords = np.empty((N, dim))

    def block(lo):
        x = Driver(driver.kind, driver.offset + lo).values(min(_SWEEP_BLOCK, N - lo))
        coords[lo : lo + len(x)] = transport(x)

    _map_blocks(block, range(0, N, _SWEEP_BLOCK), threads)
    return PointSet._adopt(coords, Provenance(generator=desc, seed=driver.offset))
