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

from .cap_transform import funk_hecke_lambda
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

# Inverse-CDF transport: safeguarded Newton steps from the root of a table
# of the CDF at _LOCATE_KNOTS knots.  The step cap is a backstop: on 10^6
# random driver values no point of the test densities took more than 9
# steps.  Points go in slices of _NEWTON_SLICE: each step is a few numpy
# calls that hold the GIL, so longer slices let two threads transport in
# parallel, and with 2,048 the per-step overhead made planar generation as
# slow as the bisection it replaced.  The zonal CDF, density and placement
# work in place, which holds a zonal block's traced peak at 1.73 MiB with
# 16,384-point slices.
_LOCATE_KNOTS = 4097
_NEWTON_STEPS = 32
_NEWTON_SLICE = 16384


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

    def density(self, theta):
        """Radon-Nikodym density relative to normalized arc length."""
        return 1.0 + 0.5 * np.sin(2.0 * self.q * np.asarray(theta, dtype=float))

    def cdf(self, theta):
        """Probability of [0, theta); the closed-form antiderivative."""
        th = np.asarray(theta, dtype=float)
        # th / TWO_PI + osc, added in place: two temporaries at a time.
        osc = (1.0 - np.cos(2.0 * self.q * th)) / (8.0 * np.pi * self.q)
        osc += th / TWO_PI
        return osc

    # generate_qud transports a 1-D driver to the angle theta, with slope
    # density / _mass; the density's minimum is 1/2, where the sine is -1.
    _bracket, _mass, _minimum, _point_dim = (0.0, TWO_PI), TWO_PI, 0.5, 2

    def _check_generation(self, driver):
        if driver.ndim != 1:
            raise ValueError("planar generation needs a 1-D driver")

    def _place(self, theta, x, out):
        out[:, 0], out[:, 1] = np.cos(theta), np.sin(theta)

    def _describe(self, driver, N):
        return f"planar(p={self.p},q={self.q},driver={driver.kind},N={N})"


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

    def density(self, t):
        """Density as a function of t = axis . v."""
        # 1 + c * P_k(t), in place where t is an array.
        out = legendre_eval(self.dim, self.degree, t)
        out *= self.coefficient
        out += 1.0
        return out

    def cdf(self, t):
        """CDF of t = axis . v on S^2 (dim 3), elementwise over t in [-1, 1]."""
        if self.dim != 3:
            raise ValueError("the array CDF is for dim 3; use marginal_cdf")
        # G(t) = 1 - mu(t) - c lambda_k(t) at n = 3 (see funk_hecke_lambda),
        # factored as (1 + t)/2 [1 - c (1 - t) P^(5)_{k-1}(t) / 2]: (1 + t)/2
        # is exact near t = -1, and the bracket is accurate relative to its
        # value there, the density 1 - c.  In place where t is an array; the
        # result is a new array, as scaling the bracket's array by (1 + t)/2
        # (the same bits) left about 0.4 MiB more of gen's threads' heaps resident.
        t = np.asarray(t, dtype=float)
        bracket = legendre_eval(5, self.degree - 1, t)
        bracket *= 1.0 - t
        bracket *= -0.5 * self.coefficient
        bracket += 1.0
        out = t + 1.0
        out *= 0.5
        out *= bracket
        return out

    # generate_qud transports the first coordinate of a 2-D driver to t; the
    # second is the azimuth around the axis.  The slope is density / _mass,
    # _mass = weight_mass(3) = 2.
    _bracket, _mass, _point_dim = (-1.0, 1.0), 2.0, 3

    @property
    def _minimum(self):
        # |P_k| <= 1 on [-1, 1] and P_k(-1) = -1 for odd k.
        return 1.0 - self.coefficient

    def _check_generation(self, driver):
        if self.dim != 3:
            raise ValueError("zonal generation is restricted to dim 3")
        if driver.ndim != 2:
            raise ValueError("zonal generation needs a 2-D driver")

    def _place(self, t, xy, out):
        e, b1, b2 = _orthonormal_frame(self.axis)
        phi = TWO_PI * xy[:, 1]
        r = np.sqrt(np.maximum(0.0, 1.0 - t * t))
        r_sin = np.sin(phi)
        r_sin *= r
        r_cos = np.cos(phi, out=phi)
        r_cos *= r
        # t e + r cos(phi) b1 + r sin(phi) b2, summed in that order, one
        # column at a time: no (N, 3) temporaries.
        for j, col in enumerate(out.T):
            np.multiply(t, e[j], out=col)
            col += np.multiply(r_cos, b1[j], out=r)
            col += np.multiply(r_sin, b2[j], out=r)

    def _describe(self, driver, N):
        axis = ",".join(format(a, ".17g") for a in self.axis)
        return (f"zonal(n={self.dim},k={self.degree},c={self.coefficient!r},"
                f"axis={axis},driver={driver.kind},N={N})")


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


def zonal_cap_probability(d: ZonalDensity, cap: Cap) -> float:
    """Probability of a cap under the zonal density.

    Splits into the uniform cap measure plus the cap-transform eigenvalue
    term c * lambda_k(s) * P_k(axis . center); when s annihilates the
    eigenvalue the cap probability coincides with the uniform one for
    every cap center.
    """
    if cap.center.size != d.dim:
        raise ValueError("dimension mismatch between density and cap")
    lam = funk_hecke_lambda(d.dim, d.degree, cap.height)
    p_k = legendre_eval(d.dim, d.degree, float(cap.center @ d.axis))
    return float(cap_measure(d.dim, cap.height) + d.coefficient * lam * p_k)


def positivity_margin(d) -> float:
    """Minimum of the density, in closed form: 1/2 planar, 1 - c zonal."""
    if not isinstance(d, (PlanarRationalDensity, ZonalDensity)):
        raise TypeError(f"unsupported density type {type(d).__name__}")
    return d._minimum


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
        return float(d.cdf(t))
    # The complement of G is the cap probability of the cap at height t
    # centered on the axis.
    lam = funk_hecke_lambda(d.dim, d.degree, t)
    return 1.0 - cap_measure(d.dim, t) - d.coefficient * lam


def _invert_monotone_vec(fvec, dvec, y, lo, hi):
    """Root in [lo, hi] of fvec(x) = y for an increasing CDF, y in [0, 1].

    Safeguarded Newton: each point starts from the root of a table of fvec
    interpolated at y and keeps a bracket [a, b] that the sign of
    fvec(x) - y narrows.  A Newton step that would leave the bracket becomes
    the bisection step 0.5 * (a + b).  A point stops when its step lands on
    a bracket end, which its current iterate has just become (a step that
    leaves its bits unchanged) or an earlier iterate (a 2-cycle), when its
    bracket is no wider than the rounding of the domain's largest point, or
    after _NEWTON_STEPS steps.  Each point's steps read only its own y, so
    no bit depends on how y is split.  dvec must be positive.
    """
    y = np.asarray(y, dtype=float)
    knots = np.linspace(lo, hi, _LOCATE_KNOTS)
    inverse = np.interp(np.linspace(0.0, 1.0, _LOCATE_KNOTS), fvec(knots), knots)
    # A bracket this narrow holds the root to the rounding of the domain's
    # largest point.
    tol = 2.0**-53 * max(abs(lo), abs(hi))
    x = np.empty_like(y)
    for start in range(0, y.size, _NEWTON_SLICE):
        ys, xs = y[start : start + _NEWTON_SLICE], x[start : start + _NEWTON_SLICE]
        pos = ys * (_LOCATE_KNOTS - 1)
        cell = np.clip(pos.astype(np.intp), 0, _LOCATE_KNOTS - 2)
        xs[...] = inverse[cell] + (inverse[cell + 1] - inverse[cell]) * (pos - cell)
        del pos, cell  # slice-sized: not kept through the steps
        moving = np.arange(ys.size)
        a, b = np.full(ys.size, lo), np.full(ys.size, hi)
        for _ in range(_NEWTON_STEPS):
            cur = xs[moving]
            step = fvec(cur)
            step -= ys[moving]
            step /= dvec(cur)
            # step has the sign of fvec(cur) - y, as dvec > 0.
            np.copyto(a, cur, where=step <= 0.0)
            np.copyto(b, cur, where=step > 0.0)
            np.subtract(cur, step, out=step)
            # A NaN step fails both comparisons and bisects too.
            out = ~((step >= a) & (step <= b))
            step[out] = 0.5 * (a[out] + b[out])
            xs[moving] = step
            keep = (step != a) & (step != b) & (b - a > tol)
            if not keep.any():
                break
            moving, a, b = moving[keep], a[keep], b[keep]
    return x


def _orthonormal_frame(e):
    # e is a unit vector, such as ZonalDensity.axis.
    pivot = int(np.argmin(np.abs(e)))
    b1 = -e[pivot] * e
    b1[pivot] += 1.0
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(e, b1)
    return e, b1, b2


def generate_qud(d, N: int, driver: Driver, threads: int = 1) -> PointSet:
    """Sequence uniformly distributed for the density, by inverse-CDF transport.

    The density's CDF carries the first driver coordinate to the angle
    (planar, 1-D driver) or to t = axis . v (zonal, dim 3 only, 2-D driver
    whose second coordinate is the azimuth around the axis).  Bitwise
    deterministic for fixed (density, N, driver).

    Points are made in fixed blocks of 2^16: each block draws its own
    driver values and transports them, _NEWTON_SLICE points at a time,
    into its rows of the (N, n) result, so temporaries are O(block) beside
    it; `threads` (>= 1) transport blocks in parallel, and no output bit
    depends on it or on the slices.

    The filled array becomes the PointSet as it is, read-only, with no
    second pass to check or normalize it: the transport keeps each root
    inside its bracket, and _place writes (cos theta, sin theta) or
    t e + r cos(phi) b1 + r sin(phi) b2 on an orthonormal frame with
    r = sqrt(max(0, 1 - t^2)), so every row is finite and unit to a few ulp
    (at most 4.4e-16 off measured, tilted axes included), far inside the
    1e-12 below which PointSet keeps a row's bits anyway.
    """
    if N < 1:
        raise ValueError(f"need N >= 1 points, got {N}")
    driver._check_count(N)
    positivity_margin(d)  # the TypeError for other densities
    d._check_generation(driver)
    (lo, hi), mass = d._bracket, d._mass
    coords = np.empty((N, d._point_dim))

    def block(start):
        x = Driver(driver.kind, driver.offset + start).values(min(_SWEEP_BLOCK, N - start))
        y = x if x.ndim == 1 else x[:, 0]
        t = _invert_monotone_vec(d.cdf, lambda v: d.density(v) / mass, y, lo, hi)
        d._place(t, x, coords[start : start + len(x)])

    _map_blocks(block, range(0, N, _SWEEP_BLOCK), threads)
    return PointSet._adopt_unit(coords, Provenance(generator=d._describe(driver, N), seed=driver.offset))
