"""Points and caps on the unit sphere, uniform cap measure, and
deterministic uniform point generators."""

from __future__ import annotations

import itertools
import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# Inputs with norm below this are degenerate and rejected outright.
_DEGENERATE_NORM = 1e-9

# Rows already unit to this accuracy are kept bit-for-bit (CSV round-trips).
_UNIT_TOL = 1e-12

TWO_PI = 2.0 * np.pi

# Points per block in generation, the arc sweep and save_points; keeps
# their temporaries O(block) and fixes the block edges for every thread count.
_SWEEP_BLOCK = 1 << 16

GOLDEN_RATIO_CONJUGATE = (np.sqrt(5.0) - 1.0) / 2.0

UNIFORM_METHODS = ("random", "fibonacci_s2", "kronecker_s1", "halton_inverse")


def _map_blocks(fn, jobs, threads):
    """[fn(job) for job in jobs], in order, on up to `threads` threads.

    Runs inline for one thread or one job.  Each job must depend only on
    its own argument, so the results do not depend on `threads`.  The
    split into jobs may itself depend on `threads` only where the results
    are exact integer sums, which no split can change.
    """
    if threads < 1:
        raise ValueError(f"need at least one thread, got threads={threads}")
    jobs = list(jobs)
    if threads == 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, jobs))


def unit_vector(coords) -> np.ndarray:
    """Normalize coords to a read-only unit vector (never the caller's array);
    rejects non-finite and near-zero input."""
    v = np.array(coords, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("a unit vector needs at least 2 coordinates")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite (nan or inf) coordinate in vector")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if math.isinf(norm):
        # A finite vector whose norm overflows: scale by max |x| first.
        v = v / np.max(np.abs(v))
        norm = float(np.linalg.norm(v))
    if norm < _DEGENERATE_NORM:
        raise ValueError(f"degenerate vector with norm {norm:.3e}")
    if abs(norm - 1.0) > _UNIT_TOL:
        v = v / norm
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class Cap:
    """Closed spherical cap {v : center . v >= height}."""

    center: np.ndarray
    height: float

    def __post_init__(self):
        object.__setattr__(self, "center", unit_vector(self.center))
        if not -1.0 < self.height < 1.0:
            raise ValueError(f"cap height must lie in (-1, 1), got {self.height}")

    @property
    def dim(self) -> int:
        return self.center.size


def cap_measure(n: int, s: float) -> float:
    """Normalized uniform measure of a height-s cap on the (n-1)-sphere.

    Equals the weighted integral of (1-t^2)^((n-3)/2) over [s, 1] divided by
    its full mass; evaluated through the regularized incomplete beta
    function, giving 1/2 at s=0 and strict decrease in s.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if not -1.0 < s < 1.0:
        raise ValueError(f"cap height must lie in (-1, 1), got {s}")
    from scipy.special import betainc

    if s >= 0.0:
        return float(0.5 * betainc((n - 1) / 2, 0.5, 1.0 - s * s))
    return 1.0 - float(0.5 * betainc((n - 1) / 2, 0.5, 1.0 - s * s))


@dataclass(frozen=True)
class Provenance:
    """How a point set was produced: generator descriptor plus seed."""

    generator: str
    seed: int = 0


class PointSet:
    """An ordered finite prefix of a sequence of unit vectors.

    Stores coordinates as an (N, n) read-only array; order is significant.
    """

    def __init__(self, coords, provenance: Provenance):
        arr = np.array(coords, dtype=float)
        if arr.ndim != 2 or arr.shape[1] < 2:
            raise ValueError("coords must be an (N, n) array with n >= 2")
        if arr.shape[0] < 1:
            raise ValueError("a point set needs at least one point")
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite (nan or inf) coordinate in coords")
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(arr, axis=1)
        big = np.isinf(norms)
        if np.any(big):
            # Finite rows whose norm overflows: scale by max |x| first.
            arr[big] /= np.max(np.abs(arr[big]), axis=1)[:, None]
            norms[big] = np.linalg.norm(arr[big], axis=1)
        if np.any(norms < _DEGENERATE_NORM):
            raise ValueError("degenerate (near-zero) point in coords")
        fix = np.abs(norms - 1.0) > _UNIT_TOL
        if np.any(fix):
            arr[fix] /= norms[fix, None]
        arr.setflags(write=False)
        self.coords = arr
        self.provenance = provenance

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    @property
    def size(self) -> int:
        return self.coords.shape[0]

    def __len__(self):
        return self.size

    def __iter__(self):
        return iter(self.coords)

    def angles(self) -> np.ndarray:
        """Canonical angles in [0, 2*pi) for a planar point set."""
        if self.dim != 2:
            raise ValueError("angles are defined for dim 2 only")
        # + 0.0 turns the -0.0 of a point at (x > 0, -0.0) into 0.0.
        theta = np.arctan2(self.coords[:, 1], self.coords[:, 0]) + 0.0
        theta = np.where(theta < 0.0, theta + TWO_PI, theta)
        return np.where(theta >= TWO_PI, 0.0, theta)

    def turns(self) -> np.ndarray:
        """Angles rescaled to [0, 1)."""
        psi = self.angles() / TWO_PI
        return np.where(psi >= 1.0, 0.0, psi)


def radical_inverse(base: int, indices) -> np.ndarray:
    """Van der Corput radical inverse of integer indices in the given base."""
    idx = np.atleast_1d(np.asarray(indices, dtype=np.int64)).copy()
    if np.any(idx < 0):
        raise ValueError("indices must be nonnegative")
    out = np.zeros(idx.shape, dtype=float)
    scale = 1.0 / base
    while np.any(idx > 0):
        out += (idx % base) * scale
        idx //= base
        scale /= base
    return out


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def generate_uniform(n: int, N: int, method: str, seed: int = 0) -> PointSet:
    """Reference point sets distributed uniformly on the (n-1)-sphere.

    Methods: "random" (normalized Gaussian, seeded), "fibonacci_s2" (n=3
    spiral lattice), "kronecker_s1" (n=2 golden-ratio rotation), and
    "halton_inverse" (any n: coordinate-wise normal inverse-CDF of a
    Halton point, normalized).  Deterministic given (method, seed, N).
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if N < 1:
        raise ValueError(f"need N >= 1 points, got {N}")

    if method == "random":
        rng = np.random.default_rng(seed)
        coords = rng.standard_normal((N, n))
        norms = np.linalg.norm(coords, axis=1)
        while np.any(norms < _DEGENERATE_NORM):  # pragma: no cover
            bad = norms < _DEGENERATE_NORM
            coords[bad] = rng.standard_normal((int(bad.sum()), n))
            norms = np.linalg.norm(coords, axis=1)
        coords /= norms[:, None]
    elif method == "fibonacci_s2":
        if n != 3:
            raise ValueError("fibonacci_s2 requires n = 3")
        coords = fibonacci_sphere(N)
    elif method == "kronecker_s1":
        if n != 2:
            raise ValueError("kronecker_s1 requires n = 2")
        j = np.arange(seed, seed + N, dtype=float)
        frac = j * GOLDEN_RATIO_CONJUGATE
        frac -= np.floor(frac)
        theta = 2.0 * np.pi * frac
        coords = np.column_stack([np.cos(theta), np.sin(theta)])
    elif method == "halton_inverse":
        if n > len(_PRIMES):
            raise ValueError(f"halton_inverse supports n <= {len(_PRIMES)}")
        from scipy.special import ndtri

        # Index 0 maps to the excluded quantile 0; start at 1 + seed.
        idx = np.arange(1 + seed, 1 + seed + N)
        gauss = np.column_stack([ndtri(radical_inverse(p, idx)) for p in _PRIMES[:n]])
        coords = gauss / np.linalg.norm(gauss, axis=1)[:, None]
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {UNIFORM_METHODS}")

    return PointSet(coords, Provenance(generator=f"uniform-{method}(n={n},N={N})", seed=seed))


def fibonacci_sphere(N: int) -> np.ndarray:
    """Fibonacci spiral lattice on S^2: midpoint heights, golden-angle azimuths."""
    i = np.arange(N, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / N
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * (np.pi * (3.0 - np.sqrt(5.0)))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


_HEADER_RE = re.compile(r"^# dim=(\d+) generator=(.+) seed=(-?\d+)$")


def save_points(ps: PointSet, path) -> None:
    """Write a point set as CSV with a provenance header, 17 significant digits.

    '%.17g' % x gives the same bytes as format(x, ".17g"), so rows are
    formatted a block at a time by one string operation.
    """
    coords = ps.coords
    row = ",".join(["%.17g"] * ps.dim) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# dim={ps.dim} generator={ps.provenance.generator} seed={ps.provenance.seed}\n")
        for start in range(0, ps.size, _SWEEP_BLOCK):
            block = coords[start : start + _SWEEP_BLOCK]
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def load_points(path) -> PointSet:
    """Read a point set written by save_points.

    Blank and whitespace-only lines are skipped; any other malformed row
    (ragged, empty field, non-numeric token, comment) raises ValueError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        m = _HEADER_RE.match(header)
        if not m:
            raise ValueError(f"malformed point-set header: {header!r}")
        dim, generator, seed = int(m.group(1)), m.group(2), int(m.group(3))
        lines = (line for line in fh if not line.isspace())
        first = next(lines, None)
        if first is None:
            raise ValueError("point-set file has no point rows")
        coords = np.loadtxt(
            itertools.chain([first], lines), dtype=float, delimiter=",", comments=None, ndmin=2
        )
    if coords.shape[1] != dim:
        raise ValueError(f"point rows do not match declared dim={dim}")
    return PointSet(coords, Provenance(generator=generator, seed=seed))
