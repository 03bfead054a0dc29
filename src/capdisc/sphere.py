"""Points and caps on the unit sphere, uniform cap measure, and
deterministic uniform point generators."""

from __future__ import annotations

import collections
import itertools
import math
import os
import re
import zipfile
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# Inputs with norm below this are degenerate and rejected outright.
_DEGENERATE_NORM = 1e-9

# Rows already unit to this accuracy are kept bit-for-bit (CSV round-trips).
_UNIT_TOL = 1e-12

TWO_PI = 2.0 * np.pi

# Points per block in generation, PointSet's checks and angles, the arc sweep
# and the circle family; keeps their temporaries O(block) and fixes the block
# edges for every thread count.
_SWEEP_BLOCK = 1 << 16

GOLDEN_RATIO_CONJUGATE = (np.sqrt(5.0) - 1.0) / 2.0

UNIFORM_METHODS = ("random", "kronecker_s1", "halton_inverse")


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
    _normalize_rows(v[None, :])
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


_MAX_DIM = 10**5  # _weight_tail takes n/2 to about n steps; here mu still errs below 1e-13


def _weight_tail(n, s):
    """I_n(s) = int_s^1 (1-t^2)^((n-3)/2) dt for s in [-1, 1); see cap_measure."""
    if not isinstance(n, (int, np.integer)) or not 2 <= n <= _MAX_DIM:
        raise ValueError(f"dimension must be >= 2 (an integer <= {_MAX_DIM}), got {n!r}")
    r = (1.0 - s) * (1.0 + s)
    if n >= 4 and s >= 0.0 and (s >= 0.5 or r ** (0.5 * n) <= 2.0**-26):
        # The positive series t_1 + t_2 + ..., t_1 = s r^((n-1)/2) / (n-1) and
        # t_{j+1} = t_j r (n+2j-2) / (n+2j-1): accurate relative to I_n(s),
        # where the recursion below cancels.  The ratio is below r, so the
        # sum takes about 37 / s^2 terms: about 150 at s = 1/2, and about n,
        # twice the recursion's steps, where r^(n/2) first reaches 2^-26.
        # Above that bound mu is about 1e-9 or more (n = 300 to 10^4), so the
        # recursion's absolute error of a few 2^-53 stays near 1e-7 of mu or
        # below (5.8e-8 at n = 300, 7.9e-8 at n = 1001 measured at the bound).
        term, total, j = s * r ** (0.5 * (n - 1)) / (n - 1), 0.0, 1
        while total + term != total:
            total += term
            term *= r * (n + 2 * j - 2) / (n + 2 * j - 1)
            j += 1
        return total
    i = math.acos(s) if n % 2 == 0 else 1.0 - s
    r = 1.0 - s * s
    for q in range(4 + n % 2, n + 1, 2):
        i = ((q - 3) * i - s * r ** (0.5 * (q - 3))) / (q - 2)
    return i


def cap_measure(n: int, s: float) -> float:
    """Normalized uniform measure of a height-s cap on the (n-1)-sphere.

    mu(s) = I_n(s) / W(n), with W(n) = I_n(-1).  From I_2 = arccos(s) or
    I_3 = 1 - s, integration by parts steps n by 2 up to an integer n <= 10^5:
    I_q = ((q-3) I_{q-2} - s (1-s^2)^((q-3)/2)) / (q-2).  Taken at |s| and
    reflected, so mu(0) = 1/2 and mu(-s) = 1 - mu(s) exactly.  The error of
    that recursion is absolute, a few 2^-53, so for n >= 4 and |s| >= 1/2,
    or (1-s^2)^(n/2) <= 2^-26 (there mu < 1e-8), a positive series of I_n
    takes its place: there a small cap's measure is accurate relative to
    itself, never negative, and falls as |s| grows.
    """
    mass = _weight_tail(n, -1.0)
    if not -1.0 < s < 1.0:
        raise ValueError(f"cap height must lie in (-1, 1), got {s}")
    m = _weight_tail(n, abs(s)) / mass
    return m if s >= 0.0 else 1.0 - m


@dataclass(frozen=True)
class Provenance:
    """How a point set was produced: generator descriptor plus seed."""

    generator: str
    seed: int = 0


def _row_norms(x):
    # The sum np.linalg.norm(x, axis=1) takes, without its two (N, n) temporaries.
    return np.sqrt(np.add.reduce(x * x, axis=1))


def _normalize_rows(x):
    # Divides the finite rows of x by their norms in place, except the rows
    # already unit to _UNIT_TOL; raises on a degenerate row.
    with np.errstate(over="ignore"):
        norms = _row_norms(x)
    big = np.isinf(norms)
    if np.any(big):
        # Finite rows whose norm overflows: scale by max |x| first.
        x[big] /= np.max(np.abs(x[big]), axis=1)[:, None]
        norms[big] = _row_norms(x[big])
    if np.any(norms < _DEGENERATE_NORM):
        raise ValueError("degenerate (near-zero) vector")
    fix = np.abs(norms - 1.0) > _UNIT_TOL
    if np.any(fix):
        x[fix] /= norms[fix, None]


class PointSet:
    """An ordered finite prefix of a sequence of unit vectors.

    Stores coordinates as an (N, n) read-only array; order is significant.
    """

    def __init__(self, coords, provenance: Provenance):
        self._own(np.array(coords, dtype=float), provenance)

    @classmethod
    def _adopt(cls, arr: np.ndarray, provenance: Provenance) -> "PointSet":
        """A point set over `arr`, a float64 array the caller has just built
        and hands over: it is validated and normalized in place, not copied."""
        ps = cls.__new__(cls)
        ps._own(arr, provenance)
        return ps

    def _own(self, arr, provenance):
        if arr.ndim != 2 or arr.shape[1] < 2:
            raise ValueError("coords must be an (N, n) array with n >= 2")
        if arr.shape[0] < 1:
            raise ValueError("a point set needs at least one point")
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite (nan or inf) coordinate in coords")
        # Row blocks keep the norm temporaries O(block) beside the array.
        for lo in range(0, arr.shape[0], _SWEEP_BLOCK):
            _normalize_rows(arr[lo : lo + _SWEEP_BLOCK])
        arr.setflags(write=False)
        self.coords = arr
        self.provenance = provenance

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    @property
    def size(self) -> int:
        return self.coords.shape[0]

    def turns(self) -> np.ndarray:
        """Canonical angles of a planar point set, rescaled to [0, 1)."""
        # Row blocks written into one result keep the temporaries O(block);
        # each element goes through the same ufuncs in the same order as in
        # one whole-array pass, so no bit depends on the blocks.
        if self.dim != 2:
            raise ValueError("angles are defined for dim 2 only")
        out = np.empty(self.size)
        for lo in range(0, self.size, _SWEEP_BLOCK):
            xy = self.coords[lo : lo + _SWEEP_BLOCK]
            theta = out[lo : lo + _SWEEP_BLOCK]
            np.arctan2(xy[:, 1], xy[:, 0], out=theta)
            # + 0.0 turns the -0.0 of a point at (x > 0, -0.0) into 0.0.
            theta += 0.0
            np.add(theta, TWO_PI, out=theta, where=theta < 0.0)
            # A tiny negative angle wraps to 2 pi; its turn 1.0 becomes 0.0 too.
            theta /= TWO_PI
            theta[theta >= 1.0] = 0.0
        return out


def _bit_reverse64(v):
    # In place: swap adjacent bits, then bit pairs, then nibbles; byteswap
    # reverses the bytes.
    high = np.empty_like(v)
    for shift, mask in ((1, 0x5555555555555555), (2, 0x3333333333333333), (4, 0x0F0F0F0F0F0F0F0F)):
        np.right_shift(v, shift, out=high)
        high &= np.uint64(mask)
        v &= np.uint64(mask)
        v <<= shift
        v |= high
    return v.byteswap(inplace=True)


def radical_inverse(base: int, indices) -> np.ndarray:
    """Van der Corput radical inverse of integer indices in the given base."""
    idx = np.atleast_1d(np.asarray(indices, dtype=np.int64)).copy()
    if np.any(idx < 0):
        raise ValueError("indices must be nonnegative")
    if base == 2 and np.all(idx < 2**53):
        # The index's bits reversed over 64 places, times 2^-64: at most 53
        # significant bits, so this is exactly the digit sum below.
        return _bit_reverse64(idx.view(np.uint64)) * 2.0**-64
    out = np.zeros(idx.shape, dtype=float)
    scale = 1.0 / base
    while np.any(idx > 0):
        idx, digit = np.divmod(idx, base)
        out += digit * scale
        scale /= base
    return out


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def generate_uniform(n: int, N: int, method: str, seed: int = 0) -> PointSet:
    """Reference point sets distributed uniformly on the (n-1)-sphere.

    Methods: "random" (normalized Gaussian, seeded), "kronecker_s1" (n=2
    golden-ratio rotation), and "halton_inverse" (any n: coordinate-wise
    normal inverse-CDF of a Halton point, normalized).  Deterministic given
    (method, seed, N).
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if N < 1:
        raise ValueError(f"need N >= 1 points, got {N}")

    if method == "random":
        coords = np.random.default_rng(seed).standard_normal((N, n))
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
        from statistics import NormalDist  # it imports fractions: not at start-up

        # Index 0 maps to the excluded quantile 0; start at 1 + seed.
        idx = np.arange(1 + seed, 1 + seed + N)
        quantile = NormalDist().inv_cdf
        coords = np.column_stack([np.fromiter(map(quantile, radical_inverse(p, idx).tolist()),
                                              float, N) for p in _PRIMES[:n]])
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {UNIFORM_METHODS}")

    return PointSet._adopt(coords, Provenance(generator=f"uniform-{method}(n={n},N={N})", seed=seed))


def fibonacci_sphere(N: int) -> np.ndarray:
    """Fibonacci spiral lattice on S^2: midpoint heights, golden-angle azimuths."""
    i = np.arange(N, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / N
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * (np.pi * (3.0 - np.sqrt(5.0)))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _parse_header(line):
    # (dim, provenance) of a save_points header line without its newline, or None.
    m = re.match(r"# dim=(\d+) generator=(.+) seed=(-?\d+)$", line)
    return (int(m[1]), Provenance(generator=m[2], seed=int(m[3]))) if m else None


def save_points(ps: PointSet, path, threads: int = 1):
    """Write a point set: an .npz for a path ending in ".npz", else CSV.
    Both start from the header line "# dim=<n> generator=<label>
    seed=<int>", so a generator label with "\n" or "\r" is a ValueError,
    raised, like a bad `threads`, before `path` is opened.

    The .npz is a zip of two stored .npy members, `coords` (the (N, n)
    float64 array) and `header` (the header line as a 0-d unicode array),
    dated 1980-01-01, so its bytes depend only on the set; None is
    returned for it.

    The CSV holds the header, then one row per point of its coordinates as
    format(x, ".17g"), split by "," and ended by "\n".  Rows go _WRITE_ROWS
    at a time through _format_fields, so the writer's temporaries are
    O(block) beside the point set.  With `threads` >= 2 a pool formats and
    digests the blocks, at most 2 * threads of them ahead of the calling
    thread, which writes them in order; the bytes do not depend on
    `threads`.  An error in a block or a write cancels the blocks not yet
    started, waits for the others and propagates.  Returns the (start, end,
    BLAKE2b digest) of the header and of each block written, end to end
    over the file, for source_unchanged; None where the interpreter lacks
    _blake2.
    """
    if threads < 1:
        raise ValueError(f"need at least one thread, got threads={threads}")
    if "\n" in ps.provenance.generator or "\r" in ps.provenance.generator:
        raise ValueError(f"generator label holds a line break: {ps.provenance.generator!r}")
    header = f"# dim={ps.dim} generator={ps.provenance.generator} seed={ps.provenance.seed}"
    if _is_npz(path):
        _save_npz(ps, path, header)
        return None
    try:
        # Not hashlib, whose import loads OpenSSL; imported per call, so
        # that importing the package does not load it.
        from _blake2 import blake2b
    except ImportError:
        blake2b = None
    seps = np.tile(np.array([44] * (ps.dim - 1) + [10], np.uint8), _WRITE_ROWS)

    def digest(data):
        return None if blake2b is None else blake2b(data, digest_size=32).digest()

    def block(start):
        x = ps.coords[start : start + _WRITE_ROWS].reshape(-1)
        data = _format_fields(x, seps[: x.size])
        return data, digest(data)

    header = f"{header}\n".encode()
    starts = range(0, ps.size, _WRITE_ROWS)
    spans = []
    with open(path, "wb") as fh:

        def write(data, data_digest):
            end = spans[-1][1] if spans else 0
            fh.write(data)
            spans.append((end, end + len(data), data_digest))

        write(header, digest(header))
        if threads == 1:
            for start in starts:
                write(*block(start))
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                try:
                    ahead = collections.deque()
                    for start in starts:
                        if len(ahead) == 2 * threads:
                            write(*ahead.popleft().result())
                        ahead.append(pool.submit(block, start))
                    while ahead:
                        write(*ahead.popleft().result())
                except BaseException:
                    pool.shutdown(cancel_futures=True)
                    raise
    return None if blake2b is None else tuple(spans)


# Rows per _format_fields call in save_points.  Its temporaries peak at
# about 100 bytes per value, under 1.2 MiB for n <= 3 on each thread; more
# rows save little time and raise the peak memory of a `gen`.
_WRITE_ROWS = 1 << 12

# A field's slot in the writer: four 8-byte words.  A fixed-notation token
# is its prefix right-aligned in bytes 0..6 ("-0.000" at most), its first
# digit in byte 7 and 16 more digits in bytes 8..23; any other token is at
# most 24 bytes ("-2.2250738585072014e-308") from byte 0.  The separator
# goes right after the token.
_FIELD_WORDS = 4

# format(x, ".17g") writes |x| in [1e-4, 1) in fixed notation: "0.", z zeros
# (z = 0..3) and D = round(|x| * 10^(17 + z)) as 17 digits without their
# trailing zeros.  Each _DECADES entry is the smallest double >= 10^-(z+1),
# so |x| < _DECADES[z] exactly when |x| < 10^-(z+1).  The largest double
# below 10^-z still gives D < 10^17, so no D carries into the next decade.
# 10^17 .. 10^20 are exact doubles, split in halves of 26 bits for Dekker's
# TwoProduct.
_DECADES = np.array([1e-1, 1e-2, 1e-3, 1e-4])
_SCALES = np.array([1e17, 1e18, 1e19, 1e20])
_SPLITTER = 134217729.0  # 2^27 + 1
_SCALES_HI = _SCALES * _SPLITTER - (_SCALES * _SPLITTER - _SCALES)
_SCALES_LO = _SCALES - _SCALES_HI

# Per sign and z (code 4 * sign + z): the prefix as word 0 of a slot, and
# the byte where the token starts.
_PREFIXES = [("-" if neg else "") + "0." + "0" * z for neg in (0, 1) for z in range(4)]
_PREFIX_WORDS = np.frombuffer("".join(p.rjust(8, "\0")[1:] + "\0" for p in _PREFIXES).encode(),
                              "<u8")
_PREFIX_START = np.array([7 - len(p) for p in _PREFIXES])

# The bytes a field keeps, per (first byte, separator byte): row
# 32 * start + stop marks the run start .. stop of a slot.
_SLOT_BYTES = 8 * _FIELD_WORDS
_KEEP_RUNS = (
    (np.arange(_SLOT_BYTES) >= np.arange(8)[:, None, None])
    & (np.arange(_SLOT_BYTES) <= np.arange(_SLOT_BYTES)[:, None])
).reshape(-1, _SLOT_BYTES)


def _format_fields(x, seps):
    """The bytes of format(v, ".17g") + sep for each v in the float64 array
    x and sep in the uint8 array seps, concatenated.

    Fixed-notation values (1e-4 <= |v| < 1) are formatted as arrays: |v| *
    10^(17 + z) is formed exactly as hi + lo by Dekker's TwoProduct; hi >=
    10^16 > 2^53 is an even integer, so D = hi + rint(lo) is the product
    rounded to an integer, ties to even as format rounds them.  D's digits
    come from SWAR conversions of two 8-digit words; each field's token and
    separator are one run of bytes in its slot, and one boolean mask picks
    the runs out.  Every other value (0, -0, |v| >= 1 and the e-notation
    values below 1e-4) goes through format() itself.
    """
    m = x.size
    a = np.abs(x)
    fixed = (a >= _DECADES[-1]) & (a < 1.0)
    a = np.where(fixed, a, 0.5)
    z = (a < _DECADES[0]).astype(np.intp)
    z += a < _DECADES[1]
    z += a < _DECADES[2]
    hi = a * _SCALES[z]
    t = a * _SPLITTER
    a_hi = t - (t - a)
    a_lo = a - a_hi
    s_hi, s_lo = _SCALES_HI[z], _SCALES_LO[z]
    lo = a_hi * s_hi - hi
    lo += a_hi * s_lo
    lo += a_lo * s_hi
    lo += a_lo * s_lo
    d = hi.astype(np.int64)
    d += np.rint(lo).astype(np.int64)
    # Each stage's arrays are dropped once the next has what it needs, so
    # the temporaries of one call peak at about 100 bytes per value.
    del a, t, a_hi, a_lo, s_hi, s_lo, hi, lo

    # The first digit, then two 8-digit words, each split 4|4, 2|2 and 1|1
    # in parallel lanes, with the most significant digit in the lowest byte.
    lead = d // 10**16
    d -= lead * 10**16
    w = np.empty((m, 2), np.uint64)
    w[:, 0] = d // 10**8
    w[:, 1] = d - w[:, 0].astype(np.int64) * 10**8
    t = w // 10000
    w -= t * 10000
    w <<= 32
    w |= t
    t = (w * 5243) >> 19  # lane // 100, for lanes below 43699
    t &= 0x0000007F0000007F
    w -= t * 100
    w <<= 16
    w |= t
    t = (w * 103) >> 10  # lane // 10, for lanes below 179
    t &= 0x000F000F000F000F
    w -= t * 10
    w <<= 8
    w |= t
    # A word's highest nonzero byte is its last nonzero digit: its top bit
    # is below bit 8j + 4, so frexp of the rounded float still points at j.
    last = (np.frexp(w.astype(np.float64))[1] - 1) >> 3
    stop = np.where(last[:, 1] >= 0, 17 + last[:, 1], 9 + last[:, 0])
    w |= 0x3030303030303030
    del d, t, last

    code = 4 * np.signbit(x) + z
    slots = np.empty((m, _FIELD_WORDS), "<u8")
    slots[:, 0] = _PREFIX_WORDS[code]
    slots[:, 0] |= (lead.astype(np.uint64) + 48) << 56
    slots[:, 1:3] = w
    start = _PREFIX_START[code]
    del z, lead, w, code
    other = np.flatnonzero(~fixed)
    if other.size:
        tokens = [format(v, ".17g") for v in x[other].tolist()]
        text = "".join(tok.ljust(_SLOT_BYTES, "\0") for tok in tokens).encode("ascii")
        slots[other] = np.frombuffer(text, "<u8").reshape(-1, _FIELD_WORDS)
        start[other] = 0
        stop[other] = [len(tok) for tok in tokens]
    data = slots.view(np.uint8).reshape(-1)
    data[np.arange(0, data.size, _SLOT_BYTES) + stop] = seps
    return data[_KEEP_RUNS[_SLOT_BYTES * start + stop].reshape(-1)]


def load_points(path) -> PointSet:
    """Read a point set written by save_points: an .npz for a path ending
    in ".npz", else CSV.

    CSV goes to np.loadtxt, so every value equals float(token).  Blank and
    whitespace-only lines are skipped; any other malformed row (ragged,
    empty field, non-numeric token, comment) raises ValueError.  An .npz is
    read by np.load with no pickle; a file that is not a zip or is
    corrupt, lacks a member, or holds a `coords` that is not a 2-D float64
    array of the header's width raises ValueError.
    """
    if _is_npz(path):
        return _load_npz(path)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        parsed = _parse_header(header)
        if parsed is None:
            raise ValueError(f"malformed point-set header: {header!r}")
        dim, provenance = parsed
        lines = (line for line in fh if not line.isspace())
        first = next(lines, None)
        if first is None:
            raise ValueError("point-set file has no point rows")
        coords = np.loadtxt(
            itertools.chain([first], lines), dtype=float, delimiter=",", comments=None, ndmin=2
        )
    if coords.shape[1] != dim:
        raise ValueError(f"point rows do not match declared dim={dim}")
    return PointSet._adopt(coords, provenance)


def _is_npz(path):
    return os.fspath(path).endswith(".npz")


def _save_npz(ps, path, header):
    # Each member under a bare ZipInfo (dated 1980-01-01, stored), so the
    # bytes depend only on the set; zip64 as np.savez writes them.
    with zipfile.ZipFile(path, "w") as zf:
        for name, arr in (("coords", ps.coords), ("header", np.array(header))):
            with zf.open(zipfile.ZipInfo(f"{name}.npy"), "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, arr, allow_pickle=False)


def _load_npz(path):
    # The signature check turns an empty file, an .npy and a text file into
    # one error, where np.load would raise EOFError, return an array or try
    # a pickle.
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":
            raise ValueError("an .npz point file must be a zip archive")
        fh.seek(0)
        try:
            # np.load would also inflate LZMA and bzip2 members, whose
            # decoders raise their own errors (or are missing) on bad data.
            with zipfile.ZipFile(fh) as zf:
                for info in zf.infolist():
                    if info.compress_type not in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED):
                        raise ValueError(
                            f"unreadable .npz point file: member {info.filename} uses zip "
                            f"method {info.compress_type}; only stored and deflated are read"
                        )
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as z:
                header, coords = z["header"], z["coords"]
        except (KeyError, zipfile.BadZipFile, zlib.error) as exc:
            raise ValueError(f"unreadable .npz point file: {type(exc).__name__}: {exc}") from None
    parsed = _parse_header(str(header)) if header.dtype.kind == "U" and header.ndim == 0 else None
    if parsed is None:
        raise ValueError(f"malformed point-set header: {header!r}")
    dim, provenance = parsed
    if coords.dtype != np.float64 or coords.ndim != 2:
        raise ValueError(f"coords must be a 2-D float64 array, got {coords.ndim}-D {coords.dtype}")
    if coords.shape[1] != dim:
        raise ValueError(f"point rows do not match declared dim={dim}")
    return PointSet._adopt(coords, provenance)


def source_unchanged(path, source, threads: int = 1) -> bool:
    """True when the file at `path` holds the bytes that `source`, the spans
    save_points returned, cover, so that load_points would read the set it
    wrote; False for a file that cannot be read.  The spans run end to end
    from byte 0; up to `threads` (>= 1) threads each check the file's size,
    then one contiguous group of spans in one sequential pass, which stops
    at the first span whose digest differs.  Each reads 64 KiB at a time: a
    span-sized (256 KiB) buffer stays resident after the check and raises
    the peak memory of the cap scan that follows.
    """
    k = min(threads, len(source))
    groups = [source[i * len(source) // k : (i + 1) * len(source) // k] for i in range(k)]
    return all(_map_blocks(lambda spans: _spans_unchanged(path, spans, source[-1][1]), groups, threads))


def _spans_unchanged(path, spans, size):
    # source_unchanged's pass over one group of spans of a file of `size` bytes.
    from _blake2 import blake2b  # save_points returns spans only where this imports

    buf = bytearray(1 << 16)
    try:
        with open(path, "rb") as fh, memoryview(buf) as mv:
            if os.fstat(fh.fileno()).st_size != size:
                return False
            fh.seek(spans[0][0])
            for start, end, digest in spans:
                h = blake2b(digest_size=32)
                left = end - start
                while left:
                    got = fh.readinto(mv[: min(left, len(buf))])
                    if not got:
                        return False
                    h.update(mv[:got])
                    left -= got
                if h.digest() != digest:
                    return False
    except OSError:
        return False
    return True
