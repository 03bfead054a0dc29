"""Empirical cap counts and sup-discrepancy machinery.

Arc families on the circle are handled exactly: the empirical count of a
half-open arc is piecewise constant in the starting angle, with breakpoints
where an endpoint crosses a data point, so the supremum is attained at one
of the 2N breakpoints, each counted by two exact rank queries on the sorted
turns (no tolerance).  Cap families on higher spheres are searched over a
deterministic direction grid followed by a shrinking-step hill climb; those
values are certified lower bounds of the true supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sphere import (
    _SWEEP_BLOCK,
    TWO_PI,
    PointSet,
    Provenance,
    _map_blocks,
    _row_norms,
    cap_measure,
    fibonacci_sphere,
    generate_uniform,
)

# Dot products per tile in the cap counts (1 MiB of float64); keeps the
# scan's memory independent of N and M.  Larger tiles ran slower.
_SCAN_TILE = 1 << 17

# Tile rows summed per uint8 partial count: 255 ones still fit in a byte.
_BYTE_ROWS = 255


@dataclass(frozen=True)
class DiscrepancyReport:
    """Sup-deviation of empirical measure from target over one cap/arc family.

    For method "exact" the value is the true supremum; for sampled methods
    it is a certified lower bound, with the refinement trace retained.
    """

    family: str
    value: float
    witness: dict
    method: str
    N: int
    star_value: float | None = None
    trace: tuple[float, ...] | None = None


@dataclass(frozen=True)
class TelescopeResult:
    """Both sides of the wrapped-arc counting identity (equal by construction)."""

    lhs: float
    k: int
    beta: float
    rhs: float


def _two_sum(x, y):
    # Knuth's TwoSum: s = fl(x + y) and the exact error
    # (x - (s - y_part)) + (y - y_part) = (x + y) - s, in three arrays.
    s = x + y
    y_part = s - x
    err = s - y_part
    np.subtract(x, err, out=err)
    np.subtract(y, y_part, out=y_part)
    err += y_part
    return s, err


def _arc_ends(base, step):
    """Rank queries for the exact arc ends base + step, taken mod 1.

    Returns (q, wrapped): q is the smallest float >= the exact end reduced
    into [0, 1), so the left rank of q counts the turns below the end, and
    wrapped marks ends that left [0, 1) (at or above 1 for step > 0, below
    0 for step < 0).
    """
    h, e = _two_sum(base, step)
    if step > 0.0:
        wrapped = (h > 1.0) | ((h == 1.0) & (e >= 0.0))
    else:
        wrapped = h < 0.0  # h == 0.0 only where base + step is exactly 0
    # end = g + e1 + e exactly.  e1 + e is rounded only where e1 != 0, when
    # an end in (-1/2, 0) moves up by 1: then g >= 1/2 and |e1 + e| < 2^-53,
    # so the rounding error r below is under 2^-106.  Each sum's inputs are
    # dropped once used, so a block holds at most six arrays.
    g, e1 = _two_sum(h, np.where(wrapped, -math.copysign(1.0, step), 0.0))
    del h
    big, r = _two_sum(e1, e)
    del e, e1
    s, t = _two_sum(g, big)
    del g, big
    # end = s + t + r exactly: |t| is at most half the spacing at s and r is
    # far smaller, so no float lies strictly between s and end, and the
    # rounded t + r has the sign of end - s.
    t += r
    np.nextafter(s, 2.0, out=s, where=t > 0.0)
    return s, wrapped


def arc_discrepancy_fixed_length(ps: PointSet, a: float, threads: int = 1) -> DiscrepancyReport:
    """Exact sup over starting angles of |empirical([t0, t0+2*pi*a)) - a|.

    In turns, the count of [t, t + a) is constant on each piece (b, b'] of
    the circle cut at the 2N breakpoints psi_i and psi_i - a, so the sweep
    counts every arc starting at a breakpoint.  Each count is the
    difference of two exact ranks in the sorted turns: a breakpoint's own
    rank is its index there (that of the first of its ties), and its arc
    end, carried with its TwoSum error, takes a binary search, so no float
    rounding or tolerance enters the count (O(N log N): one sort plus
    vectorized rank queries).  The breakpoints
    are taken in fixed blocks of 2^16, so memory is O(N); `threads` (>= 1)
    evaluate blocks in parallel, and the result does not depend on it.
    """
    if ps.dim != 2:
        raise ValueError("fixed-length arcs are defined on the circle (dim 2)")
    if not 0.0 < a < 0.5:
        raise ValueError(f"arc fraction must lie in (0, 1/2), got {a}")
    return _arc_sweep(ps, a, f"fixed-length(a={a!r})", threads)


def _sorted_turns(ps):
    # The turns hold no NaN and no -0.0, so an in-place sort gives np.sort's bits.
    psi = ps.turns()
    psi.sort()
    return psi


def _own_ranks(psi, lo, block):
    # The left ranks of block = psi[lo : lo + block.size] in the sorted psi:
    # an element's own index, or that of the first of its ties.  Only the
    # block's first element, whose ties may start in an earlier block, takes
    # a search.
    ranks = np.arange(lo, lo + block.size)
    ranks[1:][block[1:] == block[:-1]] = 0
    ranks[0] = np.searchsorted(psi, block[0], side="left")
    return np.maximum.accumulate(ranks, out=ranks)


def _arc_sweep(ps: PointSet, a: float, family: str, threads: int) -> DiscrepancyReport:
    psi = _sorted_turns(ps)
    # Evaluation order: the starts psi_i (arcs [psi_i, psi_i + a)), then the
    # entries psi_i - a (arcs [psi_i - a, psi_i)).
    jobs = [(step, lo) for step in (a, -a) for lo in range(0, psi.size, _SWEEP_BLOCK)]

    def sweep_block(job):
        step, lo = job
        block = psi[lo : lo + _SWEEP_BLOCK]
        ends, wrapped = _arc_ends(block, step)
        # The count of [lo, hi) is rank(hi) - rank(lo), plus N where the arc
        # wraps; the block's own left ranks come from the sort.
        counts = np.searchsorted(psi, ends, side="left")
        own = _own_ranks(psi, lo, block)
        if step > 0.0:
            counts -= own
        else:
            np.subtract(own, counts, out=counts)
        np.add(counts, psi.size, out=counts, where=wrapped)
        dev = counts / ps.size
        dev -= a
        np.abs(dev, out=dev)
        i = int(np.argmax(dev))
        # The reported start is the float psi_i or psi_i - a, wrapped into
        # [0, 1).
        start = float(block[i]) if step > 0.0 else float(block[i] - a)
        if start < 0.0:
            start += 1.0
        return float(dev[i]), start % 1.0

    # max keeps the first maximum in evaluation order as the witness.
    best_val, best_start = max(_map_blocks(sweep_block, jobs, threads), key=lambda r: r[0])
    witness = {"theta0": TWO_PI * best_start, "length": float(TWO_PI * a)}
    return DiscrepancyReport(
        family=family,
        value=best_val,
        witness=witness,
        method="exact",
        N=ps.size,
    )


def circle_discrepancy(ps: PointSet) -> DiscrepancyReport:
    """Exact extreme (all arcs) discrepancy on the circle, star value alongside.

    With sorted turns x_1 <= ... <= x_N and A_m = m/N - x_m, the supremum
    over all arcs of |count/N - length| equals 1/N + max(A) - min(A); the
    anchored-arc ([0, beta)) supremum is the largest of |m/N - x_m| and
    |(m-1)/N - x_m|, the neighboring piece values at each point.  Both are
    taken over blocks of 2^16 points, so memory is the sorted turns plus
    O(block).
    """
    if ps.dim != 2:
        raise ValueError("circle discrepancy is defined on the circle (dim 2)")
    psi = _sorted_turns(ps)
    n = ps.size
    # Strict comparisons across blocks keep the first maximum and minimum,
    # as np.argmax and np.argmin over the whole profile would.
    j_hi = j_lo = 0
    a_hi, a_lo, star = -np.inf, np.inf, 0.0
    for lo in range(0, n, _SWEEP_BLOCK):
        x = psi[lo : lo + _SWEEP_BLOCK]
        below = np.arange(lo, lo + x.size) / n - x  # (m-1)/N - x_m
        profile = np.arange(lo + 1, lo + 1 + x.size) / n - x  # A_m
        star = max(star, float(np.abs(below).max()), float(np.abs(profile).max()))
        i, k = int(np.argmax(profile)), int(np.argmin(profile))
        if profile[i] > a_hi:
            j_hi, a_hi = lo + i, profile[i]
        if profile[k] < a_lo:
            j_lo, a_lo = lo + k, profile[k]
    value = 1.0 / n + float(a_hi - a_lo)

    length = psi[j_hi] - psi[j_lo]
    if length < 0.0:
        length += 1.0
    witness = {"theta0": float(TWO_PI * psi[j_lo]), "length": float(TWO_PI * length)}
    return DiscrepancyReport(
        family="circle(all-arcs)",
        value=value,
        witness=witness,
        method="exact",
        N=n,
        star_value=star,
    )


def direction_grid(n: int, M: int) -> np.ndarray:
    """M deterministic unit directions in R^n.

    A Fibonacci spiral on S^2 for n = 3, Halton points mapped to the
    sphere otherwise.
    """
    if M < 1:
        raise ValueError(f"need at least one direction, got M={M}")
    if n == 3:
        return fibonacci_sphere(M)
    return generate_uniform(n, M, "halton_inverse").coords


def _tangent_basis(u: np.ndarray) -> np.ndarray:
    n = u.size
    basis = np.eye(n)
    basis[:, 0] = u
    q, _ = np.linalg.qr(basis)
    # First QR column is +-u; the rest span the tangent space either way.
    return q[:, 1:].T


def _tile_rows(m_dirs):
    # Points per tile, so that a tile's dot-product block holds about
    # _SCAN_TILE entries.
    return max(1, _SCAN_TILE // m_dirs)


def _cap_counts(coords, dirs, s, threads=1):
    # Points with x . u >= s for each row u of dirs, tile by tile.  Each
    # tile's 0/1 bytes are summed as uint8 over runs of _BYTE_ROWS rows,
    # which cannot overflow, so the int64 counts of the tiles' flags are
    # exact.  The runs are summed in the widest unsigned lanes that divide
    # a row: each byte of a lane sums to at most 255, so no carry crosses
    # into the next byte, and the lane sums read as bytes are the byte
    # sums.  The flags are only as exact as the dot products BLAS returns:
    # their bits depend on the tile's shape, so a point within a few ulp of
    # the boundary may flip in a product of another shape.  The points are
    # cut into at most `threads` runs of whole tiles, counted in parallel;
    # the tiles do not depend on the cut and integer sums are exact, so the
    # cut never changes a count.
    if threads < 1:
        raise ValueError(f"need at least one thread, got threads={threads}")
    n_pts, m_dirs = coords.shape[0], len(dirs)
    lane = np.dtype(f"u{math.gcd(m_dirs, 8)}")
    rows = _tile_rows(m_dirs)
    tiles = -(-n_pts // rows)
    span = rows * max(1, -(-tiles // threads))  # points per run

    def count_run(lo):
        counts = np.zeros(m_dirs, dtype=np.int64)
        for p0 in range(lo, min(lo + span, n_pts), rows):
            inside = (coords[p0 : p0 + rows] @ dirs.T >= s).view(np.uint8)
            full = inside.shape[0] - inside.shape[0] % _BYTE_ROWS
            if full:
                runs = inside[:full].reshape(-1, _BYTE_ROWS, m_dirs).view(lane)
                sums = np.add.reduce(runs, axis=1, dtype=lane).view(np.uint8)
                counts += sums.sum(axis=0, dtype=np.int64)
            counts += np.add.reduce(inside[full:], axis=0, dtype=np.uint8)
        return counts

    counts = np.zeros(m_dirs, dtype=np.int64)
    for run in _map_blocks(count_run, range(0, n_pts, span), threads):
        counts += run
    return counts


def cap_discrepancy_fixed_height(
    ps: PointSet,
    s: float,
    M: int,
    refine: int = 0,
    directions: np.ndarray | None = None,
    threads: int = 1,
) -> DiscrepancyReport:
    """Lower bound of the sup over cap centers of |empirical - uniform measure|.

    Scans M deterministic directions (Fibonacci grid on S^2, Halton-mapped
    above), then runs `refine` rounds of a shrinking-step hill climb from
    the best direction: 2(n-1) tangent probes per round, step halved from
    0.1 rad when no probe improves, stopping below 1e-4 rad.  The report
    carries the counted witness direction and the refinement trace.

    Given `directions` replace the grid: an (M, n) array of nonzero finite
    rows, each normalized to unit length.  Caps are counted over point
    tiles of about 1 MiB of dot products, so memory does not grow with N or
    M; `threads` (>= 1) count runs of whole tiles in parallel (on the
    circle, the arc sweep's blocks), and since the counts are exact
    integer sums the result does not depend on it.

    On the circle (dim 2) the value is exact instead: the arc sweep over
    the half-open arcs [t, t + a) of a = arccos(s)/pi turns, for any s in
    (-1, 1); M, refine and directions are not used there.
    """
    if refine < 0:
        raise ValueError(f"refine must be >= 0, got {refine}")
    if not -1.0 < s < 1.0:
        raise ValueError(f"cap height must lie in (-1, 1), got {s}")
    if ps.dim == 2:
        # On the circle a height-s cap is an arc of arccos(s)/pi turns; like
        # arc-fixed, the sweep counts the half-open arcs [t, t + a).
        a = math.acos(s) / math.pi
        return _arc_sweep(ps, a, f"fixed-height(s={s!r})", threads)
    n = ps.dim
    target = cap_measure(n, s)
    if directions is None:
        dirs = direction_grid(n, M)
    else:
        dirs = np.asarray(directions, dtype=float)
        if dirs.ndim != 2 or dirs.shape[0] < 1 or dirs.shape[1] != n:
            raise ValueError(f"directions must be an (M, {n}) array with M >= 1, got {dirs.shape}")
        # Rejects non-finite and near-zero rows and renormalizes the rest.
        dirs = PointSet(dirs, Provenance("directions")).coords
    coords = ps.coords

    devs = np.abs(_cap_counts(coords, dirs, s, threads) / ps.size - target)
    i = int(np.argmax(devs))  # the first maximum
    u = dirs[i]
    current = float(devs[i])
    trace = [current]

    step = 0.1
    for _ in range(refine):
        if step < 1e-4:
            break
        # Probes u cos(step) +- tau sin(step) for each tangent tau, the +
        # probe first; negation is exact, so the - probe is u cos - tau sin.
        tangents = _tangent_basis(u)
        signed = np.stack([tangents, -tangents], axis=1).reshape(-1, n)
        probes = np.cos(step) * u + np.sin(step) * signed
        probes /= _row_norms(probes)[:, None]
        counts = _cap_counts(coords, probes, s, threads)
        devs = np.abs(counts / ps.size - target)
        i = int(np.argmax(devs))
        if devs[i] > current:
            current = float(devs[i])
            u = probes[i]
        else:
            step *= 0.5
        trace.append(current)

    return DiscrepancyReport(
        family=f"fixed-height(s={s!r})",
        value=current,
        witness={"center": [float(x) for x in u], "height": float(s)},
        method=f"sampled(M={dirs.shape[0]},refine={refine})",
        N=ps.size,
        trace=tuple(trace),
    )


def telescoping_check(ps: PointSet, a: float, m: int) -> TelescopeResult:
    """Wrapped-arc counting identity behind density of {m*a mod 1}.

    Tiles the line from 0 by the m intervals [p_j, p_{j+1}) with
    p_j = fl(j*a), wraps them onto the circle (in turns) and counts each
    point with multiplicity.  A turn x lies in the j-th tile
    ceil(p_{j+1} - x) - ceil(p_j - x) times, so the total telescopes to
    k*N + count([0, beta)) with k = floor(p_m) and beta = 2*pi*frac(p_m):
    lhs and rhs are equal for every input by construction, and both are
    read off p_m and one rank query, with no pass over the tiles.  m is
    at most 2^53, so float(m) is exact.
    """
    if ps.dim != 2:
        raise ValueError("telescoping identity is defined on the circle (dim 2)")
    if not 0.0 < a < 1.0:
        raise ValueError(f"arc fraction must lie in (0, 1), got {a}")
    if not 1 <= m <= 1 << 53:
        raise ValueError(f"need 1 <= m <= 2**53 arcs, got {m}")
    n = ps.size
    end = float(m) * a
    k = math.floor(end)
    frac = end - k  # exact
    count0 = int(np.count_nonzero(ps.turns() < frac))
    lhs = (k * n + count0) / n
    return TelescopeResult(lhs=lhs, k=k, beta=TWO_PI * frac, rhs=lhs)
