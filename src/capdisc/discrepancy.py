"""Empirical cap counts and sup-discrepancy machinery.

Arc families on the circle are handled exactly: the empirical count of a
half-open arc is piecewise constant in the starting angle, with breakpoints
where an endpoint crosses a data point, so the supremum is attained on a
finite evaluation set.  Cap families on higher spheres are searched over a
deterministic direction grid followed by a shrinking-step hill climb; those
values are certified lower bounds of the true supremum.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .sphere import TWO_PI, Cap, PointSet, cap_measure, fibonacci_sphere, generate_uniform

# Matches the brute-force perturbation scheme used to validate the sweep.
_EDGE_EPS = 1e-9

_SCAN_CHUNK = 256

# Arc starts evaluated per block in the arc sweep; keeps its memory O(N).
_SWEEP_BLOCK = 1 << 16


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
    """Both sides of the wrapped-arc counting identity (they must be equal)."""

    lhs: float
    k: int
    beta: float
    rhs: float


def empirical_cap_fraction(ps: PointSet, cap: Cap) -> float:
    """Fraction of points lying in the closed cap, an exact rational count/N."""
    if ps.dim != cap.dim:
        raise ValueError("dimension mismatch between point set and cap")
    if ps.size < 1:
        raise ValueError("empty point set")
    count = int(np.count_nonzero(ps.coords @ cap.center >= cap.height))
    return count / ps.size


def _count_ranks(psi_sorted, lo, hi, wrapped):
    # Points in [lo, hi), or in [lo, 1) and [0, hi) where wrapped, by rank
    # differences on the sorted turns.
    lo_rank = np.searchsorted(psi_sorted, lo, side="left")
    hi_rank = np.searchsorted(psi_sorted, hi, side="left")
    return np.where(wrapped, (psi_sorted.size - lo_rank) + hi_rank, hi_rank - lo_rank)


def count_in_arcs(psi_sorted: np.ndarray, theta0, a: float) -> np.ndarray:
    """Points in the half-open arcs [theta0, theta0 + a), everything in turns.

    psi_sorted must be sorted values in [0, 1); theta0 is an array of arc
    starts in [0, 1).  Membership is psi >= lo and psi < lo + a with
    wraparound, evaluated by rank differences on the sorted array.
    """
    lo = np.atleast_1d(np.asarray(theta0, dtype=float))
    hi = lo + a
    wrapped = hi >= 1.0
    return _count_ranks(psi_sorted, lo, np.where(wrapped, hi - 1.0, hi), wrapped)


def arc_discrepancy_fixed_length(ps: PointSet, a: float) -> DiscrepancyReport:
    """Exact sup over starting angles of |empirical([t0, t0+2*pi*a)) - a|.

    The count is piecewise constant in the starting angle with breakpoints
    at each point and each point minus the arc length; evaluating there and
    at one-sided offsets covers every piece, so the sweep is exact
    (O(N log N): one sort plus vectorized rank queries).
    """
    if ps.dim != 2:
        raise ValueError("fixed-length arcs are defined on the circle (dim 2)")
    if not 0.0 < a < 0.5:
        raise ValueError(f"arc fraction must lie in (0, 1/2), got {a}")
    return _arc_sweep(ps, a, family=f"fixed-length(a={a!r})")


def _arc_sweep(ps: PointSet, a: float, family: str) -> DiscrepancyReport:
    psi = np.sort(ps.turns())
    entries = psi - a
    entries = np.where(entries < 0.0, entries + 1.0, entries)
    # Evaluation order: starts, entries, then both again at +eps and -eps.
    # The strict ">" keeps the first maximum in that order as the witness.
    # Adding 0.0 only turns -0.0 into 0.0, which np.mod does anyway.
    best_val, best_start = -1.0, 0.0
    for offset in (0.0, _EDGE_EPS, -_EDGE_EPS):
        for base in (psi, entries):
            for lo in range(0, base.size, _SWEEP_BLOCK):
                pts = np.mod(base[lo : lo + _SWEEP_BLOCK] + offset, 1.0)
                pts = np.where(pts >= 1.0, 0.0, pts)
                dev = np.abs(count_in_arcs(psi, pts, a) / ps.size - a)
                i = int(np.argmax(dev))
                if dev[i] > best_val:
                    best_val, best_start = float(dev[i]), float(pts[i])
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
    anchored-arc ([0, beta)) supremum comes from the neighboring piece
    values at each point.
    """
    if ps.dim != 2:
        raise ValueError("circle discrepancy is defined on the circle (dim 2)")
    psi = np.sort(ps.turns())
    n = ps.size
    ranks = np.arange(1, n + 1) / n
    profile = ranks - psi
    j_hi = int(np.argmax(profile))
    j_lo = int(np.argmin(profile))
    value = 1.0 / n + float(profile[j_hi] - profile[j_lo])

    padded = np.concatenate([[0.0], psi, [1.0]])
    levels = np.arange(0, n + 1) / n
    star = float(
        max(np.abs(levels - padded[:-1]).max(), np.abs(levels - padded[1:]).max())
    )

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


def _deviation_scan(coords, dirs, s, target, threads):
    n_pts = coords.shape[0]

    def scan_chunk(c0):
        block = dirs[c0 : c0 + _SCAN_CHUNK]
        counts = (coords @ block.T >= s).sum(axis=0)
        dev = np.abs(counts / n_pts - target)
        i = int(np.argmax(dev))
        return float(dev[i]), c0 + i

    starts = range(0, dirs.shape[0], _SCAN_CHUNK)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(scan_chunk, starts))
    else:
        results = [scan_chunk(c0) for c0 in starts]

    best_val, best_idx = -1.0, -1
    for val, idx in results:  # deterministic order regardless of thread count
        if val > best_val or (val == best_val and idx < best_idx):
            best_val, best_idx = val, idx
    return best_val, best_idx


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
    carries the witness direction and the refinement trace.
    """
    if ps.dim == 2:
        # On the circle a fixed-height cap is a fixed-length closed arc.
        a = math.acos(s) / math.pi
        return _arc_sweep(ps, a, family=f"fixed-height(s={s!r})")
    if not -1.0 < s < 1.0:
        raise ValueError(f"cap height must lie in (-1, 1), got {s}")
    if M < 1:
        raise ValueError("need at least one direction")
    n = ps.dim
    target = cap_measure(n, s)
    dirs = direction_grid(n, M) if directions is None else np.asarray(directions, dtype=float)
    coords = ps.coords

    best_val, best_idx = _deviation_scan(coords, dirs, s, target, threads)
    u = dirs[best_idx] / np.linalg.norm(dirs[best_idx])
    trace = [best_val]

    step = 0.1
    current = best_val
    for _ in range(refine):
        if step < 1e-4:
            break
        tangents = _tangent_basis(u)
        probes = []
        for tau in tangents:
            probes.append(np.cos(step) * u + np.sin(step) * tau)
            probes.append(np.cos(step) * u - np.sin(step) * tau)
        probes = np.array(probes)
        probes /= np.linalg.norm(probes, axis=1)[:, None]
        counts = (coords @ probes.T >= s).sum(axis=0)
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

    Tiles [0, 2*pi*m*a) by m consecutive arcs of length 2*pi*a taken mod
    2*pi, writes 2*pi*m*a = beta + 2*pi*k, and compares the total count
    over the tiles with k*N plus the count of [0, beta).  Both sides are
    computed from integer counts, so equality is exact whenever the
    half-open convention is applied consistently.
    """
    if ps.dim != 2:
        raise ValueError("telescoping identity is defined on the circle (dim 2)")
    if not 0.0 < a < 1.0:
        raise ValueError(f"arc fraction must lie in (0, 1), got {a}")
    if m < 1:
        raise ValueError(f"need m >= 1 arcs, got {m}")
    psi = np.sort(ps.turns())
    n = ps.size

    pos = np.arange(m + 1, dtype=float) * a
    frac = pos - np.floor(pos)
    lo, hi = frac[:-1], frac[1:]
    wrapped = lo > hi
    total = int(_count_ranks(psi, lo, hi, wrapped).sum())

    # Wrap count of the endpoint walk; equals floor(m*a) in exact arithmetic.
    k = int(np.count_nonzero(wrapped))
    count0 = int(np.searchsorted(psi, frac[-1], side="left"))
    return TelescopeResult(
        lhs=total / n,
        k=k,
        beta=float(TWO_PI * frac[-1]),
        rhs=(k * n + count0) / n,
    )
