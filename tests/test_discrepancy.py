"""Tests for the discrepancy machinery: exact sweeps, sampled cap search,
and the telescoping identity."""

import math
import tracemalloc
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import capdisc.discrepancy
import capdisc.sphere
from capdisc import (
    Cap,
    Driver,
    PointSet,
    Provenance,
    TelescopeResult,
    ZonalDensity,
    arc_discrepancy_fixed_length,
    cap_discrepancy_fixed_height,
    cap_measure,
    circle_discrepancy,
    fibonacci_sphere,
    generate_qud,
    generate_uniform,
    telescoping_check,
)
from capdisc.discrepancy import _arc_ends, _cap_counts, _tile_rows, direction_grid

TWO_PI = 2.0 * math.pi
S5 = 1.0 / math.sqrt(5.0)
EPS = 1e-9  # perturbation used by the brute-force evaluation


def fibonacci_points(N):
    return PointSet(fibonacci_sphere(N), Provenance(f"fibonacci(N={N})", 0))


def cap_fraction(ps, cap):
    """count/N of the closed cap, counted by the cap scan's kernel."""
    return int(_cap_counts(ps.coords, cap.center[None, :], cap.height)[0]) / ps.size


def pointset_from_turns(psi, tag="turns"):
    theta = TWO_PI * np.asarray(psi, dtype=float)
    coords = np.column_stack([np.cos(theta), np.sin(theta)])
    return PointSet(coords, Provenance(tag, 0))


def brute_count(psi, theta0, a):
    """Direct per-point membership in [theta0, theta0 + a) with wraparound."""
    lo = theta0
    hi = theta0 + a
    total = 0
    for x in psi:
        if hi >= 1.0:
            inside = x >= lo or x < hi - 1.0
        else:
            inside = lo <= x < hi
        total += inside
    return total


def brute_arc_discrepancy(psi, a):
    """Exhaustive evaluation at every breakpoint +- 1e-9 perturbations."""
    base = list(psi) + [(x - a) % 1.0 for x in psi]
    candidates = []
    for b in base:
        for t0 in (b - EPS, b, b + EPS):
            candidates.append(t0 % 1.0)
    n = len(psi)
    return max(abs(brute_count(psi, t0, a) / n - a) for t0 in candidates)


def old_count_in_arcs(psi_sorted, theta0, a):
    """Float rank counts of [theta0, theta0 + a), as the sweep once took them."""
    lo = np.atleast_1d(np.asarray(theta0, dtype=float))
    hi = lo + a
    wrapped = hi >= 1.0
    hi = np.where(wrapped, hi - 1.0, hi)
    lo_rank = np.searchsorted(psi_sorted, lo, side="left")
    hi_rank = np.searchsorted(psi_sorted, hi, side="left")
    return np.where(wrapped, (psi_sorted.size - lo_rank) + hi_rank, hi_rank - lo_rank)


def concatenated_arc_sweep_value(ps, a):
    """The value of the old sweep, evaluated as one 6N array: every
    breakpoint and the same point +- 1e-9, counted in floats."""
    psi = np.sort(ps.turns())
    entries = psi - a
    entries = np.where(entries < 0.0, entries + 1.0, entries)
    base = np.concatenate([psi, entries])
    pts = np.mod(np.concatenate([base, base + EPS, base - EPS]), 1.0)
    pts = np.where(pts >= 1.0, 0.0, pts)
    return float(np.abs(old_count_in_arcs(psi, pts, a) / ps.size - a).max())


def exact_arc_counts(psi, a):
    """Counts of [t, t + a), t at the starts psi_i and then at the entries
    psi_i - a (mod 1), in exact integer arithmetic on the float turns."""
    ratios = [float(x).as_integer_ratio() for x in [*psi, a]]
    one = max(den for _, den in ratios)  # every denominator is a power of two
    *p, length = [num * (one // den) for num, den in ratios]

    def count(t):
        hi = t + length
        if hi <= one:
            return bisect_left(p, hi) - bisect_left(p, t)
        return len(p) - bisect_left(p, t) + bisect_left(p, hi - one)

    return np.array([count(x) for x in p] + [count((x - length) % one) for x in p])


def oracle_deviations(ps, a):
    """Deviations |count/N - a| in the sweep's evaluation order (starts,
    then entries), from exact counts, with the sorted turns."""
    psi = np.sort(ps.turns())
    return np.abs(exact_arc_counts(psi.tolist(), a) / ps.size - a), psi


def reported_start(psi, a, i):
    """The witness turn the sweep reports for breakpoint i of the order
    starts, then entries: the float psi_i or psi_i - a, wrapped into [0, 1)."""
    n = psi.size
    start = float(psi[i] + 0.0) if i < n else float(psi[i - n] - a)
    if start < 0.0:
        start += 1.0
    return start % 1.0


def oracle_arc_sweep(ps, a):
    """(value, theta0, ties) of the exact sup: the first maximum over the
    starts, then the entries."""
    dev, psi = oracle_deviations(ps, a)
    i = int(np.argmax(dev))
    return float(dev[i]), TWO_PI * reported_start(psi, a, i), int(np.count_nonzero(dev == dev[i]))


def serial_arc_sweep(ps, a, block):
    """The sweep as one serial loop over blocks of starts, then of entries,
    keeping the first block maximum that is strictly larger: (value, theta0)."""
    dev, psi = oracle_deviations(ps, a)
    n = psi.size
    best_val, best_i = -1.0, 0
    for offset in (0, n):
        for lo in range(offset, offset + n, block):
            part = dev[lo : min(lo + block, offset + n)]
            i = int(np.argmax(part))
            if part[i] > best_val:
                best_val, best_i = float(part[i]), lo + i
    return best_val, TWO_PI * reported_start(psi, a, best_i)


def brute_circle_extreme(psi):
    """All-pairs sup over arcs: overfull closures and underfull interiors."""
    x = np.sort(np.asarray(psi, dtype=float))
    n = x.size
    best = 0.0
    for i in range(n):
        for j in range(n):
            length = (x[j] - x[i]) % 1.0
            covered = (j - i) % n + 1  # points i..j cyclically
            best = max(best, covered / n - length)
            if i != j:
                inside = (j - i) % n - 1  # strictly between i and j
                best = max(best, length - inside / n)
            else:
                best = max(best, 1.0 - (n - 1) / n)  # open full loop
    return best


def test_empirical_cap_fraction_trivial():
    e = np.array([0.0, 0.0, 1.0])
    ps = PointSet(np.tile(e, (5, 1)), Provenance("copies", 0))
    assert cap_fraction(ps, Cap(e, 0.5)) == 1.0
    pair = PointSet(np.array([e, -e]), Provenance("antipodal", 0))
    assert cap_fraction(pair, Cap(e, 0.0)) == 0.5
    with pytest.raises(ValueError):
        cap_fraction(pair, Cap(np.array([1.0, 0.0]), 0.0))
    # a point on the boundary circle of a closed cap counts as inside
    boundary = PointSet(np.array([[0.0, 1.0]]), Provenance("boundary", 0))
    assert cap_fraction(boundary, Cap(np.array([1.0, 0.0]), 0.0)) == 1.0
    with pytest.raises(ValueError):
        Cap(e, 1.0)


@pytest.mark.parametrize("s", [0.0, 0.5, S5, -0.3])
def test_empirical_cap_fraction_counts_points_on_the_boundary(s):
    # Points with x . center == s exactly (their x and y meet zeros of the
    # center), one ulp inside and one ulp outside the closed cap.
    e = np.array([0.0, 0.0, 1.0])
    phi = np.linspace(0.0, TWO_PI, 7, endpoint=False)
    coords = []
    for z, copies in ((s, 7), (np.nextafter(s, 2.0), 3), (np.nextafter(s, -2.0), 5)):
        r = math.sqrt(1.0 - z * z)
        coords.append(np.column_stack([r * np.cos(phi), r * np.sin(phi), np.full(7, z)])[:copies])
    ps = PointSet(np.vstack(coords), Provenance("boundary", 0))
    assert np.array_equal(ps.coords[:7, 2], np.full(7, s))  # kept bit for bit
    assert cap_fraction(ps, Cap(e, s)) == 10 / 15
    assert cap_fraction(ps, Cap(-e, -s)) == 12 / 15


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_empirical_cap_fraction_matches_the_direct_count(n):
    rng = np.random.default_rng(n)
    ps = generate_uniform(n, 20_000, "random", seed=n)
    for _ in range(20):
        cap = Cap(rng.standard_normal(n), float(rng.uniform(-0.9, 0.9)))
        direct = int(np.count_nonzero(ps.coords @ cap.center >= cap.height))
        assert cap_fraction(ps, cap) == direct / ps.size


def test_half_circle_arcs_on_square_lattice():
    # 4 equally spaced points: any closed half-circle avoiding boundary
    # alignments catches exactly 2 of them
    ps = pointset_from_turns([0.0, 0.25, 0.5, 0.75])
    rng = np.random.default_rng(13)
    for _ in range(25):
        alpha = float(rng.uniform(0.01, 0.24))
        center = np.array([math.cos(TWO_PI * alpha), math.sin(TWO_PI * alpha)])
        assert cap_fraction(ps, Cap(center, 0.0)) == 0.5


def test_arc_sweep_lattice_exact_zero():
    # turns j/4 and a = 1/4 are exact dyadics: every half-open arc of
    # length 1/4 contains exactly one point, so the sweep returns 0.0
    ps = pointset_from_turns([0.0, 0.25, 0.5, 0.75])
    assert arc_discrepancy_fixed_length(ps, 0.25).value == 0.0


def test_arc_sweep_single_point():
    ps = pointset_from_turns([0.37])
    rep = arc_discrepancy_fixed_length(ps, 0.25)
    assert rep.value == 0.75
    assert rep.method == "exact"
    assert rep.N == 1


def test_arc_sweep_matches_brute_force_on_lattices():
    for n in (4, 5, 6, 7, 8):
        psi = np.arange(n) / n
        ps = pointset_from_turns(psi)
        a = 1.0 / n
        got = arc_discrepancy_fixed_length(ps, a).value
        assert got == brute_arc_discrepancy(np.sort(ps.turns()), a)


def test_arc_sweep_matches_brute_force_random():
    rng = np.random.default_rng(21)
    for trial in range(100):
        n = int(rng.integers(1, 51))
        psi = rng.uniform(0.0, 1.0, n)
        a = float(rng.uniform(0.02, 0.48))
        ps = pointset_from_turns(psi, tag=f"rand{trial}")
        got = arc_discrepancy_fixed_length(ps, a).value
        want = brute_arc_discrepancy(np.sort(ps.turns()), a)
        assert got == want, (trial, n, a)


EDGE_TURNS = [0.0, 5e-324, 2.0**-54, 0.25, 0.5, 1.0 - 2.0**-53]
TOUCH_EPS = [0.0, 1e-17, -1e-17, 3e-10, -3e-10]


def nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
    return x


@st.composite
def near_touching_arcs(draw, lengths):
    """(point set, p): turns with duplicated points and with points at
    another turn + a + eps, where lengths(turns) draws p and gives a(p)."""
    base = draw(
        st.lists(
            st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(EDGE_TURNS)),
            min_size=1,
            max_size=20,
        )
    )
    turns = pointset_from_turns(base).turns()
    p, a = draw(lengths(turns))
    dups = draw(st.lists(st.sampled_from(base), max_size=5))
    touch = draw(st.lists(st.tuples(st.sampled_from(turns), st.sampled_from(TOUCH_EPS)), max_size=15))
    extra = [(float(t) + a + eps) % 1.0 for t, eps in touch]
    return pointset_from_turns(base + dups + extra), p


def turn_differences(turns):
    # (t_j - t_i) mod 1, moved by up to two ulps: arcs whose ends fall on
    # or next to a turn.
    pairs = st.tuples(st.sampled_from(turns), st.sampled_from(turns), st.integers(-2, 2))
    return pairs.map(lambda t: nudged(float((t[1] - t[0]) % 1.0), t[2]))


def short_arcs(turns):
    edges = st.sampled_from([1e-12, 2.0**-40, 0.5 - 1e-12, float(np.nextafter(0.5, 0.0))])
    a = st.one_of(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True), edges, turn_differences(turns))
    return a.filter(lambda x: 0.0 < x < 0.5).map(lambda x: (x, x))


def negative_heights(turns):
    # Circle caps of height s < 0 are arcs of a = arccos(s)/pi in (1/2, 1).
    edges = st.sampled_from([-1e-12, -0.5, float(np.nextafter(-1.0, 0.0))])
    near = turn_differences(turns).filter(lambda d: 0.5 < d < 1.0).map(lambda d: math.cos(math.pi * d))
    s = st.one_of(st.floats(-1.0, 0.0, exclude_min=True, exclude_max=True), edges, near)
    return s.filter(lambda x: -1.0 < x < 0.0).map(lambda x: (x, math.acos(x) / math.pi))


@st.composite
def turns_and_steps(draw):
    # Raw float turns (tiny ones included) and a step +-a, a in (0, 1),
    # often a difference of two turns moved by a few ulps.
    base = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=20))
    a = draw(
        st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            turn_differences(base),
        ).filter(lambda x: 0.0 < x < 1.0)
    )
    return np.array(base), draw(st.sampled_from([a, -a]))


@given(turns_and_steps())
def test_arc_ends_are_exact_rank_queries(case):
    base, step = case
    q, wrapped = _arc_ends(base, step)
    for b, qi, w in zip(base.tolist(), q.tolist(), wrapped.tolist()):
        end = Fraction(b) + Fraction(step)
        assert w == (not 0 <= end < 1), (b, step)
        # qi is the smallest float >= the end taken mod 1
        assert Fraction(float(np.nextafter(qi, -1.0))) < end % 1 <= Fraction(qi), (b, step)


@given(near_touching_arcs(short_arcs))
def test_arc_sweep_equals_exact_oracle(case):
    ps, a = case
    rep = arc_discrepancy_fixed_length(ps, a)
    value, theta0, _ = oracle_arc_sweep(ps, a)
    assert rep.value == value
    assert rep.witness["theta0"] == theta0


@given(near_touching_arcs(negative_heights))
def test_circle_cap_sweep_past_half_a_turn_equals_exact_oracle(case):
    ps, s = case
    rep = cap_discrepancy_fixed_height(ps, s, M=1)
    value, theta0, _ = oracle_arc_sweep(ps, math.acos(s) / math.pi)
    assert rep.value == value
    assert rep.witness["theta0"] == theta0


@pytest.mark.parametrize("n", [2**16 - 1, 2**16 + 3])
@pytest.mark.parametrize("kind", ["random", "duplicates", "kronecker"])
def test_arc_sweep_matches_concatenated_sweep(n, kind):
    rng = np.random.default_rng(n)
    if kind == "random":
        ps = pointset_from_turns(rng.uniform(0.0, 1.0, n))
    elif kind == "duplicates":
        ps = pointset_from_turns(rng.integers(0, 997, n) / 997)
    else:
        ps = generate_uniform(2, n, "kronecker_s1")
    for a in (1.0 / 3.0, 0.3, 0.25, 0.01):
        rep = arc_discrepancy_fixed_length(ps, a)
        value, theta0, ties = oracle_arc_sweep(ps, a)
        assert rep.value == value == concatenated_arc_sweep_value(ps, a), (kind, n, a)
        assert rep.witness["theta0"] == theta0, (kind, n, a)
        if kind == "kronecker":
            assert ties > 1  # the witness is the first of several maxima


def assert_sweep_matches_serial(ps, a, block, **kw):
    value, theta0 = serial_arc_sweep(ps, a, block)
    for threads in (1, 2, 3):
        rep = arc_discrepancy_fixed_length(ps, a, threads=threads, **kw)
        assert np.float64(rep.value).view(np.int64) == np.float64(value).view(np.int64), threads
        got = np.float64(rep.witness["theta0"]).view(np.int64)
        assert got == np.float64(theta0).view(np.int64), threads


@pytest.mark.parametrize("kind", ["random", "duplicates", "kronecker"])
def test_threaded_arc_sweep_bit_identical_to_serial_at_block_edges(monkeypatch, kind):
    block = 61
    monkeypatch.setattr(capdisc.discrepancy, "_SWEEP_BLOCK", block)
    rng = np.random.default_rng(block)
    for n in (1, block - 1, block, block + 1, 7 * block + 3):
        if kind == "random":
            ps = pointset_from_turns(rng.uniform(0.0, 1.0, n))
        elif kind == "duplicates":
            ps = pointset_from_turns(rng.integers(0, 13, n) / 13)
        else:
            ps = generate_uniform(2, n, "kronecker_s1", seed=5)
        for a in (1.0 / 3.0, 0.3, 0.01):
            assert_sweep_matches_serial(ps, a, block)


@pytest.mark.parametrize("kind", ["random", "kronecker"])
def test_threaded_arc_sweep_bit_identical_to_serial_past_one_block(kind):
    n = 2**16 + 3
    if kind == "random":
        ps = pointset_from_turns(np.random.default_rng(n).uniform(0.0, 1.0, n))
    else:
        ps = generate_uniform(2, n, "kronecker_s1", seed=17)
    for a in (1.0 / 3.0, 0.3):
        assert_sweep_matches_serial(ps, a, 2**16)


def test_threaded_arc_sweep_keeps_the_first_of_maxima_tied_across_blocks(monkeypatch):
    # Two identical clusters half a turn apart: the arcs starting at either
    # cluster hold the same count, so the maximum is tied between block 0
    # and block 1 of the starts, and the first one must be the witness.
    block = 4
    monkeypatch.setattr(capdisc.discrepancy, "_SWEEP_BLOCK", block)
    cluster = 0.1 + 1e-3 * np.arange(block)
    ps = pointset_from_turns(np.concatenate([cluster, cluster + 0.5]))
    a = 0.25
    dev, psi = oracle_deviations(ps, a)
    starts = dev[: ps.size]
    assert starts[0] == starts[block] == dev.max()
    assert_sweep_matches_serial(ps, a, block)
    rep = arc_discrepancy_fixed_length(ps, a, threads=2)
    assert rep.witness["theta0"] == TWO_PI * psi[0]


@pytest.mark.parametrize("threads", [1, 2])
def test_arc_sweep_ranks_runs_of_equal_turns_across_block_edges(monkeypatch, threads):
    # A block's own rank of a turn is that of the first of its ties, which
    # for a run straddling a block edge lies in an earlier block.  Two runs
    # straddle edges one arc apart with nothing between them, so the arcs
    # that start (or, for the entries, end) in one miss the other and are
    # underfull, and a count short by some ties would exceed the true sup.
    # A third run starts on an edge; the other turns are evenly spaced.
    block = 4
    monkeypatch.setattr(capdisc.discrepancy, "_SWEEP_BLOCK", block)
    after = 0.45 + (np.arange(22) + 0.5) * 0.55 / 22
    after[10:13] = after[10]
    turns = np.concatenate([(np.arange(10) + 0.5) / 40, np.full(4, 0.25), np.full(4, 0.45), after])
    ps = pointset_from_turns(np.random.default_rng(block).permutation(turns))
    psi = np.sort(ps.turns())
    assert psi[9] < psi[10] == psi[13] < psi[14] == psi[17] < psi[18]
    assert psi[27] < psi[28] == psi[30] < psi[31]
    arc = psi[14] - psi[10]  # exact: Sterbenz
    assert psi[10] + arc == psi[14]
    for a in (arc, 1.0 / 3.0, 0.3, 0.01):
        rep = arc_discrepancy_fixed_length(ps, a, threads=threads)
        value, theta0, _ = oracle_arc_sweep(ps, a)
        assert rep.value == value and rep.witness["theta0"] == theta0, a
        assert_sweep_matches_serial(ps, a, block)


def test_arc_sweep_rejects_fewer_than_one_thread():
    ps = pointset_from_turns([0.1, 0.4])
    for threads in (0, -2):
        with pytest.raises(ValueError, match="thread"):
            arc_discrepancy_fixed_length(ps, 0.3, threads=threads)


def test_arc_sweep_memory_is_linear_with_small_constant():
    n = 2**20
    ps = pointset_from_turns(np.random.default_rng(23).uniform(0.0, 1.0, n))
    tracemalloc.start()
    try:
        arc_discrepancy_fixed_length(ps, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * 8  # below 8 float64 arrays of length N


def test_arc_sweep_validation():
    ps = pointset_from_turns([0.1, 0.4])
    with pytest.raises(ValueError):
        arc_discrepancy_fixed_length(ps, 0.5)
    with pytest.raises(ValueError):
        arc_discrepancy_fixed_length(ps, 0.0)
    sphere_ps = fibonacci_points(10)
    with pytest.raises(ValueError):
        arc_discrepancy_fixed_length(sphere_ps, 0.25)
    with pytest.raises(ValueError, match="defined on the circle"):
        circle_discrepancy(sphere_ps)
    with pytest.raises(ValueError, match="dim 2 only"):
        sphere_ps.turns()


def test_arc_sweep_rotation_equivariance():
    rng = np.random.default_rng(22)
    psi = rng.uniform(0.0, 1.0, 80)
    ps = pointset_from_turns(psi)
    c, s = math.cos(1.234567), math.sin(1.234567)
    rotated = PointSet(ps.coords @ np.array([[c, -s], [s, c]]).T, ps.provenance)
    a = 0.245
    assert arc_discrepancy_fixed_length(ps, a).value == arc_discrepancy_fixed_length(
        rotated, a
    ).value


def test_circle_discrepancy_lattice():
    for n in (2, 4, 5, 8):
        ps = pointset_from_turns(np.arange(n) / n)
        rep = circle_discrepancy(ps)
        assert rep.value == pytest.approx(1.0 / n, abs=1e-15)
        assert rep.star_value == pytest.approx(1.0 / n, abs=1e-15)


def test_circle_discrepancy_single_point():
    rep = circle_discrepancy(pointset_from_turns([0.3]))
    assert rep.value == 1.0
    assert rep.star_value == pytest.approx(0.7, abs=1e-12)


def test_circle_discrepancy_matches_all_pairs_oracle():
    rng = np.random.default_rng(23)
    for trial in range(40):
        n = int(rng.integers(1, 9))
        psi = rng.uniform(0.0, 1.0, n)
        ps = pointset_from_turns(psi, tag=f"c{trial}")
        got = circle_discrepancy(ps).value
        want = brute_circle_extreme(np.sort(ps.turns()))
        assert got == pytest.approx(want, abs=1e-14), (trial, n)


def test_circle_discrepancy_star_is_anchored_sup():
    rng = np.random.default_rng(24)
    psi = np.sort(rng.uniform(0.0, 1.0, 30))
    ps = pointset_from_turns(psi)
    star = circle_discrepancy(ps).star_value
    # brute force over anchored arcs [0, beta) at breakpoints +- eps
    candidates = []
    for b in psi:
        candidates += [max(0.0, b - EPS), b, min(1.0, b + EPS)]
    candidates += [0.0, 1.0 - 1e-15]
    want = max(abs(np.sum(psi < b) / psi.size - b) for b in candidates)
    assert star == pytest.approx(want, abs=1e-8)
    assert circle_discrepancy(ps).value >= star - 1e-15


def test_kronecker_circle_discrepancy():
    ps = generate_uniform(2, 1000, "kronecker_s1")
    assert circle_discrepancy(ps).value < 0.005


def whole_array_angles(coords):
    """The angles and turns as one whole-array pass each: the bits that the
    blocked turns() must reproduce."""
    theta = np.arctan2(coords[:, 1], coords[:, 0]) + 0.0
    theta = np.where(theta < 0.0, theta + TWO_PI, theta)
    theta = np.where(theta >= TWO_PI, 0.0, theta)
    psi = theta / TWO_PI
    return theta, np.where(psi >= 1.0, 0.0, psi)


def whole_array_circle(psi):
    """circle_discrepancy over whole arrays: (value, star_value, witness)."""
    psi = np.sort(psi)
    n = psi.size
    profile = np.arange(1, n + 1) / n - psi
    j_hi, j_lo = int(np.argmax(profile)), int(np.argmin(profile))
    value = 1.0 / n + float(profile[j_hi] - profile[j_lo])
    padded = np.concatenate([[0.0], psi, [1.0]])
    levels = np.arange(0, n + 1) / n
    star = float(max(np.abs(levels - padded[:-1]).max(), np.abs(levels - padded[1:]).max()))
    length = psi[j_hi] - psi[j_lo]
    if length < 0.0:
        length += 1.0
    return value, star, {"theta0": float(TWO_PI * psi[j_lo]), "length": float(TWO_PI * length)}


# (1, -0.0), whose atan2 is -0.0; the negative axes; and tiny negative
# angles, the first 44 of which wrap from 2 pi to 0 after + 2 pi.
EDGE_POINTS = np.array(
    [[1.0, -0.0], [-1.0, 0.0], [-1.0, -0.0], [0.0, -1.0], [0.0, 1.0]]
    + [[1.0, -k * 1e-17] for k in range(1, 100)]
)


def edge_case_points(n, seed):
    # Turns on a 4099-point lattice, so most are duplicated, with the edge
    # points at random rows.
    rng = np.random.default_rng(seed)
    theta = TWO_PI * (rng.integers(0, 4099, n) / 4099)
    coords = np.column_stack([np.cos(theta), np.sin(theta)])
    m = min(n, len(EDGE_POINTS))
    coords[rng.choice(n, m, replace=False)] = EDGE_POINTS[:m]
    return PointSet(coords, Provenance("edges", seed))


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def assert_circle_bits(ps, psi):
    value, star, witness = whole_array_circle(psi)
    rep = circle_discrepancy(ps)
    assert bits(rep.value) == bits(value)
    assert bits(rep.star_value) == bits(star)
    assert rep.witness.keys() == witness.keys()
    for key, x in witness.items():
        assert bits(rep.witness[key]) == bits(x), key


def test_edge_points_take_the_wraps():
    raw = np.arctan2(EDGE_POINTS[:, 1], EDGE_POINTS[:, 0])
    theta, psi = whole_array_angles(EDGE_POINTS)
    assert np.signbit(raw[0]) and bits(theta[0]) == 0
    tiny = raw[5:]
    assert np.all(tiny < 0.0)
    assert np.count_nonzero(tiny + TWO_PI == TWO_PI) == 44
    assert np.all(theta[5:49] == 0.0) and np.all(psi[49:] < 1.0) and np.all(psi[49:] > 0.99)


@pytest.mark.parametrize("n", [1, 2, 65_535, 65_536, 65_537, 200_003])
def test_blocked_angles_and_circle_bit_identical_to_whole_arrays(n):
    ps = edge_case_points(n, n)
    _, psi = whole_array_angles(ps.coords)
    assert np.array_equal(bits(ps.turns()), bits(psi))
    assert_circle_bits(ps, psi)


def test_blocked_angles_and_circle_bit_identical_at_small_blocks(monkeypatch):
    block = 61
    monkeypatch.setattr(capdisc.sphere, "_SWEEP_BLOCK", block)
    monkeypatch.setattr(capdisc.discrepancy, "_SWEEP_BLOCK", block)
    for n in (block - 1, block, block + 1, 7 * block + 3, 300 * block):
        ps = edge_case_points(n, n)
        _, psi = whole_array_angles(ps.coords)
        assert np.array_equal(bits(ps.turns()), bits(psi)), n
        assert_circle_bits(ps, psi)


@pytest.mark.parametrize("block", [4, 2**16])
def test_circle_keeps_the_first_extremes_tied_across_a_block_edge(monkeypatch, block):
    # Turns 0 in the first block and 1/2 in the second, N = 2 * block: the
    # profile m/N - x_m reaches its maximum 1/2 at the last point of each
    # block and its minimum 1/N at the first point of each, all exactly.
    # The first of each pair is the witness: an arc of length 0 at 0.
    monkeypatch.setattr(capdisc.discrepancy, "_SWEEP_BLOCK", block)
    ps = PointSet(np.repeat([[1.0, 0.0], [-1.0, 0.0]], block, axis=0), Provenance("halves", 0))
    psi = ps.turns()
    assert np.array_equal(psi, np.repeat([0.0, 0.5], block))
    rep = circle_discrepancy(ps)
    assert rep.value == 0.5
    assert rep.witness == {"theta0": 0.0, "length": 0.0}
    assert_circle_bits(ps, psi)


def test_turns_and_circle_memory_is_one_array_plus_blocks():
    n = 2**20
    ps = pointset_from_turns(np.random.default_rng(23).uniform(0.0, 1.0, n))
    arrays = {}
    for name, run in (
        ("turns", ps.turns),
        ("circle", lambda: circle_discrepancy(ps)),
        ("arc, one thread", lambda: arc_discrepancy_fixed_length(ps, 0.3)),
        ("arc, two threads", lambda: arc_discrepancy_fixed_length(ps, 0.3, threads=2)),
    ):
        tracemalloc.start()
        try:
            run()
            arrays[name] = tracemalloc.get_traced_memory()[1] / (8 * n)
        finally:
            tracemalloc.stop()
    # Float64 arrays of length N at the peak: the result or the sorted
    # turns, plus O(block) temporaries per thread.
    assert arrays["turns"] < 1.5, arrays
    assert arrays["circle"] < 2.0, arrays
    assert arrays["arc, one thread"] < 1.5, arrays
    assert arrays["arc, two threads"] < 2.0, arrays


def test_cap_search_single_point():
    ps = PointSet(np.array([[0.0, 0.0, 1.0]]), Provenance("one", 0))
    rep = cap_discrepancy_fixed_height(ps, 0.0, M=500, refine=5)
    assert rep.value == 0.5
    assert rep.method == "sampled(M=500,refine=5)"
    assert rep.trace is not None


def test_cap_search_uniform_fibonacci():
    ps = fibonacci_points(10_000)
    rep = cap_discrepancy_fixed_height(ps, S5, M=2000, refine=10)
    assert rep.value < 0.01


def test_cap_search_monotone_in_directions():
    ps = fibonacci_points(2000)
    base = fibonacci_sphere(64)
    extra = np.vstack([base, fibonacci_sphere(37)])
    small = cap_discrepancy_fixed_height(ps, 0.2, M=64, refine=0, directions=base)
    large = cap_discrepancy_fixed_height(ps, 0.2, M=101, refine=0, directions=extra)
    assert large.value >= small.value


def test_cap_search_thread_count_independent(monkeypatch):
    # More points than one tile of the scan (187 rows for M = 700) and of the
    # probes (32768 rows), so the scan and every hill-climb round split.
    threads_seen = []
    count = capdisc.discrepancy._cap_counts

    def recording_count(coords, dirs, s, threads=1):
        threads_seen.append(threads)
        return count(coords, dirs, s, threads)

    monkeypatch.setattr(capdisc.discrepancy, "_cap_counts", recording_count)
    ps = fibonacci_points(40_000)
    a = cap_discrepancy_fixed_height(ps, 0.3, M=700, refine=6, threads=1)
    for threads in (2, 4):
        threads_seen.clear()
        b = cap_discrepancy_fixed_height(ps, 0.3, M=700, refine=6, threads=threads)
        assert threads_seen == [threads] * 7  # the scan and the 6 rounds
        assert a.value == b.value
        assert a.witness == b.witness
        assert a.trace == b.trace


def test_cap_search_zonal_counterexample_contrast():
    d = ZonalDensity(dim=3, degree=3, coefficient=0.8, axis=np.array([0.0, 0.0, 1.0]))
    ps = generate_qud(d, 100_000, Driver("halton_2_3"))
    at_freak = cap_discrepancy_fixed_height(ps, S5, M=2000, refine=20)
    at_zero = cap_discrepancy_fixed_height(ps, 0.0, M=2000, refine=20)
    assert at_freak.value < 0.01
    assert at_zero.value > 0.04
    witness = np.array(at_zero.witness["center"])
    assert abs(witness @ d.axis) > 0.9  # sup sits at the poles
    uniform = fibonacci_points(100_000)
    assert cap_discrepancy_fixed_height(uniform, S5, M=2000, refine=20).value < 0.01
    assert cap_discrepancy_fixed_height(uniform, 0.0, M=2000, refine=20).value < 0.01


def test_cap_search_dim2_redirect():
    ps = generate_uniform(2, 500, "kronecker_s1")
    rep = cap_discrepancy_fixed_height(ps, 0.5, M=10)
    # height-0.5 caps on the circle are swept as half-open arcs of fraction
    # arccos(0.5)/pi, exactly as arc-fixed sweeps them
    arc = arc_discrepancy_fixed_length(ps, math.acos(0.5) / math.pi)
    assert rep.value == arc.value
    assert rep.method == "exact"


def test_cap_search_dim2_counts_half_open_arcs():
    # Every half-open half circle [t, t + 1/2) holds exactly 2 of the 4
    # lattice points; a closed half circle starting at a point holds 3.
    ps = pointset_from_turns([0.0, 0.25, 0.5, 0.75])
    assert ps.turns().tolist() == [0.0, 0.25, 0.5, 0.75]
    assert math.acos(0.0) / math.pi == 0.5
    assert cap_discrepancy_fixed_height(ps, 0.0, M=1).value == 0.0


@pytest.mark.parametrize("s", [1.0, -1.0, 1.5, math.nan])
def test_cap_search_dim2_rejects_bad_height(s):
    ps = generate_uniform(2, 50, "kronecker_s1")
    with pytest.raises(ValueError, match=r"cap height must lie in \(-1, 1\)"):
        cap_discrepancy_fixed_height(ps, s, M=10)


def test_cap_search_validation():
    ps = fibonacci_points(100)
    with pytest.raises(ValueError):
        cap_discrepancy_fixed_height(ps, 1.0, M=10)
    with pytest.raises(ValueError):
        cap_discrepancy_fixed_height(ps, 0.5, M=0)
    for threads in (0, -2):
        with pytest.raises(ValueError):
            cap_discrepancy_fixed_height(ps, 0.5, M=10, threads=threads)
    for on in (ps, pointset_from_turns([0.1, 0.4])):
        with pytest.raises(ValueError, match="refine must be >= 0"):
            cap_discrepancy_fixed_height(on, 0.5, M=10, refine=-1)


def test_cap_search_given_directions_need_no_grid_size():
    # Given directions replace the grid, so M is not read and may be 0.
    ps = generate_uniform(3, 1000, "random", seed=5)
    dirs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    zero = cap_discrepancy_fixed_height(ps, 0.3, M=0, directions=dirs, refine=2)
    ten = cap_discrepancy_fixed_height(ps, 0.3, M=10, directions=dirs, refine=2)
    assert zero.value == ten.value
    assert zero.witness == ten.witness


def test_cap_search_rejects_bad_directions():
    ps = generate_uniform(3, 1000, "random", seed=5)
    bad = [
        np.empty((0, 3)),  # no rows
        np.array([[0.0, 1.0]]),  # wrong width
        np.array([[0.0, np.nan, 1.0]]),  # non-finite
        np.array([[0.0, 0.0, 0.0]]),  # degenerate
    ]
    for dirs in bad:
        with pytest.raises(ValueError):
            cap_discrepancy_fixed_height(ps, 0.3, M=10, directions=dirs)
    # An off-unit row is renormalized, so it counts the height-0.3 cap.
    long = cap_discrepancy_fixed_height(ps, 0.3, M=10, directions=np.array([[0.0, 0.0, 2.0]]))
    unit = cap_discrepancy_fixed_height(ps, 0.3, M=10, directions=np.array([[0.0, 0.0, 1.0]]))
    assert long.value == unit.value
    assert long.witness == unit.witness


@pytest.mark.parametrize("m_dirs", [1, 4, 255, 256, 257, 2000])
def test_cap_counts_match_one_shot_at_tile_edges(m_dirs):
    rows = _tile_rows(m_dirs)  # 65 rows for the 2000-direction scan, 32768 for 4 probes
    rng = np.random.default_rng(m_dirs)
    dirs = generate_uniform(3, m_dirs, "random", seed=m_dirs).coords.copy()
    dirs[0] = [0.0, 0.0, 1.0]
    for n_pts in (rows - 1, rows, rows + 1, 2 * rows + 1):
        x = rng.standard_normal((n_pts, 3))
        coords = x / np.linalg.norm(x, axis=1)[:, None]
        for s in (0.0, 0.5, S5, -0.3):
            # Points exactly on the closed boundary x . u == s of the first
            # direction, at both ends of the point range.
            edge = np.array([math.sqrt(1.0 - s * s), 0.0, s])
            coords[:3] = edge
            coords[-3:] = edge
            assert np.all(coords[[0, -1]] @ dirs[0] == s)
            want = (coords @ dirs.T >= s).sum(axis=0)
            # Up to four runs of whole tiles: every run edge is a tile edge.
            for threads in (1, 2, 3, 4):
                got = _cap_counts(coords, dirs, s, threads)
                assert got.dtype == np.int64
                assert np.array_equal(got, want), (n_pts, s, threads)
        # Every point in the cap of the first direction: each full run of
        # the kernel's uint8 partial sums reaches 255 and must not wrap.
        pole = np.tile(dirs[0], (n_pts, 1))
        want = (pole @ dirs.T >= 0.5).sum(axis=0)
        for threads in (1, 2, 3, 4):
            got = _cap_counts(pole, dirs, 0.5, threads)
            assert got[0] == n_pts
            assert np.array_equal(got, want), (n_pts, threads)
    with pytest.raises(ValueError):
        _cap_counts(coords, dirs, 0.5, threads=0)


@pytest.mark.parametrize("m_dirs", [1, 2, 3, 4, 6, 8, 12])
def test_cap_counts_in_word_lanes_match_per_tile_counts(monkeypatch, m_dirs):
    # Tiles of three 255-row runs and a 17-row remainder; M = 8, 4 and 2
    # (and 12, 6) sum their runs in uint64, uint32 and uint16 lanes.
    rows = 3 * 255 + 17
    monkeypatch.setattr(capdisc.discrepancy, "_SCAN_TILE", rows * m_dirs)
    assert _tile_rows(m_dirs) == rows
    rng = np.random.default_rng(m_dirs)
    x = rng.standard_normal((2 * rows + 300, 3))
    x[:, :2] *= 0.25
    x[:, 2] = np.abs(x[:, 2]) + 2.0
    coords = x / np.linalg.norm(x, axis=1)[:, None]  # every z near 0.9 or above
    dirs = generate_uniform(3, m_dirs, "random", seed=m_dirs).coords.copy()
    # The first and the last direction contain every point, so their bytes
    # reach 255 in every run, at both ends of a lane.
    dirs[[0, -1]] = [0.0, 0.0, 1.0]
    s = 0.5
    want = sum(np.count_nonzero(coords[p0 : p0 + rows] @ dirs.T >= s, axis=0)
               for p0 in range(0, len(coords), rows))
    assert want[0] == want[-1] == len(coords)
    for threads in (1, 2, 3):
        assert np.array_equal(_cap_counts(coords, dirs, s, threads), want), threads


def _chunked_deviations(ps, s, dirs):
    """|count/N - mu(s)| of the closed cap around each row of dirs, counted
    256 directions at a time over tiles of (1 << 17) // 256 points with
    np.count_nonzero: none of _cap_counts' tiles, uint8 runs or word lanes."""
    coords, target = ps.coords, cap_measure(ps.dim, s)
    devs = []
    for c0 in range(0, len(dirs), 256):
        chunk = dirs[c0 : c0 + 256]
        rows = max(1, (1 << 17) // len(chunk))
        total = np.zeros(len(chunk), dtype=np.int64)
        for p0 in range(0, len(coords), rows):
            total += np.count_nonzero(coords[p0 : p0 + rows] @ chunk.T >= s, axis=0)
        devs.append(np.abs(total / ps.size - target))
    return np.concatenate(devs)


def _assert_witness_oracle(ps, s, dirs, rep, refine):
    """The search's report, checked against recounts, not against a copy of
    the search.

    Its first value is the chunked scan's largest deviation over the grid
    `dirs`, and while no round of the climb raises the value its witness is
    the first grid row with that deviation.  The rounds never lower the
    value, and the last one is the deviation of the witness cap, recounted
    as ps.coords @ center >= s: a point that this product's rounding may
    put on either side (within 2^-48 of s) may count either way."""
    devs = _chunked_deviations(ps, s, dirs)
    first = int(np.argmax(devs))
    center = np.array(rep.witness["center"])
    assert rep.trace[0] == devs[first]
    assert 1 <= len(rep.trace) <= refine + 1
    assert all(a <= b for a, b in zip(rep.trace, rep.trace[1:])), rep.trace
    assert rep.value == rep.trace[-1] and rep.witness["height"] == s
    if rep.value == rep.trace[0]:
        assert np.array_equal(center.view(np.int64), dirs[first].view(np.int64))
    else:
        assert abs(np.linalg.norm(center) - 1.0) <= 1e-15
    x_dot_u = ps.coords @ center
    lo = int(np.count_nonzero(x_dot_u >= s + 2.0**-48))
    hi = int(np.count_nonzero(x_dot_u >= s - 2.0**-48))
    assert hi - lo <= 2, (lo, hi)
    target = cap_measure(ps.dim, s)
    assert any(abs(c / ps.size - target) == rep.value for c in range(lo, hi + 1)), (lo, hi)


@pytest.mark.parametrize("s", [S5, 0.0])
def test_cap_search_bit_identical_to_the_chunked_scan_on_the_zonal_set(s):
    d = ZonalDensity(dim=3, degree=3, coefficient=0.8, axis=np.array([0.0, 0.0, 1.0]))
    ps = generate_qud(d, 100_000, Driver("halton_2_3"))
    reps = [cap_discrepancy_fixed_height(ps, s, 2000, refine=20, threads=t) for t in (1, 2, 3)]
    _assert_witness_oracle(ps, s, direction_grid(3, 2000), reps[0], 20)
    # At the freak height no probe beats the grid row; at 0 the climb moves.
    assert (reps[0].trace[-1] > reps[0].trace[0]) == (s == 0.0)
    assert reps[1] == reps[0] and reps[2] == reps[0]


@pytest.mark.parametrize("M", [1, 255, 256, 257, 2000])
@pytest.mark.parametrize("n, n_pts, s", [(4, 5_000, 0.1), (5, 20_000, -0.2)])
def test_cap_search_bit_identical_to_the_chunked_scan(n, n_pts, s, M):
    ps = generate_uniform(n, n_pts, "random", seed=n * M)
    dirs = direction_grid(n, M)
    for refine in (0, 8):
        reps = [cap_discrepancy_fixed_height(ps, s, M, refine=refine, threads=t) for t in (1, 2, 3)]
        _assert_witness_oracle(ps, s, dirs, reps[0], refine)
        assert (reps[0].trace[-1] > reps[0].trace[0]) == (refine > 0)
        assert reps[1] == reps[0] and reps[2] == reps[0]


def _assert_witness_is_the_counted_row(ps, s, M, threads):
    # Recounted in the search's own call shape, (N, n) points against the
    # (M, n) grid: a one-direction product may round a boundary point to
    # the other side.
    dirs = direction_grid(ps.dim, M)
    devs = np.abs(_cap_counts(ps.coords, dirs, s) / ps.size - cap_measure(ps.dim, s))
    rep = cap_discrepancy_fixed_height(ps, s, M, refine=0, threads=threads)
    center = np.array(rep.witness["center"])
    rows = np.flatnonzero(np.all(dirs.view(np.int64) == center.view(np.int64), axis=1))
    assert rows.size == 1, "the witness center is no row of the grid"
    assert rep.value == devs[rows[0]] == devs.max()
    assert rep.trace == (rep.value,)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("n, n_pts, s, M", [(3, 5_000, 0.3, 500), (4, 5_000, 0.1, 257),
                                            (5, 20_000, -0.2, 2000)])
def test_cap_witness_is_a_grid_row_and_its_count(n, n_pts, s, M, threads):
    _assert_witness_is_the_counted_row(generate_uniform(n, n_pts, "random", seed=n * M), s, M, threads)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_cap_witness_is_the_counted_row_on_the_zonal_set(threads):
    # Seed 2 of the zonal benchmark set at the freak height: its winning
    # Fibonacci row is not bit-for-bit unit, so a re-normalized center
    # would be no row of the grid.
    d = ZonalDensity(dim=3, degree=3, coefficient=0.8, axis=np.array([0.0, 0.0, 1.0]))
    ps = generate_qud(d, 100_000, Driver("halton_2_3", offset=2))
    _assert_witness_is_the_counted_row(ps, S5, 2000, threads)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_cap_scan_keeps_the_first_of_tied_maxima(threads):
    # Half the points at each pole and s = 0.8: the caps around directions 3
    # (north) and 300 (south) each hold half the points, every other
    # direction (|z| < 1/2) holds none, so 3 and 300 tie at the largest
    # deviation, in different 256-direction chunks of the old scan.
    ps = PointSet(np.repeat([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], 5000, axis=0),
                  Provenance("poles", 0))
    rng = np.random.default_rng(3)
    z = rng.uniform(-0.5, 0.5, 400)
    phi = rng.uniform(0.0, TWO_PI, 400)
    r = np.sqrt(1.0 - z * z)
    dirs = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    dirs[3], dirs[300] = [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]
    rep = cap_discrepancy_fixed_height(ps, 0.8, M=400, directions=dirs, threads=threads)
    assert rep.value == 0.5 - cap_measure(3, 0.8)
    assert rep.witness["center"] == [0.0, 0.0, 1.0]
    _assert_witness_oracle(ps, 0.8, dirs, rep, 0)


def test_cap_search_memory_does_not_grow_with_n():
    peaks = []
    for n_pts in (2**14, 2**17):
        ps = generate_uniform(3, n_pts, "random", seed=9)
        tracemalloc.start()
        try:
            cap_discrepancy_fixed_height(ps, S5, M=2000, refine=5, threads=2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    mib = 1 << 20
    assert peaks[1] < 8 * mib
    assert abs(peaks[1] - peaks[0]) < mib, peaks


def test_telescoping_simple():
    ps = pointset_from_turns([0.05, 0.31, 0.64, 0.9])
    res = telescoping_check(ps, 0.3, 1)
    assert res.k == 0
    assert res.beta == pytest.approx(0.6 * math.pi, abs=1e-15)
    assert res.lhs == res.rhs


def test_telescoping_exact_on_random_instances():
    rng = np.random.default_rng(31)
    for trial in range(200):
        n = int(rng.integers(1, 300))
        psi = rng.uniform(0.0, 1.0, n)
        ps = pointset_from_turns(psi, tag=f"t{trial}")
        a = float(rng.uniform(0.01, 0.99))
        m = int(rng.integers(1, 150))
        res = telescoping_check(ps, a, m)
        assert res.lhs == res.rhs, (trial, a, m)
        assert 0.0 <= res.beta < TWO_PI


def test_telescoping_per_point_coverage():
    # each point must be covered k times by the arc tiling, plus once more
    # iff it falls in [0, beta)
    rng = np.random.default_rng(32)
    psi = np.sort(rng.uniform(0.0, 1.0, 50))
    ps = pointset_from_turns(psi)

    def in_wrapped(x, lo, hi):
        if lo > hi:
            return x >= lo or x < hi
        return lo <= x < hi

    for a, m in ((math.sqrt(2.0) - 1.0, 5), (0.3, 7), (0.718281828, 13)):
        res = telescoping_check(ps, a, m)
        beta_turn = res.beta / TWO_PI
        pos = np.arange(m + 1, dtype=float) * a
        frac = pos - np.floor(pos)
        total = 0
        for x in psi:
            covered = sum(in_wrapped(x, lo, hi) for lo, hi in zip(frac[:-1], frac[1:]))
            expected = res.k + (1 if x < beta_turn else 0)
            assert covered == expected, (a, m, x)
            total += covered
        assert total / len(psi) == res.lhs


def test_telescoping_beta_approximates_quarter_turn():
    # continued-fraction style search: smallest m putting beta near pi/2
    a = math.sqrt(2.0) - 1.0
    target = 0.25
    m = next(
        mm
        for mm in range(1, 20_000)
        if abs((mm * a) % 1.0 - target) < 0.01 / TWO_PI
    )
    ps = generate_uniform(2, 100_000, "kronecker_s1")
    res = telescoping_check(ps, a, m)
    assert abs(res.beta - math.pi / 2.0) < 0.01
    emp = float(np.mean(ps.turns() < 0.25))
    assert res.rhs == pytest.approx(res.k + emp, abs=0.01)
    assert res.lhs == res.rhs


def _telescoping_whole(ps, a, m):
    # The tile walk over all m + 1 endpoints, counting a wrap where a tile's
    # start exceeds its end: the reference for the closed form wherever
    # every float step fl((j+1)*a) - fl(j*a) is below 1.
    psi = np.sort(ps.turns())
    n = ps.size
    pos = np.arange(m + 1, dtype=float) * a
    frac = pos - np.floor(pos)
    lo, hi = frac[:-1], frac[1:]
    k = int(np.count_nonzero(lo > hi))
    total = int((np.searchsorted(psi, hi, side="left") - np.searchsorted(psi, lo, side="left")).sum())
    total += k * n
    count0 = int(np.searchsorted(psi, frac[-1], side="left"))
    return TelescopeResult(lhs=total / n, k=k, beta=float(TWO_PI * frac[-1]),
                           rhs=(k * n + count0) / n)


def test_telescoping_closed_form_matches_the_tile_walk():
    ps = pointset_from_turns(np.random.default_rng(33).uniform(0.0, 1.0, 500))
    block = capdisc.sphere._SWEEP_BLOCK
    for m in (1, 7, block - 1, block, block + 1, 3 * block + 5):
        for a in (math.sqrt(2.0) - 1.0, 0.3, 1.0 / 3.0, 0.999):
            assert telescoping_check(ps, a, m) == _telescoping_whole(ps, a, m), (m, a)


@pytest.mark.parametrize("a", [0.9999999999999999, 1.0 - 1e-12, 0.999,
                               math.sqrt(2.0) - 1.0, 1.0 / 3.0])
def test_telescoping_matches_exact_tile_counts(a):
    # Each tile [p_j, p_{j+1}) with p_j = fl(j*a), wrapped onto the circle,
    # holds a turn x ceil(p_{j+1} - x) - ceil(p_j - x) times, in exact
    # rational arithmetic.  Near a = 1 a float step can reach 1: that tile
    # wraps with no drop in its endpoints' fractional parts.
    rng = np.random.default_rng(35)
    psi = rng.uniform(0.0, 1.0, 40)
    ps = pointset_from_turns(psi)
    turns = [Fraction(float(x)) for x in ps.turns()]
    for m in (1, 2, 3, 4, *rng.integers(5, 61, 6).tolist()):
        p = [Fraction(float(j) * a) for j in range(m + 1)]
        total = sum(math.ceil(hi - x) - math.ceil(lo - x)
                    for lo, hi in zip(p[:-1], p[1:]) for x in turns)
        res = telescoping_check(ps, a, m)
        assert res.k == math.floor(p[m]), (a, m)
        assert res.lhs == res.rhs == total / len(turns), (a, m)
        assert res.beta == TWO_PI * float(p[m] - math.floor(p[m])), (a, m)


def test_telescoping_memory_does_not_grow_with_m():
    ps = pointset_from_turns(np.random.default_rng(34).uniform(0.0, 1.0, 100))
    tracemalloc.start()
    try:
        telescoping_check(ps, math.sqrt(2.0) - 1.0, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20  # the whole-array walk peaked at 30.6 MiB


def test_telescoping_validation():
    ps = pointset_from_turns([0.1])
    with pytest.raises(ValueError):
        telescoping_check(ps, 0.0, 3)
    with pytest.raises(ValueError):
        telescoping_check(ps, 1.0, 3)
    with pytest.raises(ValueError):
        telescoping_check(ps, 0.5, 0)
    with pytest.raises(ValueError):
        telescoping_check(ps, 0.5, 2**53 + 1)  # float(m) would round
    assert telescoping_check(ps, 0.5, 2**53).k == 2**52
    with pytest.raises(ValueError):
        telescoping_check(fibonacci_points(5), 0.5, 2)
