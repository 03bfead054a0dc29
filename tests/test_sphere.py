"""Tests for sphere primitives, cap measure and uniform generators."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
import zipfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import beta, betainc, ndtri

import capdisc.sphere as sphere
from capdisc import (
    Cap,
    Driver,
    PlanarRationalDensity,
    PointSet,
    Provenance,
    ZonalDensity,
    arc_discrepancy_fixed_length,
    cap_measure,
    circle_discrepancy,
    fibonacci_sphere,
    generate_qud,
    generate_uniform,
    load_points,
    radical_inverse,
    save_points,
    unit_vector,
    weight_mass,
)
from capdisc.cli import main
from capdisc.discrepancy import _cap_counts

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def random_rotation(n, seed):
    """A proper rotation of R^n: the Q factor of a Gaussian matrix, det +1."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rotate(ps, rho):
    return PointSet(ps.coords @ rho.T, ps.provenance)


def random_pointset(rng, n, N, tag="test"):
    coords = rng.standard_normal((N, n))
    coords /= np.linalg.norm(coords, axis=1)[:, None]
    return PointSet(coords, Provenance(tag, 0))


def test_unit_vector_normalizes():
    v = unit_vector([3.0, 4.0])
    assert np.allclose(v, [0.6, 0.8], atol=1e-15)
    assert abs(np.linalg.norm(unit_vector([1e-3, 0, 0])) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        unit_vector([1e-10, 0.0])
    with pytest.raises(ValueError):
        unit_vector([1.0])


def test_unit_vector_leaves_the_callers_array_writeable():
    for coords in ([0.0, 0.0, 1.0], [3.0, 4.0], [1e308, 1e308, 0.0]):
        c = np.array(coords)
        v = unit_vector(c)
        assert not v.flags.writeable
        assert not np.shares_memory(v, c)
        assert c.flags.writeable and c.tolist() == coords
    c, b = np.array([0.0, 0.0, 1.0]), np.array([0.6, 0.0, 0.8])
    cap = Cap(c, 0.1)
    density = ZonalDensity(3, 3, 0.8, b)
    assert c.flags.writeable and b.flags.writeable
    c[2] = b[2] = -1.0  # the cap and the density keep their own copies
    assert cap.center.tolist() == [0.0, 0.0, 1.0]
    assert density.axis.tolist() == [0.6, 0.0, 0.8]


def test_unit_vector_rescales_a_norm_that_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for big, small in (([1e308, 1e308, 0.0], [1.0, 1.0, 0.0]),
                           ([-1e200, 0.0], [-1.0, 0.0]),
                           ([2.0**1020, -(2.0**1021), 0.0], [1.0, -2.0, 0.0])):
            got = unit_vector(big)
            assert np.array_equal(got.view(np.int64), unit_vector(small).view(np.int64)), big
            assert Cap(big, 0.5).center.tolist() == got.tolist()
    # a large vector whose norm is finite is divided by that norm as before
    v = np.array([1e150, 2e150])
    assert np.array_equal(unit_vector(v), v / np.linalg.norm(v))


@pytest.mark.parametrize("n", [2, 3, 5, 12])
def test_unit_vector_is_the_point_set_row_bit_for_bit(n):
    # One normalizer: a vector normalizes to the bits of its PointSet row,
    # whether random and non-unit, already unit (kept) or overflowing.
    rng = np.random.default_rng(n)
    raw = rng.standard_normal((500, n)) * rng.uniform(1e-3, 1e3, (500, 1))
    unit = PointSet(raw, Provenance("unit", 0)).coords
    big = np.zeros(n)
    big[:2] = 1e308
    for v in [*raw, *unit, big]:
        assert same_bits(unit_vector(v), PointSet([v], Provenance("row", 0)).coords[0]), v
    for u in unit:
        assert same_bits(unit_vector(u), u)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_unit_vector_rejects_non_finite(bad):
    for coords in ([bad, 0.0, 1.0], [0.0, bad], [1.0, 2.0, bad]):
        with pytest.raises(ValueError, match="non-finite"):
            unit_vector(coords)
    with pytest.raises(ValueError, match="non-finite"):
        Cap([bad, 0.0, 1.0], 0.5)


def test_cap_measure_examples():
    assert cap_measure(3, 0.0) == pytest.approx(0.5, abs=1e-15)
    s = 0.4472135955
    assert cap_measure(3, s) == pytest.approx((1.0 - s) / 2.0, abs=1e-13)
    assert cap_measure(3, s) == pytest.approx(0.2763932023, abs=1e-9)
    assert cap_measure(2, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-13)
    # n = 2 oracle: arccos(s)/pi
    for s in (-0.9, -0.3, 0.2, 0.8):
        assert cap_measure(2, s) == pytest.approx(math.acos(s) / math.pi, abs=1e-13)


def test_cap_measure_against_quadrature():
    for n in (2, 3, 4, 5, 8):
        mass, _ = integrate.quad(lambda th: math.sin(th) ** (n - 2), 0.0, math.pi)
        for s in (-0.7, 0.0, 0.35, 0.9):
            ref, _ = integrate.quad(
                lambda th: math.sin(th) ** (n - 2), 0.0, math.acos(s)
            )
            assert cap_measure(n, s) == pytest.approx(ref / mass, abs=1e-12)


def test_cap_measure_symmetry_and_monotonicity():
    # mu is taken at |s| and reflected, so mu(0) = 1/2 and, for s > 0,
    # mu(-s) = 1 - mu(s) hold bit for bit, for even n too.
    s = np.linspace(-0.99, 0.99, 1981).tolist()
    for n in range(2, 13):
        assert cap_measure(n, 0.0) == cap_measure(n, -0.0) == 0.5
        vals = [cap_measure(n, x) for x in s]
        assert all(a > b for a, b in zip(vals, vals[1:])), n
        for x in s[991:]:
            assert cap_measure(n, -x) == 1.0 - cap_measure(n, x), (n, x)
    with pytest.raises(ValueError):
        cap_measure(3, 1.0)
    with pytest.raises(ValueError):
        cap_measure(3, -1.2)
    with pytest.raises(ValueError, match="dimension must be >= 2"):
        cap_measure(1, 0.0)


def _tail_by_binomials(n, s):
    # int_s^1 (1-t^2)^p dt for odd n = 2p + 3, term by term over the binomial
    # expansion of (1-t^2)^p: exact for a rational s, and independent of the
    # package's integration-by-parts recursion.
    p, s = (n - 3) // 2, Fraction(s)
    return sum(Fraction((-1) ** j * math.comb(p, j), 2 * j + 1) * (1 - s ** (2 * j + 1))
               for j in range(p + 1))


def test_weight_mass_of_odd_dimensions_is_the_exact_rational():
    # W(n) is rational for odd n.  The recursion rounds once per step of 2
    # in n; up to n = 13 it is within 1 ulp (0.994 ulp at most, measured).
    for n in range(3, 14, 2):
        w = weight_mass(n)
        assert abs(Fraction(w) - _tail_by_binomials(n, -1)) <= Fraction(math.ulp(w)), n
    assert weight_mass(3) == 2.0 and weight_mass(2) == math.pi


def test_cap_measure_of_odd_dimensions_against_exact_rationals():
    # mu(s) is rational for odd n and a double s.  Its error is absolute, in
    # units of 2^-53: at most 2.2 here, so the bound is 4, on a dyadic grid,
    # random heights and heights next to the poles and the equator.
    rng = np.random.default_rng(17)
    heights = ([j / 64 for j in range(-63, 64)] + rng.uniform(-1.0, 1.0, 100).tolist()
               + [0.999, -0.999, 1e-300, -1e-300, math.nextafter(1.0, 0.0)])
    for n in range(3, 14, 2):
        mass = _tail_by_binomials(n, -1)
        for s in heights:
            exact = _tail_by_binomials(n, abs(s)) / mass
            exact = exact if s >= 0.0 else 1 - exact
            assert abs(Fraction(cap_measure(n, s)) - exact) <= 4 * Fraction(1, 2**53), (n, s)


def test_small_caps_are_nonnegative_monotone_and_relatively_accurate():
    # For n >= 4 and s >= 1/2 a positive series gives mu(s).  The recursion
    # it replaces there read 21 negatives at n = 12 and 9,111 at n = 200 on
    # this grid.
    heights = np.linspace(0.5, 1.0, 20001, endpoint=False).tolist()
    for n in (12, 200):
        mu = np.array([cap_measure(n, s) for s in heights])
        assert np.all(mu >= 0.0) and np.all(np.diff(mu) <= 0.0), n
    # Relative error against the exact rationals of odd n: at most 2.7e-15
    # measured (bound 3.6e-15), at caps down to 2.5e-116.
    for n in (5, 9, 13, 41):
        mass = _tail_by_binomials(n, -1)
        for s in [j / 64 for j in range(32, 64)] + [0.999, 1.0 - 2.0**-20]:
            exact = _tail_by_binomials(n, s) / mass
            assert abs(Fraction(cap_measure(n, s)) / exact - 1) <= Fraction(1, 2**48), (n, s)


def test_small_caps_below_half_height_in_high_dimensions():
    # Below s = 1/2 the series also takes over where (1-s^2)^(n/2) <= 2^-26.
    # The recursion alone read 839 negatives at n = 300 and 4,845 at
    # n = 1000 on this grid, and a switch at 2^-53 still left 189 and 188.
    heights = np.linspace(0.0, 0.5, 20001, endpoint=False).tolist()
    for n in (300, 1000):
        mu = np.array([cap_measure(n, s) for s in heights])
        assert np.all(mu >= 0.0) and np.all(np.diff(mu) <= 0.0), n
    # Relative error against the exact rationals: 1 - s^2 rounds once and
    # enters as its (n-1)/2-th power, so the bound is n units of 2^-53; at
    # most 62 units measured, at caps from 4e-10 down to 6e-20.
    n = 301
    mass = _tail_by_binomials(n, -1)
    for s in [j / 64 for j in range(22, 32)] + [0.35, 0.4, 0.45, 0.49]:
        exact = _tail_by_binomials(n, s) / mass
        assert abs(Fraction(cap_measure(n, s)) / exact - 1) <= Fraction(n, 2**53), s


def test_closed_forms_against_scipy_beta_and_betainc():
    # scipy as an oracle for n = 2..12.  W(n) agrees with beta(1/2, (n-1)/2)
    # within 2 ulp (measured: 2).  betainc itself errs by up to about 1300
    # units of 2^-53 here (scipy 1.17.1), against 2.2 for the recursion above,
    # so the cap measures are compared within 2^-41 (4,096 units).
    rng = np.random.default_rng(29)
    heights = rng.uniform(-1.0, 1.0, 400).tolist() + [0.0, 0.5, -0.5, 0.99]
    for n in range(2, 13):
        w = weight_mass(n)
        assert abs(w - float(beta(0.5, (n - 1) / 2))) <= 2 * math.ulp(w), n
        for s in heights:
            ref = 0.5 * float(betainc((n - 1) / 2, 0.5, 1.0 - s * s))
            ref = ref if s >= 0.0 else 1.0 - ref
            assert abs(cap_measure(n, s) - ref) <= 2.0**-41, (n, s)


@pytest.mark.parametrize("n", [2.5, 3.0, np.float64(4), "3", None, 1, 0,
                               sphere._MAX_DIM + 1, 10**9])
def test_weight_mass_and_cap_measure_reject_bad_dimensions(n):
    # A non-integer dimension names no sphere; past 10^5 the recursion's
    # n/2 steps would run for seconds to minutes.
    with pytest.raises(ValueError, match="dimension must be >= 2"):
        weight_mass(n)
    with pytest.raises(ValueError, match="dimension must be >= 2"):
        cap_measure(n, 0.2)


def test_halton_inverse_matches_the_scipy_normal_quantile():
    # statistics.NormalDist's quantile against scipy's ndtri as an oracle:
    # after normalizing, the rows agree within 1e-15 (4.4e-16 measured).
    for n in (2, 4, 5, 12):
        got = generate_uniform(n, 3000, "halton_inverse", seed=3).coords
        idx = np.arange(4, 3004)
        ref = np.column_stack([ndtri(radical_inverse(p, idx)) for p in sphere._PRIMES[:n]])
        ref /= np.linalg.norm(ref, axis=1)[:, None]
        assert np.abs(got - ref).max() <= 1e-15, n


def test_cap_measure_up_to_the_dimension_bound():
    # Integer types from numpy are dimensions too, and the bound itself runs.
    assert cap_measure(np.int64(5), 0.3) == cap_measure(5, 0.3)
    assert weight_mass(np.int32(7)) == weight_mass(7)
    n = sphere._MAX_DIM
    assert cap_measure(n, 0.0) == 0.5
    for s in (0.001, 0.003, -0.01):
        ref = 0.5 * float(betainc((n - 1) / 2, 0.5, 1.0 - s * s))
        ref = ref if s >= 0.0 else 1.0 - ref
        # betainc's own error at this size is about 2e-12.
        assert abs(cap_measure(n, s) - ref) <= 1e-11, s
    # W(n) W(n+1) = 2 pi / (n-1) ties the even and odd recursions together;
    # scipy's beta errs by 5e-11 here, the recursion by 1e-14.
    for m in (2, 3, 4, 7, 12, n - 1):
        assert weight_mass(m) * weight_mass(m + 1) == pytest.approx(2 * math.pi / (m - 1),
                                                                     rel=1e-13), m


def test_kronecker_angles():
    ps = generate_uniform(2, 4, "kronecker_s1")
    expected = [(j * GOLDEN) % 1.0 for j in range(4)]
    assert np.allclose(ps.turns(), expected, atol=1e-12)
    assert ps.turns()[0] == 0.0


def test_fibonacci_single_point():
    ps = PointSet(fibonacci_sphere(1), Provenance("fibonacci", 0))
    assert ps.size == 1 and ps.dim == 3
    assert abs(np.linalg.norm(ps.coords[0]) - 1.0) <= 1e-12


def test_random_circle_discrepancy():
    ps = generate_uniform(2, 10_000, "random", seed=42)
    assert circle_discrepancy(ps).value < 0.03


def test_kronecker_fixed_arc_discrepancy():
    ps = generate_uniform(2, 1000, "kronecker_s1")
    assert arc_discrepancy_fixed_length(ps, math.sqrt(2.0) / 4.0).value < 0.01


def test_generate_uniform_validation_and_determinism():
    with pytest.raises(ValueError):
        generate_uniform(13, 10, "halton_inverse")
    with pytest.raises(ValueError):
        generate_uniform(3, 10, "kronecker_s1")
    with pytest.raises(ValueError):
        generate_uniform(3, 10, "bogus")
    with pytest.raises(ValueError):
        generate_uniform(3, 0, "halton_inverse")
    with pytest.raises(ValueError, match="dimension must be >= 2"):
        generate_uniform(1, 10, "random")
    a = generate_uniform(4, 64, "halton_inverse", seed=5)
    b = generate_uniform(4, 64, "halton_inverse", seed=5)
    assert np.array_equal(a.coords, b.coords)
    assert np.allclose(np.linalg.norm(a.coords, axis=1), 1.0, atol=1e-12)
    c = generate_uniform(4, 64, "random", seed=1)
    d = generate_uniform(4, 64, "random", seed=1)
    assert np.array_equal(c.coords, d.coords)


def test_radical_inverse_base2():
    assert np.allclose(radical_inverse(2, [0, 1, 2, 3, 4]), [0.0, 0.5, 0.25, 0.75, 0.125])
    with pytest.raises(ValueError):
        radical_inverse(2, [-1])


def radical_inverse_by_digits(base, indices):
    """The digit loop with two ufuncs: each base-b digit times its power of 1/b."""
    idx = np.atleast_1d(np.asarray(indices, dtype=np.int64)).copy()
    out = np.zeros(idx.shape, dtype=float)
    scale = 1.0 / base
    while np.any(idx > 0):
        out += (idx % base) * scale
        idx //= base
        scale /= base
    return out


def test_base2_radical_inverse_by_bit_reversal_matches_the_digit_loop():
    top = np.iinfo(np.int64).max
    edges = [0, 1, 2**52, 2**53 - 1, 2**53, 2**53 + 1, top - 1, top]
    rng = np.random.default_rng(9)
    for idx in (edges, rng.integers(0, 2**53, 5000), rng.integers(0, top, 5000, endpoint=True),
                top - np.arange(70_000), np.arange(2**53 - 100, 2**53 + 100)):
        # Bases past 2 run the digit loop on every index, base 2 from 2^53.
        for base in (2, 3, 5, 7, 13, 37):
            want = radical_inverse_by_digits(base, idx)
            assert np.array_equal(radical_inverse(base, idx).view(np.int64), want.view(np.int64))
    # each index alone gives its bits in a whole array too
    for i in edges:
        assert radical_inverse(2, i)[0] == radical_inverse_by_digits(2, [i])[0]


def test_rotation_identity_and_involution():
    ps = generate_uniform(2, 50, "kronecker_s1")
    ident = rotate(ps, np.eye(2))
    assert np.array_equal(ident.coords, ps.coords)
    half_turn = np.array([[math.cos(math.pi), -math.sin(math.pi)], [math.sin(math.pi), math.cos(math.pi)]])
    twice = rotate(rotate(ps, half_turn), half_turn)
    assert np.max(np.abs(twice.coords - ps.coords)) <= 1e-12


def test_rotation_preserves_dot_products():
    rng = np.random.default_rng(11)
    ps = random_pointset(rng, 4, 30)
    rho = random_rotation(4, seed=3)
    rotated = rotate(ps, rho)
    before = ps.coords @ ps.coords.T
    after = rotated.coords @ rotated.coords.T
    assert np.max(np.abs(before - after)) <= 1e-12


def test_rotation_invariance_of_cap_counts():
    rng = np.random.default_rng(12)
    for n in (2, 3, 5):
        ps = random_pointset(rng, n, 200)
        rho = random_rotation(n, seed=int(rng.integers(1 << 30)))
        assert np.allclose(rho.T @ rho, np.eye(n), atol=1e-12)
        assert np.linalg.det(rho) == pytest.approx(1.0, abs=1e-12)
        center = rng.standard_normal(n)
        cap = Cap(center, 0.3)
        rotated_cap = Cap(rho @ cap.center, 0.3)
        rotated = _cap_counts(rotate(ps, rho).coords, rotated_cap.center[None, :], 0.3)
        assert np.array_equal(rotated, _cap_counts(ps.coords, cap.center[None, :], 0.3))


def test_pointset_validation():
    with pytest.raises(ValueError):
        PointSet(np.zeros((3, 2)), Provenance("zeros", 0))
    with pytest.raises(ValueError):
        PointSet(np.ones((0, 2)), Provenance("empty", 0))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            PointSet([[bad, 1.0], [1.0, 0.0]], Provenance("non-finite", 0))
        # Checked block by block: in the first row past a block, and in the last.
        rows = np.ones((sphere._SWEEP_BLOCK + 2, 2))
        for i in (sphere._SWEEP_BLOCK, -1):
            late = rows.copy()
            late[i, 1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                PointSet(late, Provenance("non-finite", 0))
    ps = PointSet([[3.0, 4.0]], Provenance("scaled", 0))
    assert np.allclose(ps.coords, [[0.6, 0.8]])
    assert ps.size == 1
    with pytest.raises(ValueError):
        ps.coords[0, 0] = 2.0  # read-only storage


def test_pointset_rescales_rows_whose_norm_overflows(tmp_path):
    rows = np.array([[1e308, 1e308, 0.0], [0.6, 0.0, 0.8], [0.0, -1e200, 0.0], [2.0, 3.0, 6.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ps = PointSet(rows, Provenance("big", 0))
    want = PointSet([[1.0, 1.0, 0.0], [0.6, 0.0, 0.8], [0.0, -1.0, 0.0], [2.0, 3.0, 6.0]],
                    Provenance("small", 0))
    assert np.array_equal(ps.coords.view(np.int64), want.coords.view(np.int64))
    assert ps.coords[0, 0] == ps.coords[0, 1] == unit_vector([1.0, 1.0])[0]
    path = tmp_path / "big.csv"
    path.write_text("# dim=3 generator=big seed=0\n1e308,1e308,0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = load_points(path)
    assert np.array_equal(loaded.coords.view(np.int64), want.coords[:1].view(np.int64))


def test_csv_round_trip(tmp_path, threads=1):
    ps = PointSet(fibonacci_sphere(37), Provenance("fibonacci(N=37)", 9))
    path = tmp_path / "pts.csv"
    save_points(ps, path, threads=threads)
    header = path.read_text().splitlines()[0]
    assert header == "# dim=3 generator=fibonacci(N=37) seed=9"
    again = load_points(path)
    assert np.array_equal(again.coords, ps.coords)
    assert again.provenance == ps.provenance
    # lossless serialization and stable re-save
    path2 = tmp_path / "pts2.csv"
    save_points(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_csv_seventeen_significant_digits(tmp_path, threads=1):
    ps = generate_uniform(3, 5, "random", seed=8)
    path = tmp_path / "p.csv"
    save_points(ps, path, threads=threads)
    assert same_bits(load_points(path).coords, ps.coords)
    for line, row in zip(path.read_text().splitlines()[1:], ps.coords):
        for tok, val in zip(line.split(","), row):
            assert float(tok) == val


def test_csv_malformed_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("dim=2 generator=x seed=0\n1,0\n")
    with pytest.raises(ValueError):
        load_points(path)


def reference_csv(ps):
    """Per-value writer: the CSV format that save_points must reproduce."""
    header = f"# dim={ps.dim} generator={ps.provenance.generator} seed={ps.provenance.seed}\n"
    rows = (",".join(format(x, ".17g") for x in row) + "\n" for row in ps.coords)
    return (header + "".join(rows)).encode("utf-8")


def edge_value_pointset():
    rows = [
        [-0.0, 1.0],
        [5e-324, -1.0],
        [1e-300, 1.0],
        [0.1, math.sqrt(0.99)],
        [1.0 - 2.0**-53, 1e-8],
        [1.5e-5, -1.0],
        [-1.2345678901234567e-7, 1.0],
    ]
    rng = np.random.default_rng(5)
    rows += list(rng.standard_normal((40, 2)))
    return PointSet(rows, Provenance("edge-values", 4))


@pytest.mark.parametrize(
    "ps",
    [edge_value_pointset()]
    + [generate_uniform(n, 65_537, "random", seed=11 if n == 2 else 20 + n) for n in (2, 3, 5)],
    ids=["edge-values", "partial-last-block", "partial-last-block-n3", "partial-last-block-n5"],
)
def test_csv_matches_reference_writer_and_reloads_bit_identical(tmp_path, ps, threads=1):
    path = tmp_path / "pts.csv"
    save_points(ps, path, threads=threads)
    assert path.read_bytes() == reference_csv(ps)
    again = load_points(path)
    assert again.coords.shape == ps.coords.shape
    assert np.array_equal(again.coords.view(np.int64), ps.coords.view(np.int64))
    assert again.provenance == ps.provenance


@pytest.mark.parametrize("label", ["a\nb", "a\rb", "a\r\nb", "trailing\n"])
def test_save_points_rejects_a_generator_label_with_a_line_break(tmp_path, label):
    # load_points reads the header as one line, so such a file could not be
    # read back; no file is written.
    path = tmp_path / "pts.csv"
    ps = PointSet([[1.0, 0.0], [0.0, 1.0]], Provenance(label, 0))
    with pytest.raises(ValueError, match="line break"):
        save_points(ps, path)
    assert not path.exists()


def test_csv_edge_values_survive_normalization():
    # the edge rows are unit to 1e-12, so PointSet keeps them bit for bit
    coords = edge_value_pointset().coords
    assert math.copysign(1.0, coords[0, 0]) == -1.0
    assert coords[1, 0] == 5e-324
    assert coords[4, 0] == 1.0 - 2.0**-53
    assert "e-" in format(coords[5, 0], ".17g")


def test_csv_skips_blank_whitespace_and_crlf_lines(tmp_path):
    path = tmp_path / "loose.csv"
    path.write_bytes(
        b"# dim=2 generator=loose seed=3\r\n\n1,0\r\n  \n\t\r\n0,-1\r\n\n \t "
    )
    ps = load_points(path)
    assert ps.coords.tolist() == [[1.0, 0.0], [0.0, -1.0]]
    assert ps.provenance == Provenance("loose", 3)


_MALFORMED_BODIES = pytest.mark.parametrize(
    "body, reason",
    [
        ("1,0\n0,1,0\n", "number of columns"),
        ("1,0\n0\n", "number of columns"),
        ("0\n1\n", "declared dim"),
        ("1,\n", "could not convert"),
        (",1\n", "could not convert"),
        ("1,abc\n", "could not convert"),
        ("# comment\n1,0\n", "could not convert"),
        ("1,0\n# trailing, comment\n", "could not convert"),
        ("nan,1\n", "non-finite"),
        ("1,inf\n", "non-finite"),
        ("", "no point rows"),
        ("\n  \n", "no point rows"),
    ],
    ids=["ragged-long", "ragged-short", "too-few-columns", "empty-last", "empty-first",
         "token", "comment-first", "comment-later", "nan", "inf", "no-rows", "blank-rows"],
)


@_MALFORMED_BODIES
def test_csv_malformed_body(tmp_path, capsys, body, reason):
    path = tmp_path / "bad.csv"
    path.write_text("# dim=2 generator=bad seed=0\n" + body)
    with pytest.raises(ValueError, match=reason):
        load_points(path)
    assert main(["disc", "--in", str(path), "--family", "circle", "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("capdisc: error:") and reason in err
    assert "Traceback" not in err


@_MALFORMED_BODIES
def test_csv_malformed_body_on_two_threads(tmp_path, capsys, body, reason):
    # A disc on two threads reports the error load_points raises.
    path = tmp_path / "bad.csv"
    path.write_text("# dim=2 generator=bad seed=0\n" + body)
    with pytest.raises(ValueError, match=reason) as one:
        load_points(path)
    args = ["disc", "--in", str(path), "--family", "circle", "--no-timestamp", "--threads", "2"]
    assert main(args) == 2
    assert capsys.readouterr().err == f"capdisc: error: {one.value}\n"


def write_body(path, body, dim=2):
    path.write_bytes(f"# dim={dim} generator=g seed=1\n".encode() + body)
    return path


def read_raw(path):
    """The (N, n) values load_points hands to PointSet, before it checks and
    normalizes them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PointSet, "_adopt", classmethod(lambda cls, arr, provenance: arr))
        return load_points(path)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


_CSV_CHECKS = pytest.mark.parametrize(
    "check",
    [
        test_csv_round_trip,
        test_csv_seventeen_significant_digits,
        lambda tmp_path, threads=1: test_csv_matches_reference_writer_and_reloads_bit_identical(
            tmp_path, edge_value_pointset(), threads),
        lambda tmp_path, threads=1: test_csv_matches_reference_writer_and_reloads_bit_identical(
            tmp_path, generate_uniform(2, 65_537, "random", seed=11), threads),
    ],
    ids=["round-trip", "seventeen-digits", "edge-values", "partial-last-block"],
)


@_CSV_CHECKS
def test_csv_checks_on_two_threads(tmp_path, check):
    # The same checks with the writer's pool formatting the blocks.
    check(tmp_path, threads=2)


_EDGE_DOUBLES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1.0 - 2.0**-53, 1.0, -1.0, 1.0 + 2.0**-52, 0.5, 2.0**-1022, 2.0**-60, 2.0**52, 2.0**63,
    2.0**64, 2.0**1023, 1.7976931348623157e308, 1e-4, math.nextafter(1e-4, 0.0),
    math.nextafter(1e-4, 1.0), 9.9999999999999991e-5, 0.1, 0.7637982415147163,
]


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=40))
@example(_EDGE_DOUBLES)
@example([2.0**e for e in range(-1074, 1024, 7)])
@example([math.nextafter(1e-4, 0.0), 1e-4, -math.nextafter(1e-4, 1.0), 1.0000000000000002e-4])
def test_load_points_returns_float_of_every_17g_token(tmp_path, xs):
    # Subnormals, +-0, 1 - 2^-53, powers of two and both sides of 1e-4,
    # where %.17g switches to e-notation.
    if len(xs) % 2:
        xs = xs + [1.0]
    tokens = [format(x, ".17g") for x in xs]
    body = "".join(f"{a},{b}\n" for a, b in zip(tokens[::2], tokens[1::2])).encode()
    got = read_raw(write_body(tmp_path / "x.csv", body))
    want = np.array([float(t) for t in tokens]).reshape(-1, 2)
    assert same_bits(got, want)


def write_fields(xs, n):
    """The writer's bytes for the values xs in rows of n."""
    seps = np.tile(np.array([44] * (n - 1) + [10], np.uint8), len(xs) // n)
    return sphere._format_fields(np.array(xs, dtype=float), seps).tobytes()


def format_rows(xs, n):
    """The same rows, one format(x, ".17g") per value."""
    rows = [xs[i : i + n] for i in range(0, len(xs), n)]
    return "".join(",".join(format(x, ".17g") for x in row) + "\n" for row in rows).encode()


def _around(x):
    return [math.nextafter(x, 0.0), x, math.nextafter(x, 2.0)]


# Where the writer's array path begins and ends, and exact binary ties: an
# odd j / 2^(18 + z) in the decade [10^-(z+1), 10^-z) has 18 + z decimals,
# one past the 17 significant digits, and that one is a 5.
_DECADE_EDGES = [v for p in (1e-1, 1e-2, 1e-3, 1e-4, 1.0) for x in _around(p) for v in (x, -x)]
_BINARY_TIES = [
    sign * j / 2.0 ** (18 + z)
    for z in range(4)
    for j in range(2 ** (18 + z) // 10 ** (z + 1) | 1, 2 ** (18 + z) // 10**z, 2 * 997)
    for sign in (1, -1)
]


def _random_doubles():
    # Uniform values in each decade of the array path, and raw bit patterns.
    rng = np.random.default_rng(12)
    xs = [rng.uniform(-1.0, 1.0, 50_000) * 10.0**-z for z in range(5)]
    bits = rng.integers(0, 2**64, 50_000, dtype=np.uint64, endpoint=False).view(np.float64)
    return np.concatenate(xs + [bits[np.isfinite(bits)]]).tolist()


@settings(max_examples=300)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)),
                min_size=1, max_size=60),
       st.sampled_from([1, 2, 3, 5]))
@example(_EDGE_DOUBLES, 2)
@example([s * 2.0**e for e in range(-1074, 1024) for s in (1, -1)], 2)
@example(_DECADE_EDGES, 2)
@example(_BINARY_TIES, 2)
@example(_random_doubles(), 2)
@example([1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), -1.0,
          -math.nextafter(1.0, 2.0), -math.nextafter(1.0, 0.0)], 3)
def test_writer_gives_the_bytes_of_format_17g(xs, n):
    xs = xs + [0.5] * (-len(xs) % n)
    assert write_fields(xs, n) == format_rows(xs, n)


def test_writer_decades_and_scales_are_exact():
    # The array path's thresholds are the smallest doubles at or above
    # 10^-1 .. 10^-4; the largest double below each decade's top rounds to
    # fewer than 18 digits; and the scales 10^17 .. 10^20 split into 26-bit
    # halves.
    tops = [1.0] + sphere._DECADES.tolist()[:-1]
    for z, t in enumerate(sphere._DECADES.tolist()):
        assert Fraction(t) >= Fraction(1, 10 ** (z + 1)) > Fraction(math.nextafter(t, 0.0))
        below = Fraction(math.nextafter(tops[z], 0.0)) * 10 ** (17 + z)
        assert below < 10**17 - Fraction(1, 2)
    for z, s in enumerate(sphere._SCALES.tolist()):
        hi, lo = float(sphere._SCALES_HI[z]), float(sphere._SCALES_LO[z])
        assert Fraction(s) == 10 ** (17 + z) == Fraction(hi) + Fraction(lo)
        for half in (hi, lo):
            assert half == 0.0 or Fraction(half) / 2 ** (math.frexp(half)[1] - 26) % 1 == 0


def test_import_of_the_cli_leaves_fractions_out():
    # Nor the digest modules: gen imports _blake2 when it first writes a file.
    script = ("import sys, capdisc.cli\n"
              "assert not {'fractions', '_blake2', '_hashlib', 'hashlib'} & set(sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(sphere.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def assert_source_checks(path, data, source):
    """source_unchanged on 1, 2 and 3 threads: True for the file's own bytes
    `data`; False after a digit changes in the header, in the first span of
    rows, in the middle of the file or in the last span (every other byte
    intact), so that each group of spans sees a change; False after a byte
    is added or dropped, and after the file is deleted."""

    def changed_digit(at):
        i = at + next(i for i, c in enumerate(data[at:]) if chr(c).isdigit())
        return data[:i] + (b"1" if data[i : i + 1] != b"1" else b"2") + data[i + 1 :]

    changes = [changed_digit(0), changed_digit(source[1][0]), changed_digit(len(data) // 2),
               changed_digit(source[-1][0]), data + b"\n", data[:-1]]
    for threads in (1, 2, 3):
        path.write_bytes(data)
        assert sphere.source_unchanged(path, source, threads), threads
        for i, changed in enumerate(changes):
            path.write_bytes(changed)
            assert not sphere.source_unchanged(path, source, threads), (threads, i)
        path.unlink()
        assert not sphere.source_unchanged(path, source, threads), threads
    path.write_bytes(data)


@pytest.mark.parametrize("dim", [2, 3])
def test_save_points_returns_spans_that_tile_the_file(tmp_path, monkeypatch, dim):
    # On 1, 2, 3 and 5 threads: the per-value writer's bytes, and the same
    # spans, which tile the file.
    from _blake2 import blake2b

    monkeypatch.setattr(sphere, "_WRITE_ROWS", 7)  # 15 blocks
    coords = generate_uniform(dim, 100, "random", seed=dim).coords.copy()
    # Values that take the format() path, in four blocks: 0, -0, 1 + 4e-13
    # (a row unit to 1e-12 is kept as it is) and about 1e-5 (e-notation).
    zeros = [0.0] * (dim - 2)
    coords[3] = [0.0, 1.0 + 4e-13, *zeros]
    coords[20] = [-0.0, -1.0, *zeros]
    coords[52] = [1e-5, *zeros, 1.0]
    coords[99] = [1.0, -0.0, *zeros]
    ps = PointSet(coords, Provenance("special-values", dim))
    want = reference_csv(ps)
    assert all(tok in want for tok in (b"\n0,", b"\n-0,", b",1.0000000000003999", b"e-06"))
    sources = []
    for threads in (1, 2, 3, 5):
        path = tmp_path / f"t{threads}.csv"
        sources.append(save_points(ps, path, threads=threads))
        assert path.read_bytes() == want, threads
    source = sources[0]
    assert all(other == source for other in sources[1:])
    # The header, then one span per block of rows, end to end over the file.
    assert len(source) == 1 + -(-100 // 7) and source[0][:2] == (0, want.index(b"\n") + 1)
    assert source[-1][1] == len(want)
    assert [start for start, _, _ in source[1:]] == [end for _, end, _ in source[:-1]]
    assert all(d == blake2b(want[start:end], digest_size=32).digest() for start, end, d in source)
    assert_source_checks(tmp_path / "t5.csv", want, source)
    with monkeypatch.context() as mp:
        mp.setitem(sys.modules, "_blake2", None)  # the import raises ImportError
        for threads in (1, 2, 3, 5):
            assert save_points(ps, tmp_path / "q.csv", threads=threads) is None
            assert (tmp_path / "q.csv").read_bytes() == want, threads


def test_save_points_memory_does_not_grow_with_n():
    peaks = []
    for N in (1 << 17, 1 << 20):
        ps = generate_uniform(2, N, "kronecker_s1")
        tracemalloc.start()
        try:
            save_points(ps, os.devnull)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # Both peaks are one block's temporaries, about 1.8 MiB.
    assert peaks[1] < 1.1 * peaks[0] and peaks[1] < 3 * 2**20, [p / 2**20 for p in peaks]


def test_threaded_writer_memory_is_bounded():
    # Two threads each format one block at a time, and at most four blocks
    # are formatted ahead of the write, so the traced peak is at most two
    # blocks' temporaries and four blocks' bytes at any N.  Where the two
    # threads' peaks fall depends on the scheduling: at the same N, peaks
    # read 1.36-1.84 MiB, so each is checked against that bound, not the
    # other.  A writer that kept every block would hold 43 MiB at N = 2^20.
    ps = generate_uniform(2, 1 << 20, "kronecker_s1")
    x = ps.coords[: sphere._WRITE_ROWS].reshape(-1)
    seps = np.tile(np.array([44, 10], np.uint8), sphere._WRITE_ROWS)
    tracemalloc.start()
    try:
        block = sphere._format_fields(x, seps).size
        one = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 2 * one + 4 * block
    for N in (1 << 17, 1 << 20):
        part = PointSet._adopt(ps.coords[:N], ps.provenance)
        tracemalloc.start()
        try:
            save_points(part, os.devnull, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * bound and peak < 3 * 2**20, (N, peak / 2**20, bound / 2**20)


def test_save_points_checks_its_arguments_before_it_opens_the_file(tmp_path):
    path = tmp_path / "keep.csv"
    path.write_bytes(b"old")
    ps = PointSet([[1.0, 0.0], [0.0, 1.0]], Provenance("ok", 0))
    for threads in (0, -1):
        with pytest.raises(ValueError, match="at least one thread"):
            save_points(ps, path, threads=threads)
    with pytest.raises(ValueError, match="line break"):
        save_points(PointSet(ps.coords, Provenance("a\nb", 0)), path, threads=2)
    assert path.read_bytes() == b"old"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, whose writes fail")
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_save_points_write_error_propagates_and_joins_its_threads(threads):
    ps = generate_uniform(2, 1 << 16, "kronecker_s1")
    before = threading.active_count()
    with pytest.raises(OSError):
        save_points(ps, "/dev/full", threads=threads)
    assert threading.active_count() == before


_BODY_PIECES = ["0", "7", "1", ".", "-", "e", "E", "+", ",", "\n", " ", "\r", "#", "x",
                "0.5", "-0.25", "1e-5", "0.1234567890123456789012345", "9.99999999999999999",
                "\n\n", ",,", "\xe9", "inf", "nan", "1_0", "1e999"]


# Bodies of random pieces, and bodies of valid numbers in rows of 1 to 4
# fields (ragged, or the wrong width, for most draws).
_BODIES = st.one_of(
    st.lists(st.sampled_from(_BODY_PIECES), max_size=30).map("".join),
    st.lists(st.lists(st.sampled_from(["0.5", "-0.25", "1", "2e-3", "0.1234567"]),
                      min_size=1, max_size=4).map(",".join), min_size=1, max_size=6)
    .map("\n".join),
)


@settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_BODIES, st.sampled_from([2, 3]))
def test_load_points_reads_float_of_every_token_or_raises_value_error(tmp_path, body, dim):
    # Whatever the body, load_points raises ValueError (exit 2 in the CLI)
    # or gives the point set of float(token) for every token of its rows.
    path = write_body(tmp_path / "f.csv", body.encode(), dim=dim)
    try:
        got = load_points(path)
    except ValueError:
        return
    rows = [[float(tok) for tok in line.split(",")] for line in body.splitlines() if line.strip()]
    assert same_bits(got.coords, PointSet(rows, got.provenance).coords)


def test_load_points_memory_on_an_lf_file_is_under_twice_the_result(tmp_path):
    # N = 2^20 rows of n = 2: the result is 16 MiB.  np.loadtxt grows one
    # array as it reads, and the point set adopts it.
    N, n = 1 << 20, 2
    block = tmp_path / "block.csv"
    save_points(generate_uniform(n, 1 << 16, "random", seed=4), block)
    header, body = block.read_bytes().split(b"\n", 1)
    path = tmp_path / "big.csv"
    path.write_bytes(header + b"\n" + body * (N >> 16))
    tracemalloc.start()
    try:
        ps = load_points(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ps.coords.shape == (N, n)
    assert peak < 2 * N * n * 8, peak / (N * n * 8)


def test_load_points_memory_on_a_crlf_file_is_under_twice_the_result(tmp_path):
    N, n = 200_000, 3
    lf = tmp_path / "lf.csv"
    save_points(generate_uniform(n, N, "random", seed=6), lf)
    path = tmp_path / "crlf.csv"
    path.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    tracemalloc.start()
    try:
        ps = load_points(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ps.coords.shape == (N, n)
    assert peak < 2 * N * n * 8, peak / (N * n * 8)


_NPZ_SETS = {
    "planar": lambda: generate_qud(PlanarRationalDensity(1, 3), 3000, Driver("van_der_corput_base2")),
    "zonal": lambda: generate_qud(ZonalDensity(3, 3, 0.8, np.array([1.0, 2.0, 2.0])), 2000,
                                  Driver("halton_2_3", offset=7)),
    "n5": lambda: generate_uniform(5, 2000, "random", seed=5),
}


@pytest.mark.parametrize("name", sorted(_NPZ_SETS))
def test_npz_round_trip_is_bit_for_bit_and_its_bytes_depend_only_on_the_set(tmp_path, name):
    ps = _NPZ_SETS[name]()
    one, two, again = tmp_path / "one.npz", tmp_path / "two.npz", tmp_path / "again.npz"
    assert save_points(ps, one) is None and save_points(ps, two, threads=2) is None
    read = load_points(one)
    assert same_bits(read.coords, ps.coords) and read.provenance == ps.provenance
    assert not read.coords.flags.writeable
    save_points(read, again)
    assert one.read_bytes() == two.read_bytes() == again.read_bytes()
    # The members np.load reads without a pickle: the array and the header
    # line that a CSV of the same set starts with.
    with zipfile.ZipFile(one) as zf:
        assert [(i.filename, i.date_time) for i in zf.infolist()] == [
            ("coords.npy", (1980, 1, 1, 0, 0, 0)), ("header.npy", (1980, 1, 1, 0, 0, 0))]
    save_points(ps, tmp_path / "p.csv")
    with np.load(one, allow_pickle=False) as z:
        assert z["coords"].dtype == np.float64 and same_bits(z["coords"], ps.coords)
        assert z["header"].ndim == 0
        assert str(z["header"]) == (tmp_path / "p.csv").read_text().split("\n")[0]


@pytest.mark.parametrize("label", ["a\nb", "a\rb"])
def test_npz_save_rejects_a_line_break_before_it_opens_the_file(tmp_path, label):
    path = tmp_path / "keep.npz"
    path.write_bytes(b"old")
    with pytest.raises(ValueError, match="line break"):
        save_points(PointSet([[1.0, 0.0], [0.0, 1.0]], Provenance(label, 0)), path)
    assert path.read_bytes() == b"old"


def test_npz_load_memory_is_under_one_and_a_half_results(tmp_path):
    # np.load reads the coords member into its array 256 KiB at a time,
    # and the point set adopts that array.  It checks finiteness and norms
    # one block of rows at a time, so beside the array a load holds one
    # block's squares and norms (1.5 MiB; 1.57 measured).  A whole-array
    # np.isfinite held N * n more bytes (2 MiB here; 2.04 measured).
    N, n = 1 << 20, 2
    path = tmp_path / "big.npz"
    save_points(generate_uniform(n, N, "kronecker_s1"), path)
    tracemalloc.start()
    try:
        ps = load_points(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ps.coords.shape == (N, n)
    assert peak < 1.5 * N * n * 8, peak / (N * n * 8)
    block = sphere._SWEEP_BLOCK * (n + 1) * 8
    assert peak - N * n * 8 < 1.25 * block, (peak - N * n * 8) / 2**20


def test_generate_uniform_memory_is_the_result_plus_a_block():
    # The point set adopts the Gaussian draw and normalizes it in place, in
    # blocks of rows.
    N, n = 1 << 17, 3
    tracemalloc.start()
    try:
        ps = generate_uniform(n, N, "random")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ps.coords.shape == (N, n)
    assert peak < 3 * N * n * 8, peak / (N * n * 8)


def test_pointset_copies_caller_arrays_and_adopts_its_own():
    rows = np.array([[3.0, 4.0], [0.0, 1.0]])
    ps = PointSet(rows, Provenance("copy", 0))
    assert not np.shares_memory(ps.coords, rows) and rows.flags.writeable
    assert rows.tolist() == [[3.0, 4.0], [0.0, 1.0]]
    mine = rows.copy()
    adopted = PointSet._adopt(mine, Provenance("adopt", 0))
    assert adopted.coords is mine and not mine.flags.writeable
    assert same_bits(adopted.coords, ps.coords)


def test_pointset_row_norms_match_linalg_norm_across_blocks():
    rng = np.random.default_rng(8)
    for n in (2, 3, 5, 12):
        rows = rng.standard_normal(((1 << 16) + 5, n)) * rng.uniform(0.5, 2.0, ((1 << 16) + 5, 1))
        want = rows / np.linalg.norm(rows, axis=1)[:, None]
        assert same_bits(PointSet(rows, Provenance("norms", 0)).coords, want)
