"""Tests for sphere primitives, cap measure and uniform generators."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import beta, betainc, ndtri

import capdisc.sphere as sphere
from capdisc import (
    Cap,
    PointSet,
    Provenance,
    ZonalDensity,
    arc_discrepancy_fixed_length,
    cap_measure,
    circle_discrepancy,
    fibonacci_sphere,
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
    save_points(ps, path)
    header = path.read_text().splitlines()[0]
    assert header == "# dim=3 generator=fibonacci(N=37) seed=9"
    again = load_points(path, threads=threads)
    assert np.array_equal(again.coords, ps.coords)
    assert again.provenance == ps.provenance
    # lossless serialization and stable re-save
    path2 = tmp_path / "pts2.csv"
    save_points(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_csv_seventeen_significant_digits(tmp_path, threads=1):
    ps = generate_uniform(3, 5, "random", seed=8)
    path = tmp_path / "p.csv"
    save_points(ps, path)
    assert same_bits(load_points(path, threads=threads).coords, ps.coords)
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
    save_points(ps, path)
    assert path.read_bytes() == reference_csv(ps)
    again = load_points(path, threads=threads)
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
def test_csv_malformed_body_on_two_threads(tmp_path, monkeypatch, capsys, body, reason):
    # 4-byte reads cut most bodies into several pieces; the error is the
    # one a single thread gives, from load_points and from the CLI.
    path = tmp_path / "bad.csv"
    path.write_text("# dim=2 generator=bad seed=0\n" + body)
    with pytest.raises(ValueError) as one:
        load_points(path, threads=1)
    monkeypatch.setattr(sphere, "_CSV_CHUNK", 4)
    with pytest.raises(ValueError, match=reason) as two:
        load_points(path, threads=2)
    assert str(two.value) == str(one.value)
    args = ["disc", "--in", str(path), "--family", "circle", "--no-timestamp", "--threads", "2"]
    assert main(args) == 2
    assert capsys.readouterr().err == f"capdisc: error: {one.value}\n"


# The array reader needs a long double with a 64-bit mantissa (as on x86-64);
# elsewhere every file takes np.loadtxt.
ARRAY_READER = np.finfo(np.longdouble).nmant >= 63
needs_array_reader = pytest.mark.skipif(
    not ARRAY_READER, reason="no 64-bit long double: every file takes np.loadtxt"
)


def _no_loadtxt(*args, **kwargs):
    raise AssertionError("np.loadtxt was called")


def force_reader(monkeypatch, reader):
    """Make load_points take one path: "array" fails if np.loadtxt runs,
    "loadtxt" turns the array reader off."""
    if reader == "array":
        if not ARRAY_READER:
            pytest.skip("no 64-bit long double: every file takes np.loadtxt")
        monkeypatch.setattr(np, "loadtxt", _no_loadtxt)
    else:
        monkeypatch.setattr(sphere, "_read_layout", lambda path, threads=1: None)


def write_body(path, body, dim=2):
    path.write_bytes(f"# dim={dim} generator=g seed=1\n".encode() + body)
    return path


def read_array(path):
    """The raw (N, n) values of the array reader, before PointSet; fails
    when the file would go to np.loadtxt."""
    read = sphere._read_layout(path)
    assert read is not None, "the array reader handed the file to np.loadtxt"
    return read[0]


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


@pytest.mark.parametrize("reader", ["array", "loadtxt"])
@_CSV_CHECKS
def test_csv_checks_through_each_reader(tmp_path, monkeypatch, reader, check):
    # "array" runs with np.loadtxt patched to raise, so save_points files
    # cannot drift off the array path without a failure here.
    force_reader(monkeypatch, reader)
    check(tmp_path)


@_CSV_CHECKS
def test_csv_checks_on_two_threads(tmp_path, monkeypatch, check):
    # 1 KiB reads cut every file into pieces parsed on two threads, none of
    # them through np.loadtxt.
    force_reader(monkeypatch, "array")
    monkeypatch.setattr(sphere, "_CSV_CHUNK", 1 << 10)
    check(tmp_path, threads=2)


_EDGE_DOUBLES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1.0 - 2.0**-53, 1.0, -1.0, 1.0 + 2.0**-52, 0.5, 2.0**-1022, 2.0**-60, 2.0**52, 2.0**63,
    2.0**64, 2.0**1023, 1.7976931348623157e308, 1e-4, math.nextafter(1e-4, 0.0),
    math.nextafter(1e-4, 1.0), 9.9999999999999991e-5, 0.1, 0.7637982415147163,
]


@needs_array_reader
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=40))
@example(_EDGE_DOUBLES)
@example([2.0**e for e in range(-1074, 1024, 7)])
@example([math.nextafter(1e-4, 0.0), 1e-4, -math.nextafter(1e-4, 1.0), 1.0000000000000002e-4])
def test_array_reader_returns_float_of_every_17g_token(tmp_path, xs):
    # Subnormals, +-0, 1 - 2^-53, powers of two and both sides of 1e-4,
    # where %.17g switches to e-notation.
    if len(xs) % 2:
        xs = xs + [1.0]
    tokens = [format(x, ".17g") for x in xs]
    body = "".join(f"{a},{b}\n" for a, b in zip(tokens[::2], tokens[1::2])).encode()
    got = read_array(write_body(tmp_path / "x.csv", body))
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
    from _blake2 import blake2b

    monkeypatch.setattr(sphere, "_WRITE_ROWS", 7)  # many blocks
    ps = generate_uniform(dim, 100, "random", seed=dim)
    path = tmp_path / "p.csv"
    source = save_points(ps, path)
    data = path.read_bytes()
    # The header, then one span per block of rows, end to end over the file.
    assert len(source) == 1 + -(-100 // 7) and source[0][:2] == (0, data.index(b"\n") + 1)
    assert source[-1][1] == len(data)
    assert [start for start, _, _ in source[1:]] == [end for _, end, _ in source[:-1]]
    assert all(d == blake2b(data[start:end], digest_size=32).digest() for start, end, d in source)
    assert_source_checks(path, data, source)
    with monkeypatch.context() as mp:
        mp.setitem(sys.modules, "_blake2", None)  # the import raises ImportError
        assert save_points(ps, tmp_path / "q.csv") is None
    assert (tmp_path / "q.csv").read_bytes() == data


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


def near_midpoint(x):
    """Decimals of 19 significant digits on each side of the midpoint of x
    and its upper neighbour, with whether a 64-bit rounding of each lands
    exactly on that midpoint."""
    mid = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    k = 18 if x >= 1.0 else 19
    half_ulp64 = Fraction(2) ** (math.floor(math.log2(mid)) - 64)
    out = []
    for m in (math.floor(mid * 10**k), math.ceil(mid * 10**k)):
        digits = str(m).rjust(k + 1, "0")
        token = digits[:-k] + "." + digits[-k:]
        out.append((token, abs(Fraction(token) - mid) < half_ulp64))
    return out


@needs_array_reader
def test_array_reader_re_parses_a_quotient_on_a_midpoint(tmp_path):
    token = "0.7637982415147163695"
    mant = np.uint64(7637982415147163695).astype(np.longdouble)
    naive = float((mant / np.uint64(10**19).astype(np.longdouble)).astype(np.float64))
    assert naive.hex() == "0x1.871090281895ap-1"  # rounded twice
    assert float(token).hex() == "0x1.8710902818959p-1"
    for sign in ("", "-"):
        got = read_array(write_body(tmp_path / "m.csv", f"{sign}{token},1\n".encode()))
        assert got[0, 0] == float(sign + token) and got[0, 1] == 1.0


@needs_array_reader
@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.floats(min_value=0.1, max_value=9.875), st.booleans())
def test_array_reader_matches_float_next_to_midpoints(tmp_path, x, negative):
    # 19- and 20-digit decimals whose long-double quotient is exactly a
    # float64 midpoint, so only the float() fallback rounds them right.
    cases = near_midpoint(x)
    assume(any(on for _, on in cases))
    tokens = [("-" if negative else "") + token for token, _ in cases]
    got = read_array(write_body(tmp_path / "m.csv", ",".join(tokens).encode() + b"\n"))
    assert same_bits(got, np.array([[float(t) for t in tokens]]))


@needs_array_reader
def test_array_reader_at_the_limits_of_the_digit_words(tmp_path):
    # M < 10^19 fits a uint64; 19 digits after a nonzero integer digit, 20
    # significant digits, or more than 24 fraction digits go to float().
    tokens = [
        "9.999999999999999999", "9.9999999999999999999", "1.8446744073709551615",
        "0.9999999999999999999", "0.99999999999999999999", "0.18446744073709551616",
        "0.123456789012345678901234", "0.1234567890123456789012345",
        "0.000000000000000000000001", "0.0000000000000000000000001", "-0.000000000000000000000000",
        "0.1", "-5.5", "1.", "0", "-0", "12.5", "007.25", "1e5", "-1.5E-3", "2.5e+2",
    ]
    got = read_array(write_body(tmp_path / "t.csv", ",".join(tokens).encode() + b"\n",
                                dim=len(tokens)))
    assert same_bits(got, np.array([[float(t) for t in tokens]]))


@needs_array_reader
@pytest.mark.parametrize("chunk", [41, 64, 100, 257, 1000])
@pytest.mark.parametrize("newline_at_end", [True, False])
def test_array_reader_rows_straddle_chunk_edges(tmp_path, monkeypatch, chunk, newline_at_end):
    ps = edge_value_pointset()
    path = tmp_path / "pts.csv"
    save_points(ps, path)
    if not newline_at_end:
        path.write_bytes(path.read_bytes()[:-1])
    monkeypatch.setattr(sphere, "_CSV_CHUNK", chunk)
    monkeypatch.setattr(np, "loadtxt", _no_loadtxt)
    assert same_bits(load_points(path).coords, ps.coords)


@needs_array_reader
def test_row_longer_than_a_chunk_goes_to_loadtxt(tmp_path, monkeypatch):
    path = write_body(tmp_path / "long.csv", b"0.5,0.25\n" + b"0.6," * 9 + b"0.8\n", dim=2)
    monkeypatch.setattr(sphere, "_CSV_CHUNK", 16)
    assert sphere._read_layout(path) is None
    with pytest.raises(ValueError, match="number of columns"):
        load_points(path)


@needs_array_reader
def test_threaded_reader_under_frequent_thread_switches(tmp_path, monkeypatch):
    # Eight threads over 1 KiB pieces, switching every microsecond: each
    # piece fills only its own rows, so every bit matches the saved array.
    ps = generate_uniform(3, 5000, "random", seed=6)
    path = tmp_path / "pts.csv"
    save_points(ps, path)
    force_reader(monkeypatch, "array")
    monkeypatch.setattr(sphere, "_CSV_CHUNK", 1 << 10)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = load_points(path, threads=8).coords
    finally:
        sys.setswitchinterval(interval)
    assert same_bits(got, ps.coords)


@needs_array_reader
def test_valid_row_longer_than_a_chunk_goes_to_loadtxt(tmp_path, monkeypatch):
    # A read with no newline would make a piece longer than two reads, so
    # the reader keeps its O(chunk) buffers and hands the file on.
    tokens = ["0.5"] * 11 + ["-0.25"]
    path = write_body(tmp_path / "wide.csv", (",".join(tokens) + "\n").encode() * 2, dim=12)
    monkeypatch.setattr(sphere, "_CSV_CHUNK", 16)
    assert sphere._read_layout(path, threads=2) is None
    want = PointSet([[float(t) for t in tokens]] * 2, Provenance("g", 1))
    assert same_bits(load_points(path, threads=2).coords, want.coords)


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
def test_array_reader_accepts_and_rejects_what_loadtxt_does(tmp_path, body, dim):
    # Whatever the body, load_points gives the bits or the error that
    # np.loadtxt alone gives, also on two threads over 16-byte reads.
    path = write_body(tmp_path / "f.csv", body.encode(), dim=dim)

    def outcome(threads=1):
        try:
            return load_points(path, threads=threads).coords
        except ValueError as exc:
            return str(exc)

    got = outcome()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sphere, "_CSV_CHUNK", 16)
        split = outcome(threads=2)
        mp.setattr(sphere, "_read_layout", lambda path, threads=1: None)
        want = outcome()
    for result in (got, split):
        if isinstance(want, str):
            assert result == want
        else:
            assert not isinstance(result, str) and same_bits(result, want)


@needs_array_reader
def test_load_points_memory_is_the_result_plus_a_chunk(tmp_path, threads=1):
    # N = 2^20 rows of n = 2: the result is 16 MiB; the reader adds O(chunk)
    # per thread.
    N, n = 1 << 20, 2
    block = tmp_path / "block.csv"
    save_points(generate_uniform(n, 1 << 16, "random", seed=4), block)
    header, body = block.read_bytes().split(b"\n", 1)
    path = tmp_path / "big.csv"
    path.write_bytes(header + b"\n" + body * (N >> 16))
    tracemalloc.start()
    try:
        ps = load_points(path, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ps.coords.shape == (N, n)
    assert peak < 2.5 * N * n * 8, peak / 2**20


@needs_array_reader
def test_load_points_memory_on_two_threads(tmp_path):
    test_load_points_memory_is_the_result_plus_a_chunk(tmp_path, threads=2)


def test_load_points_memory_on_a_crlf_file_is_under_twice_the_result(tmp_path):
    # CRLF rows go to np.loadtxt, whose array the point set adopts.
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
