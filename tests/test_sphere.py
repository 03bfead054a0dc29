"""Tests for sphere primitives, cap measure and uniform generators."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from capdisc import (
    Cap,
    PointSet,
    Provenance,
    ZonalDensity,
    arc_discrepancy_fixed_length,
    cap_measure,
    circle_discrepancy,
    empirical_cap_fraction,
    generate_uniform,
    load_points,
    radical_inverse,
    save_points,
    unit_vector,
)
from capdisc.cli import main

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
    for n in (2, 3, 4, 6):
        s = np.linspace(-0.99, 0.99, 41)
        vals = np.array([cap_measure(n, float(x)) for x in s])
        assert np.all(np.diff(vals) < 0.0)
        for x in s:
            assert cap_measure(n, float(x)) + cap_measure(n, float(-x)) == pytest.approx(
                1.0, abs=1e-12
            )
    with pytest.raises(ValueError):
        cap_measure(3, 1.0)
    with pytest.raises(ValueError):
        cap_measure(3, -1.2)


def test_kronecker_angles():
    ps = generate_uniform(2, 4, "kronecker_s1")
    expected = [2.0 * math.pi * ((j * GOLDEN) % 1.0) for j in range(4)]
    assert np.allclose(ps.angles(), expected, atol=1e-12)
    assert ps.angles()[0] == 0.0


def test_fibonacci_single_point():
    ps = generate_uniform(3, 1, "fibonacci_s2")
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
        generate_uniform(2, 10, "fibonacci_s2")
    with pytest.raises(ValueError):
        generate_uniform(3, 10, "kronecker_s1")
    with pytest.raises(ValueError):
        generate_uniform(3, 10, "bogus")
    with pytest.raises(ValueError):
        generate_uniform(3, 0, "fibonacci_s2")
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
        assert empirical_cap_fraction(rotate(ps, rho), rotated_cap) == empirical_cap_fraction(
            ps, cap
        )


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
    assert len(ps) == 1
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


def test_csv_round_trip(tmp_path):
    ps = generate_uniform(3, 37, "fibonacci_s2", seed=9)
    path = tmp_path / "pts.csv"
    save_points(ps, path)
    header = path.read_text().splitlines()[0]
    assert header == "# dim=3 generator=uniform-fibonacci_s2(n=3,N=37) seed=9"
    again = load_points(path)
    assert np.array_equal(again.coords, ps.coords)
    assert again.provenance == ps.provenance
    # lossless serialization and stable re-save
    path2 = tmp_path / "pts2.csv"
    save_points(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_csv_seventeen_significant_digits(tmp_path):
    ps = generate_uniform(3, 5, "random", seed=8)
    path = tmp_path / "p.csv"
    save_points(ps, path)
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
    [edge_value_pointset(), generate_uniform(2, 65_537, "random", seed=11)],
    ids=["edge-values", "partial-last-block"],
)
def test_csv_matches_reference_writer_and_reloads_bit_identical(tmp_path, ps):
    path = tmp_path / "pts.csv"
    save_points(ps, path)
    assert path.read_bytes() == reference_csv(ps)
    again = load_points(path)
    assert again.coords.shape == ps.coords.shape
    assert np.array_equal(again.coords.view(np.int64), ps.coords.view(np.int64))
    assert again.provenance == ps.provenance


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


@pytest.mark.parametrize(
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
def test_csv_malformed_body(tmp_path, capsys, body, reason):
    path = tmp_path / "bad.csv"
    path.write_text("# dim=2 generator=bad seed=0\n" + body)
    with pytest.raises(ValueError, match=reason):
        load_points(path)
    assert main(["disc", "--in", str(path), "--family", "circle", "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("capdisc: error:") and reason in err
    assert "Traceback" not in err
