"""Tests for dimension-d Legendre polynomials, roots and freak heights."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate
from scipy.special import eval_gegenbauer

from capdisc import freak_heights, legendre_eval, legendre_roots
from capdisc.orthopoly import _DOMAIN_SLACK, MAX_DEGREE, _newton_polish, _positive_roots


# Closed-form oracles for k <= 4, obtained by Gram-Schmidt against the
# weight (1 - t^2)^((d-3)/2) and rescaled to value 1 at t = 1.
def oracle_p0(d, t):
    return np.ones_like(np.asarray(t, dtype=float))


def oracle_p1(d, t):
    return np.asarray(t, dtype=float)


def oracle_p2(d, t):
    t = np.asarray(t, dtype=float)
    return (d * t**2 - 1.0) / (d - 1.0)


def oracle_p3(d, t):
    t = np.asarray(t, dtype=float)
    return t * ((d + 2.0) * t**2 - 3.0) / (d - 1.0)


def oracle_p4(d, t):
    t = np.asarray(t, dtype=float)
    return ((d + 2.0) * (d + 4.0) * t**4 - 6.0 * (d + 2.0) * t**2 + 3.0) / (
        (d - 1.0) * (d + 1.0)
    )


ORACLES = {0: oracle_p0, 1: oracle_p1, 2: oracle_p2, 3: oracle_p3, 4: oracle_p4}


def test_value_one_at_right_endpoint():
    for d in (2, 3, 4, 5, 6, 9):
        for k in range(21):
            assert abs(legendre_eval(d, k, 1.0) - 1.0) <= 1e-12


def test_parity():
    rng = np.random.default_rng(1)
    t = rng.uniform(-1.0, 1.0, 200)
    for d in (2, 3, 5, 8):
        for k in range(9):
            left = legendre_eval(d, k, -t)
            right = (-1.0) ** k * legendre_eval(d, k, t)
            assert np.max(np.abs(left - right)) <= 1e-13


def test_known_point_values():
    assert legendre_eval(5, 2, 0.2) == pytest.approx(-0.2, abs=1e-15)
    # classical P_3(t) = (5 t^3 - 3 t)/2
    assert legendre_eval(3, 3, 0.5) == pytest.approx(-0.4375, abs=1e-15)


def test_recurrence_matches_gram_schmidt_oracles():
    rng = np.random.default_rng(2)
    t = rng.uniform(-1.0, 1.0, 1000)
    for d in (3, 4, 5, 6):
        for k, oracle in ORACLES.items():
            err = np.max(np.abs(legendre_eval(d, k, t) - oracle(d, t)))
            assert err <= 1e-12, (d, k, err)


def test_matches_scipy_gegenbauer():
    # Independent route: Gegenbauer with alpha = (d-2)/2 rescaled by its
    # value at 1.  (d = 2 is the Chebyshev limit, checked separately.)
    rng = np.random.default_rng(3)
    t = rng.uniform(-1.0, 1.0, 50)
    for d in (3, 4, 5, 7):
        alpha = (d - 2) / 2
        for k in range(1, 9):
            ref = eval_gegenbauer(k, alpha, t) / eval_gegenbauer(k, alpha, 1.0)
            assert np.max(np.abs(legendre_eval(d, k, t) - ref)) <= 1e-11
    for k in range(9):
        ref = np.cos(k * np.arccos(t))
        assert np.max(np.abs(legendre_eval(2, k, t) - ref)) <= 1e-12


def test_bounded_by_one_on_grid():
    grid = np.linspace(-1.0, 1.0, 10_001)
    for d in (2, 3, 4, 5, 6):
        for k in range(13):
            assert np.max(np.abs(legendre_eval(d, k, grid))) <= 1.0 + 1e-14


def test_orthogonality_by_quadrature():
    # After t = cos(theta) the weighted product is smooth, so plain
    # adaptive quadrature is a solid independent oracle.
    for d in (3, 4, 5):
        for j in range(9):
            for k in range(j + 1, 9):
                val, _ = integrate.quad(
                    lambda th: legendre_eval(d, j, math.cos(th))
                    * legendre_eval(d, k, math.cos(th))
                    * math.sin(th) ** (d - 2),
                    0.0,
                    math.pi,
                    limit=200,
                )
                assert abs(val) <= 1e-10, (d, j, k, val)


def test_domain_error():
    with pytest.raises(ValueError):
        legendre_eval(3, 2, 1.5)
    with pytest.raises(ValueError):
        legendre_eval(1, 2, 0.0)
    with pytest.raises(ValueError):
        legendre_eval(3, -1, 0.0)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_scalar_and_array_eval_agree_bit_for_bit(d):
    rng = np.random.default_rng(d)
    edge = 1.0 + _DOMAIN_SLACK / 2
    t = np.concatenate((rng.uniform(-1.0, 1.0, 40), [0.0, -0.0, 1.0, -1.0, edge, -edge]))
    for k in (0, 1, 2, 3, 17, 40, 200):
        array = legendre_eval(d, k, t)
        scalar = [legendre_eval(d, k, float(x)) for x in t]
        assert all(type(v) is float for v in scalar)
        assert np.array_equal(np.array(scalar).view(np.int64), array.view(np.int64)), (d, k)
    assert legendre_eval(d, 3, edge) == 1.0 and legendre_eval(d, 3, -edge) == -1.0
    with pytest.raises(ValueError):
        legendre_eval(d, 3, 1.5)


def test_roots_known_values():
    assert np.allclose(legendre_roots(4, 1), [0.0], atol=1e-15)
    r = legendre_roots(5, 2)
    assert np.allclose(r, [-1 / math.sqrt(5), 1 / math.sqrt(5)], atol=1e-12)
    r = legendre_roots(3, 2)
    assert np.allclose(r, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-12)


def test_root_residuals_and_range():
    for d in (3, 4, 5, 7):
        for k in (1, 2, 3, 5, 8, 12):
            roots = legendre_roots(d, k)
            assert len(roots) == k
            assert np.all(roots > -1.0) and np.all(roots < 1.0)
            res = np.abs(legendre_eval(d, k, roots))
            assert np.max(res) <= 1e-12, (d, k, np.max(res))
            assert np.all(np.diff(roots) > 0.0)


def test_roots_interlace():
    for d in (3, 4, 5, 7):
        for k in (2, 3, 5, 8):
            inner = legendre_roots(d, k - 1)
            outer = legendre_roots(d, k)
            for i in range(k - 1):
                assert outer[i] < inner[i] < outer[i + 1]


def test_eigen_vs_scipy():
    from scipy.special import roots_gegenbauer

    for d in (2, 3, 4, 5, 6):
        for k in (1, 2, 3, 5, 8, 11, 40):
            eig = legendre_roots(d, k)
            ref, _ = roots_gegenbauer(k, (d - 2) / 2)
            assert np.max(np.abs(eig - np.sort(ref))) <= 1e-11, (d, k)
    # d = 2: Chebyshev roots cos((2i - 1) pi / 2k) in closed form
    for k in (1, 2, 3, 4, 7, 16, 59, 200):
        i = np.arange(1, k + 1)
        closed = np.sort(np.cos((2 * i - 1) * np.pi / (2 * k)))
        assert np.max(np.abs(legendre_roots(2, k) - closed)) <= 1e-14, k
    with pytest.raises(ValueError):
        legendre_roots(3, 0)


def exact_sign(d, k, t):
    """Sign of the dimension-d Legendre polynomial of degree k >= 1 at the
    float t, exactly.  With t = a/b in lowest terms, P_j = N_j / (b^j C_j)
    for the positive C_j = (d-1) d ... (j+d-3), so the integers
    N_{j+1} = (2j+d-2) a N_j - j (j+d-3) b^2 N_{j-1} (with j+d-3 read as 1
    at j = 1) have the signs of the P_j.  b is a power of two, so b^2 is a
    shift."""
    q = Fraction(t)
    a, shift = q.numerator, 2 * (q.denominator.bit_length() - 1)
    n_prev, n = 1, a
    for j in range(1, k):
        r = 1 if j == 1 else j + d - 3
        n_prev, n = n, (2 * j + d - 2) * a * n - ((j * r * n_prev) << shift)
    return (n > 0) - (n < 0)


# Each freak height and each root lies within this many ulps of a true
# root: at most 5 were needed for the freak heights of n = 3, 4, 5 up to
# degree 200, and at most 4 for the roots below.
FREAK_ULPS = 8


def brackets_a_root(d, k, t):
    """Whether the dimension-d Legendre polynomial of degree k, evaluated
    exactly at the floats FREAK_ULPS ulps on either side of t, changes sign
    (or vanishes), so that t lies within FREAK_ULPS ulps of a true root."""
    below = above = t
    for _ in range(FREAK_ULPS):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
    return exact_sign(d, k, below) * exact_sign(d, k, above) <= 0


@pytest.mark.parametrize("n, max_degree", [(3, 200), (4, 40), (5, 120)])
def test_freak_heights_bracket_a_root_within_a_few_ulps(n, max_degree):
    for e in freak_heights(n, max_degree).entries:
        assert brackets_a_root(n + 2, e.degree, e.height), (n, e)


def test_roots_bracket_a_root_within_a_few_ulps():
    for d in (3, 4, 5, 7):
        for k in (1, 2, 3, 4, 9, 24, 63, 128, 200):
            for r in legendre_roots(d, k):
                assert brackets_a_root(d, k, float(r)), (d, k, r)


def test_exact_sign_matches_fraction_recurrence():
    rng = np.random.default_rng(8)
    for d in (5, 6, 7):
        for k in (1, 2, 5, 17):
            for t in rng.uniform(-1.0, 1.0, 20):
                t = Fraction(float(t))
                p_prev, p = Fraction(1), t
                for j in range(1, k):
                    p_prev, p = p, ((2 * j + d - 2) * t * p - j * p_prev) / (j + d - 2)
                assert exact_sign(d, k, float(t)) == (p > 0) - (p < 0), (d, k, t)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12, 55])
def test_freak_heights_keep_every_positive_root(n):
    # Degree 2j has j positive roots, so (D/2)(D/2 + 1)/2 entries; no two
    # heights coincide (at n = 55 the closest two of different degrees are
    # 4.5e-10 apart).
    fh = freak_heights(n, MAX_DEGREE)
    assert len(fh.entries) == 5050
    assert np.all(np.diff(fh.heights) > 0.0)
    degrees = np.array([e.degree for e in fh.entries])
    assert all(np.count_nonzero(degrees == k) == k // 2 for k in range(2, MAX_DEGREE + 1, 2))


def test_polish_with_per_root_degrees_matches_one_degree_at_a_time():
    # Degree k has k // 2 positive roots.
    for d in (3, 5, 7):
        degrees = np.array([13, 8, 8, 3, 2])
        raw = [_positive_roots(d, int(k)) for k in degrees]
        assert [len(r) for r in raw] == [6, 4, 4, 1, 1]
        got = _newton_polish(d, np.repeat(degrees, degrees // 2), np.concatenate(raw))
        want = np.concatenate([_newton_polish(d, int(k), r) for k, r in zip(degrees, raw)])
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), d


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_roots_are_exactly_antisymmetric(d):
    # The polynomial has the parity of k and the recurrence rounds -t as it
    # rounds t, so the mirrored start points stay mirrored bit for bit.
    for k in (*range(1, 10), 24, 63, 128, 199, 200):
        r = legendre_roots(d, k)
        assert np.array_equal(r, -r[::-1]), (d, k)
        if k % 2:
            assert r[k // 2] == 0.0, (d, k)


def test_freak_heights_degree_two():
    fh = freak_heights(3, 2)
    assert len(fh.entries) == 1
    assert abs(fh.entries[0].height - 1 / math.sqrt(5)) <= 1e-12
    assert fh.entries[0].degree == 2
    assert fh.dim == 3 and fh.max_degree == 2


def test_freak_heights_degree_four():
    # positive roots of the degree-4 dimension-5 polynomial
    # (63 t^4 - 42 t^2 + 3)/24: t^2 = (42 +- 12 sqrt(7)) / 126
    lo = math.sqrt((42.0 - 12.0 * math.sqrt(7.0)) / 126.0)
    hi = math.sqrt((42.0 + 12.0 * math.sqrt(7.0)) / 126.0)
    fh = freak_heights(3, 4)
    got = fh.heights
    assert len(got) == 3
    assert abs(got[0] - lo) <= 1e-12
    assert abs(got[1] - 1 / math.sqrt(5)) <= 1e-12
    assert abs(got[2] - hi) <= 1e-12
    assert np.all((got > 0.0) & (got < 1.0))
    assert [e.degree for e in fh.entries] == [4, 2, 4]


def test_freak_heights_sorted_in_unit_interval():
    fh = freak_heights(4, 12)
    h = fh.heights
    assert np.all(np.diff(h) > 0.0)
    assert np.all((h > 0.0) & (h < 1.0))
    # every height annihilates its polynomial of dimension n+2
    for e in fh.entries:
        assert abs(legendre_eval(6, e.degree, e.height)) <= 1e-12


def test_freak_heights_validation():
    with pytest.raises(ValueError):
        freak_heights(3, 3)  # odd
    with pytest.raises(ValueError):
        freak_heights(3, 0)
    with pytest.raises(ValueError):
        freak_heights(2, 2)  # n too small
    with pytest.raises(ValueError):
        freak_heights(3, MAX_DEGREE + 2)


def test_freak_heights_json_obj():
    obj = freak_heights(3, 2).to_json_obj()
    assert obj == [{"height": pytest.approx(1 / math.sqrt(5), abs=1e-12), "degree": 2}]
