"""Tests for dimension-d Legendre polynomials, roots and freak heights."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import eval_gegenbauer

from capdisc import freak_heights, legendre_eval, legendre_roots
from capdisc.orthopoly import MAX_DEGREE, _newton_polish, _roots_eigen


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


def _scalar_polish(d, k, roots):
    # The per-root Newton loop the array polish replaced, kept as an oracle.
    def eval_with_derivative(t):
        p_prev, dp_prev = 1.0, 0.0
        p, dp = t, 1.0
        for j in range(1, k):
            denom = j + d - 2
            p_next = ((2 * j + d - 2) * t * p - j * p_prev) / denom
            dp_next = ((2 * j + d - 2) * (p + t * dp) - j * dp_prev) / denom
            p_prev, dp_prev, p, dp = p, dp, p_next, dp_next
        return p, dp

    out = np.array(roots, dtype=float)
    for i, r in enumerate(out):
        x = float(r)
        for _ in range(2):
            p, dp = eval_with_derivative(x)
            if dp == 0.0:
                break
            x = min(1.0, max(-1.0, x - p / dp))
        out[i] = x
    return out


def test_array_polish_bit_identical_to_scalar_loop():
    for d in (3, 4, 5, 7):
        for k in (1, 2, 3, 4, 9, 24, 63, 128, 200):
            raw = _roots_eigen(d, k)
            got = _newton_polish(d, k, raw)
            want = _scalar_polish(d, k, raw)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (d, k)


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
