"""Tests for the cap transform eigenvalues and the freak mechanism."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from capdisc import (
    cap_measure,
    funk_hecke_lambda,
    legendre_eval,
    legendre_roots,
    odd_mean_zero_check,
    weight_mass,
)
from capdisc.cap_transform import _gauss_rule
from capdisc.orthopoly import MAX_DEGREE

S5 = 1.0 / math.sqrt(5.0)


def lambda3_dim3(s):
    # symbolic integration of (5 t^3 - 3 t)/4 over [s, 1]
    return (5.0 * s * s - 1.0) * (1.0 - s * s) / 16.0


def lambda_dim2(k, s):
    # Chebyshev antiderivative: (1/pi) int_0^arccos(s) cos(k theta) dtheta
    return math.sin(k * math.acos(s)) / (k * math.pi)


def quad_lambda(n, k, s):
    # independent route: QAWS quadrature with the algebraic weight (1-t)^eta
    # split off, the smooth factor (1+t)^eta folded into the integrand
    eta = (n - 3) / 2
    val, _ = integrate.quad(
        lambda t: legendre_eval(n, k, t) * (1.0 + t) ** eta,
        s,
        1.0,
        weight="alg",
        wvar=(0.0, eta),
        limit=200,
    )
    return val / weight_mass(n)


def test_degree_zero_is_cap_measure():
    for n in (2, 3, 4, 5, 7):
        for s in (-0.8, -0.3, -0.2, 0.0, 0.2, 0.3, 0.6, 0.9):
            assert abs(funk_hecke_lambda(n, 0, s) - cap_measure(n, s)) <= 1e-12


def test_dim3_degree3_closed_form():
    for s in np.linspace(-0.95, 0.95, 39):
        assert abs(funk_hecke_lambda(3, 3, float(s)) - lambda3_dim3(s)) <= 1e-14


def test_pinned_values():
    assert funk_hecke_lambda(3, 3, 0.0) == pytest.approx(-0.0625, abs=1e-14)
    assert abs(funk_hecke_lambda(3, 3, S5)) <= 1e-12


def test_dim2_chebyshev_oracle():
    for k in range(1, 7):
        for s in (-0.7, -0.2, 0.2, 0.5, 0.9):
            assert abs(funk_hecke_lambda(2, k, s) - lambda_dim2(k, s)) <= 1e-12


def test_reproducible_by_independent_quadrature():
    for n in (2, 3, 4, 5):
        for k in (0, 1, 2, 3, 6):
            for s in (-0.5, 0.1, 0.6):
                assert abs(funk_hecke_lambda(n, k, s) - quad_lambda(n, k, s)) <= 1e-10


def test_freak_equivalence():
    # lambda_k vanishes exactly at the roots of the degree-(k-1)
    # dimension-(n+2) polynomial, and nowhere else away from them.
    for n in (3, 4, 5):
        for k in (3, 5, 7, 9):
            roots = legendre_roots(n + 2, k - 1)
            pos = [float(r) for r in roots if 0.0 < r < 1.0]
            assert pos, (n, k)
            for h in pos:
                assert abs(funk_hecke_lambda(n, k, h)) < 1e-10, (n, k, h)
            grid = np.linspace(-0.95, 0.95, 200)
            away = [
                s
                for s in grid
                if all(abs(s - r) >= 0.01 for r in roots)
            ]
            for s in away:
                assert abs(funk_hecke_lambda(n, k, float(s))) > 1e-6, (n, k, s)


def test_empty_cap_limit():
    for n in (3, 4, 5):
        for k in (1, 2, 3, 5):
            assert abs(funk_hecke_lambda(n, k, 1.0 - 1e-6)) < 1e-4


def test_reflection_relation():
    # lambda_k(-s) + (-1)^k lambda_k(s) equals the full-sphere mean,
    # which is 1 for k = 0 and 0 for k >= 1.
    for n in (2, 3, 4, 5):
        for k in range(6):
            mean = 1.0 if k == 0 else 0.0
            for s in (0.15, 0.4, 0.85):
                lhs = funk_hecke_lambda(n, k, -s) + (-1.0) ** k * funk_hecke_lambda(n, k, s)
                assert abs(lhs - mean) <= 1e-10


def test_order_doubling_stability():
    for n in (3, 4):
        for k in range(21):
            base = max(40, 4 * k)
            for s in (-0.4, 0.0, 0.3, 0.9):
                a = funk_hecke_lambda(n, k, s, order=base)
                b = funk_hecke_lambda(n, k, s, order=2 * base)
                assert abs(a - b) < 1e-12, (n, k, s)


def test_height_domain_errors():
    with pytest.raises(ValueError):
        funk_hecke_lambda(3, 2, 1.0)
    with pytest.raises(ValueError):
        funk_hecke_lambda(3, 2, -1.5)
    with pytest.raises(ValueError):
        funk_hecke_lambda(1, 2, 0.0)
    with pytest.raises(ValueError, match="dimension must be >= 2"):
        weight_mass(1)


def test_degree_capped_at_max_degree():
    # The order-4k quadrature rule is an order x order eigen-solve, so the
    # degree stays within the validated recurrence range.
    assert math.isfinite(funk_hecke_lambda(3, 200, 0.5))
    with pytest.raises(ValueError, match="200"):
        funk_hecke_lambda(3, 201, 0.5)
    with pytest.raises(ValueError):
        funk_hecke_lambda(3, -1, 0.5)


def test_odd_mean_zero():
    assert abs(odd_mean_zero_check(3, 1)) <= 1e-14
    for n in (2, 3, 4, 5):
        for k in (1, 3, 5, 7, 9):
            assert abs(odd_mean_zero_check(n, k)) <= 1e-12
    with pytest.raises(ValueError):
        odd_mean_zero_check(3, 2)


@pytest.mark.parametrize(
    "n, k, match",
    [(1, 3, "dimension"), (0, 3, "dimension"), (3, 201, "degree"), (3, 501, "degree"),
     (3, -1, "degree"), (3, 0, "degree")],
)
def test_odd_mean_zero_rejects_dimension_and_degree(n, k, match):
    # Checked before any Gauss rule is built: k = 501 would need an
    # order-2004 eigen-solve.
    with pytest.raises(ValueError, match=match):
        odd_mean_zero_check(n, k)


@pytest.mark.parametrize("order", [0, -40, 1601, 2000])
def test_quadrature_order_outside_one_to_1600_is_rejected(order):
    with pytest.raises(ValueError, match="order must lie in \\[1, 1600\\]"):
        funk_hecke_lambda(3, 3, 0.5, order=order)
    with pytest.raises(ValueError, match="order must lie in \\[1, 1600\\]"):
        odd_mean_zero_check(3, 3, order=order)


def test_quadrature_order_bounds_are_inclusive():
    # 1600 is twice the largest default order, 4 * MAX_DEGREE.
    assert math.isfinite(funk_hecke_lambda(3, 3, 0.5, order=1))
    assert math.isfinite(odd_mean_zero_check(3, 3, order=1))
    assert funk_hecke_lambda(3, 3, 0.5, order=1600) == pytest.approx(lambda3_dim3(0.5), abs=1e-12)
    assert abs(odd_mean_zero_check(3, 199, order=1600)) <= 1e-12


def unfolded_quadrature(n, k, theta_lo, theta_hi, order):
    # The quadrature as it ran before one body served both public functions:
    # default order, then the theta-interval form, then the division.
    if order is None:
        order = max(40, 4 * k)
    x, w = _gauss_rule(order)
    half = 0.5 * (theta_hi - theta_lo)
    theta = theta_lo + half * (x + 1.0)
    f = legendre_eval(n, k, np.cos(theta)) * np.sin(theta) ** (n - 2)
    num = half * float(np.dot(w, f))
    return num / weight_mass(n)


def test_shared_quadrature_body_keeps_every_bit():
    # funk_hecke_lambda runs the quadrature for an explicit order only;
    # odd_mean_zero_check for its default order too.
    degrees = (0, 1, 2, 3, 8, 21, 40, 99, 157, MAX_DEGREE)
    orders = (1, 40, 1600)
    for n in range(2, 13):
        freak = [float(r) for r in legendre_roots(n + 2, 2) if r > 0.0]
        heights = [-0.999, 0.0, 0.999, *freak]
        funk_hecke_lambda.cache_clear()
        new = [funk_hecke_lambda(n, k, s, order) for k in degrees for s in heights for order in orders]
        new += [odd_mean_zero_check(n, k, order) for k in degrees if k % 2 for order in (None, *orders)]
        funk_hecke_lambda.cache_clear()
        old = [unfolded_quadrature(n, k, 0.0, float(np.arccos(s)), order)
               for k in degrees for s in heights for order in orders]
        old += [unfolded_quadrature(n, k, 0.0, np.pi, order)
                for k in degrees if k % 2 for order in (None, *orders)]
        assert np.array_equal(np.array(new).view(np.int64), np.array(old).view(np.int64)), n


def exact_legendre_s2(k_max, s):
    """P_0(s), ..., P_{k_max}(s) on S^2 by the three-term recurrence in exact
    rationals."""
    p = [Fraction(1), s]
    for j in range(1, k_max):
        p.append(((2 * j + 1) * s * p[j] - j * p[j - 1]) / (j + 1))
    return p


def test_closed_form_on_s2_against_exact_rationals():
    # On S^2, lambda_k(s) = (P_{k-1}(s) - P_{k+1}(s)) / (2 (2k + 1)), a
    # rational for a float s.  Measured: within 0.05 units of 2^-53.
    heights = [Fraction(j, 64) for j in range(-63, 64)] + [Fraction(0.999), Fraction(-0.999),
                                                           Fraction(S5)]
    for s in heights:
        p = exact_legendre_s2(41, s)
        for k in range(1, 41):
            exact = (p[k - 1] - p[k + 1]) / (2 * (2 * k + 1))
            got = Fraction(funk_hecke_lambda(3, k, float(s)))
            assert abs(got - exact) <= Fraction(1, 2**55), (k, s)


def test_closed_form_against_order_1600_quadrature():
    # The two paths agree to 1.22e-13 (measured); the gap is the order-1600
    # rule's own rounding near s = -1, where lambda_0 is close to 1.
    heights = (-0.999, -0.7, -0.3, 0.0, 0.2, 0.45, 0.8, 0.99, 0.999)
    for n in range(3, 13):
        for k in range(41):
            for s in heights:
                gap = abs(funk_hecke_lambda(n, k, s) - funk_hecke_lambda(n, k, s, order=1600))
                assert gap <= 2e-13, (n, k, s, gap)


def test_closed_form_degree_zero_is_cap_measure_at_high_dimension():
    # Quadrature of order 40 cannot resolve the sin^(n-2) peak here: at
    # n = 10^5 it read 6.9e-4 for mu(0.01) = 7.8e-4.
    for n in (10**3, 10**4, 10**5):
        for s in (-0.3, 0.0, 0.01, 0.2):
            assert funk_hecke_lambda(n, 0, s) == cap_measure(n, s), (n, s)
    assert funk_hecke_lambda(10**5, 0, 0.01) == pytest.approx(7.8255237569e-4, rel=1e-9)
