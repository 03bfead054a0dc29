"""Tests for the cap transform eigenvalues and the freak mechanism."""

import math

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
