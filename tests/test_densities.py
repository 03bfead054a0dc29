"""Tests for the counterexample densities, transport and generation."""

import math
import sys
import threading
import time

import numpy as np
import pytest
from scipy import integrate

import capdisc.densities
from capdisc import (
    Cap,
    Driver,
    PlanarRationalDensity,
    PointSet,
    Provenance,
    ZonalDensity,
    cap_measure,
    fibonacci_sphere,
    generate_qud,
    marginal_cdf,
    planar_arc_probability,
    positivity_margin,
    zonal_cap_probability,
)
from capdisc.cap_transform import weight_mass
from capdisc.densities import _invert_monotone_vec, _orthonormal_frame, _zonal_cdf_dim3

TWO_PI = 2.0 * math.pi
S5 = 1.0 / math.sqrt(5.0)


def zonal_density(c=0.8, axis=(0.0, 0.0, 1.0), k=3, n=3):
    return ZonalDensity(dim=n, degree=k, coefficient=c, axis=np.array(axis))


def test_driver_values():
    vdc = Driver("van_der_corput_base2")
    assert np.allclose(vdc.values(4), [0.0, 0.5, 0.25, 0.75])
    assert vdc.ndim == 1
    hal = Driver("halton_2_3")
    xy = hal.values(3)
    assert xy.shape == (3, 2)
    assert np.allclose(xy[:, 0], [0.0, 0.5, 0.25])
    assert np.allclose(xy[:, 1], [0.0, 1.0 / 3.0, 2.0 / 3.0])
    kro = Driver("kronecker_golden", offset=2)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    assert np.allclose(kro.values(2), [(2 * golden) % 1.0, (3 * golden) % 1.0])
    assert np.all((hal.values(100) >= 0.0) & (hal.values(100) < 1.0))
    with pytest.raises(ValueError):
        Driver("bogus")
    with pytest.raises(ValueError):
        Driver("halton_2_3", offset=-1)
    with pytest.raises(ValueError):
        vdc.values(0)


def test_planar_density_validation():
    with pytest.raises(ValueError):
        PlanarRationalDensity(2, 4)  # not coprime
    with pytest.raises(ValueError):
        PlanarRationalDensity(1, 2)  # p/q not below 1/2
    with pytest.raises(ValueError):
        PlanarRationalDensity(0, 3)
    d = PlanarRationalDensity(2, 5)
    assert d.arc_fraction == pytest.approx(0.4)


def test_planar_density_range_and_mass():
    d = PlanarRationalDensity(1, 3)
    theta = np.linspace(0.0, TWO_PI, 4001)
    vals = d.density(theta)
    assert np.all(vals >= 0.5 - 1e-15) and np.all(vals <= 1.5 + 1e-15)
    mass, _ = integrate.quad(lambda th: d.density(th) / TWO_PI, 0.0, TWO_PI, limit=200)
    assert abs(mass - 1.0) <= 1e-14


def test_planar_arc_probability_exact_on_target_arcs():
    rng = np.random.default_rng(5)
    for p, q in ((1, 3), (2, 5), (3, 7)):
        d = PlanarRationalDensity(p, q)
        length = TWO_PI * p / q
        for theta0 in rng.uniform(0.0, TWO_PI, 100):
            assert abs(planar_arc_probability(d, float(theta0), length) - p / q) <= 1e-13


def test_planar_arc_probability_values():
    d = PlanarRationalDensity(1, 3)
    # symbolic: 1/12 + (1 - cos(pi))/(24 pi)
    expected = 1.0 / 12.0 + 1.0 / (12.0 * math.pi)
    assert planar_arc_probability(d, 0.0, math.pi / 6.0) == pytest.approx(expected, abs=1e-15)
    ref, _ = integrate.quad(lambda th: d.density(th) / TWO_PI, 0.0, math.pi / 6.0)
    assert planar_arc_probability(d, 0.0, math.pi / 6.0) == pytest.approx(ref, abs=1e-12)
    assert planar_arc_probability(d, 1.7, TWO_PI) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        planar_arc_probability(d, 0.0, 0.0)


def test_zonal_density_validation():
    with pytest.raises(ValueError):
        zonal_density(k=2)  # even degree
    with pytest.raises(ValueError):
        zonal_density(c=1.0)
    with pytest.raises(ValueError):
        zonal_density(c=0.0)
    with pytest.raises(ValueError):
        ZonalDensity(dim=2, degree=3, coefficient=0.5, axis=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        ZonalDensity(dim=3, degree=3, coefficient=0.5, axis=np.array([1.0, 0.0]))


def test_zonal_density_normalization():
    d = zonal_density()
    mass, _ = integrate.quad(
        lambda th: d.density_at_t(math.cos(th)) * math.sin(th), 0.0, math.pi
    )
    assert abs(mass / 2.0 - 1.0) <= 1e-12
    d4 = zonal_density(n=4, axis=(0.0, 0.0, 0.0, 1.0))
    mass4, _ = integrate.quad(
        lambda th: d4.density_at_t(math.cos(th)) * math.sin(th) ** 2, 0.0, math.pi
    )
    assert abs(mass4 / (math.pi / 2.0) - 1.0) <= 1e-12


def test_positivity_margin():
    assert positivity_margin(PlanarRationalDensity(1, 3)) == pytest.approx(0.5, abs=1e-6)
    d = zonal_density(c=0.8)
    assert positivity_margin(d) >= 1.0 - 0.8 - 1e-15
    assert positivity_margin(d) == pytest.approx(0.2, abs=1e-9)
    tight = zonal_density(c=0.999)
    assert positivity_margin(tight) >= (1.0 - 0.999) - 1e-15
    assert positivity_margin(tight) > 0.0
    with pytest.raises(TypeError):
        positivity_margin(object())


def test_zonal_cap_probability_examples():
    d = zonal_density(c=0.8)
    rng = np.random.default_rng(6)
    for _ in range(10):
        u = rng.standard_normal(3)
        cap = Cap(u, S5)
        assert zonal_cap_probability(d, cap) == pytest.approx((1.0 - S5) / 2.0, abs=1e-10)
    axis = np.array([0.0, 0.0, 1.0])
    assert zonal_cap_probability(d, Cap(axis, 0.0)) == pytest.approx(0.45, abs=1e-13)
    perp = np.array([1.0, 0.0, 0.0])
    assert zonal_cap_probability(d, Cap(perp, 0.0)) == pytest.approx(0.5, abs=1e-13)
    with pytest.raises(ValueError):
        zonal_cap_probability(d, Cap(np.array([1.0, 0.0]), 0.0))


def test_zonal_cap_probability_array_of_centers():
    # One Cap is the M = 1 case of the array form, bit for bit.
    d = zonal_density(c=0.8, axis=(0.3, -2.0, 0.7))
    centers = fibonacci_sphere(257)
    for s in (S5, 0.3, -0.2):
        got = zonal_cap_probability(d, centers, s)
        assert got.shape == (257,)
        one = np.array([zonal_cap_probability(d, Cap(u, s)) for u in centers])
        assert np.array_equal(got.view(np.int64), one.view(np.int64)), s
    # rows are normalized like Cap centers
    assert np.array_equal(zonal_cap_probability(d, 3.0 * centers, S5),
                          zonal_cap_probability(d, centers, S5))
    bad = [
        (centers, None),  # an array needs a height
        (centers[0], S5),  # one row is not an (M, n) array
        (centers[:, :2], S5),  # wrong dimension
        (np.array([[np.nan, 0.0, 1.0]]), S5),
        (np.array([[0.0, 0.0, 0.0]]), S5),
        (centers, 1.0),
        (centers, math.nan),
        (Cap(centers[0], S5), S5),  # a Cap carries its own height
    ]
    for caps, s in bad:
        with pytest.raises(ValueError):
            zonal_cap_probability(d, caps, s)


def test_zonal_cap_probability_direct_quadrature():
    # hemisphere about the axis: integrate the marginal over [0, 1]
    d = zonal_density(c=0.8)
    ref, _ = integrate.quad(lambda t: 0.5 * d.density_at_t(t), 0.0, 1.0)
    assert zonal_cap_probability(d, Cap(d.axis, 0.0)) == pytest.approx(ref, abs=1e-12)


def test_exact_cap_equality_on_fibonacci_grid():
    # measure-level identity at the freak height over 200 directions
    for c in (0.3, 0.8):
        d = zonal_density(c=c)
        target = cap_measure(3, S5)
        for u in fibonacci_sphere(200):
            assert abs(zonal_cap_probability(d, Cap(u, S5)) - target) < 1e-10


def test_marginal_cdf_dim3():
    d = zonal_density(c=0.8)
    assert marginal_cdf(d, 1.0) == 1.0
    assert marginal_cdf(d, -1.0) == 0.0
    assert marginal_cdf(d, 0.0) == pytest.approx(0.55, abs=1e-14)
    ref, _ = integrate.quad(lambda x: 0.5 * d.density_at_t(x), -1.0, 0.0)
    assert marginal_cdf(d, 0.0) == pytest.approx(ref, abs=1e-12)
    grid = np.linspace(-1.0, 1.0, 101)
    vals = [marginal_cdf(d, float(t)) for t in grid]
    assert np.all(np.diff(vals) > 0.0)
    with pytest.raises(ValueError):
        marginal_cdf(d, 1.5)


def test_marginal_cdf_uniform_limit():
    tiny = zonal_density(c=1e-15)
    for t in (-0.6, 0.0, 0.8):
        assert marginal_cdf(tiny, t) == pytest.approx((t + 1.0) / 2.0, abs=1e-14)


def test_marginal_cdf_general_dim():
    d4 = zonal_density(n=4, axis=(0.0, 0.0, 0.0, 1.0))
    mass = math.pi / 2.0
    for t in (-0.8, -0.1, 0.4, 0.9):
        ref, _ = integrate.quad(
            lambda th: d4.density_at_t(math.cos(th)) * math.sin(th) ** 2,
            math.acos(t),
            math.pi,
        )
        assert marginal_cdf(d4, t) == pytest.approx(ref / mass, abs=1e-10)
    assert marginal_cdf(d4, -1.0) == 0.0
    assert marginal_cdf(d4, 1.0) == 1.0


def test_inverse_cdf():
    uniform = lambda th: th / TWO_PI
    flat = lambda th: np.full_like(th, 1.0 / TWO_PI)
    x = _invert_monotone_vec(uniform, flat, [0.0, 0.25], 0.0, TWO_PI)
    assert x == pytest.approx([0.0, math.pi / 2.0], abs=1e-10)
    d = zonal_density(c=0.8)
    g = lambda t: _zonal_cdf_dim3(d, t)
    x = _invert_monotone_vec(g, lambda t: 0.5 * d.density_at_t(t), [0.55], -1.0, 1.0)
    assert abs(x[0]) <= 1e-10
    assert abs(marginal_cdf(d, float(x[0])) - 0.55) < 1e-12


def test_generate_planar_first_point_and_determinism():
    d = PlanarRationalDensity(1, 3)
    ps = generate_qud(d, 8, Driver("van_der_corput_base2"))
    assert ps.dim == 2 and ps.size == 8
    # driver value 0 maps through the CDF inverse to angle 0 exactly
    assert ps.coords[0, 0] == 1.0 and ps.coords[0, 1] == 0.0
    again = generate_qud(d, 8, Driver("van_der_corput_base2"))
    assert np.array_equal(ps.coords, again.coords)
    shifted = generate_qud(d, 8, Driver("van_der_corput_base2", offset=1))
    assert not np.array_equal(ps.coords, shifted.coords)
    assert "planar(p=1,q=3" in ps.provenance.generator


def test_generate_planar_transport_accuracy():
    d = PlanarRationalDensity(1, 3)
    ps = generate_qud(d, 100_000, Driver("van_der_corput_base2"))
    theta = ps.angles()
    target = planar_arc_probability(d, 0.0, math.pi / 6.0)
    frac = float(np.mean(theta < math.pi / 6.0))
    assert abs(frac - target) < 0.002
    # CDF of each generated angle should sit close to its driver value
    x = Driver("van_der_corput_base2").values(1000)
    sample = generate_qud(d, 1000, Driver("van_der_corput_base2"))
    assert np.max(np.abs(d.cdf(sample.angles()) - x)) < 1e-9


def test_generate_zonal_hemisphere_fraction():
    d = zonal_density(c=0.8)
    ps = generate_qud(d, 100_000, Driver("halton_2_3"))
    assert ps.dim == 3
    assert np.allclose(np.linalg.norm(ps.coords, axis=1), 1.0, atol=1e-12)
    frac = float(np.mean(ps.coords @ d.axis >= 0.0))
    assert abs(frac - 0.450) < 0.005
    again = generate_qud(d, 100_000, Driver("halton_2_3"))
    assert np.array_equal(ps.coords, again.coords)


def test_generate_zonal_transport_sup_norm():
    d = zonal_density(c=0.8)
    M = 10_000
    ps = generate_qud(d, M, Driver("halton_2_3"))
    t = np.sort(ps.coords @ d.axis)
    cdf_vals = np.array([marginal_cdf(d, float(x)) for x in t])
    ranks = np.arange(1, M + 1) / M
    ks = max(
        float(np.max(np.abs(ranks - cdf_vals))),
        float(np.max(np.abs(ranks - 1.0 / M - cdf_vals))),
    )
    assert ks < 2.0 / math.sqrt(M)


def test_generate_zonal_off_pole_axis():
    axis = np.array([1.0, 1.0, 1.0])
    d = zonal_density(c=0.8, axis=axis)
    ps = generate_qud(d, 20_000, Driver("halton_2_3"))
    frac = float(np.mean(ps.coords @ d.axis >= 0.0))
    assert abs(frac - 0.450) < 0.01


def test_generate_validation():
    d = PlanarRationalDensity(1, 3)
    z = zonal_density()
    with pytest.raises(ValueError):
        generate_qud(d, 10, Driver("halton_2_3"))
    with pytest.raises(ValueError):
        generate_qud(z, 10, Driver("van_der_corput_base2"))
    with pytest.raises(ValueError):
        generate_qud(d, 0, Driver("van_der_corput_base2"))
    with pytest.raises(ValueError):
        generate_qud(
            ZonalDensity(dim=4, degree=3, coefficient=0.5, axis=np.array([0.0, 0.0, 0.0, 1.0])),
            10,
            Driver("halton_2_3"),
        )
    with pytest.raises(TypeError):
        generate_qud(object(), 10, Driver("halton_2_3"))


def whole_array_generate(d, N, driver):
    """generate_qud as one N-sized transport, before it ran in blocks."""
    if isinstance(d, PlanarRationalDensity):
        x = driver.values(N)
        theta = _invert_monotone_vec(d.cdf, lambda th: d.density(th) / TWO_PI, x, 0.0, TWO_PI)
        coords = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        xy = driver.values(N)
        t = _invert_monotone_vec(
            lambda tt: _zonal_cdf_dim3(d, tt),
            lambda tt: d.density_at_t(tt) / weight_mass(3),
            xy[:, 0],
            -1.0,
            1.0,
        )
        phi = TWO_PI * xy[:, 1]
        e, b1, b2 = _orthonormal_frame(d.axis)
        r = np.sqrt(np.maximum(0.0, 1.0 - t * t))
        coords = (
            t[:, None] * e[None, :]
            + (r * np.cos(phi))[:, None] * b1[None, :]
            + (r * np.sin(phi))[:, None] * b2[None, :]
        )
    return PointSet(coords, Provenance("whole-array", driver.offset)).coords


GENERATION_CASES = [
    (PlanarRationalDensity(1, 3), "van_der_corput_base2"),
    (PlanarRationalDensity(2, 5), "kronecker_golden"),
    (ZonalDensity(dim=3, degree=3, coefficient=0.8, axis=np.array([1.0, 2.0, 2.0])), "halton_2_3"),
]


@pytest.mark.parametrize("d, kind", GENERATION_CASES)
@pytest.mark.parametrize("offset", [0, 7919])
def test_blocked_generation_bit_identical_at_block_edges(monkeypatch, d, kind, offset):
    block = 97
    monkeypatch.setattr(capdisc.densities, "_SWEEP_BLOCK", block)
    for n in (1, block - 1, block, block + 1, 5 * block + 3):
        want = whole_array_generate(d, n, Driver(kind, offset)).view(np.int64)
        for threads in (1, 2, 3):
            got = generate_qud(d, n, Driver(kind, offset), threads=threads)
            assert np.array_equal(got.coords.view(np.int64), want), (n, threads)
            assert got.provenance.seed == offset


@pytest.mark.parametrize("d, kind", GENERATION_CASES)
def test_blocked_generation_bit_identical_past_one_block(d, kind):
    n = 2**16 + 3
    want = whole_array_generate(d, n, Driver(kind, 12345)).view(np.int64)
    for threads in (1, 2, 3):
        got = generate_qud(d, n, Driver(kind, 12345), threads=threads)
        assert np.array_equal(got.coords.view(np.int64), want), threads


def test_blocked_generation_under_thread_stress(monkeypatch):
    # Blocks write disjoint rows of one shared array: many more workers than
    # cores and a tiny switch interval must still give the serial bits.
    monkeypatch.setattr(capdisc.densities, "_SWEEP_BLOCK", 17)
    d, kind = GENERATION_CASES[2]
    want = whole_array_generate(d, 600, Driver(kind, 3)).view(np.int64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        t0 = time.perf_counter()
        for _ in range(2):
            got = generate_qud(d, 600, Driver(kind, 3), threads=8)
            assert np.array_equal(got.coords.view(np.int64), want)
        assert time.perf_counter() - t0 < 60.0
    finally:
        sys.setswitchinterval(interval)


def test_zonal_generation_takes_the_weight_mass_once_on_the_calling_thread(monkeypatch):
    # The first weight_mass in a process imports scipy, which a block worker
    # thread must not do.
    d = ZonalDensity(3, 3, 0.8, np.array([0.0, 0.0, 1.0]))
    callers = []

    def spy(n):
        callers.append(threading.current_thread())
        return weight_mass(n)

    monkeypatch.setattr(capdisc.densities, "weight_mass", spy)
    monkeypatch.setattr(capdisc.densities, "_SWEEP_BLOCK", 64)
    generate_qud(d, 300, Driver("halton_2_3"), threads=2)
    assert callers == [threading.main_thread()]


def test_generate_rejects_fewer_than_one_thread():
    for d, kind in GENERATION_CASES:
        for threads in (0, -2):
            with pytest.raises(ValueError, match="thread"):
                generate_qud(d, 10, Driver(kind), threads=threads)


def test_driver_rejects_indices_past_the_int64_maximum(monkeypatch):
    top = np.iinfo(np.int64).max
    with pytest.raises(ValueError, match="2\\^63 - 1"):
        Driver("halton_2_3", offset=top + 1)
    edge = Driver("van_der_corput_base2", offset=top - 9)
    assert edge.values(10).shape == (10,)
    with pytest.raises(ValueError, match="2\\^63 - 1"):
        edge.values(11)
    # generate_qud checks the whole index range before it transports a block.
    monkeypatch.setattr(capdisc.densities, "_SWEEP_BLOCK", 4)
    monkeypatch.setattr(capdisc.densities, "_invert_monotone_vec", None)
    with pytest.raises(ValueError, match="2\\^63 - 1"):
        generate_qud(PlanarRationalDensity(1, 3), 11, edge, threads=2)


def test_zonal_degree_is_capped_at_max_degree():
    assert zonal_density(k=199).degree == 199
    with pytest.raises(ValueError, match="200"):
        zonal_density(k=201)
