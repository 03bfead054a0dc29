"""Tests for the counterexample densities, transport and generation."""

import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import capdisc.densities
from capdisc import (
    Cap,
    Driver,
    PlanarRationalDensity,
    ZonalDensity,
    cap_measure,
    fibonacci_sphere,
    generate_qud,
    marginal_cdf,
    planar_arc_probability,
    positivity_margin,
    zonal_cap_probability,
)
from capdisc.cap_transform import funk_hecke_lambda, weight_mass
from capdisc.densities import _invert_monotone_vec

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
    PlanarRationalDensity(2, 5)  # coprime, and 2/5 is below 1/2


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


def test_planar_arc_probability_exact_on_every_multiple_of_half_period():
    # sin(2 q theta) has period 2 pi/(2q): arcs of length 2 pi j/(2q) carry
    # probability j/(2q) for every start, j = 1 .. 2q - 1, not only 2 pi p/q.
    rng = np.random.default_rng(6)
    for p, q in ((1, 3), (2, 5), (3, 7), (1, 4)):
        d = PlanarRationalDensity(p, q)
        for j in range(1, 2 * q):
            for theta0 in [0.0, math.pi / 7.0, *rng.uniform(0.0, TWO_PI, 20)]:
                got = planar_arc_probability(d, float(theta0), TWO_PI * j / (2 * q))
                assert abs(got - j / (2 * q)) <= 1e-14, (p, q, j, theta0)
    # for q = 3 the arc fractions 1/6 and 1/3 are both fooled; 0.3 is not
    d = PlanarRationalDensity(1, 3)
    assert abs(planar_arc_probability(d, 0.4, TWO_PI / 6.0) - 1.0 / 6.0) <= 1e-14
    assert abs(planar_arc_probability(d, 0.4, TWO_PI * 0.3) - 0.3) > 1e-3


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
        lambda th: d.density(math.cos(th)) * math.sin(th), 0.0, math.pi
    )
    assert abs(mass / 2.0 - 1.0) <= 1e-12
    d4 = zonal_density(n=4, axis=(0.0, 0.0, 0.0, 1.0))
    mass4, _ = integrate.quad(
        lambda th: d4.density(math.cos(th)) * math.sin(th) ** 2, 0.0, math.pi
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


def test_zonal_cap_probability_scaled_center():
    # Cap normalizes its center, so a scaled center names the same cap: the
    # same bits at the freak height, where the Legendre term is below
    # rounding, and within rounding of the center elsewhere.
    d = zonal_density(c=0.8, axis=(0.3, -2.0, 0.7))
    for u in fibonacci_sphere(257):
        assert zonal_cap_probability(d, Cap(3.0 * u, S5)) == zonal_cap_probability(d, Cap(u, S5))
        for s in (0.3, -0.2):
            assert zonal_cap_probability(d, Cap(3.0 * u, s)) == pytest.approx(
                zonal_cap_probability(d, Cap(u, s)), abs=2.0**-52)


def test_zonal_cap_probability_direct_quadrature():
    # hemisphere about the axis: integrate the marginal over [0, 1]
    d = zonal_density(c=0.8)
    ref, _ = integrate.quad(lambda t: 0.5 * d.density(t), 0.0, 1.0)
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
    ref, _ = integrate.quad(lambda x: 0.5 * d.density(x), -1.0, 0.0)
    assert marginal_cdf(d, 0.0) == pytest.approx(ref, abs=1e-12)
    grid = np.linspace(-1.0, 1.0, 101)
    vals = [marginal_cdf(d, float(t)) for t in grid]
    assert np.all(np.diff(vals) > 0.0)
    with pytest.raises(ValueError):
        marginal_cdf(d, 1.5)


def exact_zonal_cdf(k, c, t):
    """G(t) = (1 + t)/2 + c (P_{k+1} - P_{k-1})(t) / (2 (2k + 1)) on S^2, exactly
    at the float inputs.  With t = m / D, R_j = j! D^j P_j(t) is an integer:
    R_{j+1} = (2j + 1) m R_j - j^2 D^2 R_{j-1}."""
    t = Fraction(t)
    m, den = t.numerator, t.denominator
    r_prev, r, p = 1, m, {0: Fraction(1)}
    for j in range(1, k + 1):
        r, r_prev = (2 * j + 1) * m * r - j * j * den * den * r_prev, r
        if j + 1 in (k - 1, k + 1):
            p[j + 1] = Fraction(r, math.factorial(j + 1) * den ** (j + 1))
    return (1 + t) / 2 + Fraction(c) * (p[k + 1] - p[k - 1]) / (2 * (2 * k + 1))


# Heights from 10^-12 above -1 to 10^-12 below 1: there G and 1 - G are
# the smallest, and the bracket of the factored form is near its minimum 1 - c.
ENDS = [10.0**-e for e in range(12, 1, -1)]
CDF_GRID = np.array([-1.0 + e for e in ENDS] + np.linspace(-0.99, 0.99, 23).tolist()
                    + [1.0 - e for e in reversed(ENDS)])


@pytest.mark.parametrize("k", [1, 3, 21, 199])
@pytest.mark.parametrize("c", [0.01, 0.8, 0.999])
def test_zonal_cdf_matches_an_exact_rational_cdf(k, c):
    # Accurate relative to G, also where G is small near t = -1: within
    # 16 k 2^-53 / (1 - c).  Measured: at most 5.5 of those units (k = 199,
    # c = 0.999), and 6.0e-12 at k = 21, c = 0.999.
    d = zonal_density(c=c, k=k)
    got = d.cdf(CDF_GRID)
    assert got.shape == CDF_GRID.shape
    bound = 16 * k * 2.0**-53 / (1.0 - c)
    for g, t in zip(got.tolist(), CDF_GRID.tolist()):
        want = exact_zonal_cdf(k, c, t)
        assert abs(Fraction(g) - want) <= bound * want, (t, g, float(want))
    for x in (-0.37, 0.9999, 1.0):
        scalar = d.cdf(x)
        assert np.ndim(scalar) == 0
        assert scalar == d.cdf(np.array([x]))[0]
    assert d.cdf(-1.0) == 0.0 and d.cdf(1.0) == 1.0
    with pytest.raises(ValueError, match="outside"):
        d.cdf(np.array([0.5, 1.5]))


@pytest.mark.parametrize("k", [1, 3, 21, 199])
@pytest.mark.parametrize("c", [0.01, 0.8, 0.999])
def test_zonal_cdf_is_the_funk_hecke_form_of_marginal_cdf(k, c):
    # On S^2 the array CDF and marginal_cdf's n >= 4 form, 1 - mu(t) -
    # c lambda_k(t), are one identity: they must not drift apart.  Measured:
    # at most 2^-53 apart.
    d = zonal_density(c=c, k=k)
    inner = CDF_GRID[np.abs(CDF_GRID) < 1.0]
    other = [1.0 - cap_measure(3, t) - c * funk_hecke_lambda(3, k, t) for t in inner.tolist()]
    assert np.max(np.abs(d.cdf(inner) - other)) <= 2.0**-50


def test_marginal_cdf_uniform_limit():
    tiny = zonal_density(c=1e-15)
    for t in (-0.6, 0.0, 0.8):
        assert marginal_cdf(tiny, t) == pytest.approx((t + 1.0) / 2.0, abs=1e-14)


def test_marginal_cdf_general_dim():
    d4 = zonal_density(n=4, axis=(0.0, 0.0, 0.0, 1.0))
    mass = math.pi / 2.0
    for t in (-0.8, -0.1, 0.4, 0.9):
        ref, _ = integrate.quad(
            lambda th: d4.density(math.cos(th)) * math.sin(th) ** 2,
            math.acos(t),
            math.pi,
        )
        assert marginal_cdf(d4, t) == pytest.approx(ref / mass, abs=1e-10)
    assert marginal_cdf(d4, -1.0) == 0.0
    assert marginal_cdf(d4, 1.0) == 1.0
    with pytest.raises(ValueError, match="dim 3"):
        d4.cdf(0.4)  # the array CDF is the S^2 closed form only


def test_inverse_cdf():
    uniform = lambda th: th / TWO_PI
    flat = lambda th: np.full_like(th, 1.0 / TWO_PI)
    x = _invert_monotone_vec(uniform, flat, [0.0, 0.25], 0.0, TWO_PI)
    assert x == pytest.approx([0.0, math.pi / 2.0], abs=1e-10)
    d = zonal_density(c=0.8)
    x = _invert_monotone_vec(d.cdf, lambda t: 0.5 * d.density(t), [0.55], -1.0, 1.0)
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
    theta = TWO_PI * ps.turns()
    target = planar_arc_probability(d, 0.0, math.pi / 6.0)
    frac = float(np.mean(theta < math.pi / 6.0))
    assert abs(frac - target) < 0.002
    # CDF of each generated angle should sit close to its driver value
    x = Driver("van_der_corput_base2").values(1000)
    sample = generate_qud(d, 1000, Driver("van_der_corput_base2"))
    assert np.max(np.abs(d.cdf(TWO_PI * sample.turns()) - x)) < 1e-9


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


def transport_problem(d):
    """(fvec, dvec, lo, hi) of the CDF that generate_qud inverts."""
    (lo, hi), mass = d._bracket, d._mass
    return d.cdf, lambda x: d.density(x) / mass, lo, hi


def one_block_generate(monkeypatch, d, N, driver):
    """generate_qud as one block and one Newton slice."""
    with monkeypatch.context() as m:
        m.setattr(capdisc.densities, "_SWEEP_BLOCK", N)
        m.setattr(capdisc.densities, "_NEWTON_SLICE", N)
        return generate_qud(d, N, driver).coords


GENERATION_CASES = [
    (PlanarRationalDensity(1, 3), "van_der_corput_base2"),
    (PlanarRationalDensity(2, 5), "kronecker_golden"),
    (ZonalDensity(dim=3, degree=3, coefficient=0.8, axis=np.array([1.0, 2.0, 2.0])), "halton_2_3"),
]


@pytest.mark.parametrize("d, kind", GENERATION_CASES)
@pytest.mark.parametrize("offset", [0, 7919])
def test_blocked_generation_bit_identical_at_block_edges(monkeypatch, d, kind, offset):
    block = 97
    for n in (1, block - 1, block, block + 1, 5 * block + 3):
        want = one_block_generate(monkeypatch, d, n, Driver(kind, offset)).view(np.int64)
        # Blocks of 97 points, and Newton slices of 31 that do not divide them.
        monkeypatch.setattr(capdisc.densities, "_SWEEP_BLOCK", block)
        monkeypatch.setattr(capdisc.densities, "_NEWTON_SLICE", 31)
        for threads in (1, 2, 3):
            got = generate_qud(d, n, Driver(kind, offset), threads=threads)
            assert np.array_equal(got.coords.view(np.int64), want), (n, threads)
            assert got.provenance.seed == offset


@pytest.mark.parametrize("d, kind", GENERATION_CASES)
def test_blocked_generation_bit_identical_past_one_block(monkeypatch, d, kind):
    n = 2**16 + 3
    want = one_block_generate(monkeypatch, d, n, Driver(kind, 12345)).view(np.int64)
    for threads in (1, 2, 3):
        got = generate_qud(d, n, Driver(kind, 12345), threads=threads)
        assert np.array_equal(got.coords.view(np.int64), want), threads


def test_blocked_generation_under_thread_stress(monkeypatch):
    # Blocks write disjoint rows of one shared array: many more workers than
    # cores and a tiny switch interval must still give the serial bits.
    d, kind = GENERATION_CASES[2]
    want = one_block_generate(monkeypatch, d, 600, Driver(kind, 3)).view(np.int64)
    monkeypatch.setattr(capdisc.densities, "_SWEEP_BLOCK", 17)
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


def test_zonal_mass_is_the_weight_mass_of_the_two_sphere():
    # The transport divides by this constant, so Newton's last bits follow it.
    assert ZonalDensity._mass == weight_mass(3) == 2.0


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


TRANSPORT_DENSITIES = [PlanarRationalDensity(1, 3), PlanarRationalDensity(2, 5),
                       PlanarRationalDensity(1, 4)] + [
    zonal_density(c=c, k=k) for k in (1, 3, 21, 199) for c in (0.01, 0.8, 0.999)
]


def density_id(d):
    if isinstance(d, PlanarRationalDensity):
        return f"planar-{d.p}/{d.q}"
    return f"zonal-k{d.degree}-c{d.coefficient}"


@st.composite
def transport_inputs(draw):
    """A density and driver values y, some of them adversarial: fl(G(m)) and
    its float neighbours for a mid m of a coarse bisection, which puts the
    root within rounding of a mid the transport visits."""
    d = draw(st.sampled_from(TRANSPORT_DENSITIES))
    fvec, _, lo, hi = transport_problem(d)
    y = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=48))
    for _ in range(draw(st.integers(0, 6))):
        a, b = lo, hi
        for right in draw(st.lists(st.booleans(), min_size=0, max_size=20)):
            mid = 0.5 * (a + b)
            a, b = (mid, b) if right else (a, mid)
        g = float(fvec(np.array([0.5 * (a + b)]))[0])
        shift = draw(st.integers(-3, 3))
        for _ in range(abs(shift)):
            g = math.nextafter(g, math.copysign(math.inf, shift))
        if 0.0 <= g < 1.0:
            y.append(g)
    return d, np.array(draw(st.permutations(y)))


# The largest |fl(G(x)) - y| the transport may leave, 4 units of 2^-53; at
# most 3 were seen.
RESIDUAL_BOUND = 2.0**-51


@settings(max_examples=150)
@given(transport_inputs())
def test_transport_roots_solve_the_cdf_in_order(case):
    # Each root lies in [lo, hi] and solves fl(G(x)) = y to RESIDUAL_BOUND.
    # The roots follow the order of y, except where two y lie within
    # RESIDUAL_BOUND: fl(G) rounds too coarsely to order those (y one or two
    # units of 2^-53 apart swap their roots by an ulp or a few).
    d, y = case
    fvec, dvec, lo, hi = transport_problem(d)
    x = _invert_monotone_vec(fvec, dvec, y, lo, hi)
    assert np.all((lo <= x) & (x <= hi))
    assert np.max(np.abs(fvec(x) - y)) <= RESIDUAL_BOUND
    order = np.argsort(y, kind="stable")
    ys, xs = y[order], x[order]
    for j in range(1, len(ys)):
        swapped = xs[:j] > xs[j]
        assert np.all(ys[j] - ys[:j][swapped] <= RESIDUAL_BOUND), (ys[j], xs[j])


def transport_steps(d, y):
    """The most Newton steps any point of y took.  Each slice is inverted on
    its own, so its fvec calls are the locate table's and one per step."""
    fvec, dvec, lo, hi = transport_problem(d)
    most, size = 0, capdisc.densities._NEWTON_SLICE
    for start in range(0, len(y), size):
        calls = []
        counted = lambda x: calls.append(len(x)) or fvec(x)  # noqa: E731
        _invert_monotone_vec(counted, dvec, y[start : start + size], lo, hi)
        most = max(most, len(calls) - 1)
    return most


@pytest.mark.parametrize("d", TRANSPORT_DENSITIES, ids=density_id)
def test_no_point_reaches_the_newton_step_cap(d):
    # Random y, y near 0 and 1, and the ends themselves.  Measured: at most
    # 6 steps planar, 8 zonal with c <= 0.8 and 10 at c = 0.999 (here and on
    # 10^6 random y each), against a cap of 32.  12 bounds the c = 0.999
    # densities too: near t = -1, where they are flattest, G must be
    # accurate relative to itself for Newton to converge as fast as elsewhere.
    rng = np.random.default_rng(23)
    near = rng.random(2000) ** 8
    y = np.concatenate([rng.random(30_000), near, np.minimum(1.0 - near, 1.0 - 2.0**-53),
                        [0.0, 5e-324, 1e-300, 2.0**-53, 1.0 - 2.0**-53, 1.0 - 2.0**-52]])
    assert np.all((0.0 <= y) & (y < 1.0))
    steps = transport_steps(d, y)
    assert steps < capdisc.densities._NEWTON_STEPS
    assert steps <= 12


def long_double_cdf(d, x):
    """The transport CDF's formula evaluated in long double."""
    x = x.astype(np.longdouble)
    if isinstance(d, PlanarRationalDensity):
        pi = np.longdouble("3.14159265358979323846264338327950288")
        return x / (2 * pi) + (1 - np.cos(2 * d.q * x)) / (8 * pi * d.q)
    k = d.degree
    poly = long_double_legendre(k + 1, x) - long_double_legendre(k - 1, x)
    return (x + 1) / 2 + np.longdouble(d.coefficient) * poly / (2 * (2 * k + 1))


def long_double_legendre(n, x):
    """P_n(x) by the S^2 Legendre recurrence, in x's precision."""
    p_prev, p = np.ones_like(x), x
    for j in range(1, n):
        p, p_prev = ((2 * j + 1) * x * p - j * p_prev) / (j + 1), p
    return p if n else p_prev


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs an 80-bit long double")
@pytest.mark.parametrize("d", TRANSPORT_DENSITIES, ids=density_id)
def test_cdf_error_bound_holds_eight_times_over(d):
    # The true residual |G(x) - y| at transported roots, G evaluated in long
    # double, stays 8 times below 2^-48 (32 units of 2^-53).  Measured: at
    # most 2.4 units planar and 1.5 zonal, at random y and y near 0 and 1.
    fvec, dvec, lo, hi = transport_problem(d)
    rng = np.random.default_rng(11)
    near = rng.random(200) ** 8
    y = np.concatenate([rng.random(2000), near, np.minimum(1.0 - near, 1.0 - 2.0**-53)])
    roots = _invert_monotone_vec(fvec, dvec, y, lo, hi)
    err = np.max(np.abs(long_double_cdf(d, roots) - y.astype(np.longdouble)))
    assert 8 * err <= 2.0**-48, float(err)
