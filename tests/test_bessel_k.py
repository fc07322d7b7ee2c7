import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from wsdist.errors import DomainError
from wsdist.quadrature import integrate_finite
from wsdist.specfun import bessel_k_complex, hankel1_complex, bessel_j
from wsdist.specfun.besselj import _HANKEL_EDGES, _bessel_y
from wsdist.specfun import besselk
from wsdist.specfun.besselk import _k_core

K0_AT_1 = 0.42102443824070834  # frozen from the cosh-kernel quadrature below


def test_half_integer_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(25):
        r = 10 ** rng.uniform(-1.5, 1.8)
        th = rng.uniform(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6)
        w = r * cmath.exp(1j * th)
        ref = cmath.sqrt(math.pi / (2.0 * w)) * cmath.exp(-w)
        got = bessel_k_complex(0.5, w)
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_conjugation_symmetry():
    for mu in (0.0, 0.3, 1.0, 2.5):
        for w in (0.4 + 0.9j, 3.0 - 2.0j, 9.0 + 11.0j, 30.0 - 4.0j):
            a = bessel_k_complex(mu, np.conj(w))
            b = np.conj(bessel_k_complex(mu, w))
            assert abs(a - b) <= 1e-13 * max(abs(a), 1e-300)


def test_real_argument_gives_real_value():
    for mu in (0.0, 0.5, 1.0, 3.5):
        for x in (0.3, 1.0, 5.0, 13.0, 40.0):
            v = bessel_k_complex(mu, complex(x))
            assert abs(v.imag) <= 1e-14 * abs(v.real)


def test_k0_at_one_against_cosh_kernel_quadrature():
    # independent oracle: K_0(1) = int_0^inf exp(-cosh t) dt
    res = integrate_finite(lambda t: np.exp(-np.cosh(t)), 0.0, 6.0, 1e-13)
    tail = math.exp(-math.cosh(6.0))  # < 1e-87
    assert res.converged and tail < 1e-15
    assert abs(res.value.real - K0_AT_1) <= 1e-12
    assert abs(bessel_k_complex(0.0, 1.0 + 0j) - K0_AT_1) <= 1e-12


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0, 2.0, 0.3, 1.5, 3.5, 7.0, 10.0])
def test_k_against_mpmath(mu):
    mp.mp.dps = 30
    rng = np.random.default_rng(42)
    ws = []
    for _ in range(30):
        r = 10 ** rng.uniform(-2.0, 2.2)
        th = rng.uniform(-math.pi / 2 + 1e-9, math.pi / 2 - 1e-9)
        ws.append(r * cmath.exp(1j * th))
    for r in (1.9, 2.1, 13.9, 14.1, 16.0):
        for deg in (0.001, 44.0, 77.5, 89.99):
            ws.append(r * cmath.exp(1j * math.radians(deg)))
            ws.append(r * cmath.exp(-1j * math.radians(deg)))
    for w in ws:
        got = bessel_k_complex(mu, w)
        ref = complex(mp.besselk(mu, mp.mpc(w)))
        assert abs(got - ref) <= 5e-11 * max(abs(ref), 1e-300), f"w={w}"


# away from the axis, 2 < |w| <= 14 and Re w >= 0.22 |w| (every point
# below, and both batch mates): the region of the Taylor series about
# lattice nodes (the terminating asymptotic series at half-integer order),
# with |w| + Re w > 4 at every point, so Temme's series takes none of them
_INTERIOR = [5.0 + 3.0j, 9.0 - 6.0j, 12.0 + 1.0j, 3.1 - 2.4j, 2.6 + 11.0j]


@pytest.mark.parametrize("mu", [0.0, 0.3, 1.5, 4.0])
def test_interior_k_independent_of_batch_mates(mu):
    # mates near the axis bring Taylor nodes of their own into the call
    mates = [2.6 + 11.0j, 2.2 - 9.5j]
    for w in _INTERIOR[:4]:
        alone = bessel_k_complex(mu, np.array([w]))[0]
        batched = bessel_k_complex(mu, np.array([w] + mates))[0]
        assert abs(alone - batched) <= 1e-14 * abs(alone), f"w={w}"


@pytest.mark.parametrize("mu", [0.0, 0.3, 1.5, 4.0])
def test_interior_k_against_mpmath(mu):
    mp.mp.dps = 30
    got = bessel_k_complex(mu, np.array(_INTERIOR))
    for w, g in zip(_INTERIOR, got):
        ref = complex(mp.besselk(mu, mp.mpc(w)))
        assert abs(g - ref) <= 1e-12 * abs(ref), f"w={w}"


# orders within 0.01 of an integer: the Taylor series serves all of these
# points, near the axis too
_NEAR_INT_ORDERS = [0.005, 1.003, 2.0099]
_NEAR_INT_INTERIOR = [5.0 + 3.0j, 12.0 + 1.0j, 3.1 - 2.4j, 0.5 + 10.0j, 0.3 - 5.0j, 0.4 + 13.5j]
_NEAR_INT_AXIS = [0.1 + 10.0j, 0.2 + 13.0j, 0.1 - 13.9j]


def _worst_k_error(mu, ws, k=bessel_k_complex):
    mp.mp.dps = 30
    got = k(mu, np.array(ws))
    refs = [complex(mp.besselk(mu, mp.mpc(w))) for w in ws]
    return max(abs(g - r) / abs(r) for g, r in zip(got, refs))


@pytest.mark.parametrize("mu", _NEAR_INT_ORDERS)
def test_near_integer_order_interior_against_mpmath(mu):
    assert _worst_k_error(mu, _NEAR_INT_INTERIOR) <= 1e-12


@pytest.mark.parametrize("mu", _NEAR_INT_ORDERS)
def test_near_integer_order_near_axis_against_mpmath(mu):
    assert _worst_k_error(mu, _NEAR_INT_AXIS) <= 1e-12


# K off the small disc, |w| > 2 and Re w >= 0: Temme's series to |w| = 4
# along the imaginary axis (|w| + Re w <= 4), the Taylor series past it
# and the fixed-degree asymptotic series from |w| = 24 on (at every |w| at
# half-integer order, where it terminates), both sides of each edge
# and of |w| = 14, on the imaginary axis exactly (hankel1_complex's real
# axis; the public K gates it off) and just off it, like the oracle's
# w = eps k - i s k; Re w <= 600 keeps K inside the double range
_CF2_ORDERS = [0.0, 0.3, 0.5, 1.0, 1.5, 0.005, 1.003, 2.0099, 3.5, 7.0, 10.0]
_CF2_RADII = (2.01, 3.3, 3.99, 4.01, 7.9, 13.99, 14.01, 23.99, 24.0, 61.0, 480.0, 2000.0)
_CF2_AXIS = [sign * 1j * r for r in _CF2_RADII for sign in (1.0, -1.0)]
_CF2_OFF_AXIS = [
    w for w in (r * cmath.exp(1j * math.radians(deg))
                for r in _CF2_RADII for deg in (89.97, -89.4, -60.0, 20.0, 0.0))
    if w.real <= 600.0
]


@pytest.mark.parametrize("mu", _CF2_ORDERS)
def test_cf2_region_against_mpmath(mu):
    assert all(w.real == 0.0 for w in _CF2_AXIS)
    assert _worst_k_error(mu, _CF2_AXIS + _CF2_OFF_AXIS, _k_core) <= 1e-13


# from |w| = 24 on, Re w >= 0, K is a fixed-length asymptotic sum: the
# band of |w| from 23.4375 to 29.296875 sums 20 or 21 terms at the orders
# below, the count its lower edge needs for a first omitted term below
# 1e-17, so the values sit at rounding level at the route's edge |w| = 24
# and just below the band's upper edge
_HORNER_EDGE = [r * cmath.exp(1j * math.radians(deg))
                for r in (24.0, 25.0, _HANKEL_EDGES[3] * (1.0 - 1e-9))
                for deg in (90.0, 89.97, -89.97, -90.0, 45.0, 0.0)]


@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0, 1.25, 3.5])
def test_fixed_degree_asymptotic_edge_at_rounding_level(mu):
    assert _worst_k_error(mu, _HORNER_EDGE, _k_core) <= 3e-15


# both sides of band edges of the asymptotic series, |w| = 29.3, 45.8 and
# 139.7 (edges 3, 5 and 10 of _HANKEL_EDGES), where the term count drops:
# each band's first omitted term is below 1e-17 at its own lower edge
_HORNER_BAND_EDGES = [r * f * cmath.exp(1j * math.radians(deg))
                      for r in (_HANKEL_EDGES[3], _HANKEL_EDGES[5], _HANKEL_EDGES[10])
                      for f in (1.0 - 1e-9, 1.0)
                      for deg in (90.0, 89.97, -89.97, -90.0, 45.0, 0.0)]


@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0, 1.25, 3.5])
def test_asymptotic_band_edges_at_rounding_level(mu):
    assert _worst_k_error(mu, _HORNER_BAND_EDGES, _k_core) <= 3e-15


# the Taylor series about the nearest node w0 of the lattice (Z + iZ)/2,
# |w| + Re w > 4 and |w| < 24: points on nodes, on the lines halfway
# between nodes (where the nearest node changes) and next to them, at
# the nodes nearest the origin (|w0| = 2), just past Temme's edge and
# just inside |w| = 24, on the imaginary axis and off it, and random ones
def _taylor_points():
    ws = [2.0 + 0j, 3.0 - 1.5j, 6.0j, -23.5j, 12.5 + 12.5j, 0.5 - 4.5j]
    ws += [2.25 + 0.25j, 2.2499999 + 0.2500001j, 0.25 + 4.75j, 0.2500001 - 4.7499999j,
           10.75 - 3.25j, 1.75 + 1.75j, 2.01 + 0.01j, 2.1 - 0.4j]
    ws += [w * (1.0 + 1e-9) for w in (4.0j, -4.0j, 0.4 + 3.5777j, 1.6 - 1.7889j, 2.0 + 0j)]
    ws += [23.999 * cmath.exp(1j * math.radians(deg)) for deg in (90.0, 89.97, 45.0, 0.0, -90.0)]
    rng = np.random.default_rng(29)
    r, th = rng.uniform(2.0, 24.0, 60), rng.uniform(-0.5, 0.5, 60) * math.pi
    ws += list(r * np.exp(1j * th))
    return [w for w in ws if abs(w) + w.real > 4.0 and abs(w) < 24.0]


@pytest.mark.parametrize("mu", [0.0, 1e-7, 0.3, 0.4999, 0.5001, 1.0, 1.003, 1.4999, 2.0099,
                                3.3, 7.0, 10.0])
def test_taylor_region_against_mpmath(monkeypatch, mu):
    ws = _taylor_points()
    assert len(ws) > 60
    assert set(_route_of(monkeypatch, mu, ws)) == {"_k_pair_taylor"}
    monkeypatch.undo()
    assert _worst_k_error(mu, ws, _k_core) <= 4e-15


@pytest.mark.parametrize("name, ws", [
    ("_k_pair_temme", [0.3 + 0.1j, 1.0 - 2.0j, 3.9j]),
    ("_k_pair_taylor", [2.5 + 0.1j, 6.0 - 8.0j, 20.0j]),
    ("_k_pair_horner", [30.0 + 0.1j, 60.0 - 80.0j, 200.0j]),
], ids=["_k_pair_temme-ws0", "_k_pair_taylor-ws2", "_k_pair_horner-ws3"])
def test_route_values_do_not_depend_on_the_orders_asked(name, ws):
    # below |mu| = 3/2 _k_core asks a route for one order of the pair only
    route = getattr(besselk, name)
    w = np.array(ws)
    for mu0 in (0.0, 0.3, -0.4999):
        both = route(mu0, w, (0, 1))
        assert np.array_equal(route(mu0, w, (0,))[0], both[0])
        assert np.array_equal(route(mu0, w, (1,))[0], both[1])


# Temme's series, |w| + Re w <= 4 and Re w >= 0: radii from 1e-3 to 4 at
# angles from the positive real axis to the imaginary one (exactly on it
# too, through _k_core), and random ones; orders at and near
# integers (2 + 5e-11 once sat inside a 1e-10 snap to the integer), near
# +-1/2 and a few generic ones
_TEMME_ORDERS = [0.0, 3e-9, -1e-7, 1e-7, 2 + 1e-7, 1 + 5e-11, 2 + 5e-11, 5 - 3e-9,
                 0.4999, 1.5001, 0.3, 2.75, 6.2, 10.0]


def _temme_points():
    ws = [r * cmath.exp(1j * math.radians(deg))
          for r in (1e-3, 0.05, 0.4, 1.0, 1.7, 2.0, 2.6, 3.3, 3.9, 4.0)
          for deg in (0.0, 30.0, -45.0, 60.0, -75.0, 85.0, -89.9)]
    ws += [r * 1j for r in (0.3, 1.9, 3.2, 4.0)] + [-3.99j, 2.0 + 0j]
    rng = np.random.default_rng(17)
    r, th = 4.0 * np.sqrt(rng.uniform(size=100)), rng.uniform(-0.5, 0.5, 100) * math.pi
    ws += list(r * np.exp(1j * th))
    return [w for w in ws if abs(w) + w.real <= 4.0]


@pytest.mark.parametrize("mu", _TEMME_ORDERS)
def test_temme_region_against_mpmath(mu):
    assert _worst_k_error(mu, _temme_points(), _k_core) <= 2e-14


def _route_of(monkeypatch, mu, ws):
    """The name of the base-pair route that serves each point: the first
    to see it (CF2 sees only the Taylor route's lattice nodes, after it)."""
    seen = {}
    for name in ("_k_pair_temme", "_k_pair_cf2", "_k_pair_taylor", "_k_pair_horner"):
        def spy(mu0, w, *need, fn=getattr(besselk, name), name=name):
            for x in w:
                seen.setdefault(complex(x), name)
            return fn(mu0, w, *need)
        monkeypatch.setattr(besselk, name, spy)
    _k_core(mu, np.array(ws))
    return [seen[complex(w)] for w in ws]


# CF2 takes a fixed _CF2_STEPS steps at every Taylor node: the slowest
# nodes (+-2i, then the others near |w0| = 2 and the imaginary axis) and
# every 8th node of the outermost ring, 23 <= |w0| < 24.5, where it used
# to hand over to the asymptotic series.  Overflow or an invalid operation
# (the step coefficient c grows like (i-1)!) fails the test
def _cf2_nodes():
    ws = [2.0j, -2.0j, 1.5 + 1.5j, 1.5 - 1.5j, 0.5 + 2.0j, 0.5 - 2.0j, 2.0 + 0j]
    row, col = np.divmod(np.arange(besselk._TAYLOR_ROWS * besselk._TAYLOR_COLS),
                         besselk._TAYLOR_COLS)
    w0 = besselk._K_TAYLOR_STEP * (row + 1j * (col - besselk._TAYLOR_HALF))
    ring = w0[(np.abs(w0) >= 23.0) & (np.abs(w0) < 24.5)]
    return ws + list(ring[::8])


@pytest.mark.parametrize("mu0", [0.0, 1e-9, 0.3, -0.4999])
def test_cf2_fixed_steps_at_the_taylor_nodes(mu0):
    mp.mp.dps = 30
    ws = _cf2_nodes()
    assert len(ws) > 40
    with np.errstate(over="raise", invalid="raise"):
        k0, k1 = besselk._k_pair_cf2(mu0, np.array(ws))
    for j, got in enumerate((k0, k1)):
        for w, g in zip(ws, got):
            ref = complex(mp.besselk(mu0 + j, mp.mpc(w)))
            assert abs(g - ref) <= 2e-15 * abs(ref), f"order {mu0 + j}, w={w}"


def test_cf2_seeds_each_node_once_per_process(monkeypatch):
    # orders 0, 1 and 2 share mu0 = 0; 2.3 has its own table
    besselk._lattice_pairs.cache_clear()
    seen = []
    cf2 = besselk._k_pair_cf2

    def spy(mu0, w):
        seen.extend((mu0, complex(x)) for x in w)
        return cf2(mu0, w)

    monkeypatch.setattr(besselk, "_k_pair_cf2", spy)
    ws = np.array(_taylor_points())
    for mu in (0.0, 1.0, 2.0, 2.3):
        for part in (ws[::2], ws, ws[::-3]):
            _k_core(mu, part)
    assert seen and len(set(seen)) == len(seen)


@pytest.mark.parametrize("mu", [0.0, 1.0, 0.3, 3.3])
def test_k_from_a_warm_node_table_equals_a_cold_call(mu):
    ws = np.array(_taylor_points())
    # calls with other mates warm the table first: the nodes of ws, of
    # their mirror images and of ws moved by 0.1 get their pairs there
    _k_core(mu, np.conj(ws))
    _k_core(mu, ws[1::2] + 0.1)
    _k_core(mu, ws[::2])
    warm = _k_core(mu, ws)
    cold = []
    for w in ws:
        besselk._lattice_pairs.cache_clear()
        cold.append(complex(_k_core(mu, np.array([w]))[0]))
    assert warm.tolist() == cold  # bit for bit


@pytest.mark.parametrize("mu", [0.0, 2 + 5e-11, 0.4999, 3.3])
def test_temme_edge_both_sides(monkeypatch, mu):
    # the edge |w| + Re w = 4 runs from w = 2 to w = +-4i: x + iy with
    # y^2 = 16 - 8x; each point moved 1e-9 in and out along its ray
    edge = [x + 1j * sign * math.sqrt(16.0 - 8.0 * x)
            for x in (0.0, 0.4, 1.0, 1.6, 2.0) for sign in (1.0, -1.0)]
    inside = [w * (1.0 - 1e-9) for w in edge]
    outside = [w * (1.0 + 1e-9) for w in edge]
    assert all(abs(w) + w.real < 4.0 for w in inside)
    assert all(abs(w) + w.real > 4.0 for w in outside)
    routes = _route_of(monkeypatch, mu, inside + outside)
    assert routes == ["_k_pair_temme"] * len(inside) + ["_k_pair_taylor"] * len(outside)
    monkeypatch.undo()
    assert _worst_k_error(mu, inside + outside, _k_core) <= 2e-14


@pytest.mark.parametrize("mu", [0.5, 1.5, 9.5])
def test_half_integer_order_takes_the_terminating_series_everywhere(monkeypatch, mu):
    # the asymptotic series ends after one or two terms there: the closed form
    ws = [1e-3 + 0j, 0.5 - 0.5j, 2.0j, 3.9 + 0.01j, 30.0 - 1.0j]
    routes = _route_of(monkeypatch, mu, ws)
    assert routes == ["_k_pair_horner"] * 5
    monkeypatch.undo()
    assert _worst_k_error(mu, ws, _k_core) <= 3e-15


def test_k_domain_errors():
    with pytest.raises(DomainError):
        bessel_k_complex(0.0, -1.0 + 0j)
    with pytest.raises(DomainError):
        bessel_k_complex(0.0, 0.0 + 1j)  # Re w = 0 gated in the public API
    with pytest.raises(DomainError):
        bessel_k_complex(11.0, 1.0 + 0j)


@pytest.mark.parametrize("fn, mu, arg", [
    (bessel_k_complex, 0.0, complex(math.nan, 1.0)),
    (bessel_k_complex, 0.0, complex(1.0, math.inf)),
    (hankel1_complex, 0.0, math.nan),
    (hankel1_complex, 0.0, math.inf),
    (hankel1_complex, 0.0, np.array([1.0, math.nan])),
    # a NaN order
    (bessel_k_complex, math.nan, 1.0),
    (hankel1_complex, math.nan, 1.0),
    (bessel_j, math.nan, 1.0),
    # true values near 1e408, past the double range
    (bessel_k_complex, 10.0, 1e-40),
    (hankel1_complex, 10.0, 1e-40),
])
def test_non_finite_argument_or_value_is_a_domain_error(fn, mu, arg):
    # a numpy RuntimeWarning is a test failure here (pyproject filterwarnings)
    with pytest.raises(DomainError):
        fn(mu, arg)


def test_hankel_identity_against_j_plus_iy():
    xs = np.linspace(0.1, 20.0, 41)
    for mu in (0.0, 0.5, 1.0, 2.0):
        h = hankel1_complex(mu, xs.astype(complex))
        ref = bessel_j(mu, xs) + 1j * _bessel_y(mu, xs)
        rel = np.abs(h - ref) / np.abs(ref)
        assert rel.max() <= 1e-9


def test_hankel_half_integer_closed_form():
    # H1_{1/2}(z) = -i sqrt(2/(pi z)) e^{iz}, via the K_{1/2} composition
    for z in (0.7 + 0.0j, 2.0 + 1.5j, -1.3 + 0.4j, 5.0 + 0.01j):
        got = hankel1_complex(0.5, z)
        ref = -1j * cmath.sqrt(2.0 / (math.pi * z)) * cmath.exp(1j * z)
        assert abs(got - ref) <= 1e-12 * abs(ref), f"z={z}"


def test_hankel_from_k0_value():
    got = hankel1_complex(0.0, 1j)
    ref = 2.0 / (1j * math.pi) * K0_AT_1
    assert abs(got - ref) <= 1e-12


def test_hankel_upper_half_plane_and_negative_axis():
    mp.mp.dps = 30
    for mu in (0.0, 0.7, 2.0):
        for z in (2.0 + 3.0j, -1.5 + 1e-14j, 0.3 + 0.01j, -4.0 + 0j):
            got = hankel1_complex(mu, z)
            ref = complex(mp.hankel1(mu, mp.mpc(z)))
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), f"z={z}"


def test_hankel_value_does_not_depend_on_call_size():
    # every point sums a fixed number of terms, so a point's value must
    # be the same bit for bit however many points share its call; a large
    # temporary reused in place by numpy rounds differently.  The first
    # 100 points of each call have w = -iz with Re w >= 0 and |w| about
    # 20 (the Taylor series), 30 (the fixed-degree asymptotic series),
    # 2.5 (Temme's series), 4.5 (the Taylor series about nodes that the
    # rest of the call shares) and 0.5 (Temme's series, as is every point
    # of that call); at order 0.5 the asymptotic series, which terminates
    # there, serves every point of every call.
    for z in ((1.0 + 0.1j) * np.linspace(20.0, 400.0, 40000),
              (1.0 + 0.1j) * np.linspace(30.0, 400.0, 40000),
              (1.0 + 0.05j) * np.linspace(2.5, 13.5, 20000),
              (1.0 + 0.05j) * np.linspace(4.5, 13.5, 20000),
              (1.0 + 0.05j) * np.linspace(0.5, 3.7, 20000)):
        assert z.size > 16384
        for mu in (1.0, 0.5, 3.3):
            assert np.array_equal(hankel1_complex(mu, z)[:100], hankel1_complex(mu, z[:100]))


def test_hankel_sector_errors():
    with pytest.raises(DomainError):
        hankel1_complex(0.0, 0.0)
    with pytest.raises(DomainError):
        hankel1_complex(0.0, cmath.exp(-0.5j * math.pi) * 2.0)  # arg z = -pi/2
    with pytest.raises(DomainError):
        hankel1_complex(0.0, -1.0 - 0.5j)


@pytest.mark.parametrize("z", [
    1.0 - 0.5j,
    2.0 * cmath.exp(-0.1j),
    complex(3.0, -1e-300),  # arg z just below 0
    -4.0 - 1e-12j,  # just below the negative axis
    complex(-4.0, -0.0),  # its lower side, arg z = -pi
    np.array([1.0 + 1.0j, 2.0 - 0.01j]),
])
def test_hankel_lower_half_plane_is_a_domain_error(z):
    # H1 is served on 0 <= arg z <= pi only, where w = -iz has Re w >= 0
    with pytest.raises(DomainError):
        hankel1_complex(0.0, z)
