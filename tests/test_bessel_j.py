import math
import pathlib
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import jv, yv

from wsdist.errors import DomainError
from wsdist.specfun import bessel_j
from wsdist.specfun import besselj
from wsdist.specfun.besselj import _HANKEL_EDGES, _bessel_y, _hankel_table, _jy_asymptotic


def _j0_ascending_series(x):
    """Independent oracle: plain ascending series of J_0 (fine for x ~ 3)."""
    term, acc, q = 1.0, 1.0, 0.25 * x * x
    for k in range(60):
        term *= -q / ((k + 1.0) ** 2)
        acc += term
    return acc


def test_j0_at_origin_limit():
    assert abs(bessel_j(0.0, 1e-8) - 1.0) < 1e-15


def test_half_integer_closed_form():
    xs = np.linspace(0.2, 40.0, 37)
    ref = np.sqrt(2.0 / (math.pi * xs)) * np.sin(xs)
    got = bessel_j(0.5, xs)
    assert np.max(np.abs(got - ref)) < 1e-13


def test_first_zero_of_j0_by_bisection():
    lo, hi = 2.0, 3.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _j0_ascending_series(lo) * _j0_ascending_series(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    assert abs(root - 2.404825557695773) < 1e-12  # sanity of the oracle itself
    assert abs(bessel_j(0.0, root)) <= 1e-9


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.0, 3.3, 7.0, 15.5, 33.0, -0.5, -1.7, -2.0, -7.3, 50.0])
def test_j_against_scipy(nu):
    rng = np.random.default_rng(12345)
    xs = np.concatenate(
        [rng.uniform(1e-3, 15.0, 30), rng.uniform(15.0, 60.0, 30), rng.uniform(60.0, 1200.0, 15)]
    )
    got = bessel_j(nu, xs)
    ref = jv(nu, xs)
    envelope = np.sqrt(2.0 / (math.pi * xs))
    err = np.abs(got - ref) / np.maximum(np.abs(ref), envelope)
    assert err.max() < 5e-11


@pytest.mark.parametrize("nu", [1.3, -1.3, 0.7, 0.3])
def test_series_near_its_handover_at_non_half_integer_order(nu):
    # the ascending series hands over to Miller's recurrence at
    # x = 2 sqrt(|nu| + 1) and Miller to the Hankel asymptotics at x = 15;
    # the long-double series that served all of x <= 15 reached 2.6e-14 here
    mp.mp.dps = 30
    xs = np.linspace(8.0, 15.0, 281)
    ref = np.array([float(mp.besselj(nu, mp.mpf(float(x)))) for x in xs])
    envelope = np.sqrt(2.0 / (math.pi * xs))
    assert np.max(np.abs(bessel_j(nu, xs) - ref) / envelope) <= 1e-13


def test_method_overlap_agreement():
    # the ascending series and Miller's recurrence agree on both sides of
    # the switch at x = 2 sqrt(|nu| + 1), the series read past its region
    for nu in (0.0, 0.5, 1.0, 1.5, 2.0, 3.3, 15.5, 49.5, -0.7, -1.5, -7.3, -20.5, -42.5):
        xs = 2.0 * math.sqrt(abs(nu) + 1.0) * np.linspace(0.9, 1.1, 41)
        series = besselj._j_series(nu, xs)
        miller = besselj._miller(nu, xs, 15.0)
        envelope = np.sqrt(2.0 / (math.pi * xs))
        assert np.max(np.abs(series - miller) / np.maximum(np.abs(series), envelope)) < 1e-14, nu


def test_miller_weights_are_built_once_per_order_and_start():
    # a batch of any size reads the same weights, which no call may change
    besselj._miller(0.3, np.array([9.0]), 15.0)
    w = besselj._miller_weights(0.3, besselj._miller_start(15.0))
    assert w is besselj._miller_weights(0.3, besselj._miller_start(15.0))
    assert not w.flags.writeable
    assert w[0] == besselj.gamma(1.3)


def test_vectorized_matches_scalar():
    xs = np.linspace(0.3, 80.0, 23)
    arr = bessel_j(1.5, xs)
    scal = np.array([bessel_j(1.5, float(x)) for x in xs])
    assert np.array_equal(arr, scal)


def test_domain_errors():
    with pytest.raises(DomainError):
        bessel_j(0.0, 0.0)
    with pytest.raises(DomainError):
        bessel_j(0.0, -1.0)
    with pytest.raises(DomainError):
        bessel_j(51.0, 1.0)


@pytest.mark.parametrize("nu, x", [(-49.9, 1e-6), (-20.5, 1e-20), (-49.9, np.array([1e-5, 1.0]))])
def test_value_past_double_range_is_a_domain_error(nu, x):
    # the ascending series' (x/2)^nu / Gamma(nu + 1) overflows the double
    # range, as J does; no numpy overflow warning may leak out with the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="outside the double range"):
            bessel_j(nu, x)


@pytest.mark.parametrize("nu, x", [(50.0, 1e-6), (33.0, 1e-8), (2.0, 1e-200), (50.0, np.array([1e-6, 1.0]))])
def test_y_integer_order_past_double_range_is_a_domain_error(nu, x):
    # the upward order recurrence from Y_0, Y_1 overflows; no numpy
    # overflow or invalid-value warning may leak out with the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="outside the double range"):
            _bessel_y(nu, x)


@pytest.mark.parametrize("nu", [-20.5, -30.3, -49.9])
def test_negative_noninteger_order_past_the_asymptotic_region(monkeypatch, nu):
    # the Hankel series serves none of these x at these orders, so
    # Miller's recurrence runs on below its base order a0 in (0, 1) down
    # to nu, the direction in which J is dominant; J never reads Y
    mp.mp.dps = 30
    xs = np.array([16.0, 20.0, 33.3, 50.0, 80.0])
    seen = []
    miller = besselj._miller
    monkeypatch.setattr(besselj, "_miller", lambda q, x, edge: seen.extend(x) or miller(q, x, edge))
    monkeypatch.setattr(besselj, "_bessel_y", None)
    got = bessel_j(nu, xs)
    assert seen == list(xs)
    ref = np.array([float(mp.besselj(nu, x)) for x in xs])
    envelope = np.sqrt(2.0 / (math.pi * xs))
    err = np.abs(got - ref) / np.maximum(np.abs(ref), envelope)
    assert err.max() < 1e-12


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.0, 3.3, 7.0])
def test_y_against_scipy(nu):
    rng = np.random.default_rng(777)
    xs = np.concatenate([rng.uniform(0.05, 15.0, 25), rng.uniform(15.0, 400.0, 25)])
    got = _bessel_y(nu, xs)
    ref = yv(nu, xs)
    envelope = np.sqrt(2.0 / (math.pi * xs))
    err = np.abs(got - ref) / np.maximum(np.abs(ref), envelope)
    assert err.max() < 5e-11


@pytest.mark.parametrize("n", [0, 1, 2, 5, 30])
def test_y_integer_order_against_mpmath(n):
    # Neumann's expansions of Y_0 and Y_1 summed by one ratio sweep, then
    # the upward order recurrence; a value past the double range raises
    mp.mp.dps = 30
    tiny = [1e-300, 1e-200, 1e-100, 1e-30, 1e-12, 1e-6, 1e-3]
    xs = np.concatenate([tiny, np.linspace(0.01, 15.0, 161)])
    refs = [float(mp.bessely(n, mp.mpf(float(x)))) for x in xs]
    served = np.isfinite(refs)
    assert served.sum() >= 160
    for x in xs[~served]:
        with pytest.raises(DomainError):
            _bessel_y(float(n), x)
    xs, ref = xs[served], np.array(refs)[served]
    envelope = np.sqrt(2.0 / (math.pi * xs))
    err = np.abs(_bessel_y(float(n), xs) - ref) / np.maximum(np.abs(ref), envelope)
    assert err.max() <= 1e-14


def _served(nu, xs):
    counts = _hankel_table(nu)[1]
    return xs[counts[besselj._hankel_band(xs)] > 0]


def test_asymptotic_sums_of_a_point_do_not_depend_on_its_batch_mates():
    # every point sums the fixed number of terms of its band, so J and Y
    # of a point are the same bit for bit alone and in a batch, also one
    # of 40,000 points, past K's block of 8192 and numpy's 256 KiB
    # threshold for reusing a temporary in place
    for size in (200, 40000):
        for nu in (0.0, 1.0, 1.5, 7.3, 40.0):
            xs = _served(nu, 15.0 + np.geomspace(1e-3, 1e4, size))
            assert xs.size >= size // 8
            j, y = _jy_asymptotic(nu, xs)
            for i in np.linspace(0, xs.size - 1, 9).astype(int):
                j1, y1 = _jy_asymptotic(nu, xs[i:i + 1])
                assert (j1[0], y1[0]) == (j[i], y[i])
    xs = 15.0 + np.geomspace(1e-3, 1e4, 40000)
    for nu in (0.0, 1.0, 1.5):  # the series serves every x > 15 here
        j, y = bessel_j(nu, xs), _bessel_y(nu, xs)
        for i in range(0, xs.size, 4999):
            assert (bessel_j(nu, xs[i]), _bessel_y(nu, xs[i])) == (j[i], y[i])
    # so do J's ascending series and Miller's recurrence, whose start is
    # fixed by the order and the point's band: J on (0, 20], and on the
    # bands past 15 that the Hankel series does not serve; and Y on x <= 15,
    # whose ratio sweep runs a fixed number of steps
    near = np.linspace(5e-4, 20.0, 40000)
    for nu in (0.0, 1.0, 1.5, -1.3, 7.3, 40.0, -30.3):
        j = bessel_j(nu, near)
        for i in range(0, near.size, 4999):
            assert bessel_j(nu, near[i]) == j[i]
    small = near[near <= 15.0]
    for nu in (0.0, 1.0, 2.0, 7.0):
        y = _bessel_y(nu, small)
        for i in range(0, small.size, 3999):
            assert _bessel_y(nu, small[i]) == y[i]
    for nu in (7.3, 40.0, -30.3):
        far = np.setdiff1d(xs, _served(nu, xs))
        assert far.size >= 4000
        j = bessel_j(nu, far)
        for i in np.linspace(0, far.size - 1, 9).astype(int):
            assert bessel_j(nu, far[i]) == j[i]


# orders across |q| <= 50: near and at half-integers, negative ones
_BAND_ORDERS = [0.0, 0.3, 0.4999, 0.5, 0.5001, 1.0, 1.4999, 1.5, -1.3, -1.9, 1.99, 3.7, 7.0,
                15.5, 22.2, 33.0, -40.6, 49.5, 50.0]


@pytest.mark.parametrize("q", _BAND_ORDERS)
def test_hankel_band_table(q):
    a, counts = _hankel_table(q)
    if (2 * q) % 2 == 1:  # a half-integer order: the series terminates
        assert len(a) == abs(q) + 0.5
    if abs(q) in (0.5, 1.5):  # K's closed form: the whole list at any |w|
        assert counts.min() == len(a)
    served = counts > 0
    # the served bands are those from the first served one on, and at
    # |q| < 2 (Y's base orders, and J at the oracle's orders) all of them
    assert np.array_equal(served, np.cumsum(served) > 0)
    assert served.all() or abs(q) >= 2.0
    for x, n in zip(_HANKEL_EDGES, counts):
        if n:
            terms = [abs(c) / x ** k for k, c in enumerate(a[:n])]
            stop = abs(a[n]) / x ** n if n < len(a) else 0.0  # 0: past the end
            # summed up to the first term that falls below 1e-17 or grows
            assert all(1e-17 <= t1 < t0 for t0, t1 in zip(terms, terms[1:]))
            assert stop < 1e-17 or terms[-1] <= stop <= 1e-12


def test_hankel_band_of_a_point_is_that_of_its_edges():
    edges = np.array(_HANKEL_EDGES)
    assert np.array_equal(besselj._hankel_band(edges * (1.0 + 1e-12)), np.arange(edges.size))
    assert np.array_equal(besselj._hankel_band(edges[1:] * (1.0 - 1e-12)), np.arange(edges.size - 1))
    assert besselj._hankel_band(np.array([1e300]))[0] == edges.size - 1  # the last band is open


@pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 1.5, -1.3, -1.5])
def test_every_x_past_the_series_takes_the_hankel_series_at_low_order(monkeypatch, nu):
    # |nu| <= 3/2, J's orders in the oracle: Miller's recurrence is never used
    monkeypatch.setattr(besselj, "_miller", None)
    xs = 15.0 + np.geomspace(1e-12, 1e5, 500)
    assert np.all(np.isfinite(bessel_j(nu, xs)))


@pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 1.5, 7.0, 15.5, 33.0, 49.5, 50.0, -1.3, -1.9,
                                -0.7, -0.999, -1.5, -7.3, -20.5, -42.95, -49.9])
def test_j_at_the_hankel_band_edges_against_mpmath(nu):
    # each band sums the term count of its lower edge, so the edge is its
    # worst point; both sides of every edge, the Hankel series or Miller on
    # each, and of J's other switches: the ascending series to Miller at
    # 2 sqrt(|nu| + 1), Miller's start to that of the next band at 15
    mp.mp.dps = 30
    edges = (2.0 * math.sqrt(abs(nu) + 1.0),) + _HANKEL_EDGES
    xs = np.array([e * f for e in edges for f in (1.0 - 1e-9, 1.0 + 1e-9)])
    ref = np.array([float(mp.besselj(nu, mp.mpf(float(x)))) for x in xs])
    envelope = np.sqrt(2.0 / (math.pi * xs))
    err = np.abs(bessel_j(nu, xs) - ref) / np.maximum(np.abs(ref), envelope)
    assert err.max() <= 2e-13


def test_j_at_the_lower_edge_of_every_miller_band_is_finite():
    # Miller's recurrence starts at 1e-290 with no rescale: its values stay
    # inside the double range at every order, also at a band's lower edge,
    # where its fixed start lies furthest above x
    for nu in np.arange(-50.0, 50.5, 0.5):
        counts = _hankel_table(nu)[1]
        edges = [2.0 * math.sqrt(abs(nu) + 1.0)] + [e for e, n in zip(_HANKEL_EDGES, counts) if not n]
        xs = np.array([e * f for e in edges for f in (1.0 - 1e-9, 1.0 + 1e-9)])
        assert np.all(np.isfinite(bessel_j(nu, xs))), nu


def test_no_module_names_long_double():
    # numpy's longdouble is the 64-bit double on MSVC and macOS arm64, so a
    # route in it would give other digits there: J and Y run in double
    src = pathlib.Path(besselj.__file__).parents[1]
    assert not [p for p in src.rglob("*.py") if "longdouble" in p.read_text(encoding="utf-8")]
