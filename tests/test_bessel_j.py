import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import jv, yv

from wsdist.errors import DomainError
from wsdist.specfun import bessel_j
from wsdist.specfun.besselj import _bessel_y, _jy_asymptotic


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


def test_method_overlap_agreement():
    # the ascending series and the large-x methods must agree across the
    # switch, evaluated at the same points just above it
    from wsdist.specfun.besselj import _j_series

    xs = np.linspace(15.05, 16.5, 7)
    for nu in (0.0, 0.5, 2.0, 3.3):
        series = _j_series(nu, xs)
        dispatched = bessel_j(nu, xs)
        assert np.max(np.abs(series - dispatched)) < 1e-10


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
    # the ascending series' long-double result does not fit a double;
    # no numpy overflow warning may leak out with the error
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
def test_negative_noninteger_order_past_the_asymptotic_region(nu):
    # the Hankel bound rejects these x, so J_nu = J_a cos(a pi) - Y_a sin(a pi),
    # a = -nu, with J_a from Miller's recurrence
    mp.mp.dps = 30
    xs = np.array([16.0, 20.0, 33.3, 50.0, 80.0])
    assert np.all(_jy_asymptotic(nu, xs)[2] > 1e-12)
    got = bessel_j(nu, xs)
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
