import math

import numpy as np
import pytest

from wsdist.distributions import (
    DistributionExpansion,
    TestFunction,
    pair,
    pair_alpha_invariance_check,
    sokhotski_pair,
    validate_expansion,
)
from wsdist.errors import SupportError, ToleranceError
from wsdist.quadrature import integrate_finite
from wsdist.selftest import alpha_invariance, measure_consistency, sokhotski_limit
from wsdist.weber_schafheitlin import OrderPair, prop1_distribution


def _pure_delta(coeff=1.0 + 0.0j):
    return DistributionExpansion(
        delta_coeff=coeff,
        pv_coeff=0.0j,
        F=lambda s: 1.0 + 0.0j,
        h=lambda s: 0.0j,
        alpha=0.0,
    )


def _pure_pv(coeff=1.0 + 0.0j, alpha=0.0):
    return DistributionExpansion(
        delta_coeff=0.0j,
        pv_coeff=coeff,
        F=lambda s: 1.0 + 0.0j,
        h=lambda s: 0.0j,
        alpha=alpha,
    )


class TestBump:
    def test_value_and_support(self):
        g = TestFunction(1.0, 0.5, 2.0)
        assert g.support == (0.5, 1.5)
        assert g(1.0) == 2.0 * math.exp(-1.0)
        assert g(0.5) == 0.0 and g(1.7) == 0.0
        arr = g(np.array([0.2, 1.0, 1.49, 3.0]))
        assert arr[0] == 0.0 and arr[3] == 0.0 and arr[1] > 0 and arr[2] > 0

    def test_support_validation(self):
        with pytest.raises(SupportError):
            TestFunction(0.4, 0.5)
        with pytest.raises(SupportError):
            TestFunction(1.0, 0.0)

    def test_smooth_at_edges(self):
        g = TestFunction(1.0, 0.5)
        assert g(1.4999999) < 1e-6  # vanishing to all orders


def test_pure_delta_pairing():
    g = TestFunction(1.0, 0.5, 1.0)
    v = pair(_pure_delta(2.0 + 1.0j), g)
    assert abs(v - (2.0 + 1.0j) * math.exp(-1.0)) <= 1e-15


def test_delta_normalization_for_unit_peak_bumps():
    # bumps scaled to g(1) = 1 recover the delta coefficient exactly
    for hw in (0.5, 0.2, 0.05):
        g = TestFunction(1.0, hw, math.e)
        v = pair(_pure_delta(0.3 - 0.7j), g)
        assert abs(v - (0.3 - 0.7j)) <= 1e-12


def test_support_away_from_one_reduces_to_plain_integral():
    g = TestFunction(2.5, 0.4)
    dist = _pure_pv(1.0 + 0.0j)
    v = pair(dist, g, tol=1e-11)
    plain = integrate_finite(
        lambda s: g(s) / (1.0 / np.asarray(s, float) - np.asarray(s, float)),
        2.1,
        2.9,
        1e-12,
    )
    assert abs(v - plain.value) <= 1e-10


def test_alpha_invariance_trivial_cases():
    g = TestFunction(1.0, 0.5)
    assert pair_alpha_invariance_check(_pure_delta(), g, [0.0, 1.0, 2.0]) == 0.0
    g_away = TestFunction(2.5, 0.4)
    dev = pair_alpha_invariance_check(_pure_pv(), g_away, [0.0, 1.0, 2.0], tol=1e-11)
    assert dev <= 1e-9


def test_alpha_invariance_prop1():
    assert alpha_invariance(pairs=[(0.0, 1.0)], bumps=[TestFunction(1.0, 0.5)]) <= 1e-8


def test_alpha_invariance_needs_two_values():
    g = TestFunction(1.0, 0.5)
    with pytest.raises(ValueError):
        pair_alpha_invariance_check(_pure_delta(), g, [0.0])


def test_measure_consistency():
    assert measure_consistency() <= 1e-10


def test_linearity_in_coefficients():
    g = TestFunction(1.1, 0.4)
    d1 = _pure_delta(1.0)
    d2 = _pure_pv(1.0)
    v1 = pair(d1, g, tol=1e-11)
    v2 = pair(d2, g, tol=1e-11)
    mixed = DistributionExpansion(
        delta_coeff=2.0 - 1.0j,
        pv_coeff=0.5 + 3.0j,
        F=lambda s: 1.0 + 0.0j,
        h=lambda s: 0.0j,
        alpha=0.0,
    )
    vm = pair(mixed, g, tol=1e-11)
    assert abs(vm - ((2.0 - 1.0j) * v1 + (0.5 + 3.0j) * v2)) <= 1e-9


def test_sokhotski_regression_value():
    g = TestFunction(1.0, 0.5, 1.0)
    v = sokhotski_pair(g, 0.1, tol=1e-12)
    frozen = complex(-0.011851770640225068, 0.4407207541803726)
    assert abs(v - frozen) <= 1e-9


def test_sokhotski_small_eps_away_from_one():
    g = TestFunction(2.5, 0.4)
    v = sokhotski_pair(g, 1e-6, tol=1e-11)
    plain = integrate_finite(
        lambda s: g(s) / (1.0 / np.asarray(s, float) - np.asarray(s, float)),
        2.1,
        2.9,
        1e-12,
    )
    assert abs(v - plain.value) <= 1e-5


def test_sokhotski_plemelj_limit():
    dev = sokhotski_limit(
        bumps=[TestFunction(1.0, 0.5, 1.0)], epss=(0.2, 0.1, 0.05, 0.025, 0.0125)
    )
    assert dev <= 1e-5


def test_pair_tolerance_error():
    # support straddles s = 1, so the singular tanh-sinh panels cannot
    # reach an impossible tolerance and must report it
    g = TestFunction(1.0, 0.5)
    dist = prop1_distribution(OrderPair(0.0, 1.0))
    with pytest.raises(ToleranceError):
        pair(dist, g, tol=1e-18)


def test_validate_expansion_h_integrable_and_stable():
    dist = prop1_distribution(OrderPair(0.0, 1.0))
    coarse = validate_expansion(dist, tol=1e-5)
    fine = validate_expansion(dist, tol=1e-8)
    assert math.isfinite(coarse) and math.isfinite(fine)
    assert abs(coarse - fine) <= 0.01 * abs(fine)
