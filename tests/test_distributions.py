import math
from dataclasses import replace

import numpy as np
import pytest

from wsdist import distributions
from wsdist import weber_schafheitlin as ws
from wsdist.distributions import (
    DistributionExpansion,
    Measure,
    TestFunction,
    pair,
    pair_alpha_invariance_check,
    sokhotski_pair,
)
from wsdist.errors import DomainError, SupportError, ToleranceError
from wsdist.quadrature import integrate_finite, integrate_pv, pole_guard, tanh_sinh
from wsdist.selftest import alpha_invariance, measure_consistency, sokhotski_limit
from wsdist.weber_schafheitlin import OrderPair, prop1_distribution, prop2_distribution


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
    bumps = (TestFunction(1.0, 0.5), TestFunction(0.7, 0.2, 2.0))
    assert measure_consistency(((0.0, 1.0), (1.0, 2.0)), bumps) <= 1e-10


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



# --- h only at the nodes where the weight is nonzero ------------------------


def _reference_pair_weighted(dist, weight, support, tol):
    """_pair_weighted as it was before it skipped nodes: h at every node."""
    lo, hi = support
    alpha = dist.alpha
    total = dist.delta_coeff * complex(weight(1.0))

    def pv_integrand(s):
        s = np.asarray(s, dtype=float)
        return s**alpha / (1.0 / s - s) * weight(s)

    def remainder(s):
        s = np.asarray(s, dtype=float)
        inner = np.power(s, -alpha) * dist.h(s) + distributions._q_alpha(alpha, s)
        return -(s ** (alpha + 1.0)) / (s + 1.0) * inner * weight(s)

    with np.errstate(over="ignore", invalid="ignore"):
        if min(1.0 - lo, hi - 1.0) >= pole_guard(1.0):
            pv = integrate_pv(pv_integrand, lo, hi, 1.0, tol)
            rem = tanh_sinh(lambda s, rows: remainder(s),
                            np.array([lo, 1.0]), np.array([1.0, hi]), 0.5 * tol)
        else:
            pv = integrate_finite(pv_integrand, lo, hi, tol)
            rem = integrate_finite(remainder, lo, hi, tol)
    values = [pv.value, *np.atleast_1d(rem.value).tolist()]
    assert np.all(np.isfinite(values)) and pv.converged and rem.converged
    return complex(total + dist.pv_coeff * sum(values))


# a bump straddling s = 1, one left of it and one right of it
BUMPS = [TestFunction(1.0, 0.5), TestFunction(0.5, 0.3, 2.0), TestFunction(2.0, 0.5)]


@pytest.mark.parametrize("make, mu, nu", [
    (prop1_distribution, 0.0, 1.0),
    (prop1_distribution, 0.3, 1.7),
    (prop2_distribution, 0.5, 1.5),
])
@pytest.mark.parametrize("measure", list(Measure))
@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("g", BUMPS, ids=["straddles", "left", "right"])
def test_pair_bit_identical_to_h_at_every_node(make, mu, nu, measure, alpha, g):
    dist = replace(make(OrderPair(mu, nu)), alpha=alpha)
    ref = _reference_pair_weighted(
        dist, distributions._as_weighted(g, measure), g.support, 1e-9
    )
    assert pair(dist, g, measure) == ref


def test_kernel_reads_each_distinct_live_node_once(monkeypatch):
    g = TestFunction(1.0, 0.5)
    nodes, asked, evaluated = [], [], []
    kernel_at = ws._kernel_at

    def spy_kernel(kernel, mu, nu, s):
        evaluated[-1].append(s)
        return kernel_at(kernel, mu, nu, s)

    def spy_tanh_sinh(f, a, b, tol):
        def recorded(s, rows):
            nodes.extend(np.ravel(s).tolist())
            return f(s, rows)

        return tanh_sinh(recorded, a, b, tol)

    monkeypatch.setattr(ws, "_kernel_at", spy_kernel)
    monkeypatch.setattr(distributions, "tanh_sinh", spy_tanh_sinh)
    dist = prop1_distribution(OrderPair(0.3, 1.7))

    def spy_h(s):
        asked.append(np.ravel(s).tolist())
        evaluated.append([])
        return dist.h(s)

    pair(replace(dist, h=spy_h), g)
    # the quadrature asks for nodes where the bump is 0 and for repeated nodes
    assert sum(g(s) == 0.0 for s in nodes) > 0
    assert any(len(seen) > len(set(seen)) for seen in asked)
    assert all(g(s) != 0.0 for seen in asked for s in seen)
    for seen, points in zip(asked, evaluated, strict=True):
        assert points == list(dict.fromkeys(seen))


def test_non_finite_h_where_g_is_nonzero_raises():
    g = TestFunction(1.0, 0.5)
    dist = replace(_pure_pv(), h=lambda s: np.where(np.asarray(s) > 1.2, np.nan, 0.0) + 0j)
    with pytest.raises(DomainError):
        pair(dist, g)


def test_h_is_not_read_where_g_vanishes():
    g = TestFunction(1.0, 0.5)
    dist = replace(_pure_pv(), h=lambda s: np.where(g(s) == 0.0, np.nan, 0.0) + 0j)
    assert pair(dist, g) == pair(_pure_pv(), g)


def test_scalar_h_and_an_empty_live_set(monkeypatch):
    g = TestFunction(1.1, 0.4)
    scalar = replace(_pure_pv(), h=lambda s: 0.25 + 0.5j)
    array = replace(_pure_pv(), h=lambda s: np.full(np.shape(s), 0.25 + 0.5j))
    assert pair(scalar, g) == pair(array, g)

    def zero(s):
        return np.zeros(np.shape(s))

    evaluated = []
    kernel_at = ws._kernel_at
    monkeypatch.setattr(
        ws, "_kernel_at", lambda *args: evaluated.append(args) or kernel_at(*args)
    )
    for dist in (prop1_distribution(OrderPair(0.0, 1.0)), scalar):
        assert distributions._pair_weighted(dist, zero, g.support, 1e-9) == 0.0
    assert evaluated == []
