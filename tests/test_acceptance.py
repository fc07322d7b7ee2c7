"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one `criterion NN <name>: PASS/FAIL` line with the
measured figure next to its tolerance, then asserts.  Criterion 9's
branch-mismatch clause is strict-xfail: the quantity it pins is
bounded below by ~2*delta at the stated offset for every correct
density (the mismatch scales like delta*log(delta); see the invariant
tests for the meaningful decreasing-trend version), so the pinned
1e-6 cannot be met and the expected outcome is an honest FAIL.
"""

import math
import time

import numpy as np
import pytest

from wsdist.distributions import (
    Measure,
    TestFunction,
    pair,
    pair_alpha_invariance_check,
    sokhotski_pair,
)
from wsdist.oracle import I_direct, jj_pairing_oracle, pairing_oracle
from wsdist.quadrature import (
    DEFAULT_EPS_SCHEDULE,
    integrate_pv,
    richardson,
)
from wsdist.specfun import (
    BranchPoint,
    HypParams,
    bessel_j,
    gamma,
    hankel1_complex,
    hyp2f1,
    hyp2f1_boundary,
)
from wsdist.specfun.besselj import _bessel_y
from wsdist.weber_schafheitlin import (
    OrderPair,
    RegularizedPoint,
    _regularized_watson,
    prop1_distribution,
    prop2_distribution,
    reflection_check,
    regularized_I,
)

EIGHT_PAIRS = [
    (0.0, 1.0), (1.0, 2.0), (0.5, 1.5), (2.0, 1.0),
    (1.0, 1.0), (0.3, 0.8), (0.0, 0.0), (1.5, 0.5),
]
BUMP_1 = TestFunction(1.0, 0.5, 1.0)
BUMP_18 = TestFunction(1.8, 0.3, 1.0)


def _report(num, name, measured, tol, elapsed=None, larger_ok=False):
    ok = measured <= tol if not larger_ok else measured >= tol
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} "
          f"(measured {measured:.3e} vs tol {tol:g}){stamp}")
    return ok


def test_criterion_01_hankel_k_identity():
    t0 = time.perf_counter()
    xs = np.linspace(0.1, 20.0, 80)
    worst = 0.0
    for mu in (0.0, 0.5, 1.0, 2.0):
        h = hankel1_complex(mu, xs.astype(complex))
        ref = bessel_j(mu, xs) + 1j * _bessel_y(mu, xs)
        worst = max(worst, float(np.max(np.abs(h - ref) / np.abs(ref))))
    elapsed = time.perf_counter() - t0
    assert _report(1, "hankel_k_identity", worst, 1e-9, elapsed)
    assert elapsed < 10.0


def test_criterion_02_euler_transform():
    t0 = time.perf_counter()
    zs = np.concatenate([np.linspace(-5.0, -0.1, 13), np.linspace(0.0, 0.95, 12)])
    worst = 0.0
    for mu, nu in EIGHT_PAIRS:
        a, b, c = (nu + mu) / 2.0, (nu - mu) / 2.0, nu + 1.0
        for z in zs:
            lhs = (1.0 - z) * hyp2f1(HypParams(a + 1.0, b + 1.0, c), complex(z))
            rhs = hyp2f1(HypParams(a, b, c), complex(z))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    elapsed = time.perf_counter() - t0
    assert _report(2, "euler_transform", worst, 1e-10, elapsed)
    assert elapsed < 10.0


def test_criterion_03_gauss_normalization():
    rng = np.random.default_rng(20080301)
    worst = 0.0
    for _ in range(20):
        nu = rng.uniform(-0.9, 6.0)
        mu = rng.uniform(-(nu + 2.0) * 0.95, (nu + 2.0) * 0.95)
        a, b, c = (nu + mu) / 2.0, (nu - mu) / 2.0, nu + 1.0
        pre = gamma(a + 1.0) * gamma(b + 1.0) / gamma(c)
        val = pre * hyp2f1_boundary(HypParams(a, b, c), BranchPoint(1.0))
        worst = max(worst, abs(val - 1.0))
    assert _report(3, "gauss_normalization_F1", worst, 1e-8)


def test_criterion_04_route_equality():
    t0 = time.perf_counter()
    worst = 0.0
    for mu, nu in EIGHT_PAIRS:
        orders = OrderPair(mu, nu)
        for s in (0.3, 0.7, 1.0, 1.5, 3.0):
            for eps in (0.05, 0.2, 1.0):
                v1 = regularized_I(orders, RegularizedPoint(s, eps))
                v2 = _regularized_watson(orders, s, eps)
                worst = max(worst, abs(v1 - v2) / max(1.0, abs(v1)))
    elapsed = time.perf_counter() - t0
    assert _report(4, "regularized_route_equality", worst, 1e-10, elapsed)
    assert elapsed < 30.0


def test_criterion_05_closed_form_vs_direct_quadrature():
    t0 = time.perf_counter()
    worst = 0.0
    for mu, nu in [(0.0, 0.0), (0.0, 1.0), (1.0, 2.0), (0.5, 1.5)]:
        orders = OrderPair(mu, nu)
        for s in (0.3, 0.7, 1.0, 1.5, 3.0):
            for eps in (0.05, 0.2):
                pt = RegularizedPoint(s, eps)
                vd = I_direct(orders, pt, 1e-7)
                vc = regularized_I(orders, pt)
                worst = max(worst, abs(vd - vc) / max(1.0, abs(vc)))
    elapsed = time.perf_counter() - t0
    assert _report(5, "direct_vs_closed_form", worst, 1e-6, elapsed)
    assert elapsed < 300.0


@pytest.mark.slow
def test_criterion_06_distributional_limit_hankel():
    t0 = time.perf_counter()
    worst = 0.0
    for orders in (OrderPair(0.0, 1.0), OrderPair(0.5, 1.5)):
        for g in (BUMP_1, BUMP_18):
            rep = pairing_oracle(orders, g, DEFAULT_EPS_SCHEDULE)
            worst = max(worst, rep.rel_deviation)
    elapsed = time.perf_counter() - t0
    assert _report(6, "distributional_limit_hankel", worst, 1e-4, elapsed)
    assert elapsed < 600.0


@pytest.mark.slow
def test_criterion_07_distributional_limit_bessel():
    t0 = time.perf_counter()
    worst = 0.0
    for orders in (OrderPair(1.0, 1.0), OrderPair(0.0, 1.0)):
        for g in (BUMP_1, BUMP_18):
            rep = jj_pairing_oracle(orders, g, DEFAULT_EPS_SCHEDULE)
            worst = max(worst, rep.rel_deviation)
    elapsed = time.perf_counter() - t0
    assert _report(7, "distributional_limit_bessel", worst, 1e-4, elapsed)
    assert elapsed < 600.0


def test_criterion_08_realpart_consistency():
    t0 = time.perf_counter()
    worst = 0.0
    pairs = [(0.0, 1.0), (1.0, 2.0), (0.5, 1.5), (2.0, 1.0), (1.0, 1.0), (0.3, 0.8)]
    bumps = [BUMP_1, BUMP_18, TestFunction(0.7, 0.2, 1.0)]
    for mu, nu in pairs:
        d1 = prop1_distribution(OrderPair(mu, nu))
        d2 = prop2_distribution(OrderPair(mu, nu))
        for g in bumps:
            p1 = pair(d1, g, Measure.LEBESGUE, tol=1e-10)
            p2 = pair(d2, g, Measure.LEBESGUE, tol=1e-10)
            worst = max(worst, abs(p1.real - p2.real))
    elapsed = time.perf_counter() - t0
    assert _report(8, "realpart_consistency", worst, 1e-8, elapsed)
    assert elapsed < 60.0


def test_criterion_09_m0_value_at_one():
    worst = 0.0
    for mu, nu in [(0.0, 1.0), (1.0, 2.0), (0.5, 1.5), (2.0, 1.0), (1.0, 1.0), (0.3, 0.8)]:
        d2 = prop2_distribution(OrderPair(mu, nu))
        worst = max(worst, abs(d2.F(1.0) - 1.0))
    assert _report(9, "m0_value_at_one", worst, 1e-8)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as pinned: m0 is continuous but not locally constant, so "
        "|m0(1-d) - m0(1+d)| >= d*(nu - mu + 2) + O(d log d) ~ 2e-4 at d = 1e-4 "
        "for every correct density (the mu = nu closure case gives exactly 2e-4); "
        "the decreasing-trend form of this check passes in test_weber"
    ),
)
def test_criterion_09_m0_branch_continuity_as_pinned():
    delta = 1e-4
    worst = 0.0
    for mu, nu in [(0.0, 1.0), (1.0, 2.0), (0.5, 1.5), (2.0, 1.0), (1.0, 1.0), (0.3, 0.8)]:
        d2 = prop2_distribution(OrderPair(mu, nu))
        worst = max(worst, abs(d2.F(1.0 - delta) - d2.F(1.0 + delta)))
    assert _report(9, "m0_branch_continuity_pinned", worst, 1e-6)


def test_criterion_10_reflection_identity():
    worst = 0.0
    for mu, nu in [(0.0, 1.0), (0.5, 1.5), (1.0, 2.0), (0.3, 0.8)]:
        for s in (0.25, 0.5, 2.0, 4.0):
            worst = max(worst, reflection_check(OrderPair(mu, nu), s))
    assert _report(10, "reflection_identity", worst, 1e-12)


def test_criterion_11_alpha_invariance():
    t0 = time.perf_counter()
    worst = 0.0
    for orders in (OrderPair(0.0, 1.0), OrderPair(0.5, 1.5)):
        dist = prop1_distribution(orders)
        for g in (BUMP_1, BUMP_18):
            worst = max(
                worst,
                pair_alpha_invariance_check(dist, g, [0.0, 1.0, 2.0], tol=1e-10),
            )
    elapsed = time.perf_counter() - t0
    assert _report(11, "alpha_invariance", worst, 1e-8, elapsed)


def test_criterion_12_sokhotski_plemelj():
    t0 = time.perf_counter()
    worst = 0.0
    for g in (BUMP_1, BUMP_18, TestFunction(0.7, 0.2, 1.0)):
        pv = integrate_pv(
            lambda s: 1.0 / (1.0 / np.asarray(s, float) - np.asarray(s, float)),
            g,
            1.0,
            1e-11,
        )
        target = pv.value + 0.5j * math.pi * g(1.0)
        seq = [
            (e, sokhotski_pair(g, e, tol=1e-11))
            for e in (0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625, 0.003125)
        ]
        lim, _ = richardson(seq)
        worst = max(worst, abs(lim - target))
    elapsed = time.perf_counter() - t0
    assert _report(12, "sokhotski_plemelj_limit", worst, 1e-5, elapsed)
