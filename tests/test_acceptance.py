"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one `criterion NN <name>: PASS/FAIL` line with the
measured figure next to its tolerance, then asserts.  Criteria 01-05,
08 and 10-12 run the invariant checks of `wsdist.selftest` on their own
sample sets.  Criterion 9's
branch-mismatch clause is strict-xfail: the quantity it pins is
bounded below by ~2*delta at the stated offset for every correct
density (the mismatch scales like delta*log(delta); see the invariant
tests for the meaningful decreasing-trend version), so the pinned
1e-6 cannot be met and the expected outcome is an honest FAIL.
"""

import time

import numpy as np
import pytest

from wsdist.distributions import TestFunction
from wsdist.oracle import jj_pairing_oracle, pairing_oracle
from wsdist.quadrature import DEFAULT_EPS_SCHEDULE
from wsdist.selftest import (
    alpha_invariance,
    direct_vs_closed_form,
    euler_transform,
    gauss_normalization,
    hankel_k_identity,
    realpart_consistency,
    reflection_identity,
    route_equality,
    sokhotski_limit,
)
from wsdist.weber_schafheitlin import OrderPair, prop2_distribution

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
    worst = hankel_k_identity(xs=np.linspace(0.1, 20.0, 80))
    elapsed = time.perf_counter() - t0
    assert _report(1, "hankel_k_identity", worst, 1e-9, elapsed)
    assert elapsed < 10.0


def test_criterion_02_euler_transform():
    t0 = time.perf_counter()
    worst = euler_transform(
        pairs=EIGHT_PAIRS,
        zs=np.concatenate([np.linspace(-5.0, -0.1, 13), np.linspace(0.0, 0.95, 12)]),
    )
    elapsed = time.perf_counter() - t0
    assert _report(2, "euler_transform", worst, 1e-10, elapsed)
    assert elapsed < 10.0


def test_criterion_03_gauss_normalization():
    worst = gauss_normalization()  # the 20 seeded draws selftest uses
    assert _report(3, "gauss_normalization_F1", worst, 1e-8)


def test_criterion_04_route_equality():
    t0 = time.perf_counter()
    worst = route_equality(pairs=EIGHT_PAIRS)
    elapsed = time.perf_counter() - t0
    assert _report(4, "regularized_route_equality", worst, 1e-10, elapsed)
    assert elapsed < 30.0


def test_criterion_05_closed_form_vs_direct_quadrature():
    t0 = time.perf_counter()
    worst = direct_vs_closed_form(
        pairs=[(0.0, 0.0), (0.0, 1.0), (1.0, 2.0), (0.5, 1.5)],
        ss=(0.3, 0.7, 1.0, 1.5, 3.0),
        epss=(0.05, 0.2),
        inner_tol=1e-7,
    )
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
    worst = realpart_consistency(bumps=[BUMP_1, BUMP_18, TestFunction(0.7, 0.2, 1.0)])
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
    worst = reflection_identity(pairs=[(0.0, 1.0), (0.5, 1.5), (1.0, 2.0), (0.3, 0.8)])
    assert _report(10, "reflection_identity", worst, 1e-12)


def test_criterion_11_alpha_invariance():
    t0 = time.perf_counter()
    worst = alpha_invariance(pairs=[(0.0, 1.0), (0.5, 1.5)], bumps=[BUMP_1, BUMP_18])
    elapsed = time.perf_counter() - t0
    assert _report(11, "alpha_invariance", worst, 1e-8, elapsed)


def test_criterion_12_sokhotski_plemelj():
    t0 = time.perf_counter()
    worst = sokhotski_limit(
        bumps=[BUMP_1, BUMP_18, TestFunction(0.7, 0.2, 1.0)],
        epss=(0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625, 0.003125),
    )
    elapsed = time.perf_counter() - t0
    assert _report(12, "sokhotski_plemelj_limit", worst, 1e-5, elapsed)
