import json
import math
import warnings

import numpy as np
import pytest

from wsdist.distributions import TestFunction
from wsdist.oracle import (
    I_direct,
    OracleReport,
    _direct_rows,
    jj_pairing_oracle,
    pairing_oracle,
)
from wsdist.quadrature import EpsSchedule
from wsdist.weber_schafheitlin import (
    OrderPair,
    RegularizedPoint,
    _p_eps,
    prop1_distribution,
    regularized_I,
)

SHORT_SCHEDULE = EpsSchedule((0.2, 0.1, 0.05))


@pytest.mark.parametrize(
    "mu,nu,s,eps",
    [
        (0.0, 0.0, 1.5, 0.1),
        (0.0, 1.0, 0.7, 0.2),
        (0.5, 1.5, 0.7, 0.2),
        (0.0, 0.0, 1.5, 5.0),
    ],
)
def test_direct_matches_closed_form(mu, nu, s, eps):
    orders = OrderPair(mu, nu)
    pt = RegularizedPoint(s, eps)
    vd = I_direct(orders, pt, 1e-7)
    vc = regularized_I(orders, pt)
    assert abs(vd - vc) / max(1.0, abs(vc)) <= 1e-6


@pytest.mark.parametrize("mu,nu", [(0.0, 1.0), (1.0, 1.0)])
def test_batched_direct_matches_per_node_loop(mu, nu):
    # the per-node I_direct loop is the reference for the batched rows
    orders = OrderPair(mu, nu)
    s = np.linspace(0.55, 1.45, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batched = _direct_rows(orders, s, 0.05, 1e-7)
        loop = np.array([I_direct(orders, RegularizedPoint(float(x), 0.05), 1e-7) for x in s])
    assert np.all(np.abs(batched - loop) <= 1e-12 * np.abs(loop))


def test_uniform_convergence_surrogate():
    # sup over an s-grid of |q_eps - q_0| must decrease along the schedule,
    # both away from s = 1 and across the whole window
    orders = OrderPair(0.0, 1.0)
    dist = prop1_distribution(orders)
    grid_full = np.linspace(0.2, 5.0, 61)
    grid_punct = grid_full[(grid_full < 0.9) | (grid_full > 1.1)]
    for grid in (grid_punct, grid_full):
        sups = []
        for eps in (0.2, 0.1, 0.05):
            worst = 0.0
            for s in grid:
                q_eps = regularized_I(orders, RegularizedPoint(float(s), eps)) / _p_eps(
                    float(s), eps
                )
                q0 = dist.pv_coeff * complex(dist.F(float(s)))
                worst = max(worst, abs(q_eps - q0))
            sups.append(worst)
        assert sups[0] > sups[1] > sups[2]


@pytest.mark.slow
def test_pairing_oracle_short_schedule():
    # smoke run at a truncated schedule; the acceptance suite drives the
    # full schedule at the pinned 1e-4
    g = TestFunction(1.5, 0.4, 1.0)
    report = pairing_oracle(OrderPair(0.0, 1.0), g, SHORT_SCHEDULE)
    assert report.rel_deviation <= 5e-3
    # eps-trace residual monotonicity
    resid = [abs(v - report.oracle_value) for _, v in report.eps_trace]
    assert all(r2 < r1 for r1, r2 in zip(resid, resid[1:]))
    assert report.abs_deviation == abs(report.closed_form - report.oracle_value)


@pytest.mark.slow
def test_jj_pairing_oracle_closure_short_schedule():
    g = TestFunction(1.0, 0.5, 1.0)
    report = jj_pairing_oracle(OrderPair(1.0, 1.0), g, SHORT_SCHEDULE)
    assert abs(report.closed_form - math.exp(-1.0)) <= 1e-12
    assert report.rel_deviation <= 1e-3


def test_equal_orders_closed_form_reduction():
    # for mu = nu the density is s^(-nu-1) and the pairing away from 1
    # collapses to a plain weighted integral
    from wsdist.distributions import Measure, pair
    from wsdist.quadrature import integrate_finite

    nu = 1.0
    g = TestFunction(2.5, 0.4)
    closed = pair(prop1_distribution(OrderPair(nu, nu)), g, Measure.LEBESGUE, tol=1e-11)
    pv_coeff = 2.0 / (1j * math.pi)
    direct = integrate_finite(
        lambda s: np.asarray(s, float) ** (-nu - 1.0)
        / (1.0 / np.asarray(s, float) - np.asarray(s, float))
        * g(s),
        *g.support,
        1e-12,
    )
    assert abs(closed - pv_coeff * direct.value) <= 1e-10


@pytest.mark.slow
def test_jj_oracle_lower_branch():
    # bump well inside s < 1 exercises the s <= 1 branch of the density;
    # the epsilon-convergence is slower there, so this one needs the
    # full default schedule
    from wsdist.quadrature import DEFAULT_EPS_SCHEDULE

    g = TestFunction(0.6, 0.25, 1.0)
    report = jj_pairing_oracle(OrderPair(0.0, 1.0), g, DEFAULT_EPS_SCHEDULE)
    assert report.rel_deviation <= 1e-4


def test_report_json_shape():
    rep = OracleReport(
        closed_form=1.0 + 2.0j,
        oracle_value=1.0 + 2.0001j,
        abs_deviation=1e-4,
        rel_deviation=5e-5,
        eps_trace=((0.2, 0.5 + 0.1j), (0.1, 0.75 + 0.15j)),
        extrapolation_error=3e-5,
    )
    doc = rep.to_json_dict()
    text = json.dumps(doc)  # must be JSON-serializable as-is
    back = json.loads(text)
    assert back["closed_form"] == {"re": 1.0, "im": 2.0}
    assert back["eps_trace"][0] == [0.2, {"re": 0.5, "im": 0.1}]
    assert set(back) == {
        "closed_form",
        "oracle_value",
        "abs_deviation",
        "rel_deviation",
        "eps_trace",
        "extrapolation_error",
    }


def test_order_gates():
    from wsdist.errors import OrderError

    g = TestFunction(1.0, 0.5)
    with pytest.raises(OrderError):
        pairing_oracle(OrderPair(4.0, 1.0), g, SHORT_SCHEDULE)
    with pytest.raises(OrderError):
        jj_pairing_oracle(OrderPair(0.0, 2.5), g, SHORT_SCHEDULE)
