import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from wsdist import oracle
from wsdist.distributions import TestFunction
from wsdist.oracle import (
    I_direct,
    OracleReport,
    _direct_rows,
    _hankel_coefficients,
    _hankel_tail,
    _j_nodes,
    _series_head,
    jj_pairing_oracle,
    pairing_oracle,
)
from wsdist.quadrature import EpsSchedule
from wsdist.specfun.expint import _SERIES_EDGE, _direct
from wsdist.weber_schafheitlin import (
    OrderPair,
    RegularizedPoint,
    _p_eps,
    prop1_distribution,
    regularized_I,
)

SHORT_SCHEDULE = EpsSchedule((0.2, 0.1, 0.05))
# nu = -1, where the closed form is minus its order +1 value
ORDER_MINUS_ONE_POINTS = [(mu, -1.0, s, eps) for mu in (0.0, 0.5, -0.3)
                          for s, eps in ((0.7, 0.2), (1.5, 0.1), (1.0, 0.05))]


@pytest.mark.parametrize(
    "mu,nu,s,eps",
    [
        (0.0, 0.0, 1.5, 0.1),
        (0.0, 1.0, 0.7, 0.2),
        (0.5, 1.5, 0.7, 0.2),
        (0.0, 0.0, 1.5, 5.0),
    ]
    + ORDER_MINUS_ONE_POINTS,
)
def test_direct_matches_closed_form(mu, nu, s, eps):
    orders = OrderPair(mu, nu)
    pt = RegularizedPoint(s, eps)
    vd = I_direct(orders, pt)
    vc = regularized_I(orders, pt)
    assert abs(vd - vc) / max(1.0, abs(vc)) <= 1e-6


# s on both sides of the pole at s = 1 and past the first octave
HANKEL_TAIL_S = np.array([0.5, 0.9, 0.99, 1.0, 1.01, 1.3, 1.9, 3.5])


@pytest.mark.parametrize(
    "mu,nu,bound",
    [(0.0, 1.0, 1e-12), (0.5, 1.5, 1e-12), (1.0, 1.0, 1e-12), (0.0, -1.0, 1e-12),
     (-0.3, 1.0, 1e-12), (3.3, 8.0, 1e-10),
     # two half-integer orders: both Hankel series terminate, and the tail
     # needs their whole product
     (3.5, 2.5, 1e-12), (4.5, 4.5, 1e-12), (5.5, 4.5, 1e-12), (7.5, 6.5, 1e-12)],
)
@pytest.mark.parametrize("eps", [0.2, 0.025, 1e-3])
def test_rows_with_the_hankel_tail_match_the_closed_form(mu, nu, bound, eps):
    # panels to k0, then the tail in closed form, at every eps alike; at
    # (3.3, 8) the rows sit up to 2.4e-11 from the closed form at eps =
    # 0.2, s in [0.9, 1.01], whatever k0 is
    orders = OrderPair(mu, nu)
    got = _direct_rows(orders, HANKEL_TAIL_S, eps, _j_nodes(nu))
    for s, vd in zip(HANKEL_TAIL_S, got):
        vc = regularized_I(orders, RegularizedPoint(float(s), eps))
        assert abs(vd - vc) / max(1.0, abs(vc)) <= bound, s


# orders next to the constraint edge nu + 2 > |mu| (margins 0.01 to 0.2)
# and at |mu| >= 8.3, where an integral that reaches k = 0 by quadrature
# loses digits or overflows
EDGE_AND_HIGH_ORDERS = [(0.0, -1.99), (0.5, -1.45), (3.0, 1.01), (3.3, 1.31), (0.5, -1.3),
                        (2.75, 1.25), (8.3, 6.41), (10.0, 8.01), (-10.0, 8.01), (8.5, 6.6),
                        (10.0, 9.0)]


@pytest.mark.parametrize("mu,nu", EDGE_AND_HIGH_ORDERS)
@pytest.mark.parametrize("eps", [0.2, 0.025, 1e-3])
def test_rows_at_the_constraint_edge_and_high_orders_match_the_closed_form(mu, nu, eps):
    orders = OrderPair(mu, nu)
    got = _direct_rows(orders, HANKEL_TAIL_S, eps, _j_nodes(nu))
    for s, vd in zip(HANKEL_TAIL_S, got):
        vc = regularized_I(orders, RegularizedPoint(float(s), eps))
        assert abs(vd - vc) / max(1.0, abs(vc)) <= 1e-12, s


def _head_start(s, eps):
    """The head's start for the row at s + i eps, as _direct_rows makes
    it: its panel width pi / 2^j halved until (|z| + eps) start <= 4."""
    start = math.pi / 2 ** max(math.ceil(math.log2(s / 2)), 0)
    while (abs(complex(s, eps)) + eps) * start > 4.0:
        start /= 2
    return start


# (3e-9, 1), (1 - 1e-7, 0.5) and (2 + 3e-9, 3): mu next to an integer,
# where Temme's f0 has no 1/mu0 to cancel; (3.5, 2.5): mu0 = 1/2.  The
# rows test above covers the head next to the constraint edge, and at
# (2.75, 1.25), where the f0 and q0 parts of K_mu have no u^-n term and
# Q + mu0 = 0 at that term
HEAD_ORDERS = [(0.0, 1.0), (0.0, -1.0), (3.5, 2.5), (3e-9, 1.0), (1.0 - 1e-7, 0.5),
               (2.0 + 3e-9, 3.0)]


@pytest.mark.parametrize("mu,nu", HEAD_ORDERS)
def test_series_head_matches_mpmath_quad(mu, nu):
    # the closed-form int_0^start k H1_mu(zk) J_nu(k) dk against 30-digit
    # quadrature of the same integrand
    for s in (0.5, 1.0, 1.9, 3.5):
        for eps in (0.2, 1e-3):
            start = _head_start(s, eps)
            with mpmath.workdps(30):
                z = mpmath.mpc(s, eps)
                ref = complex(mpmath.quad(
                    lambda k: k * mpmath.hankel1(mu, z * k) * mpmath.besselj(nu, k), [0, start]))
            got = _series_head(mu, nu, np.array([complex(s, eps)]), np.array([start]))[0]
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (s, eps)


def test_series_head_rows_equal_their_lone_calls():
    # 4,000 rows over octaves 0 to 2: the batch's (rows, 5) complex
    # temporaries pass numpy's 256 KiB threshold for working in place
    s = np.linspace(0.05, 6.0, 4000)
    z = s + 0.01j
    start = np.array([_head_start(x, 0.01) for x in s])
    for mu, nu in ((0.0, 1.0), (10.0, 9.0)):
        batch = _series_head(mu, nu, z, start)
        lone = [_series_head(mu, nu, z[r:r + 1], start[r:r + 1])[0] for r in range(len(s))]
        assert batch.tolist() == lone


def _hankel_tail_reference(mu, nu, z, k0):
    """_hankel_tail row by row: the Cauchy product by np.convolve, each
    E_n(x), n >= 1, by its own direct route (mpmath where that route is
    the series of E_1), E_0 = e^-x / x."""
    a_mu, _ = _hankel_coefficients(mu)
    a_nu, _ = _hankel_coefficients(nu)
    n_terms = len(a_mu) + len(a_nu) - 1
    out = []
    for zr, kr in zip(z, k0):
        total = 0.0
        for sign in (1.0, -1.0):
            c = np.convolve(a_mu * (1j / (zr * kr)) ** np.arange(len(a_mu)),
                            a_nu * (sign * 1j / kr) ** np.arange(len(a_nu)))
            x = -1j * (zr + sign) * kr
            n = np.arange(1, n_terms)
            if abs(x) + x.real <= _SERIES_EDGE:  # _direct's series serves E_1 alone
                e_direct = np.array([complex(mpmath.expint(int(k), x)) for k in n])
            else:
                e_direct = _direct(n, np.full(n_terms - 1, x))
            e_n = np.concatenate(([np.exp(-x) / x], e_direct))
            phase = -(0.5 * mu + 0.25) * math.pi - sign * (0.5 * nu + 0.25) * math.pi
            total += complex(math.cos(phase), math.sin(phase)) * np.sum(c * e_n)
        out.append(kr / (math.pi * np.sqrt(zr)) * total)
    return np.array(out)


@pytest.mark.parametrize("mu,nu", [(0.0, 1.0), (0.5, 1.5), (1.0, 1.0), (3.3, 8.0), (0.0, 12.0),
                                   (2.0, 30.0)])
@pytest.mark.parametrize("eps", [0.2, 0.025, 1e-3])
def test_hankel_tail_matches_one_direct_e_n_per_term(mu, nu, eps):
    # the tail's E_n come from one direct E_m per row and sign and the
    # recurrence; at (2, 30) k0 = 534, so the + sign starts every row at
    # m = N - 1 = 48 with |x| > 500
    s = np.linspace(0.5, 3.0, 11)
    z = s + 1j * eps
    k0 = np.maximum(_hankel_coefficients(nu)[1], _hankel_coefficients(mu)[1] / np.abs(z))
    spacing = np.where(s <= 2.0, math.pi, 0.5 * math.pi)
    k0 = np.ceil(k0 / spacing) * spacing  # on the row's panel grid, as in _direct_rows
    got = _hankel_tail(mu, nu, z, k0)
    ref = _hankel_tail_reference(mu, nu, z, k0)
    assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("mu,nu", [(0.0, 1.0), (1.0, 1.0)])
def test_batched_direct_matches_per_node_loop(mu, nu):
    # the per-node I_direct loop is the reference for the batched rows
    orders = OrderPair(mu, nu)
    s = np.linspace(0.55, 1.45, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batched = _direct_rows(orders, s, 0.05, _j_nodes(orders.nu))
        loop = np.array([I_direct(orders, RegularizedPoint(float(x), 0.05)) for x in s])
    assert np.all(np.abs(batched - loop) <= 1e-12 * np.abs(loop))


# s in the octaves j = 0 (0.3, 1 and 1.9: panels of width pi below, at and
# above s = 1), 1 (2.1 and 3.5) and 2 (6) of the k-panels, width pi / 2^j
OCTAVE_POINTS = np.array([0.3, 1.0, 1.9, 2.1, 3.5, 6.0])


def test_rows_of_every_octave_equal_their_lone_calls(monkeypatch):
    orders = OrderPair(0.0, 1.0)
    spacings = []
    engine = oracle.integrate_semiinfinite_damped

    def spy(f, zero_spacing, end, tail=None, head=None):
        spacings.append(zero_spacing.tolist())
        return engine(f, zero_spacing, end, tail, head)

    monkeypatch.setattr(oracle, "integrate_semiinfinite_damped", spy)
    batched = _direct_rows(orders, OCTAVE_POINTS, 0.05, _j_nodes(orders.nu))
    lone = [I_direct(orders, RegularizedPoint(float(s), 0.05)) for s in OCTAVE_POINTS]
    assert batched.tolist() == lone  # bit for bit
    pi = math.pi
    assert spacings[0] == [pi, pi, pi, pi / 2, pi / 2, pi / 4]
    assert spacings[1:] == [[w] for w in spacings[0]]
    # an octave ends at s = 2^(j+1), inclusive
    _direct_rows(orders, np.array([2.0, 4.0, np.nextafter(4.0, 5.0)]), 0.2, _j_nodes(orders.nu))
    assert spacings[-1] == [pi, pi / 2, pi / 4]


@pytest.mark.parametrize("eps", [0.2, 0.025])
def test_rows_of_every_octave_match_the_closed_form(eps):
    orders = OrderPair(0.0, 1.0)
    got = _direct_rows(orders, OCTAVE_POINTS, eps, _j_nodes(orders.nu))
    for s, vd in zip(OCTAVE_POINTS, got):
        vc = regularized_I(orders, RegularizedPoint(float(s), eps))
        assert abs(vd - vc) / max(1.0, abs(vc)) <= 1e-6, s


def test_one_oracle_run_computes_j_once_per_k(monkeypatch):
    # the bump 1.8,0.3 puts rows in octaves 0 and 1; the nodes of a run
    # repeat across its _direct_rows calls and its eps
    seen = []
    bessel_j = oracle.bessel_j

    def spy(nu, k):
        seen.extend(np.ravel(k).tolist())
        return bessel_j(nu, k)

    monkeypatch.setattr(oracle, "bessel_j", spy)
    report = pairing_oracle(OrderPair(0.0, 1.0), TestFunction(1.8, 0.3, 1.0), SHORT_SCHEDULE)
    assert len(seen) >= 195  # the nodes of every row, from its start to its k0
    assert len(set(seen)) == len(seen)
    assert report.rel_deviation <= 5e-3


def _pairing_reference(orders, g, eps):
    """P(eps) = int I(s + i eps) g(s) ds by scipy's adaptive quad of the
    closed-form regularized_I, split at the pole s = 1."""
    lo, hi = g.support

    def part(s, which):
        v = complex(regularized_I(orders, RegularizedPoint(s, eps))) * float(g(s))
        return (v.real, v.imag)[which]

    points = [1.0] if lo < 1.0 < hi else None
    with warnings.catch_warnings():
        # quad reports roundoff at (3.3, 8), where its value moves by less
        # than 1e-14 between epsrel 1e-12 and 1e-13
        warnings.simplefilter("ignore", IntegrationWarning)
        return complex(*(quad(part, lo, hi, args=(which,), points=points, limit=500,
                              epsabs=1e-14, epsrel=1e-13)[0] for which in (0, 1)))


PAIRING_CASES = (
    # the acceptance orders and bumps on the default schedule
    [(o, b, eps) for o in ((0.0, 1.0), (0.5, 1.5), (1.0, 1.0))
     for b in ((1.0, 0.5), (1.8, 0.3)) for eps in (0.2, 0.1, 0.05, 0.025)]
    # small eps, bumps narrow at, next to, below and far past s = 1 or
    # with an end on it, and orders whose rows start their tail late
    + [((0.0, 1.0), (1.0, 0.5), 6.25e-3), ((0.0, 1.0), (1.0, 0.5), 1e-3),
       ((0.5, 1.5), (1.0, 0.5), 1e-3), ((0.0, 1.0), (1.0, 0.05), 0.025),
       ((0.0, 1.0), (1.02, 0.01), 0.025), ((0.0, 1.0), (0.3, 0.25), 0.025),
       ((0.0, 1.0), (3.0, 2.5), 0.025), ((0.0, 1.0), (1.5, 0.5), 0.025),
       ((3.3, 8.0), (1.0, 0.5), 0.2), ((3.3, 8.0), (1.0, 0.5), 0.025)]
)


@pytest.mark.parametrize("o, b, eps", PAIRING_CASES)
def test_pairing_matches_quad_of_the_closed_form(monkeypatch, o, b, eps):
    orders, g = OrderPair(*o), TestFunction(*b, 1.0)
    calls = []

    def spy(orders, s, eps, j_nodes):
        calls.append(len(s))
        return _direct_rows(orders, s, eps, j_nodes)

    monkeypatch.setattr(oracle, "_direct_rows", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = oracle._pairing_at_eps(orders, g, eps, _j_nodes(orders.nu))
    ref = _pairing_reference(orders, g, eps)
    assert abs(got - ref) <= 5e-11 * max(1.0, abs(ref))
    assert len(calls) == 1  # one fixed rule: every node in one call


def test_s_edges_grade_toward_s_equal_one():
    # from s = 1 the widths are eps/8, eps/4, ... up to a 32nd of the
    # support, the last panel on each side cut at its end
    edges = oracle._s_edges(0.5, 1.5, 0.025)
    widths = np.diff(edges)
    assert edges[0] == 0.5 and edges[-1] == 1.5 and np.all(widths > 0)
    c = int(np.flatnonzero(edges == 1.0)[0])
    assert np.allclose(widths[c:c + 5], [0.003125, 0.00625, 0.0125, 0.025, 1 / 32],
                       rtol=0, atol=1e-15)
    assert np.allclose(widths[:c][::-1], widths[c:], rtol=0, atol=1e-15)
    assert len(edges) - 1 == 38  # 304 nodes, 1,136 over the default schedule
    # a support that misses s = 1 grades from its end next to it
    edges = oracle._s_edges(1.5, 4.5, 0.1)
    assert edges[0] == 1.5 and edges[1] == 1.5 + 0.1 / 8 and edges[-1] == 4.5
    edges = oracle._s_edges(0.05, 0.55, 0.05)
    assert edges[-1] == 0.55 and edges[-2] == 0.55 - 0.05 / 8
    assert np.all(np.diff(edges) <= 0.5 / 32)


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
