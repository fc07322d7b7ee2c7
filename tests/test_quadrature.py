import math
import warnings

import numpy as np
import pytest

from wsdist import quadrature
from wsdist.distributions import TestFunction
from wsdist.errors import (
    InsufficientDataError,
    NonConvergenceError,
    PoleOnBoundaryError,
)
from wsdist.quadrature import (
    EpsSchedule,
    integrate_finite,
    integrate_pv,
    integrate_semiinfinite_damped,
    richardson,
    tanh_sinh,
)


def test_constant():
    r = integrate_finite(lambda s: np.ones_like(s), 0.0, 1.0, 1e-10)
    assert r.converged and abs(r.value - 1.0) <= 1e-12
    assert r.evaluations > 0


def test_sine():
    r = integrate_finite(np.sin, 0.0, math.pi, 1e-10)
    assert r.converged and abs(r.value - 2.0) <= 1e-12


def test_sqrt_singularity():
    r = integrate_finite(lambda s: s**-0.5, 0.0, 1.0, 1e-9)
    assert abs(r.value - 2.0) <= 1e-8


_UNIT = (np.array([0.0]), np.array([1.0]))  # one row, (0, 1)


def test_tanh_sinh_endpoint_singularities():
    r = tanh_sinh(lambda s, rows: s**-0.5, *_UNIT, 1e-12)
    assert r.converged and abs(r.value[0] - 2.0) <= 1e-12
    r = tanh_sinh(lambda s, rows: np.log(s), *_UNIT, 1e-12)
    assert abs(r.value[0] + 1.0) <= 1e-12


# rows on (0, b) with different singularities at 0, and so different
# stopping levels
_TS_A = np.zeros(3)
_TS_B = np.array([1.0, 2.0, 3.0])


def _ts_integrand(x, rows):
    kind = np.asarray(rows)[:, None]
    return np.where(kind == 0, x**-0.5, np.where(kind == 1, x**-0.75, np.sqrt(x) * np.cos(x)))


def test_tanh_sinh_rows_equal_their_one_row_calls():
    both = tanh_sinh(_ts_integrand, _TS_A, _TS_B, 1e-10)
    ones = [
        tanh_sinh(lambda x, rows, r=r: _ts_integrand(x, [r]), _TS_A[r:r + 1], _TS_B[r:r + 1],
                  1e-10)
        for r in range(len(_TS_A))
    ]
    # the rows stop at different levels, so the batch narrows as it runs
    assert len({o.evaluations for o in ones}) == len(ones)
    assert both.converged is all(o.converged for o in ones) is True
    assert both.evaluations == sum(o.evaluations for o in ones)
    assert both.value.tolist() == [o.value[0] for o in ones]
    assert both.error_estimate.tolist() == [o.error_estimate[0] for o in ones]


def test_tanh_sinh_calls_f_at_a_row_end_other_than_zero():
    # an offset below half an ulp of the end 1.0 rounds onto it, in the row
    # ending there and in the row starting there
    at_one = np.zeros(2, dtype=bool)

    def f(x, rows):
        at_one[rows] |= np.any(x == 1.0, axis=1)
        return np.ones_like(x)

    tanh_sinh(f, np.array([0.5, 1.0]), np.array([1.0, 2.0]), 1e-10)
    assert at_one.all()


def test_linearity():
    f = np.sin
    g = np.cos
    a, b = 0.2, 2.7
    rf = integrate_finite(f, a, b, 1e-11).value
    rg = integrate_finite(g, a, b, 1e-11).value
    rc = integrate_finite(lambda s: 3.0 * f(s) - 2.0 * g(s), a, b, 1e-11).value
    assert abs(rc - (3.0 * rf - 2.0 * rg)) <= 1e-10


def test_damped_exponential():
    r = integrate_semiinfinite_damped(lambda k, rows: np.exp(-k), 1.0, np.array([math.pi]), 1e-10)
    assert r.converged and abs(r.value[0] - 1.0) <= 1e-10


@pytest.mark.parametrize("eps", [1.0, 0.2, 0.05])
def test_damped_sine_closed_form(eps):
    r = integrate_semiinfinite_damped(
        lambda k, rows: np.exp(-eps * k) * np.sin(k), eps, np.array([math.pi]), 1e-9
    )
    assert r.converged
    assert abs(r.value[0] - 1.0 / (1.0 + eps * eps)) <= 1e-9


def test_tiny_damping_runs_to_the_panel_cap():
    # 40 / damping panels do not fit an int; the count is capped first
    d = 1e-300
    r = integrate_semiinfinite_damped(
        lambda k, rows: np.exp(-d * k) * np.sin(k), d, np.array([math.pi]), 1e-9
    )
    assert r.converged is False
    assert abs(r.value[0] - 1.0) <= 1e-12


def test_damped_tolerance_monotonicity():
    eps = 0.1
    ref = 1.0 / (1.0 + eps * eps)
    errs = []
    for tol in (1e-5, 1e-7, 1e-9, 1e-11):
        r = integrate_semiinfinite_damped(
            lambda k, rows: np.exp(-eps * k) * np.sin(k), eps, np.array([math.pi]), tol
        )
        errs.append(abs(r.value[0] - ref))
    assert all(e2 <= e1 * 1.001 + 1e-15 for e1, e2 in zip(errs, errs[1:]))


def test_decay_check_raises():
    with pytest.raises(NonConvergenceError):
        integrate_semiinfinite_damped(
            lambda k, rows: np.exp(0.05 * k) * np.sin(k), 0.05, np.array([math.pi]), 1e-9
        )


# rows of e^{-eps k} sin(c k) k^p, each with spacing pi/c (half a period)
_ROW_EPS = 0.2
_ROW_C = np.array([1.0, 1.5, 1.0, 1.5, 3.0])
_ROW_P = np.array([0.0, 0.0, 1.0, 0.5, 0.0])


def _row_integrand(k, rows):
    rows = np.asarray(rows)
    return np.exp(-_ROW_EPS * k) * np.sin(_ROW_C[rows, None] * k) * k ** _ROW_P[rows, None]


def test_row_batch_matches_one_row_calls(monkeypatch):
    spacing = math.pi / _ROW_C
    wynn = quadrature._wynn_rows
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batch = integrate_semiinfinite_damped(_row_integrand, _ROW_EPS, spacing, 1e-9)
        ones, stops = [], []
        for r in range(len(spacing)):
            # a one-row call runs Wynn once per panel, from panel 6 to its stop
            calls = []
            monkeypatch.setattr(
                quadrature, "_wynn_rows", lambda p, calls=calls: calls.append(1) or wynn(p)
            )
            ones.append(integrate_semiinfinite_damped(
                lambda k, rows, r=r: _row_integrand(k, [r]), _ROW_EPS, spacing[r:r + 1], 1e-9
            ))
            stops.append(5 + len(calls))
    # blocks hold panels 1-8, 9-16, ...: rows leave at different panels,
    # and some inside a block
    assert len(set(stops)) > 1 and any(stop % 8 for stop in stops)
    assert batch.converged == all(o.converged for o in ones)
    assert batch.evaluations == sum(o.evaluations for o in ones)
    ref = np.array([o.value[0] for o in ones])
    assert np.all(np.abs(batch.value - ref) <= 1e-13 * np.abs(ref))


def test_row_batch_growing_row_raises():
    growth = np.array([-0.2, -0.2, 0.05])
    c = np.array([1.0, 1.5, 1.0])

    def f(k, rows):
        return np.exp(growth[rows, None] * k) * np.sin(c[rows, None] * k)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonConvergenceError):
            integrate_semiinfinite_damped(f, 0.2, math.pi / c, 1e-9)


def test_row_engines_take_1d_row_arrays_only():
    with pytest.raises(ValueError):
        tanh_sinh(_ts_integrand, 0.0, 1.0, 1e-10)
    with pytest.raises(ValueError):
        tanh_sinh(_ts_integrand, np.ones(1), np.zeros(1), 1e-10)
    with pytest.raises(ValueError):
        integrate_semiinfinite_damped(_row_integrand, 0.2, math.pi, 1e-9)


def test_cross_module_hankel_kernel():
    # direct quadrature of the oscillatory kernel against the closed form
    from wsdist.specfun import bessel_j, hankel1_complex
    from wsdist.weber_schafheitlin import OrderPair, RegularizedPoint, regularized_I

    z = 1.5 + 0.1j

    def f(k, rows):
        return k * hankel1_complex(0.0, z * k) * bessel_j(0.0, k)

    r = integrate_semiinfinite_damped(f, 0.1, np.array([math.pi / 1.5]), 1e-8)
    ref = regularized_I(OrderPair(0.0, 0.0), RegularizedPoint(1.5, 0.1))
    assert abs(r.value[0] - ref) <= 1e-8 * max(1.0, abs(ref))


def test_pv_window_cancellation():
    # density odd about the pole, g symmetric about it -> exact zero
    g = TestFunction(1.0, 0.4)
    r = integrate_pv(lambda s: 1.0 / (1.0 - s) * g(s), *g.support, 1.0, 1e-11)
    assert abs(r.value) <= 1e-11


def test_pv_pole_outside_support():
    g = TestFunction(2.5, 0.4)
    r = integrate_pv(lambda s: 1.0 / (1.0 - s) * g(s), *g.support, 1.0, 1e-11)
    plain = integrate_finite(lambda s: g(s) / (1.0 - s), 2.1, 2.9, 1e-11)
    assert abs(r.value - plain.value) <= 1e-12


def test_pv_epsilon_oracle():
    # Pv<1/(1/s - s), g> against the eps-regularized limit
    g = TestFunction(1.2, 0.5)
    pv = integrate_pv(lambda s: 1.0 / (1.0 / s - s) * g(s), *g.support, 1.0, 1e-12)
    assert abs(pv.value.real - (-0.3566018850858874)) <= 1e-10  # frozen
    seq = []
    for eps in (0.2, 0.1, 0.05, 0.025, 0.0125):
        r = integrate_finite(
            lambda s: g(s) / (1.0 / np.asarray(s, float) - np.asarray(s, float) - 2j * eps),
            g.support[0],
            g.support[1],
            1e-12,
        )
        seq.append((eps, r.value.real))
    lim, _ = richardson(seq)
    assert abs(pv.value.real - lim) <= 1e-5


def test_pv_pole_on_boundary():
    g = TestFunction(1.5, 0.5)
    with pytest.raises(PoleOnBoundaryError):
        integrate_pv(lambda s: 1.0 / (1.0 - s) * g(s), *g.support, 1.0, 1e-9)


def test_richardson_exact_polynomials():
    val, err = richardson([(0.4, 5.0), (0.2, 5.0), (0.1, 5.0)])
    assert val == 5.0 and err == 0.0
    a, b, c = 1.0, 2.0, 3.0
    pts = [(e, a + b * e + c * e * e) for e in (0.4, 0.2, 0.1)]
    val, _ = richardson(pts)
    assert abs(val - a) <= 1e-12


def test_richardson_exactly_linear():
    pts = [(e, 2.5 - 4.0 * e) for e in (0.4, 0.2, 0.1)]
    val, err = richardson(pts)
    assert abs(val - 2.5) <= 1e-14
    assert err <= 1e-13


def test_richardson_needs_three_points():
    with pytest.raises(InsufficientDataError):
        richardson([(0.2, 1.0), (0.1, 1.1)])


def test_eps_schedule_validation():
    EpsSchedule((0.2, 0.1, 0.05))
    with pytest.raises(ValueError):
        EpsSchedule(())
    with pytest.raises(ValueError):
        EpsSchedule((0.2, 0.15))
    with pytest.raises(ValueError):
        EpsSchedule((0.2, -0.1))
    with pytest.raises(InsufficientDataError):
        EpsSchedule((0.2, 0.1))
