import math
import warnings

import numpy as np
import pytest

from wsdist.distributions import TestFunction
from wsdist.errors import InsufficientDataError, PoleOnBoundaryError
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
    r = integrate_semiinfinite_damped(lambda k, rows: np.exp(-k), np.array([math.pi]), 40.0)
    assert r.converged and abs(r.value[0] - 1.0) <= 1e-12


@pytest.mark.parametrize("eps", [1.0, 0.2, 0.05])
def test_damped_sine_closed_form(eps):
    r = integrate_semiinfinite_damped(
        lambda k, rows: np.exp(-eps * k) * np.sin(k), np.array([math.pi]), 40.0 / eps
    )
    assert r.converged
    assert abs(r.value[0] - 1.0 / (1.0 + eps * eps)) <= 1e-12


# rows of e^{-eps k} sin(c k) k^p, each with spacing pi/c (half a period)
_ROW_EPS = 0.2
_ROW_C = np.array([1.0, 1.5, 1.0, 1.5, 3.0])
_ROW_P = np.array([0.0, 0.0, 1.0, 0.5, 0.0])
# int_0^inf k^p e^{-eps k} sin(c k) dk = Gamma(p+1) Im (eps - i c)^{-(p+1)}
_ROW_EXACT = np.array([
    math.gamma(p + 1.0) * ((_ROW_EPS - 1j * c) ** -(p + 1.0)).imag for c, p in zip(_ROW_C, _ROW_P)
])


def _row_integrand(k, rows):
    # k^p row by row: numpy takes k ** 0.5 as a square root, and an array
    # of exponents through pow, which may round otherwise
    rows = np.asarray(rows)
    power = np.stack([k[i] ** _ROW_P[r] for i, r in enumerate(rows)])
    return np.exp(-_ROW_EPS * k) * np.sin(_ROW_C[rows, None] * k) * power


def _tanh_sinh_head(f):
    """A head for integrate_semiinfinite_damped: tanh-sinh on each row's
    first panel [0, spacing], for an integrand singular at 0."""
    return lambda spacing: (spacing, tanh_sinh(f, np.zeros(len(spacing)), spacing, 1e-10).value)


def test_row_batch_equals_its_lone_calls_bit_for_bit():
    spacing = math.pi / _ROW_C
    ends = np.array([250.0, 260.0, 300.0, 280.0, 240.0])  # past e^{-40}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batch = integrate_semiinfinite_damped(_row_integrand, spacing, ends,
                                              head=_tanh_sinh_head(_row_integrand))
        ones = []
        for r in range(len(spacing)):
            def one(k, rows, r=r):
                return _row_integrand(k, [r])

            ones.append(integrate_semiinfinite_damped(one, spacing[r:r + 1], ends[r:r + 1],
                                                      head=_tanh_sinh_head(one)))
    assert batch.converged is all(o.converged for o in ones) is True
    assert batch.evaluations == sum(o.evaluations for o in ones)
    assert batch.value.tolist() == [o.value[0] for o in ones]
    assert np.all(np.abs(batch.value - _ROW_EXACT) <= 1e-12 * np.maximum(1.0, np.abs(_ROW_EXACT)))


def test_each_row_ends_at_its_own_end():
    # ends rounded up to each row's panel grid: 5, 8 and 12 panels
    spacing = math.pi / np.array([1.0, 1.5, 3.0])
    ends = np.array([4.5, 8.0 - 1e-9, 11.5]) * spacing
    seen = np.zeros(3)
    calls = []

    def spy(k, rows):
        seen[rows] = np.maximum(seen[rows], k.max(axis=1))
        calls.append(len(rows))
        return np.exp(-k) * np.sin(k)

    r = integrate_semiinfinite_damped(spy, spacing, ends)
    last = np.array([5, 8, 12]) * spacing
    assert np.all(seen < last) and np.all(seen > last - 0.5 * spacing)
    # one call per Gauss panel, of the rows it reaches, 15 evaluations each
    assert calls == [3] * 5 + [2] * 3 + [1] * 4
    assert r.evaluations == 15 * (5 + 8 + 12)
    assert r.converged is True and math.isnan(r.error_estimate)


def test_a_head_takes_the_panels_from_its_start_to_the_spacing():
    # rows start at spacing, spacing / 2 and spacing / 8: 0, 1 and 3
    # panels [start, 2 start], ... before the first spacing
    spacing = np.full(3, math.pi)
    start = spacing / np.array([1.0, 2.0, 8.0])
    heads, calls = [], []

    def exact(a):  # int_0^a e^{-k} sin k dk
        return 0.5 * (1.0 - np.exp(-a) * (np.sin(a) + np.cos(a)))

    def head(sp):
        heads.append(sp.tolist())
        return start, exact(start)

    def f(k, rows):
        calls.append((rows.tolist(), k.min(axis=1).tolist(), k.max(axis=1).tolist()))
        return np.exp(-k) * np.sin(k)

    r = integrate_semiinfinite_damped(f, spacing, 40.0, head=head)
    assert heads == [spacing.tolist()]
    assert [rows for rows, _, _ in calls[:3]] == [[2], [2], [1, 2]]
    for (_, lo, hi), a in zip(calls[:3], (math.pi / 8, math.pi / 4, math.pi / 2)):
        assert all(a < k < 2 * a for k in lo + hi)
    assert r.evaluations == 15 * (3 * 12 + 1 + 3)  # panels 1 to 12 after the first
    assert np.all(np.abs(r.value - exact(13 * math.pi)) <= 1e-14)


def test_the_tail_is_added_once_at_the_row_ends():
    spacing = math.pi / _ROW_C
    ends = np.full(len(spacing), 30.0)
    got = []

    def tail(row_ends):
        got.append(row_ends.copy())
        return np.arange(len(row_ends)) + 0.5j

    plain = integrate_semiinfinite_damped(_row_integrand, spacing, ends)
    with_tail = integrate_semiinfinite_damped(_row_integrand, spacing, ends, tail)
    assert len(got) == 1
    assert got[0].tolist() == (np.ceil(30.0 / spacing) * spacing).tolist()
    assert with_tail.value.tolist() == (plain.value + tail(got[0])).tolist()
    assert with_tail.evaluations == plain.evaluations


def test_row_engines_take_1d_row_arrays_only():
    with pytest.raises(ValueError):
        tanh_sinh(_ts_integrand, 0.0, 1.0, 1e-10)
    with pytest.raises(ValueError):
        tanh_sinh(_ts_integrand, np.ones(1), np.zeros(1), 1e-10)
    with pytest.raises(ValueError):
        integrate_semiinfinite_damped(_row_integrand, math.pi, 200.0)
    with pytest.raises(ValueError):
        integrate_semiinfinite_damped(_row_integrand, np.array([math.pi]), math.inf)


def test_cross_module_hankel_kernel():
    # direct quadrature of the oscillatory kernel against the closed form
    from wsdist.specfun import bessel_j, hankel1_complex
    from wsdist.weber_schafheitlin import OrderPair, RegularizedPoint, regularized_I

    z = 1.5 + 0.1j

    def f(k, rows):
        return k * hankel1_complex(0.0, z * k) * bessel_j(0.0, k)

    r = integrate_semiinfinite_damped(f, np.array([math.pi / 1.5]), 40.0 / 0.1,
                                      head=_tanh_sinh_head(f))
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
