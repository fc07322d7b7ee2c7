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


def _stop_panel(f, damping, spacing, tol):
    """The panel a one-row call stops at: the first P for which the call
    returns the same value when every panel past P is nan (a row that
    reads a nan panel before its stop never converges)."""
    ref = integrate_semiinfinite_damped(f, damping, spacing, tol)
    for stop in range(1, quadrature._MAX_OSC_PANELS):
        end = (stop + 1) * spacing[0]
        cut = integrate_semiinfinite_damped(
            lambda k, rows: np.where(k > end, np.nan, f(k, rows)), damping, spacing, tol
        )
        if cut.converged and cut.value[0] == ref.value[0]:
            return stop
    raise AssertionError("the call reads every panel")


def test_row_batch_matches_one_row_calls():
    spacing = math.pi / _ROW_C
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batch = integrate_semiinfinite_damped(_row_integrand, _ROW_EPS, spacing, 1e-9)
        ones, stops = [], []
        for r in range(len(spacing)):
            one = [lambda k, rows, r=r: _row_integrand(k, [r]), _ROW_EPS, spacing[r:r + 1], 1e-9]
            ones.append(integrate_semiinfinite_damped(*one))
            stops.append(_stop_panel(*one))
    # blocks hold panels 1-8, 9-16, ...: rows leave at different panels,
    # and some inside a block
    assert len(set(stops)) > 1 and any(stop % 8 for stop in stops)
    assert batch.converged == all(o.converged for o in ones)
    assert batch.evaluations == sum(o.evaluations for o in ones)
    ref = np.array([o.value[0] for o in ones])
    assert np.all(np.abs(batch.value - ref) <= 1e-13 * np.abs(ref))


_CUT = 8.0 * math.pi


def _cut_integrand(k, rows):
    # row 0: e^{-k} sin k, exactly 0 from k = 8 pi on, so its partial
    # sums repeat; rows 1 and 2: e^{-k} sin(c k) on the whole half-line
    c = np.array([1.0, 1.5, 3.0])[np.asarray(rows), None]
    cut = (np.asarray(rows) == 0)[:, None] & (k >= _CUT)
    return np.where(cut, 0.0, np.exp(-k) * np.sin(c * k))


def test_repeated_partial_sums_take_the_broken_column_path(monkeypatch):
    # int_0^{8 pi} e^{-k} sin k dk = (1 - e^{-8 pi}) / 2; int_0^inf
    # e^{-k} sin(c k) dk = c / (1 + c^2)
    exact = np.array([0.5 * (1.0 - math.exp(-_CUT)), 1.5 / 3.25, 0.3])
    spacing = math.pi / np.array([1.0, 1.5, 3.0])
    tol = 1e-12
    changes = []  # per one-row call, the change at each panel
    extend = quadrature._wynn_extend

    def spy(diag, last_tiny, panels, n):
        out = extend(diag, last_tiny, panels, n)
        changes[-1].extend(out[3][0])
        return out

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batch = integrate_semiinfinite_damped(_cut_integrand, 1.0, spacing, tol)
        monkeypatch.setattr(quadrature, "_wynn_extend", spy)
        ones = []
        for r in range(3):
            changes.append([])
            ones.append(integrate_semiinfinite_damped(
                lambda k, rows, r=r: _cut_integrand(k, [r]), 1.0, spacing[r:r + 1], tol
            ))
    # S_8 = S_7: the cut row's table meets a zero difference from panel 8
    # on, and runs past it
    assert len(changes[0]) > 8 and all(c == 0.0 for c in changes[0][7:])
    for r, one in enumerate(ones):
        assert one.converged and abs(one.value[0] - exact[r]) <= tol
    assert batch.converged
    assert batch.value.tolist() == [o.value[0] for o in ones]
    assert batch.error_estimate.tolist() == [o.error_estimate[0] for o in ones]


def test_no_row_is_evaluated_past_its_panel_cap():
    # the cut row runs to its cap of ceil(50 / pi) = 16 panels at damping
    # 1, which ends inside a block of 8 panels of the batch: a block ends
    # at the smallest cap of the rows still running
    spacing = math.pi / np.array([1.0, 1.5, 3.0])
    seen = np.zeros(3)

    def spy(k, rows):
        seen[rows] = np.maximum(seen[rows], k.max(axis=1))
        return _cut_integrand(k, rows)

    integrate_semiinfinite_damped(spy, 1.0, spacing, 1e-12)
    caps = np.minimum(np.ceil(50.0 / spacing), quadrature._MAX_OSC_PANELS) * spacing
    assert seen[0] > 15 * spacing[0]  # the cut row reaches its last panel
    assert np.all(seen <= caps)


def _wynn_rows(partial):
    """Reference: the whole Wynn epsilon table on a window of partial
    sums, one row each, as the engine built it after every panel before
    it kept the table's last antidiagonal.

    Returns, per row, the last entry of the highest even column that
    stays numerically sane, together with the change from the previous
    even column, and the first column that meets a difference below
    1e-300 (-1 if none).  A row whose column meets such a difference
    keeps its last even column with change 0.
    """
    cur = partial
    prev_col = None  # odd predecessor
    best = cur[:, -1]
    change = np.abs(cur[:, -1] - cur[:, -2])
    sane = np.ones(len(cur), dtype=bool)
    first_broken = np.full(len(cur), -1)
    col = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while cur.shape[1] >= 3:
            diff = cur[:, 1:] - cur[:, :-1]
            broken = sane & (np.abs(diff) < 1e-300).any(axis=1)
            first_broken[broken] = col
            change = np.where(broken, 0.0, change)
            sane &= ~broken
            inv = 1.0 / diff
            nxt = inv if prev_col is None else prev_col[:, 1:-1] + inv
            prev_col = cur
            cur = nxt
            col += 1
            if col % 2 == 0:
                change = np.where(sane, np.abs(cur[:, -1] - best), change)
                best = np.where(sane, cur[:, -1], best)
    return best, change, first_broken


def _wynn_panels(n_panels):
    """First partial sums and panel values of rows whose tables meet
    exact zero differences, after 3 plain rows (0-2)."""
    rng = np.random.default_rng(19)
    decay = 0.7 ** np.arange(n_panels)
    plain = (rng.standard_normal((3, n_panels)) + 1j * rng.standard_normal((3, n_panels))) * decay
    first = [complex(v) for v in rng.standard_normal(3)]
    # 3: panels 0 from panel 11 on, so the sums repeat (column 0)
    repeat = plain[0].copy()
    repeat[10:] = 0.0
    # 4: equal dyadic panels 5-20, so equal differences (column 1)
    steps = plain[1].copy()
    steps[4:20] = 0.25
    # 5: dyadic geometric panels 2^-k, whose Shanks transform is exact
    # (column 2)
    geometric = 2.0 ** -np.arange(1.0, n_panels + 1)
    # 6: panel 8 solves eps_7^(1) = eps_7^(0) in floating point, so
    # column 7 meets an exact zero difference at S_8; it is the first
    # broken column at S_9 .. S_15, until S_0 leaves the window
    seventh = np.concatenate((
        [0.916700057990582, -0.03759623940188534, -0.06546898347740723,
         0.09523208917485451, 0.006039067095210954, 0.03590161397987391,
         -0.038747071326607985, 2.093085060002219],
        plain[2, 8:].real,
    ))
    first += [0.5, 0.5, 0.5, -0.9691350460989934]
    panels = np.vstack((plain, repeat, steps, geometric, seventh))
    return np.array(first, dtype=complex), panels


@pytest.mark.parametrize("seed", range(4))
def test_wynn_extend_matches_the_whole_table_bit_for_bit(seed):
    n_panels = 40
    first, panels = _wynn_panels(n_panels)
    rng = np.random.default_rng(seed)
    rows = np.arange(len(first))
    diag = np.full((15, len(rows)), complex(np.nan, np.nan))
    diag[0] = first
    last_tiny = np.full((14, len(rows)), -1)
    partial = first[:, None]
    broken_at = {}  # (row, panel) -> first broken column of the window
    j = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        while j <= n_panels:
            # blocks of 1 to 8 panels, so they start at varying offsets
            nb = min(int(rng.integers(1, 9)), n_panels + 1 - j)
            diag, last_tiny, est, change = quadrature._wynn_extend(
                diag, last_tiny, panels[rows, j - 1:j - 1 + nb], j - 1
            )
            assert est.shape == change.shape == (len(rows), nb)
            for i in range(nb):
                partial = np.column_stack((partial[:, -15:], partial[:, -1] + panels[rows, j - 1 + i]))
                ref_est, ref_change, first_broken = _wynn_rows(partial)
                assert np.array_equal(est[:, i], ref_est, equal_nan=True)
                assert np.array_equal(change[:, i], ref_change, equal_nan=True)
                broken_at.update(zip(zip(rows.tolist(), [j + i] * len(rows)), first_broken))
            j += nb
            # a plain row leaves the batch now and then
            keep = (rows > 2) | (rng.random(len(rows)) > 0.15)
            rows, diag, last_tiny, partial = (
                rows[keep], diag[:, keep], last_tiny[:, keep], partial[keep]
            )
    # windows that grew (n < 15) and slid (n up to 40) both met each of
    # the broken columns
    for row, col in [(3, 0), (4, 1), (5, 2)]:
        assert broken_at[row, 12] == col and broken_at[row, 30] == col
    assert [broken_at[6, n] for n in range(8, 17)] == [-1] + [7] * 7 + [-1]


def test_g15_comparator_integrates_legendre_p0_to_p13():
    w13 = quadrature._g15_comparator()
    nodes = quadrature.gauss_legendre(15)[0]
    assert w13[1] == w13[13] == 0.0 and np.count_nonzero(w13) == 13
    for n in range(14):
        exact = 2.0 if n == 0 else 0.0
        p_n = np.polynomial.legendre.Legendre.basis(n)(nodes)
        assert abs(w13 @ p_n - exact) <= 1e-14


def test_damped_panel_costs_15_evaluations():
    spacing = np.array([math.pi])
    tol = 1e-9
    r = integrate_semiinfinite_damped(_row_integrand, _ROW_EPS, spacing, tol)
    first = tanh_sinh(_row_integrand, np.zeros(1), spacing, tol * 1e-2)
    # panels come in blocks of 8, the last one holding the stop
    panels = 8 * math.ceil(_stop_panel(_row_integrand, _ROW_EPS, spacing, tol) / 8)
    assert r.converged and r.evaluations == first.evaluations + 15 * panels


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_damped_error_estimate_bounds_the_error(tol):
    # int_0^inf k^p e^{-eps k} sin(c k) dk = Gamma(p+1) Im (eps - i c)^{-(p+1)}
    exact = np.array([
        math.gamma(p + 1.0) * ((_ROW_EPS - 1j * c) ** -(p + 1.0)).imag
        for c, p in zip(_ROW_C, _ROW_P)
    ])
    r = integrate_semiinfinite_damped(_row_integrand, _ROW_EPS, math.pi / _ROW_C, tol)
    assert r.converged
    assert np.all(np.abs(r.value - exact) <= r.error_estimate)


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
