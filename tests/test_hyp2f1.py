import cmath
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest

from wsdist import weber_schafheitlin as ws
from wsdist.errors import CutError, DomainError, ParamError
from wsdist.specfun import (
    BranchPoint,
    HypParams,
    digamma,
    gamma,
    hyp,
    hyp2f1,
    hyp2f1_boundary,
)

mp.mp.dps = 30

# generic parameters plus the two degenerate families the closed forms use
PARAM_SETS = [
    (0.4, 0.9, 1.93),
    (1.2, 0.3, 2.05),
    (-0.6, 1.7, 0.8),
    (2.2, 2.9, 1.4),
]
for _mu, _nu in [(0.0, 1.0), (1.0, 2.0), (0.5, 1.5), (2.0, 1.0), (3.0, 1.5)]:
    _a, _b, _c = (_nu + _mu) / 2, (_nu - _mu) / 2, _nu + 1.0
    PARAM_SETS.append((_a, _b, _c))          # c - a - b = 1, a - b integral iff mu is
    PARAM_SETS.append((_a + 1, _b + 1, _c))  # c - a - b = -1

Z_POINTS = [
    0.3 + 0.2j,
    -0.7 - 0.5j,
    0.6 - 0.575j,   # lens region
    0.52 + 0.85j,   # lens region, upper
    0.99 - 0.004j,  # near the branch point
    2.0 - 0.2j,
    2.0 + 0.2j,
    -30.0 + 1e-3j,
    1e4 - 1.0j,
    0.9 - 0.7j,
    1.31 - 0.52j,
    -0.5 + 0.9j,
]


def test_value_at_zero_is_one():
    assert hyp2f1(HypParams(0.7, 1.9, 2.3), 0.0) == 1.0 + 0.0j


def test_b_zero_is_one_everywhere():
    p = HypParams(1.3, 0.0, 2.0)
    for z in (0.5, -4.0, 3.0 + 0.0j, 0.6 - 0.575j):
        assert hyp2f1(p, z) == 1.0 + 0.0j


def test_param_validation():
    with pytest.raises(ParamError):
        HypParams(0.5, 0.5, 0.0)
    with pytest.raises(ParamError):
        HypParams(0.5, 0.5, -3.0)


def test_cut_error():
    with pytest.raises(CutError):
        hyp2f1(HypParams(0.5, 0.7, 1.9), 1.5 + 0.0j)


@pytest.mark.parametrize("abc", PARAM_SETS)
def test_against_mpmath_off_cut(abc):
    a, b, c = abc
    p = HypParams(a, b, c)
    for z in Z_POINTS:
        got = hyp2f1(p, z)
        ref = complex(mp.hyp2f1(a, b, c, mp.mpc(z)))
        assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), f"z={z}"


@pytest.mark.parametrize("abc", PARAM_SETS)
def test_boundary_against_mpmath(abc):
    a, b, c = abc
    p = HypParams(a, b, c)
    for x in (1.0, 1.0000001, 1.05, 1.3, 1.59, 1.61, 2.0, 4.0, 27.0):
        if x == 1.0 and c - a - b <= 0:
            with pytest.raises(DomainError):
                hyp2f1_boundary(p, BranchPoint(x))
            continue
        got = hyp2f1_boundary(p, BranchPoint(x))
        ref = complex(mp.hyp2f1(a, b, c, x))  # mpmath's cut value is from below
        assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), f"x={x}"


def test_gauss_value_at_one():
    # the engine normalization: prefactor * 2F1(a, b; c; 1) = Gauss quotient
    for mu, nu in [(0.0, 1.0), (0.5, 1.5), (1.0, 2.0)]:
        a, b, c = (nu + mu) / 2, (nu - mu) / 2, nu + 1.0
        got = hyp2f1_boundary(HypParams(a, b, c), BranchPoint(1.0))
        ref = gamma(c) / (gamma(c - a) * gamma(c - b))
        assert abs(got - ref) <= 1e-12 * abs(ref)


def _abs_term_sum(a, b, c, z):
    """Sum of the moduli of the terms of a terminating series: the scale
    of its rounding error."""
    n = int(round(-a)) if a < 0.5 and a == round(a) else int(round(-b))
    term, total = mp.mpf(1), mp.mpf(1)
    for k in range(n):
        term *= abs((a + k) * (b + k) / ((c + k) * (k + 1.0)) * z)
        total += term
    return float(total)


@pytest.mark.parametrize(
    "abc", [(-1.0, 0.4, 1.93), (-3.0, 1.7, 0.8), (2.2, -5.0, 1.4), (-7.0, -2.5, 3.5)]
)
def test_terminating_series_of_positive_degree(abc):
    # a or b a negative integer: a polynomial, summed off the cut, on it
    # through hyp2f1 and as the boundary value alike
    a, b, c = abc
    params = HypParams(a, b, c)
    for z in (0.3 + 0.2j, -4.0 + 1.0j, 2.5 - 3.0j, 0.9 + 0.0j, 1.0 + 0.0j, 2.0 + 0.0j, 7.5 + 0.0j):
        ref = complex(mp.hyp2f1(a, b, c, z))
        scale = 1e-14 * _abs_term_sum(a, b, c, z)
        assert abs(hyp2f1(params, z) - ref) <= scale, f"z={z}"
        if z.imag == 0.0 and z.real >= 1.0:
            got = hyp2f1_boundary(params, BranchPoint(z.real))
            assert abs(got - ref) <= scale, f"x={z.real}"


def test_boundary_b_zero():
    p = HypParams(1.7, 0.0, 2.1)
    for x in (1.0, 2.5, 40.0):
        assert hyp2f1_boundary(p, BranchPoint(x)) == 1.0 + 0.0j


def test_boundary_matches_small_offset_limit():
    # delta-sequence check of the from-below convention
    for a, b, c in [(0.5, 0.5, 2.0), (1.5, 0.5, 2.0), (0.75, 0.25, 2.5)]:
        p = HypParams(a, b, c)
        for x in (1.2, 1.7, 3.0):
            lim = hyp2f1(p, complex(x, -1e-8))
            bnd = hyp2f1_boundary(p, BranchPoint(x))
            assert abs(lim - bnd) <= 1e-6 * max(1.0, abs(bnd))


def test_boundary_past_one_is_not_real():
    p = HypParams(0.7, 1.3, 2.4)
    assert hyp2f1_boundary(p, BranchPoint(2.0)).imag != 0.0


def test_conjugation_symmetry():
    p = HypParams(0.8, 1.9, 2.7)
    for z in Z_POINTS:
        z = complex(z)
        lhs = hyp2f1(p, z.conjugate())
        rhs = hyp2f1(p, z).conjugate()
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))


def test_euler_transform_identity():
    # parameter-shifted relation: (1-z) 2F1(a+1,b+1;c;z) = 2F1(a,b;c;z)
    # at the c = a + b + 1 family
    zs = np.concatenate([np.linspace(-5.0, 0.0, 11), np.linspace(0.05, 0.95, 10)])
    for mu, nu in [(0.0, 1.0), (1.0, 2.0), (0.5, 1.5), (2.0, 1.0)]:
        a, b, c = (nu + mu) / 2, (nu - mu) / 2, nu + 1.0
        for z in zs:
            lhs = (1.0 - z) * hyp2f1(HypParams(a + 1, b + 1, c), complex(z))
            rhs = hyp2f1(HypParams(a, b, c), complex(z))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_branch_point_validation():
    with pytest.raises(DomainError):
        BranchPoint(0.8)


# --- the tabled log series against the per-term digamma loops ---------------


def _reference_one_minus_z_log_parts(a, b, m, w, logw):
    """The degenerate 1-z series as it was before its operands were
    tabled: every digamma and term ratio recomputed per point."""
    c = a + b + m
    gc = gamma(c)
    fin = 0.0 + 0.0j
    if m > 0:
        coef = gc * hyp._rgamma(a + m) * hyp._rgamma(b + m)
        term = 1.0 + 0.0j
        acc = 0.0 + 0.0j
        for k in range(m):
            acc += term * math.factorial(m - k - 1)
            if k < m - 1:
                term = term * ((a + k) * (b + k)) / (k + 1.0) * (-w)
        fin = coef * acc

    sign = -1.0 if m % 2 == 0 else 1.0  # (-1)^(m+1)
    pref = sign * gc * hyp._rgamma(a) * hyp._rgamma(b)
    term = (1.0 + 0.0j) / math.factorial(m)
    acc = 0.0 + 0.0j
    for k in range(500):
        bracket = (
            logw
            - digamma(k + 1.0)
            - digamma(k + m + 1.0)
            + digamma(a + m + k)
            + digamma(b + m + k)
        )
        acc += term * bracket
        if abs(term) * (abs(bracket) + k + 10.0) < 1e-18 * max(abs(acc), 1e-280):
            break
        term = term * ((a + m + k) * (b + m + k)) / ((k + 1.0) * (k + m + 1.0)) * w
    return fin, pref * acc


def _reference_inv_z_log(a, c, ell, t, lognegz):
    """The degenerate 1/z series as it was before its operands were
    tabled."""
    out = 0.0 + 0.0j
    if ell > 0:
        acc = 0.0 + 0.0j
        term = 1.0 + 0.0j
        for k in range(ell):
            acc += term * math.factorial(ell - k - 1) * hyp._rgamma(c - a - k)
            if k < ell - 1:
                term = term * (a + k) / (k + 1.0) * t
        out += acc / gamma(a + ell)
    acc = 0.0 + 0.0j
    term = (1.0 + 0.0j) / math.factorial(ell)
    for k in range(500):
        q = c - a - ell - k
        bracket = (
            lognegz + digamma(k + 1.0) + digamma(k + ell + 1.0) - digamma(a + k + ell)
        ) * hyp._rgamma(q) - hyp._psi_over_gamma(q)
        acc += term * bracket
        if abs(term) * (abs(bracket) + k + 10.0) < 1e-18 * max(abs(acc), 1e-280):
            break
        term = term * (a + ell + k) / ((k + 1.0) * (k + ell + 1.0)) * (-t)
    out += acc * (t**ell) / gamma(a)
    return gamma(c) * cmath.exp(-a * lognegz) * out


def _clear_tables():
    for cached in (hyp._one_minus_z_head, hyp._one_minus_z_row, hyp._inv_z_head, hyp._inv_z_row):
        cached.cache_clear()
    ws._gamma_prefactor.cache_clear()


def _degenerate_sets():
    """(a, b, m) of every 1-z log series and (a, c, ell) of every 1/z log
    series that PARAM_SETS reaches, keyed the way the dispatch keys them
    (Euler transform for m < 0, a and b swapped for ell < 0), plus
    m = 0, m = 2 and ell = 3."""
    one_minus_z, inv_z = {(0.7, 1.1, 0), (0.3, 0.45, 2)}, {(0.6, 4.1, 3)}
    for a, b, c in PARAM_SETS:
        if hyp._near_int(c - a - b):
            m = round(c - a - b)
            one_minus_z.add((a, b, m) if m >= 0 else (c - a, c - b, -m))
        if hyp._near_int(b - a):
            ell = round(b - a)
            inv_z.add((a, c, ell) if ell >= 0 else (b, c, -ell))
    return sorted(one_minus_z), sorted(inv_z)


ONE_MINUS_Z_SETS, INV_Z_SETS = _degenerate_sets()
# small arguments first; the last reaches farthest into its table.  Real
# negative w and real t take the from-below logarithm of the cut.
W_POINTS = [0.05, -0.1 + 0.02j, -0.3, 0.4 - 0.2j, -0.7 + 0.1j, -0.74]
T_POINTS = [0.02, -0.1 + 0.05j, 0.3, 0.2 - 0.5j, 0.74]


def _log_of(v):
    if isinstance(v, float) and v < 0.0:
        return complex(math.log(-v), math.pi)
    return cmath.log(v)


def test_degenerate_sets_cover_integer_mu():
    assert any(m == 1 for _, _, m in ONE_MINUS_Z_SETS)
    assert {1, 2} <= {ell for _, _, ell in INV_Z_SETS}


@pytest.mark.parametrize("abm", ONE_MINUS_Z_SETS)
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_one_minus_z_log_parts_bit_identical(abm, warm):
    a, b, m = abm
    for w in W_POINTS:
        _clear_tables()
        if warm:  # a farther point grows the table past what w needs
            far = W_POINTS[-1]
            hyp._one_minus_z_log_parts(a, b, m, complex(far), _log_of(far))
        got = hyp._one_minus_z_log_parts(a, b, m, complex(w), _log_of(w))
        ref = _reference_one_minus_z_log_parts(a, b, m, complex(w), _log_of(w))
        assert got == ref, f"w={w}"


@pytest.mark.parametrize("acl", INV_Z_SETS)
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_inv_z_log_bit_identical(acl, warm):
    a, c, ell = acl
    for t in T_POINTS:
        _clear_tables()
        if warm:
            far = T_POINTS[-1]
            hyp._inv_z_log(a, c, ell, complex(far), _log_of(-1.0 / far))
        got = hyp._inv_z_log(a, c, ell, complex(t), _log_of(-1.0 / t))
        ref = _reference_inv_z_log(a, c, ell, complex(t), _log_of(-1.0 / t))
        assert got == ref, f"t={t}"


def test_tables_grow_only_as_far_as_a_series_reaches():
    _clear_tables()
    hyp._one_minus_z_log_parts(0.5, 0.5, 1, 0.05 + 0j, cmath.log(0.05))
    near = hyp._one_minus_z_row.cache_info().currsize
    hyp._one_minus_z_log_parts(0.5, 0.5, 1, 0.7 + 0j, cmath.log(0.7))
    far = hyp._one_minus_z_row.cache_info().currsize
    assert 0 < near < far < 500


def test_log_series_from_threads_bit_identical():
    """Threads that miss the cleared caches together still compute the
    reference loops' bits: a row is a pure function of its key."""
    calls = [
        (series, (*key, complex(w), _log_of(w)))
        for key in ONE_MINUS_Z_SETS
        for w in W_POINTS[::-1]
        for series in (hyp._one_minus_z_log_parts, _reference_one_minus_z_log_parts)
    ] + [
        (series, (*key, complex(t), _log_of(-1.0 / t)))
        for key in INV_Z_SETS
        for t in T_POINTS[::-1]
        for series in (hyp._inv_z_log, _reference_inv_z_log)
    ]
    want = [f(*args) for f, args in calls[1::2]]
    start = threading.Barrier(4)

    def run(_):
        start.wait()
        return [f(*args) for f, args in calls[::2]]

    _clear_tables()
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(run, range(4)))
    assert all(got == want for got in results)


@pytest.mark.parametrize(
    "make, mu, nu",
    [
        (ws.prop1_distribution, 0.0, 1.0),
        (ws.prop1_distribution, 2.0, 1.0),
        (ws.prop1_distribution, 0.5, 1.5),
        (ws.prop2_distribution, 0.0, 1.0),
        (ws.prop2_distribution, 1.0, 2.0),
        (ws.prop2_distribution, 2.0, 1.0),
    ],
)
def test_density_h_bit_identical_across_fresh_tables(make, mu, nu):
    grid = np.linspace(0.3, 2.9, 64)
    _clear_tables()
    first = [make(ws.OrderPair(mu, nu)).h(s) for s in grid]
    _clear_tables()  # the second pass grows its tables in the other order
    second = [make(ws.OrderPair(mu, nu)).h(s) for s in grid[::-1]][::-1]
    assert first == second
