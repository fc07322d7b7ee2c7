import cmath
import json
import math
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

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
    for abc in ((math.nan, 0.9, 1.93), (0.4, math.inf, 1.93), (0.4, 0.9, -math.inf)):
        with pytest.raises(ParamError, match="finite"):
            HypParams(*abc)


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.5, math.nan), complex(math.nan, math.nan)])
def test_nan_argument_is_a_domain_error(z):
    with pytest.raises(DomainError, match="NaN"):
        hyp2f1(HypParams(0.4, 0.9, 1.93), z)
    with pytest.raises(DomainError, match="NaN"):
        hyp2f1(HypParams(-2.0, 0.9, 1.93), z)  # a terminating series too


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
    for x in (0.8, math.nan):
        with pytest.raises(DomainError):
            BranchPoint(x)


# --- the tabled series against the per-term loops ---------------------------


def _reference_maclaurin(a, b, c, z):
    """The Maclaurin series as it was before its term factors were
    tabled: (a+k)(b+k) and (c+k)(k+1) formed per term."""
    term = 1.0 + 0.0j
    acc = 1.0 + 0.0j
    for k in range(500):
        term = term * ((a + k) * (b + k)) / ((c + k) * (k + 1.0)) * z
        acc += term
        if abs(term) < 1e-18 * max(abs(acc), 1e-280):
            return acc
    raise ValueError(f"2F1 series stalled at z={z}")


def _reference_one_minus_z_nondegenerate(a, b, c, w, logw):
    """The non-degenerate 1-z connection with its Gamma factors formed
    per point, on the complex Maclaurin loop."""
    m = c - a - b
    t1 = (
        gamma(c) * gamma(m) * hyp._rgamma(c - a) * hyp._rgamma(c - b)
        * _reference_maclaurin(a, b, 1.0 - m, w)
    )
    t2 = (
        cmath.exp(m * logw) * gamma(c) * gamma(-m) * hyp._rgamma(a) * hyp._rgamma(b)
        * _reference_maclaurin(c - a, c - b, 1.0 + m, w)
    )
    return t1 + t2


def _reference_inv_z_nondegenerate(a, b, c, t, lognegz):
    """The non-degenerate 1/z connection with its Gamma factors formed
    per point, on the complex Maclaurin loop."""
    ell = b - a
    t1 = (
        gamma(c) * gamma(ell) * hyp._rgamma(b) * hyp._rgamma(c - a)
        * cmath.exp(-a * lognegz) * _reference_maclaurin(a, a - c + 1.0, 1.0 - ell, t)
    )
    t2 = (
        gamma(c) * gamma(-ell) * hyp._rgamma(a) * hyp._rgamma(c - b)
        * cmath.exp(-b * lognegz) * _reference_maclaurin(b, b - c + 1.0, 1.0 + ell, t)
    )
    return t1 + t2


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
    for cached in (hyp._maclaurin_terms, hyp._one_minus_z_set, hyp._inv_z_set,
                   hyp._one_minus_z_gammas, hyp._inv_z_gammas, hyp._digamma_int):
        cached.cache_clear()
    ws._gamma_prefactor.cache_clear()


def _golden_sets():
    """The (a, b, c) of every 2F1 that the densities of the pair and
    density goldens reach: prop 1's, and for prop 2 also its own on s < 1.
    A terminating one (a or b a non-positive integer) sums no series."""
    sets = set()
    for name in ("pair_golden.json", "density_golden.json"):
        for case in json.loads((Path(__file__).parent / "data" / name).read_text(encoding="utf-8")):
            opts = dict(zip(case["argv"][1::2], case["argv"][2::2]))
            mu, nu = float(opts["--mu"]), float(opts["--nu"])
            sets.add(((nu + mu) / 2.0, (nu - mu) / 2.0, nu + 1.0))
            if opts.get("--prop") == "2":
                sets.add(((mu + nu) / 2.0, (mu - nu) / 2.0, mu + 1.0))
    return sorted(abc for abc in sets if not (hyp._is_nonpos_int(abc[0]) or hyp._is_nonpos_int(abc[1])))


# PARAM_SETS and the sets the goldens' densities reach, whose series see
# real arguments only
SERIES_SETS = PARAM_SETS + _golden_sets()


def _degenerate_sets():
    """(a, b, m) of every 1-z log series and (a, c, ell) of every 1/z log
    series that SERIES_SETS reach, keyed the way the dispatch keys them
    (Euler transform for m < 0, a and b swapped for ell < 0), plus
    m = 0, m = 2 and ell = 3."""
    one_minus_z, inv_z = {(0.7, 1.1, 0), (0.3, 0.45, 2)}, {(0.6, 4.1, 3)}
    for a, b, c in SERIES_SETS:
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
# Maclaurin arguments, the last reaching farthest; then one at |z| = 0.999,
# where 500 terms do not reach the stop, and a NaN, which never stops
Z_SERIES = [0.05, -0.3 + 0.2j, 0.6 - 0.4j, -0.7 - 0.1j, 0.74]
Z_STALLED = [0.999 + 0.0j, complex(math.nan, 0.0)]
# more real arguments, which the series sum in float: of both signs (so
# with a real and with a from-below logarithm), with a -0.0 imaginary
# part, and a NaN
Z_REAL = [-0.3, complex(0.6, -0.0), -0.7]
W_REAL = [0.4, complex(-0.3, -0.0), 0.74, complex(math.nan, 0.0)]
T_REAL = [-0.1, complex(-0.5, -0.0), -0.74, complex(math.nan, 0.0)]


def _bits(value):
    """value with each complex as the bytes of its two doubles, so that ==
    tells -0.0 from +0.0 and compares NaNs by their bits."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return struct.pack("<dd", value.real, value.imag)


def _outcome(series, *args):
    """The bits of series(*args), or the type and message of its error."""
    try:
        return _bits(series(*args))
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _log_of(v):
    if isinstance(v, float) and v < 0.0:
        return complex(math.log(-v), math.pi)
    return cmath.log(v)


def test_degenerate_sets_cover_integer_mu():
    assert any(m == 1 for _, _, m in ONE_MINUS_Z_SETS)
    assert {1, 2} <= {ell for _, _, ell in INV_Z_SETS}


def test_real_points_cover_both_logarithms():
    assert {0, 1, 2} <= {m for _, _, m in ONE_MINUS_Z_SETS}
    for points in (W_POINTS + W_REAL, [-1.0 / t for t in T_POINTS + T_REAL]):
        logs = [_log_of(v) for v in points if isinstance(v, float)]
        assert any(g.imag == 0.0 for g in logs) and any(g.imag == math.pi for g in logs)


@pytest.mark.parametrize("abc", SERIES_SETS)
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_maclaurin_bit_identical(abc, warm):
    a, b, c = abc
    for z in Z_SERIES + Z_REAL + Z_STALLED:
        _clear_tables()
        if warm:  # a farther point grows the table past what z needs
            hyp._maclaurin(a, b, c, complex(Z_SERIES[-1]))
        got = _outcome(hyp._maclaurin, a, b, c, complex(z))
        ref = _outcome(_reference_maclaurin, a, b, c, complex(z))
        assert isinstance(got, bytes) == (z not in Z_STALLED), f"z={z}"
        assert got == ref, f"z={z}"
    # a stall names the complex argument, as the complex loop does
    assert _outcome(hyp._maclaurin, a, b, c, 0.999 + 0.0j) == (
        "ValueError: 2F1 series stalled at z=(0.999+0j)"
    )


def test_maclaurin_after_a_stall_reads_a_full_table():
    _clear_tables()
    a, b, c = PARAM_SETS[0]
    for z in Z_STALLED:
        with pytest.raises(ValueError, match="stalled"):
            hyp._maclaurin(a, b, c, z)
    assert len(hyp._maclaurin_terms(a, b, c).rows) == hyp._SERIES_TERMS
    for z in Z_SERIES:
        assert hyp._maclaurin(a, b, c, complex(z)) == _reference_maclaurin(a, b, c, complex(z))


@pytest.mark.parametrize("abc", SERIES_SETS)
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_nondegenerate_connections_bit_identical(abc, warm):
    """The cached Gamma prefixes multiply in the per-point order."""
    a, b, c = abc
    if not hyp._near_int(c - a - b):
        for w in W_POINTS + W_REAL:
            _clear_tables()
            if warm:
                far = W_POINTS[-1]
                hyp._one_minus_z_nondegenerate(a, b, c, complex(far), _log_of(far))
            args = (a, b, c, complex(w), _log_of(w))
            got = _outcome(hyp._one_minus_z_nondegenerate, *args)
            assert got == _outcome(_reference_one_minus_z_nondegenerate, *args), f"w={w}"
    if not hyp._near_int(b - a):
        for t in T_POINTS + T_REAL:
            _clear_tables()
            if warm:
                far = T_POINTS[-1]
                hyp._inv_z_nondegenerate(a, b, c, complex(far), _log_of(-1.0 / far))
            args = (a, b, c, complex(t), _log_of(-1.0 / t))
            got = _outcome(hyp._inv_z_nondegenerate, *args)
            assert got == _outcome(_reference_inv_z_nondegenerate, *args), f"t={t}"


@pytest.mark.parametrize("abm", ONE_MINUS_Z_SETS)
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_one_minus_z_log_parts_bit_identical(abm, warm):
    a, b, m = abm
    for w in W_POINTS + W_REAL:
        _clear_tables()
        if warm:  # a farther point grows the table past what w needs
            far = W_POINTS[-1]
            hyp._one_minus_z_log_parts(a, b, m, complex(far), _log_of(far))
        args = (a, b, m, complex(w), _log_of(w))
        got = _outcome(hyp._one_minus_z_log_parts, *args)
        assert got == _outcome(_reference_one_minus_z_log_parts, *args), f"w={w}"


@pytest.mark.parametrize("acl", INV_Z_SETS)
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_inv_z_log_bit_identical(acl, warm):
    a, c, ell = acl
    for t in T_POINTS + T_REAL:
        _clear_tables()
        if warm:
            far = T_POINTS[-1]
            hyp._inv_z_log(a, c, ell, complex(far), _log_of(-1.0 / far))
        args = (a, c, ell, complex(t), _log_of(-1.0 / t))
        got = _outcome(hyp._inv_z_log, *args)
        assert got == _outcome(_reference_inv_z_log, *args), f"t={t}"


def test_integer_digammas_one_table_for_every_set():
    _clear_tables()
    keys = [(0.7, 1.1), (0.3, 0.45)]
    for a, b in keys:
        hyp._one_minus_z_log_parts(a, b, 1, complex(0.4), _log_of(0.4))
    tables = [hyp._one_minus_z_set(a, b, 1)[-1].rows for a, b in keys]
    # psi(k+1) and psi(k+2) for k below the longest table: psi(1..n+1), each once
    assert hyp._digamma_int.cache_info().currsize == max(map(len, tables)) + 1
    for rows in tables:
        assert [row[:2] for row in rows] == [
            (digamma(k + 1.0), digamma(k + 2.0)) for k in range(len(rows))
        ]


def test_tables_grow_only_as_far_as_a_series_reaches():
    _clear_tables()
    table = hyp._one_minus_z_set(0.5, 0.5, 1)[-1]
    hyp._one_minus_z_log_parts(0.5, 0.5, 1, 0.05 + 0j, cmath.log(0.05))
    near = len(table.rows)
    hyp._one_minus_z_log_parts(0.5, 0.5, 1, 0.7 + 0j, cmath.log(0.7))
    far = len(table.rows)
    assert 0 < near < far < 500
    table = hyp._maclaurin_terms(0.5, 0.5, 2.0)
    hyp._maclaurin(0.5, 0.5, 2.0, 0.05 + 0j)
    near = len(table.rows)
    hyp._maclaurin(0.5, 0.5, 2.0, 0.7 + 0j)
    far = len(table.rows)
    assert 0 < near < far < 500


def test_log_series_from_threads_bit_identical():
    """Threads that grow the cleared tables together still compute the
    reference loops' bits: a row is a pure function of its set and
    index, and a table is replaced, never appended to."""
    calls = [
        (series, (*abc, complex(z)))
        for abc in PARAM_SETS
        for z in Z_SERIES[::-1]
        for series in (hyp._maclaurin, _reference_maclaurin)
    ] + [
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
