"""Gauss hypergeometric function 2F1 with real parameters.

Holomorphic in the cut plane C \\ [1, inf); `hyp2f1` evaluates off the
cut, `hyp2f1_boundary` on [1, inf) as the limit from below (the
convention used throughout this package; the limit from above is the
complex conjugate for real parameters).

Evaluation plan, by region of z:

* terminating series whenever a or b is a non-positive integer,
* Maclaurin series for |z| <= 0.75,
* Pfaff transform z -> z/(z-1) when that argument is small,
* connection formulas in 1-z and 1/z otherwise; the degenerate cases
  (c-a-b respectively a-b integral) use the explicit logarithmic
  series, never parameter perturbation,
* Taylor continuation of the hypergeometric ODE along a ray for the
  lens around exp(+-i pi/3) that no series transform reaches.

Branch bookkeeping: fractional powers and logarithms are principal; the
boundary variant injects log(1-z) = ln|1-x| + i pi and log(-z) =
ln x + i pi, the limits of the principal branch from the lower half
plane.

Non-integer c-a-b or a-b closer than ~1e-6 to an integer loses digits
in the non-degenerate connection formulas (the usual near-degeneracy of
the 1-z / 1/z transforms); the parameter families this package feeds in
are exactly integral there and take the logarithmic forms.

Per-parameter tables: everything in the two logarithmic series that
does not depend on the argument -- the digamma values and term-ratio
factors of each term, the Gamma constants in front -- is computed once
per parameter set, keyed on (a, b, m) for the 1-z series and (a, c, ell)
for the 1/z series, and kept for the _TABLE_SETS most recently used
sets of each kind.  A table grows one term at a time, only as far as
some series has reached, so a term's digamma raises exactly where the
per-point loop would (and at no term it never reaches).  Bit-identity
rule: every
output equals the per-point loop's to the last bit.  The loops keep
their left-to-right expressions (`logw - d1 - d2 + d3 + d4`,
`term * num / den * w`) and only their operands come from the tables:
folding the four digammas into one sum, num/den into one ratio, or
stepping psi by psi(x+1) = psi(x) + 1/x would each move last bits.
"""

import cmath
import functools
import math
import threading
from array import array
from dataclasses import dataclass, field
from enum import Enum

from ..errors import CutError, DomainError, ParamError
from .gammafn import digamma, gamma

_SERIES_RADIUS = 0.75
_BOUNDARY_SPLIT = 1.6
_INT_SNAP = 1e-10
_MACLAURIN_TERMS = 500
_TABLE_SETS = 8  # parameter sets whose log-series tables stay cached


class BranchSide(Enum):
    FROM_BELOW = "from_below"
    FROM_ABOVE = "from_above"


@dataclass(frozen=True)
class HypParams:
    a: float
    b: float
    c: float

    def __post_init__(self):
        if _is_nonpos_int(self.c):
            raise ParamError(f"c={self.c} is a non-positive integer")


@dataclass(frozen=True)
class BranchPoint:
    x: float
    side: BranchSide = field(default=BranchSide.FROM_BELOW)

    def __post_init__(self):
        if self.x < 1.0:
            raise DomainError(f"branch point x={self.x} must be >= 1")


def _is_nonpos_int(v, snap=_INT_SNAP):
    return v < 0.5 and abs(v - round(v)) < snap


def _near_int(v, snap=_INT_SNAP):
    return abs(v - round(v)) < snap


def _rgamma(x):
    """1/Gamma(x), zero at the poles."""
    if _is_nonpos_int(x):
        return 0.0
    return 1.0 / gamma(x)


def _psi_over_gamma(x):
    """digamma(x)/Gamma(x); finite limit (-1)^(n+1) n! at x = -n."""
    if _is_nonpos_int(x):
        n = int(round(-x))
        f = float(math.factorial(n))
        return -f if n % 2 == 0 else f
    return digamma(x) / gamma(x)


def _polynomial(a, b, c, z):
    """Terminating series (a or b a non-positive integer); entire in z."""
    if not _is_nonpos_int(a):
        a, b = b, a
    n = int(round(-a))
    term = 1.0 + 0.0j
    acc = 1.0 + 0.0j
    for k in range(n):
        term = term * ((a + k) * (b + k)) / ((c + k) * (k + 1.0)) * z
        acc += term
    return acc


def _maclaurin(a, b, c, z):
    term = 1.0 + 0.0j
    acc = 1.0 + 0.0j
    for k in range(_MACLAURIN_TERMS):
        term = term * ((a + k) * (b + k)) / ((c + k) * (k + 1.0)) * z
        acc += term
        if abs(term) < 1e-18 * max(abs(acc), 1e-280):
            return acc
    raise ValueError(f"2F1 series stalled at z={z}")


def _one_minus_z_nondegenerate(a, b, c, w, logw):
    m = c - a - b
    t1 = (
        gamma(c)
        * gamma(m)
        * _rgamma(c - a)
        * _rgamma(c - b)
        * _maclaurin(a, b, 1.0 - m, w)
    )
    t2 = (
        cmath.exp(m * logw)
        * gamma(c)
        * gamma(-m)
        * _rgamma(a)
        * _rgamma(b)
        * _maclaurin(c - a, c - b, 1.0 + m, w)
    )
    return t1 + t2


class _SeriesTable:
    """The argument-independent operands of one logarithmic series.

    The factories below set the header constants as attributes.  The
    per-term operands are array('d') columns that `extend` grows one row
    (term) at a time, only as far as a series reaches, computing each
    row as `row(k)` and hence in the order the series would.  Rows are
    appended under a lock and published by bumping `rows` last, so a
    reader never indexes a half-written row.
    """

    def __init__(self, columns, row):
        self.columns = tuple(array("d") for _ in range(columns))
        self.rows = 0
        self._row = row
        self._lock = threading.Lock()

    def extend(self, k):
        with self._lock:
            while self.rows <= k:
                values = self._row(self.rows)
                for col, v in zip(self.columns, values):
                    col.append(v)
                self.rows += 1


@functools.lru_cache(maxsize=_TABLE_SETS)
def _one_minus_z_table(a, b, m):
    """Table of the degenerate 1-z series at (a, b, m): the header gc,
    coef (m > 0), pref, the first term, and per term k the columns
    psi(k+1), psi(k+m+1), psi(a+m+k), psi(b+m+k), (a+m+k)(b+m+k) and
    (k+1)(k+m+1)."""

    def row(k):
        return (
            digamma(k + 1.0),
            digamma(k + m + 1.0),
            digamma(a + m + k),
            digamma(b + m + k),
            (a + m + k) * (b + m + k),
            (k + 1.0) * (k + m + 1.0),
        )

    tab = _SeriesTable(6, row)
    gc = gamma(a + b + m)
    tab.coef = gc * _rgamma(a + m) * _rgamma(b + m) if m > 0 else None
    sign = -1.0 if m % 2 == 0 else 1.0  # (-1)^(m+1)
    tab.pref = sign * gc * _rgamma(a) * _rgamma(b)
    tab.term0 = (1.0 + 0.0j) / math.factorial(m)
    return tab


def _one_minus_z_log_parts(a, b, m, w, logw):
    """Degenerate 1-z connection, c = a + b + m with integer m >= 0:

        F(a, b; a+b+m; z) = FIN(w) + w^m * TAIL(w),   w = 1 - z,

    FIN a polynomial of degree m-1 (absent for m = 0) and TAIL the
    logarithmic series including all its prefactors.  Returned as the
    pair (FIN, TAIL) so callers can form F - F(1) without cancellation.
    """
    tab = _one_minus_z_table(a, b, m)
    fin = 0.0 + 0.0j
    if m > 0:
        term = 1.0 + 0.0j
        acc = 0.0 + 0.0j
        for k in range(m):
            acc += term * math.factorial(m - k - 1)
            if k < m - 1:
                term = term * ((a + k) * (b + k)) / (k + 1.0) * (-w)
        fin = tab.coef * acc

    psi_k, psi_km, psi_a, psi_b, num, den = tab.columns
    term = tab.term0
    acc = 0.0 + 0.0j
    for k in range(500):
        if k == tab.rows:
            tab.extend(k)
        bracket = logw - psi_k[k] - psi_km[k] + psi_a[k] + psi_b[k]
        acc += term * bracket
        if abs(term) * (abs(bracket) + k + 10.0) < 1e-18 * max(abs(acc), 1e-280):
            break
        term = term * num[k] / den[k] * w
    return fin, tab.pref * acc


def _one_minus_z(a, b, c, z, logw=None):
    w = 1.0 - z
    if logw is None:
        logw = cmath.log(w)
    m = c - a - b
    if _near_int(m):
        mi = int(round(m))
        if mi < 0:
            # Euler transform flips the degeneracy to -m > 0
            inner = _one_minus_z(c - a, c - b, c, z, logw)
            return cmath.exp(m * logw) * inner
        fin, tail = _one_minus_z_log_parts(a, b, mi, w, logw)
        wm = cmath.exp(mi * logw) if mi else 1.0
        return fin + wm * tail
    return _one_minus_z_nondegenerate(a, b, c, w, logw)


def _inv_z_nondegenerate(a, b, c, t, lognegz):
    ell = b - a
    t1 = (
        gamma(c)
        * gamma(ell)
        * _rgamma(b)
        * _rgamma(c - a)
        * cmath.exp(-a * lognegz)
        * _maclaurin(a, a - c + 1.0, 1.0 - ell, t)
    )
    t2 = (
        gamma(c)
        * gamma(-ell)
        * _rgamma(a)
        * _rgamma(c - b)
        * cmath.exp(-b * lognegz)
        * _maclaurin(b, b - c + 1.0, 1.0 + ell, t)
    )
    return t1 + t2


@functools.lru_cache(maxsize=_TABLE_SETS)
def _inv_z_table(a, c, ell):
    """Table of the degenerate 1/z series at (a, c, ell): the header
    1/Gamma(c-a-k) for k < ell, Gamma(a+ell) (ell > 0), Gamma(a),
    Gamma(c), the first term, and per term k the columns psi(k+1),
    psi(k+ell+1), psi(a+k+ell), 1/Gamma(q), psi(q)/Gamma(q) at
    q = c-a-ell-k, a+ell+k and (k+1)(k+ell+1)."""

    def row(k):
        q = c - a - ell - k
        return (
            digamma(k + 1.0),
            digamma(k + ell + 1.0),
            digamma(a + k + ell),
            _rgamma(q),
            _psi_over_gamma(q),
            a + ell + k,
            (k + 1.0) * (k + ell + 1.0),
        )

    tab = _SeriesTable(7, row)
    tab.fin_rgamma = array("d", (_rgamma(c - a - k) for k in range(ell)))
    tab.gamma_a_ell = gamma(a + ell) if ell > 0 else None
    tab.gamma_a = gamma(a)
    tab.gamma_c = gamma(c)
    tab.term0 = (1.0 + 0.0j) / math.factorial(ell)
    return tab


def _inv_z_log(a, c, ell, t, lognegz):
    """Degenerate 1/z connection for F(a, a+ell; c; z), integer ell >= 0;
    t = 1/z.  Poles of psi(c-a-ell-k) are cancelled by 1/Gamma via the
    finite psi/Gamma limit."""
    tab = _inv_z_table(a, c, ell)
    out = 0.0 + 0.0j
    if ell > 0:
        fin_rgamma = tab.fin_rgamma
        acc = 0.0 + 0.0j
        term = 1.0 + 0.0j
        for k in range(ell):
            acc += term * math.factorial(ell - k - 1) * fin_rgamma[k]
            if k < ell - 1:
                term = term * (a + k) / (k + 1.0) * t
        out += acc / tab.gamma_a_ell
    psi_k, psi_kl, psi_a, rgamma_q, psi_over_gamma_q, num, den = tab.columns
    acc = 0.0 + 0.0j
    term = tab.term0
    for k in range(500):
        if k == tab.rows:
            tab.extend(k)
        bracket = (
            lognegz + psi_k[k] + psi_kl[k] - psi_a[k]
        ) * rgamma_q[k] - psi_over_gamma_q[k]
        acc += term * bracket
        if abs(term) * (abs(bracket) + k + 10.0) < 1e-18 * max(abs(acc), 1e-280):
            break
        term = term * num[k] / den[k] * (-t)
    out += acc * (t**ell) / tab.gamma_a
    return tab.gamma_c * cmath.exp(-a * lognegz) * out


def _inv_z(a, b, c, z, lognegz=None):
    if lognegz is None:
        lognegz = cmath.log(-z)
    t = 1.0 / z
    ell = b - a
    if _near_int(ell):
        li = int(round(ell))
        if li < 0:
            a, b, li = b, a, -li
        return _inv_z_log(a, c, li, t, lognegz)
    return _inv_z_nondegenerate(a, b, c, t, lognegz)


def _derivative(a, b, c, z):
    return (a * b / c) * _maclaurin(a + 1.0, b + 1.0, c + 1.0, z)


def _ode_continuation(a, b, c, z):
    """Taylor-step the hypergeometric ODE from |z0| = 0.5 out to z.

    Used for the lens around exp(+-i pi/3); the radial path from
    0.5 z/|z| keeps a safe distance from both singularities there.
    """
    z0 = 0.5 * z / abs(z)
    f = _maclaurin(a, b, c, z0)
    fp = _derivative(a, b, c, z0)
    remaining = z - z0
    zc = z0
    for _ in range(64):
        dist = min(abs(zc), abs(zc - 1.0))
        step = 0.30 * dist
        if abs(remaining) <= step:
            h = remaining
        else:
            h = remaining / abs(remaining) * step
        # Taylor coefficients from the ODE recurrence around zc
        A = zc * (1.0 - zc)
        B = 1.0 - 2.0 * zc
        C = c - (a + b + 1.0) * zc
        coeffs = [f, fp]
        for n in range(0, 40):
            f_n = coeffs[n]
            f_n1 = coeffs[n + 1]
            num = -(B * n + C) * (n + 1.0) * f_n1 + (n + a) * (n + b) * f_n
            coeffs.append(num / (A * (n + 1.0) * (n + 2.0)))
            if abs(coeffs[-1] * h ** (n + 2)) < 1e-19 * max(abs(f), 1e-280) and n > 6:
                break
        newf = 0.0 + 0.0j
        newfp = 0.0 + 0.0j
        for n in range(len(coeffs) - 1, -1, -1):
            newfp = newfp * h + (coeffs[n + 1] * (n + 1.0) if n + 1 < len(coeffs) else 0.0)
            newf = newf * h + coeffs[n]
        f, fp = newf, newfp
        zc = zc + h
        remaining = z - zc
        if abs(remaining) == 0.0:
            return f
    raise ValueError(f"ODE continuation did not reach z={z}")


def _dispatch(a, b, c, z):
    if _is_nonpos_int(a) or _is_nonpos_int(b):
        return _polynomial(a, b, c, z)
    if abs(z) <= _SERIES_RADIUS:
        return _maclaurin(a, b, c, z)
    u = z / (z - 1.0)
    if abs(u) <= _SERIES_RADIUS:
        return (1.0 - z) ** (-a) * _maclaurin(a, c - b, c, u)
    if abs(1.0 - z) <= _SERIES_RADIUS:
        return _one_minus_z(a, b, c, z)
    if abs(z) >= 1.0 / _SERIES_RADIUS:
        return _inv_z(a, b, c, z)
    return _ode_continuation(a, b, c, z)


def hyp2f1(params, z):
    """2F1(a, b; c; z) for complex z off the cut [1, inf).

    Relative accuracy ~1e-12 in the series regions, ~1e-10 elsewhere.
    Raises CutError on the cut (use hyp2f1_boundary there).
    """
    z = complex(z)
    if z.imag == 0.0 and z.real >= 1.0:
        if _is_nonpos_int(params.a) or _is_nonpos_int(params.b):
            return _polynomial(params.a, params.b, params.c, z)
        raise CutError(
            f"z={z} lies on the cut [1, inf); use hyp2f1_boundary"
        )
    return _dispatch(params.a, params.b, params.c, z)


def _boundary_below(a, b, c, x):
    if _is_nonpos_int(a) or _is_nonpos_int(b):
        return _polynomial(a, b, c, complex(x))
    if x == 1.0:
        m = c - a - b
        if m <= 0.0:
            raise DomainError(
                f"2F1 diverges at z=1 for c-a-b={m} <= 0"
            )
        return complex(gamma(c) * _rgamma(c - a) * _rgamma(c - b) * gamma(m))
    if x < _BOUNDARY_SPLIT:
        w = 1.0 - x  # negative real
        logw = complex(math.log(-w), math.pi)
        return _one_minus_z(a, b, c, complex(x), logw)
    lognegz = complex(math.log(x), math.pi)
    return _inv_z(a, b, c, complex(x), lognegz)


def hyp2f1_boundary(params, bp):
    """Boundary value of 2F1 on the cut x >= 1.

    The default side FROM_BELOW realizes lim_{d->0+} 2F1(x - i d); the
    limit from above is its conjugate (real parameters).  At x = 1 this
    is the Gauss value, defined only for c - a - b > 0.
    """
    val = _boundary_below(params.a, params.b, params.c, float(bp.x))
    if bp.side is BranchSide.FROM_ABOVE:
        return val.conjugate()
    return val
