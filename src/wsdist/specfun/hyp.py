"""Gauss hypergeometric function 2F1 with real parameters.

Holomorphic in the cut plane C \\ [1, inf); `hyp2f1` evaluates off the
cut, `hyp2f1_boundary` on [1, inf) as the limit from below, the one
convention of this package (the limit from above is its complex
conjugate for real parameters).  A parameter within _INT_SNAP = 1e-10
of an integer counts as that integer in every integrality check here.

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

Per-parameter operands: everything in a series that does not depend on
the argument is kept per parameter set, for the _SETS sets most recently
used of each kind (functools.lru_cache on the set).  The Maclaurin
series keeps the real factors (a+k)(b+k) and (c+k)(k+1) of its term
ratios; the logarithmic series keep a header, keyed on (a, b, m) for the
1-z series and (a, c, ell) for the 1/z series, with the Gamma constants
in front and the first term, and rows of digamma values and term-ratio
factors; the non-degenerate connection formulas keep their Gamma
products.  The digammas at integer arguments in those rows, psi(k+1),
psi(k+m+1) and psi(k+ell+1), come from one table (_digamma_int) that
every parameter set shares: the same function at the same float.  A
series reads its rows from a _Terms table that grows by one row each
time a series reaches past its end, so a row is computed only
when some series reaches its term: a term's digamma raises exactly where
the per-point loop would (and at no term it never reaches), and a set's
table holds at most the 500 terms one series can reach.  A table is
extended by publishing a longer tuple in one assignment, never by
appending to the published one, so a thread reads a prefix of the rows
with every row in place; rows are pure functions of the set and k, so
two threads that extend a table together compute the same bits.
Bit-identity rule: every output equals the per-point loop's to the last
bit.  The loops keep their left-to-right expressions (`logw - d1 - d2 +
d3 + d4`, `term * num / den * w`) and only their operands come from the
tables: folding the four digammas into one sum, num/den into one ratio,
or stepping psi by psi(x+1) = psi(x) + 1/x would each move last bits.
The Gamma products are cached only as the leading factors the
expressions already multiply first; t2 of the 1-z formula starts with
exp(m log w), so it reads its Gamma values one by one.  The stop tests
bound |acc| below by 1e-280 with a conditional expression, which keeps
max()'s NaN behaviour.

A real argument (z, w = 1-z or t = 1/z with imaginary part +-0, which
is all that the density kernels reach) runs the same recurrences
in float: term, and acc and the bracket too where the logarithm is real
as well.  The bits stay those of the complex loop because in CPython
3.10-3.13 complex (x) float promotes the float to complex(f, 0.0) and
multiplies or divides with _Py_c_prod/_Py_c_quot.  With one side's
imaginary part +-0, each real part reduces exactly to the float
operation (x*y - (+-0) is x*y; only an exactly zero product can differ,
in its sign, and a zero term ends a series) and each imaginary part
stays a signed zero; abs((x, +-0)) is hypot(x, 0) = |x| exactly (C99 F.9.4.3), so the
stop tests see the same numbers.  The complex loop's acc starts at
+0.0j and +0.0 + (-0.0) is +0.0, so its imaginary part is +0.0 at the
end, and the float path returns complex(acc), imaginary part +0.0.  Two
things stay complex: t**ell (float ** calls C pow, which rounds
differently from complex **'s repeated products) and abs(acc) wherever
acc is complex (math.hypot has its own algorithm, not libm's).  Python
3.14 multiplies a float into a complex without the promotion, as
(f*re, f*im): the real parts are the same float operations, so only the
sign of an exactly zero product could differ.  CI runs 3.10-3.13.
"""

import cmath
import functools
import math
from dataclasses import dataclass
from itertools import chain

from ..errors import CutError, DomainError, ParamError
from .gammafn import digamma, gamma

_SERIES_RADIUS = 0.75
_BOUNDARY_SPLIT = 1.6
_INT_SNAP = 1e-10
_SERIES_TERMS = 500  # the most terms a Maclaurin or logarithmic series sums
_SETS = 8  # parameter sets whose operands stay cached, per kind of series


@dataclass(frozen=True)
class HypParams:
    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and math.isfinite(self.c)):
            raise ParamError(f"a={self.a}, b={self.b}, c={self.c} must be finite")
        if _is_nonpos_int(self.c):
            raise ParamError(f"c={self.c} is a non-positive integer")


@dataclass(frozen=True)
class BranchPoint:
    x: float

    def __post_init__(self):
        if not self.x >= 1.0:  # a NaN fails it too
            raise DomainError(f"branch point x={self.x} must be >= 1")


def _is_nonpos_int(v):
    return v < 0.5 and abs(v - round(v)) < _INT_SNAP


def _near_int(v):
    return abs(v - round(v)) < _INT_SNAP


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


class _Terms:
    """The argument-free operands of one series at one parameter set:
    iterating yields row k = make(k) for k = 0, 1, ... up to
    _SERIES_TERMS, the stored rows first.  A row past the stored ones is
    made when an iteration reaches it and published with the rows before
    it as one new tuple, in one assignment."""

    __slots__ = ("rows", "make")

    def __init__(self, make):
        self.rows = ()
        self.make = make

    def __iter__(self):
        rows = self.rows
        return chain(rows, self._grow(rows))

    def _grow(self, rows):
        for k in range(len(rows), _SERIES_TERMS):
            rows = rows + (self.make(k),)
            self.rows = rows
            yield rows[k]


@functools.lru_cache(maxsize=None)
def _digamma_int(n):
    """digamma at the positive integer n, one table for every parameter
    set: the rows of the logarithmic series read psi(k+1), psi(k+m+1)
    and psi(k+ell+1) from it."""
    return digamma(float(n))


@functools.lru_cache(maxsize=_SETS)
def _maclaurin_terms(a, b, c):
    """Row k of the Maclaurin series at (a, b, c): (a+k)(b+k), (c+k)(k+1)."""
    return _Terms(lambda k: ((a + k) * (b + k), (c + k) * (k + 1.0)))


def _maclaurin(a, b, c, z):
    real = z.imag == 0.0  # a real z sums in float, to the same bits (Bit-identity rule)
    x = z.real if real else z
    term = acc = 1.0 if real else 1.0 + 0.0j
    for num, den in _maclaurin_terms(a, b, c):
        term = term * num / den * x
        acc += term
        r = abs(acc)
        if abs(term) < 1e-18 * (1e-280 if r < 1e-280 else r):
            return complex(acc)
    raise ValueError(f"2F1 series stalled at z={z}")


@functools.lru_cache(maxsize=_SETS)
def _one_minus_z_gammas(a, b, c):
    """Gamma operands of the non-degenerate 1-z connection at (a, b, c),
    m = c-a-b: t1's prefix Gamma(c) Gamma(m) / (Gamma(c-a) Gamma(c-b)),
    and t2's Gamma(c), Gamma(-m), 1/Gamma(a), 1/Gamma(b)."""
    m = c - a - b
    return (
        gamma(c) * gamma(m) * _rgamma(c - a) * _rgamma(c - b),
        gamma(c),
        gamma(-m),
        _rgamma(a),
        _rgamma(b),
    )


def _one_minus_z_nondegenerate(a, b, c, w, logw):
    m = c - a - b
    pre1, gc, g_neg_m, rga, rgb = _one_minus_z_gammas(a, b, c)
    t1 = pre1 * _maclaurin(a, b, 1.0 - m, w)
    t2 = (
        cmath.exp(m * logw)
        * gc
        * g_neg_m
        * rga
        * rgb
        * _maclaurin(c - a, c - b, 1.0 + m, w)
    )
    return t1 + t2


@functools.lru_cache(maxsize=_SETS)
def _one_minus_z_set(a, b, m):
    """Operands of the degenerate 1-z series at (a, b, m): coef (m > 0),
    pref, the first term and the _Terms whose row k holds psi(k+1),
    psi(k+m+1), psi(a+m+k), psi(b+m+k), (a+m+k)(b+m+k), (k+1)(k+m+1)."""
    gc = gamma(a + b + m)
    coef = gc * _rgamma(a + m) * _rgamma(b + m) if m > 0 else None
    sign = -1.0 if m % 2 == 0 else 1.0  # (-1)^(m+1)

    def row(k):
        return (
            _digamma_int(k + 1),
            _digamma_int(k + m + 1),
            digamma(a + m + k),
            digamma(b + m + k),
            (a + m + k) * (b + m + k),
            (k + 1.0) * (k + m + 1.0),
        )

    return (
        coef,
        sign * gc * _rgamma(a) * _rgamma(b),
        (1.0 + 0.0j) / math.factorial(m),
        _Terms(row),
    )


def _one_minus_z_log_parts(a, b, m, w, logw):
    """Degenerate 1-z connection, c = a + b + m with integer m >= 0:

        F(a, b; a+b+m; z) = FIN(w) + w^m * TAIL(w),   w = 1 - z,

    FIN a polynomial of degree m-1 (absent for m = 0) and TAIL the
    logarithmic series including all its prefactors.  Returned as the
    pair (FIN, TAIL) so callers can form F - F(1) without cancellation.
    """
    coef, pref, term0, terms = _one_minus_z_set(a, b, m)
    # a real w carries the terms in float, and with a real log the whole
    # series, to the same bits (Bit-identity rule)
    real = w.imag == 0.0
    real_log = real and logw.imag == 0.0
    if real:
        w, term0 = w.real, term0.real
    if real_log:
        logw = logw.real
    fin = 0.0 + 0.0j
    if m > 0:
        term = 1.0 if real else 1.0 + 0.0j
        acc = 0.0 if real else 0.0 + 0.0j
        for k in range(m):
            acc += term * math.factorial(m - k - 1)
            if k < m - 1:
                term = term * ((a + k) * (b + k)) / (k + 1.0) * (-w)
        fin = coef * complex(acc)

    term = term0
    acc = 0.0 if real_log else 0.0 + 0.0j
    for k, (psi_k, psi_km, psi_a, psi_b, num, den) in enumerate(terms):
        bracket = logw - psi_k - psi_km + psi_a + psi_b
        acc += term * bracket
        r = abs(acc)
        if abs(term) * (abs(bracket) + k + 10.0) < 1e-18 * (1e-280 if r < 1e-280 else r):
            break
        term = term * num / den * w
    return fin, pref * complex(acc)


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


@functools.lru_cache(maxsize=_SETS)
def _inv_z_gammas(a, b, c):
    """The Gamma prefixes of the two terms of the non-degenerate 1/z
    connection at (a, b, c), ell = b-a: Gamma(c) Gamma(ell) / (Gamma(b)
    Gamma(c-a)) and Gamma(c) Gamma(-ell) / (Gamma(a) Gamma(c-b))."""
    ell = b - a
    return (
        gamma(c) * gamma(ell) * _rgamma(b) * _rgamma(c - a),
        gamma(c) * gamma(-ell) * _rgamma(a) * _rgamma(c - b),
    )


def _inv_z_nondegenerate(a, b, c, t, lognegz):
    ell = b - a
    pre1, pre2 = _inv_z_gammas(a, b, c)
    t1 = pre1 * cmath.exp(-a * lognegz) * _maclaurin(a, a - c + 1.0, 1.0 - ell, t)
    t2 = pre2 * cmath.exp(-b * lognegz) * _maclaurin(b, b - c + 1.0, 1.0 + ell, t)
    return t1 + t2


@functools.lru_cache(maxsize=_SETS)
def _inv_z_set(a, c, ell):
    """Operands of the degenerate 1/z series at (a, c, ell): 1/Gamma(c-a-k)
    for k < ell, Gamma(a+ell) (ell > 0), Gamma(a), Gamma(c), the first
    term and the _Terms whose row k holds psi(k+1), psi(k+ell+1),
    psi(a+k+ell), 1/Gamma(q) and psi(q)/Gamma(q) at q = c-a-ell-k,
    a+ell+k and (k+1)(k+ell+1)."""

    def row(k):
        q = c - a - ell - k
        return (
            _digamma_int(k + 1),
            _digamma_int(k + ell + 1),
            digamma(a + k + ell),
            _rgamma(q),
            _psi_over_gamma(q),
            a + ell + k,
            (k + 1.0) * (k + ell + 1.0),
        )

    return (
        tuple(_rgamma(c - a - k) for k in range(ell)),
        gamma(a + ell) if ell > 0 else None,
        gamma(a),
        gamma(c),
        (1.0 + 0.0j) / math.factorial(ell),
        _Terms(row),
    )


def _inv_z_log(a, c, ell, t, lognegz):
    """Degenerate 1/z connection for F(a, a+ell; c; z), integer ell >= 0;
    t = 1/z.  Poles of psi(c-a-ell-k) are cancelled by 1/Gamma via the
    finite psi/Gamma limit."""
    fin_rgamma, gamma_a_ell, gamma_a, gamma_c, term0, terms = _inv_z_set(a, c, ell)
    # the recurrences' argument and log, in float where real, to the same
    # bits (Bit-identity rule); t**ell and the last line keep t and lognegz
    real = t.imag == 0.0
    real_log = real and lognegz.imag == 0.0
    x = t.real if real else t
    log_x = lognegz.real if real_log else lognegz
    if real:
        term0 = term0.real
    out = 0.0 + 0.0j
    if ell > 0:
        acc = 0.0 if real else 0.0 + 0.0j
        term = 1.0 if real else 1.0 + 0.0j
        for k in range(ell):
            acc += term * math.factorial(ell - k - 1) * fin_rgamma[k]
            if k < ell - 1:
                term = term * (a + k) / (k + 1.0) * x
        out += complex(acc) / gamma_a_ell
    acc = 0.0 if real_log else 0.0 + 0.0j
    term = term0
    for k, row in enumerate(terms):
        psi_k, psi_kl, psi_a, rgamma_q, psi_over_gamma_q, num, den = row
        bracket = (log_x + psi_k + psi_kl - psi_a) * rgamma_q - psi_over_gamma_q
        acc += term * bracket
        r = abs(acc)
        if abs(term) * (abs(bracket) + k + 10.0) < 1e-18 * (1e-280 if r < 1e-280 else r):
            break
        term = term * num / den * (-x)
    out += complex(acc) * (t**ell) / gamma_a
    return gamma_c * cmath.exp(-a * lognegz) * out


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


def hyp2f1(params, z):
    """2F1(a, b; c; z) for complex z off the cut [1, inf).

    Relative accuracy ~1e-12 in the series regions, ~1e-10 elsewhere.
    Raises CutError on the cut (use hyp2f1_boundary there); a
    terminating series is entire and is summed anywhere.
    """
    a, b, c = params.a, params.b, params.c
    z = complex(z)
    if cmath.isnan(z):
        raise DomainError(f"2F1 argument z={z} is NaN")
    if _is_nonpos_int(a) or _is_nonpos_int(b):
        return _polynomial(a, b, c, z)
    if z.imag == 0.0 and z.real >= 1.0:
        raise CutError(
            f"z={z} lies on the cut [1, inf); use hyp2f1_boundary"
        )
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
    """Boundary value of 2F1 on the cut x >= 1: the limit from below,
    lim_{d->0+} 2F1(x - i d).  The limit from above is its conjugate
    (real parameters).  At x = 1 this is the Gauss value, defined only
    for c - a - b > 0.
    """
    return _boundary_below(params.a, params.b, params.c, float(bp.x))
