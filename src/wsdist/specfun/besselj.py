"""Bessel functions of the first (and, internally, second) kind.

Real order, positive real argument.  J takes three routes, all in
double precision:

* the ascending series at a fixed 40 terms, on x^2/4 <= |nu| + 1, where
  its terms do not cancel;
* the Hankel asymptotic series for x > 15, the one K sums at large |w|
  (_hankel_sum): at w = -ix its sum is P + iQ.  It runs in bands of x
  whose edges grow by a ratio 1.25 from 15 on, and per order each band
  sums a fixed number of terms, the count its lower edge needs
  (_hankel_table); a band whose edge cannot reach 1e-12 is not served;
* Miller's backward recurrence in the order, normalized with the
  Neumann identity (x/2)^a = sum_k w_k J_{a+2k}(x), for every other
  point: the rest of x <= 15, and the bands past it that the Hankel
  series does not serve (large order at moderate argument).  It starts
  at an order fixed by nu and the upper edge of the point's band, and at
  a negative order runs on below a, where J is the dominant solution.

A point's route and step count follow from (nu, x) alone, so its value
does not depend on its batch mates: no step of J tests convergence or
rescales.  Neighbouring routes agree to about 1e-14 across each switch;
see tests.

Y, a reference for H1 that only selftest and tests read, takes the
Hankel series and the upward order recurrence past x = 15.  Below it, at
integer order, it climbs the same recurrence from Y_0 and Y_1, which
Neumann's expansions in J_k give from one backward sweep of the ratios
J_k+1/J_k, started where Miller's recurrence starts for x <= 15 (_y01);
at non-integer order it is the reflection of J.  Every route is in
double precision.  The order recurrence (_recur_up) is shared with K in
besselk, which climbs it the other way, and so are the Hankel series and
its Horner sum (_poly).
"""

import functools
import math

import numpy as np

from ..errors import DomainError
from .gammafn import EULER_GAMMA, gamma

_HANKEL_MIN_X = 15.0  # J and Y take the Hankel series only past it
_SERIES_TERMS = 40  # J's ascending series: rounding level wherever it serves
# bands of the Hankel series from x = 15 on, |w| from each edge
# on up to the next (the last one open above), each summing a number of
# terms fixed per order
_HANKEL_RATIO = 1.25
_HANKEL_EDGES = tuple(_HANKEL_MIN_X * _HANKEL_RATIO ** i for i in range(24))
_HANKEL_MAX_TERMS = 80  # coefficients per order; no band at |q| <= 50 sums over 40
MAX_ORDER_J = 50.0  # |nu| of J; also the nu range of OrderPair


def _as_array(x, dtype):
    arr = np.asarray(x, dtype=dtype)
    return arr, (arr.ndim == 0)


@functools.lru_cache(maxsize=None)
def _series_coefs(q):
    """1 / (k! (q+1)_k) for k < _SERIES_TERMS, the coefficients of J_q's
    ascending series in z = -x^2/4; q not a negative integer."""
    c = [1.0]
    for k in range(1, _SERIES_TERMS):
        c.append(c[-1] / (k * (q + k)))
    return tuple(c)


def _j_series(nu, x):
    """Ascending series of J_nu (DLMF 10.2.2) at a fixed _SERIES_TERMS
    terms, nu not a negative integer.  It serves x^2/4 <= |nu| + 1, where
    its terms do not cancel; up to 1.1 times that edge in x it still
    agrees with Miller's recurrence to 1e-14.  A value past the double
    range (large negative nu at tiny x) raises DomainError."""
    acc = _poly(_series_coefs(nu), -0.25 * x * x)
    with np.errstate(over="ignore"):  # reported below, as a DomainError
        # (x/2)^nu in two halves: it may overflow where J, divided by a
        # Gamma(nu + 1) above 1 near a negative integer, does not
        half = np.power(0.5 * x, 0.5 * nu)
        out = half * (acc / gamma(nu + 1.0)) * half
    if not np.isfinite(out).all():
        raise DomainError(f"J_{nu:g}(x) is outside the double range")
    return out


def _poly(coefs, z):
    """sum_i coefs[i] z^i by Horner's rule."""
    acc = np.full(z.shape, coefs[-1], dtype=z.dtype)
    for c in coefs[-2::-1]:
        acc = acc * z + c
    return acc


@functools.lru_cache(maxsize=None)
def _hankel_table(q):
    """The Hankel asymptotic series K_q(w) ~ sqrt(pi/2w) e^-w sum_k a_k(q)
    w^-k (DLMF 10.40.2): its coefficients a_k(q) = prod_{j<=k} (4q^2 -
    (2j-1)^2) / (k! 8^k), ending before the first zero, and per band of
    |w| from _HANKEL_EDGES[i] on the number of terms it sums.

    At the band's lower edge x the terms a_k x^-k are summed up to the
    first one that grows or falls below 1e-17, which is left out; where
    that term is above 1e-12 the band is not served (count 0).  A list
    that terminates (half-integer q) before either is summed whole: at
    |q| = 1/2 and 3/2 in every band, where it is the closed form at any
    w.  At a larger x every term ratio is smaller, so the bands past a
    served one are served too."""
    a = [1.0]
    for k in range(1, _HANKEL_MAX_TERMS):
        c = a[-1] * (4.0 * q * q - (2 * k - 1) ** 2) / (8.0 * k)
        if c == 0.0:
            break
        a.append(c)
    counts = []
    for x in _HANKEL_EDGES:
        terms = [abs(c) / x ** k for k, c in enumerate(a)] + [0.0]  # 0: past the end
        n = next(k for k in range(1, len(terms)) if not 1e-17 <= terms[k] < terms[k - 1])
        counts.append(0 if terms[n] > 1e-12 else n)
    return tuple(a), np.array(counts)


def _hankel_band(mag):
    """The band of each |w| = mag >= _HANKEL_EDGES[0]: floor of the log of
    mag/15 to the base _HANKEL_RATIO (a binary search of the edges costs
    about ten times as much)."""
    band = np.log(mag * (1.0 / _HANKEL_MIN_X)) * (1.0 / math.log(_HANKEL_RATIO))
    return np.minimum(band.astype(np.intp), len(_HANKEL_EDGES) - 1)


def _hankel_sums(orders, w):
    """_hankel_sum at each q of orders, with 1/w and the band of each |w|
    formed once for all of them (the band only if some q needs it)."""
    inv = 1.0 / w
    bands = None
    sums = []
    for q in orders:
        a, counts = _hankel_table(q)
        if counts.min() == len(a):  # a terminating list, summed whole
            sums.append(_poly(a, inv))
            continue
        if bands is None:
            bands = _hankel_band(np.abs(w))
        n = counts[bands]
        out = np.empty_like(inv)
        for m in np.flatnonzero(np.bincount(n)):
            band = n == m
            out[band] = _poly(a[:m], inv[band])
        sums.append(out)
    return sums


def _hankel_sum(q, w):
    """sum_k a_k(q) w^-k over the first n terms, n the count of the band
    of |w| (_hankel_table), by Horner's rule in 1/w: a fixed-length sum
    fixed by the point alone.  Every |w| lies in a band served at order
    q, or every band sums the whole list, which holds at any w."""
    return _hankel_sums((q,), w)[0]


def _jy_asymptotic(nu, x):
    """J_nu and Y_nu by the Hankel series at w = -ix, every x in a band
    served at order nu: J + iY = sqrt(2/(pi x)) e^{i chi} (P + iQ), and
    the sum at w = -ix is P + iQ (DLMF 10.17.3)."""
    s = _hankel_sum(nu, -1j * x)
    p, q = s.real, s.imag
    chi = x - (0.5 * nu + 0.25) * math.pi
    amp = np.sqrt(2.0 / (math.pi * x))
    cos_chi = np.cos(chi)
    sin_chi = np.sin(chi)
    j = amp * (p * cos_chi - q * sin_chi)
    y = amp * (p * sin_chi + q * cos_chi)
    return j, y


def _miller_start(top):
    """The even order at which Miller's recurrence starts for orders and
    arguments up to top: 86 at top = 15, where J_86 is about 1e-55."""
    start = int(top + 17.0 * top ** (1.0 / 3.0) + 30)
    return start + start % 2


@functools.lru_cache(maxsize=64)
def _miller_weights(a0, start):
    """Neumann weights w_j of _miller's normalization for the orders
    a0 + 2j, j <= start / 2, built without 0/0 at a0 = 0; read-only, as
    every call shares them."""
    half = start // 2
    w = np.empty(half + 1)
    w[0] = gamma(a0 + 1.0)
    g = gamma(a0 + 1.0)  # Gamma(a0+j)/j! at j=1
    for j in range(1, half + 1):
        w[j] = (a0 + 2.0 * j) * g
        g = g * (a0 + j) / (j + 1.0)
    w.flags.writeable = False
    return w


def _miller(nu, x, edge):
    """J_nu(x) by Miller's backward recurrence in the order (Gautschi,
    SIAM Rev. 9 (1967) 24), normalized with the Neumann identity
    (x/2)^a0 = sum_k w_k J_{a0+2k}(x), a0 = nu - floor(nu).  It starts at
    an order fixed by nu and the upper edge of the points' band, so a
    point's value does not depend on its batch mates, from 1e-290 with
    no rescale: at |nu| <= 50 its values stay below 1e-159 (at nu = 0,
    x = 2).  At a negative nu it runs on below a0, the direction in which
    J is the dominant solution."""
    a0 = nu - math.floor(nu)
    m = int(round(nu - a0))
    start = _miller_start(max(edge, nu))
    w = _miller_weights(a0, start)

    inv_x = 1.0 / x
    y_up = np.zeros_like(x)
    y_cur = np.full_like(x, 1e-290)
    s = np.zeros_like(x)
    for k in range(start, min(m, 0) - 1, -1):  # y_cur: order a0 + k
        if k >= 0 and k % 2 == 0:
            s = s + w[k // 2] * y_cur
        if k == m:
            y_target = y_cur
        y_up, y_cur = y_cur, (2.0 * (a0 + k)) * inv_x * y_cur - y_up
    return np.power(0.5 * x, a0) / s * y_target


@functools.lru_cache(maxsize=None)
def _neumann_weights():
    """Row k: the weights of J_k in _y01's three sums (the normalization,
    S_0 and S_1; none below k = 2), shaped to broadcast over (3, points),
    up to the order _miller_start(15)."""
    w = np.zeros((_miller_start(_HANKEL_MIN_X) + 1, 3, 1))
    for k in range(2, w.shape[0]):
        j = k // 2
        if k % 2 == 0:
            w[k, :2, 0] = 2.0, (-1) ** j / j
        else:
            w[k, 2, 0] = (-1) ** j * k / (j * (j + 1))
    return w


def _y01(x):
    """Y_0 and Y_1 on 0 < x <= 15 by Neumann's expansions in J_k (A&S
    9.1.88-89):

        Y_0 = (2/pi)(ln(x/2) + gamma) J_0 - (4/pi) S_0,
        S_0 = sum_{j>=1} (-1)^j J_2j / j,
        Y_1 = -2 J_0/(pi x) + (2/pi)(ln(x/2) - 1 + gamma) J_1 - (2/pi) S_1,
        S_1 = sum_{j>=1} (-1)^j (2j+1) J_2j+1 / (j(j+1)),

    with J_0 from 1 = J_0 + 2 sum_{j>=1} J_2j.  One backward sweep of the
    ratios rho_k = J_k+1/J_k from 0 at J's start order for x <= 15
    (Miller's algorithm in ratio form, which stays finite down to x =
    1e-300) sums all three by Horner's rule, as multiples of J_1, in a
    fixed number of steps: a point's value does not depend on its batch
    mates."""
    w = _neumann_weights()
    inv_x = 1.0 / x
    rho = np.zeros_like(x)
    acc = np.zeros((3,) + x.shape)
    for k in range(w.shape[0] - 1, 0, -1):
        acc = w[k] + rho * acc
        rho = 1.0 / ((2.0 * k) * inv_x - rho)
    norm, s0, s1 = acc
    j0 = 1.0 / (1.0 + rho * norm)
    j1 = rho * j0
    log_term = np.log(0.5 * x) + EULER_GAMMA
    y0 = (2.0 / math.pi) * (log_term * j0 - 2.0 * j1 * s0)
    y1 = (2.0 / math.pi) * ((log_term - 1.0) * j1 - j0 * inv_x - j1 * s1)
    return y0, y1


def _bessel_y(nu, x):
    """Bessel Y_nu(x) for nu >= 0 (internal: a reference for H1 that
    selftest and tests read; J does not use it).  On x <= 15 at integer
    order it climbs the order recurrence from _y01's Y_0 and Y_1, within
    about 2e-15 of Y (relative to max(|Y|, sqrt(2/(pi x)))) from x =
    1e-300 on; a value past the double range raises DomainError.  On x <=
    15 at a non-integer order it is the reflection (J_nu cos(nu pi) -
    J_-nu) / sin(nu pi) of J, so near an integer order it loses about
    1e-16/|sin(pi nu)|; no caller reads it there."""
    arr, scalar = _as_array(x, float)
    if np.any(arr <= 0.0):
        raise DomainError("bessel_y requires x > 0")
    out = np.empty_like(arr)
    small = arr <= _HANKEL_MIN_X
    n_int = round(nu)
    is_int = abs(nu - n_int) < 1e-12

    if np.any(small):
        xs = arr[small]
        if is_int:
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                y0, y1 = _y01(xs)
                ys = _recur_up(y0, y1, 0.0, n_int, xs, -1.0)
            if not np.isfinite(ys).all():
                raise DomainError(f"Y_{nu:g}(x) is outside the double range")
            out[small] = ys
        else:
            jp = bessel_j(nu, xs)
            jm = bessel_j(-nu, xs)
            out[small] = (jp * math.cos(math.pi * nu) - jm) / math.sin(math.pi * nu)
    if np.any(~small):
        xl = arr[~small]
        a0 = nu - math.floor(nu)
        # orders below 2: the Hankel series serves every x > 15
        _, ybase0 = _jy_asymptotic(a0, xl)
        _, ybase1 = _jy_asymptotic(a0 + 1.0, xl)
        steps = int(round(nu - a0))
        out[~small] = _recur_up(ybase0, ybase1, a0, steps, xl, -1.0)
    return float(out[()]) if scalar else out


def _recur_up(f0, f1, a0, steps, x, sign):
    """Climb f_{a0} .. f_{a0+steps} with the three-term order recurrence
    f_{n+1} = (2n/x) f_n + sign f_{n-1}: sign -1 for Y, +1 for K (the
    direction in which each is stable)."""
    if steps == 0:
        return f0
    prev, cur = f0, f1
    for k in range(1, steps):
        prev, cur = cur, (2.0 * (a0 + k)) / x * cur + sign * prev
    return cur


def bessel_j(nu, x):
    """Bessel function of the first kind, real order, x > 0.

    Scalar or ndarray x; |nu| <= 50.  Relative accuracy (with respect
    to the envelope sqrt(2/(pi x)) near the zeros) about 1e-14 on x <= 20
    and within 2e-13 past it; at a negative order near an integer n > x,
    where J_nu - (-1)^n J_n is a small multiple of Y_n, up to about
    1e-15/|sin(pi nu)|.
    """
    if not abs(nu) <= MAX_ORDER_J:  # a NaN fails it too
        raise DomainError(f"order |nu|={abs(nu)} outside supported range <= {MAX_ORDER_J:g}")
    arr, scalar = _as_array(x, float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("bessel_j requires finite x > 0")

    if nu < 0.0:
        n_int = round(nu)
        if abs(nu - n_int) < 1e-12:
            res = bessel_j(-float(n_int), arr)  # |n|
            if n_int % 2:
                res = -res
            return float(res) if scalar else res

    out = np.empty_like(arr)
    series = arr <= 2.0 * math.sqrt(abs(nu) + 1.0)  # x^2/4 <= |nu| + 1
    out[series] = _j_series(nu, arr[series])
    xr = arr[~series]
    # the band of each x past 15, -1 for the others: band i ends at
    # _HANKEL_EDGES[i + 1], and 15 ends band -1
    band = np.where(xr > _HANKEL_MIN_X, _hankel_band(xr), -1)
    served = (band >= 0) & (_hankel_table(nu)[1][band] > 0)
    sub = np.empty_like(xr)
    sub[served] = _jy_asymptotic(nu, xr[served])[0]
    for i in np.unique(band[~served]):
        pts = band == i
        sub[pts] = _miller(nu, xr[pts], _HANKEL_EDGES[i + 1])
    out[~series] = sub
    return float(out[()]) if scalar else out
