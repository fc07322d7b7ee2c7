"""Bessel functions of the first (and, internally, second) kind.

Real order, positive real argument.  Three regimes:

* ascending series, accumulated in 80-bit floats so the alternating-sum
  cancellation stays below ~1e-13 up to x ~ 18;
* the Hankel asymptotic series for x > 15, the one K sums at large |w|
  (_hankel_sum): at w = -ix its sum is P + iQ.  It runs in bands of x
  whose edges grow by a ratio 1.25 from 15 on, and per order each band
  sums a fixed number of terms, the count its lower edge needs
  (_hankel_table); a band whose edge cannot reach 1e-12 is not served;
* Miller's backward recurrence, normalized with the Neumann identity
  (x/2)^a = sum_k w_k J_{a+2k}(x), for the x > 15 that the series does
  not serve (large order at moderate argument).

A point's route and term count follow from (nu, x) alone: no step of
the asymptotic series tests convergence.  The switch points were chosen
so neighbouring regimes overlap with agreement well below 1e-10; see
tests.

The order recurrence (_recur_up) is shared with K in besselk, which
climbs it the other way, and so are the Hankel series and its Horner
sum (_poly).
"""

import functools
import math

import numpy as np

from ..errors import DomainError
from .gammafn import EULER_GAMMA, gamma

_SERIES_MAX_X = 15.0
# bands of the Hankel series past the ascending series, |w| from each edge
# on up to the next (the last one open above), each summing a number of
# terms fixed per order
_HANKEL_RATIO = 1.25
_HANKEL_EDGES = tuple(_SERIES_MAX_X * _HANKEL_RATIO ** i for i in range(24))
_HANKEL_MAX_TERMS = 80  # coefficients per order; no band at |q| <= 50 sums over 40
MAX_ORDER_J = 50.0  # |nu| of J; also the nu range of OrderPair

_LD = np.longdouble


def _as_array(x, dtype):
    arr = np.asarray(x, dtype=dtype)
    return arr, (arr.ndim == 0)


def _max_abs(x):
    """Largest modulus in a long-double array, as a double: a stopping
    test needs no more."""
    return float(np.abs(x).max())  # the method skips np.max's dispatch


def _ascending(q, z):
    """sum_k z^k / (k! (q+1)_k), the series of J_q at z = -x^2/4 up to
    its prefactor, accumulated in long double like z; q not a negative
    integer.  The divisor (k+1)(q+k+1) is formed in long double as well:
    in double it is exact only for integer and half-integer q, and its
    rounding is amplified by the series' cancellation toward x = 15.

    It stops at the first term below 1e-26 of the largest |acc| with no
    pass over the arrays per term: z is real, so the largest term is the
    one at the largest |z|, and its modulus tmax is carried as a scalar;
    amax bounds the largest |acc| by its last reading plus the terms
    added since, and the arrays are read again only when tmax falls
    below 1e-26 of that bound."""
    term = np.ones_like(z)
    acc = term.copy()
    zmax = _max_abs(z)
    tmax = amax = 1.0  # the first term, and acc as it starts
    for k in range(200):
        term = term * z / ((_LD(k) + 1) * (_LD(q) + (k + 1)))
        acc += term
        tmax *= zmax / abs((k + 1) * (q + k + 1))
        amax += tmax
        if tmax < 1e-26 * amax:
            amax = max(_max_abs(acc), 1e-280)
            if tmax < 1e-26 * amax:
                break
    return acc


def _j_series(nu, x):
    """Ascending series of J_nu, 80-bit accumulation; x <= ~20, nu not
    a negative integer.  A value past the double range (large negative
    nu at tiny x) raises DomainError."""
    xl = x.astype(_LD)
    acc = _ascending(nu, -0.25 * xl * xl)
    pref = np.power(0.5 * xl, _LD(nu)) / _LD(gamma(nu + 1.0))
    with np.errstate(over="ignore"):  # reported below, as a DomainError
        out = (pref * acc).astype(float)
    if not np.isfinite(out).all():
        raise DomainError(f"J_{nu:g}(x) is outside the double range")
    return out


def _poly(coefs, z):
    """sum_i coefs[i] z^i by Horner's rule."""
    acc = np.full(z.shape, coefs[-1], dtype=complex)
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
    band = np.log(mag * (1.0 / _SERIES_MAX_X)) * (1.0 / math.log(_HANKEL_RATIO))
    return np.minimum(band.astype(np.intp), len(_HANKEL_EDGES) - 1)


def _hankel_sum(q, w):
    """sum_k a_k(q) w^-k over the first n terms, n the count of the band
    of |w| (_hankel_table), by Horner's rule in 1/w: a fixed-length sum
    fixed by the point alone.  Every |w| lies in a band served at order
    q, or every band sums the whole list, which holds at any w."""
    a, counts = _hankel_table(q)
    inv = 1.0 / w
    if counts.min() == len(a):  # a terminating list, summed whole
        return _poly(a, inv)
    n = counts[_hankel_band(np.abs(w))]
    out = np.empty_like(inv)
    for m in np.flatnonzero(np.bincount(n)):
        band = n == m
        out[band] = _poly(a[:m], inv[band])
    return out


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


def _miller(nu, x):
    """Backward recurrence for J_nu(x), nu >= 0, vectorized over x."""
    a0 = nu - math.floor(nu)
    m = int(round(nu - a0))
    xmax = float(np.max(x))
    top = max(xmax, nu)
    start = int(top + 17.0 * max(top, 1.0) ** (1.0 / 3.0) + 30)
    start = max(start, m + 12)
    if start % 2:
        start += 1

    # Neumann weights w_j for orders a0 + 2j, built without 0/0 at a0=0
    half = start // 2
    w = np.empty(half + 1)
    w[0] = gamma(a0 + 1.0)
    g = gamma(a0 + 1.0)  # Gamma(a0+j)/j! at j=1
    for j in range(1, half + 1):
        w[j] = (a0 + 2.0 * j) * g
        g = g * (a0 + j) / (j + 1.0)

    inv_x = 1.0 / x
    y_up = np.zeros_like(x)
    y_cur = np.full_like(x, 1e-290)
    s = np.zeros_like(x)
    y_target = np.zeros_like(x)
    for k in range(start, -1, -1):
        if k % 2 == 0:
            s = s + w[k // 2] * y_cur
        if k == m:
            y_target = y_cur.copy()
        y_dn = (2.0 * (a0 + k)) * inv_x * y_cur - y_up
        y_up = y_cur
        y_cur = y_dn
        big = np.abs(y_cur) > 1e250
        if np.any(big):
            scale = np.where(big, 1e-250, 1.0)
            y_cur *= scale
            y_up *= scale
            s *= scale
            y_target *= scale
    lam = np.power(0.5 * x, a0) / s
    return lam * y_target


def _log_sweep(z):
    """The four sums of the integer-order logarithmic series of Y_0 and
    Y_1 at z = -x^2/4, accumulated in long double like z:

        c0 = sum z^k / (k!)^2,
        s0 = sum H_k z^k / (k!)^2,
        c1 = sum z^k / (k! (k+1)!),
        s1 = sum [psi(k+1) + psi(k+2)] z^k / (k! (k+1)!).
    """
    gam = _LD(EULER_GAMMA)
    t0 = np.ones_like(z)
    c0 = np.ones_like(z)
    s0 = np.zeros_like(z)
    t1 = np.ones_like(z)
    c1 = np.ones_like(z)
    h = _LD(0.0)
    psi_a = -gam
    psi_b = _LD(1.0) - gam
    s1 = np.full_like(z, psi_a + psi_b)
    # max |t0| is zmax^k / (k!)^2, which bounds |t1| too: the stop needs no
    # pass over the arrays
    zmax = _max_abs(z)
    t0max = 1.0
    for k in range(1, 300):
        t0 = t0 * z / z.dtype.type(k * k)
        t0max *= zmax / (k * k)
        c0 += t0
        h += _LD(1.0) / _LD(k)
        s0 += t0 * h
        t1 = t1 * z / z.dtype.type(k * (k + 1))
        c1 += t1
        psi_a += _LD(1.0) / _LD(k)
        psi_b += _LD(1.0) / _LD(k + 1)
        s1 += t1 * (psi_a + psi_b)
        if t0max < 1e-26:
            break
    return c0, s0, c1, s1


def _y_int_base(x):
    """Y_0 and Y_1 by their logarithmic series (DLMF 10.8.1)."""
    xl = x.astype(_LD)
    j0, s0, j1, s1 = _log_sweep(-0.25 * xl * xl)
    lf = np.log(0.5 * xl)
    gam = _LD(EULER_GAMMA)
    two_over_pi = _LD(2.0 / math.pi)
    y0 = two_over_pi * ((lf + gam) * j0 - s0)
    j1_full = 0.5 * xl * j1
    y1 = (
        two_over_pi * lf * j1_full
        - two_over_pi / xl
        - (xl / (2.0 * math.pi)) * s1
    )
    return y0.astype(float), y1.astype(float)


def _bessel_y(nu, x):
    """Bessel Y_nu(x) for nu >= 0 (internal; used by tests and by the
    negative-order reflection for J)."""
    arr, scalar = _as_array(x, float)
    if np.any(arr <= 0.0):
        raise DomainError("bessel_y requires x > 0")
    out = np.empty_like(arr)
    small = arr <= _SERIES_MAX_X
    n_int = round(nu)
    is_int = abs(nu - n_int) < 1e-12

    if np.any(small):
        xs = arr[small]
        if is_int:
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                y0, y1 = _y_int_base(xs)
                ys = _recur_up(y0, y1, 0.0, n_int, xs, -1.0)
            if not np.isfinite(ys).all():
                raise DomainError(f"Y_{nu:g}(x) is outside the double range")
            out[small] = ys
        else:
            jp = _j_series(nu, xs)
            jm = _j_series(-nu, xs)
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
    to the envelope sqrt(2/(pi x)) near the zeros) around 1e-12.
    """
    if abs(nu) > MAX_ORDER_J:
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
    small = arr <= _SERIES_MAX_X
    if np.any(small):
        out[small] = _j_series(nu, arr[small])
    rest = ~small
    if np.any(rest):
        xr = arr[rest]
        counts = _hankel_table(nu)[1]
        series = counts[_hankel_band(xr)] > 0
        sub = np.empty_like(xr)
        sub[series] = _jy_asymptotic(nu, xr[series])[0]
        hard = ~series
        if np.any(hard):
            xh = xr[hard]
            if nu >= 0.0:
                sub[hard] = _miller(nu, xh)
            else:
                a = -nu
                jpos = _miller(a, xh)
                ypos = _bessel_y(a, xh)
                sub[hard] = jpos * math.cos(math.pi * a) - ypos * math.sin(
                    math.pi * a
                )
        out[rest] = sub
    return float(out[()]) if scalar else out
