"""Bessel functions of the first (and, internally, second) kind.

Real order, positive real argument.  Three regimes:

* ascending series, accumulated in 80-bit floats so the alternating-sum
  cancellation stays below ~1e-13 up to x ~ 18;
* Hankel asymptotic expansion for large x, truncated adaptively at the
  smallest term, accepted only when that term is small enough;
* Miller's backward recurrence, normalized with the Neumann identity
  (x/2)^a = sum_k w_k J_{a+2k}(x), for whatever the first two regimes
  do not cover (large order at moderate-to-large argument).

The switch points were chosen so neighbouring regimes overlap with
agreement well below 1e-10; see tests.

The four loops shared with the modified functions in besselk live
here: the ascending series (_ascending: J at z = -x^2/4, I at
z = +w^2/4), the integer-order logarithmic series (_log_sweep: Y_0, Y_1
or K_0, K_1 by the sign of z), the Hankel asymptotic series
(_hankel_sums: the P and Q sums of J and Y, the one sum of K) and the
order recurrence (_recur_up).
"""

import math

import numpy as np

from ..errors import DomainError
from .gammafn import EULER_GAMMA, gamma

_SERIES_MAX_X = 15.0
MAX_ORDER_J = 50.0  # |nu| of J; also the nu range of OrderPair

_LD = np.longdouble


def _as_array(x, dtype):
    arr = np.asarray(x, dtype=dtype)
    return arr, (arr.ndim == 0)


def _max_abs(x):
    """Largest modulus in a long-double array, taken in double: the
    80-bit complex hypot costs more than a whole series step, a real
    array needs none, and a stopping test needs no more."""
    if x.dtype.kind == "c":
        x = x.astype(complex)
    return float(np.abs(x).max())  # the method skips np.max's dispatch


def _ascending(q, z, first):
    """sum_k first z^k / (k! (q+1)_k), accumulated in the 80-bit dtype
    of z (longdouble or clongdouble); q not a negative integer.

    With z = -x^2/4 this is the series of J_q, with z = +w^2/4 that of
    I_q, each up to its prefactor."""
    term = np.full(z.shape, first, dtype=z.dtype)
    acc = term.copy()
    for k in range(200):
        term = term * z / z.dtype.type((k + 1.0) * (q + k + 1.0))
        acc += term
        if _max_abs(term) < 1e-26 * max(_max_abs(acc), 1e-280):
            break
    return acc


def _j_series(nu, x):
    """Ascending series of J_nu, 80-bit accumulation; x <= ~20, nu not
    a negative integer.  A value past the double range (large negative
    nu at tiny x) raises DomainError."""
    xl = x.astype(_LD)
    acc = _ascending(nu, -0.25 * xl * xl, 1.0)
    pref = np.power(0.5 * xl, _LD(nu)) / _LD(gamma(nu + 1.0))
    with np.errstate(over="ignore"):  # reported below, as a DomainError
        out = (pref * acc).astype(float)
    if not np.isfinite(out).all():
        raise DomainError(f"J_{nu:g}(x) is outside the double range")
    return out


def _hankel_sums(q, inv8, cycle):
    """The Hankel asymptotic series of order q (DLMF 10.17.3, 10.40.2):
    term k is prod_{j<k} (4q^2 - (2j+1)^2) inv8 / (j+1), term 0 is 1.

    Term k goes, with its sign, into the sum that cycle[k % len(cycle)]
    = (index, sign) names; term 0 is (0, +1).  Each element adds terms
    until its own term magnitude starts to grow (optimal truncation) or
    drops below 1e-17; its bound is the first omitted term.  Returns the
    sums and the bound (relative to 1).
    """
    mu = 4.0 * q * q
    sums = [np.ones_like(inv8)]  # term 0
    sums += [np.zeros_like(inv8) for _ in range(max(i for i, _ in cycle))]
    term = np.ones_like(inv8)
    prev_mag = np.full(inv8.shape, np.inf)
    bound = np.full(inv8.shape, np.inf)
    active = np.ones(inv8.shape, dtype=bool)
    # the masked updates below work in place, without temporaries
    for k in range(80):
        term = term * ((mu - (2 * k + 1) ** 2) * inv8 / (k + 1.0))
        mag = np.abs(term)
        grown = active & (mag >= prev_mag)
        np.copyto(bound, mag, where=grown)
        active &= ~grown
        if not active.any():
            break
        i, sign = cycle[(k + 1) % len(cycle)]
        (np.add if sign > 0 else np.subtract)(sums[i], term, out=sums[i], where=active)
        tiny = active & (mag < 1e-17)
        np.copyto(bound, mag, where=tiny)
        active &= ~tiny
        if not active.any():
            break
        np.copyto(prev_mag, mag, where=active)
    bound = np.where(np.isinf(bound), np.abs(term), bound)
    return sums, bound


# the series at w = -ix splits by i^k into P (even k) and Q (odd k),
# with signs + + - - + + - - ...
_PQ_CYCLE = ((0, 1.0), (1, 1.0), (0, -1.0), (1, -1.0))


def _jy_asymptotic(nu, x):
    """Hankel expansion J, Y and a bound on the truncation error of the
    modulus functions (relative to 1)."""
    (p, q), bound = _hankel_sums(nu, 1.0 / (8.0 * x), _PQ_CYCLE)
    chi = x - (0.5 * nu + 0.25) * math.pi
    amp = np.sqrt(2.0 / (math.pi * x))
    cos_chi = np.cos(chi)
    sin_chi = np.sin(chi)
    j = amp * (p * cos_chi - q * sin_chi)
    y = amp * (p * sin_chi + q * cos_chi)
    return j, y, bound


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
    """The four sums of the integer-order logarithmic series at
    z = -x^2/4 (Y_0, Y_1) or z = +w^2/4 (K_0, K_1), accumulated in the
    80-bit dtype of z:

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
        _, ybase0, b0 = _jy_asymptotic(a0, xl)
        _, ybase1, b1 = _jy_asymptotic(a0 + 1.0, xl)
        if float(np.max(b0)) > 1e-11 or float(np.max(b1)) > 1e-11:
            raise DomainError("bessel_y asymptotic base failed; x too small")
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
        ja, _, bound = _jy_asymptotic(nu, xr)
        ok = bound <= 1e-12
        sub = np.empty_like(xr)
        sub[ok] = ja[ok]
        hard = ~ok
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
