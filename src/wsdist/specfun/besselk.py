"""Modified Bessel K of complex argument and the Hankel H1 identity.

K_mu(w) is assembled from a base pair at reduced order mu0 in [-1/2, 1/2]
plus the (upward stable) order recurrence, the loop Y also climbs
(besselj._recur_up).  The base pair comes from one of four methods,
chosen by where w sits:

* power series in 80-bit complex floats for |w| <= 2 (4 at integer
  order), and up to 14 at Re w < 0 -- the reflection combination
  (pi/2)(I_{-q} - I_q)/sin(q pi) for non-integer order, the explicit
  logarithmic series at integer order; both run the loops of J and Y
  (_ascending, _log_sweep).
* Steed's continued fraction CF2 with Temme's normalization (Temme,
  J. Comput. Phys. 19 (1975) 324; Thompson & Barnett, J. Comput. Phys.
  64 (1986) 490; the x >= 2 branch of Numerical Recipes' bessik) for
  the rest of 2 < |w| < 24 with Re w >= 0: no cancellation, at most 141
  steps (at |w| = 2, mu0 = 0; 73 past |w| = 4), and each point stops on
  its own test.
* the e^{-w} asymptotic series at a fixed 20 terms, summed by Horner's
  rule, for |w| >= 24 and Re w >= 0, where CF2 would still take 8-24
  steps of several times the work.
* the same series truncated at its smallest term for Re w < 0 and
  |w| > 14 (CF2 fails to converge near the negative axis); the loop of
  J and Y (besselj._hankel_sums).

Together they cover the plane off the cut (-inf, 0], more than the
public Re(w) > 0 contract; hankel1_complex exploits that to reach its
whole sector, including arg z in (-pi/2, 0] where -iz has Re <= 0.
"""

import math

import numpy as np

from ..errors import DomainError, NonConvergenceError
from .besselj import _as_array, _ascending, _hankel_sums, _log_sweep, _recur_up
from .gammafn import EULER_GAMMA, gamma

_K_SERIES_ALL = 2.0
# the integer-order logarithmic series divides by no sin(pi mu0): in
# 80-bit floats it keeps double accuracy out to |w| = 4, where CF2 would
# take 73-141 steps
_K_LOG_SERIES_ALL = 4.0
_K_SERIES_MAX = 14.0
# from |w| = 24 on, Re w >= 0, the first 20 terms of the asymptotic series
# leave a first neglected term below 1e-17 for every order |q| <= 3/2
_K_HORNER_MIN = 24.0
_K_HORNER_TERMS = 20
# points per CF2 block: below numpy's 256 KiB threshold for reusing a
# temporary in place, whose loops round differently, so a value does not
# depend on how many points share the call
_CF2_BLOCK = 4096
_CF2_MAX_STEPS = 300
MAX_ORDER_K = 10.0  # |mu| of K and H1; also the mu range of OrderPair

_CLD = np.clongdouble
_LD = np.longdouble


def _i_series_cld(q, w):
    """I_q(w) as clongdouble, w an ndarray off the cut, q real (not a
    negative integer)."""
    wl = w.astype(_CLD)
    acc = _ascending(q, 0.25 * wl * wl, _CLD(1.0 / gamma(q + 1.0)))
    pref = np.exp(_CLD(q) * np.log(0.5 * wl))
    return pref * acc


def _k_pair_series(mu0, w):
    """(K_mu0, K_mu0+1) by the reflection formula, or by the logarithmic
    series (DLMF 10.31.1) at integer order; |w| <= 16."""
    if abs(mu0) < 1e-10:  # snap to the integer-order series
        wl = w.astype(_CLD)
        i0, s0, i1sum, s1 = _log_sweep(0.25 * wl * wl)
        lw = np.log(0.5 * wl)
        k0 = -(lw + _LD(EULER_GAMMA)) * i0 + s0
        k1 = 1.0 / wl + lw * (0.5 * wl * i1sum) - 0.25 * wl * s1
        return k0.astype(complex), k1.astype(complex)
    out = []
    for q in (mu0, mu0 + 1.0):
        ip = _i_series_cld(q, w)
        im = _i_series_cld(-q, w)
        s = math.sin(math.pi * q)
        val = (0.5 * math.pi) * (im - ip) / _CLD(s)
        out.append(val.astype(complex))
    return out[0], out[1]


def _k_pair_cf2(mu0, w):
    """(K_mu0, K_mu0+1), |mu0| <= 1/2, |w| > 2, Re w >= 0: Steed's CF2 h
    gives K_mu0+1 / K_mu0 = (mu0 + 1/2 + w - (1/4 - mu0^2) h) / w and
    Temme's sum s gives K_mu0 = sqrt(pi/2w) e^-w / s (Numerical Recipes'
    bessik, x >= 2).

    Each point stops on its own |ds| < 1e-16 |s|; the points still
    running are carried compacted, and one still running after
    _CF2_MAX_STEPS raises NonConvergenceError.
    """
    a1 = 0.25 - mu0 * mu0
    k0 = np.empty(w.shape, dtype=complex)
    k1 = np.empty(w.shape, dtype=complex)
    for start in range(0, w.size, _CF2_BLOCK):
        block = slice(start, start + _CF2_BLOCK)
        wb = w[block]
        h_end = np.empty_like(wb)
        s_end = np.empty_like(wb)
        live = np.arange(wb.size)
        b = 2.0 * (1.0 + wb)
        h = dh = d = 1.0 / b
        q1, q2, q = np.zeros_like(b), np.ones_like(b), np.full_like(b, a1)
        a, c = -a1, a1
        s = 1.0 + q * dh
        for i in range(2, _CF2_MAX_STEPS):
            a -= 2.0 * (i - 1)
            c = -a * c / i
            q1, q2 = q2, (q1 - b * q2) / a
            q = q + c * q2
            b = b + 2.0
            d = 1.0 / (b + a * d)
            dh = (b * d - 1.0) * dh
            h = h + dh
            ds = q * dh
            s = s + ds
            done = np.abs(ds) < 1e-16 * np.abs(s)
            if done.any():
                h_end[live[done]] = h[done]
                s_end[live[done]] = s[done]
                keep = ~done
                if not keep.any():
                    break
                live, b, d, h, dh, q1, q2, q, s = (
                    v[keep] for v in (live, b, d, h, dh, q1, q2, q, s))
        else:
            raise NonConvergenceError(f"K_{mu0:g} CF2 did not converge at w={wb[live[0]]}")
        k0[block] = np.sqrt(0.5 * math.pi / wb) * np.exp(-wb) / s_end
        k1[block] = k0[block] * (mu0 + 0.5 + wb - a1 * h_end) / wb
    return k0, k1


def _asymptotic_coeffs(q):
    """a_k(q) = prod_{j<=k} (4q^2 - (2j-1)^2) / (k! 8^k) for k below
    _K_HORNER_TERMS, ending before the first zero (half-integer q)."""
    coeffs = [1.0]
    for k in range(1, _K_HORNER_TERMS):
        a = coeffs[-1] * (4.0 * q * q - (2 * k - 1) ** 2) / (8.0 * k)
        if a == 0.0:
            break
        coeffs.append(a)
    return coeffs


def _k_pair_horner(mu0, w):
    """(K_mu0, K_mu0+1), |w| >= _K_HORNER_MIN, Re w >= 0, by the
    asymptotic K_q(w) ~ sqrt(pi/2w) e^-w sum a_k/w^k at a fixed number
    of terms, summed by Horner's rule: a point's value is its own, and
    no step tests convergence."""
    pref = np.sqrt(0.5 * math.pi / w) * np.exp(-w)
    inv = 1.0 / w
    out = []
    for q in (mu0, mu0 + 1.0):
        coeffs = _asymptotic_coeffs(q)
        acc = np.full(w.shape, coeffs[-1], dtype=complex)
        for a in reversed(coeffs[:-1]):
            acc = acc * inv + a
        out.append(pref * acc)
    return out[0], out[1]


def _k_pair_asymptotic(mu0, w):
    """(K_mu0, K_mu0+1) by the asymptotic K_q(w) ~ sqrt(pi/2w) e^-w
    sum a_k/(8w)^k, adaptive truncation at the smallest term."""
    pref = np.sqrt(0.5 * math.pi / w) * np.exp(-w)
    inv8 = 1.0 / (8.0 * w)
    (acc0,), _ = _hankel_sums(mu0, inv8, ((0, 1.0),))
    (acc1,), _ = _hankel_sums(mu0 + 1.0, inv8, ((0, 1.0),))
    return pref * acc0, pref * acc1


def _k_core(mu, w):
    """K_mu on an ndarray of finite arguments off the cut; no Re(w)
    gate.  A value outside the double range raises DomainError."""
    mu = abs(float(mu))
    if mu > MAX_ORDER_K:
        raise DomainError(f"order |mu|={mu} outside supported range <= {MAX_ORDER_K:g}")
    n = int(round(mu))
    mu0 = mu - n  # in [-1/2, 1/2]

    out = np.empty(w.shape, dtype=complex)
    mag = np.abs(w)
    right = w.real >= 0.0
    horner = right & (mag >= _K_HORNER_MIN)
    # an order within the snap but off the integer keeps the small disc:
    # the series takes it as the integer (an error of order mu0)
    series_all = _K_LOG_SERIES_ALL if mu0 == 0.0 else _K_SERIES_ALL
    cf2 = right & (mag > series_all) & ~horner
    asymptotic = ~right & (mag > _K_SERIES_MAX)
    series = ~cf2 & ~horner & ~asymptotic
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, as a DomainError
        for mask, pair in ((series, _k_pair_series), (cf2, _k_pair_cf2),
                           (horner, _k_pair_horner), (asymptotic, _k_pair_asymptotic)):
            if mask.any():
                ws = w[mask]
                base0, base1 = pair(mu0, ws)
                out[mask] = _recur_up(base0, base1, mu0, n, ws, 1.0)
    if not np.isfinite(out).all():
        raise DomainError(f"K_{mu:g}(w) is outside the double range")
    return out


def bessel_k_complex(mu, w):
    """Modified Bessel function K_mu(w) for finite w with Re(w) > 0,
    |mu| <= 10.

    Scalar or ndarray w; relative error against 30-digit references
    about 3e-15 for |w| > 2 and 5e-15 for |w| <= 2 (and for |w| <= 4 at
    integer order), where orders within 1e-2 of an integer lose up to
    6e-13 (the series divides by sin(pi mu0)).
    """
    arr, scalar = _as_array(w, complex)
    if not np.isfinite(arr).all() or np.any(arr.real <= 0.0):
        raise DomainError("bessel_k_complex requires finite w with Re(w) > 0")
    out = _k_core(mu, arr)
    return complex(out[()]) if scalar else out


def hankel1_complex(mu, z):
    """Hankel function H^(1)_mu(z) = (2/(i pi)) e^{-i pi mu/2} K_mu(-iz).

    Valid for finite z on the sector -pi/2 < arg z <= pi; the boundary
    arg z = pi and the real axis go through the continuation of K across
    Re(w) = 0.  Relative accuracy as bessel_k_complex's for Im z >= 0.
    """
    arr, scalar = _as_array(z, complex)
    ang = np.angle(arr)
    if (
        not np.isfinite(arr).all()
        or np.any(arr == 0.0)
        or np.any(ang <= -0.5 * math.pi)
        or np.any(ang > math.pi + 1e-15)
    ):
        raise DomainError("hankel1_complex requires finite z, -pi/2 < arg z <= pi, z != 0")
    w = -1j * arr
    pref = (2.0 / (1j * math.pi)) * complex(
        math.cos(0.5 * math.pi * mu), -math.sin(0.5 * math.pi * mu)
    )
    # a named operand keeps numpy from reusing a large temporary in
    # place, whose loop rounds differently: values must not depend on
    # how many points share the call
    k = _k_core(mu, w)
    out = pref * k
    return complex(out[()]) if scalar else out
