"""Modified Bessel K of complex argument and the Hankel H1 identity.

K_mu(w) is assembled from a base pair at reduced order mu0 in [-1/2, 1/2)
plus the (upward stable) order recurrence, the loop Y also climbs
(besselj._recur_up).  The base pair comes from whichever of three
methods is reliable where w sits:

* power series in 80-bit complex floats -- the reflection combination
  (pi/2)(I_{-q} - I_q)/sin(q pi) for non-integer order, the explicit
  logarithmic series at integer order; both run the loops of J and Y
  (besselj._ascending, besselj._log_sweep).  The series cancellation
  grows like e^{Re w}, so this is the everywhere method only for
  |w| <= 2; up to |w| <= 14 it is used in the near-axis sector
  Re w < 0.22 |w|, which is exactly where the other methods degrade
  and where the cancellation stays bounded.
* the real-line integral representation int_0^inf e^{-w cosh t}
  cosh(q t) dt on composite Gauss grids, each shared by a run of
  similar points, for the interior sector of 2 < |w| <= 14 (positive
  kernel, no cancellation; node count follows the oscillation budget
  |Im w| / Re w).
* the e^{-w} asymptotic series truncated at its smallest term for
  |w| > 14, any argument in range; the loop of J and Y
  (besselj._hankel_sums).

All pieces are valid off the cut (-inf, 0], which is more than the
public Re(w) > 0 contract; hankel1_complex exploits that to reach its
whole sector, including arg z in (-pi/2, 0] where -iz has Re <= 0.
"""

import math

import numpy as np

from ..errors import DomainError
from .besselj import _as_array, _ascending, _hankel_sums, _log_sweep, _recur_up
from .gammafn import EULER_GAMMA, gamma

_K_SERIES_ALL = 2.0
_K_SERIES_MAX = 14.0
_K_SECTOR = 0.22  # narrower for near-integer orders, see _k_core
_K_GROUP = 64  # points per grid of the integral representation
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


def _k_pair_series_noninteger(mu0, w):
    """(K_mu0, K_mu0+1) by the reflection formula, |w| <= 16."""
    out = []
    for q in (mu0, mu0 + 1.0):
        ip = _i_series_cld(q, w)
        im = _i_series_cld(-q, w)
        s = math.sin(math.pi * q)
        val = (0.5 * math.pi) * (im - ip) / _CLD(s)
        out.append(val.astype(complex))
    return out[0], out[1]


def _k_pair_series_integer(w):
    """(K_0, K_1) by the logarithmic series (DLMF 10.31.1), |w| <= 16."""
    wl = w.astype(_CLD)
    i0, s0, i1sum, s1 = _log_sweep(0.25 * wl * wl)
    lw = np.log(0.5 * wl)
    gam = _LD(EULER_GAMMA)
    k0 = -(lw + gam) * i0 + s0
    i1 = 0.5 * wl * i1sum
    k1 = 1.0 / wl + lw * i1 - 0.25 * wl * s1
    return k0.astype(complex), k1.astype(complex)


def _k_pair_integral(mu0, w):
    """(K_mu0, K_mu0+1) by quadrature of e^{-w cosh t} cosh(q t) on
    composite Gauss grids; requires Re(w) comfortably positive
    (interior sector).

    A grid reaches t_max where Re(w) (cosh t - 1) = 48 and spends its
    panels on the phase |Im w| (cosh t_max - 1) = 48 |Im w| / Re(w).
    Each run of at most _K_GROUP points shares the grid of its smallest
    Re(w) and largest |Im w|, so a point's grid follows its neighbours,
    not the whole batch, and the kernel matrix stays _K_GROUP rows
    tall.  Neighbours are points whose own panel counts lie in the same
    octave, sorted by Re(w): the group's phase then exceeds a member's
    own by at most a factor 2 and the spread of Re(w) within the run.
    """
    nodes, weights = np.polynomial.legendre.leggauss(30)
    re, im = w.real, np.abs(w.imag)
    own_panels = np.maximum(14, (0.8 * 48.0 / math.pi * im / re).astype(int) + 14)
    order = np.lexsort((re, np.frexp(own_panels)[1]))
    out = np.empty((w.size, 2), dtype=complex)
    for start in range(0, w.size, _K_GROUP):
        group = order[start:start + _K_GROUP]
        t_max = math.acosh(1.0 + 48.0 / float(np.min(re[group])))
        phase = float(np.max(im[group])) * (math.cosh(t_max) - 1.0)
        n_panels = max(14, int(0.8 * phase / math.pi) + 14)
        edges = np.linspace(0.0, t_max, n_panels + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        ts = (mids[:, None] + half * nodes[None, :]).ravel()
        ws_q = np.tile(weights, n_panels) * half
        # both orders in one contraction: columns cosh(q t) dt, q = mu0, mu0+1
        wq = np.stack((ws_q * np.cosh(mu0 * ts), ws_q * np.cosh((mu0 + 1.0) * ts)), axis=1)
        kernel = np.exp(-w[group, None] * np.cosh(ts)[None, :])
        # real products: numpy's complex-by-real matmul is ~10x slower
        out[group] = kernel.real @ wq + 1j * (kernel.imag @ wq)
    return out[:, 0], out[:, 1]


def _k_asymptotic(q, w):
    """Asymptotic K_q(w) ~ sqrt(pi/2w) e^-w sum a_k/(8w)^k, adaptive
    truncation at the smallest term."""
    (acc,), _ = _hankel_sums(q, 1.0 / (8.0 * w), ((0, 1.0),))
    pref = np.sqrt(0.5 * math.pi / w) * np.exp(-w)
    return pref * acc


def _k_core(mu, w):
    """K_mu on an ndarray of arguments off the cut; no Re(w) gate."""
    mu = abs(float(mu))
    if mu > MAX_ORDER_K:
        raise DomainError(f"order |mu|={mu} outside supported range <= {MAX_ORDER_K:g}")
    n = int(round(mu))
    mu0 = mu - n  # in [-1/2, 1/2)

    out = np.empty(w.shape, dtype=complex)
    mag = np.abs(w)
    # the reflection series divides by sin(pi*mu0): the closer mu0 sits
    # to an integer, the less Re(w)-driven cancellation it can absorb,
    # so shrink its sector and let the integral representation take over
    if abs(mu0) < 1e-10 or abs(mu0) >= 0.35:
        sector = _K_SECTOR
    elif abs(mu0) >= 0.01:
        sector = 0.10
    else:
        sector = 0.02
    big = mag > _K_SERIES_MAX
    interior = ~big & (mag > _K_SERIES_ALL) & (w.real >= sector * mag)
    series = ~big & ~interior
    for mask, method in ((series, "series"), (interior, "integral"), (big, "asymp")):
        if not np.any(mask):
            continue
        ws = w[mask]
        if method == "series":
            if abs(mu0) < 1e-10:
                # snap to the integer-order logarithmic series
                base0, base1 = _k_pair_series_integer(ws)
            else:
                base0, base1 = _k_pair_series_noninteger(mu0, ws)
        elif method == "integral":
            base0, base1 = _k_pair_integral(mu0, ws)
        else:
            base0 = _k_asymptotic(mu0, ws)
            base1 = _k_asymptotic(mu0 + 1.0, ws)
        out[mask] = _recur_up(base0, base1, mu0, n, ws, 1.0)
    return out


def bessel_k_complex(mu, w):
    """Modified Bessel function K_mu(w) for Re(w) > 0, |mu| <= 10.

    Scalar or ndarray w; relative accuracy around 1e-12 away from the
    imaginary axis, slightly looser on it.
    """
    arr, scalar = _as_array(w, complex)
    if np.any(arr.real <= 0.0):
        raise DomainError("bessel_k_complex requires Re(w) > 0")
    out = _k_core(mu, arr)
    return complex(out[()]) if scalar else out


def hankel1_complex(mu, z):
    """Hankel function H^(1)_mu(z) = (2/(i pi)) e^{-i pi mu/2} K_mu(-iz).

    Valid on the sector -pi/2 < arg z <= pi; the boundary arg z = pi and
    the real axis go through the continuation of K across Re(w) = 0.
    """
    arr, scalar = _as_array(z, complex)
    ang = np.angle(arr)
    if (
        np.any(arr == 0.0)
        or np.any(ang <= -0.5 * math.pi)
        or np.any(ang > math.pi + 1e-15)
    ):
        raise DomainError("hankel1_complex requires -pi/2 < arg z <= pi, z != 0")
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
