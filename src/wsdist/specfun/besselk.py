"""Modified Bessel K of complex argument and the Hankel H1 identity.

K_mu(w) for Re w >= 0, w != 0, is assembled from a base pair at reduced
order mu0 in [-1/2, 1/2] plus the (upward stable) order recurrence, the
loop Y also climbs (besselj._recur_up); below |mu| = 3/2 the recurrence
reads one member of the pair, and only that one is formed.  Everything
runs in double precision; the base pair comes from one of three routes,
chosen by where w sits, at every order:

* Temme's series (Temme, J. Comput. Phys. 19 (1975) 324; the x < 2
  branch of Numerical Recipes' bessik; Amos's ZBKNU, ACM TOMS 12 (1986)
  265, uses it for |z| <= 2) on |w| + Re w <= 4, at a fixed 16 terms,
  as polynomials in w^2/4 whose coefficients depend on mu0 alone.
  Its cancellation costs about e^{|w| + Re w}, so the region loses no
  more than the disc |w| <= 2 does, and it reaches |w| = 4 along the
  imaginary axis, near which the oracle's w = eps k - i s k lie.
  1/Gamma(1 +- mu0) and the difference quotient gamma_1 come from the
  Taylor series of 1/Gamma(1 + x), so no order near an integer loses
  digits.
* Taylor series about the nearest node w0 of the lattice (Z + iZ)/2 for
  the rest of |w| < 24, at a fixed 22 terms: |w - w0| <= 0.36 and
  |w0| >= 2.  The nodes' coefficients come from the Bessel ODE, started
  from the base pair at w0 by Steed's continued fraction CF2 with
  Temme's normalization (Temme, loc. cit.; Thompson & Barnett,
  J. Comput. Phys. 64 (1986) 490; the x >= 2 branch of bessik) at a
  fixed 150 steps: each point of a call costs a Horner sum, and each
  node one CF2 per process, not per call.  The base pairs of the nodes
  met so far are kept in a table per mu0 (_lattice_pairs), for the
  _PAIR_SETS orders most recently used.
* the e^{-w} asymptotic series for |w| >= 24, the one J and Y sum at
  w = -ix (besselj._hankel_sum), by Horner's rule at the term count the
  order fixes for the band of |w| (edges a ratio 1.25 apart from 15 on:
  at order 0, 21 terms from |w| = 23.4 on, 13 from 45.8, 5 from 2033).
  At half-integer order (|mu0| = 1/2) it terminates, as sqrt(pi/2w)
  e^{-w} at q = +-1/2 and that times (1 + 1/w) at q = 3/2, so it is the
  closed form and serves all of Re w >= 0.

Every route is a fixed-length sum fixed by the point alone: no step
tests convergence, and no point's value depends on the other points of
the call.  hankel1_complex needs exactly this half-plane: its sector
0 <= arg z <= pi is Re(-iz) >= 0.
"""

import functools
import math

import numpy as np

from ..errors import DomainError
from .besselj import _as_array, _hankel_sums, _poly, _recur_up
from .memo import Memo

# Temme's series on |w| + Re w <= 4: its terms fall like 4^i/(i!)^2, and
# the first one left out after 16 is below 1e-17 of the sum everywhere
# there, at every |mu0| < 1/2
_K_TEMME_MAX = 4.0
_K_TEMME_TERMS = 16
# the asymptotic series (besselj._hankel_sum) from |w| = 24 on, Re w >= 0
_K_HORNER_MIN = 24.0
# points per block of every route: its complex temporaries stay below
# numpy's 256 KiB threshold for reusing a temporary in place, whose loops
# round differently, so a value does not depend on how many points share
# the call, and a call's memory does not grow with its size.  CF2 runs on
# the Taylor nodes of one call not met before, at most _TAYLOR_ROWS x
# _TAYLOR_COLS = 4753 (76 KB of complex data), so it needs no blocks
_K_BLOCK = 8192
# CF2 steps at every node: the slowest nodes, +-2i, converge in 141, and
# the step coefficient c grows like (i-1)!, past the double range after 170
_CF2_STEPS = 150
# orders mu0 whose lattice base pairs stay cached (40 bytes per node met),
# as hyp keeps the operands of its _SETS most recent parameter sets
_PAIR_SETS = 8
# Taylor nodes on the lattice _K_TAYLOR_STEP (Z + iZ) between Temme's
# series and the asymptotic series, 0 <= Re w0 <= 24 and |Im w0| <= 24.
# Every node in use has |w0| >= 2 and |w - w0| <= 0.36, so |(w - w0)/w0|
# <= 0.18, and 0.18^22 < 5e-17
_K_TAYLOR_STEP = 0.5
_K_TAYLOR_TERMS = 22
_TAYLOR_HALF = int(round(_K_HORNER_MIN / _K_TAYLOR_STEP))
_TAYLOR_ROWS = _TAYLOR_HALF + 1
_TAYLOR_COLS = 2 * _TAYLOR_HALF + 1
MAX_ORDER_K = 10.0  # |mu| of K and H1; also the mu range of OrderPair

# Taylor coefficients of 1/Gamma(1 + x) at x = 0 (DLMF 5.7.1 shifted by
# one); for |x| <= 1/2 the first one left out adds below 1e-21.  Made by
#     import mpmath as mp
#     mp.mp.dps = 40
#     [float(c) for c in mp.taylor(lambda x: 1 / mp.gamma(1 + x), 0, 23)]
_RGAMMA1_TAYLOR = (
    1.0,
    0.5772156649015329,
    -0.6558780715202539,
    -0.04200263503409524,
    0.16653861138229148,
    -0.04219773455554433,
    -0.009621971527876973,
    0.0072189432466631,
    -0.0011651675918590652,
    -0.00021524167411495098,
    0.0001280502823881162,
    -2.013485478078824e-05,
    -1.2504934821426706e-06,
    1.133027231981696e-06,
    -2.056338416977607e-07,
    6.116095104481416e-09,
    5.002007644469223e-09,
    -1.18127457048702e-09,
    1.0434267116911005e-10,
    7.782263439905071e-12,
    -3.696805618642206e-12,
    5.100370287454476e-13,
    -2.0583260535665066e-14,
    -5.348122539423018e-15,
)


def _temme_gammas(mu0):
    """gamma_1 = (1/Gamma(1-mu0) - 1/Gamma(1+mu0)) / (2 mu0) and
    gamma_2 = (1/Gamma(1-mu0) + 1/Gamma(1+mu0)) / 2, from the odd and
    even parts of the Taylor series of 1/Gamma(1 + x): no cancellation
    as mu0 -> 0, where gamma_1 -> -Euler's gamma."""
    m2 = mu0 * mu0
    even = odd = 0.0
    for j in range(len(_RGAMMA1_TAYLOR) - 2, -1, -2):
        even = even * m2 + _RGAMMA1_TAYLOR[j]
        odd = odd * m2 + _RGAMMA1_TAYLOR[j + 1]
    return -odd, even


def _temme_polynomials(mu0):
    """Coefficients of z^0 .. z^_K_TEMME_TERMS of the six polynomials
    A, B, C, D, E, F with K_mu0 = f_0 A(z) + p_0 B(z) + q_0 C(z) and
    (w/2) K_mu0+1 = f_0 D(z) + p_0 E(z) + q_0 F(z), one row each: the
    f_i, p_i and q_i of Temme's series are linear in f_0, p_0 and q_0,
    with coefficients alpha_i, beta_i, gamma_i (and P_i, Q_i) that
    depend on mu0 alone."""
    rows = np.empty((6, _K_TEMME_TERMS + 1))
    alpha, beta, gamma, p, q, fact = 1.0, 0.0, 0.0, 1.0, 1.0, 1.0
    for i in range(_K_TEMME_TERMS + 1):
        if i:
            den = 1.0 / (i * i - mu0 * mu0)
            alpha, beta, gamma = i * alpha * den, (i * beta + p) * den, (i * gamma + q) * den
            p, q, fact = p / (i - mu0), q / (i + mu0), fact * i
        rows[:, i] = np.array([alpha, beta, gamma, -i * alpha, p - i * beta, -i * gamma]) / fact
    return rows


def _k_pair_temme(mu0, w, need=(0, 1)):
    """(K_mu0, K_mu0+1), |mu0| < 1/2, Re w >= 0, |w| + Re w <= 4, by
    Temme's series (Numerical Recipes' bessik, x < 2) at a fixed
    _K_TEMME_TERMS terms: a point's value is its own, and no step tests
    convergence.

    With z = w^2/4, K_mu0 = sum_i f_i z^i/i! and K_mu0+1 = (2/w) sum_i
    (p_i - i f_i) z^i/i!, where p_0 = Gamma(1+mu0) (w/2)^-mu0 / 2,
    q_0 = Gamma(1-mu0) (w/2)^mu0 / 2, p_i = p_{i-1}/(i - mu0),
    q_i = q_{i-1}/(i + mu0) and f_i = (i f_{i-1} + p_{i-1} + q_{i-1}) /
    (i^2 - mu0^2), from f_0 = (pi mu0/sin(pi mu0)) (gamma_1 cosh e +
    gamma_2 d sinh(e)/e) with d = -log(w/2) and e = mu0 d.  The sums are
    polynomials in z weighted by f_0, p_0 and q_0 (_temme_polynomials);
    at mu0 = 0, where f_0 = gamma_1 + gamma_2 d and p_0 = q_0 = 1/2,
    they fold into two weighted by d and 1.  Only the sums of the
    orders mu0 + j, j in need, are formed.
    """
    gam1, gam2 = _temme_gammas(mu0)
    p_scale = 0.5 / (gam2 - mu0 * gam1)  # Gamma(1+mu0)/2
    q_scale = 0.5 / (gam2 + mu0 * gam1)  # Gamma(1-mu0)/2
    polys = _temme_polynomials(mu0)
    if mu0 == 0.0:
        pa, pb, pc, pd, pe, pf = polys  # A .. F
        polys = np.array([gam2 * pa, gam1 * pa + p_scale * pb + q_scale * pc,
                          gam2 * pd, gam1 * pd + p_scale * pe + q_scale * pf])
    else:
        fact = math.pi * mu0 / math.sin(math.pi * mu0)
    m = len(polys) // 2  # the rows of K_mu0, then those of K_mu0+1
    out = tuple(np.empty(w.shape, dtype=complex) for _ in need)
    for start in range(0, w.size, _K_BLOCK):
        block = slice(start, start + _K_BLOCK)
        half = 0.5 * w[block]
        d = -(np.log(np.abs(half)) + 1j * np.angle(half))  # numpy's complex log is slower
        if mu0 == 0.0:
            weights = (d, 1.0)
        else:
            e = mu0 * d
            sinhc = np.divide(np.sinh(e), e, out=np.ones_like(e), where=e != 0.0)
            ex = np.exp(e)
            exi = 1.0 / ex
            f0 = fact * (gam1 * 0.5 * (ex + exi) + gam2 * sinhc * d)
            weights = (f0, p_scale * ex, q_scale * exi)
        z = half * half
        for j, res in zip(need, out):
            res[block] = sum(wt * _poly(c, z) for wt, c in zip(weights, polys[j * m:(j + 1) * m]))
            if j:
                res[block] /= half
    return out


def _k_pair_cf2(mu0, w):
    """(K_mu0, K_mu0+1), |mu0| <= 1/2, at the Taylor nodes w (Re w >= 0,
    |w| >= 2): Steed's CF2 h gives K_mu0+1 / K_mu0 = (mu0 + 1/2 + w -
    (1/4 - mu0^2) h) / w and Temme's sum s gives K_mu0 = sqrt(pi/2w)
    e^-w / s (Numerical Recipes' bessik, x >= 2).  Every point takes a
    fixed _CF2_STEPS steps, enough for every node of the lattice.
    """
    a1 = 0.25 - mu0 * mu0
    b = 2.0 * (1.0 + w)
    h = dh = d = 1.0 / b
    q1, q2, q = np.zeros_like(b), np.ones_like(b), np.full_like(b, a1)
    a, c = -a1, a1
    s = 1.0 + q * dh
    for i in range(2, _CF2_STEPS + 1):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        q1, q2 = q2, (q1 - b * q2) / a
        q = q + c * q2
        b = b + 2.0
        d = 1.0 / (b + a * d)
        dh = (b * d - 1.0) * dh
        h = h + dh
        s = s + q * dh
    k0 = np.sqrt(0.5 * math.pi / w) * np.exp(-w) / s
    return k0, k0 * (mu0 + 0.5 + w - a1 * h) / w


def _k_pair_horner(mu0, w, need=(0, 1)):
    """K_mu0+j, j in need, Re w >= 0 and |w| >= _K_HORNER_MIN (any w at
    |mu0| = 1/2), by the asymptotic K_q(w) ~ sqrt(pi/2w) e^-w sum a_k/w^k
    at the number of terms of the band of |w| (besselj._hankel_sum),
    summed by Horner's rule in 1/w: a point's value is its own, and no
    step tests convergence.  The members of a block share its 1/w, its
    prefactor and the band of each |w|.  At half-integer order the series
    terminates, so it is summed whole at every |w|: the closed form."""
    out = tuple(np.empty(w.shape, dtype=complex) for _ in need)
    for start in range(0, w.size, _K_BLOCK):
        block = slice(start, start + _K_BLOCK)
        wb = w[block]
        pref = np.sqrt(0.5 * math.pi / wb) * np.exp(-wb)
        for res, s in zip(out, _hankel_sums([mu0 + j for j in need], wb)):
            res[block] = pref * s
    return out


def _lattice_index(w):
    """Index of the node of _K_TAYLOR_STEP (Z + iZ) nearest to each w,
    |w| < _K_HORNER_MIN and Re w >= 0, in a grid of _TAYLOR_ROWS x
    _TAYLOR_COLS nodes (real part by row, imaginary part by column)."""
    row = np.rint(w.real * (1.0 / _K_TAYLOR_STEP))
    col = np.rint(w.imag * (1.0 / _K_TAYLOR_STEP)) + _TAYLOR_HALF
    return (row * _TAYLOR_COLS + col).astype(np.intp)


def _taylor_coefficients(q, w0, y0, y1):
    """Taylor coefficients a_k of K_q about each node w0, from a_0 = y0 =
    K_q(w0) and a_1 = y1 = K_q'(w0), as an array of shape
    (_K_TAYLOR_TERMS, len(w0)).  The Bessel ODE w^2 y'' + w y' -
    (w^2 + q^2) y = 0 at w = w0 + h gives

        w0^2 (k+1)(k+2) a_{k+2} = -w0 (k+1)(2k+1) a_{k+1}
            - (k^2 - q^2 - w0^2) a_k + 2 w0 a_{k-1} + a_{k-2}.

    At the orders |q| <= 3/2 used here it is stable forward: the
    coefficients of K fall like |w0|^-k, those of I no slower."""
    a = np.zeros((_K_TAYLOR_TERMS + 2, w0.size), dtype=complex)  # a[k + 2] is a_k
    a[2], a[3] = y0, y1
    inv_w02 = 1.0 / (w0 * w0)
    c = q * q + w0 * w0
    for k in range(_K_TAYLOR_TERMS - 2):
        a[k + 4] = (-(k + 1) * (2 * k + 1) * w0 * a[k + 3] + (c - k * k) * a[k + 2]
                    + 2.0 * w0 * a[k + 1] + a[k]) * (inv_w02 * (1.0 / ((k + 1) * (k + 2))))
    return a[2:]


def _lattice_node(index):
    """The node of _K_TAYLOR_STEP (Z + iZ) at each index of _lattice_index."""
    row, col = np.divmod(index, _TAYLOR_COLS)
    return _K_TAYLOR_STEP * (row + 1j * (col - _TAYLOR_HALF))


@functools.lru_cache(maxsize=_PAIR_SETS)
def _lattice_pairs(mu0):
    """The base pairs (K_mu0, K_mu0+1) at the nodes of the Taylor lattice
    met so far, by node index, each from _k_pair_cf2 once."""
    return Memo(lambda index: np.array(_k_pair_cf2(mu0, _lattice_node(index))),
                np.empty(0, dtype=np.intp), np.empty((2, 0), dtype=complex))


def _k_pair_taylor(mu0, w, need=(0, 1)):
    """K_mu0+j, j in need, |mu0| < 1/2, Re w >= 0, |w| + Re w > 4 and
    |w| < _K_HORNER_MIN, by the Taylor series about the nearest node w0
    of the lattice _K_TAYLOR_STEP (Z + iZ), summed by Horner's rule at a
    fixed _K_TAYLOR_TERMS terms in h = w - w0, which is exact.  A node's
    coefficients come from its own base pair and derivatives K_q' =
    q K_q / w - K_q+1 = -K_q-1 - q K_q / w, so a point's value is its
    own, however many points share the call.  The pair is read from the
    order's table (_lattice_pairs); a node not in it yet gets it from
    _k_pair_cf2, which fixes it by the node alone, so a warm table gives
    the bits of a cold one."""
    cell = _lattice_index(w)
    used = np.zeros(_TAYLOR_ROWS * _TAYLOR_COLS, dtype=bool)
    used[cell] = True
    nodes = np.flatnonzero(used)
    slot = np.zeros(used.size, dtype=np.intp)
    slot[nodes] = np.arange(nodes.size)
    w0 = _lattice_node(nodes)
    y0, y1 = _lattice_pairs(mu0)(nodes)
    slopes = ((mu0 * y0 - w0 * y1) / w0, -y0 - (mu0 + 1.0) * y1 / w0)
    coef = [_taylor_coefficients(mu0 + j, w0, (y0, y1)[j], slopes[j]) for j in need]
    out = tuple(np.empty(w.shape, dtype=complex) for _ in need)
    for start in range(0, w.size, _K_BLOCK):
        block = slice(start, start + _K_BLOCK)
        at = slot[cell[block]]
        h = w[block] - w0[at]
        for a, res in zip(coef, out):
            acc = a[-1][at]
            for k in range(_K_TAYLOR_TERMS - 2, -1, -1):
                acc = acc * h + a[k][at]
            res[block] = acc
    return out


def _routes(mu0, w):
    """(mask, route) for each base-pair route over w, at every order:
    Temme's series on |w| + Re w <= 4, the Taylor series up to |w| =
    _K_HORNER_MIN and the asymptotic series past it, and on all of w at
    half-integer order, where it is the closed form."""
    mag = np.abs(w)
    horner = (mag >= _K_HORNER_MIN) | (abs(mu0) == 0.5)
    temme = ~horner & (mag + w.real <= _K_TEMME_MAX)
    return ((temme, _k_pair_temme), (~temme & ~horner, _k_pair_taylor), (horner, _k_pair_horner))


def _k_core(mu, w):
    """K_mu on an ndarray of finite arguments w != 0 with Re w >= 0 (the
    public functions gate it).  A value outside the double range raises
    DomainError."""
    mu = abs(float(mu))
    if not mu <= MAX_ORDER_K:  # a NaN fails it too
        raise DomainError(f"order |mu|={mu} outside supported range <= {MAX_ORDER_K:g}")
    n = int(round(mu))
    mu0 = mu - n  # in [-1/2, 1/2]

    # the recurrence climbs from K_mu0 and K_mu0+1; below n = 2 it is one of them
    need = (n,) if n < 2 else (0, 1)
    out = np.empty(w.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, as a DomainError
        for mask, pair in _routes(mu0, w):
            if mask.any():
                ws = w[mask]
                base = pair(mu0, ws, need)
                out[mask] = base[0] if n < 2 else _recur_up(base[0], base[1], mu0, n, ws, 1.0)
    if not np.isfinite(out).all():
        raise DomainError(f"K_{mu:g}(w) is outside the double range")
    return out


def bessel_k_complex(mu, w):
    """Modified Bessel function K_mu(w) for finite w with Re(w) > 0,
    |mu| <= 10.

    Scalar or ndarray w; relative error against 30-digit references
    below 2e-14 on |w| + Re w <= 4 (Temme's series) at every order,
    orders next to an integer included, and about 3e-15 elsewhere.
    """
    arr, scalar = _as_array(w, complex)
    if not np.isfinite(arr).all() or np.any(arr.real <= 0.0):
        raise DomainError("bessel_k_complex requires finite w with Re(w) > 0")
    out = _k_core(mu, arr)
    return complex(out[()]) if scalar else out


def hankel1_complex(mu, z):
    """Hankel function H^(1)_mu(z) = (2/(i pi)) e^{-i pi mu/2} K_mu(-iz).

    Valid for finite z != 0 on the sector 0 <= arg z <= pi, where
    w = -iz has Re w >= 0: the real axis of z is the imaginary axis of w,
    served like its interior.  Relative accuracy as bessel_k_complex's.
    """
    arr, scalar = _as_array(z, complex)
    # np.angle is in [-pi, pi]; -pi is the lower side of the cut
    if not np.isfinite(arr).all() or np.any(arr == 0.0) or np.any(np.angle(arr) < 0.0):
        raise DomainError("hankel1_complex requires finite z, 0 <= arg z <= pi, z != 0")
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
