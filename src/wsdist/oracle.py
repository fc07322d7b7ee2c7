"""Independent validation of the closed forms by direct quadrature.

Nothing here looks inside weber_schafheitlin except to fetch the
closed-form value being compared against: the integrands are built
from specfun primitives and integrated by the quadrature engines, so
agreement is a genuine two-route check.

The distributional results are validated by pairing: for a test
function g and a decreasing schedule of regularizations eps, the
pairings

    P(eps) = int I(s + i eps) g(s) ds      (over supp g)

are computed by a composite Gauss rule in s, Richardson-extrapolated
to eps = 0, and compared with the closed-form pairing of the limit
distribution.  That rule is fixed by eps and the support of g alone:
8-point Gauss panels whose widths grow from eps/8 at s = 1, where
I(s + i eps) has its near-pole of width eps, by doubling up to a 32nd of
the support (_s_edges), with no error estimate and no refinement.  The
direct integrals I(s + i eps) of all its s-nodes run as one row-batched
semi-infinite quadrature, so every Bessel evaluation covers the k-panels
of all those nodes at once.

Each direct integral is one fixed rule from 0 to infinity, fixed by
(orders, s, eps) alone, with no convergence test and no tolerance, and
in closed form at both ends.  From 0 to the row's start, where
(|z| + eps) start <= 4, H1_mu(zk) is Temme's series for K and J_nu(k)
its ascending series, and their product integrates term by term
(_series_head; Temme, J. Comput. Phys. 19 (1975) 324), so the
integrand's k^(nu + 1 - |mu|) at k = 0 meets no quadrature node.  Its
k-panels have width pi / 2^j, j >= 0 the least with s / 2^j <= 2: pi
for every s <= 2, and the start is that width halved i >= 0 times;
15-point Gauss panels [start, 2 start], ... reach the width, and panels
of the width run on up to k0, the first k where the Hankel series of
besselj._hankel_table serves both J_nu(k) and H1_mu((s + i eps) k),
rounded up to the panel grid; from k0 on both factors are their Hankel
series, and the integral of their product is a sum of exponential
integrals E_n in closed form (_hankel_tail; Lucas & Stone, J. Comput.
Appl. Math. 64 (1995) 217).  A row's cost does not grow as eps falls.  The engine forms a row's k-nodes
from its panel width alone, so the rows of one octave j share their
nodes in every call and at every eps, and J_nu, which does not depend
on s or eps, is computed once per distinct node of a run (_j_nodes) and
read by every row, call and eps of that run.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import Measure, pair
from .quadrature import (
    DEFAULT_EPS_SCHEDULE,
    gauss_legendre,
    integrate_semiinfinite_damped,
    richardson,
)
from .specfun import bessel_j, expn, gamma, hankel1_complex
from .specfun.besselj import _HANKEL_EDGES, _hankel_table, _series_coefs
from .specfun.besselk import _K_TEMME_MAX, _temme_gammas, _temme_polynomials
from .specfun.memo import Memo
from .weber_schafheitlin import prop1_distribution, prop2_distribution


@dataclass(frozen=True)
class OracleReport:
    """Side-by-side closed-form vs extrapolated-quadrature values."""

    closed_form: complex
    oracle_value: complex
    abs_deviation: float
    rel_deviation: float
    eps_trace: tuple
    extrapolation_error: float

    def to_json_dict(self):
        def c(v):
            v = complex(v)
            return {"re": v.real, "im": v.imag}

        return {
            "closed_form": c(self.closed_form),
            "oracle_value": c(self.oracle_value),
            "abs_deviation": self.abs_deviation,
            "rel_deviation": self.rel_deviation,
            "eps_trace": [[e, c(v)] for e, v in self.eps_trace],
            "extrapolation_error": self.extrapolation_error,
        }


def _j_nodes(nu):
    """J_nu at the k-nodes met so far, each computed once: one table per
    oracle run, which every row, call and eps of the run reads."""
    return Memo(lambda k: bessel_j(nu, k), np.empty(0), np.empty(0))


def I_direct(orders, pt):
    """Direct quadrature of int_0^inf k H1_mu((s+i eps)k) J_nu(k) dk at
    the RegularizedPoint pt = s + i eps; the order constraint makes the
    integrand integrable at k = 0 and the i eps damps it like e^{-eps k}
    at infinity."""
    rows = _direct_rows(orders, np.array([pt.s]), pt.eps, _j_nodes(orders.nu))
    return complex(rows[0])


def _hankel_coefficients(q):
    """The Hankel coefficients a_m(q) that the first band served at order
    q sums (_hankel_table), and that band's lower edge."""
    a, counts = _hankel_table(q)
    band = int(np.argmax(counts > 0))  # every |q| <= 50 has a served band
    return np.array(a[:counts[band]]), _HANKEL_EDGES[band]


def _hankel_tail(mu, nu, z, k0):
    """int_{k0}^inf k H1_mu(z k) J_nu(k) dk at each z of the array z, k0
    the row's end, where the Hankel series of both factors serve:

        k H1_mu(zk) J_nu(k) = (1/(pi sqrt z)) sum_+- e^{i phi+-}
                              e^{i(z +- 1)k} sum_n c+-_n k^-n,

    c+-_n the Cauchy product of i^m a_m(mu) z^-m and (+-i)^l a_l(nu), and
    phi+- = -(mu/2 + 1/4) pi -+ (nu/2 + 1/4) pi (DLMF 10.17.5-6 with
    J = (H1 + H2)/2).  Each term integrates to k0^{1-n} E_n(-i(z +- 1) k0),
    Re = eps k0 > 0, and expn gives E_0 ... E_{N-1} of a row and sign as
    one table: one direct E_n, the rest by the recurrence.  The product
    is carried whole, N = len a(mu) + len a(nu) - 1 terms: a half-integer
    order's series terminates, and at two of them a shorter cut drops
    terms that are not small.  It runs on arrays of shape (N, rows),
    so each of its steps covers a contiguous run of rows, and a row's sum
    over n is a row sum (np.sum over axis 1), never a matmul."""
    a_mu, _ = _hankel_coefficients(mu)
    a_nu, _ = _hankel_coefficients(nu)
    n_terms = len(a_mu) + len(a_nu) - 1
    h_mu = a_mu[:, None] * (1j / (z * k0)) ** np.arange(len(a_mu))[:, None]
    signs = (1.0, -1.0)
    e_n = expn(n_terms, -1j * (z + np.array(signs)[:, None]) * k0)  # both signs in one call
    total = 0.0
    for sign, e_sign in zip(signs, e_n):
        h_nu = a_nu[:, None] * (sign * 1j / k0) ** np.arange(len(a_nu))[:, None]
        c = np.zeros((n_terms, len(z)), dtype=complex)  # c_n k0^-n
        for m in range(len(a_mu)):
            c[m:m + len(a_nu)] += h_mu[m] * h_nu
        phase = -(0.5 * mu + 0.25) * math.pi - sign * (0.5 * nu + 0.25) * math.pi
        total = total + complex(math.cos(phase), math.sin(phase)) * np.sum(c.T * e_sign, axis=1)
    return k0 / (math.pi * np.sqrt(z)) * total


def _series_head(mu, nu, z, start):
    """int_0^start k H1_mu(zk) J_nu(k) dk at each z and start of the
    arrays z and start, (|z| + Im z) start <= _K_TEMME_MAX, in closed form.

    H1_mu(zk) = (2/(i pi)) e^{-i mu pi/2} K_|mu|(ck), c = -iz, and on that
    range K is Temme's series at mu0 = |mu| - n, n = ceil(|mu| - 1/2), so
    mu0 is in (-1/2, 1/2]: K_mu0 and K_mu0+1 as the polynomials of
    besselk._temme_polynomials weighted by f0, p0 and q0, climbed to
    K_|mu| by K_{q+1} = K_{q-1} + (q/u) K_q on the coefficients of u^p,
    u = ck/2.  Times J_nu's ascending series (besselj._series_coefs),
    each term is k^{Q-1} times a weight; with L = log(c start/2) and
    x = mu0 L, it integrates to start^Q times e^-x/(Q - mu0) (p0),
    e^x/(Q + mu0) (q0) or fact [g1 (Q cosh x - mu0 sinh x) + g2 (cosh x -
    Q L sinh(x)/x)]/(Q^2 - mu0^2) (f0, fact = pi mu0/sin(pi mu0), g1 and
    g2 Temme's gammas), with no 1/mu0 to cancel near an integer order.
    Every term that is not an exact zero has Q - mu0 >= nu + 2 - |mu| > 0
    and Q + mu0 > 0.  Each weight's integral is a few factors of the row
    (cosh x, sinh x, L sinh(x)/x, e^-x, e^x) times a polynomial in u^2
    at k = start whose coefficients depend on the row's start alone, so
    the double sum over K's and J's terms runs once per distinct start,
    and a row has the bits of its lone call."""
    if nu == -1.0:
        return -_series_head(mu, 1.0, z, start)  # J_-1 = -J_1
    n = math.ceil(abs(mu) - 0.5)
    mu0 = abs(mu) - n
    gam1, gam2 = _temme_gammas(mu0)
    polys = _temme_polynomials(mu0)
    # K_mu0 and u K_mu0+1 as coefficients of u^-n ... u^32, rows f0, p0, q0;
    # a shift by one place divides by u
    k_pair = np.zeros((2, 3, n + 2 * len(polys[0]) - 1))
    k_pair[:, :, n::2] = polys.reshape(2, 3, -1)
    lo, hi = k_pair[0], np.roll(k_pair[1], -1, axis=1)
    for j in range(n):
        lo, hi = hi, lo + (mu0 + j + 1) * np.roll(hi, -1, axis=1)
    coef = lo[:, ::2]  # K_|mu| at u^-n, u^(2-n), ...
    b = np.array(_series_coefs(nu))
    q = 2.0 + nu - n + 2.0 * np.arange(coef.shape[1] + len(b) - 1)
    # at n >= 1 the f0 and q0 parts have no u^-n term, and Q + mu0 may
    # vanish there
    inv = np.divide(1.0, q * q - mu0 * mu0, out=np.zeros_like(q),
                    where=np.arange(len(q)) >= min(n, 1))
    fact = math.pi * mu0 / math.sin(math.pi * mu0) if mu0 else 1.0
    # each weight's integral as row factors (below) times functions of Q
    g = np.array([fact * (gam1 * q + gam2) * inv, -fact * gam1 * mu0 * inv,
                  -fact * gam2 * q * inv, 0.5 / (gam2 - mu0 * gam1) / (q - mu0),
                  0.5 / (gam2 + mu0 * gam1) * (q - mu0) * inv])  # p0, q0: Gamma(1 +- mu0)/2
    weight = (0, 0, 0, 1, 2)  # the f0, p0 or q0 row of coef each one takes
    # the head is u^-n sum_i (u^2)^i v_i, with v_i = coef_i sum_m b_m
    # (-start^2/4)^m g(Q_{i+m}) fixed by the row's start
    starts, of_start = np.unique(start, return_inverse=True)
    j = np.add.outer(np.arange(coef.shape[1]), np.arange(len(b)))
    v = np.array([coef[weight, :] * np.sum(g[:, j] * b * (-0.25 * st * st) ** np.arange(len(b)),
                                           axis=2) for st in starts])[of_start]
    u = -0.5j * z * start
    lam = np.log(u)
    x = mu0 * lam
    sinhc = np.divide(np.sinh(x), x, out=np.ones_like(x), where=x != 0.0)
    rows = np.stack([np.cosh(x), np.sinh(x), lam * sinhc, np.exp(-x), np.exp(x)], axis=1)
    powers = u[:, None, None] ** np.arange(0, 2 * coef.shape[1], 2)
    # named operands: numpy may multiply into a large temporary in place,
    # by a loop that rounds otherwise, and a row must not depend on the batch
    by_weight = np.sum(v * powers, axis=2)
    total = u ** -n * np.sum(rows * by_weight, axis=1)
    pref = 2.0 / (1j * math.pi) * np.exp(-0.5j * math.pi * mu)
    return pref * start ** 2 * (0.5 * start) ** nu / gamma(nu + 1.0) * total


def _direct_rows(orders, s, eps, j_nodes):
    """I_direct at every point s + i eps of the array s, as one
    row-batched semi-infinite quadrature (one row per point), reading J
    from j_nodes, a table of J at order orders.nu (_j_nodes)."""
    orders.require_hankel_bessel()
    z = s + 1j * eps
    mu, nu = orders.mu, orders.nu
    # panels of width pi / 2^j, j >= 0 the least with s / 2^j <= 2 (from
    # s / 2 = m 2^e, 1/2 <= m < 1): a panel spans at most 3 pi of the
    # integrand's phase (s + 1) k, where 15 Gauss points are still exact
    # to rounding, and the width depends on s alone
    m, e = np.frexp(0.5 * s)
    octave = np.maximum(e - (m == 0.5), 0)
    octaves = np.unique(octave)
    spacing = np.ldexp(math.pi, -octave)

    def j_rows(k, rows):
        # the engine forms a row's nodes from its spacing and the panel
        # (index and halving) that all rows of a call share, so the rows
        # of an octave have the same k: J is read on one of them
        jk = np.empty(k.shape)
        for j in octaves:
            of_j = octave[rows] == j
            if of_j.any():
                jk[of_j] = j_nodes(k[of_j.argmax()])
        return jk

    def f(k, rows):
        # J's rows are formed after H1's call, so they do not add to its peak
        return k * hankel1_complex(mu, z[rows, None] * k) * j_rows(k, rows)

    def head(spacing):
        # start = spacing / 2^i, i >= 0 the least with (|z| + eps) start
        # <= _K_TEMME_MAX, where Temme's series serves K on [0, start]
        m, e = np.frexp((np.abs(z) + eps) * spacing / _K_TEMME_MAX)
        start = np.ldexp(spacing, -np.maximum(e - (m == 0.5), 0))
        return start, _series_head(mu, nu, z, start)

    # k0: J_nu's series serves k from its band edge on, H1_mu's |z| k
    k0 = np.maximum(_hankel_coefficients(nu)[1], _hankel_coefficients(mu)[1] / np.abs(z))
    return integrate_semiinfinite_damped(
        f, spacing, k0, lambda ends: _hankel_tail(mu, nu, z, ends), head
    ).value


def _s_edges(lo, hi, eps):
    """Panel edges of the s-rule on [lo, hi], graded toward the pole at
    s = 1: from c = clip(1, lo, hi) the panels on each side have widths
    eps/8, eps/4, ... doubling outward, each at most (hi - lo)/32, the
    last one cut at the support's end."""
    c = min(max(1.0, lo), hi)
    cap = (hi - lo) / 32
    left, right, width = [c], [c], eps / 8
    while left[-1] > lo or right[-1] < hi:
        step = min(width, cap)
        if left[-1] > lo:
            left.append(max(left[-1] - step, lo))
        if right[-1] < hi:
            right.append(min(right[-1] + step, hi))
        width *= 2
    return np.array(left[:0:-1] + right)


def _pairing_at_eps(orders, g, eps, j_nodes):
    """int I(s + i eps) g(s) ds over supp g by one fixed composite rule:
    8-point Gauss panels on _s_edges, fixed by eps and the support alone.
    The direct integrals of all its nodes are one `_direct_rows` call,
    which reads J from j_nodes (_j_nodes); a panel's Gauss sum is a row
    sum, never a matmul."""
    nodes, weights = gauss_legendre(8)
    edges = _s_edges(*g.support, eps)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * nodes).ravel()
    gi = (_direct_rows(orders, x, eps, j_nodes) * g(x)).reshape(len(mid), len(nodes))
    return complex(np.sum(half * np.sum(gi * weights, axis=1)))


def _oracle_report(orders, g, schedule, dist, part):
    """Pairings along the eps schedule, Richardson-extrapolated to 0 and
    compared with the closed-form pairing of dist; `part` maps both
    values to the compared quantity."""
    closed = pair(dist, g, Measure.LEBESGUE, tol=1e-9)
    j_nodes = _j_nodes(orders.nu)  # J once per k-node of the run, at every eps
    trace = []
    for eps in schedule.values:
        val = _pairing_at_eps(orders, g, eps, j_nodes)
        trace.append((eps, val))
    limit, extrap_err = richardson(trace)
    residuals = [abs(v - limit) for _, v in trace]
    if any(r2 > r1 * 1.001 + 1e-14 for r1, r2 in zip(residuals, residuals[1:])):
        warnings.warn(
            "pairing residuals are not monotone along the eps schedule; "
            "the s-quadrature may be under-resolved",
            stacklevel=3,
        )
    closed, oracle_value = part(closed), part(limit)
    abs_dev = abs(closed - oracle_value)
    return OracleReport(
        closed_form=closed,
        oracle_value=oracle_value,
        abs_deviation=abs_dev,
        rel_deviation=abs_dev / max(1.0, abs(closed)),
        eps_trace=tuple(trace),
        extrapolation_error=extrap_err,
    )


def pairing_oracle(orders, g, schedule=DEFAULT_EPS_SCHEDULE):
    """Extrapolated direct pairings against the closed-form limit
    distribution of the Hankel-kernel integral."""
    orders.require_hankel_bessel()
    return _oracle_report(orders, g, schedule, prop1_distribution(orders), complex)


def jj_pairing_oracle(orders, g, schedule=DEFAULT_EPS_SCHEDULE):
    """Same as pairing_oracle but for the J-kernel result: the real
    part of the extrapolated pairing against the closed-form pairing of
    the cos/sin distribution."""
    orders.require_bessel_bessel()
    return _oracle_report(
        orders, g, schedule, prop2_distribution(orders), lambda v: complex(v).real
    )
