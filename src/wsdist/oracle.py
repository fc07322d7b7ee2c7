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
distribution.  The direct integrals I(s + i eps) of all the s-nodes of
one step of that rule run as one row-batched semi-infinite quadrature,
so every Bessel evaluation covers the k-panels of all those nodes at
once.  A step is the initial panels, or one round of bisections: the
greedy worst-first refinement is replayed panel by panel, but the
halves it will need are evaluated ahead, a round at a time.

Each direct integral is one fixed rule fixed by (orders, s, eps) alone,
with no convergence test.  Its k-panels have width pi / 2^j, j >= 0 the
least with s / 2^j <= 2: pi for every s <= 2.  They run up to k0, the
first k where the Hankel series of besselj._hankel_table serves both
J_nu(k) and H1_mu((s + i eps) k), rounded up to the panel grid; from k0
on both factors are their Hankel series, and the integral of their
product is a sum of exponential integrals E_n in closed form
(_hankel_tail; Lucas & Stone, J. Comput. Appl. Math. 64 (1995) 217).  A
row's cost does not grow as eps falls.  The engine forms a row's k-nodes
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
from .errors import NonConvergenceError
from .quadrature import (
    DEFAULT_EPS_SCHEDULE,
    gauss_legendre,
    integrate_semiinfinite_damped,
    richardson,
)
from .specfun import bessel_j, expn, hankel1_complex
from .specfun.besselj import _HANKEL_EDGES, _hankel_table
from .specfun.memo import Memo
from .weber_schafheitlin import prop1_distribution, prop2_distribution

_OUTER_PANELS = 64
_OUTER_REFINE_BUDGET = 40


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


def _hankel_head(q):
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
    Re = eps k0 > 0.  The product keeps its first max(len a(mu), len
    a(nu)) terms; the whole product moves no row by more than 5e-16 of
    max(1, |I|) at orders (0, 1) to (2, 30), eps from 1e-3 to 0.2."""
    a_mu, _ = _hankel_head(mu)
    a_nu, _ = _hankel_head(nu)
    n_terms = max(len(a_mu), len(a_nu))
    k0 = k0[:, None]
    h_mu = a_mu * (1j / (z[:, None] * k0)) ** np.arange(len(a_mu))
    total = 0.0
    for sign in (1.0, -1.0):
        h_nu = a_nu * (sign * 1j / k0) ** np.arange(len(a_nu))
        c = np.zeros((len(z), n_terms), dtype=complex)  # c_n k0^-n
        for m in range(len(a_mu)):
            width = min(len(a_nu), n_terms - m)
            c[:, m:m + width] += h_mu[:, m, None] * h_nu[:, :width]
        e_n = expn(np.arange(n_terms), -1j * (z[:, None] + sign) * k0)
        phase = -(0.5 * mu + 0.25) * math.pi - sign * (0.5 * nu + 0.25) * math.pi
        total = total + complex(math.cos(phase), math.sin(phase)) * np.sum(c * e_n, axis=1)
    return k0[:, 0] / (math.pi * np.sqrt(z)) * total


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
        # index that all live rows share, so the rows of an octave have
        # the same k: J is read on one of them
        jk = np.empty(k.shape)
        for j in octaves:
            of_j = octave[rows] == j
            if of_j.any():
                jk[of_j] = j_nodes(k[of_j.argmax()])
        return jk

    def f(k, rows):
        # J's rows are formed after H1's call, so they do not add to its peak
        return k * hankel1_complex(mu, z[rows, None] * k) * j_rows(k, rows)

    # k0: J_nu's series serves k from its band edge on, H1_mu's |z| k
    k0 = np.maximum(_hankel_head(nu)[1], _hankel_head(mu)[1] / np.abs(z))
    res = integrate_semiinfinite_damped(f, spacing, k0, lambda ends: _hankel_tail(mu, nu, z, ends))
    if not res.converged:
        raise NonConvergenceError(
            f"direct quadrature's first panel stalled at orders={orders}, eps={eps}, "
            f"s in [{s.min()}, {s.max()}] "
            f"(largest estimate {np.max(res.error_estimate):.3e})"
        )
    return res.value


def _pairing_at_eps(orders, g, eps, outer_tol, j_nodes):
    """int I(s + i eps) g(s) ds over supp g by a 64-panel composite
    Gauss rule; the panel with the worst embedded error estimate (ties
    to the leftmost) is bisected, one at a time, until the summed
    estimate passes outer_tol (deterministic, bounded refinement
    budget; a budget spent above outer_tol warns).

    The bisections run in batched rounds.  A round starts when the
    panel to bisect next has no evaluated halves; one `_direct_rows`
    call then evaluates the halves of every panel in the shortest
    prefix of the worst-first order whose removal brings the summed
    estimate to outer_tol, at most the splits left in the budget.  The
    greedy loop bisects each of those panels before it could stop (it
    never splits an original panel before one ahead of it in that
    order), so only a budget cap can leave a half unused; the loop then
    takes the halves in its own order and sums in the same order.  The
    rows of a call are independent integrals, so the pairing is that of
    one call per bisection, bit for bit on the acceptance cases.  Every
    call reads J from j_nodes (_j_nodes)."""
    lo, hi = g.support
    n4, w4 = gauss_legendre(4)
    n2, w2 = gauss_legendre(2)
    nodes = np.concatenate((n4, n2))

    def eval_panels(a, b):
        """(estimate, a, b, value) of each panel [a_i, b_i]."""
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x = (mid[:, None] + half[:, None] * nodes).ravel()
        gi = (_direct_rows(orders, x, eps, j_nodes) * g(x)).reshape(len(a), 6)
        v4 = half * (gi[:, :4] @ w4)
        v2 = half * (gi[:, 4:] @ w2)
        return list(zip(np.abs(v4 - v2).tolist(), a.tolist(), b.tolist(), v4.tolist()))

    def bisect_round(panels, total_est, budget):
        """The halves of the worst-first prefix of panels, keyed by
        (a, b) of the panel they split."""
        ends, rest = [], total_est
        for est, a, b, _ in panels[:budget]:
            if (a, b) not in halves:
                ends.append((a, b))
            rest -= est
            if rest <= outer_tol:
                break
        a, b = np.array(ends).T
        mid = 0.5 * (a + b)
        new = eval_panels(np.column_stack((a, mid)).ravel(), np.column_stack((mid, b)).ravel())
        return {ab: (new[2 * i], new[2 * i + 1]) for i, ab in enumerate(ends)}

    edges = np.linspace(lo, hi, _OUTER_PANELS + 1)
    panels = eval_panels(edges[:-1], edges[1:])
    halves = {}

    splits = 0
    while splits < _OUTER_REFINE_BUDGET:
        total_est = sum(p[0] for p in panels)
        if total_est <= outer_tol:
            break
        panels.sort(key=lambda p: (-p[0], p[1]))
        _, a, b, _ = panels[0]
        if (a, b) not in halves:
            halves.update(bisect_round(panels, total_est, _OUTER_REFINE_BUDGET - splits))
        panels.pop(0)
        panels += halves.pop((a, b))
        splits += 1
    total_est = sum(p[0] for p in panels)
    if total_est > outer_tol:
        warnings.warn(
            f"the s-quadrature at eps={eps:g} spent its {_OUTER_REFINE_BUDGET} splits with "
            f"its error estimate {total_est:.2e} still above {outer_tol:.2e}",
            stacklevel=4,
        )
    return sum(p[3] for p in panels)


def _oracle_report(orders, g, schedule, dist, part):
    """Pairings along the eps schedule, Richardson-extrapolated to 0 and
    compared with the closed-form pairing of dist; `part` maps both
    values to the compared quantity."""
    closed = pair(dist, g, Measure.LEBESGUE, tol=1e-9)
    scale = max(1.0, abs(closed))
    j_nodes = _j_nodes(orders.nu)  # J once per k-node of the run, at every eps
    trace = []
    for eps in schedule.values:
        val = _pairing_at_eps(orders, g, eps, 1e-6 * scale, j_nodes)
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
