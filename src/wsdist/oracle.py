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

The k-panels of a row have width pi / 2^j, j >= 0 the least with
s / 2^j <= 2: pi for every s <= 2.  The engine forms a row's k-nodes
from its panel width alone, so the rows of one octave j share their
nodes in every call and at every eps, and J_nu, which does not depend
on s or eps, is computed once per distinct node of a run (_j_nodes) and
read by every row, call and eps of that run.  A schedule whose smallest
eps lies below _EPS_FLOOR is refused up front.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import Measure, pair
from .errors import NonConvergenceError
from .quadrature import (
    _MAX_OSC_PANELS,
    DEFAULT_EPS_SCHEDULE,
    gauss_legendre,
    integrate_semiinfinite_damped,
    richardson,
)
from .specfun import bessel_j, hankel1_complex
from .specfun.memo import Memo
from .weber_schafheitlin import prop1_distribution, prop2_distribution

_OUTER_PANELS = 64
_OUTER_REFINE_BUDGET = 40
_INNER_TOL = 1e-7
# below this eps a row of panel width pi (every s <= 2, s = 1 among them)
# does not damp to sqrt(_INNER_TOL), the engine's panel-magnitude stop, by
# its e^{-eps k} within its panel cap; a row past s = 2, of width pi / 2^j,
# reaches k = _MAX_OSC_PANELS pi / 2^j, more than _MAX_OSC_PANELS pi / s
_EPS_FLOOR = math.log(1.0 / math.sqrt(_INNER_TOL)) / (_MAX_OSC_PANELS * math.pi)


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


def I_direct(orders, pt, tol=1e-7):
    """Direct oscillatory quadrature of int_0^inf k H1_mu((s+i eps)k)
    J_nu(k) dk at the RegularizedPoint pt = s + i eps; the order
    constraint makes the integrand integrable at k = 0 and the i eps
    damps it like e^{-eps k} at infinity."""
    rows = _direct_rows(orders, np.array([pt.s]), pt.eps, tol, _j_nodes(orders.nu))
    return complex(rows[0])


def _direct_rows(orders, s, eps, tol, j_nodes):
    """I_direct at every point s + i eps of the array s, as one
    row-batched semi-infinite quadrature (one row per point), reading J
    from j_nodes, a table of J at order orders.nu (_j_nodes)."""
    orders.require_hankel_bessel()
    z = s + 1j * eps
    mu = orders.mu
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

    res = integrate_semiinfinite_damped(f, eps, spacing, tol)
    if not res.converged:
        raise NonConvergenceError(
            f"direct quadrature stalled at orders={orders}, eps={eps}, "
            f"s in [{s.min()}, {s.max()}] "
            f"(largest estimate {np.max(res.error_estimate):.3e})"
        )
    return res.value


def _pairing_at_eps(orders, g, eps, inner_tol, outer_tol, j_nodes):
    """int I(s + i eps) g(s) ds over supp g by a 64-panel composite
    Gauss rule; the panel with the worst embedded error estimate (ties
    to the leftmost) is bisected, one at a time, until the summed
    estimate passes outer_tol (deterministic, bounded refinement
    budget).

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
        gi = (_direct_rows(orders, x, eps, inner_tol, j_nodes) * g(x)).reshape(len(a), 6)
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
    return sum(p[3] for p in panels)


def _oracle_report(orders, g, schedule, dist, part):
    """Pairings along the eps schedule, Richardson-extrapolated to 0 and
    compared with the closed-form pairing of dist; `part` maps both
    values to the compared quantity.  A schedule that reaches below
    _EPS_FLOOR is refused before any pairing."""
    if schedule.values[-1] < _EPS_FLOOR:
        raise NonConvergenceError(
            f"eps={schedule.values[-1]:g} is below {_EPS_FLOOR:.2g}, where the direct "
            f"quadrature's {_MAX_OSC_PANELS} panels end before its damping does"
        )
    closed = pair(dist, g, Measure.LEBESGUE, tol=1e-9)
    scale = max(1.0, abs(closed))
    j_nodes = _j_nodes(orders.nu)  # J once per k-node of the run, at every eps
    trace = []
    for eps in schedule.values:
        val = _pairing_at_eps(orders, g, eps, _INNER_TOL, 1e-6 * scale, j_nodes)
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
