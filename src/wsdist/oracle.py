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
one step of that rule (the initial panels, then each bisection) run as
one row-batched semi-infinite quadrature, so every Bessel evaluation
covers the k-panels of all those nodes at once.
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
from .specfun import bessel_j, hankel1_complex
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


def I_direct(orders, pt, tol=1e-7):
    """Direct oscillatory quadrature of int_0^inf k H1_mu((s+i eps)k)
    J_nu(k) dk at the RegularizedPoint pt = s + i eps; the order
    constraint makes the integrand integrable at k = 0 and the i eps
    damps it like e^{-eps k} at infinity."""
    return complex(_direct_rows(orders, np.array([pt.s]), pt.eps, tol)[0])


def _direct_rows(orders, s, eps, tol):
    """I_direct at every point s + i eps of the array s, as one
    row-batched semi-infinite quadrature (one row per point)."""
    orders.require_hankel_bessel()
    z = s + 1j * eps
    mu, nu = orders.mu, orders.nu

    def f(k, rows):
        return k * hankel1_complex(mu, z[rows, None] * k) * bessel_j(nu, k)

    res = integrate_semiinfinite_damped(f, eps, math.pi / np.maximum(s, 1.0), tol)
    if not res.converged:
        raise NonConvergenceError(
            f"direct quadrature stalled at orders={orders}, eps={eps}, "
            f"s in [{s.min()}, {s.max()}] "
            f"(largest estimate {np.max(res.error_estimate):.3e})"
        )
    return res.value


def _pairing_at_eps(orders, g, eps, inner_tol, outer_tol):
    """int I(s + i eps) g(s) ds over supp g by a 64-panel composite
    Gauss rule; panels with the worst embedded error estimates are
    bisected until the summed estimate passes outer_tol (deterministic,
    bounded refinement budget).  The direct integrals of all the nodes
    of one step (the initial panels, then each bisection) are one
    batched quadrature."""
    lo, hi = g.support
    n4, w4 = gauss_legendre(4)
    n2, w2 = gauss_legendre(2)
    nodes = np.concatenate((n4, n2))

    def eval_panels(a, b):
        """(estimate, a, b, value) of each panel [a_i, b_i]."""
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x = (mid[:, None] + half[:, None] * nodes).ravel()
        gi = (_direct_rows(orders, x, eps, inner_tol) * g(x)).reshape(len(a), 6)
        v4 = half * (gi[:, :4] @ w4)
        v2 = half * (gi[:, 4:] @ w2)
        return list(zip(np.abs(v4 - v2).tolist(), a.tolist(), b.tolist(), v4.tolist()))

    edges = np.linspace(lo, hi, _OUTER_PANELS + 1)
    panels = eval_panels(edges[:-1], edges[1:])

    splits = 0
    while splits < _OUTER_REFINE_BUDGET:
        total_est = sum(p[0] for p in panels)
        if total_est <= outer_tol:
            break
        panels.sort(key=lambda p: (-p[0], p[1]))
        _, a, b, _ = panels.pop(0)
        mid = 0.5 * (a + b)
        panels += eval_panels(np.array([a, mid]), np.array([mid, b]))
        splits += 1
    return sum(p[3] for p in panels)


def _oracle_report(orders, g, schedule, closed, part):
    """Pairings along the eps schedule, Richardson-extrapolated to 0 and
    compared with the closed-form pairing; `part` maps both values to
    the compared quantity."""
    scale = max(1.0, abs(closed))
    trace = []
    for eps in schedule.values:
        val = _pairing_at_eps(orders, g, eps, 1e-7, 1e-6 * scale)
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
    closed = pair(prop1_distribution(orders), g, Measure.LEBESGUE, tol=1e-9)
    return _oracle_report(orders, g, schedule, closed, complex)


def jj_pairing_oracle(orders, g, schedule=DEFAULT_EPS_SCHEDULE):
    """Same as pairing_oracle but for the J-kernel result: the real
    part of the extrapolated pairing against the closed-form pairing of
    the cos/sin distribution."""
    orders.require_bessel_bessel()
    closed = pair(prop2_distribution(orders), g, Measure.LEBESGUE, tol=1e-9)
    return _oracle_report(orders, g, schedule, closed, lambda v: complex(v).real)
