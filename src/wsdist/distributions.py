"""Boundary distributions on (0, inf) and their pairings.

The objects here are distributions of the fixed shape

    delta_coeff * delta(s - 1)
        + pv_coeff * Pv(1/(1/s - s)) * F(s),

where the density F is continuous with F(1) = 1 but generally not
differentiable at 1.  The product of the principal value with such an F
is defined through the alpha-decomposition: for any real alpha,

    Pv(1/(1/s - s)) F(s) = s^alpha Pv(1/(1/s - s))
        + (s^alpha / (1/s - s)) (s^-alpha F(s) - 1),

whose second term is locally integrable because F(s) = 1 + (s-1) h(s)
with h in L^1_loc.  Pairings below evaluate exactly this split; the
stored remainder h keeps the (s^-alpha F - 1)/(s - 1) factor free of
numerical cancellation at s = 1.  When s = 1 lies inside the support
of g, a pairing is one principal-value quadrature of
s^alpha g(s) / (1/s - s) over the support plus one tanh-sinh call whose
two rows integrate the remainder on either side of s = 1.  When s = 1
lies outside the support or within `pole_guard` of its ends, where g
vanishes with every derivative, both are ordinary quadratures over the
support.  The
quadratures see g only as a callable and that interval.

Test functions are the classical mollifier bumps
amplitude * exp(-1/(1 - t^2)), t = (s - center)/halfwidth: compactly
supported inside (0, inf) and smooth.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DomainError, SupportError, ToleranceError
from .quadrature import integrate_finite, integrate_pv, pole_guard, tanh_sinh


class Measure(Enum):
    LEBESGUE = "lebesgue"  # ds
    HAAR = "haar"  # ds / s


@dataclass(frozen=True)
class TestFunction:
    """Mollifier bump amplitude * exp(-1/(1-t^2)), t = (s-center)/halfwidth."""

    __test__ = False  # keep pytest collection away from the name

    center: float
    halfwidth: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.center, self.halfwidth, self.amplitude))):
            raise DomainError(
                f"bump center={self.center}, halfwidth={self.halfwidth} and "
                f"amplitude={self.amplitude} must be finite"
            )
        if not self.halfwidth > 0.0:
            raise SupportError(f"halfwidth={self.halfwidth} must be positive")
        if not self.center > self.halfwidth:
            raise SupportError(
                f"support [{self.center - self.halfwidth}, "
                f"{self.center + self.halfwidth}] leaves (0, inf)"
            )
        low, high = self.support
        if not low < high:
            raise SupportError(f"support [{low}, {high}] collapses to a point in floating point")

    @property
    def support(self):
        return (self.center - self.halfwidth, self.center + self.halfwidth)

    def __call__(self, s):
        arr = np.asarray(s, dtype=float)
        t = (arr - self.center) / self.halfwidth
        if arr.ndim == 0:
            if abs(t) < 1.0:
                return float(self.amplitude * math.exp(-1.0 / (1.0 - float(t) ** 2)))
            return 0.0
        out = np.zeros_like(arr)
        inside = np.abs(t) < 1.0
        out[inside] = self.amplitude * np.exp(-1.0 / (1.0 - t[inside] ** 2))
        return out


@dataclass(frozen=True)
class DistributionExpansion:
    """delta_coeff * delta(s-1) + pv_coeff * Pv(1/(1/s-s)) * F(s), with
    F(s) = 1 + (s-1) h(s) and the decomposition parameter alpha.

    F and h take an ndarray of s > 0 and return an array of its shape
    (complex or real by the distribution), and a scalar for a scalar,
    like every integrand the quadratures take."""

    delta_coeff: complex
    pv_coeff: complex
    F: Callable[[np.ndarray], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]
    alpha: float = 0.0


def _as_weighted(g, measure):
    """The effective test function: g for ds, g(s)/s for ds/s."""
    if measure is Measure.LEBESGUE:
        return g
    if measure is Measure.HAAR:
        return lambda s: g(s) / np.asarray(s, dtype=float)
    raise ValueError(f"unknown measure {measure!r}")


def _expm1_ratio(c, s):
    """expm1(c log s)/(s - 1) elementwise, Taylor-stabilized at s = 1
    (limit c, slope (c^2 - c)/2)."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    near = np.abs(s - 1.0) < 1e-6
    out[near] = c + 0.5 * (c * c - c) * (s[near] - 1.0)
    far = ~near
    out[far] = np.expm1(c * np.log(s[far])) / (s[far] - 1.0)
    return out


def _q_alpha(alpha, s):
    """(s^-alpha - 1)/(s - 1), cancellation-free, elementwise."""
    s = np.asarray(s, dtype=float)
    if alpha == 0.0:
        return np.zeros_like(s)
    return _expm1_ratio(-alpha, s)


def _pair_weighted(dist, weight, support, tol):
    """Core pairing against the effective test function weight, which
    vanishes outside the interval support."""
    lo, hi = support
    if not lo > 0.0:
        raise SupportError(f"support [{lo}, {hi}] leaves (0, inf)")
    alpha = dist.alpha
    total = dist.delta_coeff * complex(weight(1.0))  # zero when 1 is off support

    def pv_integrand(s):
        s = np.asarray(s, dtype=float)
        return s**alpha / (1.0 / s - s) * weight(s)

    def remainder(s):
        s = np.asarray(s, dtype=float)
        inner = np.power(s, -alpha) * dist.h(s) + _q_alpha(alpha, s)
        return -(s ** (alpha + 1.0)) / (s + 1.0) * inner * weight(s)

    # a non-finite integrand is reported once, as the DomainError below
    with np.errstate(over="ignore", invalid="ignore"):
        if min(1.0 - lo, hi - 1.0) >= pole_guard(1.0):
            pv = integrate_pv(pv_integrand, lo, hi, 1.0, tol)
            # h may carry an integrable log singularity at s = 1: one
            # tanh-sinh row on each side of it.  Both rows call remainder at
            # s = 1 exactly (see tanh_sinh), where h takes its fixed-offset
            # value; the pair goldens depend on that value.
            rem = tanh_sinh(lambda s, rows: remainder(s),
                            np.array([lo, 1.0]), np.array([1.0, hi]), 0.5 * tol)
        else:
            # the weight vanishes with every derivative at the ends of its
            # support, so a pole there or beyond needs no principal value
            pv = integrate_finite(pv_integrand, lo, hi, tol)
            rem = integrate_finite(remainder, lo, hi, tol)

    values = [pv.value, *np.atleast_1d(rem.value).tolist()]
    if not np.all(np.isfinite(values)):
        raise DomainError("pairing is not finite: a quadrature piece is inf or nan")
    bad = [p for p in (pv, rem) if not p.converged]
    if bad:
        # a tanh-sinh row converged iff its estimate is within tol, so a
        # stalled call's largest estimate is that of a stalled row
        worst = max(np.max(p.error_estimate) for p in bad)
        raise ToleranceError(
            f"inner quadrature stalled (error estimate {worst:.3e} > tol {tol:g})"
        )
    total += dist.pv_coeff * sum(values)
    return complex(total)


def pair(dist, g, measure=Measure.LEBESGUE, tol=1e-9):
    """Pair a DistributionExpansion with a TestFunction.

    Returns delta_coeff * g~(1) plus the alpha-decomposed principal
    value integral, where g~ is g for the Lebesgue measure and g/s for
    the Haar measure ds/s.

    The alpha-split is tailored to the singularity at s = 1; for test
    functions concentrated near s = 0 the densities of interest grow
    like a power of 1/s and the inner quadratures converge slowly.
    """
    return _pair_weighted(dist, _as_weighted(g, measure), g.support, tol)


def pair_alpha_invariance_check(dist, g, alphas, tol=1e-9):
    """Max pairwise deviation of the Lebesgue pairing across
    decomposition parameters; an algebraic identity, so this measures
    quadrature noise only."""
    alphas = list(alphas)
    if len(alphas) < 2:
        raise ValueError("need at least two alpha values to compare")
    values = [
        pair(replace(dist, alpha=float(a)), g, tol=tol)
        for a in alphas
    ]
    worst = 0.0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            worst = max(worst, abs(values[i] - values[j]))
    return worst


def sokhotski_pair(g, eps, tol=1e-10):
    """int g(s) / ((1+eps^2)/s - s - 2 i eps) ds over the support of g.

    For eps > 0 the denominator never vanishes on the real line, so
    this is plain quadrature; its eps -> 0 limit is the principal-value
    pairing plus i (pi/2) g(1).
    """
    if not eps > 0.0:
        raise ValueError(f"eps={eps} must be positive")
    lo, hi = g.support

    def f(s):
        s = np.asarray(s, dtype=float)
        denom = (1.0 + eps * eps) / s - s - 2j * eps
        return g(s) / denom

    res = integrate_finite(f, lo, hi, tol)
    if not res.converged:
        raise ToleranceError(
            f"sokhotski quadrature stalled (estimate {res.error_estimate:.3e})"
        )
    return complex(res.value)

