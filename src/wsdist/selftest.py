"""Built-in invariant checks, runnable from the command line.

Each check returns the worst deviation it observed; it passes when that
deviation is at or below its tolerance.  The tolerances are the
module-level defaults unless the caller overrides them (the CLI's
--tol does exactly that; an absurd override like 1e-30 is the
documented way to exercise the failure paths).
"""

import math

import numpy as np

from .distributions import (
    Measure,
    TestFunction,
    _Window,
    _pair_weighted,
    pair,
    pair_alpha_invariance_check,
    sokhotski_pair,
)
from .quadrature import integrate_finite, integrate_pv, integrate_semiinfinite_damped, richardson
from .specfun import (
    BranchPoint,
    HypParams,
    bessel_j,
    gamma,
    hankel1_complex,
    hyp2f1,
    hyp2f1_boundary,
)
from .specfun.besselj import _bessel_y
from .oracle import I_direct
from .weber_schafheitlin import (
    OrderPair,
    RegularizedPoint,
    _regularized_watson,
    prop1_distribution,
    prop2_distribution,
    reflection_check,
    regularized_I,
)

_VALID_PAIRS = [(0.0, 1.0), (1.0, 2.0), (0.5, 1.5), (2.0, 1.0), (1.0, 1.0), (0.3, 0.8)]


def _check_hankel_identity():
    worst = 0.0
    xs = np.linspace(0.1, 20.0, 24)
    for mu in (0.0, 0.5, 1.0, 2.0):
        h = hankel1_complex(mu, xs.astype(complex))
        ref = bessel_j(mu, xs) + 1j * _bessel_y(mu, xs)
        worst = max(worst, float(np.max(np.abs(h - ref) / np.abs(ref))))
    return worst


def _check_euler_transform():
    worst = 0.0
    zs = np.concatenate([np.linspace(-5.0, 0.0, 9), np.linspace(0.05, 0.95, 7)])
    for mu, nu in _VALID_PAIRS:
        a, b, c = (nu + mu) / 2.0, (nu - mu) / 2.0, nu + 1.0
        for z in zs:
            lhs = hyp2f1(HypParams(a + 1.0, b + 1.0, c), complex(z)) * (1.0 - z)
            rhs = hyp2f1(HypParams(a, b, c), complex(z))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst


def _check_gauss_normalization():
    rng = np.random.default_rng(20080301)
    worst = 0.0
    for _ in range(20):
        nu = rng.uniform(-0.9, 6.0)
        mu = rng.uniform(-(nu + 2.0) * 0.95, (nu + 2.0) * 0.95)
        a, b, c = (nu + mu) / 2.0, (nu - mu) / 2.0, nu + 1.0
        pre = gamma(a + 1.0) * gamma(b + 1.0) / gamma(c)
        val = pre * hyp2f1_boundary(HypParams(a, b, c), BranchPoint(1.0))
        worst = max(worst, abs(val - 1.0))
    return worst


def _check_quadrature_closed_forms():
    worst = abs(integrate_finite(np.sin, 0.0, math.pi, 1e-11).value - 2.0)
    worst = max(
        worst, abs(integrate_finite(lambda s: s**-0.5, 0.0, 1.0, 1e-9).value - 2.0)
    )
    for eps in (1.0, 0.1):
        r = integrate_semiinfinite_damped(
            lambda k: np.exp(-eps * k) * np.sin(k), eps, math.pi, 1e-10
        )
        worst = max(worst, abs(r.value - 1.0 / (1.0 + eps * eps)))
    return float(worst)


def _check_richardson():
    v, _ = richardson([(0.4, 1.0 + 0.8 + 0.48), (0.2, 1.0 + 0.4 + 0.12), (0.1, 1.0 + 0.2 + 0.03)])
    return abs(v - 1.0)


def _check_pv_antisymmetry():
    g = TestFunction(1.0, 0.4)
    res = integrate_pv(lambda s: 1.0 / (1.0 - np.asarray(s, float)), g, 1.0, 1e-11)
    return abs(res.value)


def _check_alpha_invariance():
    g = TestFunction(1.0, 0.5)
    worst = 0.0
    for mu, nu in ((0.0, 1.0), (0.5, 1.5)):
        dist = prop1_distribution(OrderPair(mu, nu))
        worst = max(worst, pair_alpha_invariance_check(dist, g, [0.0, 1.0, 2.0], tol=1e-10))
    return worst


def _check_measure_consistency():
    g = TestFunction(1.0, 0.5)
    dist = prop1_distribution(OrderPair(0.0, 1.0))
    vh = pair(dist, g, Measure.HAAR, tol=1e-10)
    vl = _pair_weighted(
        dist, _Window(lambda s: g(s) / np.asarray(s, float), g.support), 1e-10
    )
    return abs(vh - vl)


def _check_delta_pairing():
    g = TestFunction(1.0, 0.5, amplitude=2.0)
    dist = prop2_distribution(OrderPair(1.0, 1.0))
    return abs(pair(dist, g) - 2.0 * math.exp(-1.0))


def _check_sokhotski_limit():
    g = TestFunction(1.0, 0.5)
    pv = integrate_pv(
        lambda s: 1.0 / (1.0 / np.asarray(s, float) - np.asarray(s, float)), g, 1.0, 1e-11
    ).value
    target = pv + 0.5j * math.pi * g(1.0)
    seq = [(e, sokhotski_pair(g, e, tol=1e-11)) for e in (0.2, 0.1, 0.05, 0.025, 0.0125)]
    lim, _ = richardson(seq)
    return abs(lim - target)


def _check_route_equality():
    worst = 0.0
    for mu, nu in _VALID_PAIRS:
        orders = OrderPair(mu, nu)
        for s in (0.3, 0.7, 1.0, 1.5, 3.0):
            for eps in (0.05, 0.2, 1.0):
                pt = RegularizedPoint(s, eps)
                v1 = regularized_I(orders, pt)
                v2 = _regularized_watson(orders, s, eps)
                worst = max(worst, abs(v1 - v2) / max(1.0, abs(v1)))
    return worst


def _check_density_normalization():
    """F(1) = m0(1) = 1, and the m0 branch mismatch across s = 1
    shrinks with the offset (it scales like delta log delta, so only
    the trend and the limit are meaningful)."""
    worst = 0.0
    for mu, nu in _VALID_PAIRS:
        d1 = prop1_distribution(OrderPair(mu, nu))
        worst = max(worst, abs(d1.F(1.0) - 1.0))
        d2 = prop2_distribution(OrderPair(mu, nu))
        worst = max(worst, abs(d2.F(1.0) - 1.0))
        jumps = [
            abs(d2.F(1.0 - delta) - d2.F(1.0 + delta))
            for delta in (1e-2, 1e-4, 1e-6)
        ]
        if not jumps[0] > jumps[1] > jumps[2]:
            worst = max(worst, 1.0)
        worst = max(worst, jumps[2] * 1e-2)  # ~delta log delta at 1e-6
    return worst


def _check_reflection():
    worst = 0.0
    for mu, nu in ((0.0, 1.0), (0.5, 1.5), (1.0, 2.0)):
        for s in (0.25, 0.5, 2.0, 4.0):
            worst = max(worst, reflection_check(OrderPair(mu, nu), s))
    return worst


def _check_realpart_consistency():
    g = TestFunction(1.0, 0.5)
    worst = 0.0
    for mu, nu in _VALID_PAIRS:
        p1 = pair(prop1_distribution(OrderPair(mu, nu)), g, tol=1e-10)
        p2 = pair(prop2_distribution(OrderPair(mu, nu)), g, tol=1e-10)
        worst = max(worst, abs(p1.real - p2.real))
    return worst


def _check_direct_vs_closed():
    orders = OrderPair(0.0, 0.0)
    pt = RegularizedPoint(1.5, 0.1)
    vd = I_direct(orders, pt, 1e-8)
    vc = regularized_I(orders, pt)
    return abs(vd - vc) / max(1.0, abs(vc))


CHECKS = (
    ("specfun", "hankel_k_identity", _check_hankel_identity, 1e-9),
    ("specfun", "euler_transform", _check_euler_transform, 1e-10),
    ("specfun", "gauss_normalization", _check_gauss_normalization, 1e-8),
    ("quadrature", "closed_form_integrals", _check_quadrature_closed_forms, 1e-8),
    ("quadrature", "richardson_polynomial", _check_richardson, 1e-12),
    ("quadrature", "pv_antisymmetry", _check_pv_antisymmetry, 1e-10),
    ("distributions", "alpha_invariance", _check_alpha_invariance, 1e-8),
    ("distributions", "measure_consistency", _check_measure_consistency, 1e-8),
    ("distributions", "delta_pairing", _check_delta_pairing, 1e-12),
    ("distributions", "sokhotski_limit", _check_sokhotski_limit, 1e-5),
    ("weber_schafheitlin", "route_equality", _check_route_equality, 1e-10),
    ("weber_schafheitlin", "density_normalization", _check_density_normalization, 1e-6),
    ("weber_schafheitlin", "reflection_identity", _check_reflection, 1e-12),
    ("weber_schafheitlin", "realpart_consistency", _check_realpart_consistency, 1e-8),
    ("oracle", "direct_vs_closed_form", _check_direct_vs_closed, 1e-6),
)


def run_selftest(only=None, tol_override=None, out=print):
    """Run the invariant bundle; returns True iff every check passed."""
    all_ok = True
    for module, name, fn, default_tol in CHECKS:
        if only and module != only:
            continue
        tol = tol_override if tol_override is not None else default_tol
        try:
            dev = fn()
            ok = dev <= tol
            detail = f"max_dev={dev:.3e} tol={tol:g}"
        except Exception as exc:  # a crashed check is a failed check
            ok = False
            detail = f"error: {exc!r}"
        all_ok &= ok
        out(f"{'PASS' if ok else 'FAIL'}  {module}.{name}  {detail}")
    return all_ok
