"""Built-in invariant checks, runnable from the command line.

Each check returns the worst deviation it observed (NaN if any sample
gave NaN); it passes when that deviation is at or below its tolerance.
The keyword arguments of a check are its sample set, defaulting to the
samples `run_selftest` uses; the acceptance suite and the unit tests
call the same functions with their own samples and tolerances.  The
tolerances in `CHECKS` are the defaults unless the caller overrides
them (the CLI's --tol does exactly that; an absurd override like 1e-30
is the documented way to exercise the failure paths).
"""

import math
from dataclasses import replace

import numpy as np

from .distributions import (
    Measure,
    TestFunction,
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

_VALID_PAIRS = ((0.0, 1.0), (1.0, 2.0), (0.5, 1.5), (2.0, 1.0), (1.0, 1.0), (0.3, 0.8))
_BUMP = TestFunction(1.0, 0.5)


def _worst(devs):
    """The largest deviation; NaN when any is NaN, so a NaN never passes."""
    return float(np.max(devs))


def hankel_k_identity(xs=np.linspace(0.1, 20.0, 24)):
    """H1 through the K identity against J + iY on the real axis."""
    devs = []
    for mu in (0.0, 0.5, 1.0, 2.0):
        h = hankel1_complex(mu, xs.astype(complex))
        ref = bessel_j(mu, xs) + 1j * _bessel_y(mu, xs)
        devs.append(float(np.max(np.abs(h - ref) / np.abs(ref))))
    return _worst(devs)


def euler_transform(
    pairs=_VALID_PAIRS,
    zs=np.concatenate([np.linspace(-5.0, 0.0, 9), np.linspace(0.05, 0.95, 7)]),
):
    """(1 - z) 2F1(a+1, b+1; c; z) = 2F1(a, b; c; z) at the density's
    parameters a, b, c = (nu+mu)/2, (nu-mu)/2, nu+1."""
    devs = []
    for mu, nu in pairs:
        a, b, c = (nu + mu) / 2.0, (nu - mu) / 2.0, nu + 1.0
        for z in zs:
            lhs = hyp2f1(HypParams(a + 1.0, b + 1.0, c), complex(z)) * (1.0 - z)
            rhs = hyp2f1(HypParams(a, b, c), complex(z))
            devs.append(abs(lhs - rhs) / max(1.0, abs(rhs)))
    return _worst(devs)


def gauss_normalization():
    """Gauss's sum makes F(1) = 1 at 20 seeded random valid order pairs."""
    rng = np.random.default_rng(20080301)
    devs = []
    for _ in range(20):
        nu = rng.uniform(-0.9, 6.0)
        mu = rng.uniform(-(nu + 2.0) * 0.95, (nu + 2.0) * 0.95)
        a, b, c = (nu + mu) / 2.0, (nu - mu) / 2.0, nu + 1.0
        pre = gamma(a + 1.0) * gamma(b + 1.0) / gamma(c)
        val = pre * hyp2f1_boundary(HypParams(a, b, c), BranchPoint(1.0))
        devs.append(abs(val - 1.0))
    return _worst(devs)


def closed_form_integrals():
    devs = [
        abs(integrate_finite(np.sin, 0.0, math.pi, 1e-11).value - 2.0),
        abs(integrate_finite(lambda s: s**-0.5, 0.0, 1.0, 1e-9).value - 2.0),
    ]
    for eps in (1.0, 0.1):
        r = integrate_semiinfinite_damped(
            lambda k, rows: np.exp(-eps * k) * np.sin(k), eps, np.array([math.pi]), 1e-10
        )
        devs.append(abs(r.value[0] - 1.0 / (1.0 + eps * eps)))
    return _worst(devs)


def richardson_polynomial():
    v, _ = richardson([(0.4, 1.0 + 0.8 + 0.48), (0.2, 1.0 + 0.4 + 0.12), (0.1, 1.0 + 0.2 + 0.03)])
    return abs(v - 1.0)


def pv_antisymmetry():
    g = TestFunction(1.0, 0.4)
    res = integrate_pv(lambda s: 1.0 / (1.0 - s) * g(s), *g.support, 1.0, 1e-11)
    return abs(res.value)


def alpha_invariance(pairs=((0.0, 1.0), (0.5, 1.5)), bumps=(_BUMP,)):
    """The prop-1 pairing does not depend on the alpha of its PV split."""
    devs = []
    for mu, nu in pairs:
        dist = prop1_distribution(OrderPair(mu, nu))
        for g in bumps:
            devs.append(pair_alpha_invariance_check(dist, g, [0.0, 1.0, 2.0], tol=1e-10))
    return _worst(devs)


def _as_lebesgue(dist):
    """T' with the coefficients of T, F' = F/s and h' = (h - 1)/s: its
    ds pairing is the ds/s pairing of T."""
    return replace(dist, F=lambda s: dist.F(s) / s, h=lambda s: (dist.h(s) - 1.0) / s)


def measure_consistency(pairs=((0.0, 1.0),), bumps=(_BUMP,)):
    """The prop-1 ds/s pairing of T against the ds pairing of T'
    (_as_lebesgue); the two sides integrate different functions."""
    devs = []
    for mu, nu in pairs:
        dist = prop1_distribution(OrderPair(mu, nu))
        moved = _as_lebesgue(dist)
        for g in bumps:
            devs.append(abs(pair(dist, g, Measure.HAAR, tol=1e-10) - pair(moved, g, tol=1e-10)))
    return _worst(devs)


def delta_pairing():
    g = TestFunction(1.0, 0.5, amplitude=2.0)
    dist = prop2_distribution(OrderPair(1.0, 1.0))
    return abs(pair(dist, g) - 2.0 * math.exp(-1.0))


def sokhotski_limit(bumps=(_BUMP,), epss=(0.2, 0.1, 0.05, 0.025, 0.0125)):
    """Sokhotski-Plemelj: the eps-regularized pairing, Richardson-
    extrapolated to eps = 0, is the PV pairing plus i (pi/2) g(1)."""
    devs = []
    for g in bumps:
        pv = integrate_pv(
            lambda s: 1.0 / (1.0 / s - s) * g(s), *g.support, 1.0, 1e-11
        ).value
        target = pv + 0.5j * math.pi * g(1.0)
        lim, _ = richardson([(e, sokhotski_pair(g, e, tol=1e-11)) for e in epss])
        devs.append(abs(lim - target))
    return _worst(devs)


def route_equality(pairs=_VALID_PAIRS):
    """The factored and the unfactored route to I(s + i eps) agree."""
    devs = []
    for mu, nu in pairs:
        orders = OrderPair(mu, nu)
        for s in (0.3, 0.7, 1.0, 1.5, 3.0):
            for eps in (0.05, 0.2, 1.0):
                v1 = regularized_I(orders, RegularizedPoint(s, eps))
                v2 = _regularized_watson(orders, s, eps)
                devs.append(abs(v1 - v2) / max(1.0, abs(v1)))
    return _worst(devs)


def density_normalization():
    """F(1) = m0(1) = 1, and the m0 branch mismatch across s = 1
    shrinks with the offset (it scales like delta log delta, so only
    the trend and the limit are meaningful)."""
    devs = []
    for mu, nu in _VALID_PAIRS:
        d1 = prop1_distribution(OrderPair(mu, nu))
        devs.append(abs(d1.F(1.0) - 1.0))
        d2 = prop2_distribution(OrderPair(mu, nu))
        devs.append(abs(d2.F(1.0) - 1.0))
        jumps = [
            abs(d2.F(1.0 - delta) - d2.F(1.0 + delta))
            for delta in (1e-2, 1e-4, 1e-6)
        ]
        if not jumps[0] > jumps[1] > jumps[2]:
            devs.append(1.0)
        devs.append(jumps[2] * 1e-2)  # ~delta log delta at 1e-6
    return _worst(devs)


def reflection_identity(pairs=((0.0, 1.0), (0.5, 1.5), (1.0, 2.0))):
    """The prop-2 density under (mu, nu, s) -> (nu, mu, 1/s)."""
    devs = []
    for mu, nu in pairs:
        for s in (0.25, 0.5, 2.0, 4.0):
            devs.append(reflection_check(OrderPair(mu, nu), s))
    return _worst(devs)


def realpart_consistency(bumps=(_BUMP,)):
    """The real parts of the prop-1 and prop-2 pairings agree."""
    devs = []
    for mu, nu in _VALID_PAIRS:
        d1 = prop1_distribution(OrderPair(mu, nu))
        d2 = prop2_distribution(OrderPair(mu, nu))
        for g in bumps:
            devs.append(abs(pair(d1, g, tol=1e-10).real - pair(d2, g, tol=1e-10).real))
    return _worst(devs)


def direct_vs_closed_form(pairs=((0.0, 0.0),), ss=(1.5,), epss=(0.1,), inner_tol=1e-8):
    """Direct quadrature of I(s + i eps) against the closed form."""
    devs = []
    for mu, nu in pairs:
        orders = OrderPair(mu, nu)
        for s in ss:
            for eps in epss:
                pt = RegularizedPoint(s, eps)
                vd = I_direct(orders, pt, inner_tol)
                vc = regularized_I(orders, pt)
                devs.append(abs(vd - vc) / max(1.0, abs(vc)))
    return _worst(devs)


# (module, check, tolerance); a check is reported under its function name
CHECKS = (
    ("specfun", hankel_k_identity, 1e-9),
    ("specfun", euler_transform, 1e-10),
    ("specfun", gauss_normalization, 1e-8),
    ("quadrature", closed_form_integrals, 1e-8),
    ("quadrature", richardson_polynomial, 1e-12),
    ("quadrature", pv_antisymmetry, 1e-10),
    ("distributions", alpha_invariance, 1e-8),
    ("distributions", measure_consistency, 1e-8),
    ("distributions", delta_pairing, 1e-12),
    ("distributions", sokhotski_limit, 1e-5),
    ("weber_schafheitlin", route_equality, 1e-10),
    ("weber_schafheitlin", density_normalization, 1e-6),
    ("weber_schafheitlin", reflection_identity, 1e-12),
    ("weber_schafheitlin", realpart_consistency, 1e-8),
    ("oracle", direct_vs_closed_form, 1e-6),
)


def run_selftest(only=None, tol_override=None):
    """Run the invariant bundle; returns True iff every check passed."""
    all_ok = True
    for module, check, default_tol in CHECKS:
        if only and module != only:
            continue
        tol = tol_override if tol_override is not None else default_tol
        try:
            dev = check()
            ok = dev <= tol
            detail = f"max_dev={dev:.3e} tol={tol:g}"
        except Exception as exc:  # a crashed check is a failed check
            ok = False
            detail = f"error: {exc!r}"
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {module}.{check.__name__}  {detail}")
    return all_ok
