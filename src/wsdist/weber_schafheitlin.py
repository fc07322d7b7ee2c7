"""Closed forms for the critical-exponent Weber-Schafheitlin integrals.

The engine is the K-kernel transform

    int_0^inf k K_mu(z k) J_nu(k) dk
        = G(nu,mu) z^(-2-nu) 2F1((nu+mu)/2+1, (nu-mu)/2+1; nu+1; -z^-2),
    G(nu,mu) = Gamma((nu+mu)/2+1) Gamma((nu-mu)/2+1) / Gamma(nu+1),

valid for Re z > 0 and nu + 2 > |mu|.  Substituting z = eps - i s and
pulling the factor singular at s = 1 out of the hypergeometric function
writes the Hankel-kernel integral at s + i eps as a product p_eps * q_eps
with

    p_eps(s) = 1 / ((1+eps^2)/s - s - 2 i eps),

whose eps -> 0 limit is Pv(1/(1/s - s)) + i (pi/2) delta(s-1), while
q_eps converges uniformly on compacts to a density.  The limit
distribution is

    e^{i pi (nu-mu)/2} delta(s-1)
        + (2/(i pi)) e^{i pi (nu-mu)/2} Pv(1/(1/s - s)) F(s),

F(s) = s^(-nu-1) G(nu,mu) 2F1((nu+mu)/2, (nu-mu)/2; nu+1; s^-2), the
boundary values on s < 1 (argument above the cut) taken from below.
The J-kernel analogue has real weights cos/sin of pi (nu-mu)/2 and the
two-branch real density m0.

F(1) = 1 by Gauss summation, and F(s) = 1 + (s-1) h(s) with h locally
integrable.  h is assembled from the split of the degenerate
(c-a-b = 1) connection formula so no F(s) - 1 subtraction happens
numerically near s = 1.  h carries a logarithmic singularity at s = 1
whenever the hypergeometric series does not terminate; the stored point
value h(1) is a fixed-offset convention (the s < 1 branch at 1 - 1e-6)
and pairings integrate across s = 1 with singularity-aware panels.
"""

import cmath
import functools
import math
from dataclasses import dataclass

from .distributions import DistributionExpansion
from .errors import DomainError, OrderError
from .specfun import HypParams, gamma, hyp2f1
from .specfun.hyp import _boundary_below, _one_minus_z_log_parts

_H_STABLE_BAND = 0.2  # |s-1| below this uses the split form of F - 1
_H_CLIP = 1e-14  # quadrature nodes closer to 1 than this are clipped
_H_POINT_OFFSET = 1e-6  # convention: h(1) := h(1 - offset)
_ROUTE_CHECK_TOL = 1e-8


def _clip_near_one(s):
    """Keep |s - 1| >= _H_CLIP so the log singularity stays evaluable;
    the densities are only ever integrated against weights that make
    the clipped sliver irrelevant."""
    if s != 1.0 and abs(s - 1.0) < _H_CLIP:
        return 1.0 - _H_CLIP if s < 1.0 else 1.0 + _H_CLIP
    return s


def _expm1_ratio(c, s):
    """expm1(c log s)/(s - 1), Taylor-stabilized at s = 1."""
    if abs(s - 1.0) < 1e-6:
        return c + 0.5 * (c * c - c) * (s - 1.0)
    return math.expm1(c * math.log(s)) / (s - 1.0)


@dataclass(frozen=True)
class OrderPair:
    """Bessel orders (mu, nu) with the propositions' validity checks."""

    mu: float
    nu: float

    def require_hankel_bessel(self):
        """Strict constraint nu + 2 > |mu| of the Hankel-kernel result."""
        if not self.nu + 2.0 > abs(self.mu):
            raise OrderError(
                f"orders (mu={self.mu}, nu={self.nu}) violate nu + 2 > |mu|"
            )

    def require_bessel_bessel(self):
        """Both strict constraints of the J-kernel result."""
        self.require_hankel_bessel()
        if not self.mu + 2.0 > abs(self.nu):
            raise OrderError(
                f"orders (mu={self.mu}, nu={self.nu}) violate mu + 2 > |nu|"
            )


@dataclass(frozen=True)
class RegularizedPoint:
    """The complex point z = s + i eps regularizing the integral."""

    s: float
    eps: float

    def __post_init__(self):
        if not self.s > 0.0:
            raise DomainError(f"s={self.s} must be positive")
        if not self.eps > 0.0:
            raise DomainError(f"eps={self.eps} must be positive")


@functools.lru_cache(maxsize=8)
def _gamma_prefactor(mu, nu):
    """G(nu, mu); cached per order pair because every density point
    needs it.  With the orders swapped it is the prefactor of the
    J-kernel density's s <= 1 branch."""
    return (
        gamma((nu + mu) / 2.0 + 1.0)
        * gamma((nu - mu) / 2.0 + 1.0)
        / gamma(nu + 1.0)
    )


def k_transform(orders, z):
    """Closed form of int_0^inf k K_mu(z k) J_nu(k) dk, Re z > 0."""
    orders.require_hankel_bessel()
    z = complex(z)
    if not z.real > 0.0:
        raise DomainError(f"k_transform requires Re z > 0, got {z}")
    mu, nu = orders.mu, orders.nu
    params = HypParams((nu + mu) / 2.0 + 1.0, (nu - mu) / 2.0 + 1.0, nu + 1.0)
    return _gamma_prefactor(mu, nu) * z ** (-2.0 - nu) * hyp2f1(params, -(z**-2.0))


def _regularized_watson(orders, s, eps):
    """(2/(i pi)) e^{-i pi mu/2} x k_transform at z = eps - i s."""
    phase = (2.0 / (1j * math.pi)) * cmath.exp(-0.5j * math.pi * orders.mu)
    return phase * k_transform(orders, complex(eps, -s))


def _p_eps(s, eps):
    """The factor whose eps -> 0 limit is Pv + i (pi/2) delta."""
    return 1.0 / complex((1.0 + eps * eps) / s - s, -2.0 * eps)


def _q_eps(orders, s, eps):
    """The regular cofactor: regularized_I = p_eps * q_eps."""
    mu, nu = orders.mu, orders.nu
    z = complex(s, eps)
    params = HypParams((nu + mu) / 2.0, (nu - mu) / 2.0, nu + 1.0)
    phase = (2.0 / (1j * math.pi)) * cmath.exp(0.5j * math.pi * (nu - mu))
    return (
        phase * z ** (-nu) / s * _gamma_prefactor(mu, nu) * hyp2f1(params, z**-2.0)
    )


def regularized_I(orders, pt):
    """int_0^inf k H1_mu((s + i eps) k) J_nu(k) dk in closed form.

    Evaluates the factored route p_eps * q_eps; in debug runs the
    unfactored K-transform route is evaluated too and the two must
    agree, which pins every complex-power branch choice in the chain
    (-is + eps)^(-2-nu) = -e^{i pi nu/2} (s + i eps)^(-2-nu).
    """
    orders.require_hankel_bessel()
    s, eps = pt.s, pt.eps
    value = _p_eps(s, eps) * _q_eps(orders, s, eps)
    if __debug__:
        other = _regularized_watson(orders, s, eps)
        rel = abs(value - other) / max(1.0, abs(value))
        assert rel <= _ROUTE_CHECK_TOL, (
            f"route disagreement {rel:.3e} at orders={orders}, pt={pt}"
        )
    return value


def _density_tail_above(mu, nu, s):
    """Split of G * 2F1 at argument x = s^-2 near x = 1:
    F(s) = s^(-nu-1) (1 + w * ptail), w = 1 - s^-2 (from-below log on
    s < 1, where w < 0)."""
    a, b = (nu + mu) / 2.0, (nu - mu) / 2.0
    w = (s * s - 1.0) / (s * s)
    if s < 1.0:
        logw = complex(math.log(-w), math.pi)
    else:
        logw = complex(math.log(w), 0.0)
    _, tail = _one_minus_z_log_parts(a, b, 1, complex(w), logw)
    return w, _gamma_prefactor(mu, nu) * tail


def _prop1_F(mu, nu, s):
    """Density F(s) = s^(-nu-1) G 2F1(a, b; c; s^-2), from below on s < 1."""
    a, b, c = (nu + mu) / 2.0, (nu - mu) / 2.0, nu + 1.0
    if s == 1.0:
        return 1.0 + 0.0j
    s = _clip_near_one(s)
    if abs(s - 1.0) < _H_STABLE_BAND:
        w, ptail = _density_tail_above(mu, nu, s)
        return s ** (-nu - 1.0) * (1.0 + w * ptail)
    x = s**-2.0
    pre = _gamma_prefactor(mu, nu)
    if s > 1.0:
        val = hyp2f1(HypParams(a, b, c), complex(x))
    else:
        val = _boundary_below(a, b, c, x)
    return s ** (-nu - 1.0) * pre * val


def _prop1_h(mu, nu, s):
    """h(s) = (F(s) - 1)/(s - 1) free of numerical differencing near
    s = 1 (the finite split part cancels exactly by the Gauss
    normalization G * FIN = 1)."""
    if s == 1.0:
        s = 1.0 - _H_POINT_OFFSET
    s = _clip_near_one(s)
    if abs(s - 1.0) < _H_STABLE_BAND:
        _, ptail = _density_tail_above(mu, nu, s)
        lin = _expm1_ratio(-(nu + 1.0), s)
        return lin + s ** (-nu - 1.0) * ((s + 1.0) / (s * s)) * ptail
    return (_prop1_F(mu, nu, s) - 1.0) / (s - 1.0)


def prop1_distribution(orders, alpha=0.0):
    """The Hankel-kernel integral as a boundary distribution:

        e^{i pi (nu-mu)/2} [ delta(s-1) + (2/(i pi)) Pv(1/(1/s-s)) F(s) ]

    with the remainder h split off for cancellation-free pairing."""
    orders.require_hankel_bessel()
    mu, nu = orders.mu, orders.nu
    phase = cmath.exp(0.5j * math.pi * (nu - mu))
    return DistributionExpansion(
        delta_coeff=phase,
        pv_coeff=(2.0 / (1j * math.pi)) * phase,
        F=lambda s: _prop1_F(mu, nu, _check_pos(s)),
        h=lambda s: _prop1_h(mu, nu, _check_pos(s)),
        alpha=float(alpha),
    )


def _m0_tail_below(mu, nu, s):
    """Split of the s <= 1 branch of m0 at argument x = s^2:
    m0(s) = s^(mu-1) (1 + w * ptail), w = 1 - s^2 >= 0."""
    a, b = (mu + nu) / 2.0, (mu - nu) / 2.0
    w = 1.0 - s * s
    _, tail = _one_minus_z_log_parts(a, b, 1, complex(w), complex(math.log(w)))
    return w, _gamma_prefactor(nu, mu) * tail


def _prop2_m0(mu, nu, s):
    """Two-branch real density of the J-kernel result; m0(1) = 1."""
    if s == 1.0:
        return 1.0
    s = _clip_near_one(s)
    if s > 1.0:
        return _prop1_F(mu, nu, s).real
    if s > 1.0 - _H_STABLE_BAND:
        w, ptail = _m0_tail_below(mu, nu, s)
        return s ** (mu - 1.0) * (1.0 + w * ptail.real)
    a, b, c = (mu + nu) / 2.0, (mu - nu) / 2.0, mu + 1.0
    pre = _gamma_prefactor(nu, mu)
    return s ** (mu - 1.0) * pre * hyp2f1(HypParams(a, b, c), complex(s * s)).real


def _prop2_h(mu, nu, s):
    if s == 1.0:
        s = 1.0 - _H_POINT_OFFSET
    s = _clip_near_one(s)
    if s > 1.0:
        return _prop1_h(mu, nu, s).real
    if s > 1.0 - _H_STABLE_BAND:
        _, ptail = _m0_tail_below(mu, nu, s)
        lin = _expm1_ratio(mu - 1.0, s)
        return lin - s ** (mu - 1.0) * (s + 1.0) * ptail.real
    return (_prop2_m0(mu, nu, s) - 1.0) / (s - 1.0)


def prop2_distribution(orders):
    """The J-kernel integral as a boundary distribution:

        cos(pi(nu-mu)/2) delta(s-1)
            + (2/pi) sin(pi(nu-mu)/2) Pv(1/(1/s-s)) m0(s),

    m0 real and continuous with m0(1) = 1; branch s <= 1 in powers of
    s^2, branch s > 1 in powers of s^-2."""
    orders.require_bessel_bessel()
    mu, nu = orders.mu, orders.nu
    half_angle = 0.5 * math.pi * (nu - mu)
    return DistributionExpansion(
        delta_coeff=math.cos(half_angle),
        pv_coeff=(2.0 / math.pi) * math.sin(half_angle),
        F=lambda s: _prop2_m0(mu, nu, _check_pos(s)),
        h=lambda s: _prop2_h(mu, nu, _check_pos(s)),
        alpha=0.0,
    )


def reflection_check(orders, s):
    """Deviation of the regular density under (mu,nu,s) -> (nu,mu,1/s)
    rescaled by s^-2; an algebraic identity of the two-branch
    construction, so the deviation is pure round-off."""
    orders.require_bessel_bessel()
    s = float(s)
    if s == 1.0:
        raise DomainError("reflection identity is stated for s != 1")
    if not s > 0.0:
        raise DomainError(f"s={s} must be positive")
    mu, nu = orders.mu, orders.nu

    def density(m, n, x):
        pv = (2.0 / math.pi) * math.sin(0.5 * math.pi * (n - m))
        return pv * _prop2_m0(m, n, x) / (1.0 / x - x)

    return abs(density(mu, nu, s) - s**-2.0 * density(nu, mu, 1.0 / s))


def _check_pos(s):
    s = float(s)
    if not s > 0.0:
        raise DomainError(f"density argument s={s} must be positive")
    return s
