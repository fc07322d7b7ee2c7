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
value is the fixed-offset convention h(1) := h(1 - 1e-6), and pairings
integrate across s = 1 with singularity-aware panels.

Each proposition has one scalar kernel, _prop1 and _prop2, returning
the pair (F, h) at one point: the s = 1 test, the clip away from 1 and
the choice of series are made once, so F and h always come from the
same evaluation.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionExpansion
from .errors import DomainError, OrderError
from .specfun import HypParams, gamma, hyp2f1
from .specfun.besselj import MAX_ORDER_J
from .specfun.besselk import MAX_ORDER_K
from .specfun.hyp import _boundary_below, _one_minus_z_log_parts

_H_STABLE_BAND = 0.2  # |s-1| below this uses the split form of F - 1
_H_CLIP = 1e-14  # quadrature nodes closer to 1 than this are clipped
_H_POINT_OFFSET = 1e-6  # convention: h(1) := h(1 - offset)


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
        """Strict constraint nu + 2 > |mu| of the Hankel-kernel result,
        on the documented domain |mu| <= 10, |nu| <= 50."""
        if not self.nu + 2.0 > abs(self.mu):
            raise OrderError(
                f"orders (mu={self.mu}, nu={self.nu}) violate nu + 2 > |mu|"
            )
        if not (abs(self.mu) <= MAX_ORDER_K and abs(self.nu) <= MAX_ORDER_J):
            raise OrderError(
                f"orders (mu={self.mu}, nu={self.nu}) leave"
                f" |mu| <= {MAX_ORDER_K:g}, |nu| <= {MAX_ORDER_J:g}"
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


def _kernel_order(order):
    """The order whose density kernel serves `order`: J_-1 = -J_1 negates
    the integral, and the delta and PV coefficients, computed from the
    given orders, carry that sign, so order -1 (the one negative integer
    in the domain, where c = nu + 1 or mu + 1 would be a Gamma pole)
    takes the densities of order +1."""
    return 1.0 if order == -1.0 else order


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


def _order_minus_one(transform):
    """transform after the order checks; at nu = -1, where c = nu + 1 is a
    Gamma pole, minus transform at nu = +1 (J_-1 = -J_1, as in _kernel_order)."""

    @functools.wraps(transform)
    def served(orders, x):
        orders.require_hankel_bessel()
        if orders.nu == -1.0:
            return -transform(OrderPair(orders.mu, 1.0), x)
        return transform(orders, x)

    return served


@_order_minus_one
def k_transform(orders, z):
    """Closed form of int_0^inf k K_mu(z k) J_nu(k) dk, Re z > 0."""
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


@_order_minus_one
def regularized_I(orders, pt):
    """int_0^inf k H1_mu((s + i eps) k) J_nu(k) dk in closed form: p_eps
    times its regular cofactor q_eps.  selftest's route_equality checks it
    against the unfactored _regularized_watson, which pins every complex-power
    branch choice in (-is + eps)^(-2-nu) = -e^{i pi nu/2} (s + i eps)^(-2-nu)."""
    mu, nu, s, eps = orders.mu, orders.nu, pt.s, pt.eps
    z = complex(s, eps)
    params = HypParams((nu + mu) / 2.0, (nu - mu) / 2.0, nu + 1.0)
    phase = (2.0 / (1j * math.pi)) * cmath.exp(0.5j * math.pi * (nu - mu))
    return _p_eps(s, eps) * (
        phase * z ** (-nu) / s * _gamma_prefactor(mu, nu) * hyp2f1(params, z**-2.0)
    )


def _prop1(mu, nu, s):
    """(F(s), h(s)) of the Hankel-kernel result, F from below on s < 1.

    F(s) = s^(-nu-1) G 2F1(a, b; c; s^-2) and h = (F - 1)/(s - 1), both
    at one clipped point x (x = 1 - 1e-6 for s = 1, where F is the
    exact 1 and h takes its fixed-offset value).  Inside the split band
    both come from one tail of the degenerate 1 - z series,
    F = x^(-nu-1) (1 + w * ptail), w = 1 - x^-2 (from-below log on
    x < 1): the finite split part cancels exactly by the Gauss
    normalization G * FIN = 1, so h needs no F - 1 subtraction there."""
    a, b, c = (nu + mu) / 2.0, (nu - mu) / 2.0, nu + 1.0
    x = _clip_near_one(1.0 - _H_POINT_OFFSET if s == 1.0 else s)
    power = x ** (-nu - 1.0)
    if abs(x - 1.0) < _H_STABLE_BAND:
        w = (x * x - 1.0) / (x * x)
        if x < 1.0:
            logw = complex(math.log(-w), math.pi)
        else:
            logw = complex(math.log(w), 0.0)
        _, tail = _one_minus_z_log_parts(a, b, 1, complex(w), logw)
        ptail = _gamma_prefactor(mu, nu) * tail
        F = power * (1.0 + w * ptail)
        h = _expm1_ratio(-(nu + 1.0), x) + power * ((x + 1.0) / (x * x)) * ptail
    else:
        pre = _gamma_prefactor(mu, nu)  # before the series: c = 0 reports the Gamma pole
        if x > 1.0:
            val = hyp2f1(HypParams(a, b, c), complex(x**-2.0))
        else:
            val = _boundary_below(a, b, c, x**-2.0)
        F = power * pre * val
        h = (F - 1.0) / (x - 1.0)
    return (1.0 + 0.0j if s == 1.0 else F), h


def prop1_distribution(orders):
    """The Hankel-kernel integral as a boundary distribution:

        e^{i pi (nu-mu)/2} [ delta(s-1) + (2/(i pi)) Pv(1/(1/s-s)) F(s) ]

    with the remainder h split off for cancellation-free pairing."""
    orders.require_hankel_bessel()
    mu, nu = orders.mu, orders.nu
    phase = cmath.exp(0.5j * math.pi * (nu - mu))
    # F is even in mu, so mu = -1 needs no mapping and keeps its bits
    F, h = _pointwise(_prop1, mu, _kernel_order(nu), complex)
    return DistributionExpansion(
        delta_coeff=phase,
        pv_coeff=(2.0 / (1j * math.pi)) * phase,
        F=F,
        h=h,
    )


def _prop2(mu, nu, s):
    """(m0(s), h(s)) of the J-kernel result, at one clipped point x as
    in _prop1; m0(1) = 1.  On s > 1 the real parts of _prop1; on s < 1
    s^(mu-1) G' 2F1(a', b'; mu+1; s^2), split in the band below 1 with
    w = 1 - x^2 >= 0."""
    x = _clip_near_one(1.0 - _H_POINT_OFFSET if s == 1.0 else s)
    if x > 1.0:
        F, h = _prop1(mu, nu, x)
        return F.real, h.real
    a, b, c = (mu + nu) / 2.0, (mu - nu) / 2.0, mu + 1.0
    power = x ** (mu - 1.0)
    if x > 1.0 - _H_STABLE_BAND:
        w = 1.0 - x * x
        _, tail = _one_minus_z_log_parts(a, b, 1, complex(w), complex(math.log(w)))
        ptail = (_gamma_prefactor(nu, mu) * tail).real
        m0 = power * (1.0 + w * ptail)
        h = _expm1_ratio(mu - 1.0, x) - power * (x + 1.0) * ptail
    else:
        pre = _gamma_prefactor(nu, mu)
        m0 = power * pre * hyp2f1(HypParams(a, b, c), complex(x * x)).real
        h = (m0 - 1.0) / (x - 1.0)
    return (1.0 if s == 1.0 else m0), h


def prop2_distribution(orders):
    """The J-kernel integral as a boundary distribution:

        cos(pi(nu-mu)/2) delta(s-1)
            + (2/pi) sin(pi(nu-mu)/2) Pv(1/(1/s-s)) m0(s),

    m0 real and continuous with m0(1) = 1; branch s <= 1 in powers of
    s^2, branch s > 1 in powers of s^-2."""
    orders.require_bessel_bessel()
    return _prop2_expansion(orders.mu, orders.nu)


def _prop2_expansion(mu, nu):
    """prop2_distribution unchecked: reflection_check swaps in |mu| up to 12."""
    half_angle = 0.5 * math.pi * (nu - mu)
    F, h = _pointwise(_prop2, _kernel_order(mu), _kernel_order(nu), float)
    return DistributionExpansion(
        delta_coeff=math.cos(half_angle),
        pv_coeff=(2.0 / math.pi) * math.sin(half_angle),
        F=F,
        h=h,
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
        dist = _prop2_expansion(m, n)
        return dist.pv_coeff * dist.F(x) / (1.0 / x - x)

    return abs(density(mu, nu, s) - s**-2.0 * density(nu, mu, 1.0 / s))


def _kernel_at(kernel, mu, nu, s):
    """kernel(mu, nu, s), with a power that overflows the double range
    raised as DomainError."""
    try:
        return kernel(mu, nu, s)
    except OverflowError as exc:
        raise DomainError(f"density at s={s} is outside the double range") from exc


def _pointwise(kernel, mu, nu, dtype):
    """The array functions s -> F(s) and s -> h(s) of one scalar kernel
    s -> (F, h): arrays of the shape of s (the kernel's scalar for a
    scalar).  The kernels stay scalar: numpy does not reproduce the
    last bits of their math/cmath calls.  Within one call the kernel
    runs once per distinct point: the nodes of a quadrature repeat (a
    tanh-sinh node next to s = 1 rounds onto 1 itself), and a pairing
    asks only for the points where its test function is nonzero.

    The two functions share a one-slot memo of the last array's (F, h)
    pairs, keyed on its shape and bytes, so F(grid) then h(grid) runs
    the kernel once per point; an array changed in place is a new key.
    The slot is replaced in one assignment, so a thread never reads one
    array's key with another array's pairs.  A power that overflows the
    double range raises DomainError and leaves the slot as it was."""
    last = (None, None)  # (key, pairs) of the last array evaluated

    def column(i):
        def density(s):
            nonlocal last
            s = np.asarray(s, dtype=float)
            bad = ~(s > 0.0)
            if bad.any():
                raise DomainError(f"density argument s={float(s[bad][0])} must be positive")
            if s.ndim == 0:
                return _kernel_at(kernel, mu, nu, float(s))[i]
            key = (s.shape, s.tobytes())
            memo = last
            if memo[0] == key:
                pairs = memo[1]
            else:
                xs = s.ravel().tolist()
                values = dict.fromkeys(xs)  # the distinct points, in first-seen order
                for x in values:
                    values[x] = _kernel_at(kernel, mu, nu, x)
                pairs = [values[x] for x in xs]
                last = (key, pairs)
            return np.array([p[i] for p in pairs], dtype=dtype).reshape(s.shape)

        return density

    return column(0), column(1)
