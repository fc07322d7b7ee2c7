"""Gamma and digamma for real arguments."""

import math

from ..errors import PoleError

# B_{2k}/(2k) for k = 1..6, the digamma asymptotic tail coefficients.
_PSI_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
)

EULER_GAMMA = 0.5772156649015328606


def _is_nonpositive_integer(x):
    return x <= 0.0 and x == math.floor(x)


def gamma(x):
    """Gamma function on the real line.

    Non-positive integers are poles and raise PoleError; negative
    non-integer arguments go through the reflection formula inside the
    C library routine.
    """
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x={x}")
    return math.gamma(x)


def log_gamma(x):
    """log |Gamma(x)|, poles rejected as in gamma()."""
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x={x}")
    return math.lgamma(x)


def digamma(x):
    """Digamma (logarithmic derivative of Gamma) for real non-pole x.

    Reflection for x < 0.5, upward recurrence into x >= 8, then the
    Bernoulli asymptotic series; good to ~1e-14 relative.
    """
    if _is_nonpositive_integer(x):
        raise PoleError(f"digamma pole at x={x}")
    if x < 0.5:
        # psi(1-x) - psi(x) = pi*cot(pi*x)
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * x)
    acc = 0.0
    while x < 8.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    power = inv2
    for b in _PSI_TAIL:
        tail += b * power
        power *= inv2
    return acc + math.log(x) - 0.5 / x - tail

