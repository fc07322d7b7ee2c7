"""The generalized exponential integral E_n(x) = int_1^inf e^{-xt} t^-n dt
at integer n >= 0 and complex x with Re x > 0 (DLMF §8.19), in double
precision.

Two routes, each of a fixed length, so a value is fixed by (n, x) alone:

* the ascending series in x and log x at n >= 1 where |x| + Re x <= 2,
  _SERIES_TERMS terms.  Its terms cancel by about e^{|x| + Re x}, like
  those of K's Temme series: on the real axis the bound |x| <= 2 alone
  would lose 1.5e-14 at x = 1.99, n = 4.
* the continued fraction, in the even form of Numerical Recipes §6.3,
  summed from its _CF_STEPS-th level down, everywhere else.  At n = 0
  its first partial numerator is 0, so it gives e^-x / x exactly; 80
  levels reach 1e-14 down to |x| = 2 near the imaginary axis and to
  |x| = 1 on the real axis.

Each n is computed directly: the recurrence E_{n+1} = (e^-x - x E_n) / n
amplifies error by |x| / n per step.
"""

import numpy as np

from .gammafn import EULER_GAMMA

_SERIES_EDGE = 2.0  # the series serves |x| + Re x up to it
_SERIES_TERMS = 30  # 2^30 / 30! is below 1e-23
_CF_STEPS = 80


def _continued_fraction(n, x):
    n = n.astype(float)
    xn = x + n
    t = xn + 2 * _CF_STEPS
    quotient = np.empty_like(t)
    for i in range(_CF_STEPS, 0, -1):  # in place: this loop is E_n's cost
        np.divide(i * (n + (i - 1)), t, out=quotient)
        np.add(xn, 2 * (i - 1), out=t)
        t -= quotient
    return np.exp(-x) / t


def _series(n, x):
    top = int(n.max())
    steps = np.arange(1.0, top)
    factorial = np.concatenate(([1.0], np.cumprod(steps)))  # (n - 1)!
    psi = np.concatenate(([0.0], np.cumsum(1.0 / steps))) - EULER_GAMMA  # psi(n)
    out = (-x) ** (n - 1) / factorial[n - 1] * (psi[n - 1] - np.log(x))
    term = np.ones_like(x)  # (-x)^k / k!
    for k in range(_SERIES_TERMS):
        if k:
            term = term * -x / k
        d = k + 1 - n
        out -= np.divide(term, d, out=np.zeros_like(term), where=d != 0)
    return out


def expn(n, x):
    """E_n(x) at every pair of the broadcast arrays n (integers >= 0) and
    x (complex, Re x > 0)."""
    n, x = np.broadcast_arrays(np.asarray(n, dtype=np.intp), np.asarray(x, dtype=complex))
    series = (n >= 1) & (np.abs(x) + x.real <= _SERIES_EDGE)
    out = np.empty(x.shape, dtype=complex)
    out[~series] = _continued_fraction(n[~series], x[~series])
    if series.any():
        out[series] = _series(n[series], x[series])
    return out
