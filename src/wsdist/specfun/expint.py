"""The generalized exponential integrals E_n(x) = int_1^inf e^{-xt} t^-n dt,
n = 0 ... N - 1, at complex x with Re x > 0 (DLMF §8.19), in double
precision, as one table per x.

A table takes E_0 = e^-x / x exactly, one E_m computed directly at
m = clip(floor(|x|), 1, N - 1), and the recurrence

    n E_{n+1}(x) + x E_n(x) = e^-x        (DLMF 8.19.12)

run away from m in both directions: downward, E_n = (e^-x - n E_{n+1}) / x
for n < m, and upward, E_{n+1} = (e^-x - x E_n) / n for n >= m.  An
error in E_{n+1} reaches E_n times n / |x| on the way down, and an error
in E_n reaches E_{n+1} times |x| / n on the way up: both ratios stay
below 1 (up to (m + 1) / m at the start), since each pass runs away from
n = |x|.  Against 20-digit mpmath the tables are within 1e-14 relative
on 1e-3 <= |x| <= 1e3 up to n = 60, as close as the direct route; only
where E_n is subnormal (|E_n| < 2.2e-308, e.g. Re x above 700) does the
recurrence, which then runs on numbers with fewer bits, lose more.

The direct E_m takes one of two routes, each of a fixed length, so a
value is fixed by (m, x) alone:

* the ascending series in x and log x where |x| + Re x <= 2,
  _SERIES_TERMS terms.  Its terms cancel by about e^{|x| + Re x}, like
  those of K's Temme series: on the real axis the bound |x| <= 2 alone
  would lose 1.5e-14 at x = 1.99, n = 4.
* the continued fraction, in the even form of Numerical Recipes §6.3,
  summed from its _CF_STEPS-th level down, everywhere else; 80 levels
  reach 1e-14 down to |x| = 2 near the imaginary axis and to |x| = 1 on
  the real axis.

Every step is elementwise in x, so the table of each x is that of its
lone call, bit for bit, whatever other points share the call.
"""

import numpy as np

from ..errors import DomainError
from .gammafn import EULER_GAMMA

_SERIES_EDGE = 2.0  # the series serves |x| + Re x up to it
_SERIES_TERMS = 30  # 2^30 / 30! is below 1e-23
_CF_STEPS = 80
# points per block: the complex temporaries stay below numpy's 256 KiB
# threshold for reusing a temporary in place, whose loops round
# differently, so a table does not depend on how many points share the call
_BLOCK = 8192


def _continued_fraction(n, x):
    n = n.astype(float)
    xn = x + n
    t = xn + 2 * _CF_STEPS
    quotient = np.empty_like(t)
    for i in range(_CF_STEPS, 0, -1):  # in place: this loop is the direct E_n's cost
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


def _direct(n, x):
    """E_n(x) at every pair of the 1-d arrays n (integers >= 1) and x."""
    series = np.abs(x) + x.real <= _SERIES_EDGE
    out = np.empty(x.shape, dtype=complex)
    out[~series] = _continued_fraction(n[~series], x[~series])
    if series.any():
        out[series] = _series(n[series], x[series])
    return out


def _table(n_terms, x):
    """E_0 ... E_{n_terms - 1} at each x of the 1-d array x, n_terms >= 1,
    as a list of n_terms columns of shape x.shape."""
    e_x = np.exp(-x)
    cols = [e_x / x]
    if n_terms > 1:
        m = np.clip(np.floor(np.abs(x)), 1, n_terms - 1).astype(np.intp)
        start = _direct(m, x)
        # downward from each row's start to n = 1; above its start a row
        # holds the start until the upward pass replaces it
        down = [start]
        for n in range(m.max() - 1, 0, -1):
            down.append(np.where(m > n, (e_x - n * down[-1]) / x, start))
        cols += down[::-1]
        # upward from each row's start to n = n_terms - 1
        for n in range(m.min(), n_terms - 1):
            up = (e_x - x * cols[n]) / n
            if n + 1 < len(cols):
                cols[n + 1] = np.where(m <= n, up, cols[n + 1])
            else:
                cols.append(up)
    return cols


def expn(n_terms, x):
    """E_0(x), ..., E_{n_terms - 1}(x) at each x of the array x (complex,
    finite, Re x > 0), as an array of shape x.shape + (n_terms,).  Inputs
    outside that domain, and a value past the double range (|x| below
    about 1e-308), raise DomainError."""
    if not isinstance(n_terms, (int, np.integer)) or n_terms < 0:
        raise DomainError(f"expn requires an integer number of terms >= 0, not {n_terms!r}")
    x = np.asarray(x, dtype=complex)
    if not np.isfinite(x).all() or np.any(x.real <= 0.0):
        raise DomainError("expn requires finite x with Re(x) > 0")
    flat = x.ravel()
    table = np.empty((flat.size, n_terms), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, as a DomainError
        for lo in range(0, flat.size if n_terms else 0, _BLOCK):
            block = slice(lo, lo + _BLOCK)
            table[block] = np.stack(_table(n_terms, flat[block]), axis=-1)
    if not np.isfinite(table).all():
        raise DomainError("E_n(x) is outside the double range")
    return table.reshape(x.shape + (n_terms,))
