import math

import mpmath
import numpy as np
import pytest

from wsdist.errors import DomainError
from wsdist.specfun import expn
from wsdist.specfun.expint import _BLOCK, _SERIES_EDGE

# |x| on both sides of the switch from the series to the continued
# fraction (|x| + Re x = 2): at x = 1 on the real axis, near |x| = 2 close
# to the imaginary axis
RADII = [1e-3, 0.03, 0.5, 0.99, 1.01, 1.99, 2.01, 7.0, 300.0, 1e3]
ARGS = [0.0, 0.5 * math.pi - 1e-3, -(0.5 * math.pi - 1e-3)]
ORDERS = np.arange(61)


@pytest.mark.parametrize("arg", ARGS)
@pytest.mark.parametrize("r", RADII)
def test_expn_matches_mpmath(r, arg):
    x = r * complex(math.cos(arg), math.sin(arg))
    got = expn(len(ORDERS), x)
    with mpmath.workdps(20):
        ref = np.array([complex(mpmath.expint(int(n), mpmath.mpc(x.real, x.imag)))
                        for n in ORDERS])
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


def test_the_radii_straddle_the_switch():
    # the series serves |x| + Re x <= 2: x = 0.99 but not 1.01 on the real
    # axis, |x| = 1.99 but not 2.01 next to the imaginary one
    near_imaginary = 1.0 + math.cos(ARGS[1])
    assert 0.99 * 2 <= _SERIES_EDGE < 1.01 * 2
    assert 1.99 * near_imaginary <= _SERIES_EDGE < 2.01 * near_imaginary


def test_each_table_equals_its_row_in_a_batch_bit_for_bit():
    # the direct E_m starts a table at m = clip(floor(|x|), 1, N - 1): at
    # m = 1 (series and continued fraction), inside and at N - 1 = 19
    n_terms = 20
    xs = np.array([1e-3, 0.34264250356867154 + 1.5213099455399295j, 1.5 - 0.4j, 0.01 + 1.98j,
                   2.5 + 2j, 7.3, 0.2 - 12.5j, 19.6 + 0.5j, 300.0 - 40j, 0.1 + 900j])
    starts = np.clip(np.floor(np.abs(xs)), 1, n_terms - 1)
    assert {1, n_terms - 1} <= set(starts) and np.any((starts > 1) & (starts < n_terms - 1))
    # also in a batch of more than three blocks, whose last 3 _BLOCK points
    # are xs[1] on the series: in one array they would pass numpy's 256 KiB
    # threshold for reusing a temporary in place, where xs[1] rounds
    # differently
    lone = [expn(n_terms, x) for x in xs]
    tables = expn(n_terms, xs)
    batch = expn(n_terms, np.concatenate((xs, np.full(3 * _BLOCK, xs[1]))))
    assert tables.shape == (xs.size, n_terms)
    for i in range(xs.size):
        assert np.array_equal(tables[i], lone[i])
        assert np.array_equal(batch[i], lone[i])
    assert np.array_equal(batch[-1], lone[1])


def test_table_shapes():
    x = np.array([[1.0, 2.0 + 1j, 30.0]])
    assert expn(5, x).shape == (1, 3, 5)
    assert expn(0, x).shape == (1, 3, 0)
    assert np.array_equal(expn(1, x)[..., 0], np.exp(-x) / x)  # E_0 = e^-x / x


@pytest.mark.parametrize("n_terms, x", [
    (5, math.nan),
    (5, complex(1.0, math.inf)),
    (5, np.array([1.0, math.nan])),
    (5, 0.0),
    (5, 1j),  # Re x = 0
    (5, -1.0 + 1j),
    (-1, 1.0),
    (2.0, 1.0),  # not an integer count
    # E_0 near 1e320, past the double range
    (5, 1e-320),
])
def test_non_finite_argument_or_outside_domain_is_a_domain_error(n_terms, x):
    # a numpy RuntimeWarning is a test failure here (pyproject filterwarnings)
    with pytest.raises(DomainError):
        expn(n_terms, x)
