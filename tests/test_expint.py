import math

import mpmath
import numpy as np
import pytest

from wsdist.specfun import expn
from wsdist.specfun.expint import _SERIES_EDGE

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
    got = expn(ORDERS, x)
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
