import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from wsdist.errors import DomainError
from wsdist.quadrature import integrate_finite
from wsdist.specfun import bessel_k_complex, hankel1_complex, bessel_j
from wsdist.specfun.besselj import _bessel_y

K0_AT_1 = 0.42102443824070834  # frozen from the cosh-kernel quadrature below


def test_half_integer_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(25):
        r = 10 ** rng.uniform(-1.5, 1.8)
        th = rng.uniform(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6)
        w = r * cmath.exp(1j * th)
        ref = cmath.sqrt(math.pi / (2.0 * w)) * cmath.exp(-w)
        got = bessel_k_complex(0.5, w)
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_conjugation_symmetry():
    for mu in (0.0, 0.3, 1.0, 2.5):
        for w in (0.4 + 0.9j, 3.0 - 2.0j, 9.0 + 11.0j, 30.0 - 4.0j):
            a = bessel_k_complex(mu, np.conj(w))
            b = np.conj(bessel_k_complex(mu, w))
            assert abs(a - b) <= 1e-13 * max(abs(a), 1e-300)


def test_real_argument_gives_real_value():
    for mu in (0.0, 0.5, 1.0, 3.5):
        for x in (0.3, 1.0, 5.0, 13.0, 40.0):
            v = bessel_k_complex(mu, complex(x))
            assert abs(v.imag) <= 1e-14 * abs(v.real)


def test_k0_at_one_against_cosh_kernel_quadrature():
    # independent oracle: K_0(1) = int_0^inf exp(-cosh t) dt
    res = integrate_finite(lambda t: np.exp(-np.cosh(t)), 0.0, 6.0, 1e-13)
    tail = math.exp(-math.cosh(6.0))  # < 1e-87
    assert res.converged and tail < 1e-15
    assert abs(res.value.real - K0_AT_1) <= 1e-12
    assert abs(bessel_k_complex(0.0, 1.0 + 0j) - K0_AT_1) <= 1e-12


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0, 2.0, 0.3, 1.5, 3.5, 7.0, 10.0])
def test_k_against_mpmath(mu):
    mp.mp.dps = 30
    rng = np.random.default_rng(42)
    ws = []
    for _ in range(30):
        r = 10 ** rng.uniform(-2.0, 2.2)
        th = rng.uniform(-math.pi / 2 + 1e-9, math.pi / 2 - 1e-9)
        ws.append(r * cmath.exp(1j * th))
    for r in (1.9, 2.1, 13.9, 14.1, 16.0):
        for deg in (0.001, 44.0, 77.5, 89.99):
            ws.append(r * cmath.exp(1j * math.radians(deg)))
            ws.append(r * cmath.exp(-1j * math.radians(deg)))
    for w in ws:
        got = bessel_k_complex(mu, w)
        ref = complex(mp.besselk(mu, mp.mpc(w)))
        assert abs(got - ref) <= 5e-11 * max(abs(ref), 1e-300), f"w={w}"


# interior sector of the integral representation: 2 < |w| <= 14 and
# Re w >= 0.22 |w| (every point below, and both batch mates)
_INTERIOR = [5.0 + 3.0j, 9.0 - 6.0j, 12.0 + 1.0j, 3.1 - 2.4j, 2.6 + 11.0j]


@pytest.mark.parametrize("mu", [0.0, 0.3, 1.5, 4.0])
def test_interior_k_independent_of_batch_mates(mu):
    # mates with a much smaller Re w need a finer grid than the point's own
    mates = [2.6 + 11.0j, 2.2 - 9.5j]
    for w in _INTERIOR[:4]:
        alone = bessel_k_complex(mu, np.array([w]))[0]
        batched = bessel_k_complex(mu, np.array([w] + mates))[0]
        assert abs(alone - batched) <= 1e-14 * abs(alone), f"w={w}"


@pytest.mark.parametrize("mu", [0.0, 0.3, 1.5, 4.0])
def test_interior_k_against_mpmath(mu):
    mp.mp.dps = 30
    got = bessel_k_complex(mu, np.array(_INTERIOR))
    for w, g in zip(_INTERIOR, got):
        ref = complex(mp.besselk(mu, mp.mpc(w)))
        assert abs(g - ref) <= 1e-12 * abs(ref), f"w={w}"


def test_k_domain_errors():
    with pytest.raises(DomainError):
        bessel_k_complex(0.0, -1.0 + 0j)
    with pytest.raises(DomainError):
        bessel_k_complex(0.0, 0.0 + 1j)  # Re w = 0 gated in the public API
    with pytest.raises(DomainError):
        bessel_k_complex(11.0, 1.0 + 0j)


def test_hankel_identity_against_j_plus_iy():
    xs = np.linspace(0.1, 20.0, 41)
    for mu in (0.0, 0.5, 1.0, 2.0):
        h = hankel1_complex(mu, xs.astype(complex))
        ref = bessel_j(mu, xs) + 1j * _bessel_y(mu, xs)
        rel = np.abs(h - ref) / np.abs(ref)
        assert rel.max() <= 1e-9


def test_hankel_half_integer_closed_form():
    # H1_{1/2}(z) = -i sqrt(2/(pi z)) e^{iz}, via the K_{1/2} composition
    for z in (0.7 + 0.0j, 2.0 + 1.5j, -1.3 + 0.4j, 5.0 + 0.01j):
        got = hankel1_complex(0.5, z)
        ref = -1j * cmath.sqrt(2.0 / (math.pi * z)) * cmath.exp(1j * z)
        assert abs(got - ref) <= 1e-12 * abs(ref), f"z={z}"


def test_hankel_from_k0_value():
    got = hankel1_complex(0.0, 1j)
    ref = 2.0 / (1j * math.pi) * K0_AT_1
    assert abs(got - ref) <= 1e-12


def test_hankel_upper_half_plane_and_negative_axis():
    mp.mp.dps = 30
    for mu in (0.0, 0.7, 2.0):
        for z in (2.0 + 3.0j, -1.5 + 1e-14j, 0.3 + 0.01j, -4.0 + 0j):
            got = hankel1_complex(mu, z)
            ref = complex(mp.hankel1(mu, mp.mpc(z)))
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), f"z={z}"


def test_hankel_value_does_not_depend_on_call_size():
    # |z| > 14 takes the elementwise asymptotic path, so a point's value
    # must be the same bit for bit however many points share its call;
    # a large temporary scaled in place by numpy rounds differently
    z = (1.0 + 0.1j) * np.linspace(20.0, 400.0, 40000)
    for mu in (1.0, 0.5):
        assert np.array_equal(hankel1_complex(mu, z)[:100], hankel1_complex(mu, z[:100]))


def test_hankel_sector_errors():
    with pytest.raises(DomainError):
        hankel1_complex(0.0, 0.0)
    with pytest.raises(DomainError):
        hankel1_complex(0.0, cmath.exp(-0.5j * math.pi) * 2.0)  # arg z = -pi/2
    with pytest.raises(DomainError):
        hankel1_complex(0.0, -1.0 - 0.5j)
