import cmath
import math
import sys
import threading

import mpmath as mp
import numpy as np
import pytest

from wsdist import cli
from wsdist import weber_schafheitlin as ws
from wsdist.distributions import TestFunction, pair
from wsdist.errors import DomainError, OrderError, ParamError
from wsdist.quadrature import integrate_semiinfinite_damped, tanh_sinh
from wsdist.selftest import realpart_consistency, reflection_identity, route_equality
from wsdist.specfun import bessel_j, bessel_k_complex
from wsdist.weber_schafheitlin import (
    OrderPair,
    RegularizedPoint,
    _gamma_prefactor,
    _regularized_watson,
    k_transform,
    prop1_distribution,
    prop2_distribution,
    reflection_check,
    regularized_I,
)

VALID_PAIRS = [(0.0, 1.0), (1.0, 2.0), (0.5, 1.5), (2.0, 1.0), (1.0, 1.0), (0.3, 0.8)]

mp.mp.dps = 30


class TestOrderValidation:
    def test_hankel_bessel_boundary_is_rejected(self):
        with pytest.raises(OrderError):
            OrderPair(3.0, 1.0).require_hankel_bessel()  # nu + 2 == |mu|
        OrderPair(2.99, 1.0).require_hankel_bessel()

    def test_bessel_bessel_needs_both(self):
        with pytest.raises(OrderError):
            OrderPair(0.0, 2.0).require_bessel_bessel()  # mu + 2 == |nu|
        OrderPair(0.1, 2.0).require_bessel_bessel()

    def test_regularized_point_validation(self):
        with pytest.raises(DomainError):
            RegularizedPoint(0.0, 0.1)
        with pytest.raises(DomainError):
            RegularizedPoint(1.0, 0.0)


class TestKTransform:
    def test_real_argument_real_value(self):
        v = k_transform(OrderPair(0.5, 1.5), 2.3)
        assert abs(v.imag) <= 1e-14 * abs(v.real)

    def test_equal_orders_euler_reduction(self):
        # for mu = nu the Euler-reduced right side is just the prefactor power
        for nu in (0.5, 1.0, 2.0):
            orders = OrderPair(nu, nu)
            for z in (1.7 + 0.0j, 0.8 + 0.9j):
                lhs = k_transform(orders, z) * (1.0 + z**-2.0)
                rhs = _gamma_prefactor(nu, nu) * z ** (-2.0 - nu)
                assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_against_direct_quadrature(self):
        z = 2.0

        def f(k, rows):
            return k * bessel_k_complex(0.0, z * k) * bessel_j(0.0, k)

        def head(spacing):  # k log k at 0: tanh-sinh on [0, spacing]
            return spacing, tanh_sinh(f, np.zeros(1), spacing, 1e-10).value

        r = integrate_semiinfinite_damped(f, np.array([math.pi]), 40.0 / z, head=head)
        assert r.converged
        assert abs(k_transform(OrderPair(0.0, 0.0), z) - r.value[0]) <= 1e-8

    def test_domain_and_order_errors(self):
        with pytest.raises(DomainError):
            k_transform(OrderPair(0.0, 0.0), -1.0 + 0.5j)
        with pytest.raises(OrderError):
            k_transform(OrderPair(4.0, 1.0), 2.0)


# (closed form, point): each closed form is called as fn(orders, point)
CLOSED_FORMS = [(k_transform, 1.0 + 0.5j), (k_transform, 2.3),
                (regularized_I, RegularizedPoint(0.7, 0.2)),
                (regularized_I, RegularizedPoint(1.5, 0.1))]


@pytest.mark.parametrize("fn, x", CLOSED_FORMS)
def test_order_minus_one_negates_order_plus_one(fn, x):
    # J_-1 = -J_1; c = nu + 1 = 0 is not evaluated
    for mu in (0.0, 0.5, -0.3):
        assert fn(OrderPair(mu, -1.0), x) == -fn(OrderPair(mu, 1.0), x)
    # the orders are checked before the mapping, and only -1 itself is mapped
    with pytest.raises(OrderError):
        fn(OrderPair(1.5, -1.0), x)
    with pytest.raises(ParamError):
        fn(OrderPair(0.0, -1.0 + 1e-12), x)


# points where other tests evaluate regularized_I: the uniform-convergence
# surrogate's grid, the direct-quadrature points and the cross-module kernel
ROUTE_POINTS = [(0.0, 1.0, float(s), eps) for eps in (0.2, 0.1, 0.05)
                for s in np.linspace(0.2, 5.0, 61)] + [
    (0.0, 0.0, 1.5, 0.1), (0.0, 1.0, 0.7, 0.2), (0.5, 1.5, 0.7, 0.2), (0.0, 0.0, 1.5, 5.0),
]


class TestRegularizedI:
    def test_route_equality_spot(self):
        for mu, nu, s, eps in ROUTE_POINTS:
            v1 = regularized_I(OrderPair(mu, nu), RegularizedPoint(s, eps))
            v2 = _regularized_watson(OrderPair(mu, nu), s, eps)
            assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1)), (mu, nu, s, eps)

    def test_route_equality_grid(self):
        assert route_equality(pairs=VALID_PAIRS + [(0.0, -1.0), (0.5, -1.0)]) <= 1e-10


class TestProp1:
    def test_F_at_one_is_one(self):
        for mu, nu in VALID_PAIRS:
            dist = prop1_distribution(OrderPair(mu, nu))
            assert dist.F(1.0) == 1.0 + 0.0j
            assert abs(dist.F(1.0 + 1e-9) - 1.0) <= 1e-7
            assert abs(dist.F(1.0 - 1e-9) - 1.0) <= 1e-7

    def test_equal_orders_density_is_power(self):
        nu = 1.5
        dist = prop1_distribution(OrderPair(nu, nu))
        for s in (0.3, 0.9, 1.0, 1.2, 4.0):
            assert abs(dist.F(s) - s ** (-nu - 1.0)) <= 1e-12

    def test_coefficients(self):
        mu, nu = 0.5, 1.5
        dist = prop1_distribution(OrderPair(mu, nu))
        phase = cmath.exp(0.5j * math.pi * (nu - mu))
        assert abs(dist.delta_coeff - phase) <= 1e-15
        assert abs(dist.pv_coeff - 2.0 / (1j * math.pi) * phase) <= 1e-15

    def test_density_against_mpmath(self):
        for mu, nu in [(0.0, 1.0), (0.5, 1.5), (1.0, 2.0)]:
            dist = prop1_distribution(OrderPair(mu, nu))
            a, b, c = (nu + mu) / 2, (nu - mu) / 2, nu + 1.0
            pre = float(mp.gamma(a + 1) * mp.gamma(b + 1) / mp.gamma(c))
            for s in (0.4, 0.85, 0.97, 1.03, 1.3, 2.7):
                ref = complex(s ** (-nu - 1) * pre * mp.hyp2f1(a, b, c, 1.0 / (s * s)))
                got = complex(dist.F(s))
                assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref)), f"s={s}"

    def test_h_is_consistent_with_F(self):
        dist = prop1_distribution(OrderPair(0.0, 1.0))
        for s in (0.5, 0.93, 1.08, 1.9):
            lhs = complex(dist.F(s))
            rhs = 1.0 + (s - 1.0) * complex(dist.h(s))
            assert abs(lhs - rhs) <= 1e-11


class TestProp2:
    def test_closure_is_pure_delta(self):
        dist = prop2_distribution(OrderPair(1.0, 1.0))
        assert dist.delta_coeff == 1.0
        assert abs(dist.pv_coeff) <= 1e-16
        g = TestFunction(1.0, 0.5, 1.0)
        assert abs(pair(dist, g) - g(1.0)) <= 1e-14

    def test_adjacent_orders_pure_pv(self):
        dist = prop2_distribution(OrderPair(0.0, 1.0))
        assert abs(dist.delta_coeff) <= 1e-16
        assert abs(dist.pv_coeff - 2.0 / math.pi) <= 1e-15

    def test_m0_value_and_continuity_trend(self):
        for mu, nu in VALID_PAIRS:
            dist = prop2_distribution(OrderPair(mu, nu))
            assert abs(dist.F(1.0) - 1.0) <= 1e-12
            jumps = [
                abs(dist.F(1.0 - d) - dist.F(1.0 + d)) for d in (1e-2, 1e-4, 1e-6)
            ]
            assert jumps[0] > jumps[1] > jumps[2]
            assert jumps[2] <= 1e-4

    def test_m0_against_mpmath_both_branches(self):
        for mu, nu in [(0.0, 1.0), (0.5, 1.5), (1.0, 2.0), (0.3, 0.8)]:
            dist = prop2_distribution(OrderPair(mu, nu))
            for s in (0.35, 0.9, 0.999, 1.001, 1.2, 3.1):
                if s <= 1.0:
                    pre = mp.gamma((mu + nu) / 2 + 1) * mp.gamma((mu - nu) / 2 + 1) / mp.gamma(mu + 1)
                    ref = float(s ** (mu - 1) * pre * mp.hyp2f1((mu + nu) / 2, (mu - nu) / 2, mu + 1, s * s))
                else:
                    pre = mp.gamma((nu + mu) / 2 + 1) * mp.gamma((nu - mu) / 2 + 1) / mp.gamma(nu + 1)
                    ref = float(s ** (-nu - 1) * pre * mp.hyp2f1((nu + mu) / 2, (nu - mu) / 2, nu + 1, s**-2.0))
                assert abs(dist.F(s) - ref) <= 1e-11 * max(1.0, abs(ref)), f"s={s}"

    def test_realpart_consistency_pairing(self):
        g = TestFunction(1.0, 0.5)
        assert realpart_consistency(bumps=[g]) <= 1e-8
        for mu, nu in VALID_PAIRS:
            assert abs(pair(prop2_distribution(OrderPair(mu, nu)), g, tol=1e-10).imag) <= 1e-12


# s = 1, the clipped sliver 1 -+ 1e-15, the edges 0.8 and 1.2 of the
# split band, and points far from 1
ARRAY_GRID = np.array([[1.0, 1.0 - 1e-15, 1.0 + 1e-15, 0.8],
                       [1.2, 0.3, 2.7, 0.95]])


@pytest.mark.parametrize(
    "make, mu, nu, dtype",
    [
        (prop1_distribution, 0.0, 1.0, complex),  # integer mu: log series
        (prop1_distribution, 0.3, 1.7, complex),
        (prop2_distribution, 1.0, 2.0, float),
        (prop2_distribution, 0.3, 0.8, float),
    ],
)
class TestArrayDensities:
    def test_array_equals_per_element_calls(self, make, mu, nu, dtype):
        dist = make(OrderPair(mu, nu))
        for density in (dist.F, dist.h):  # h reads the (F, h) pairs F stored
            values = density(ARRAY_GRID)
            assert values.shape == ARRAY_GRID.shape
            assert values.dtype == np.dtype(dtype)
            expected = [density(s) for s in ARRAY_GRID.ravel().tolist()]
            assert values.ravel().tolist() == expected

    def test_zero_d_input_gives_a_scalar(self, make, mu, nu, dtype):
        dist = make(OrderPair(mu, nu))
        for density in (dist.F, dist.h):
            value = density(np.array(1.2))
            assert np.ndim(value) == 0 and isinstance(value, dtype)
            assert value == density(1.2)

    def test_non_positive_element_rejected(self, make, mu, nu, dtype):
        dist = make(OrderPair(mu, nu))
        for bad in (0.0, -0.5):
            grid = ARRAY_GRID.copy()
            grid[1, 2] = bad
            for density in (dist.F, dist.h):
                with pytest.raises(DomainError):
                    density(grid)


@pytest.mark.parametrize("make", [prop1_distribution, prop2_distribution])
def test_h_at_one_is_the_fixed_offset_value(make):
    # h has a log singularity at s = 1; its point value there is h(1 - 1e-6)
    dist = make(OrderPair(0.5, 1.5))
    assert dist.h(1.0) == dist.h(1.0 - 1e-6)


class TestReflection:
    def test_identity_at_roundoff(self):
        assert reflection_identity(pairs=[(0.0, 1.0), (0.5, 1.5), (1.0, 2.0)]) <= 1e-12

    def test_identity_at_order_minus_one(self):
        # (mu, nu) -> (nu, mu) moves the order -1 between the two kernels
        assert reflection_identity(pairs=[(-1.0, 0.0), (-1.0, 0.5), (0.5, -1.0)]) <= 1e-12

    def test_s_equal_one_rejected(self):
        with pytest.raises(DomainError):
            reflection_check(OrderPair(0.0, 1.0), 1.0)

    def test_tiny_s_overflow_is_a_domain_error(self):
        # s^(mu-1) overflows the double range at s = 1e-130, mu = -1.5
        with pytest.raises(DomainError, match="outside the double range"):
            reflection_check(OrderPair(-1.5, -0.4), 1e-130)


KERNELS = [(ws.prop1_distribution, "_prop1"), (ws.prop2_distribution, "_prop2")]


class TestSharedColumns:
    """F and h of one distribution share the (F, h) pairs of the last
    array either was called on."""

    @pytest.mark.parametrize("prop, kernel", [("1", "_prop1"), ("2", "_prop2")])
    def test_density_runs_the_kernel_once_per_grid_point(self, monkeypatch, capsys, prop,
                                                         kernel):
        original = getattr(ws, kernel)
        calls = []

        def counting(mu, nu, s):
            calls.append(s)
            return original(mu, nu, s)

        monkeypatch.setattr(ws, kernel, counting)
        argv = ["density", "--mu", "0.5", "--nu", "1.5", "--prop", prop,
                "--s-min", "0.5", "--s-max", "1.5", "--s-steps", "11"]
        assert cli.main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 12
        assert len(calls) == 11

    @pytest.mark.parametrize("make, kernel", KERNELS)
    def test_array_changed_in_place_is_evaluated_again(self, make, kernel):
        dist = make(OrderPair(0.5, 1.5))
        grid = np.array([0.5, 0.9, 1.0, 1.3])
        dist.F(grid)
        grid[1] = 2.5
        want = [getattr(ws, kernel)(0.5, 1.5, x)[1] for x in grid.tolist()]
        assert dist.h(grid).tolist() == want

    @pytest.mark.parametrize("make, kernel", KERNELS)
    def test_threads_alternating_arrays_get_their_own_columns(self, make, kernel):
        dist = make(OrderPair(0.5, 1.5))
        grids = [np.linspace(0.4 + 0.05 * j, 2.2 - 0.1 * j, 7) for j in range(4)]
        want = [
            [[getattr(ws, kernel)(0.5, 1.5, x)[i] for x in g.tolist()] for i in (0, 1)]
            for g in grids
        ]
        start = threading.Barrier(len(grids))
        got = [[] for _ in grids]

        def run(j):
            start.wait()
            for _ in range(50):
                got[j].append([dist.F(grids[j]).tolist(), dist.h(grids[j]).tolist()])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads finely
        try:
            threads = [threading.Thread(target=run, args=(j,)) for j in range(len(grids))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [len(g) for g in got] == [50] * len(grids)
        assert all(columns == want[j] for j, g in enumerate(got) for columns in g)

    def test_overflow_is_raised_by_the_first_column_and_not_stored(self):
        dist = ws.prop2_distribution(OrderPair(-1.5, -0.4))
        grid = np.array([0.5, 1e-130])
        for density in (dist.F, dist.h, dist.F):
            with pytest.raises(DomainError, match="s=1e-130 is outside the double range"):
                density(grid)
