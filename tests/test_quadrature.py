"""Quadrature layer: the one double-exponential rule, tanh-sinh on [a, b]
and exp-sinh on [a, inf), behind the four public quadrature names."""

import math

import pytest
import scipy.integrate

from squig.errors import DivergenceError, ParameterError, QuadratureError
from squig.numerics import (
    _tanh_sinh,
    integrate_endpoint_singular,
    integrate_smooth,
    integrate_tail,
)
from squig.reference import _MAX_QUAD_LEVEL, QuadratureResult

from conftest import gamma_half_period, slit_integral_oracle


def _period_integrand(n):
    beta = (n - 1) / n

    def f3(x, dl, dr):
        # 1 - x^n = dr * (1 + x + ... + x^(n-1)) since the interval is [0, 1]
        poly = 0.0
        xk = 1.0
        for _ in range(n):
            poly += xk
            xk *= x
        return (dr * poly) ** (-beta)

    return f3


class TestEndpointSingular:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 11])
    def test_half_period_offset_aware(self, n):
        res = integrate_endpoint_singular(
            _period_integrand(n), 0.0, 1.0,
            right_exp=(n - 1) / n, tol=1e-13)
        assert abs(res.value.real - gamma_half_period(n)) < 1e-12
        assert abs(res.value.imag) == 0.0

    def test_both_endpoints_singular(self):
        # arcsine kernel: integral of (x(1-x))^(-1/2) over [0,1] is pi
        res = integrate_endpoint_singular(
            lambda x, dl, dr: (dl * dr) ** -0.5, 0.0, 1.0,
            left_exp=0.5, right_exp=0.5, tol=1e-13)
        assert abs(res.value.real - math.pi) < 1e-12

    def test_smooth_case_matches_closed_form(self):
        res = integrate_endpoint_singular(lambda x, dl, dr: math.exp(x), 0.0, 1.0, tol=1e-13)
        assert abs(res.value.real - (math.e - 1.0)) < 1e-12

    def test_divergent_exponent_rejected(self):
        with pytest.raises(DivergenceError):
            integrate_endpoint_singular(lambda x, dl, dr: 1.0 / dl, 0.0, 1.0, left_exp=1.0)

    def test_bad_interval_rejected(self):
        with pytest.raises(ParameterError):
            integrate_endpoint_singular(lambda x, dl, dr: x, 1.0, 0.0)

    def test_err_estimate_bounds_final_doubling(self):
        # The reported estimate must cover what the last level change was.
        history = _tanh_sinh(_period_integrand(4), 0.0, 1.0, 1e-13, _MAX_QUAD_LEVEL)[3]
        res = integrate_endpoint_singular(
            _period_integrand(4), 0.0, 1.0, right_exp=0.75, tol=1e-13)
        final_change = abs(history[-1] - history[-2])
        assert final_change <= res.err_estimate * 1.0000001

    def test_level_cap_limits_refinement(self):
        # An interior kink converges too slowly for 3 doublings; the capped
        # run must fail loudly and carry its last estimates.
        with pytest.raises(QuadratureError) as exc_info:
            _tanh_sinh(lambda x, dl, dr: abs(x - 1.0 / math.pi), 0.0, 1.0, 1e-13, 3)
        assert exc_info.value.last_estimates


class TestSmoothRule:
    @pytest.mark.parametrize("degree", range(23))
    def test_polynomials(self, degree):
        # no longer exact through degree 22, as one Kronrod panel was, but
        # within a few ulps
        res = integrate_smooth(lambda x: x ** degree, 0.0, 1.0, tol=1e-13)
        assert abs(res.value.real - 1.0 / (degree + 1)) < 5e-15

    def test_oscillatory_complex(self):
        import cmath
        res = integrate_smooth(lambda x: cmath.exp(1j * x), 0.0, math.pi, tol=1e-13)
        assert abs(res.value - 2j) < 1e-12

    def test_interior_spike_matches_scipy(self):
        f = lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2)
        ours = integrate_smooth(f, 0.0, 1.0, tol=1e-12)
        ref, ref_err = scipy.integrate.quad(f, 0.0, 1.0, epsabs=1e-13, limit=200)
        assert abs(ours.value.real - ref) < 1e-9

    def test_interior_kink_raises_at_the_level_cap(self):
        # the rule's only budget is its level cap
        with pytest.raises(QuadratureError):
            integrate_smooth(lambda x: abs(x - 1.0 / 3.0) ** -0.9, 0.0, 1.0, tol=1e-13)

    @pytest.mark.parametrize("f", [lambda x: x ** 2000, lambda x: (1.0 - x) ** 2000])
    def test_mass_arriving_late(self, f):
        # the terms at t = 1/2 and 1 are below tol; a side that ended there
        # would miss the mass within 1e-2 of the end
        res = integrate_smooth(f, 0.0, 1.0)
        assert abs(res.value - 1.0 / 2001.0) <= 1e-13

    def test_result_type(self):
        res = integrate_smooth(lambda x: x, 0.0, 2.0, tol=1e-13)
        assert isinstance(res, QuadratureResult)
        assert res.evaluations >= 15


class TestTail:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
    def test_slit_tail_closed_form(self, n):
        beta = (n - 1) / n

        def f3(t, dl, dr):
            poly = 0.0
            tk = 1.0
            for _ in range(n):
                poly += tk
                tk *= t
            return (dl * poly) ** (-beta)

        res = integrate_tail(f3, 1.0, decay_exp=float(n - 1), tol=1e-13)
        assert abs(res.value.real - slit_integral_oracle(n)) < 1e-11

    def test_zero_start_allowed(self):
        # Whole-ray variant of the same value, no singular point at all.
        n = 4
        res = integrate_tail(lambda t, dl, dr: (1.0 + t ** n) ** (-0.75), 0.0,
                             decay_exp=3.0, tol=1e-13)
        assert abs(res.value.real - slit_integral_oracle(n)) < 1e-11

    def test_generic_tail_matches_atan(self):
        res = integrate_tail(lambda t, dl, dr: 1.0 / (1.0 + t * t), 1.0,
                             decay_exp=2.0, tol=1e-13)
        assert abs(res.value.real - math.pi / 4.0) < 1e-12

    def test_scipy_cross_check(self):
        f = lambda t: t ** -2.5 * math.cos(1.0 / t)
        ours = integrate_tail(lambda t, dl, dr: f(t), 2.0, decay_exp=2.5, tol=1e-12)
        ref, _ = scipy.integrate.quad(f, 2.0, math.inf, epsabs=1e-13)
        assert abs(ours.value.real - ref) < 1e-10

    def test_divergent_decay_rejected(self):
        with pytest.raises(DivergenceError):
            integrate_tail(lambda t, dl, dr: 1.0 / t, 1.0, decay_exp=1.0)

    def test_singular_start(self):
        # exp-sinh hands f the exact dl: (t - 1)**-0.5 t**-1.5 over [1, inf) is 2
        res = integrate_tail(lambda t, dl, dr: dl ** -0.5 * t ** -1.5, 1.0,
                             decay_exp=2.0, tol=1e-13)
        assert abs(res.value.real - 2.0) < 1e-12

    @pytest.mark.parametrize("a", [1e150, 1e300, 1e308])
    def test_cut_near_the_float_range(self, a):
        # the integral of t**-2 from a is 1/a; the u = 1/t fold of t**-2
        # turned into 0 * inf at a = 1e308 and raised QuadratureError
        res = integrate_tail(lambda t, dl, dr: 1.0 / (t * t), a, 2.0)
        assert abs(res.value - 1.0 / a) <= 1e-12

    def test_small_tail_is_relative(self):
        # the slit tail at n = 34 is about 7e-12; with tol far below it only
        # the relative cut ends a side
        n = 34
        beta = (n - 1) / n
        res = integrate_tail(lambda t, dl, dr: (t ** n - 1.0) ** -beta, 2.0, n - 1.0,
                             tol=1e-30)
        want, _ = scipy.integrate.quad(lambda t: (t ** n - 1.0) ** -beta, 2.0, math.inf,
                                       epsabs=0.0, epsrel=1e-13)
        assert abs(res.value.real - want) <= 1e-13 * want

    @pytest.mark.parametrize("c", [1e3, 1e6])
    def test_mass_arriving_late(self, c):
        # t**-2 exp(-c/t) has its mass near t = c, and its first terms
        # beyond t = 0 underflow or lie below tol; the integral is 1/c
        res = integrate_tail(lambda t, dl, dr: t ** -2 * math.exp(-c / t), 0.0, 2.0,
                             tol=1e-13 / c)
        assert abs(res.value - 1.0 / c) <= 1e-12 / c

    def test_negative_start(self):
        # exp-sinh takes any finite start: 1/(1 + t**2) from -1 is 3 pi / 4
        res = integrate_tail(lambda t, dl, dr: 1.0 / (1.0 + t * t), -1.0,
                             decay_exp=2.0, tol=1e-13)
        assert abs(res.value - 0.75 * math.pi) <= 1e-13
