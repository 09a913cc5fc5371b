"""The principal branch of the arcsine kernel and its continuation across the roots."""

import cmath
import math

import pytest
import scipy.integrate

from squig.geometry import make_context
from squig.numerics import sector_ray_integral, sector_segment_integral
from squig.squigfn import arcsin_n_sector

from conftest import gamma_half_period, rk4_sine_continuation


def _beyond_root_magnitude(n, x):
    """scipy oracle for the integral of (t^n - 1)^(-(n-1)/n) over [1, x]."""
    beta = (n - 1) / n
    val, _ = scipy.integrate.quad(
        lambda t: (t ** n - 1.0) ** (-beta), 1.0, x,
        points=[1.0], epsabs=1e-13, limit=300)
    return val


class TestPathIntegral:
    def test_in_sector_path_independence(self):
        # The ray integral (binomial series here) and a dog-leg through a
        # quadrature segment integral must reach the same value.
        n = 4
        z = 0.5 + 0.5j
        mid = 0.45 + 0.05j
        ctx = make_context(n)
        direct = sector_ray_integral(ctx, z)
        dog_leg = sector_ray_integral(ctx, mid) + sector_segment_integral(n, mid, z, 1e-13)
        assert abs(direct - dog_leg) < 1e-11

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_real_ray_crossing_picks_upper_phase(self, n):
        # Beyond the root at 1 the integrand continues with the phase factor
        # exp(i pi (n-1)/n) when approached from inside the sector.
        x = 1.8
        value = arcsin_n_sector(make_context(n), x)
        beta = (n - 1) / n
        expect = (gamma_half_period(n)
                  + cmath.exp(1j * math.pi * beta) * _beyond_root_magnitude(n, x))
        assert abs(value - expect) < 5e-10

    def test_rotated_ray_is_conjugate_symmetric(self):
        # The ray through the root at angle 2 pi / n carries the conjugate
        # phase, which makes the two boundary values reflections of each
        # other: value(omega * x) = omega * conj(value(x)).
        n = 4
        ctx = make_context(n)
        omega = cmath.exp(2j * math.pi / n)
        x = 1.8
        lower = arcsin_n_sector(ctx, x)
        upper = arcsin_n_sector(ctx, omega * x)
        assert abs(upper - omega * lower.conjugate()) < 5e-10

    def test_matches_ode_oracle_mid_sector(self):
        # In the annulus 1/2 < |z^n| < 2 the ray integral is the corner
        # chart; continuing the sine's differential equation from 0 to that
        # value must land back on z.
        n = 3
        z = 0.9 * cmath.exp(1j * math.pi / 5)
        w = sector_ray_integral(make_context(n), z)
        assert abs(rk4_sine_continuation(n, w) - z) < 1e-11
