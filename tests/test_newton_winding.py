"""Newton inversion of the sector integral and discrete winding counts."""

import cmath
import math

import pytest

from squig.errors import (
    ConvergenceError,
    DegenerateLoopError,
    RefinementNeededError,
)
from squig import reference
from squig.numerics import newton_invert, sector_ray_integral
from squig.reference import NewtonResult, winding_number


class TestNewton:
    @pytest.mark.parametrize("n", [3, 4, 6, 8])
    def test_roundtrip_interior(self, n, rng):
        # Targets drawn inside the half wedge of the base sector.
        for _ in range(6):
            r = rng.uniform(0.2, 0.85)
            ang = rng.uniform(0.1, 0.9) * math.pi / n
            z_true = r * cmath.exp(1j * ang)
            w = sector_ray_integral(n, z_true)
            res = newton_invert(n, w, 0.3 * cmath.exp(1j * math.pi / (2 * n)))
            assert isinstance(res, NewtonResult)
            assert res.residual <= 1e-12
            assert abs(res.z - z_true) < 1e-9

    def test_real_axis_target(self):
        n = 4
        z_true = 0.9999
        w = sector_ray_integral(n, z_true)
        res = newton_invert(n, w, 0.5)
        assert abs(res.z - z_true) < 1e-8
        assert abs(res.z.imag) < 1e-12

    def test_above_slit_target(self):
        n = 4
        z_true = 1.4 * cmath.exp(0.04j)
        w = sector_ray_integral(n, z_true)
        res = newton_invert(n, w, 0.5 * cmath.exp(1j * math.pi / 8))
        assert abs(res.z - z_true) < 1e-9

    def test_far_bisector_target(self):
        n = 4
        z_true = 3.0 * cmath.exp(1j * math.pi / 4)
        w = sector_ray_integral(n, z_true)
        res = newton_invert(n, w, 0.2 * cmath.exp(1j * math.pi / 4))
        assert abs(res.z - z_true) < 1e-8

    def test_failure_reports_residual(self):
        # A target whose preimage sits inside the root guard band is
        # unreachable for the iteration by design.
        n = 4
        corner = sector_ray_integral(n, 1.0)
        with pytest.raises(ConvergenceError) as exc_info:
            newton_invert(n, corner * (1.0 - 1e-4), 0.5, max_iter=12)
        assert exc_info.value.residual > 0.0

    def test_failure_makes_one_pass(self, monkeypatch):
        passes = []
        newton_pass = reference._newton_basic

        def spy(*args):
            passes.append(newton_pass(*args))
            return passes[-1]

        monkeypatch.setattr(reference, "_newton_basic", spy)
        n = 4
        corner = sector_ray_integral(n, 1.0)
        with pytest.raises(ConvergenceError) as exc_info:
            newton_invert(n, corner * (1.0 - 1e-4), 0.5)
        assert len(passes) == 1
        assert exc_info.value.residual == passes[0].residual

    def test_iterations_count_steps_taken(self, monkeypatch):
        # the line search gives up long before max_iter; every evaluation of
        # F whose residual undercuts all before it is an accepted step
        residuals = []
        forward = reference.sector_ray_integral
        n = 4
        w = forward(n, 1.0) * (1.0 - 1e-4)

        def spy(n, u):
            value = forward(n, u)
            residuals.append(abs(value - w))
            return value

        monkeypatch.setattr(reference, "sector_ray_integral", spy)
        res = reference._newton_basic(n, w, 0.5, 1e-12, 50)
        steps = sum(r < min(residuals[:i]) for i, r in enumerate(residuals) if i)
        assert res.residual > 1e-12
        assert res.iterations == steps < 50


class TestWinding:
    def _circle(self, center, radius, samples):
        return [center + radius * cmath.exp(2j * math.pi * k / samples)
                for k in range(samples + 1)]

    def test_unit_circle(self):
        loop = self._circle(0, 1.0, 64)
        assert winding_number(loop, 0j) == 1
        assert winding_number(loop, 3 + 0j) == 0

    def test_orientation(self):
        loop = list(reversed(self._circle(0, 1.0, 64)))
        assert winding_number(loop, 0j) == -1

    def test_double_wrap(self):
        loop = [cmath.exp(4j * math.pi * k / 128) for k in range(129)]
        assert winding_number(loop, 0j) == 2

    def test_open_loop_rejected(self):
        loop = self._circle(0, 1.0, 64)[:-1]
        with pytest.raises(DegenerateLoopError):
            winding_number(loop, 0j)

    def test_through_target_rejected(self):
        loop = self._circle(0, 1.0, 64)
        with pytest.raises(DegenerateLoopError):
            winding_number(loop, loop[3])

    def test_coarse_sampling_rejected(self):
        loop = [1 + 0j, -1 + 0j, 1 + 0j, -1 + 0j, 1 + 0j]
        with pytest.raises(RefinementNeededError):
            winding_number(loop, 0.0001 + 0.0001j)

    def test_too_few_samples_rejected(self):
        with pytest.raises(DegenerateLoopError):
            winding_number([1 + 0j, -1 + 0j, 1 + 0j], 0j)
