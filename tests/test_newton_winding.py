"""Discrete winding counts."""

import cmath
import math

import pytest

from squig.errors import DegenerateLoopError, RefinementNeededError
from squig.reference import winding_number


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
