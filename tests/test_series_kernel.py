"""Binomial series kernel of the sector map F against independent routes.

The oracle is mpmath's Gauss hypergeometric function through DLMF 15.6.1,
F(u) = u * 2F1((n-1)/n, 1/n; 1 + 1/n; u**n), evaluated at 30 digits.
"""

import cmath
import math

import mpmath
import pytest

from squig.geometry import make_context
from squig.numerics import (
    SERIES_INNER,
    SERIES_OUTER,
    _series_F,
    _series_tables,
    sector_ray_integral,
)
from squig.squigfn import arcsin_n, arcsin_n_sector
from squig.verify import VerifyConfig, run_all

NS = (3, 4, 5, 8, 16, 32, 64)


def hyp2f1_oracle(n: int, u: complex) -> complex:
    with mpmath.workdps(30):
        # Nudge real points above the cut x > 1 of 2F1, so the oracle takes
        # the value continued from inside the sector, as the kernel does.
        uu = mpmath.mpc(u) * mpmath.expjpi(mpmath.mpf(10) ** -25)
        a = mpmath.mpf(n - 1) / n
        b = mpmath.mpf(1) / n
        return complex(uu * mpmath.hyp2f1(a, b, 1 + b, uu ** n))


def threshold_pair(n: int, x_abs: float, theta: float):
    """Adjacent radii around |u**n| = x_abs: (kernel point, annulus point)."""
    r = x_abs ** (1.0 / n)
    inward = -1.0 if x_abs == SERIES_INNER else 1.0
    outward = -inward
    # walk to the last float radius the kernel still accepts
    while _series_F(n, r * cmath.exp(1j * theta)) is None:
        r = math.nextafter(r, inward * math.inf)
    while _series_F(n, math.nextafter(r, outward * math.inf) * cmath.exp(1j * theta)) is not None:
        r = math.nextafter(r, outward * math.inf)
    inside = r * cmath.exp(1j * theta)
    outside = math.nextafter(r, outward * math.inf) * cmath.exp(1j * theta)
    return inside, outside


@pytest.mark.parametrize("n", NS)
def test_matches_hypergeometric_oracle(n):
    angles = (0.0, math.pi / n, 2.0 * math.pi / n - 1e-6)
    worst = 0.0
    for theta in angles:
        points = [x_abs ** (1.0 / n) * cmath.exp(1j * theta) for x_abs in (1e-8, 0.2, 7.0, 1e6)]
        points += [threshold_pair(n, x_abs, theta)[0] for x_abs in (SERIES_INNER, SERIES_OUTER)]
        for u in points:
            got = _series_F(n, u)
            ref = hyp2f1_oracle(n, u)
            worst = max(worst, abs(got - ref) / abs(ref))
    assert worst <= 2e-15


@pytest.mark.parametrize("n", NS)
def test_annulus_returns_none(n):
    for x_abs in (0.51, 1.0, 1.99):
        assert _series_F(n, x_abs ** (1.0 / n) * cmath.exp(0.5j * math.pi / n)) is None


@pytest.mark.parametrize("n", NS)
def test_continuous_with_quadrature_at_thresholds(n):
    for x_abs in (SERIES_INNER, SERIES_OUTER):
        for theta in (0.5 * math.pi / n, math.pi / n):
            inside, outside = threshold_pair(n, x_abs, theta)
            quad = sector_ray_integral(n, outside, 1e-14)
            assert abs(_series_F(n, inside) - quad) <= 1e-13


@pytest.mark.parametrize("n", NS)
def test_slit_edge_band_and_series(n):
    # real x > 1: quadrature in t = 1 + s^n below x^n = 2, the series above
    ctx = make_context(n)
    edge = 2.0 ** (1.0 / n)
    for x in (1.0 + 0.5 / n, math.nextafter(edge, 0.0), math.nextafter(edge, 2.0), 1e3):
        assert abs(arcsin_n_sector(ctx, x) - hyp2f1_oracle(n, x)) <= 1e-14


@pytest.mark.parametrize("n", NS)
def test_gamma_corner_matches_context(n):
    corner = _series_tables(n)[2]
    ctx = make_context(n)
    assert abs(corner - ctx.P) <= 1e-14


@pytest.mark.parametrize("n", (24, 32, 64))
def test_far_field_arcsin_reaches_corner(n):
    # quadrature along [0, w] lost F here: the seed returned about 0, not P
    ctx = make_context(n)
    for theta in (math.pi / n, 0.3 * math.pi / n):
        w = 1000.0 * cmath.exp(1j * theta)
        assert abs(arcsin_n(ctx, w) - ctx.P) <= 1e-13
    far = arcsin_n_sector(ctx, 1000.0 * cmath.exp(1j * math.pi / n))
    assert abs(far - ctx.P) <= 1e-13


def test_verify_suite_runs_at_large_n():
    # the slit and triangle integrands used to overflow at tanh-sinh nodes
    reports = run_all(VerifyConfig(n_values=(32, 64)))
    assert len(reports) == 12
    assert all(r.passed for r in reports)
