"""Series kernel of the sector map F against independent routes.

The oracle is mpmath's Gauss hypergeometric function through DLMF 15.6.1,
F(u) = u * 2F1((n-1)/n, 1/n; 1 + 1/n; u**n), evaluated at 30 digits.  The
corner-chart coefficients are checked against Miller's recurrence in exact
rational arithmetic, and the kernel against GK15 quadrature of the ray.
"""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest

from squig.geometry import make_context
from squig.numerics import (
    SERIES_INNER,
    SERIES_OUTER,
    _series_tables,
    nearest_root_distance,
    sector_ray_integral,
    sector_segment_integral,
)
from squig.squigfn import arcsin_n, arcsin_n_sector
from squig.verify import VerifyConfig, run_all

NS = (3, 4, 5, 8, 16, 32, 64)
ALL_NS = tuple(range(3, 65))


def hyp2f1_oracle(n: int, u: complex) -> complex:
    with mpmath.workdps(30):
        # Nudge real points above the cut x > 1 of 2F1, so the oracle takes
        # the value continued from inside the sector, as the kernel does.
        uu = mpmath.mpc(u) * mpmath.expjpi(mpmath.mpf(10) ** -25)
        a = mpmath.mpf(n - 1) / n
        b = mpmath.mpf(1) / n
        return complex(uu * mpmath.hyp2f1(a, b, 1 + b, uu ** n))


def straddle(n: int, x_abs: float, theta: float, width: int = 8) -> list:
    """2*width adjacent float radii on the ray at theta around |u**n| = x_abs."""
    r = x_abs ** (1.0 / n)
    while abs((r * cmath.exp(1j * theta)) ** n) > x_abs:
        r = math.nextafter(r, 0.0)
    while abs((r * cmath.exp(1j * theta)) ** n) <= x_abs:
        r = math.nextafter(r, 2.0)
    for _ in range(width):
        r = math.nextafter(r, 0.0)
    radii = [r]
    for _ in range(2 * width - 1):
        radii.append(math.nextafter(radii[-1], 2.0))
    return [rr * cmath.exp(1j * theta) for rr in radii]


def exact_chart_coefficients(n: int, terms: int) -> list:
    """q_k = [delta**k] h**(-(n-1)/n) / (n*k + 1) by Miller's recurrence in Fractions."""
    h = [Fraction(math.comb(n, j + 1), n) * (-1) ** j for j in range(n)]
    alpha = Fraction(-(n - 1), n)
    g = [Fraction(1)]
    for m in range(1, terms):
        acc = Fraction(0)
        for j in range(1, min(m, n - 1) + 1):
            acc += ((alpha + 1) * j - m) * h[j] * g[m - j]
        g.append(acc / m)
    return [c / (n * k + 1) for k, c in enumerate(g)]


@pytest.mark.parametrize("n", NS)
def test_matches_hypergeometric_oracle(n):
    angles = (0.0, math.pi / n, 2.0 * math.pi / n - 1e-6)
    worst = 0.0
    for theta in angles:
        points = [x_abs ** (1.0 / n) * cmath.exp(1j * theta) for x_abs in (1e-8, 0.2, 7.0, 1e6)]
        for x_abs in (SERIES_INNER, SERIES_OUTER):
            points += straddle(n, x_abs, theta, width=1)
        for u in points:
            got = sector_ray_integral(n, u)
            ref = hyp2f1_oracle(n, u)
            worst = max(worst, abs(got - ref) / abs(ref))
    assert worst <= 2e-15


@pytest.mark.parametrize("n", ALL_NS)
def test_annulus_matches_hypergeometric_oracle(n):
    # Seeded points of the annulus 1/2 < |u**n| < 2 over the whole sector,
    # both half-sectors, plus the real ray beyond 1 (the lower slit edge).
    # The chart at omega rotates u, and near a root one ulp of u moves F by
    # |F'(u)| = |1 - u**n|**(-beta) ulps, so draws within 1e-6 of a root,
    # where that alone exceeds the tolerance, are skipped.
    rng = random.Random(1000 + n)
    points = []
    while len(points) < 16:
        x_abs = rng.uniform(SERIES_INNER, SERIES_OUTER)
        u = x_abs ** (1.0 / n) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi / n))
        if SERIES_INNER < abs(u ** n) < SERIES_OUTER and nearest_root_distance(n, u) >= 1e-6:
            points.append(u)
    upper = sum(1 for u in points if cmath.phase(u) > math.pi / n)
    assert 0 < upper < len(points)
    points += [complex(rng.uniform(1.0 + 1e-6, 2.0 ** (1.0 / n)), 0.0) for _ in range(4)]
    worst = 0.0
    for u in points:
        ref = hyp2f1_oracle(n, u)
        worst = max(worst, abs(sector_ray_integral(n, u) - ref) / abs(ref))
    assert worst <= 1e-14


@pytest.mark.parametrize("n", NS)
def test_upper_ray_continues_from_inside(n):
    # Past omega the chart at omega must give the value continued from inside
    # the sector, the mirror image of the lower slit edge, although the
    # rotated point may land a hair off the real ray.
    omega = cmath.exp(2j * math.pi / n)
    for r in (1.0 + 0.1 / n, 0.5 * (1.0 + 2.0 ** (1.0 / n))):
        mirror = omega * sector_ray_integral(n, complex(r, 0.0)).conjugate()
        assert abs(sector_ray_integral(n, r * omega) - mirror) <= 1e-14 * abs(mirror)


@pytest.mark.parametrize("n", ALL_NS)
def test_chart_coefficients_match_exact_recurrence(n):
    # Scaled by rho**k, rho = 2 sin(pi/n) the radius of convergence, every
    # coefficient is O(1) and errors weigh as they do at the chart's edge.
    coeffs, _ = _series_tables(n).chart
    exact = exact_chart_coefficients(n, len(coeffs))
    rho = 2.0 * math.sin(math.pi / n)
    worst = max(abs(c - float(e)) * rho ** k for k, (c, e) in enumerate(zip(coeffs, exact)))
    assert worst <= 2e-15


@pytest.mark.parametrize("n", NS)
def test_continuous_with_quadrature_at_thresholds(n):
    # Across |u**n| = 1/2 and 2 the kernel switches between a binomial series
    # and the corner chart: adjacent floats agree, and both sides agree with
    # GK15 quadrature of the ray.
    for x_abs in (SERIES_INNER, SERIES_OUTER):
        for theta in (0.5 * math.pi / n, math.pi / n, 1.5 * math.pi / n):
            window = straddle(n, x_abs, theta)
            values = [sector_ray_integral(n, u) for u in window]
            for a, b in zip(values, values[1:]):
                assert abs(a - b) <= 1e-14 * abs(a)
            quad = sector_segment_integral(n, 0j, window[0], 1e-14)
            assert abs(values[0] - quad) <= 1e-13


@pytest.mark.parametrize("n", NS)
def test_slit_edge_band_and_series(n):
    # real x > 1: the corner chart on the lower slit edge below x^n = 2,
    # the series at infinity above
    ctx = make_context(n)
    edge = 2.0 ** (1.0 / n)
    for x in (1.0 + 0.5 / n, math.nextafter(edge, 0.0), math.nextafter(edge, 2.0), 1e3):
        assert abs(arcsin_n_sector(ctx, x) - hyp2f1_oracle(n, x)) <= 1e-14


@pytest.mark.parametrize("n", NS)
def test_gamma_corner_matches_context(n):
    tables = _series_tables(n)
    ctx = make_context(n)
    assert abs(tables.corner - ctx.P) <= 1e-14
    assert abs(tables.half - ctx.A) <= 1e-14


@pytest.mark.parametrize("n", (24, 32, 64))
def test_far_field_arcsin_reaches_corner(n):
    # quadrature along [0, w] lost F here: the seed returned about 0, not P
    ctx = make_context(n)
    for theta in (math.pi / n, 0.3 * math.pi / n):
        w = 1000.0 * cmath.exp(1j * theta)
        assert abs(arcsin_n(ctx, w) - ctx.P) <= 1e-13
    far = arcsin_n_sector(ctx, 1000.0 * cmath.exp(1j * math.pi / n))
    assert abs(far - ctx.P) <= 1e-13


@pytest.mark.parametrize("n, w", [
    # the ray quadrature raised QuadratureError here
    (4, 1.1039169525660633 + 0.0006760534113132978j),
    # a slit guard-band cell: 2e-13 relative off, after 23 ms of quadrature
    (16, 1.0316227766016839 + 4.162277660168379e-08j),
])
def test_annulus_arcsin_regressions(n, w):
    ref = hyp2f1_oracle(n, w)
    assert abs(arcsin_n(make_context(n), w) - ref) <= 1e-14 * abs(ref)


def test_verify_suite_runs_at_large_n():
    # the slit and triangle integrands used to overflow at tanh-sinh nodes
    reports = run_all(VerifyConfig(n_values=(32, 64)))
    assert len(reports) == 12
    assert all(r.passed for r in reports)
