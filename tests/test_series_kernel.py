"""Series kernel of the sector map F against independent routes.

The oracle is mpmath's Gauss hypergeometric function through DLMF 15.6.1,
F(u) = u * 2F1((n-1)/n, 1/n; 1 + 1/n; u**n), evaluated at 30 digits.  The
corner-chart coefficients are checked against Miller's recurrence in exact
rational arithmetic, and the kernel against GK15 quadrature of the ray.
The ODE pair's float tables are checked against its exact coefficients, and
the two discs of the inverse against the same oracle: near 0 by solving
F(u) = t with mpmath's findroot, near A through F(sin) + F(cos) = A, solved
for the cosine.  The pole table is checked against Lagrange inversion at 250
digits, and the pole series, which takes every target beyond both discs,
against findroot.  A seeded audit checks ``residual`` against the same
references on points that the fold rotates, reflects and shifts.
"""

import bisect
import cmath
import functools
import math
import random
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

import squig
from squig.geometry import fold, make_context
from squig.numerics import (
    ODE_RADII,
    ODE_TERMS,
    SERIES_INNER,
    SERIES_OUTER,
    _SERIES_EPS,
    _series_tables,
    sector_ray_integral,
    sector_segment_integral,
)
from squig import numerics, squigfn
from squig.regions import sample_domain
from squig.series import _ode_coefficients
from squig.squigfn import arcsin_n, arcsin_n_sector, cos_n, sin_n
from squig.verify import VerifyConfig, gamma_corner_radius, gamma_pi_n, run_all

NS = (3, 4, 5, 8, 16, 32, 64)
ALL_NS = tuple(range(3, 65))


def nearest_root_distance(n: int, z: complex) -> float:
    """Distance from z to the nearest n-th root of unity."""
    return min(abs(z - cmath.exp(2j * math.pi * k / n)) for k in range(n))


def hyp2f1_oracle(n: int, u: complex) -> complex:
    with mpmath.workdps(30):
        return complex(hyp2f1_mp(n, u))


def hyp2f1_mp(n: int, u) -> mpmath.mpc:
    """F(u) at the working precision of mpmath."""
    # Nudge real points above the cut x > 1 of 2F1, so the oracle takes
    # the value continued from inside the sector, as the kernel does.
    uu = mpmath.mpc(u) * mpmath.expjpi(mpmath.mpf(10) ** -25)
    a = mpmath.mpf(n - 1) / n
    b = mpmath.mpf(1) / n
    return uu * mpmath.hyp2f1(a, b, 1 + b, uu ** n)


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


def exact_constants(n: int) -> tuple:
    """A = pi_n / 2 and |P| at 30 digits."""
    with mpmath.workdps(30):
        half = mpmath.gamma(mpmath.mpf(1) / n) ** 2 / (n * mpmath.gamma(mpmath.mpf(2) / n))
        return half, half / (2 * mpmath.cos(mpmath.pi / n))


@pytest.mark.parametrize("n", ALL_NS)
def test_gamma_corner_matches_context(n):
    # the context reads A and P from the kernel's tables: one source, so the
    # series and the polygon agree bit for bit
    tables = _series_tables(n)
    ctx = make_context(n)
    assert ctx.P == tables.corner
    assert ctx.A == tables.half
    assert ctx.pi_n == 2.0 * tables.half


def test_series_constants_against_mpmath():
    # measured worst: 1.9e-16 for A (n = 35) and 2.7e-16 for |P| (n = 64);
    # the GK15 quarter period this replaced was 3.3e-16 and 4.4e-16 off (n = 27)
    for n in ALL_NS:
        ctx = make_context(n)
        half, corner = exact_constants(n)
        assert abs(ctx.A.real - half) <= 2.5e-16 * half, n
        assert abs(ctx.pi_n - 2 * half) <= 2.5e-16 * 2 * half, n
        assert abs(ctx.R - corner) <= 3.5e-16 * corner, n


def test_make_context_runs_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("make_context ran a quadrature")

    # every squig module that holds the rule, as the benchmark's tracer finds it
    real = squig.numerics.integrate_smooth
    for name in ("numerics", "geometry", "squigfn", "verify"):
        module = getattr(squig, name)
        if getattr(module, "integrate_smooth", None) is real:
            monkeypatch.setattr(module, "integrate_smooth", refuse)
    for n in ALL_NS:
        assert make_context(n).n == n


def test_gamma_forms_against_mpmath():
    # verify's closed-form oracle; the worst relative error over n = 3..64 is
    # 1.18e-15, at n = 17, which is why the library does not use it
    for n in ALL_NS:
        half, corner = exact_constants(n)
        assert abs(gamma_pi_n(n) - 2 * half) <= 1.2e-15 * 2 * half, n
        assert abs(gamma_corner_radius(n) - corner) <= 1.2e-15 * corner, n


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


# ---------------------------------------------------------------------------
# the ODE pair's tables and its two discs, at 0 and at A


@pytest.mark.parametrize("n", ALL_NS)
def test_ode_tables_match_exact(n):
    # each entry is its exact scaled coefficient rounded once, so within an
    # ulp; and at most 2 in modulus, which the cut's remainder bound rests on
    tables = _series_tables(n)
    exact_s, exact_c = _ode_coefficients(n, ODE_TERMS)
    unit = Fraction(tables.scale)
    assert len(tables.sine) == len(tables.cosine) == ODE_TERMS
    for k, (a, b, s, c) in enumerate(zip(tables.sine, tables.cosine, exact_s, exact_c)):
        for got, want in ((a, s * unit**k), (b, c * unit**k)):
            assert abs(Fraction(got) - want) <= Fraction(2.0**-52) * abs(want), (k, got)
            assert abs(got) <= 2.0, (k, got)


def root_pair(n: int, w, guess: complex) -> tuple:
    """(u, (1 - u**n)**(1/n)) at the root u of F(u) = w next to guess, at 30
    digits: (sin, cos) at w."""
    with mpmath.workdps(30):
        u = mpmath.findroot(lambda u: hyp2f1_mp(n, u) - w, mpmath.mpc(guess))
        return complex(u), complex((1 - u ** n) ** (mpmath.mpf(1) / n))


def corner_oracle(n: int, t: complex, c0: complex) -> tuple:
    """(sin, cos) at a target t near A, at 30 digits.

    F(c) = A - F(u) for c = (1 - u**n)**(1/n), so c is the root of
    F(c) = A - t next to c0; the n-th-root singularity at u = 1 becomes a
    regular root there (at n = 64, |u - 1| can be 1e-60 while |A - t| is 0.1).
    """
    with mpmath.workdps(30):
        y = exact_constants(n)[0] - mpmath.mpc(t)
    c, s = root_pair(n, y, c0)
    return s, c


def disc_targets(ctx, rng, at_corner: bool) -> list:
    """Targets of the half-kite triangle that take the disc at A (or at 0):
    inside it and nearer its centre than the other one.  Interior points,
    one on the rim and one on each of the two edges through the centre.

    The direction ``phase`` runs from the edge towards the other centre
    (phase 0) to the edge through P (phase 1); the targets nearer to the
    centre reach A / (2 cos(phase pi/n)) along it.
    """
    n = ctx.n
    radius = _series_tables(n).disc
    draws = [(rng.uniform(0.1, 1.0), rng.random()) for _ in range(4)]
    draws += [(1.0 - 1e-12, rng.random()), (rng.uniform(0.1, 1.0), 0.0),
              (rng.uniform(0.1, 1.0), 1.0)]
    targets = []
    for frac, phase in draws:
        reach = min(radius, ctx.A.real / (2.0 * math.cos(math.pi * phase / n)))
        w = frac * reach * cmath.exp(1j * math.pi * phase / n)
        targets.append(ctx.A - w.conjugate() if at_corner else w)
    return targets


@pytest.mark.parametrize("n", ALL_NS)
def test_corner_route_against_mpmath(n, monkeypatch):
    # the disc at A; measured worst over n = 3..64: 4.0e-16 for sin and
    # 2.1e-15 for cos, and at most 0.57 of the certificate
    ctx = make_context(n)
    hits = []
    invert = squigfn._corner_invert
    monkeypatch.setattr(squigfn, "_corner_invert",
                        lambda c, y, sine: hits.append(y) or invert(c, y, sine))
    targets = disc_targets(ctx, random.Random(f"corner:{n}"), at_corner=True)
    for t in targets:
        s, c = sin_n(ctx, t), cos_n(ctx, t)
        ref_s, ref_c = corner_oracle(n, t, c.value)
        assert abs(s.value - ref_s) <= 1e-14 * abs(ref_s), t
        assert abs(c.value - ref_c) <= 1e-14 * abs(ref_c), t
        assert abs(s.value - ref_s) <= s.residual, t
        assert abs(c.value - ref_c) <= c.residual, t
    assert len(hits) == 2 * len(targets)


@pytest.mark.parametrize("n", ALL_NS)
def test_zero_disc_against_mpmath(n, monkeypatch):
    # the disc at 0; measured worst over n = 3..64: 2.2e-16 for sin and
    # for cos, and at most 0.49 of the certificate
    ctx = make_context(n)
    for name in ("_corner_invert", "_pole_invert"):
        monkeypatch.setattr(squigfn, name, lambda *args, **kw: pytest.fail("left the disc"))
    for t in disc_targets(ctx, random.Random(f"zero:{n}"), at_corner=False):
        s, c = sin_n(ctx, t), cos_n(ctx, t)
        ref_s, ref_c = root_pair(n, mpmath.mpc(t), s.value)
        assert abs(s.value - ref_s) <= 1e-14 * abs(ref_s), t
        assert abs(c.value - ref_c) <= 1e-14 * abs(ref_c), t
        assert abs(s.value - ref_s) <= s.residual, t
        assert abs(c.value - ref_c) <= c.residual, t


@pytest.mark.parametrize("n", ALL_NS)
def test_reflection_identity(n):
    # sin_n(t) = cos_n(A - t) and cos_n(t) = sin_n(A - t) on the triangle;
    # A - t folds onto the other disc, so each side takes the other table;
    # measured worst 3.4e-15
    ctx = make_context(n)
    radius = _series_tables(n).disc
    checked = 0
    for z in sample_domain(ctx, random.Random(f"reflect:{n}"), 60):
        t = fold(ctx, z).folded
        if min(abs(t), abs(ctx.A - t)) > radius:
            continue
        for left, right in ((sin_n, cos_n), (cos_n, sin_n)):
            got, want = left(ctx, t).value, right(ctx, ctx.A - t).value
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), t
        checked += 1
    assert checked >= 40


@pytest.mark.parametrize("n, z", [
    (3, 0.33919464005480526 - 1.529954036498533j),
    (3, -1.3249790143326923 + 0.7649769905955853j),
    (5, -0.49916127731013354 - 1.1169684782620004j),
    (8, 1.025474606934223 - 0.5187932217320756j),
])
def test_former_edge_failures_take_the_disc(n, z, monkeypatch):
    # edge-image targets 3e-9 |A| off A-P, 0.5-0.88 R from A, where Newton
    # from the pole seed raised ConvergenceError
    ctx = make_context(n)
    monkeypatch.setattr(squigfn, "_pole_invert", lambda *a, **kw: pytest.fail("left the disc"))
    t = fold(ctx, z).folded
    s, c = sin_n(ctx, t), cos_n(ctx, t)
    ref_s, ref_c = corner_oracle(n, t, c.value)
    assert abs(s.value - ref_s) <= 1e-14 * abs(ref_s)
    assert abs(c.value - ref_c) <= 1e-14 * abs(ref_c)
    assert sin_n(ctx, z).value is not None and cos_n(ctx, z).value is not None


def test_corner_certificate_is_a_forward_bound():
    # the returned 1.0 is 2e-2 off in image space, |F(1) - t|; the residual
    # bounds its forward error instead: an ulp of 1.0
    ctx = make_context(16)
    t = 0.99 * ctx.A
    s, c = sin_n(ctx, t), cos_n(ctx, t)
    assert s.value == 1.0
    assert abs(sector_ray_integral(16, 1.0) - t) > 1e-2
    ref_s, ref_c = corner_oracle(16, t, c.value)
    assert abs(s.value - ref_s) <= s.residual <= 2.0**-52
    assert abs(c.value - ref_c) <= c.residual


@pytest.mark.parametrize("n", ALL_NS)
def test_corner_newton_steps(n, monkeypatch):
    # no Newton left at A: one one-table sum per inversion, cut within the
    # tables' length at half an ulp on the whole disc, its rim included
    ctx = make_context(n)
    tables = _series_tables(n)
    rng = random.Random(f"steps:{n}")
    rim = tables.disc * (1.0 - 1e-15)
    ys = [rim * cmath.exp(2j * math.pi * k / 32) for k in range(32)]
    ys += [rim * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
           for _ in range(32)]
    sums = []
    series_sum = squigfn._series_sum

    def counted(table, w, *args):
        sums.append((w, table is tables.sine))
        return series_sum(table, w, *args)

    monkeypatch.setattr(squigfn, "_series_sum", counted)
    for y in ys:
        for sine in (True, False):
            sums.clear()
            got = squigfn._corner_invert(ctx, y, sine)
            assert got is not None, y
            # one sum, of the other table: sin_n(A - y) = cos_n(y) and
            # cos_n(A - y) = sin_n(y)
            assert sums == [(y, not sine)], y
        rho = abs(y**n / tables.scale)
        terms = min(bisect.bisect_left(ODE_RADII, rho) + 1, ODE_TERMS)
        assert 2.0 * rho**terms / (1.0 - rho) <= _SERIES_EPS, y
    assert squigfn._corner_invert(ctx, tables.disc * 1.001, True) is None


@pytest.mark.parametrize("n", NS)
def test_arcsin_near_corner_is_the_kernel(n):
    # the former chart band of arcsin_n, lower slit edge included
    ctx = make_context(n)
    r = 0.1 * math.sin(math.pi / n)
    for u in (1.0 - r, 1.0 + r, 1.0 + r * cmath.exp(0.7j), 1.0 + r * 1j):
        # the real ray beyond 1 is a slit of arcsin_n, an edge of the sector
        value = arcsin_n_sector(ctx, u) if u == 1.0 + r else arcsin_n(ctx, u)
        assert value == sector_ray_integral(n, u)
        ref = hyp2f1_oracle(n, u)
        assert abs(value - ref) <= 1e-14 * abs(ref)


# ---------------------------------------------------------------------------
# the pole series at P, over every target beyond both discs

POLE_NS = (3, 4, 5, 8, 12, 16, 32, 64)


@functools.lru_cache(maxsize=None)
def exact_pole_coefficients(n: int, terms: int) -> tuple:
    """k_j = [x**j] g(x)**(-(nj+1)/(n-2)) / (nj+1), g_k = (n-2) c_k / (n-2+nk),
    by Lagrange inversion: one Miller recurrence per j, at 250 digits.  The
    form cancels about a digit a term, so 250 digits leave over 100 to spare
    at the 112 terms asked for here."""
    with mpmath.workdps(250):
        beta = mpmath.mpf(n - 1) / n
        g, c = [], mpmath.mpf(1)
        for k in range(terms):
            g.append(c * (n - 2) / (n - 2 + n * k))
            c *= (beta + k) / (k + 1)
        ig = [i * gi for i, gi in enumerate(g)]
        out = []
        for j in range(terms):
            alpha1 = 1 - mpmath.mpf(n * j + 1) / (n - 2)  # the exponent plus 1
            q = [mpmath.mpf(1)]
            for m in range(1, j + 1):
                rev = q[m - 1::-1]
                q.append((alpha1 * mpmath.fdot(ig[1:m + 1], rev)
                          - m * mpmath.fdot(g[1:m + 1], rev)) / m)
            out.append(q[j] / (n * j + 1))
        return tuple(out)


@pytest.mark.parametrize("n", ALL_NS)
def test_pole_table_matches_exact(n):
    # each entry is its exact coefficient rounded once (measured: within
    # 0.97 of half an ulp), over the table's whole length at the n of
    # POLE_NS (whose oracle runs to twice it, for the rate test) and over
    # its first 24 entries at the others, to save time
    table = _series_tables(n).pole
    exact = exact_pole_coefficients(n, 2 * len(table) if n in POLE_NS else 24)
    for j, got in enumerate(table[:len(exact)]):
        assert abs(got - exact[j]) <= 2.0**-52 * abs(exact[j]), (j, got)


@pytest.mark.parametrize("n", POLE_NS)
def test_pole_rate_bounds_later_coefficients(n):
    # the certificate bounds the tail beyond the cut by the geometric series
    # of the rate, 1/|X| at k's nearest singularity; the exact coefficients
    # to twice the table's length stay below rate**j (measured with the
    # recurrence at 1,500 bits for j < 200 and n = 3..64: at most 0.996 of
    # it, at n = 6, j = 2), and their root
    # test climbs towards the rate, so it is k's radius, not a guess above it
    tables = _series_tables(n)
    table, rate = tables.pole, tables.rate
    exact = exact_pole_coefficients(n, 2 * len(table))
    for j, k in enumerate(exact):
        assert abs(k) <= rate**j, j
    assert abs(exact[-1]) ** (1.0 / (len(exact) - 1)) >= 0.85 * rate


def half_kite_beyond_discs(ctx, t: complex) -> bool:
    """t lies in the closed half-kite triangle O, A, P, outside both discs."""
    n, radius = ctx.n, _series_tables(ctx.n).disc
    inside = (t.imag >= 0.0 and cmath.phase(t) <= math.pi / n
              and cmath.phase(t - ctx.A) >= math.pi - math.pi / n)
    return inside and min(abs(t), abs(ctx.A - t)) >= radius


def x_abs(ctx, t: complex) -> float:
    """|W**n| of the pole series at t."""
    n = ctx.n
    return ((n - 2) * abs(ctx.P - t)) ** (n / (n - 2))


def rim_supremum(ctx, samples: int) -> complex:
    """The target of largest |X| the pole series is handed, by sampling both
    disc rims across the half kite: |P - t| is convex, so it lies on them."""
    n, radius = ctx.n, _series_tables(ctx.n).disc
    rims = []
    for j in range(samples + 1):
        turn = cmath.exp(1j * math.pi / n * j / samples)
        rims += [radius * turn, ctx.A - radius * turn.conjugate()]
    return max((t for t in rims if half_kite_beyond_discs(ctx, t)), key=lambda t: x_abs(ctx, t))


@pytest.mark.parametrize("n", (3, 4, 5, 6, 8, 9, 12, 16, 32, 64))
def test_pole_table_covers_the_lens(n):
    # |P - t| is convex, so the largest |X| the route is handed lies on the
    # disc rims; sampled densely there (measured: 0.059 at n = 3, 3.25 at
    # n = 9), the table's last term leaves less than half an ulp, and one
    # entry fewer would not
    ctx = make_context(n)
    sup = x_abs(ctx, rim_supremum(ctx, 4000))
    tables = _series_tables(n)
    table, rate = tables.pole, tables.rate
    q = rate * sup
    assert q**len(table) / (1.0 - q) <= _SERIES_EPS
    assert 2.0 * q ** (len(table) - 1) / (1.0 - q) > _SERIES_EPS


def pole_targets(ctx, rng) -> list:
    """Targets 1.5e-6 R to 0.3 R from P, log-uniform in distance, across the
    kite's angle at P between its edge to A and the ray to 0, both ends
    excluded (the edge itself is test_exact_slit_edge_targets'), four
    uniform targets of the half-kite triangle beyond both discs, and one
    next to the rim point of largest |X|, in the lens from n = 5 on.  A
    target stays above the real axis, the half kite's third side."""
    to_a, to_0 = cmath.phase(ctx.A - ctx.P), cmath.phase(-ctx.P)
    targets = []
    for _ in range(8):
        angle = to_a + (to_0 - to_a) * rng.uniform(0.01, 0.99)
        reach = min(0.3 * ctx.R, 0.99 * ctx.P.imag / -math.sin(angle))
        r = 10.0 ** rng.uniform(math.log10(1.5e-6 * ctx.R), math.log10(reach))
        targets.append(ctx.P + r * cmath.exp(1j * angle))
    while len(targets) < 12:
        a, b = rng.random(), rng.random()
        if a + b > 1.0:
            a, b = 1.0 - a, 1.0 - b
        t = a * ctx.A + b * ctx.P
        if t.imag > 0.0 and half_kite_beyond_discs(ctx, t):
            targets.append(t)
    rim = rim_supremum(ctx, 200)
    return targets + [rim + 1e-3 * (ctx.P - rim) + 1e-9j]


def pole_root(n: int, t: complex, guess: complex) -> tuple:
    """(sin, cos) at t next to the sine guess, at 30 digits; the cosine is
    u e^(-i pi/n) (1 - u**-n)**(1/n), equal to (1 - u**n)**(1/n) inside."""
    with mpmath.workdps(30):
        u = mpmath.findroot(lambda u: hyp2f1_mp(n, u) - mpmath.mpc(t), mpmath.mpc(guess))
        c = u * mpmath.expjpi(-mpmath.mpf(1) / n) * (1 - u ** -n) ** (mpmath.mpf(1) / n)
        return complex(u), complex(c)


@pytest.mark.parametrize("n", ALL_NS)
def test_pole_series_and_lens_against_mpmath(n, monkeypatch):
    # every target beyond both discs takes the pole series, the lens
    # (|X| > 2/3, at n >= 5) included: forward error within its certificate
    # (measured over n = 3..64: at most 0.66 of it next to P, 0.35 from
    # 0.05 R on), and within 1e-14 relative (measured: 2.4e-15) once P's
    # rounding, magnified by 1/|P - t|, is below that
    ctx = make_context(n)
    for name in ("newton_invert", "_newton_basic"):
        monkeypatch.setattr(numerics, name, lambda *a, **kw: pytest.fail("Newton"))
    lens = 0
    for t in pole_targets(ctx, random.Random(f"pole:{n}")):
        s, c = sin_n(ctx, t), cos_n(ctx, t)
        ref_s, ref_c = pole_root(n, t, s.value)
        assert abs(s.value - ref_s) <= s.residual, t
        assert abs(c.value - ref_c) <= c.residual, t
        assert s.residual <= 1e-9 * abs(ref_s), t
        if abs(ctx.P - t) >= 0.05 * ctx.R:
            assert abs(s.value - ref_s) <= 1e-14 * abs(ref_s), t
            assert abs(c.value - ref_c) <= 1e-14 * abs(ref_c), t
        lens += x_abs(ctx, t) > 2.0 / 3.0
    assert lens > 0 or n <= 4


@pytest.mark.parametrize("n", ALL_NS)
def test_exact_slit_edge_targets(n):
    # t = A + e^(i pi beta) m on the edge image A-P, from the disc at A's rim
    # to 0.999 R: the sine is real and at least 1, and the cosine takes the
    # branch continued from inside the sector, not its conjugate.  Both
    # carry the rounding of t relative to |P - t|: 1.5e-13 at 0.999 R, n = 4
    ctx = make_context(n)
    tables = _series_tables(n)
    for f in (0.0, 0.05, 0.2, 0.4, 0.6, 0.8, 0.95, 1.0):
        m = tables.disc + f * (0.999 * ctx.R - tables.disc)
        t = ctx.A + tables.phase * m
        s, c = sin_n(ctx, t).value, cos_n(ctx, t).value
        assert abs(s.imag) <= 1e-12 * abs(s) and s.real >= 1.0, (m, s)
        want = cmath.exp(-1j * math.pi / n) * (s.real**n - 1.0) ** (1.0 / n)
        assert abs(c - want) <= 1e-12 * abs(want), (m, c, want)
        assert abs(hyp2f1_oracle(n, s.real) - t) <= 1e-12 * ctx.R, m


# ---------------------------------------------------------------------------
# the certificate of the whole call: fold, route and unfold


def audit_points(ctx, rng) -> list:
    """Rosette points whose fold moves them: ``sample_domain`` draws, and
    targets of the half-kite triangle 1e-6 to half the disc radius from A
    and 2e-6 R to 0.2 R from P, each rotated into two wedges, and
    reflected there; at n == 3, every other point also shifted by the
    lattice, up to 50 cells each way."""
    n, A, P = ctx.n, ctx.A, ctx.P
    radius = _series_tables(n).disc
    to_p, to_a, to_0 = cmath.phase(P - A), cmath.phase(A - P), cmath.phase(-P)
    targets = []
    for _ in range(3):
        r = 10.0 ** rng.uniform(-6.0, math.log10(0.5 * radius))
        targets.append(A + r * cmath.exp(1j * (math.pi - (math.pi - to_p) * rng.uniform(0.01, 0.99))))
        r = 10.0 ** rng.uniform(math.log10(2e-6 * ctx.R), math.log10(0.2 * ctx.R))
        targets.append(P + r * cmath.exp(1j * (to_a + (to_0 - to_a) * rng.uniform(0.01, 0.99))))
    pts = sample_domain(ctx, rng, 24)
    for t in targets:
        for k in (rng.randrange(1, n), rng.randrange(n)):
            pts += [t * ctx.roots[k], t.conjugate() * ctx.roots[k]]
    if n == 3:
        c1, c2 = ctx.cell_shift_1, ctx.cell_shift_2
        pts += [z + rng.randint(-50, 50) * c1 + rng.randint(-50, 50) * c2 for z in pts[::2]]
    return pts


def unfolded_reference(ctx, z) -> tuple:
    """(sin, cos, route) at z, at 30 digits: the fold's own decisions undone
    exactly on z, the reference of the route at that exact target (rounded
    to a double, half an ulp), and the unfold redone exactly on it."""
    n = ctx.n
    fr = fold(ctx, z)
    t = fr.folded
    m1, m2 = fr.lattice_shift
    with mpmath.workdps(30):
        omega = mpmath.expjpi(mpmath.mpf(2) / n)
        a = exact_constants(n)[0]
        exact = (mpmath.mpc(z) - m1 * a * (1 - omega) - m2 * a * (1 - omega**2)) \
            * omega ** -fr.rotation_k
        if fr.conjugated:
            exact = mpmath.conj(exact)
    radius, y = _series_tables(n).disc, ctx.A - t
    if abs(t) <= abs(y) and abs(t) <= radius:
        route = "disc 0"
        s, c = root_pair(n, exact, sin_n(ctx, t).value)
    elif abs(t) > abs(y) and abs(y) <= radius:
        route = "disc A"
        s, c = corner_oracle(n, exact, cos_n(ctx, t).value)
    else:
        route = "pole"
        s, c = pole_root(n, exact, sin_n(ctx, t).value)
    with mpmath.workdps(30):
        s, c = mpmath.mpc(s), mpmath.mpc(c)
        if fr.conjugated:
            s, c = mpmath.conj(s), mpmath.conj(c)
        return (s * omega ** (fr.rotation_k + m2 - m1), c * omega ** (m1 - m2), route)


def certified_ratio(result, exact) -> float:
    """|value - exact| over ``residual``."""
    with mpmath.workdps(30):
        return float(abs(mpmath.mpc(result.value) - exact)) / result.residual


def test_fold_round_covers_one_rotation():
    # a rotation by a stored root rounds by the root's error plus the
    # product's, sqrt(5)/2 ulps; the roots are built from a rounded angle
    # and are up to 5.6 ulps off (n = 49, k = 44), so the 7 ulps of
    # _FOLD_ROUND bound every rotation of the fold and the unfold
    worst = 0.0
    with mpmath.workdps(40):
        for n in ALL_NS:
            ctx = make_context(n)
            for k in range(n):
                exact = mpmath.expjpi(mpmath.mpf(2 * k) / n)
                for root, want in ((ctx.roots[k], exact), (ctx.inv_roots[k], 1 / exact)):
                    worst = max(worst, float(abs(mpmath.mpc(root) - want)))
    assert worst + math.sqrt(5.0) / 2.0 * 2.0**-52 <= squigfn._FOLD_ROUND
    assert worst > 5.0 * 2.0**-52


@pytest.mark.parametrize("n", NS + (49,))
def test_residual_bounds_every_folded_call(n):
    # |value - exact| <= residual on points the fold rotates, reflects and
    # (n == 3) shifts, on all three routes, and at n = 49, whose roots are
    # furthest off.  The error of the folded target (the fold's rounding,
    # A's, P's, the lattice's) reaches the value through its slope.
    # Measured over the 816 checks: at most 0.46 of the residual, with the
    # 7 ulps of _FOLD_ROUND for each rotation of the fold and of the
    # unfold; with 4 ulps, 0.73, with 3, 0.91, and with 2 two calls exceed
    # it.  Without the fold's rounding and the unfold's, 72 calls were
    # above it, up to 4.6 times
    ctx = make_context(n)
    routes = Counter()
    pts = audit_points(ctx, random.Random(f"audit:{n}"))
    for z in pts:
        s_ref, c_ref, route = unfolded_reference(ctx, z)
        routes[route] += 1
        for fn, exact in ((sin_n, s_ref), (cos_n, c_ref)):
            assert certified_ratio(fn(ctx, z), exact) <= 1.0, (fn.__name__, z, route)
    assert set(routes) == {"disc 0", "disc A", "pole"}, routes
    moved = sum(fold(ctx, z).folded != z for z in pts)
    assert moved >= 0.8 * len(pts), (moved, len(pts))


def test_residual_bounds_the_reflected_cosine_near_a():
    # the counterexample of a residual that left out the fold: 2.55 times
    # off at the parent, where the reflection rounded twice; the fold is now
    # conj(z), which is exact
    ctx = make_context(3)
    z = 1.7666384166165678 - 2.1073619284870578e-07j
    assert certified_ratio(cos_n(ctx, z), unfolded_reference(ctx, z)[1]) <= 0.2
    fr = fold(ctx, z)
    assert fr.conjugated and fr.rotation_k == 0 and fr.folded == z.conjugate()
