"""The per-context hot path against the per-call code it replaced.

``make_context`` builds the roots of unity, the wedge angle, the
tolerances and (for n == 3) the lattice once; ``contains_Sigma`` rotates
onto the one slit nearest in phase and ``_reduce_to_cell`` skips the
neighbour sweep deep inside a cell.  The old n-slit loop and the full
six-neighbour sweep are kept here as references, and every answer must
match them exactly.
"""

import cmath
import math
import random
from collections import Counter

import pytest

from squig import numerics, squigfn
from squig.geometry import _reduce_to_cell, contains_Sigma, make_context
from squig.numerics import sector_ray_integral
from squig.squigfn import arcsin_n, cos_n, sin_n

ALL_NS = range(3, 65)


def slit_loop(ctx, w):
    """Reference: ``contains_Sigma`` as a loop over all n slits."""
    w = complex(w)
    for k in range(ctx.n):
        u = w * cmath.exp(-2j * math.pi * k / ctx.n)
        if abs(u.imag) <= 1e-8 and u.real >= 1.0 - 1e-8:
            return False
    return True


def full_sweep(ctx, z):
    """Reference: ``_reduce_to_cell`` with the neighbour sweep always run."""
    c1 = ctx.cell_shift_1
    c2 = ctx.cell_shift_2
    det = c1.real * c2.imag - c1.imag * c2.real
    m1 = round((z.real * c2.imag - z.imag * c2.real) / det)
    m2 = round((c1.real * z.imag - c1.imag * z.real) / det)
    tie = 1e-12 * abs(ctx.A)
    for _ in range(3):
        v = z - m1 * c1 - m2 * c2
        best = (m1, m2)
        best_d = abs(v)
        for d1, d2 in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)):
            cand1 = m1 + d1
            cand2 = m2 + d2
            d = abs(z - cand1 * c1 - cand2 * c2)
            if d < best_d - tie:
                best = (cand1, cand2)
                best_d = d
            elif abs(d - best_d) <= tie:
                if abs(cand1 * c1 + cand2 * c2) < abs(best[0] * c1 + best[1] * c2) - tie:
                    best = (cand1, cand2)
                    best_d = d
        if best == (m1, m2):
            break
        m1, m2 = best
    return m1, m2, z - m1 * c1 - m2 * c2


def slit_points(n, rng):
    """Points 1e-9..1e-6 either side of every slit, around its tip at
    |w| = 1 +- 1e-8..1e-6, and at phases next to +-pi."""
    pts = []
    for k in range(n):
        root = cmath.exp(2j * math.pi * k / n)
        for _ in range(8):
            r = 1.0 + 10.0 ** rng.uniform(-3.0, 3.0)
            for side in (1.0, -1.0):
                pts.append(complex(r, side * 10.0 ** rng.uniform(-9.0, -6.0)) * root)
        for _ in range(4):
            for side in (1.0, -1.0):
                r = 1.0 + side * 10.0 ** rng.uniform(-8.0, -6.0)
                pts.append(complex(r, rng.uniform(-2e-8, 2e-8)) * root)
                pts.append(r * root)
    for _ in range(16):
        r = 10.0 ** rng.uniform(-1.0, 3.0)
        eps = 10.0 ** rng.uniform(-12.0, -3.0)
        pts.append(r * cmath.exp(1j * (math.pi - eps)))
        pts.append(r * cmath.exp(-1j * (math.pi - eps)))
        pts.append(complex(-r, eps))
        pts.append(complex(-r, -eps))
    pts += [complex(-2.0, 0.0), complex(-2.0, -0.0), 0j, complex(1.0, -0.0)]
    return pts


@pytest.mark.parametrize("n", ALL_NS)
def test_contains_sigma_matches_the_slit_loop(n):
    ctx = make_context(n)
    pts = slit_points(n, random.Random(f"slits:{n}"))
    got = [contains_Sigma(ctx, w) for w in pts]
    assert got == [slit_loop(ctx, w) for w in pts]
    # the points straddle the band: both answers occur, at every slit
    assert got.count(False) >= 2 * n and got.count(True) >= 2 * n


def test_contains_sigma_non_finite():
    ctx = make_context(5)
    for w in (complex(math.nan, 0.0), complex(1.5, math.nan), complex(math.inf, 0.0),
              complex(-math.inf, 1.0), complex(math.inf, math.inf)):
        assert contains_Sigma(ctx, w) is slit_loop(ctx, w) is True


def cell_points(ctx, rng):
    """Seeded points, hexagon edges and vertices, distance ties, and points
    just either side of the radius where the sweep is skipped."""
    c1, c2 = ctx.cell_shift_1, ctx.cell_shift_2
    shifts = [m1 * c1 + m2 * c2 for m1 in range(-3, 4) for m2 in range(-3, 4)]
    shifts += [37 * c1 - 21 * c2, -250 * c1 + 400 * c2]
    # far out, the translation's rounding exceeds the tie
    shifts += [rng.randint(-10**6, 10**6) * c1 + rng.randint(-10**6, 10**6) * c2
               for _ in range(8)]
    verts = [r * v for r in ctx.roots for v in (ctx.A, ctx.P)]
    pts = [complex(rng.uniform(-40, 40), rng.uniform(-40, 40)) for _ in range(400)]
    pts += [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(400)]
    base = list(verts)
    for a, b in zip(verts, verts[1:] + verts[:1]):
        base += [a + s * (b - a) for s in (0.5, rng.random(), 1e-13, 1.0 - 1e-13)]
    # ties: halfway to a neighbour, on the lattice itself, and a hair off
    base += [0.5 * c for c in (c1, c2, c1 - c2, -c1, -c2, c2 - c1)]
    base += [0j, 0.5 * c1 + 1e-13, 0.5 * c2 - 1e-13j]
    inner = ctx.cell_inner
    for _ in range(40):
        e = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        base += [inner * e, inner * (1.0 - 1e-15) * e, (inner + 1e-13) * e]
    for s in shifts:
        pts += [p + s for p in base]
    return pts


def test_reduce_to_cell_matches_the_full_sweep():
    ctx = make_context(3)
    pts = cell_points(ctx, random.Random("cells"))
    skipped = 0
    for z in pts:
        got = _reduce_to_cell(ctx, z)
        assert got == full_sweep(ctx, z), z
        skipped += abs(got[2]) < ctx.cell_inner
    assert skipped > len(pts) // 4


@pytest.mark.parametrize("n", ALL_NS)
def test_context_tables_are_the_per_call_expressions(n):
    ctx = make_context(n)
    assert ctx.roots == tuple(cmath.exp(2j * math.pi * k / n) for k in range(n))
    assert ctx.inv_roots == tuple(cmath.exp(-2j * math.pi * k / n) for k in range(n))
    for k in range(n):
        assert ctx.roots[k] == cmath.exp(2j * math.pi * k / n)
        assert ctx.inv_roots[k] == cmath.exp(-2j * math.pi * k / n)
    assert ctx.roots[1] == ctx.omega == cmath.exp(2j * math.pi / n)
    assert ctx.tau == 2.0 * math.pi / n
    assert ctx.cos_phase == cmath.exp(-1j * math.pi / n)
    assert ctx.edge_tol == 1e-10 * abs(ctx.A) ** 2
    assert ctx.pole_tol == 1e-6 * abs(ctx.P)
    assert ctx.half_kite == (ctx.A.real, ctx.A.imag, ctx.P.real - ctx.A.real,
                             ctx.P.imag - ctx.A.imag, ctx.P.real, ctx.P.imag)
    tables = numerics._series_tables(n)
    assert tables.omega == cmath.exp(2j * math.pi / n)
    assert tables.horner == tuple(zip(tables.sine, tables.cosine))[::-1]
    if n == 3:
        assert (ctx.c1, ctx.c2) == (ctx.cell_shift_1, ctx.cell_shift_2)
        assert ctx.tie == 1e-12 * abs(ctx.A)
    else:
        assert ctx.c1 is ctx.c2 is ctx.det is ctx.tie is ctx.cell_inner is None


def route_points(ctx):
    """sin_n/cos_n targets on the disc at 0, the disc at A and the pole
    series, each also rotated, reflected and (n == 3) shifted by the lattice."""
    A, P = ctx.A, ctx.P
    targets = [0.2 * A + 0.05 * P, 0.95 * A + 0.01 * P, P - 1e-3 * P]
    pts = []
    for t in targets:
        for k in (0, 1, ctx.n - 1):
            pts += [t * ctx.roots[k], t.conjugate() * ctx.roots[k]]
        if ctx.n == 3:
            pts += [t + ctx.cell_shift_1, t - 2 * ctx.cell_shift_2]
    return pts


def arcsin_points(ctx):
    """arcsin_n points on the series at 0, the corner chart and the series
    at infinity, in both halves of several wedges."""
    n = ctx.n
    chart = (1.0 + 0.1 / n) * cmath.exp(0.5j * math.pi / n)
    pts = []
    for u in (0.3 * cmath.exp(0.2j), chart, 10.0 * cmath.exp(0.3j / n)):
        for k in (0, 1, n // 2, n - 1):
            pts += [u * ctx.roots[k], u.conjugate() * ctx.roots[k]]
    return pts


@pytest.mark.parametrize("n", ALL_NS)
def test_warm_hot_path_makes_no_exp_calls(n, monkeypatch):
    ctx = make_context(n)
    pts, wpts = route_points(ctx), arcsin_points(ctx)
    # the kernel's chart at omega, reached through phases above pi/n
    upper = (1.0 + 0.1 / n) * cmath.exp(1.5j * math.pi / n)
    for z in pts:  # warm: the pole table is built at first use
        sin_n(ctx, z)
    monkeypatch.setattr(squigfn, "newton_invert", lambda *a, **kw: pytest.fail("Newton"))
    hits = Counter()
    for module, name in ((squigfn, "_disc_sum"), (squigfn, "_corner_forward"),
                         (squigfn, "_pole_series"), (numerics, "_series_tail"),
                         (numerics, "_corner_series")):
        def counted(*args, _f=getattr(module, name), _name=name):
            hits[_name] += 1
            return _f(*args)
        monkeypatch.setattr(module, name, counted)
    calls = []
    exp = cmath.exp
    monkeypatch.setattr(cmath, "exp", lambda z: calls.append(z) or exp(z))
    for z in pts:
        assert sin_n(ctx, z).value is not None
        assert cos_n(ctx, z).value is not None
    for w in wpts:
        arcsin_n(ctx, w)
    sector_ray_integral(n, upper)
    assert calls == []
    # every route ran: the disc at 0 is _disc_sum without _corner_forward
    assert hits["_disc_sum"] > hits["_corner_forward"] > 0
    assert hits["_pole_series"] > 0 and hits["_corner_series"] > 0
    assert hits["_series_tail"] > hits["_corner_series"]
