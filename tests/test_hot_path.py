"""The per-context hot path against the per-call code it replaced.

``SquigContext(n)`` builds the roots of unity, the wedge angle, the
tolerances, the kernel's tables and (for n == 3) the lattice once;
``contains_Sigma`` rotates onto the one slit nearest in phase,
``in_rosette`` rotates into the one kite of the point's wedge, and
``_reduce_to_cell`` takes the nearest lattice point from the barycentric
coordinates, handing only points near a cell edge to the neighbour sweep,
``_sweep_cell``.  ``sin_n``/``cos_n`` share one body, ``_evaluate``: it
folds through the tuple-returning ``_fold``, sums the one table of the
value asked for on either disc, and builds one slotted ``EvalResult``.  The
old n-slit loop, the full six-neighbour sweep (which ``ref_fold`` reduces
by), the frozen-dataclass ``fold``, the two-table inversion, the n-kite
loop and ``sample_domain``'s per-draw roots are kept here as references,
and every answer must match them exactly.  The Python-level calls per
warm call and the integrand evaluations of a default ``run_all()`` are
counted, deterministic cost guards.
"""

import bisect
import cmath
import gc
import inspect
import math
import pickle
import random
import sys
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction

import pytest

from squig import geometry, numerics, regions, squigfn
from squig.geometry import (
    FoldResult,
    SquigContext,
    _reduce_to_cell,
    contains_Sigma,
    fold,
    make_context,
)
from squig.numerics import ODE_RADII, ODE_TERMS, sector_ray_integral
from squig.regions import contains_Pi, in_rosette, sample_domain
from squig.series import RationalSeries
from squig.squigfn import EvalResult, arcsin_n, arcsin_n_sector, cos_n, sin_n

ALL_NS = range(3, 65)


def slit_loop(ctx, w):
    """Reference: ``contains_Sigma`` as a loop over all n slits."""
    w = complex(w)
    for k in range(ctx.n):
        u = w * cmath.exp(-2j * math.pi * k / ctx.n)
        if abs(u.imag) <= 1e-8 and u.real >= 1.0 - 1e-8:
            return False
    return True


def kite_loop(ctx, z):
    """Reference: ``in_rosette`` as a loop over all n kites."""
    return any(contains_Pi(ctx, z * ctx.omega ** -k) for k in range(ctx.n))


def ref_sample_domain(ctx, rng, count, pole_clearance=0.05):
    """Reference: ``sample_domain`` with its roots built per draw."""
    pts = []
    corners = [ctx.P * cmath.exp(2j * math.pi * k / ctx.n) for k in range(ctx.n)]
    while len(pts) < count:
        a = rng.random()
        b = rng.random()
        if a + b > 1.0:
            a, b = 1.0 - a, 1.0 - b
        base = ctx.A if rng.random() < 0.5 else ctx.B
        p = a * base + b * ctx.P
        p *= cmath.exp(2j * math.pi * rng.randrange(ctx.n) / ctx.n)
        if min(abs(p - c) for c in corners) < pole_clearance * abs(ctx.P):
            continue
        pts.append(p)
    return pts


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


def rosette_points(ctx, rng):
    """Points 1e-9 and 1e-11 |A| either side of every edge of five kites,
    at its ends and at a seeded point; and 1e-9 and 1e-11 radians either
    side of their wedge rays and bisectors, inside the kite and just beyond
    A and P.  The kites are those next to the phases 0 and pi, where the
    wedge index wraps."""
    n = ctx.n
    scale = abs(ctx.A)
    pts = []
    for r in (ctx.roots[k] for k in sorted({0, 1, n // 2 - 1, n // 2, n - 1})):
        verts = [0j, ctx.A * r, ctx.P * r, ctx.B * r]
        for a, b in zip(verts, verts[1:] + verts[:1]):
            normal = 1j * (b - a) / abs(b - a)
            for p in (a, a + rng.random() * (b - a), b):
                pts += [p + e * scale * normal for e in (1e-9, -1e-9, 1e-11, -1e-11)]
        for v in verts[1:3]:
            for t in (rng.random(), 1.0 + 1e-9):
                pts += [t * v * cmath.exp(1j * e) for e in (1e-9, -1e-9, 1e-11, -1e-11)]
    return pts


NON_FINITE = [complex(math.nan, 0.0), complex(0.5, math.nan), complex(math.inf, 0.0),
              complex(0.0, -math.inf), complex(-math.inf, math.inf), complex(math.nan, math.inf)]


def in_fold_domain(ctx, z):
    try:
        fold(ctx, z)
    except squigfn.DomainError:
        return False
    return True


@pytest.mark.parametrize("n", ALL_NS)
def test_in_rosette_matches_the_kite_loop(n):
    # the kites meet at a sharp tip omega**k A, and there the loop can also
    # accept a point 1e-9 |A| beyond the tip and 1e-11 radians across the
    # ray, within the slack of the neighbouring kite's edge; one rotation
    # tests the kite of the point's own wedge, as fold does, and refuses it
    # (here at n = 16 only, on 10 of its 320 points)
    ctx = make_context(n)
    pts = rosette_points(ctx, random.Random(f"kites:{n}"))
    got = [in_rosette(ctx, z) for z in pts]
    want = [kite_loop(ctx, z) for z in pts]
    for z, inside, loop in zip(pts, got, want):
        if inside != loop:
            assert loop and not in_fold_domain(ctx, z), z
            assert min(abs(z - ctx.A * r) for r in ctx.roots) < 2e-9 * abs(ctx.A), z
    if n != 3:  # at n == 3 the whole plane folds
        assert got == [in_fold_domain(ctx, z) for z in pts]
    # the points straddle the boundary: both answers occur, at every kite
    assert got.count(False) >= 8 * min(n, 5) and got.count(True) >= 8 * min(n, 5)
    for z in NON_FINITE:
        assert in_rosette(ctx, z) is kite_loop(ctx, z) is False


class CountedPower(complex):
    """omega, with its ``**`` calls counted."""

    powers = 0

    def __pow__(self, k):
        CountedPower.powers += 1
        return complex(self) ** k


@pytest.mark.parametrize("n", ALL_NS)
def test_in_rosette_tests_one_kite_and_takes_no_power(n, monkeypatch):
    ctx = make_context(n)
    ctx.omega = CountedPower(ctx.omega)
    monkeypatch.setattr(CountedPower, "powers", 0)
    kites = []
    monkeypatch.setattr(regions, "contains_Pi",
                        lambda c, z: kites.append(z) or contains_Pi(c, z))
    pts = rosette_points(ctx, random.Random(f"one kite:{n}"))[::7] + [2.0 * ctx.P, 0j]
    for z in pts:
        del kites[:]
        in_rosette(ctx, z)
        assert len(kites) == 1, z
    assert CountedPower.powers == 0


@pytest.mark.parametrize("n", ALL_NS)
def test_sample_domain_matches_its_per_draw_roots(n):
    ctx = make_context(n)
    for clearance in (0.0, 0.3):
        got = sample_domain(ctx, random.Random(f"draw:{n}"), 6, pole_clearance=clearance)
        want = ref_sample_domain(ctx, random.Random(f"draw:{n}"), 6, pole_clearance=clearance)
        assert [bits(z) for z in got] == [bits(z) for z in want]


def cell_points(ctx, rng):
    """Seeded points, hexagon edges and vertices, distance ties, and points
    just either side of the radius ``cell_inner``."""
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


def counted_sweeps(monkeypatch):
    """Record each point ``_reduce_to_cell`` hands to ``_sweep_cell``."""
    sweeps = []
    sweep = geometry._sweep_cell
    monkeypatch.setattr(geometry, "_sweep_cell", lambda c, z: sweeps.append(z) or sweep(c, z))
    return sweeps


def test_reduce_to_cell_matches_the_full_sweep(monkeypatch):
    ctx = make_context(3)
    sweeps = counted_sweeps(monkeypatch)
    pts = cell_points(ctx, random.Random("cells"))
    for z in pts:
        assert _reduce_to_cell(ctx, z) == full_sweep(ctx, z), z
    # the edges and ties sweep; more than a quarter of the points do not
    assert len(sweeps) > 0 and len(pts) - len(sweeps) > len(pts) // 4


def edge_band_points(ctx, rng):
    """Points 0 to 5 ties either side of every hexagon edge, along it and at
    its corners, at lattice shifts up to about 1e13."""
    c1, c2 = ctx.cell_shift_1, ctx.cell_shift_2
    verts = [r * v for r in ctx.roots for v in (ctx.A, ctx.P)]
    base = []
    for a, b in zip(verts, verts[1:] + verts[:1]):
        inward = -1j * (b - a) / abs(b - a)
        for s in (0.0, 1e-13, 0.25, 0.5, rng.random(), 1.0 - 1e-13):
            base += [a + s * (b - a) + k * ctx.tie * inward
                     for k in (-5, -1, -0.5, 0, 0.5, 1, 1.5, 1.9, 2, 2.1, 3, 5)]
    pts = []
    for scale in (0, 1, 1e3, 1e6, 1e9, 1e12, 1e13):
        m1, m2 = (round(rng.uniform(-1, 1) * scale / abs(c1)) for _ in range(2))
        pts += [p + m1 * c1 + m2 * c2 for p in base]
    return pts + [-z for z in pts] + [z.conjugate() for z in pts]


def fold_key(folded):
    t, rotation_k, conjugated, shift = folded
    return bits(t), rotation_k, conjugated, shift


def test_n3_fold_sweeps_only_near_a_cell_edge(monkeypatch):
    ctx = make_context(3)
    rng = random.Random("edges")
    sweeps = counted_sweeps(monkeypatch)
    # bit for bit the fold that sweeps every point, ties and signed zeros
    # included; points in a tie of an edge still take the sweep
    band = edge_band_points(ctx, rng) + cell_points(ctx, rng)
    for z in band:
        ref = ref_fold(ctx, z)
        want = (ref.folded, ref.rotation_k, ref.conjugated, ref.lattice_shift)
        assert fold_key(geometry._fold(ctx, z)) == fold_key(want), z
    assert 0 < len(sweeps) < len(band)
    # points of the hexagon, inside the inscribed disc or not, take no sweep
    sweeps.clear()
    c1, c2 = ctx.cell_shift_1, ctx.cell_shift_2
    hexagon = [z for z in (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3000))
               if in_rosette(ctx, z)]
    for z in hexagon:
        for shift in (0j, 5 * c1 - 3 * c2, -40_000 * c1 + 7 * c2):
            geometry._fold(ctx, z + shift)
    assert 3 * len(hexagon) > 4000 and sweeps == []


@pytest.mark.parametrize("n", ALL_NS)
def test_context_tables_are_the_per_call_expressions(n):
    ctx = make_context(n)
    # n is the context's one settable value; every other field derives from it
    assert list(inspect.signature(SquigContext).parameters) == ["n"]
    assert type(ctx) is SquigContext and ctx.n == n
    # every field of n's block, bit for bit as the file stores it (repr
    # tells signed zeros apart), and the unit constants by the expressions
    # they stand for
    block = dict(zip(("scale", "sine", "cosine", "inner", "outer", "chart", "A", "R", "rate",
                      "pole"), numerics._read_block(numerics._TABLES_PATH, n)))
    a, r = block.pop("A"), block["R"]
    assert {name: repr(getattr(ctx, name)) for name in block} == {
        name: repr(value) for name, value in block.items()}
    assert bits(ctx.P) == bits(r * cmath.exp(1j * math.pi / n))
    assert bits(ctx.phase) == bits(cmath.exp(1j * math.pi * (n - 1) / n))
    assert bits(ctx.disc) == bits(ODE_RADII[-1] ** (1.0 / n) * r)
    omega = cmath.exp(2j * math.pi / n)
    half = complex(a, 0.0)
    assert bits(ctx.omega) == bits(omega)
    assert bits(ctx.A) == bits(half)
    assert bits(ctx.B) == bits(omega * half)
    assert bits(ctx.pi_n) == bits(2.0 * a)
    assert ctx.roots == tuple(cmath.exp(2j * math.pi * k / n) for k in range(n))
    assert ctx.inv_roots == tuple(cmath.exp(-2j * math.pi * k / n) for k in range(n))
    for k in range(n):
        assert ctx.roots[k] == cmath.exp(2j * math.pi * k / n)
        assert ctx.inv_roots[k] == cmath.exp(-2j * math.pi * k / n)
    assert ctx.roots[1] == ctx.omega == cmath.exp(2j * math.pi / n)
    assert ctx.tau == 2.0 * math.pi / n
    assert ctx.cos_phase == cmath.exp(-1j * math.pi / n)
    assert ctx.edge_tol == 1e-10 * abs(ctx.A) ** 2
    assert ctx.half_kite == (ctx.A.real, ctx.P.real - ctx.A.real, ctx.P.imag)
    # one record: no second copy of the tables or of A, P and R, and no
    # reversed copy of a table (the discs slice the tables themselves)
    for name in ("tables", "half", "corner", "radius"):
        assert not hasattr(ctx, name), name
    assert not any(name.startswith("horner") for name in vars(ctx))
    # the lattice generators are plain fields, not properties
    assert ctx.cell_shift_1 == ctx.A * (1.0 - ctx.omega)
    assert ctx.cell_shift_2 == ctx.A * (1.0 - ctx.omega * ctx.omega)
    for name in ("cell_shift_1", "cell_shift_2"):
        assert not isinstance(vars(type(ctx)).get(name), property), name
    assert not hasattr(ctx, "c1") and not hasattr(ctx, "c2")
    if n == 3:
        assert ctx.tie == 1e-12 * abs(ctx.A)
    else:
        assert ctx.det is ctx.tie is ctx.cell_inner is None


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
    for z in pts:  # warm
        sin_n(ctx, z)
    monkeypatch.setattr(numerics, "newton_invert", lambda *a, **kw: pytest.fail("Newton"))
    hits = Counter()
    tables = {id(ctx.inner): "inner", id(ctx.outer): "outer", id(ctx.chart): "chart"}
    for module, name in ((squigfn, "_series_sum"), (numerics, "_binomial_sum")):
        def counted(*args, _f=getattr(module, name), _name=name):
            # every inverse route sums through _series_sum, and its caller
            # names the route: _evaluate (the disc at 0), _corner_invert
            # (the disc at A) or _pole_invert (the pole series); each regime
            # of F sums one of its tables through _binomial_sum
            if _name == "_series_sum":
                hits[sys._getframe(1).f_code.co_name] += 1
            else:
                hits[tables[id(args[0])]] += 1
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
    sector_ray_integral(ctx, upper)
    assert calls == []
    # every route ran
    assert hits["_evaluate"] > 0 and hits["_corner_invert"] > 0
    assert hits["_pole_invert"] > 0 and hits["chart"] > 0
    assert hits["inner"] > 0 and hits["outer"] > 0


# ---------------------------------------------------------------------------
# the flat sin_n/cos_n path against the frozen fold and the two-table sums


@dataclass(frozen=True, slots=True)
class RefFold:
    folded: complex
    rotation_k: int
    conjugated: bool
    lattice_shift: tuple


def ref_fold(ctx, z):
    """Reference: ``fold`` as a frozen dataclass built per call, reducing
    n == 3 points by the full sweep."""
    z = complex(z)
    m1 = m2 = 0
    v = z
    if ctx.n == 3:
        m1, m2, v = full_sweep(ctx, z)
    n = ctx.n
    tau = ctx.tau
    theta = cmath.phase(v)
    if theta < 0.0:
        theta += 2.0 * math.pi
    k_near = round(theta / tau)
    if abs(theta - k_near * tau) <= 1e-12:
        k = k_near % n
        local = 0.0
    else:
        q = theta // tau
        k = int(q) % n
        local = theta - q * tau
    if local > tau / 2.0 + 1e-12:
        # the reflection omega conj(v omega**-k) as one product
        rotation_k = (k + 1) % n
        t = (v * ctx.inv_roots[rotation_k]).conjugate()
        conjugated = True
    else:
        t = v * ctx.inv_roots[k]
        rotation_k = k
        conjugated = False
    if n != 3:
        # regions._in_triangle(t, 0, A, P): all three edges
        ax, ay, px, py = ctx.A.real, ctx.A.imag, ctx.P.real, ctx.P.imag
        ex, ey = px - ax, py - ay
        tx, ty = t.real, t.imag
        tol = -ctx.edge_tol
        if not (
            ax * ty - ay * tx >= tol
            and ex * (ty - ay) - ey * (tx - ax) >= tol
            and -px * (ty - py) + py * (tx - px) >= tol
        ):
            raise squigfn.DomainError(
                f"point {z} lies outside the closed region Omega_{n}",
                region=f"Omega_{n}",
            )
    return RefFold(t, rotation_k, conjugated, (m1, m2))


def ref_disc_sum(ctx, w):
    """Reference: both tables summed in one pass, on either disc."""
    x = w**ctx.n / ctx.scale
    rho = abs(x)
    last = bisect.bisect_left(ODE_RADII, rho, 1, ODE_TERMS - 1)
    s = c = 0j
    for a, b in tuple(zip(ctx.sine, ctx.cosine))[::-1][ODE_TERMS - 1 - last:]:
        s = s * x + a
        c = c * x + b
    terms = last + 1
    ulp = squigfn._ULP
    bound = 2.0 * rho**terms / (1.0 - rho) + ulp * (1.0 + 4.0 * terms * rho / (1.0 - rho))
    return w * s, c, abs(w) * (bound + ulp), bound


def ref_invert(ctx, t, routes):
    """Reference: the inversion at a folded target, each route's
    (u, cos, u's residual, cos's residual, the error of t that the route
    reads: A's or P's); counts the route taken."""
    n = ctx.n
    y = ctx.A - t
    if abs(t) <= abs(y):
        if abs(t) <= ctx.disc:
            routes["disc 0"] += 1
            return ref_disc_sum(ctx, t) + (0.0,)
    elif abs(y) <= ctx.disc:
        routes["disc A"] += 1
        ys, c, ys_bound, c_bound = ref_disc_sum(ctx, y)
        return c, ys, c_bound, ys_bound, squigfn._A_ERR * ctx.A.real
    # the pole series, on every target beyond both discs; "lens" counts the
    # targets beyond |X| = 2/3, which Newton served before the series did
    d = (n - 2) * (ctx.P - t) * ctx.phase.conjugate()
    phi = cmath.phase(d)
    k = round((-(n - 2) * math.pi / (2 * n) - phi) / (2 * math.pi))
    w = cmath.rect(abs(d) ** (1.0 / (n - 2)), (phi + 2 * math.pi * k) / (n - 2))
    x = w**n
    routes["lens" if abs(x) > 2.0 / 3.0 else "pole"] += 1
    table, rate = ctx.pole, ctx.rate
    q = rate * abs(x)
    last = bisect.bisect_left(ODE_RADII, q, 1, len(table) - 1)
    acc = 0j
    for a in reversed(table[:last + 1]):
        acc = acc * x + a
    terms, ulp = last + 1, squigfn._ULP
    v = w * acc
    # the cut and rounding of a sum whose entries are at most rate**j, plus
    # the rounding of X: 3 n ulps of sum_j j |k_j X**j| <= q / (1 - q)**2,
    # with |X| = |D| |W|**2
    v_err = abs(w) * (q**terms / (1.0 - q) + ulp * (1.0 + 2.0 * terms * q / (1.0 - q)) + ulp)
    r = abs(d) ** (1.0 / (n - 2))
    qx = rate * abs(d) * r * r
    v_err += 3 * n * ulp * r * qx / (1.0 - qx) ** 2
    u = 1.0 / v
    bound = abs(u) * (abs(u) * v_err + 4.0 * ulp)
    cosv = ctx.cos_phase * (1.0 - v**n) ** (1.0 / n) / v
    return u, cosv, bound, (bound * abs(1.0 - v**n) ** -ctx.beta
                            + 4.0 * (n + 1) * ulp * abs(cosv)), squigfn._P_ERR * abs(ctx.P)


def ref_error_of_t(ctx, fr, z, err):
    """Reference: the error of the folded target, from the route's own
    ``err`` (A's or P's).  A point the fold moved adds the fold's rounding,
    7 ulps of |t|; a lattice-shifted n == 3 point adds the translation's
    error (the cell shifts' error from A's, plus the rounding of the
    translated point)."""
    m1, m2 = fr.lattice_shift
    if fr.rotation_k or fr.conjugated or (m1, m2) != (0, 0):
        err += 7 * squigfn._ULP * abs(fr.folded)
    if (m1, m2) != (0, 0):
        err += (squigfn._A_ERR * (abs(m1) * abs(ctx.cell_shift_1)
                                  + abs(m2) * abs(ctx.cell_shift_2))
                + 2.0**-46 * abs(z))
    return err


def ref_eval(ctx, z, sine, routes):
    """Reference: ``sin_n`` (or ``cos_n``) as (value, is_pole, residual)."""
    fr = ref_fold(ctx, z)
    t = fr.folded
    # a target beyond both discs is the pole where P lies within the error
    # of t (P's plus the fold's): no value can be told from the pole there
    if (min(abs(t), abs(ctx.A - t)) > ctx.disc
            and abs(t - ctx.P) <= ref_error_of_t(ctx, fr, z, squigfn._P_ERR * abs(ctx.P))):
        routes["pole flag"] += 1
        return None, True, 0.0
    u, cosv, u_res, c_res, err = ref_invert(ctx, t, routes)
    w, res = (u, u_res) if sine else (cosv, c_res)
    err = ref_error_of_t(ctx, fr, z, err)
    m1, m2 = fr.lattice_shift
    # the unfold's rounding, 7 ulps of the value, and at n == 3 that of its
    # second rotation
    fold_round = 7 * squigfn._ULP
    if fr.rotation_k or fr.conjugated or (m1, m2) != (0, 0):
        res += fold_round * abs(w)
    if (m1, m2) != (0, 0):
        res += fold_round * abs(w)
    # each error of t moves the value by that error times its slope, read
    # from the value itself through s**n + c**n = 1
    if err:
        res += err * abs(1.0 - w**ctx.n) ** ((ctx.n - 1) / ctx.n)
    w = w.conjugate() if fr.conjugated else w
    if sine:
        w *= ctx.roots[fr.rotation_k]
    if ctx.n == 3 and (m1, m2) != (0, 0):
        w *= ctx.roots[(m2 - m1 if sine else m1 - m2) % 3]
    return w, False, res


def bits(x):
    """A float or complex as its exact bits (signed zeros apart), None as is."""
    if x is None:
        return None
    x = complex(x)
    return x.real.hex(), x.imag.hex()


def as_tuple(result):
    """A slotted result's fields, in order, without copying them."""
    return tuple(getattr(result, name) for name in type(result).__slots__)


def outcome(call):
    """A call's result as bits, or its exception's type, message and fields."""
    try:
        got = call()
    except Exception as exc:  # every exception must match the reference's
        return "raised", type(exc).__name__, str(exc), repr(vars(exc))
    return tuple(bits(v) if isinstance(v, (float, complex)) else v for v in got)


def gate_points(ctx, rng):
    """Seeded rosette points plus targets on both discs, near P and on both
    disc rims (where the lens is widest), each rotated, reflected and (n ==
    3) shifted by the lattice; P itself, and for n >= 4 points outside the
    rosette."""
    n, A, P = ctx.n, ctx.A, ctx.P
    rim = ctx.disc * (1.0 + 1e-6)
    targets = [0.2 * A + 0.05 * P, 0.95 * A + 0.01 * P, P - 1e-3 * P, P - 0.05 * P]
    for j in range(9):
        targets.append(rim * cmath.exp(1j * math.pi * j / (8 * n)))
        targets.append(A - rim * cmath.exp(-0.5j * math.pi * j / 8))
    pts = []
    for t in targets:
        for k in (0, 1, n - 1):
            pts += [t * ctx.roots[k], t.conjugate() * ctx.roots[k]]
        if n == 3:
            c1, c2 = ctx.cell_shift_1, ctx.cell_shift_2
            pts += [t + c1, t - 2 * c2, t + 37 * c1 - 21 * c2]
    pts += sample_domain(ctx, rng, 40, pole_clearance=0.0)
    pts += [P, P * (1.0 + 1e-8), 1.5 * P, 2.0 * A * ctx.roots[n // 2], 0j]
    return pts


def ray_points(ctx, rng):
    """Points on the rays and bisectors of four wedges (those next to the
    phases 0 and pi, where the wedge index wraps), inside the kite, and
    1e-15 to 1e-9 radians either side of them, 1% either side of the
    1e-12 snap included (at the snap itself rounding decides)."""
    n = ctx.n
    pts = []
    for k in sorted({0, 1, n // 2 - 1, n // 2, n - 1}):
        for angle, reach in ((ctx.tau * k, abs(ctx.A)), (ctx.tau * (k + 0.5), abs(ctx.P))):
            r = reach * rng.uniform(0.1, 0.9)
            eps = [10.0 ** rng.uniform(-15.0, -9.0) for _ in range(3)] + [1e-15, 0.99e-12, 1.01e-12]
            pts += [cmath.rect(r, angle + side * e) for e in eps for side in (1.0, -1.0)]
            pts.append(cmath.rect(r, angle))
    return pts


@pytest.mark.parametrize("n", ALL_NS)
def test_flat_path_is_bit_identical_to_the_references(n):
    ctx = make_context(n)
    routes = Counter()
    raised = 0
    rng = random.Random(f"gate:{n}")
    for z in gate_points(ctx, rng) + ray_points(ctx, rng):
        for fn, sine in ((sin_n, True), (cos_n, False)):
            want = outcome(lambda: ref_eval(ctx, z, sine, routes))
            got = outcome(lambda: as_tuple(fn(ctx, z)))
            assert got == want, (fn.__name__, z)
            raised += want[0] == "raised"
        want = outcome(lambda: as_tuple(ref_fold(ctx, z)))
        got = outcome(lambda: as_tuple(fold(ctx, z)))
        assert got == want, ("fold", z)
    # every route is reached: the lens only for n >= 6
    assert routes["disc 0"] and routes["disc A"] and routes["pole"] and routes["pole flag"]
    assert bool(routes["lens"]) is (n >= 6), routes
    assert bool(raised) is (n != 3)


def disc_points(ctx, rng, at_corner):
    """Rosette points whose folded target takes the disc at 0, or at A."""
    pts = []
    for z in sample_domain(ctx, rng, 80):
        t = fold(ctx, z).folded
        y = ctx.A - t
        if (abs(y) < abs(t)) is at_corner and min(abs(t), abs(y)) <= ctx.disc:
            pts.append(z)
    return pts


def poisoned(ctx, table):
    """A context whose ``table`` ("sine" or "cosine") is all NaN."""
    bad = make_context(ctx.n)
    setattr(bad, table, (math.nan,) * ODE_TERMS)
    return bad


OTHER_TABLE = {"sine": "cosine", "cosine": "sine"}


def assert_reads_only_its_table(ctx, pts, sine_table):
    """sin_n reads only ``sine_table`` and cos_n only the other one: each
    gives the same bits with the table it does not read poisoned."""
    for fn, table in ((sin_n, sine_table), (cos_n, OTHER_TABLE[sine_table])):
        bad = poisoned(ctx, OTHER_TABLE[table])
        for z in pts:
            want, got = fn(ctx, z), fn(bad, z)
            assert (bits(got.value), bits(got.residual)) == (bits(want.value),
                                                              bits(want.residual)), (fn, z)


@pytest.mark.parametrize("n", ALL_NS)
def test_zero_disc_reads_only_the_table_it_returns(n):
    ctx = make_context(n)
    pts = disc_points(ctx, random.Random(f"poison:{n}"), at_corner=False)
    assert len(pts) >= 10
    assert_reads_only_its_table(ctx, pts, "sine")


@pytest.mark.parametrize("n", ALL_NS)
def test_corner_disc_reads_only_the_table_it_returns(n):
    # sin_n(t) = cos_n(A - t): the disc at A returns each value from the
    # other table, and reads its slope from the value, not from the table
    # of the function not asked for
    ctx = make_context(n)
    pts = disc_points(ctx, random.Random(f"poison A:{n}"), at_corner=True)
    assert len(pts) >= 10
    assert_reads_only_its_table(ctx, pts, "cosine")
    near_a = 0.95 * ctx.A + 0.01 * ctx.P
    assert cmath.isnan(sin_n(poisoned(ctx, "cosine"), near_a).value)
    assert cmath.isnan(cos_n(poisoned(ctx, "sine"), near_a).value)


@pytest.mark.parametrize("n", ALL_NS)
def test_sine_never_builds_the_pole_cosine(n):
    ctx = make_context(n)
    folded = [fold(ctx, z).folded for z in sample_domain(ctx, random.Random(f"pole:{n}"), 80)]
    targets = [t for t in [ctx.P - 1e-3 * ctx.P] + folded
               if min(abs(t), abs(ctx.A - t)) > ctx.disc]
    cosines = []

    class CountedPhase(complex):
        # the pole cosine's factor e^(-i pi/n): each product is one cosine
        def __mul__(self, other):
            cosines.append(other)
            return complex(self) * other

    ctx.cos_phase = CountedPhase(ctx.cos_phase)
    for t in targets:
        assert sin_n(ctx, t).value is not None
    assert cosines == []
    for t in targets:
        assert cos_n(ctx, t).value is not None
    assert len(cosines) == len(targets)


def python_calls(fn, *args):
    """Python-level calls (frames entered) in one call of fn, fn included.

    The collector is paused while fn runs: a collection that lands inside
    the call would run gc.callbacks (hypothesis registers one) and
    finalizers of other tests' garbage, which are no calls of fn.
    """
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call"

    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return count


# Python-level calls per warm call, by route: the entry point, _evaluate,
# _fold (and _reduce_to_cell at n == 3), the route's functions and
# EvalResult.__init__.  Every route sums through numerics._series_sum:
# the disc at 0 calls it from _evaluate, the disc at A from _corner_invert,
# and the pole from _pole_invert, which also builds cos_n's cosine: each
# route's sin_n and cos_n make the same count, 6 on the pole route.  Each
# regime of F is the entry point, sector_ray_integral and the one sum of its
# table, numerics._binomial_sum; arcsin_n adds geometry._slit_wedge.
CALL_CEILINGS = {"disc 0": 5, "disc A": 6, "pole": 6,
                 "arcsin at 0": 4, "arcsin chart": 4, "arcsin at inf": 4,
                 "sector at 0": 3, "sector chart": 3, "sector at inf": 3}


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16, 32, 64])
def test_python_calls_per_warm_call(n):
    ctx = make_context(n)
    A, P = ctx.A, ctx.P
    lattice = n == 3
    cases = [("disc 0", 0.2 * A + 0.05 * P), ("disc A", 0.95 * A + 0.01 * P),
             ("pole", P - 1e-3 * P)]
    for route, t in cases:
        for fn in (sin_n, cos_n):
            fn(ctx, t)  # the count is of a warm call
            assert python_calls(fn, ctx, t) <= CALL_CEILINGS[route] + lattice, (route, fn)
    chart = (1.0 + 0.1 / n) * cmath.exp(0.5j * math.pi / n)
    for route, w in (("arcsin at 0", 0.3 * cmath.exp(0.2j / n)), ("arcsin chart", chart),
                     ("arcsin at inf", 10.0 * cmath.exp(0.3j / n))):
        arcsin_n(ctx, w)
        assert python_calls(arcsin_n, ctx, w) <= CALL_CEILINGS[route], route
    # the sector map, in its upper half too, where the chart reflects
    upper = cmath.exp(1.5j * math.pi / n)
    for route, z in (("sector at 0", 0.3 * cmath.exp(0.2j / n)),
                     ("sector chart", (1.0 + 0.1 / n) * upper),
                     ("sector chart", (1.0 - 0.1 / n) * upper),
                     ("sector at inf", 10.0 * cmath.exp(0.3j / n))):
        arcsin_n_sector(ctx, z)
        assert python_calls(arcsin_n_sector, ctx, z) <= CALL_CEILINGS[route], (route, z)


# Integrand evaluations of one default run_all(), all of them through the
# one quadrature rule: 1,160 integral_slit, 1,944 integral_ray, 19,776
# sc_factorization and 241 trisection.  Counts are deterministic, so the
# guard allows 10% over them and no more.
RUN_ALL_EVALUATIONS = 23_121


def test_run_all_integrand_evaluations(monkeypatch):
    from squig import reference, verify

    counts = []
    rule = reference._tanh_sinh

    def counting(*args):
        result = rule(*args)
        counts.append(result[2])
        return result

    monkeypatch.setattr(reference, "_tanh_sinh", counting)
    assert all(report.passed for report in verify.run_all())
    assert sum(counts) <= 1.1 * RUN_ALL_EVALUATIONS


# ---------------------------------------------------------------------------
# the slotted result objects


RESULTS = [EvalResult(0.5 - 0.25j, False, 2.0**-52), EvalResult(None, True, 0.0),
           FoldResult(0.3 + 0.1j, 2, True, (1, -1)),
           RationalSeries((1, 4), (Fraction(1), Fraction(-1, 4)))]


@pytest.mark.parametrize("obj", RESULTS, ids=["value", "pole", "fold", "series"])
def test_result_objects_stay_frozen_records(obj):
    names = type(obj).__slots__
    first = names[0]
    assert not hasattr(obj, "__dict__")
    with pytest.raises(FrozenInstanceError):
        setattr(obj, first, 1)
    with pytest.raises(FrozenInstanceError):
        delattr(obj, first)
    # a name that is no field is refused too
    with pytest.raises(FrozenInstanceError):
        obj.extra = 1
    values = [getattr(obj, name) for name in names]
    same = type(obj)(*values)
    assert same == obj and same is not obj and hash(same) == hash(obj)
    assert type(obj)(**dict(zip(names, values))) == obj
    # as a dataclass: another class is never equal, match takes the fields
    assert obj != tuple(values) and type(obj).__match_args__ == names
    # 7 for the first field; the series' degrees take a valid (1, 7)
    seven = (1, 7) if isinstance(obj, RationalSeries) else 7
    changed = type(obj)(seven, *values[1:])
    assert changed != obj and getattr(changed, first) == seven
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(obj, protocol))
        assert back == obj and type(back) is type(obj)


def test_result_reprs_unchanged():
    assert repr(EvalResult(1j, False, 0.0)) == "EvalResult(value=1j, is_pole=False, residual=0.0)"
    assert repr(FoldResult(0.5, 0, False, (0, 0))) == (
        "FoldResult(folded=0.5, rotation_k=0, conjugated=False, lattice_shift=(0, 0))")
    assert repr(RationalSeries((1,), (Fraction(1),))) == (
        "RationalSeries(degrees=(1,), coeffs=(Fraction(1, 1),))")
