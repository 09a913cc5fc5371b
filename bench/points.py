"""Seeded inputs for the rosette and boundary workloads.

Every run is a fixed number of rounds.  A round is a shuffled list of
``Call(fn, n, z, stratum)`` records; the library only ever sees ``n`` and
``z``.  All randomness comes from ``random.Random`` streams keyed by the
benchmark seed, so one seed always yields the same calls and another seed
yields different ones.

The boundary strata whose calls can take seconds (edge images and the slit
guard band) are fixed grids rather than seeded draws.  Whether such a point
stalls, and for how long (1 to 12 s at the commit that added this
benchmark), depends on its offset decade and on where along the edge or
slit it sits, so a handful of random draws per run would swing every timing
of the run by a third between seeds.  Round ``r`` gives the ``i``-th n value
one cell of (offset decade, position bin) chosen by ``r`` and ``i``, and the
point sits at the centre of that cell; five rounds visit every decade and
every bin once per n.  The seed draws every other stratum and the order of
the calls.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

N_VALUES = (3, 4, 5, 8, 16, 32, 64)
FNS = ("sin", "cos", "arcsin")
TAU = 2.0 * math.pi

# Calls per n in one rosette round, per function.
ROSETTE_PER_FN = 3

# Calls per n in one boundary round, per stratum.
BOUNDARY_COUNTS = {
    "corner": 6,      # within 1e-3 |A| of A
    "pole": 10,       # 1e-5 .. 1e-3 |P| from P, one per distance bin
    "far10": 4,       # arcsin_n at |w| = 10
    "far100": 4,      # arcsin_n at |w| = 100
    "far1000": 4,     # arcsin_n at |w| = 1000
}
# plus one fixed edge-image point (1e-12 .. 1e-7 |A| inside A-P or P-B) and
# GUARD_PER_ROUND fixed arcsin_n points 1e-8 .. 1e-6 outside the slit guard
# band.  The guard-band QuadratureErrors all take about half a second, so
# with three per round p99 falls inside that plateau, not on a single call.
GUARD_PER_ROUND = 3
# Strata with known defects at the commit that added this benchmark: Newton
# stalls and raises ConvergenceError inside the edge images, tanh-sinh hits
# its level cap just outside the slit guard band, values near P miss the
# 1e-10 forward tolerance (Newton stops at a 1e-12 residual while sin_n' grows
# like |sin_n|**(n-1)), and arcsin_n is off by about 1 at |w| = 1000 for
# n = 32 and 64.  The tanh-sinh level cap also reaches ordinary slit-plane
# points: arcsin_n(1.1039169525660633+0.0006760534113132978j) at n = 4, 7e-4
# from the slit, raises QuadratureError.  These failures count in ``failed``;
# a failure of any other kind makes the run incorrect.
KNOWN_DEFECT_STRATA = frozenset({"edge", "guard", "pole", "far1000"})
KNOWN_DEFECT_RAISES = frozenset({("arcsin", "QuadratureError")})
EDGE_DECADES = (-12, -11, -10, -9, -8)   # offset decades, in units of |A|
EDGE_BINS = 5                            # position bins along an edge
GUARD_DECADES = (-8, -7)                 # distance past the 1e-8 band
GUARD_BINS = (-2, -1, 0)                 # decades of x - 1 along the slit


@dataclass(frozen=True)
class Call:
    fn: str
    n: int
    z: complex
    stratum: str


def _rng(seed: int, *key) -> random.Random:
    return random.Random(":".join(str(k) for k in (seed,) + key))


def _log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def _rotate(ctx, rng: random.Random, z: complex) -> complex:
    return z * cmath.exp(2j * math.pi * rng.randrange(ctx.n) / ctx.n)


def _slit_plane_disc(ctx, rng: random.Random, radius: float) -> complex:
    # uniform in the disc; the angle keeps 1e-4 of a wedge away from each slit
    r = radius * math.sqrt(rng.random())
    wedge = rng.randrange(ctx.n) + rng.uniform(1e-4, 1.0 - 1e-4)
    return r * cmath.exp(1j * TAU * wedge / ctx.n)


def _near_corner(ctx, rng: random.Random) -> complex:
    # inside the rosette's interior angle at A, from A->P round to A->conj(P)
    a, p = ctx.A, ctx.P
    start = cmath.phase(p - a)
    span = (cmath.phase(p.conjugate() - a) - start) % TAU
    r = _log_uniform(rng, -8.0, -3.0) * abs(a)
    z = a + r * cmath.exp(1j * (start + span * rng.uniform(0.02, 0.98)))
    return _rotate(ctx, rng, z)


def _near_pole(ctx, rng: random.Random, cell: int, cells: int) -> complex:
    # inside the kite's angle at P, from P->B round to P->A; the distance's
    # exponent is stratified into ``cells`` equal bins of [-5, -3]
    a, p, b = ctx.A, ctx.P, ctx.B
    start = cmath.phase(b - p)
    span = (cmath.phase(a - p) - start) % TAU
    r = 10.0 ** (-5.0 + 2.0 * (cell + rng.random()) / cells) * abs(p)
    z = p + r * cmath.exp(1j * (start + span * rng.uniform(0.02, 0.98)))
    return _rotate(ctx, rng, z)


def _edge_cell(ctx, index: int, i: int) -> complex:
    # round ``index``, ``i``-th n: side, offset decade and position bin all
    # cycle with the round, paired differently for each n.  Positions count
    # from the corner (A, or B, which folds onto A) towards P; the shift of 4
    # pairs the smallest offset with the far end of the edge for n = 3 and 4,
    # the only cells that take the real slit-edge solve.
    side = (index + i) % 2
    decade = EDGE_DECADES[(index + i) % len(EDGE_DECADES)]
    cell = (2 * index + i + 4) % EDGE_BINS
    corner = ctx.A if side == 0 else ctx.B
    edge = ctx.P - corner
    inward = (1j if side == 0 else -1j) * edge / abs(edge)
    offset = 10.0 ** (decade + 0.5) * abs(ctx.A)
    s = 0.02 + 0.96 * (cell + 0.5) / EDGE_BINS
    z = corner + s * edge + offset * inward
    return z * cmath.exp(2j * math.pi * ((index + 2 * i) % ctx.n) / ctx.n)


def _far(ctx, rng: random.Random, modulus: float) -> complex:
    wedge = rng.randrange(ctx.n) + rng.uniform(0.01, 0.99)
    return modulus * cmath.exp(1j * TAU * wedge / ctx.n)


def _guard_cell(ctx, index: int, i: int, j: int) -> complex:
    # just outside the 1e-8 band around the slit omega^k [1, inf), at the
    # centre of a (distance decade, position decade) cell; j-th of the round
    y = 1e-8 + 10.0 ** (GUARD_DECADES[(index + i + j) % len(GUARD_DECADES)] + 0.5)
    x = 1.0 + 10.0 ** (GUARD_BINS[(index + 2 * i + j) % len(GUARD_BINS)] + 0.5)
    side = 1.0 if (index + i + j) % 2 == 0 else -1.0
    k = (3 * index + i + j) % ctx.n
    return complex(x, side * y) * cmath.exp(2j * math.pi * k / ctx.n)


def rosette_round(contexts: dict, seed: int, index: int) -> list[Call]:
    """Uniform rosette points for sin_n/cos_n, slit-plane |w| <= 2 for arcsin_n."""
    from squig import sample_domain

    calls = []
    for n in N_VALUES:
        ctx = contexts[n]
        rng = _rng(seed, "rosette", index, n)
        for fn in ("sin", "cos"):
            for z in sample_domain(ctx, rng, ROSETTE_PER_FN):
                calls.append(Call(fn, n, z, "interior"))
        for _ in range(ROSETTE_PER_FN):
            calls.append(Call("arcsin", n, _slit_plane_disc(ctx, rng, 2.0), "disc"))
    _rng(seed, "rosette-order", index).shuffle(calls)
    return calls


def boundary_round(contexts: dict, seed: int, index: int) -> list[Call]:
    """The hard regions of each map; see the module docstring for strata."""
    calls = []
    for i, n in enumerate(N_VALUES):
        ctx = contexts[n]
        rng = _rng(seed, "boundary", index, n)
        pair = 0
        for _ in range(BOUNDARY_COUNTS["corner"]):
            calls.append(Call(FNS[pair % 2], n, _near_corner(ctx, rng), "corner"))
            pair += 1
        cells = BOUNDARY_COUNTS["pole"]
        for cell in range(cells):
            calls.append(Call(FNS[pair % 2], n, _near_pole(ctx, rng, cell, cells), "pole"))
            pair += 1
        calls.append(Call(FNS[index % 2], n, _edge_cell(ctx, index, i), "edge"))
        for j in range(GUARD_PER_ROUND):
            calls.append(Call("arcsin", n, _guard_cell(ctx, index, i, j), "guard"))
        for modulus in (10.0, 100.0, 1000.0):
            for _ in range(BOUNDARY_COUNTS[f"far{int(modulus)}"]):
                calls.append(Call("arcsin", n, _far(ctx, rng, modulus), f"far{int(modulus)}"))
    _rng(seed, "boundary-order", index).shuffle(calls)
    return calls


def first_point(ctx) -> complex:
    """Fixed interior point whose evaluation builds every per-context cache."""
    return 0.4 * ctx.A + 0.2 * ctx.P
