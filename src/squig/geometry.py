"""Planar geometry for the generalized sine maps.

Everything here is parameterized by one integer ``n >= 3`` and three derived
vertices:

* ``A`` on the positive real axis (half the fundamental period),
* ``B = omega * A`` with ``omega = exp(2*pi*i/n)``,
* ``P`` on the wedge bisector, the corner shared by the curved images.

The kite ``Pi`` has vertex cycle ``0 -> A -> P -> B``; the rosette ``Omega``
is the union of its ``n`` rotated copies; the slit plane ``Sigma`` is the
plane minus the ``n`` rays ``{r * omega**k : r >= 1}``.

``fold`` reduces a point of the closed rosette (for ``n == 3``: any point of
the plane) to a canonical representative in the lower half-kite triangle
``(0, A, P)``, recording the rotation, reflection and lattice translation
needed to restore the original point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, fields

from .errors import DomainError, ParameterError
from .numerics import _SeriesTables, _series_tables

_MIN_N = 3
_MAX_N = 64

# Membership slack for the triangle tests, in units of |A|^2 (signed areas).
_EDGE_TOL = 1e-10
# Half-width of the exclusion band around each slit ray.
_SLIT_TOL = 1e-8
# Relative radius of the "at the obstruction corner" flag.
_POLE_TOL = 1e-6
# Angular snap for points sitting on a wedge boundary ray.
_RAY_SNAP = 1e-12
# Rounding of a lattice translation, in units of |z| (64 ulps).
_CELL_ROUND = 2.0**-46


@dataclass(eq=False)
class SquigContext:
    """Fixed-n bundle of constants shared by every operation.

    ``SquigContext(n)`` takes ``n`` alone, an integer in ``[3, 64]``, and
    derives every other field from it, so no two of them can disagree.  It
    is treated as immutable after construction; ``series_cache`` is filled
    lazily (keyed by term count) but entries are never mutated.

    ``A``, ``P`` and ``pi_n = 2 A`` are read from the kernel's series
    tables, with no quadrature or gamma function; ``omega`` is ``roots[1]``
    and ``B = omega A``.  The per-call hot path reads derived fields, each
    built by the expression it stands for, so every value matches the one
    computed per call:

    * ``roots[k]`` and ``inv_roots[k]``: ``exp(+-2 pi i k / n)``, k < n;
    * ``tau``: the wedge angle ``2 pi / n``;
    * ``cos_phase``: ``exp(-i pi / n)``, the pole series' cosine factor;
    * ``edge_tol``: the triangle tests' area slack, 1e-10 ``|A|**2``;
    * ``half_kite``: ``(Re A, Im A, Re P - Re A, Im P - Im A, Re P, Im P)``,
      the terms of ``fold``'s test of the triangle ``(0, A, P)``;
    * ``pole_tol``: the radius of the corner flag, 1e-6 ``|P|``;
    * ``tables``: the kernel's ``numerics._series_tables(n)``, so a call
      reads them without a cache lookup;
    * ``cell_shift_1``/``cell_shift_2``: ``A (1 - omega)`` and
      ``A (1 - omega**2)``, the generators of the n == 3 lattice (plain
      fields, not properties, since ``_reduce_to_cell`` reads them per call);
    * for n == 3 only (None otherwise), the rest of ``_reduce_to_cell``'s
      lattice: the generators' determinant ``det``, the distance tie
      ``tie`` = 1e-12 ``|A|``, and ``cell_inner``, the radius inside which
      rounding alone finds the cell.
    """

    n: int
    omega: complex = field(init=False)
    pi_n: float = field(init=False)
    A: complex = field(init=False)
    B: complex = field(init=False)
    P: complex = field(init=False)
    series_cache: dict = field(init=False, default_factory=dict, repr=False)
    roots: tuple = field(init=False, repr=False)
    inv_roots: tuple = field(init=False, repr=False)
    tau: float = field(init=False, repr=False)
    cos_phase: complex = field(init=False, repr=False)
    edge_tol: float = field(init=False, repr=False)
    half_kite: tuple = field(init=False, repr=False)
    pole_tol: float = field(init=False, repr=False)
    tables: _SeriesTables = field(init=False, repr=False)
    cell_shift_1: complex = field(init=False, repr=False)
    cell_shift_2: complex = field(init=False, repr=False)
    det: float | None = field(init=False, repr=False, default=None)
    tie: float | None = field(init=False, repr=False, default=None)
    cell_inner: float | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        n = self.n
        if isinstance(n, bool) or not isinstance(n, int):
            raise ParameterError(f"n must be an integer, got {n!r}")
        if not _MIN_N <= n <= _MAX_N:
            raise ParameterError(f"n must lie in [{_MIN_N}, {_MAX_N}], got {n}")
        self.tables = tables = _series_tables(n)
        self.roots = tuple(cmath.exp(2j * math.pi * k / n) for k in range(n))
        self.inv_roots = tuple(cmath.exp(-2j * math.pi * k / n) for k in range(n))
        self.omega = omega = self.roots[1]
        self.pi_n = 2.0 * tables.half
        self.A = a = complex(tables.half, 0.0)
        self.B = omega * a
        self.P = p = tables.corner
        self.tau = 2.0 * math.pi / n
        self.cos_phase = cmath.exp(-1j * math.pi / n)
        self.edge_tol = _EDGE_TOL * abs(a) ** 2
        self.half_kite = (a.real, a.imag, p.real - a.real, p.imag - a.imag, p.real, p.imag)
        self.pole_tol = _POLE_TOL * abs(p)
        self.cell_shift_1 = c1 = a * (1.0 - omega)
        self.cell_shift_2 = c2 = a * (1.0 - omega * omega)
        if n == 3:
            self.det = c1.real * c2.imag - c1.imag * c2.real
            self.tie = 1e-12 * abs(a)
            # every neighbour is |c1| away, so within |c1|/2 - 4 tie of a
            # lattice point no neighbour comes within a tie of being nearer
            self.cell_inner = 0.5 * abs(c1) - 4.0 * self.tie

    @property
    def beta(self) -> float:
        return (self.n - 1) / self.n

    @property
    def R(self) -> float:
        """Distance from the origin to the obstruction corner ``P``."""
        return abs(self.P)


@dataclass(frozen=True, slots=True)
class FoldResult:
    """Canonical representative plus the bookkeeping to undo the fold.

    The original point is recovered (up to roundoff) as

        ``omega**rotation_k * (conj(folded) if conjugated else folded)
          + lattice_shift[0] * cell_shift_1 + lattice_shift[1] * cell_shift_2``

    where the lattice part is zero unless ``n == 3``.
    """

    folded: complex
    rotation_k: int
    conjugated: bool
    lattice_shift: tuple[int, int]
    at_pole: bool

    def __init__(self, folded, rotation_k, conjugated, lattice_shift, at_pole):
        # the generated __init__ of a frozen class sets each field through
        # object.__setattr__; the slots' descriptors set them directly
        _set_folded(self, folded)
        _set_rotation_k(self, rotation_k)
        _set_conjugated(self, conjugated)
        _set_lattice_shift(self, lattice_shift)
        _set_at_pole(self, at_pole)


_set_folded, _set_rotation_k, _set_conjugated, _set_lattice_shift, _set_at_pole = (
    getattr(FoldResult, f.name).__set__ for f in fields(FoldResult))
_NO_SHIFT = (0, 0)


def make_context(n: int) -> SquigContext:
    """Build the shared constant bundle for a given ``n``: ``SquigContext(n)``."""
    return SquigContext(n)


def _cross(o: complex, a: complex, b: complex) -> float:
    """Signed area of the parallelogram spanned by ``a - o`` and ``b - o``."""
    return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)


def _in_triangle(p: complex, v0: complex, v1: complex, v2: complex, tol: float) -> bool:
    # Vertices are expected counterclockwise; tol is an area slack.
    return (
        _cross(v0, v1, p) >= -tol
        and _cross(v1, v2, p) >= -tol
        and _cross(v2, v0, p) >= -tol
    )


def contains_Pi(ctx: SquigContext, z: complex) -> bool:
    """Closed-kite membership, with a 1e-10 relative slack on the edges.

    The kite is the union of the triangles (0, A, P) and (0, P, B); testing
    the two halves separately keeps the test correct when the corner at P
    turns reflex (n >= 5).
    """
    z = complex(z)
    tol = ctx.edge_tol
    zero = 0j
    return _in_triangle(z, zero, ctx.A, ctx.P, tol) or _in_triangle(
        z, zero, ctx.P, ctx.B, tol
    )


def in_rosette(ctx: SquigContext, z: complex) -> bool:
    """Closed-rosette membership: ``z`` lies in one of the n rotated kites.

    Each kite lies inside its own wedge, so only the kite of the wedge that
    holds ``z``'s phase can hold ``z``: it is rotated once, into that kite.
    The edge slack is that kite's alone, as in ``fold``, so at a tip
    ``omega**k A`` no point is taken in by the neighbouring kite's slack.
    A NaN or infinite point lies in no kite.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        return False
    return contains_Pi(ctx, z * ctx.inv_roots[math.floor(cmath.phase(z) / ctx.tau) % ctx.n])


def contains_Sigma(ctx: SquigContext, w: complex) -> bool:
    """True unless ``w`` sits within 1e-8 of one of the n slit rays.

    Only the ray nearest ``w`` in phase can be that close, so ``w`` is
    rotated once, onto it.  A NaN point lies on no ray.
    """
    w = complex(w)
    if cmath.isnan(w):
        return True
    u = w * ctx.inv_roots[round(cmath.phase(w) / ctx.tau) % ctx.n]
    return not (abs(u.imag) <= _SLIT_TOL and u.real >= 1.0 - _SLIT_TOL)


def _reduce_to_cell(ctx: SquigContext, z: complex, sweep: bool = True) -> tuple[int, int, complex]:
    """Translate ``z`` by the hexagonal lattice into the Voronoi cell of 0.

    The cell of the lattice spanned by ``cell_shift_1``/``cell_shift_2`` is
    exactly the closed rosette for n == 3 (a regular hexagon with vertices
    A, P, B, -A, -P, -B).  Rounding the oblique coordinates only lands in a
    rhombus, so a sweep over the six nearest neighbours finishes the
    reduction; distance ties keep whichever cell is closer to the origin.
    Well inside the cell of the rounded point (``ctx.cell_inner``, less the
    rounding of the translation, 64 ulps of ``|z|``) the sweep cannot move
    it, so it is skipped.  Where that rounding covers the whole inner disc,
    ``|z| >= cell_inner / _CELL_ROUND`` (1.08e14), it no longer fixes the
    cell, and DomainError is raised.  With ``sweep`` False the nearest
    lattice point is taken from the coordinates alone, with no tie rule;
    ``_fold`` keeps it only where the folded point lies clear of the cell
    edge, and sweeps otherwise.
    """
    # scaling by _CELL_ROUND, a power of 2, is exact and keeps abs from
    # overflowing
    inner = ctx.cell_inner - abs(_CELL_ROUND * z)
    if not inner > 0.0:
        raise DomainError(
            f"point {z} lies beyond the reach of the lattice reduction of Omega_3 "
            f"(|z| must be below {ctx.cell_inner / _CELL_ROUND:.4g})", region="Omega_3")
    c1 = ctx.cell_shift_1
    c2 = ctx.cell_shift_2
    det = ctx.det
    x1 = (z.real * c2.imag - z.imag * c2.real) / det
    x2 = (c1.real * z.imag - c1.imag * z.real) / det
    if not sweep:
        # c1, c2 and c1 - c2 are equally long, so the diagonal r1 + r2 = 1
        # splits the rhombus (m1, m2) + [0, 1]**2 into two equilateral
        # triangles, and a point is nearest to the vertex of its triangle
        # with the largest barycentric coordinate
        m1 = math.floor(x1)
        m2 = math.floor(x2)
        r1 = x1 - m1
        r2 = x2 - m2
        step = 1
        if r1 + r2 > 1.0:  # the far triangle, mirrored onto the near one
            m1 += 1
            m2 += 1
            r1 = 1.0 - r1
            r2 = 1.0 - r2
            step = -1
        r0 = 1.0 - r1 - r2
        if r1 > r0 and r1 >= r2:
            m1 += step
        elif r2 > r0 and r2 > r1:
            m2 += step
        return m1, m2, z - m1 * c1 - m2 * c2
    m1 = round(x1)
    m2 = round(x2)
    v = z - m1 * c1 - m2 * c2
    if abs(v) < inner:
        return m1, m2, v

    tie = ctx.tie
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
                # tie: prefer the cell whose lattice point is nearer 0
                if abs(cand1 * c1 + cand2 * c2) < abs(best[0] * c1 + best[1] * c2) - tie:
                    best = (cand1, cand2)
                    best_d = d
        if best == (m1, m2):
            break
        m1, m2 = best
    return m1, m2, z - m1 * c1 - m2 * c2


def fold(ctx: SquigContext, z: complex) -> FoldResult:
    """Reduce ``z`` to the canonical half-kite triangle ``(0, A, P)``.

    For n == 3 the whole plane folds (lattice translation, then rotation and
    reflection); for n >= 4 the point must lie in the closed rosette, else a
    DomainError naming the region is raised.  A non-finite point lies in
    neither, and raises the same DomainError.

    Tie conventions: points on a shared wedge ray fold without conjugation,
    points on the bisector ray fold with ``conjugated=False``, and the
    obstruction-corner flag fires within ``1e-6 * |P|`` of the corner.
    """
    return FoldResult(*_fold(ctx, z))


def _fold(ctx: SquigContext, z: complex, sweep: bool = False) -> tuple:
    """:func:`fold` as the plain tuple of ``FoldResult``'s fields, for the
    evaluation hot path.

    At n == 3 the point is first folded from the nearest lattice point by
    its coordinates alone, and folded again after ``_reduce_to_cell``'s
    neighbour sweep only when the folded point lies near the cell edge
    ``A-P``."""
    z = complex(z)
    n = ctx.n
    if not cmath.isfinite(z):
        raise DomainError(
            f"point {z} lies outside the closed region Omega_{n}", region=f"Omega_{n}"
        )
    shift = _NO_SHIFT
    v = z
    if n == 3:
        m1, m2, v = _reduce_to_cell(ctx, z, sweep)
        shift = (m1, m2)

    tau = ctx.tau
    theta = cmath.phase(v)
    if theta < 0.0:
        theta += 2.0 * math.pi

    # Snap onto a wedge boundary ray when within _RAY_SNAP radians of it.
    k_near = round(theta / tau)
    if abs(theta - k_near * tau) <= _RAY_SNAP:
        k = k_near % n
        local = 0.0
    else:
        q = theta // tau
        k = int(q) % n
        local = theta - q * tau

    u = v * ctx.inv_roots[k]
    if local > tau / 2.0 + _RAY_SNAP:
        t = ctx.roots[1] * u.conjugate()
        rotation_k = (k + 1) % n
        conjugated = True
    else:
        t = u
        rotation_k = k
        conjugated = False

    ax, ay, ex, ey, px, py = ctx.half_kite
    tx, ty = t.real, t.imag
    if n == 3:
        # The cell's edge in t's half wedge is A-P, |P - A| = |A| long.  A
        # point 2 ties plus the translation's rounding inside it is at least
        # 0.93 of that nearer its own lattice point than any other, more than
        # a tie plus the rounding of both distances, so the sweep would keep
        # the cell; nearer the edge, or beyond it, sweep.  After the sweep a
        # miss is unreachable by construction (the Voronoi cell is the
        # rosette) and is not raised: that guards against roundoff at the
        # hexagon corners.
        if not sweep and ex * (ty - ay) - ey * (tx - ax) < ax * (
                2.0 * ctx.tie + abs(_CELL_ROUND * z)):
            return _fold(ctx, z, True)
    else:
        # _in_triangle(t, 0, A, P), inline
        tol = -ctx.edge_tol
        if not (
            ax * ty - ay * tx >= tol
            and ex * (ty - ay) - ey * (tx - ax) >= tol
            and -px * (ty - py) + py * (tx - px) >= tol
        ):
            raise DomainError(
                f"point {z} lies outside the closed region Omega_{n}",
                region=f"Omega_{n}",
            )

    return t, rotation_k, conjugated, shift, abs(t - ctx.P) <= ctx.pole_tol


def unfold(ctx: SquigContext, result: FoldResult) -> complex:
    """Invert :func:`fold`: rotate, conjugate and translate back."""
    t = result.folded.conjugate() if result.conjugated else result.folded
    z = t * ctx.roots[result.rotation_k]
    if result.lattice_shift != (0, 0):
        m1, m2 = result.lattice_shift
        z += m1 * ctx.cell_shift_1 + m2 * ctx.cell_shift_2
    return z


def _sample_edges(vertices: list[complex], samples_per_edge: int) -> list[complex]:
    """Closed polyline through ``vertices``; first point repeated at the end."""
    pts: list[complex] = []
    m = len(vertices)
    for i in range(m):
        a = vertices[i]
        b = vertices[(i + 1) % m]
        for j in range(samples_per_edge):
            s = j / samples_per_edge
            pts.append(a + s * (b - a))
    pts.append(vertices[0])
    return pts


def boundary_polyline(
    ctx: SquigContext,
    which: str,
    samples_per_edge: int = 16,
    radius: float | None = None,
) -> list[complex]:
    """Counterclockwise closed polyline tracing a named region boundary.

    ``which`` is one of ``"pi"`` (the kite), ``"omega"`` (the rosette) or
    ``"gamma"`` (one wedge of the circle of the given ``radius``: outbound
    ray, arc, return ray).  The first point is repeated at the end so the
    polyline closes exactly.
    """
    if not isinstance(samples_per_edge, int) or samples_per_edge < 2:
        raise ParameterError(
            f"samples_per_edge must be an integer >= 2, got {samples_per_edge!r}"
        )

    if which == "pi":
        return _sample_edges([0j, ctx.A, ctx.P, ctx.B], samples_per_edge)

    if which == "omega":
        verts: list[complex] = []
        for rot in ctx.roots:
            verts.append(rot * ctx.A)
            verts.append(rot * ctx.P)
        return _sample_edges(verts, samples_per_edge)

    if which == "gamma":
        if radius is None or not radius > 0.0:
            raise ParameterError("the gamma boundary needs a positive radius")
        tau = ctx.tau
        pts = []
        for j in range(samples_per_edge):
            pts.append(complex(radius * j / samples_per_edge, 0.0))
        for j in range(samples_per_edge + 1):
            pts.append(radius * cmath.exp(1j * tau * j / samples_per_edge))
        for j in range(1, samples_per_edge + 1):
            pts.append(
                radius * cmath.exp(1j * tau) * (1.0 - j / samples_per_edge)
            )
        return pts

    raise ParameterError(f"unknown boundary tag {which!r}; use pi, omega or gamma")


def sample_domain(
    ctx: SquigContext,
    rng,
    count: int,
    pole_clearance: float = 0.05,
) -> list[complex]:
    """Draw ``count`` points uniformly over the closed rosette.

    ``count`` must be a nonnegative int (a bool is refused).  Keeps a
    relative distance of at least ``pole_clearance`` (in units of ``|P|``)
    from every rotated obstruction corner; it must be below 1, as no kite
    point is ``|P|`` or more from P.  The two half-kite
    triangles have equal area, so a coin flip plus a barycentric draw is
    uniform on the kite, and a uniform rotation spreads it over the rosette.
    """
    if isinstance(count, bool) or not isinstance(count, int):
        raise ParameterError(f"count must be an integer, got {count!r}")
    if count < 0:
        raise ParameterError("count must be nonnegative")
    # every kite point lies within |P| of P: both half-kite triangles have
    # their vertices in that disc, so a clearance of 1 or more leaves nothing;
    # the comparison also refuses NaN, which would turn the clearance off
    if not pole_clearance < 1.0:
        raise ParameterError(f"pole_clearance must be below 1, got {pole_clearance!r}")
    pts: list[complex] = []
    corners = [ctx.P * r for r in ctx.roots]
    while len(pts) < count:
        a = rng.random()
        b = rng.random()
        if a + b > 1.0:
            a, b = 1.0 - a, 1.0 - b
        base = ctx.A if rng.random() < 0.5 else ctx.B
        p = a * base + b * ctx.P
        p *= ctx.roots[rng.randrange(ctx.n)]
        if min(abs(p - c) for c in corners) < pole_clearance * abs(ctx.P):
            continue
        pts.append(p)
    return pts
