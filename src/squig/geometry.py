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
needed to restore the original point; ``unfold`` restores it.
``contains_Sigma`` is the bool form of ``_slit_wedge``, the slit test of
``arcsin_n``.

The membership tests of the kite and the rosette, the region boundaries
and the domain sampler serve no evaluation and live in
:mod:`squig.regions`, which ``import squig`` does not load.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, ParameterError, _shown
from .numerics import _MAX_N, _MIN_N, _FrozenRecord, _series_tables

# Membership slack for the triangle tests, in units of |A|^2 (signed areas).
_EDGE_TOL = 1e-10
# Half-width of the exclusion band around each slit ray.
_SLIT_TOL = 1e-8
# Relative radius of the "at the obstruction corner" flag.
_POLE_TOL = 1e-6
# Angular snap onto a wedge ray or bisector, shared by fold and arcsin_n_sector.
_RAY_SNAP = 1e-12
# Rounding of a lattice translation, in units of |z| (64 ulps).
_CELL_ROUND = 2.0**-46


class SquigContext:
    """Fixed-n bundle of constants shared by every operation.

    ``SquigContext(n)`` takes ``n`` alone, an integer in ``[3, 64]``, and
    derives every other field from it, so no two of them can disagree.  It
    is immutable after construction.

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
      ``tie`` = 1e-12 ``|A|``, and ``cell_inner``, the cell's inradius less
      4 ties, which sets the reduction's reach.
    """

    def __init__(self, n: int):
        if isinstance(n, bool) or not isinstance(n, int):
            raise ParameterError(f"n must be an integer, got {_shown(n)}")
        if not _MIN_N <= n <= _MAX_N:
            raise ParameterError(f"n must lie in [{_MIN_N}, {_MAX_N}], got {_shown(n)}")
        self.n = n
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
        self.det = self.tie = self.cell_inner = None
        if n == 3:
            self.det = c1.real * c2.imag - c1.imag * c2.real
            self.tie = 1e-12 * abs(a)
            # every neighbour is |c1| away, so within |c1|/2 - 4 tie of a
            # lattice point no neighbour comes within a tie of being nearer
            self.cell_inner = 0.5 * abs(c1) - 4.0 * self.tie

    def __repr__(self) -> str:
        return f"SquigContext(n={self.n})"

    @property
    def beta(self) -> float:
        return (self.n - 1) / self.n

    @property
    def R(self) -> float:
        """Distance from the origin to the obstruction corner ``P``."""
        return abs(self.P)


class FoldResult(_FrozenRecord):
    """Canonical representative plus the bookkeeping to undo the fold.

    The original point is recovered (up to roundoff) as

        ``omega**rotation_k * (conj(folded) if conjugated else folded)
          + lattice_shift[0] * cell_shift_1 + lattice_shift[1] * cell_shift_2``

    where the lattice part is zero unless ``n == 3``.
    """

    __slots__ = ("folded", "rotation_k", "conjugated", "lattice_shift", "at_pole")
    folded: complex
    rotation_k: int
    conjugated: bool
    lattice_shift: tuple[int, int]
    at_pole: bool

    def __init__(self, folded, rotation_k, conjugated, lattice_shift, at_pole):
        # the slots' descriptors set each field directly, past the frozen
        # __setattr__
        _set_folded(self, folded)
        _set_rotation_k(self, rotation_k)
        _set_conjugated(self, conjugated)
        _set_lattice_shift(self, lattice_shift)
        _set_at_pole(self, at_pole)


_set_folded, _set_rotation_k, _set_conjugated, _set_lattice_shift, _set_at_pole = (
    getattr(FoldResult, name).__set__ for name in FoldResult.__slots__)
_NO_SHIFT = (0, 0)


def make_context(n: int) -> SquigContext:
    """Build the shared constant bundle for a given ``n``: ``SquigContext(n)``."""
    return SquigContext(n)


def _as_point(z, where: str = "", region: str = "") -> complex:
    """``z`` as a complex, for any number; ParameterError for anything else:
    a str, bytes, None, a bool, or what ``complex()`` refuses.

    With ``where``, a map's domain ("the slit plane Sigma_5"), a point that
    is not finite raises DomainError naming it and ``region``; without, an
    int beyond the float range becomes the infinity of its sign.  Callers
    test ``z.__class__ is not complex`` (or not finite) first, so a finite
    complex point makes no call.
    """
    if isinstance(z, (str, bool)):
        raise ParameterError(f"a point must be a number, not {type(z).__name__}")
    try:
        z = complex(z)
    except OverflowError:  # an int beyond the float range
        if where:
            raise DomainError(f"point beyond the float range lies outside {where}",
                              region=region) from None
        return complex(math.inf if z > 0 else -math.inf)
    except (TypeError, ValueError):
        raise ParameterError(f"a point must be a number, not {type(z).__name__}") from None
    if where and not cmath.isfinite(z):
        raise DomainError(f"point {z} lies outside {where}", region=region)
    return z


def _slit_wedge(ctx: SquigContext, w: complex) -> tuple:
    """(k, u, on_slit) for a complex ``w`` that is not NaN: the slit
    omega**k [1, inf) nearest ``w`` in phase, ``u = w omega**-k`` rotated
    onto it, and whether ``u`` lies within the 1e-8 guard band of that slit.
    Only the nearest slit in phase can be that close."""
    k = round(cmath.phase(w) / ctx.tau) % ctx.n
    u = w * ctx.inv_roots[k]
    return k, u, abs(u.imag) <= _SLIT_TOL and u.real >= 1.0 - _SLIT_TOL


def contains_Sigma(ctx: SquigContext, w: complex) -> bool:
    """True unless ``w`` sits within 1e-8 of one of the n slit rays
    (``_slit_wedge``).  A NaN point lies on no ray."""
    if w.__class__ is not complex or not cmath.isfinite(w):
        w = _as_point(w)
        if cmath.isnan(w):
            return True
    return not _slit_wedge(ctx, w)[2]


def _reduce_to_cell(ctx: SquigContext, z: complex) -> tuple[int, int, complex]:
    """Translate ``z`` by the hexagonal lattice into the Voronoi cell of 0.

    The cell of the lattice spanned by ``cell_shift_1``/``cell_shift_2`` is
    exactly the closed rosette for n == 3 (a regular hexagon with vertices
    A, P, B, -A, -P, -B).  The nearest lattice point is read from the
    oblique coordinates: c1, c2 and c1 - c2 are equally long, so the
    diagonal r1 + r2 = 1 splits the rhombus (m1, m2) + [0, 1]**2 into two
    equilateral triangles, and a point is nearest to the vertex of its
    triangle with the largest barycentric coordinate.  Its distance to that
    vertex's cell edge is (largest - middle coordinate) |c1| / 2.  Within 2
    ties plus the translation's rounding (64 ulps of ``|z|``) of the edge,
    ``_sweep_cell`` decides with its tie rule instead.  Where that rounding
    covers the inner disc, ``|z| >= cell_inner / _CELL_ROUND`` (1.08e14),
    it no longer fixes the cell, and DomainError is raised.
    """
    # scaling by _CELL_ROUND, a power of 2, is exact and keeps abs from
    # overflowing
    reach = abs(_CELL_ROUND * z)
    if not reach < ctx.cell_inner:
        raise DomainError(
            f"point {z} lies beyond the reach of the lattice reduction of Omega_3 "
            f"(|z| must be below {ctx.cell_inner / _CELL_ROUND:.4g})", region="Omega_3")
    c1 = ctx.cell_shift_1
    c2 = ctx.cell_shift_2
    det = ctx.det
    x1 = (z.real * c2.imag - z.imag * c2.real) / det
    x2 = (c1.real * z.imag - c1.imag * z.real) / det
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
        gap = r1 - (r0 if r0 > r2 else r2)
    elif r2 > r0 and r2 > r1:
        m2 += step
        gap = r2 - (r0 if r0 > r1 else r1)
    else:
        gap = r0 - (r1 if r1 > r2 else r2)
    # 2 ties plus the rounding inside the edge, a point is at least 0.93 of
    # that nearer its own lattice point than any other, more than a tie plus
    # the rounding of both distances, so the sweep would keep the cell
    if gap * abs(c1) < 4.0 * ctx.tie + 2.0 * reach:
        return _sweep_cell(ctx, z)
    return m1, m2, z - m1 * c1 - m2 * c2


def _sweep_cell(ctx: SquigContext, z: complex) -> tuple[int, int, complex]:
    """``_reduce_to_cell`` near a cell edge: from the rounded oblique
    coordinates, a sweep over the six nearest neighbours; distance ties keep
    whichever cell is closer to the origin."""
    c1 = ctx.cell_shift_1
    c2 = ctx.cell_shift_2
    det = ctx.det
    m1 = round((z.real * c2.imag - z.imag * c2.real) / det)
    m2 = round((c1.real * z.imag - c1.imag * z.real) / det)
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

    The point is rotated onto its nearest wedge ray and, if it lies below
    that ray, conjugated.  Tie conventions: points within 1e-12 radians of
    a ray fold without conjugation, points on a bisector fold with
    ``conjugated=False``, and the obstruction-corner flag fires within
    ``1e-6 * |P|`` of the corner.
    """
    return FoldResult(*_fold(ctx, z))


def _fold(ctx: SquigContext, z: complex) -> tuple:
    """:func:`fold` as the plain tuple of ``FoldResult``'s fields, for the
    evaluation hot path."""
    n = ctx.n
    if z.__class__ is not complex or not cmath.isfinite(z):
        z = _as_point(z, f"the closed region Omega_{n}", f"Omega_{n}")
    shift = _NO_SHIFT
    v = z
    if n == 3:
        m1, m2, v = _reduce_to_cell(ctx, z)
        shift = (m1, m2)

    # the nearest ray k, in units of the wedge (a point on a bisector takes
    # the ray below); a point more than the snap below it is conjugated
    x = cmath.phase(v) / ctx.tau
    snap = _RAY_SNAP / ctx.tau
    k = math.floor(x + 0.5 - snap)
    rotation_k = k % n
    t = v * ctx.inv_roots[rotation_k]
    conjugated = x - k < -snap
    if conjugated:
        t = t.conjugate()

    # at n == 3 the Voronoi cell is the rosette, so a miss is unreachable by
    # construction and is not raised: that guards against roundoff at the
    # hexagon corners
    if n != 3:
        # regions._in_triangle(t, 0, A, P), inline
        ax, ay, ex, ey, px, py = ctx.half_kite
        tx, ty = t.real, t.imag
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
    if not isinstance(result, FoldResult):
        raise ParameterError(f"unfold needs a FoldResult, got {_shown(result)}")
    t = result.folded.conjugate() if result.conjugated else result.folded
    z = t * ctx.roots[result.rotation_k]
    if result.lattice_shift != (0, 0):
        m1, m2 = result.lattice_shift
        z += m1 * ctx.cell_shift_1 + m2 * ctx.cell_shift_2
    return z
