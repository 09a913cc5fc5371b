"""Membership tests, boundaries and samplers of the regions of ``sin_n``.

The kite ``Pi`` (``contains_Pi``), the rosette ``Omega`` (``in_rosette``),
their boundaries and the wedge boundary ``gamma`` (``boundary_polyline``),
and uniform draws over the rosette (``sample_domain``).  No evaluation
route runs any of it: ``sin_n`` and ``cos_n`` test the half kite inline in
:func:`squig.geometry.fold`, and ``arcsin_n`` tests the slits with
``geometry._slit_wedge``.  ``import squig`` does not load this module;
``squig.contains_Pi``, ``squig.boundary_polyline`` and
``squig.sample_domain`` load it at their first use, and so do the CLI's
``grid`` command and the certification suite.
"""

from __future__ import annotations

import cmath
import math

from .errors import ParameterError, _as_point, _is_count, _is_real, _shown
from .geometry import SquigContext

# sample_domain's largest pole_clearance: the draws reject more of the kite
# as it nears 1, where every kite point lies within |P| of P
_MAX_CLEARANCE = 0.9
_MAX_SAMPLES_PER_EDGE = 10**4  # the rosette at n = 64: 1.28 million points, 52 MB, 0.3 s
_MAX_POINTS = 10**3  # sample_domain's ceiling: at most 0.2 s at the 0.9 clearance, any n


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
    """Closed-kite membership, with ``fold``'s band (``geometry._EDGE_BAND``
    |A|, 1.2e-7 |A|) beyond the edges ``[A, P]`` and ``[P, B]``.

    The kite is the union of the triangles (0, A, P) and (0, P, B); testing
    the two halves separately keeps the test correct when the corner at P
    turns reflex (n >= 5).
    """
    if z.__class__ is not complex:
        z = _as_point(z)
    tol = ctx.edge_tol
    zero = 0j
    return _in_triangle(z, zero, ctx.A, ctx.P, tol) or _in_triangle(
        z, zero, ctx.P, ctx.B, tol
    )


def in_rosette(ctx: SquigContext, z: complex) -> bool:
    """Closed-rosette membership: ``z`` lies in one of the n rotated kites.

    Each kite lies inside its own wedge, so only the kite of the wedge that
    holds ``z``'s phase can hold ``z``: it is rotated once, into that kite.
    The edge band is that kite's alone, as in ``fold``, so at a tip
    ``omega**k A`` no point is taken in by the neighbouring kite's band.
    A NaN or infinite point lies in no kite.
    """
    if z.__class__ is not complex:
        z = _as_point(z)
    if not cmath.isfinite(z):
        return False
    return contains_Pi(ctx, z * ctx.inv_roots[math.floor(cmath.phase(z) / ctx.tau) % ctx.n])


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
    polyline closes exactly.  ``samples_per_edge`` runs from 2 to the
    ceiling of 10**4; beyond it ParameterError is raised.
    """
    if not _is_count(samples_per_edge, 2, _MAX_SAMPLES_PER_EDGE):
        raise ParameterError(f"samples_per_edge must be an integer in [2, {_MAX_SAMPLES_PER_EDGE}]"
                             f", its ceiling, got {_shown(samples_per_edge)}")

    if which == "pi":
        return _sample_edges([0j, ctx.A, ctx.P, ctx.B], samples_per_edge)

    if which == "omega":
        verts: list[complex] = []
        for rot in ctx.roots:
            verts.append(rot * ctx.A)
            verts.append(rot * ctx.P)
        return _sample_edges(verts, samples_per_edge)

    if which == "gamma":
        if not (_is_real(radius) and radius > 0.0):
            raise ParameterError(
                f"the gamma boundary needs a positive finite radius, got {_shown(radius)}")
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

    raise ParameterError(f"unknown boundary tag {_shown(which)}; use pi, omega or gamma")


def sample_domain(
    ctx: SquigContext,
    rng,
    count: int,
    pole_clearance: float = 0.05,
) -> list[complex]:
    """Draw ``count`` points uniformly over the closed rosette.

    ``rng`` draws them through its ``random()`` and ``randrange(n)``, as a
    ``random.Random`` does; an object without both methods is refused.
    ``count`` must be an int (not a bool) from 0 to the ceiling of 10**3,
    checked before the first draw: 10**3 points take at most 0.2 s at the
    largest clearance (0.09 s at n = 64), 2 ms at the default.  Keeps a
    relative distance of at least ``pole_clearance`` (in units of ``|P|``)
    from every rotated obstruction corner; it must be a finite real (not a
    bool) of at most 0.9.  Beyond, the accepted share of the kite shrinks
    toward 0 at 1, where no kite point is left, and the draws stall (18.5 s
    for 10 points at 0.999 and n = 8, against at most 19 ms at 0.9).  The
    two half-kite triangles have equal area, so a coin flip plus a
    barycentric draw is uniform on the kite, and a uniform rotation spreads
    it over the rosette.
    """
    if not (callable(getattr(rng, "random", None))
            and callable(getattr(rng, "randrange", None))):
        raise ParameterError(f"rng must have random() and randrange(), got {_shown(rng)}")
    if not _is_count(count, 0, _MAX_POINTS):
        raise ParameterError(f"count must be an integer in [0, {_MAX_POINTS}], sample_domain's "
                             f"ceiling, got {_shown(count)}")
    if not (_is_real(pole_clearance) and pole_clearance <= _MAX_CLEARANCE):
        raise ParameterError(f"pole_clearance must be a finite real of at most "
                             f"{_MAX_CLEARANCE}, got {_shown(pole_clearance)}")
    pts: list[complex] = []
    while len(pts) < count:
        a = rng.random()
        b = rng.random()
        if a + b > 1.0:
            a, b = 1.0 - a, 1.0 - b
        base = ctx.A if rng.random() < 0.5 else ctx.B
        p = a * base + b * ctx.P
        root = ctx.roots[rng.randrange(ctx.n)]
        # the kite's own corner P omega**k is its nearest: measured unrotated
        if abs(p - ctx.P) < pole_clearance * abs(ctx.P):
            continue
        pts.append(p * root)
    return pts
