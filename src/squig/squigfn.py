"""Evaluation of the generalized sine family and its inverse maps.

The sector map ``F`` sends the closed fundamental sector (opening angle
``2*pi/n``) onto the closed kite with vertices ``0, A, P, B``; the sine is
its inverse, extended to the whole rosette (for ``n == 3``: to the whole
plane) through the fold bookkeeping of :mod:`squig.geometry`.  The global
inverse sine is ``F`` itself continued over the slit plane.

``sin_n`` and ``cos_n`` share one body, ``_evaluate``: one fold, one route
at the folded target, and one unfold.  There are three routes, one per
regime of the folded target, and each sums one table through one kernel,
``numerics._series_sum``:

1. the disc at 0: the ODE pair's Maclaurin series, s = t S(x), c = C(x)
   with x = t**n, from the float tables ``ctx.sine`` and ``ctx.cosine``,
2. the disc at the corner ``A``, whichever centre is nearer,
   ``_corner_invert``: the other table, by the symmetry
   sin_n(t) = cos_n(y), y = A - t,
3. every other target, near the pole ``P`` and in the lens between the
   discs, ``_pole_invert``: the series at infinity inverted in closed form,
   v = 1/u = W k(W**n) with W a root of (n-2) (P - t) e^(-i pi (n-1)/n)
   (the table ``ctx.pole``); the cosine u e^(-i pi/n) (1 - v**n)**(1/n)
   holds on the slit-edge image ``[A, P]`` as well.

The kernel cuts the Horner sum where its tail bound falls below half an
ulp and returns one bound for the cut and the rounding,
tail q**K / (1 - q) + ulp (1 + 2 tail K q / (1 - q)), with the tail
constant of the table (2 for the ODE tables, 1 for the pole's).  The pole
adds the rounding of W**n and propagates through u = 1/v and the cosine.
Each route computes only the value asked for; none iterates or raises.

``_evaluate`` sums every error of the folded target t (A's on the disc at
A, P's on the pole route, the fold's rounding and, at n == 3, the lattice
translation's) and carries the sum into the value once, through its slope
|1 - value**n|**beta (s**n + c**n = 1); the unfold adds its own rounding.
So ``residual`` bounds the forward error of the whole call.

Every forward value of ``F`` comes from one kernel,
``numerics.sector_ray_integral``: the binomial series at 0, the series at
infinity and the corner chart between them, each cut by a proven remainder
bound, so every value is accurate to about 1e-15 relative.  Every route and
the kernel read their tables from the one per-n record, the context.

``maclaurin`` gives the exact series of the sine; its rational arithmetic,
and ``radius_estimate``, live in :mod:`squig.series`, which ``maclaurin``
loads at its first call and no evaluation loads.
"""

from __future__ import annotations

import cmath
import math

from .errors import ConvergenceError, DomainError, ParameterError, _as_point, _is_count, _shown
from .geometry import _CELL_ROUND, _RAY_SNAP, SquigContext, _fold, _slit_wedge
from .numerics import (
    _ODE_TAIL,
    _ULP,
    _FrozenRecord,
    _series_sum,
    sector_ray_integral,
)

_A_ERR = 3e-16  # relative error of A from the kernel's tables (tested: 2.5e-16)
_P_ERR = 5e-16  # relative error of P: |P|'s (tested: 3.5e-16) and e^(i pi/n)'s
_FOLD_ROUND = 7 * _ULP  # rounding of one rotation by a stored root (tested: 6.7 ulps)
_MAX_TERMS = 200  # maclaurin's ceiling: 0.3 s at n = 3, up to 1.9 s at n = 64


class EvalResult(_FrozenRecord):
    """Value of an evaluation plus its certificate.

    ``value`` is None exactly when ``is_pole`` is set, and ``is_pole`` is
    set only where the folded target lies within its own error of the pole
    ``P``: P's error, the fold's rounding and, at n == 3, the lattice
    translation's.  Every other point returns a value, however near ``P``.
    On every call ``residual`` is a forward-error bound: it bounds the
    distance of the returned value from the exact one at the point itself,
    the fold and the unfold included (at n = 16, z = 0.99 A it is one ulp
    for the returned sine 1.0).
    """

    __slots__ = ("value", "is_pole", "residual")
    value: complex | None
    is_pole: bool
    residual: float

    def __init__(self, value, is_pole, residual):
        # as FoldResult's: the slots' descriptors, past the frozen __setattr__
        _set_value(self, value)
        _set_is_pole(self, is_pole)
        _set_residual(self, residual)


_set_value, _set_is_pole, _set_residual = (
    getattr(EvalResult, name).__set__ for name in EvalResult.__slots__)


# ---------------------------------------------------------------------------
# series


def maclaurin(ctx: SquigContext, terms: int) -> RationalSeries:
    """Exact rational Maclaurin series of the sine, to ``terms`` nonzero terms.

    The coefficients come from the ODE pair s' = c^(n-1), c' = -s^(n-1)
    (``series._ode_coefficients``).  Nonzero degrees are
    ``1, n+1, 2n+1, ...``.  ``squig.reference.revert_series``, the general
    series reversion that also builds the pole table, gives the same
    coefficients by inverting the series of ``F``.  ``terms`` runs from 1 to
    the ceiling of 200; beyond it ParameterError is raised.
    """
    from .series import RationalSeries, _ode_coefficients

    if not _is_count(terms, 1, _MAX_TERMS):
        raise ParameterError(f"terms must be an integer in [1, {_MAX_TERMS}], maclaurin's "
                             f"ceiling, got {_shown(terms)}")
    n = ctx.n
    pairs = [(n * k + 1, a) for k, a in enumerate(_ode_coefficients(n, terms)[0]) if a]
    return RationalSeries(*zip(*pairs))


# ---------------------------------------------------------------------------
# the ODE pair's series at A


def _corner_invert(ctx: SquigContext, y: complex, sine: bool):
    """The disc at A, for |y| within the tables' disc radius (else None):
    sin_n(t) = cos_n(y) if ``sine``, else cos_n(t) = sin_n(y), at t = A - y,
    by ``_series_sum`` over the other table.  Its bound covers the cut and
    the rounding; ``_evaluate`` adds the error of A that y carries."""
    if abs(y) > ctx.disc:
        return None
    return _series_sum(ctx.cosine if sine else ctx.sine, y, ctx.n, ctx.scale, 1.0, _ODE_TAIL,
                       not sine)


# ---------------------------------------------------------------------------
# no route calls these three; bench/spans.py wraps them by name.  Each is a
# view of a live route until the change that drops those spans deletes them.


def _corner_forward(ctx: SquigContext, y: complex, sine: bool):
    """The disc at A under its former name: ``_corner_invert``."""
    return _corner_invert(ctx, y, sine)


def _edge_integral(ctx: SquigContext, x: float) -> float:
    """Real integral of (t^n - 1)^(-(n-1)/n) over [1, x], for x > 1: the
    distance from A of F(x) on the lower slit edge, which F carries onto
    [A, P]."""
    if x <= 1.0:
        return 0.0
    return abs(sector_ray_integral(ctx, complex(x)) - ctx.A)


def _invert_slit_edge(ctx: SquigContext, m: float):
    """Solve edge-integral(x) = m for x >= 1; returns (x, residual): the sine
    at the point m along [A, P], A + m e^(i pi beta), and its bound.  Raises
    ConvergenceError where that point is P or beyond, or the sine flags it as
    the pole."""
    res = None if m >= ctx.R else sin_n(ctx, ctx.A + m * ctx.phase)
    if res is None or res.is_pole:
        raise ConvergenceError(
            f"target at or beyond the pole end of the edge segment (m={m}, limit {ctx.R})",
            residual=m - ctx.R,
        )
    return res.value.real, res.residual


# ---------------------------------------------------------------------------
# the pole series at P, over every target beyond both discs


def _pole_invert(ctx: SquigContext, t: complex, sine: bool):
    """sin_n(t) if ``sine``, else cos_n(t), at a target beyond both discs,
    and a bound on its error, by the pole series: v = 1/u = W k(X), X = W**n,
    with W the root of ((n-2) (P - t) e^(-i pi beta))**(1/(n-2)) whose phase
    is nearest -pi/(2n), the middle of v's phases on the half sector.

    ``_series_sum`` sums the table (|k_j| <= rate**j: tail 1) and bounds its
    cut and rounding.  X = W**n carries 3 n ulps of its own, which move the
    sum by at most 3 n ulps of sum_j j |k_j X**j| <= q / (1 - q)**2, with
    q = rate |X| and |X| = |D| |W|**2.  ``_evaluate`` adds the error of P.
    On the slit edge the cosine's (1 - u**n)**(1/n) is the conjugate of its
    factor here.
    """
    n = ctx.n
    d = (n - 2) * (ctx.P - t) * ctx.phase.conjugate()
    phi = cmath.phase(d)
    k = round((-(n - 2) * math.pi / (2 * n) - phi) / (2 * math.pi))
    size = abs(d)
    r = size ** (1.0 / (n - 2))
    w = cmath.rect(r, (phi + 2 * math.pi * k) / (n - 2))
    v, v_err = _series_sum(ctx.pole, w, n, 1.0, ctx.rate, 1.0, True)
    q = ctx.rate * size * r * r
    v_err += 3 * n * _ULP * r * q / (1.0 - q) ** 2
    # |du| = |u|**2 |dv| plus the rounding of W, v and u; |dcos/du| =
    # |1 - v**n|**(-beta)
    u = 1.0 / v
    bound = abs(u) * (abs(u) * v_err + 4.0 * _ULP)
    if sine:
        return u, bound
    h = 1.0 - v**n
    cosv = ctx.cos_phase * h ** (1.0 / n) / v
    return cosv, bound * abs(h) ** ((1 - n) / n) + 4.0 * (n + 1) * _ULP * abs(cosv)


# ---------------------------------------------------------------------------
# public maps


def arcsin_n_sector(ctx: SquigContext, z: complex) -> complex:
    """Sector map F on the closed fundamental sector, boundary rays included:
    the value at the float ``z`` itself, continued from inside the sector
    onto both rays, slits included (``numerics.sector_ray_integral``)."""
    n = ctx.n
    if z.__class__ is not complex or not cmath.isfinite(z):
        z = _as_point(z, f"the closed sector V_{n}", f"V_{n}")
    if z == 0:
        return 0j
    if not -_RAY_SNAP <= cmath.phase(z) <= ctx.tau + _RAY_SNAP:
        raise DomainError(f"point {z} lies outside the closed sector V_{n}", region=f"V_{n}")
    return sector_ray_integral(ctx, z)


def arcsin_n(ctx: SquigContext, w: complex) -> complex:
    """Global inverse sine on the slit plane."""
    n = ctx.n
    if w.__class__ is not complex or not cmath.isfinite(w):
        w = _as_point(w, f"the slit plane Sigma_{n}", f"Sigma_{n}")
    k, u, flip, on_slit = _slit_wedge(ctx, w)
    if on_slit:
        raise DomainError(f"point {w} lies on a slit of Sigma_{n}", region=f"Sigma_{n}")
    if w == 0:
        return 0j
    val = sector_ray_integral(ctx, u)
    if flip:
        val = val.conjugate()
    return val * ctx.roots[k]


def _evaluate(ctx: SquigContext, z: complex, sine: bool) -> EvalResult:
    """sin_n(z) if ``sine``, else cos_n(z): fold z into the half-kite
    triangle, take the route of the target, and undo the fold.

    Rotating z by omega rotates the sine by omega and leaves the cosine
    unchanged; conjugation conjugates both.  At n == 3 a lattice shift
    (m1, m2) rotates the sine by omega**(m2 - m1) and the cosine by
    omega**(m1 - m2).  The errors of t reach ``residual`` here, through one
    slope read from the value before the unfold (module docstring); a point
    the fold leaves in place carries no rounding of the fold.  The same sum
    judges the pole: a target of the pole route whose |P - t| is within the
    error of t is flagged, and every other target is evaluated.
    """
    t, rotation_k, conjugated, shift = _fold(ctx, z)
    n = ctx.n
    # the nearer of the two discs: fewer terms, and the value that vanishes
    # at its centre (s at 0, c at A) comes out as a product, not a difference
    y = ctx.A - t
    r = abs(t)
    got = None
    err = 0.0  # the error of t
    if r <= abs(y):
        if r <= ctx.disc:
            got = _series_sum(ctx.sine if sine else ctx.cosine, t, n, ctx.scale, 1.0, _ODE_TAIL,
                              sine)
    else:
        got = _corner_invert(ctx, y, sine)
        err = _A_ERR * ctx.A.real
    if got is None:
        err = _P_ERR * ctx.R
    moved = rotation_k or conjugated or shift != (0, 0)
    if moved:  # the rounding of the fold's rotation, and the translation's error
        err += _FOLD_ROUND * r
        if shift != (0, 0):
            m1, m2 = shift
            err += (_A_ERR * (abs(m1) * abs(ctx.cell_shift_1) + abs(m2) * abs(ctx.cell_shift_2))
                    + _CELL_ROUND * abs(z))
    if got is None:
        if abs(ctx.P - t) <= err:  # P lies within the error of t
            return EvalResult(None, True, 0.0)
        got = _pole_invert(ctx, t, sine)
    value, resid = got
    if moved:  # the rounding of the unfold's rotations: |value| is the same after each
        resid += _FOLD_ROUND * abs(value)
        if shift != (0, 0):
            resid += _FOLD_ROUND * abs(value)
    if err:
        resid += err * abs(1.0 - value**n) ** ((n - 1) / n)
    if conjugated:
        value = value.conjugate()
    if sine:
        value *= ctx.roots[rotation_k]
    if shift != (0, 0):
        value *= ctx.roots[(m2 - m1 if sine else m1 - m2) % 3]
    return EvalResult(value, False, resid)


def sin_n(ctx: SquigContext, z: complex) -> EvalResult:
    """Generalized sine on the closed rosette (whole plane when n == 3)."""
    return _evaluate(ctx, z, True)


def cos_n(ctx: SquigContext, z: complex) -> EvalResult:
    """Generalized cosine, the n-th-root complement of the sine.

    The branch is continued from cos(0) = 1 through the fold; rotating z by
    omega leaves the value unchanged, conjugation conjugates it.
    """
    return _evaluate(ctx, z, False)


def sin3_global(ctx: SquigContext, z: complex) -> EvalResult:
    """Entire-plane sine for n == 3 (meromorphic; poles are flagged)."""
    if ctx.n != 3:
        raise ParameterError(f"sin3_global needs an n == 3 context, got n = {ctx.n}")
    return sin_n(ctx, z)
