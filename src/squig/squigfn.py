"""Evaluation of the generalized sine family and its inverse maps.

The sector map ``F`` sends the closed fundamental sector (opening angle
``2*pi/n``) onto the closed kite with vertices ``0, A, P, B``; the sine is
its inverse, extended to the whole rosette (for ``n == 3``: to the whole
plane) through the fold bookkeeping of :mod:`squig.geometry`.  The global
inverse sine is ``F`` itself continued over the slit plane.

Evaluation strategy for the inverse problem, in order of preference:

1. near the corner ``A``, the kernel's corner chart
   ``A - F(1 - xi**n) = n^(1/n) xi Q(xi**n)``, solved by Newton in the
   root variable ``xi`` so no branch is ever chosen explicitly; its slope
   ``n^(1/n) G(xi**n)`` also gives the cosine,
2. a one-dimensional real solve for targets on the slit-edge image
   segment ``[A, P]``,
3. one pass of damped Newton on the principal-branch sector map from one
   seed: the pole asymptote near ``P``, else the Maclaurin value near 0,
   else the precomputed grid point whose image is nearest the target; a
   seed Newton cannot start from is passed over.  A failed pass raises
   ``ConvergenceError`` with its last residual.

Every forward value of ``F`` comes from one kernel,
``numerics.sector_ray_integral``, which sums one of three series.  With
``x = u**n`` they are the binomial series at 0 for ``|x| <= 1/2``, the
series at infinity,
``F(u) = P - e^{i pi (n-1)/n} sum_k c_k u^(2-n-nk) / (n-2+nk)``, for
``|x| >= 2``, and in the annulus between them the corner chart
``F(1 - delta) = A - n^(1/n) delta^(1/n) Q(delta)`` at the nearest of the
roots 1 and omega.  ``A`` and ``P`` come from the same series, summed on the
real axis where they meet.  Each series is cut by a proven remainder bound,
so every value is accurate to about 1e-15 relative.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass

from .errors import (
    ConvergenceError,
    DomainError,
    InvalidSeriesError,
    ParameterError,
)
from .geometry import SquigContext, contains_Sigma, fold
from .numerics import (
    RationalSeries,
    _in_sector,
    _real_chart,
    _series_tables,
    _series_tail,
    _sine_coefficients,
    _sparse_horner,
    newton_invert,
    sector_ray_integral,
)

_DEFAULT_TOL = 1e-12
# chart radius as a fraction of the distance to the adjacent root of unity
_CORNER_FRAC = 0.08
_CORNER_STEPS = 12  # Newton cap of the corner chart
_SNAP = 1e-12

_SEED_RADII = (0.55, 0.8, 1.05, 1.35, 1.8, 2.6, 4.2, 8.0)
_SEED_ANGLES = (0.08, 0.32, 0.6, 0.92)  # units of pi/n


@dataclass(frozen=True)
class EvalResult:
    """Value of an evaluation plus its certificate.

    ``value`` is None exactly when ``is_pole`` is set.  ``residual`` is the
    verified backward error |F(value') - target| in image space, where
    value' is the canonical representative actually solved for.  On the
    corner route it is measured at the chart variable xi, not at the
    returned u: at n = 16, t = 0.99 A it is about 0, while |F(1) - t| is
    2e-2 for the returned u = 1.0.
    """

    value: complex | None
    is_pole: bool
    residual: float


def pi_n(ctx: SquigContext) -> float:
    """Fundamental period ``2 A``, from the kernel's series at context build time."""
    return ctx.pi_n


# ---------------------------------------------------------------------------
# series


def maclaurin(ctx: SquigContext, terms: int) -> RationalSeries:
    """Exact rational Maclaurin series of the sine, to ``terms`` nonzero terms.

    The coefficients come from the ODE pair s' = c^(n-1), c' = -s^(n-1)
    (``numerics._sine_coefficients``).  Nonzero degrees are
    ``1, n+1, 2n+1, ...``; results are cached on the context and reused for
    any smaller request.  ``numerics.revert_series``, a general series
    reversion, gives the same coefficients by inverting the series of ``F``.
    """
    if isinstance(terms, bool) or not isinstance(terms, int) or terms < 1:
        raise ParameterError(f"terms must be a positive integer, got {terms!r}")
    cached = ctx.series_cache.get("maclaurin")
    if cached is None or cached.term_count() < terms:
        n = ctx.n
        pairs = [(n * k + 1, a) for k, a in enumerate(_sine_coefficients(n, terms)) if a]
        cached = RationalSeries(*zip(*pairs))
        ctx.series_cache["maclaurin"] = cached
    if cached.term_count() == terms:
        return cached
    return cached.head(terms)


def radius_estimate(series: RationalSeries) -> float:
    """Convergence radius from coefficient-ratio extrapolation.

    Consecutive nonzero coefficients give radius estimates
    ``|a_j / a_k|^(1/(k-j))``; with eight or more of them the last three are
    extrapolated to infinite degree (quadratic in 1/degree), otherwise the
    last one is returned as-is.  Needs at least four nonzero terms.
    """
    pairs = sorted(zip(series.degrees, series.coeffs))
    if len(pairs) < 4:
        raise InvalidSeriesError(
            f"radius estimation needs at least 4 nonzero terms, got {len(pairs)}"
        )
    pts = []
    for (d1, a1), (d2, a2) in zip(pairs, pairs[1:]):
        ratio = abs(a1) / abs(a2)
        pts.append((1.0 / d2, float(ratio) ** (1.0 / (d2 - d1))))
    if len(pts) >= 8:
        (x0, y0), (x1, y1), (x2, y2) = pts[-3:]
        y01 = (x0 * y1 - x1 * y0) / (x0 - x1)
        y12 = (x1 * y2 - x2 * y1) / (x1 - x2)
        return (x0 * y12 - x2 * y01) / (x0 - x2)
    return pts[-1][1]


# ---------------------------------------------------------------------------
# corner chart around u = 1


@functools.lru_cache(maxsize=None)
def _corner_band(n: int) -> float:
    """Radius |A - t| of the targets that go to the corner chart: the image
    of |1 - u| <= 0.8 * _CORNER_FRAC * (distance to the adjacent root)."""
    delta_max = _CORNER_FRAC * 2.0 * math.sin(math.pi / n)
    return n ** (1.0 / n) * (0.8 * delta_max) ** (1.0 / n)


def _corner_forward(ctx: SquigContext, xi: complex):
    """The corner chart in the root variable xi = (1 - u)^(1/n).

    Returns (A - F(u), its derivative in xi) = (n^(1/n) xi Q(d),
    n^(1/n) G(d)) at d = xi**n, where Q is the kernel's chart table and
    G(d) = sum_k (n*k + 1) q_k d**k = h(d)**(-beta).  Both are summed in one
    Horner pass, cut where ``_binomial_sum`` cuts Q.
    """
    n = ctx.n
    d = xi**n
    coeffs, radii = _series_tables(n).chart
    last = min(bisect.bisect_left(radii, abs(d)), len(coeffs) - 1)
    q = g = 0j
    for k in range(last, -1, -1):
        q = q * d + coeffs[k]
        g = g * d + (n * k + 1) * coeffs[k]
    scale = n ** (1.0 / n)
    return scale * xi * q, scale * g


def _corner_invert(ctx: SquigContext, y: complex):
    """Solve A - F(u) = y near u = 1; returns (u, cos, residual) or None.

    Newton in the root variable xi, from xi = y / n^(1/n), so the branch is
    inherited from y and never chosen by a root extraction.  The cosine is
    n^(1/n) xi h^(1/n) = n^(1/n) xi G^(-1/(n-1)); the residual is the
    chart's, |A - F(u) - y| at the final xi.  None when Newton hits its cap.
    """
    n = ctx.n
    if y == 0:
        return 1.0 + 0j, 0j, 0.0
    scale = n ** (1.0 / n)
    xi = y / scale
    for _ in range(_CORNER_STEPS):
        value, slope = _corner_forward(ctx, xi)
        step = (value - y) / slope
        xi -= step
        if abs(step) <= 1e-15 * abs(xi):
            break
    else:
        return None
    value, slope = _corner_forward(ctx, xi)
    cosv = scale * xi * (slope / scale) ** (-1.0 / (n - 1))
    return 1.0 - xi**n, cosv, abs(value - y)


# ---------------------------------------------------------------------------
# slit-edge image segment [A, P]


def _edge_integral(ctx: SquigContext, x: float) -> float:
    """Real integral of (t^n - 1)^(-(n-1)/n) over [1, x], for x > 1."""
    n = ctx.n
    if x <= 1.0:
        return 0.0
    tail = _series_tail(n, x)
    if tail is not None:
        # the full-ray value is |P|; the series gives the rest beyond x
        return ctx.R - tail.real
    return _real_chart(n, _series_tables(n).chart, 1.0 - x)


def _invert_slit_edge(ctx: SquigContext, m: float, tol: float):
    """Solve edge-integral(x) = m for x >= 1; returns (x, residual)."""
    n = ctx.n
    beta = ctx.beta
    if m >= ctx.R:
        raise ConvergenceError(
            f"target beyond the reachable edge segment (m={m}, limit {ctx.R})",
            residual=m - ctx.R,
        )
    if m >= 0.9 * ctx.R:
        x = ((n - 2.0) * (ctx.R - m)) ** (-1.0 / (n - 2.0))
    else:
        x = 1.0 + _CORNER_FRAC * math.sin(math.pi / n)
    x = max(x, 1.0 + 1e-15)
    val = _edge_integral(ctx, x)
    lo = 1.0
    if val < m:
        lo = x
        while val < m:
            x *= 2.0
            val = _edge_integral(ctx, x)
            if x > 1e12:
                break
    hi = x
    # Newton with bisection safety; derivative is (x^n - 1)^(-beta)
    for _ in range(80):
        err = val - m
        if abs(err) <= tol:
            break
        cand = x - err * (x**n - 1.0) ** beta
        if not lo < cand < hi:
            cand = 0.5 * (lo + hi)
        x = cand
        val = _edge_integral(ctx, x)
        if val < m:
            lo = x
        else:
            hi = x
    return x, abs(val - m)


# ---------------------------------------------------------------------------
# Newton seeding


def _pole_seed(ctx: SquigContext, t: complex) -> complex:
    # large-|u| asymptote F(u) ~ P - e^{i pi (n-1)/n} u^-(n-2) / (n-2)
    n = ctx.n
    base = (n - 2) * (ctx.P - t) * cmath.exp(-1j * math.pi * (n - 1) / n)
    seed = base ** (-1.0 / (n - 2))
    if n > 3:
        tau = 2.0 * math.pi / n
        for k in range(n - 2):
            cand = seed * cmath.exp(-2j * math.pi * k / (n - 2))
            if -0.05 <= cmath.phase(cand) <= tau + 0.05:
                return cand
    return seed


def _seed_table(ctx: SquigContext):
    cached = ctx.series_cache.get("seeds")
    if cached is not None:
        return cached
    table = []
    for r in _SEED_RADII:
        for a in _SEED_ANGLES:
            u = r * cmath.exp(1j * math.pi / ctx.n * a)
            table.append((sector_ray_integral(ctx.n, u), u))
    ctx.series_cache["seeds"] = table
    return table


def _seed_terms(n: int) -> int:
    """Terms of the Maclaurin head that seeds Newton."""
    return max(6, min(24, 4 + 160 // n))


def _maclaurin_seed(ctx: SquigContext, t: complex) -> complex:
    """The Maclaurin head at ``t``, from its coefficients rounded once and
    cached; the same sum as ``RationalSeries.evaluate``, bit for bit."""
    cached = ctx.series_cache.get("seed_series")
    if cached is None:
        head = maclaurin(ctx, _seed_terms(ctx.n))
        cached = tuple(zip(reversed(head.degrees), map(complex, reversed(head.coeffs))))
        ctx.series_cache["seed_series"] = cached
    return _sparse_horner(cached, t)


def _newton_seed(ctx: SquigContext, t: complex) -> complex:
    """The first of (pole asymptote, Maclaurin value) that Newton can start
    from, else the grid point whose image is nearest to ``t``.

    Newton accepts no iterate outside the sector or, beyond the unit circle,
    within 1e-7 of a boundary ray (a slit there), so a seed in that margin
    can only fail.  Every grid point lies inside the sector.
    """
    n = ctx.n
    if abs(t - ctx.P) <= 0.5 * ctx.R:
        seed = _pole_seed(ctx, t)
        if _in_sector(n, seed):
            return seed
    if abs(t) <= 0.72 * ctx.R:
        seed = _maclaurin_seed(ctx, t)
        if _in_sector(n, seed):
            return seed
    return min(_seed_table(ctx), key=lambda item: abs(item[0] - t))[1]


def _invert_to_triangle(ctx: SquigContext, t: complex, tol: float):
    """Invert the sector map at a target in the closed half-kite triangle.

    Returns (u, cos_value_or_None, residual); the cosine comes back filled
    only when a route computes it as a byproduct without extra cost.
    """
    n = ctx.n
    y = ctx.A - t
    if abs(y) <= _corner_band(n):
        got = _corner_invert(ctx, y)
        if got is not None:
            return got

    # exactly-on-edge targets t = A + e^{i pi beta} m, m real in (0, R)
    e = (t - ctx.A) * cmath.exp(-1j * math.pi * ctx.beta)
    if e.real > 0 and abs(e.imag) <= 1e-11 * max(1.0, e.real):
        x, resid = _invert_slit_edge(ctx, e.real, tol)
        cosv = (x**n - 1.0) ** (1.0 / n) * cmath.exp(-1j * math.pi / n)
        return complex(x, 0.0), cosv, resid

    res = newton_invert(n, t, _newton_seed(ctx, t), tol=tol)
    return res.z, None, res.residual


# ---------------------------------------------------------------------------
# public maps


def arcsin_n_sector(ctx: SquigContext, z: complex) -> complex:
    """Sector map F on the closed fundamental sector, boundary rays included."""
    z = complex(z)
    n = ctx.n
    if z == 0:
        return 0j
    tau = 2.0 * math.pi / n
    ph = cmath.phase(z)
    if -_SNAP <= ph < 0.0:
        ph = 0.0
        z = complex(abs(z), 0.0)
    if ph < 0.0 or ph > tau + _SNAP:
        raise DomainError(
            f"point {z} lies outside the closed sector V_{n}", region=f"V_{n}"
        )
    reflected = ph > tau / 2.0 + _SNAP
    u = ctx.omega * z.conjugate() if reflected else z
    if abs(u.imag) <= _SNAP * max(1.0, abs(u.real)):
        u = complex(abs(u), 0.0)
    # values move like |u - 1|^(1/n) at the corner, so absorb float fuzz
    if abs(u - 1.0) <= 1e-14:
        u = 1.0 + 0j

    val = sector_ray_integral(n, u)
    return ctx.omega * val.conjugate() if reflected else val


def arcsin_n(ctx: SquigContext, w: complex) -> complex:
    """Global inverse sine on the slit plane."""
    w = complex(w)
    if not contains_Sigma(ctx, w):
        raise DomainError(
            f"point {w} lies on a slit of Sigma_{ctx.n}", region=f"Sigma_{ctx.n}"
        )
    if w == 0:
        return 0j
    n = ctx.n
    tau = 2.0 * math.pi / n
    k = round(cmath.phase(w) / tau) % n
    u = w * cmath.exp(-2j * math.pi * k / n)
    flip = u.imag < 0.0
    if flip:
        u = u.conjugate()
    val = sector_ray_integral(n, u)
    if flip:
        val = val.conjugate()
    return val * cmath.exp(2j * math.pi * k / n)


def sin_n(ctx: SquigContext, z: complex, tol: float = _DEFAULT_TOL) -> EvalResult:
    """Generalized sine on the closed rosette (whole plane when n == 3)."""
    fr = fold(ctx, z)
    if fr.at_pole:
        return EvalResult(None, True, 0.0)
    u, _, resid = _invert_to_triangle(ctx, fr.folded, tol)
    w = u.conjugate() if fr.conjugated else u
    w *= cmath.exp(2j * math.pi * fr.rotation_k / ctx.n)
    if ctx.n == 3 and fr.lattice_shift != (0, 0):
        m1, m2 = fr.lattice_shift
        w *= cmath.exp(2j * math.pi * ((m2 - m1) % 3) / 3)
    return EvalResult(w, False, resid)


def cos_n(ctx: SquigContext, z: complex, tol: float = _DEFAULT_TOL) -> EvalResult:
    """Generalized cosine, the n-th-root complement of the sine.

    The branch is continued from cos(0) = 1 through the fold; rotating z by
    omega leaves the value unchanged, conjugation conjugates it.
    """
    fr = fold(ctx, z)
    if fr.at_pole:
        return EvalResult(None, True, 0.0)
    u, cosv, resid = _invert_to_triangle(ctx, fr.folded, tol)
    if cosv is None:
        # interior of the half-wedge: 1 - u^n stays off the negative reals
        cosv = (1.0 - u**ctx.n) ** (1.0 / ctx.n)
    c = cosv.conjugate() if fr.conjugated else cosv
    if ctx.n == 3 and fr.lattice_shift != (0, 0):
        m1, m2 = fr.lattice_shift
        c *= cmath.exp(2j * math.pi * ((m1 - m2) % 3) / 3)
    return EvalResult(c, False, resid)


def sin3_global(ctx: SquigContext, z: complex, tol: float = _DEFAULT_TOL) -> EvalResult:
    """Entire-plane sine for n == 3 (meromorphic; poles are flagged)."""
    if ctx.n != 3:
        raise ParameterError(f"sin3_global needs an n == 3 context, got n = {ctx.n}")
    return sin_n(ctx, z, tol)
