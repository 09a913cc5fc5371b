"""Evaluation of the generalized sine family and its inverse maps.

The sector map ``F`` sends the closed fundamental sector (opening angle
``2*pi/n``) onto the closed kite with vertices ``0, A, P, B``; the sine is
its inverse, extended to the whole rosette (for ``n == 3``: to the whole
plane) through the fold bookkeeping of :mod:`squig.geometry`.  The global
inverse sine is ``F`` itself continued over the slit plane.

Evaluation strategy for the inverse problem, in order of preference:

1. a local chart around the corner ``u = 1`` (series iterated in the
   n-th-root variable so no branch is ever chosen explicitly),
2. a one-dimensional real solve for targets on the slit-edge image
   segment ``[A, P]``,
3. damped Newton on the principal-branch sector map, seeded from the
   Maclaurin series, a pole asymptote, or a precomputed grid, whichever is
   closest.

Every forward value of ``F`` comes from one kernel,
``numerics.sector_ray_integral``, which sums one of three series.  With
``x = u**n`` they are the binomial series at 0 for ``|x| <= 1/2``, the
series at infinity,
``F(u) = P - e^{i pi (n-1)/n} sum_k c_k u^(2-n-nk) / (n-2+nk)``, for
``|x| >= 2``, and in the annulus between them the corner chart
``F(1 - delta) = A - n^(1/n) delta^(1/n) Q(delta)`` at the nearest of the
roots 1 and omega.  ``A`` and ``P`` come from the gamma closed form.  Each
series is cut by a proven remainder bound, so every value is accurate to
about 1e-15 relative.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ConvergenceError,
    DomainError,
    InvalidSeriesError,
    ParameterError,
    SquigError,
)
from .geometry import SquigContext, contains_Sigma, fold
from .numerics import (
    RationalSeries,
    _binomial_sum,
    _corner_polynomial,
    _in_sector,
    _miller_power,
    _series_tables,
    _series_tail,
    gamma_corner_radius,
    newton_invert,
    revert_series,
    sector_ray_integral,
)

_DEFAULT_TOL = 1e-12
_CORNER_TERMS = 14
# chart radius as a fraction of the distance to the adjacent root of unity
_CORNER_FRAC = 0.08
_SNAP = 1e-12

_SEED_RADII = (0.55, 0.8, 1.05, 1.35, 1.8, 2.6, 4.2, 8.0)
_SEED_ANGLES = (0.08, 0.32, 0.6, 0.92)  # units of pi/n


@dataclass(frozen=True)
class EvalResult:
    """Value of an evaluation plus its certificate.

    ``value`` is None exactly when ``is_pole`` is set.  ``residual`` is the
    verified backward error |F(value') - target| in image space, where
    value' is the canonical representative actually solved for.
    """

    value: complex | None
    is_pole: bool
    residual: float


def pi_n(ctx: SquigContext) -> float:
    """Fundamental period, as computed by quadrature at context build time."""
    return ctx.pi_n


# ---------------------------------------------------------------------------
# series


def _forward_series(n: int, terms: int) -> RationalSeries:
    # antiderivative of the binomial expansion of (1 - z^n)^(-(n-1)/n)
    degs = []
    cofs = []
    c = Fraction(1)
    beta = Fraction(n - 1, n)
    for k in range(terms):
        degs.append(n * k + 1)
        cofs.append(c / (n * k + 1))
        c = c * (beta + k) / (k + 1)
    return RationalSeries(tuple(degs), tuple(cofs))


def maclaurin(ctx: SquigContext, terms: int) -> RationalSeries:
    """Exact rational Maclaurin series of the sine, to ``terms`` nonzero terms.

    Nonzero degrees are ``1, n+1, 2n+1, ...``; results are cached on the
    context and reused for any smaller request.
    """
    if isinstance(terms, bool) or not isinstance(terms, int) or terms < 1:
        raise ParameterError(f"terms must be a positive integer, got {terms!r}")
    cached = ctx.series_cache.get("maclaurin")
    if cached is None or cached.term_count() < terms:
        cached = revert_series(_forward_series(ctx.n, terms + 1), terms)
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


def _corner_chart(ctx: SquigContext):
    """Chart constants: (Q coeffs, cosine coeffs, delta radius, image radius).

    With delta = 1 - u,  A - F(u) = n^(1/n) * delta^(1/n) * Q(delta)  and
    cos = n^(1/n) * delta^(1/n) * H(delta).  Q is the head of the kernel's
    chart table; both series are summed to _CORNER_TERMS terms.
    """
    cached = ctx.series_cache.get("corner")
    if cached is not None:
        return cached
    n = ctx.n
    q = _series_tables(n).chart[0][:_CORNER_TERMS]
    hcos = _miller_power(_corner_polynomial(n), 1.0 / n, _CORNER_TERMS)
    delta_max = _CORNER_FRAC * 2.0 * math.sin(math.pi / n)
    band = n ** (1.0 / n) * (0.8 * delta_max) ** (1.0 / n)
    chart = (q, hcos, delta_max, band)
    ctx.series_cache["corner"] = chart
    return chart


def _poly(coeffs, d: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * d + c
    return acc


def _corner_forward(ctx: SquigContext, delta: complex, lower_edge: bool = False) -> complex:
    """A - F(1 - delta) for |delta| within the chart radius.

    ``lower_edge`` forces the branch continued from inside the sector onto
    the real ray beyond the root (negative real delta), where the principal
    root would pick the wrong side.
    """
    n = ctx.n
    q = _corner_chart(ctx)[0]
    if lower_edge:
        xi = abs(delta) ** (1.0 / n) * cmath.exp(-1j * math.pi / n)
    else:
        xi = delta ** (1.0 / n)
    return n ** (1.0 / n) * xi * _poly(q, xi**n)


def _corner_invert(ctx: SquigContext, y: complex):
    """Solve A - F(u) = y near u = 1; returns (u, cos, residual) or None.

    Iterates on the root variable xi = delta^(1/n) directly, so the branch
    is inherited from y and never chosen by a root extraction.
    """
    q, hcos, delta_max, _ = _corner_chart(ctx)
    n = ctx.n
    scale = n ** (1.0 / n)
    if y == 0:
        return 1.0 + 0j, 0j, 0.0
    xi = y / scale
    converged = False
    for _ in range(120):
        new = y / (scale * _poly(q, xi**n))
        if abs(new - xi) <= 1e-15 * abs(new):
            xi = new
            converged = True
            break
        xi = new
    d = xi**n
    if not converged or abs(d) > delta_max:
        return None
    resid = abs(scale * xi * _poly(q, d) - y)
    return 1.0 - d, scale * xi * _poly(hcos, d), resid


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
        return gamma_corner_radius(n) - tail.real
    # the corner chart on the lower slit edge, F(x) = A + e^(i pi beta) * edge
    chart = _series_tables(n).chart
    return n ** (1.0 / n) * (x - 1.0) ** (1.0 / n) * _binomial_sum(chart, 1.0 - x).real


def _invert_slit_edge(ctx: SquigContext, m: float, tol: float):
    """Solve edge-integral(x) = m for x >= 1; returns (x, residual)."""
    n = ctx.n
    beta = ctx.beta
    if m >= ctx.R:
        raise ConvergenceError(
            f"target beyond the reachable edge segment (m={m}, limit {ctx.R})",
            residual=m - ctx.R,
        )
    delta_max = _corner_chart(ctx)[2]
    if m >= 0.9 * ctx.R:
        x = ((n - 2.0) * (ctx.R - m)) ** (-1.0 / (n - 2.0))
    else:
        x = 1.0 + 0.5 * delta_max
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


def _invert_to_triangle(ctx: SquigContext, t: complex, tol: float):
    """Invert the sector map at a target in the closed half-kite triangle.

    Returns (u, cos_value_or_None, residual); the cosine comes back filled
    only when a route computes it as a byproduct without extra cost.
    """
    n = ctx.n
    y = ctx.A - t
    if abs(y) <= _corner_chart(ctx)[3]:
        got = _corner_invert(ctx, y)
        if got is not None:
            return got

    # exactly-on-edge targets t = A + e^{i pi beta} m, m real in (0, R)
    e = (t - ctx.A) * cmath.exp(-1j * math.pi * ctx.beta)
    if e.real > 0 and abs(e.imag) <= 1e-11 * max(1.0, e.real):
        x, resid = _invert_slit_edge(ctx, e.real, tol)
        cosv = (x**n - 1.0) ** (1.0 / n) * cmath.exp(-1j * math.pi / n)
        return complex(x, 0.0), cosv, resid

    seeds: list[complex] = []
    if abs(t - ctx.P) <= 0.5 * ctx.R:
        seeds.append(_pole_seed(ctx, t))
    if abs(t) <= 0.72 * ctx.R:
        terms = max(6, min(24, 4 + 160 // n))
        seeds.append(maclaurin(ctx, terms).evaluate(t))
    nearest = sorted(_seed_table(ctx), key=lambda item: abs(item[0] - t))
    seeds.extend(u for _, u in nearest[:3])

    last_exc: Exception | None = None
    for seed in seeds:
        # Newton accepts no iterate outside the sector or, beyond the unit
        # circle, within 1e-7 of a boundary ray (a slit there).  A seed in
        # that margin can only fail.
        if not _in_sector(n, seed):
            continue
        try:
            res = newton_invert(n, t, seed, tol=tol)
            return res.z, None, res.residual
        except SquigError as exc:
            last_exc = exc
    raise ConvergenceError(
        f"could not invert the sector map at target {t}", residual=math.nan
    ) from last_exc


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

    val = _sector_value(ctx, u)
    return ctx.omega * val.conjugate() if reflected else val


def _sector_value(ctx: SquigContext, u: complex) -> complex:
    """F(u) for u in the closed lower half-sector (phase in [0, pi/n])."""
    if abs(1.0 - u) <= 0.8 * _corner_chart(ctx)[2]:
        # Im u > 0 makes arg(1 - u) negative: principal root is the sector
        # branch; the real ray beyond 1 is the lower slit edge
        if u.imag == 0.0:
            x = u.real
            return ctx.A - _corner_forward(ctx, 1.0 - x, lower_edge=x > 1.0)
        return ctx.A - _corner_forward(ctx, 1.0 - u)
    return sector_ray_integral(ctx.n, u)


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
    val = _sector_value(ctx, u)
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
