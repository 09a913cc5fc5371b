"""Certification suite for the mapping and identity claims.

Every check recomputes one advertised property through two routes that share
as little code as possible (the library's series constants vs adaptive
quadrature vs gamma-function closed forms, folded evaluation vs
Taylor-series continuation of the ODE pair, contour images vs membership
tests) and reports the discrepancy against a tolerance class.
Failures are recorded in the report, never raised, so a full run always
yields one row per (check, n) pair.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .errors import ParameterError, SquigError
from .geometry import SquigContext, in_rosette, make_context
from .reference import (
    integrate_endpoint_singular,
    integrate_smooth,
    integrate_tail,
    winding_number,
)
from .squigfn import arcsin_n, arcsin_n_sector, sin3_global, sin_n

__all__ = [
    "DEFAULT_TOLERANCES",
    "VerificationReport",
    "VerifyConfig",
    "check_integral_slit",
    "check_integral_ray",
    "check_limit_at_infinity",
    "check_winding",
    "check_periodicity_sin3",
    "check_trisection",
    "check_sc_factorization",
    "check_riemann_normalization",
    "gamma_pi_n",
    "limit_profile",
    "run_all",
]

# Tolerance classes.  Quadrature-vs-closed-form comparisons stack several
# adaptive integrations, algebraic identities only stack evaluation error,
# finite differences are limited by the step size, and the limit check works
# at finite radii so it gets its own coarse class.
DEFAULT_TOLERANCES: Mapping[str, float] = {
    "quadrature": 1e-8,
    "identity": 1e-10,
    "derivative": 1e-6,
    "factorization": 1e-9,
    "limit": 1e-3,
}

_FAMILY_CLASS = {
    "integral_slit": "quadrature",
    "integral_ray": "quadrature",
    "limit_at_infinity": "limit",
    "periodicity_sin3": "identity",
    "riemann_normalization": "derivative",
    "sc_factorization": "factorization",
    "trisection": "quadrature",
    "winding": "identity",
}

_QUAD_TOL = 1e-11          # internal quadrature target, well under any class
_FAIL_SENTINEL = 1e308     # finite so reports stay strict-JSON serializable

_LOOP_LEG_POINTS = 120
_LOOP_ARC_POINTS = 64
_LOOP_OFFSET = 1e-6        # angular offset keeping contour legs off the slits


@dataclass(frozen=True)
class VerificationReport:
    """One check outcome; ``passed`` is equivalent to abs_error <= tolerance."""

    name: str
    n: int
    lhs: complex
    rhs: complex
    abs_error: float
    tolerance: float
    passed: bool
    runtime_ms: float
    note: str = ""


def _finish(name: str, n: int, tol: float, t0: float,
            lhs: complex, rhs: complex, err: float, note: str = "") -> VerificationReport:
    ms = (time.perf_counter() - t0) * 1e3
    return VerificationReport(name, n, complex(lhs), complex(rhs),
                              float(err), tol, err <= tol, ms, note)


def _failed(name: str, n: int, tol: float, t0: float, exc: Exception) -> VerificationReport:
    ms = (time.perf_counter() - t0) * 1e3
    return VerificationReport(name, n, 0j, 0j, _FAIL_SENTINEL, tol, False, ms,
                              f"{type(exc).__name__}: {exc}")


def _tol(family: str, tolerance: float | None) -> float:
    return DEFAULT_TOLERANCES[_FAMILY_CLASS[family]] if tolerance is None else float(tolerance)


# ---------------------------------------------------------------------------
# closed forms and integral identities


def gamma_pi_n(n: int) -> float:
    """Gamma-function closed form of pi_n, the checks' independent oracle."""
    return 2.0 * math.gamma(1.0 / n) ** 2 / (n * math.gamma(2.0 / n))


def gamma_corner_radius(n: int) -> float:
    """|P| = |F(infinity)|, the length of each slit-edge image, in closed form."""
    return gamma_pi_n(n) / (4.0 * math.cos(math.pi / n))


def _slit_edge_integral(n: int) -> float:
    """Integrate (t**n - 1)**(-(n-1)/n) over [1, inf) by split quadrature."""
    beta = (n - 1.0) / n

    def head(s: float) -> float:
        # t = 1 + s**n on [1, 2]: t**n - 1 == s**n * poly(t), so the integrand
        # n * poly(t)**-beta is bounded
        t = 1.0 + s ** n
        poly = sum(t ** j for j in range(n))
        return n * poly ** -beta

    h = integrate_smooth(head, 0.0, 1.0, _QUAD_TOL)
    tail = integrate_tail(lambda t, dl, dr: (t ** n - 1.0) ** -beta, 2.0, n - 1.0,
                          tol=_QUAD_TOL)
    return (h.value + tail.value).real


def check_integral_slit(ctx: SquigContext, tolerance: float | None = None) -> VerificationReport:
    """Edge integral along a slit against the context's |P|, from the series."""
    tol = _tol("integral_slit", tolerance)
    t0 = time.perf_counter()
    try:
        lhs = _slit_edge_integral(ctx.n)
        rhs = ctx.R
    except SquigError as exc:
        return _failed("integral_slit", ctx.n, tol, t0, exc)
    return _finish("integral_slit", ctx.n, tol, t0, lhs, rhs, abs(lhs - rhs))


def check_integral_ray(ctx: SquigContext, tolerance: float | None = None) -> VerificationReport:
    """Integral of (1 + t**n)**(-(n-1)/n) over [0, inf) against the gamma closed form."""
    n = ctx.n
    tol = _tol("integral_ray", tolerance)
    t0 = time.perf_counter()
    beta = (n - 1.0) / n
    try:
        head = integrate_smooth(lambda t: (1.0 + t ** n) ** -beta, 0.0, 2.0, _QUAD_TOL)
        tail = integrate_tail(lambda t, dl, dr: (1.0 + t ** n) ** -beta, 2.0, n - 1.0,
                              tol=_QUAD_TOL)
        lhs = (head.value + tail.value).real
        rhs = gamma_corner_radius(n)
    except SquigError as exc:
        return _failed("integral_ray", ctx.n, tol, t0, exc)
    return _finish("integral_ray", ctx.n, tol, t0, lhs, rhs, abs(lhs - rhs))


# ---------------------------------------------------------------------------
# behaviour at infinity


def limit_profile(ctx: SquigContext, radii: Sequence[float],
                  angles: int = 32) -> list[float]:
    """Max distance of the boundary image from the reentrant corner per radius.

    Angles are midpoints of a uniform split of one sector, so no sample ever
    lands on a slit.
    """
    tau = ctx.tau
    out = []
    for r in radii:
        worst = 0.0
        for j in range(angles):
            th = (j + 0.5) * tau / angles
            worst = max(worst, abs(arcsin_n(ctx, r * cmath.exp(1j * th)) - ctx.P))
        out.append(worst)
    return out


def default_limit_radii(n: int) -> tuple[float, float]:
    # n = 3 decays like 1/R, so the same absolute target needs one more decade
    return (1e3, 1e4) if n == 3 else (1e2, 1e3)


def check_limit_at_infinity(ctx: SquigContext, radii: Sequence[float] | None = None,
                            tolerance: float | None = None) -> VerificationReport:
    """Decay of the map toward the corner value along expanding circles.

    Each radius's measured maximum is discounted at ten-fold-per-decade down
    to the final radius; the reported error is the worst discounted value, so
    the check fails either when the final error is large or when the decay is
    slower than a decade per decade.
    """
    tol = _tol("limit_at_infinity", tolerance)
    t0 = time.perf_counter()
    rs = sorted(radii) if radii is not None else default_limit_radii(ctx.n)
    try:
        maxima = limit_profile(ctx, rs)
    except SquigError as exc:
        return _failed("limit_at_infinity", ctx.n, tol, t0, exc)
    err = max(m * (r / rs[-1]) for m, r in zip(maxima, rs))
    note = " ".join(f"R={r:g}:{m:.3e}" for r, m in zip(rs, maxima))
    return _finish("limit_at_infinity", ctx.n, tol, t0, maxima[-1], 0.0, err, note)


# ---------------------------------------------------------------------------
# winding


def _boundary_image_loop(ctx: SquigContext, R: float) -> list[complex]:
    """Image of the circle |z| = R with keyhole detours along both slit edges.

    One upper-edge leg and one arc in the base sector are evaluated point by
    point with ``arcsin_n``, whose values on the slit plane are the
    continuation along them; rotations and a conjugated copy assemble the
    full loop.
    """
    n = ctx.n
    tau = ctx.tau
    om = ctx.omega
    m = _LOOP_LEG_POINTS
    xs = [1.0 + (R - 1.0) * 10.0 ** (-9.0 * (1.0 - j / (m - 1))) for j in range(m)]
    leg = [arcsin_n(ctx, x * cmath.exp(1j * _LOOP_OFFSET)) for x in xs]

    a = _LOOP_ARC_POINTS
    arc = [arcsin_n(ctx, R * cmath.exp(1j * (_LOOP_OFFSET + (tau - 2.0 * _LOOP_OFFSET) * i / a)))
           for i in range(1, a + 1)]

    piece = leg + arc + [om * v.conjugate() for v in reversed(leg)]
    loop: list[complex] = []
    rot = 1.0 + 0j
    for _ in range(n):
        loop.extend(rot * v for v in piece)
        rot *= om
    dedup = [loop[0]]
    for v in loop[1:]:
        if abs(v - dedup[-1]) > 1e-12:
            dedup.append(v)
    dedup.append(dedup[0])
    return dedup


def check_winding(ctx: SquigContext, R: float, w: complex,
                  tolerance: float | None = None) -> VerificationReport:
    """Winding of the boundary image loop about w versus region membership.

    Targets close to the region boundary are ill-posed for both routes and
    are the caller's responsibility to avoid.
    """
    tol = _tol("winding", tolerance)
    t0 = time.perf_counter()
    try:
        loop = _boundary_image_loop(ctx, float(R))
        got = winding_number(loop, complex(w))
    except SquigError as exc:
        return _failed("winding", ctx.n, tol, t0, exc)
    expected = 1 if in_rosette(ctx, complex(w)) else 0
    return _finish("winding", ctx.n, tol, t0, complex(got), complex(expected),
                   float(abs(got - expected)), f"target={w!r}")


# ---------------------------------------------------------------------------
# periodicity of the n = 3 extension


_TAYLOR_TERMS = 28    # K: terms of the local series taken per step
_TAYLOR_REACH = 0.25  # |h| as a fraction of the distance to the nearest corner


def _taylor_step(p: int, s: complex, c: complex, h: complex) -> tuple[complex, complex]:
    """Advance (s, c) by h along s' = c**p, c' = -s**p with one truncated Taylor series.

    The coefficients are taken in tau = (t - t0) / h, so the new pair is their
    plain sum at tau = 1.  Both p-th powers are built as chains of Cauchy
    products extended one coefficient at a time, so a step costs O(p K**2)
    and never divides by a leading coefficient (which vanishes at the origin
    and at the zeros of c).
    """
    a, b = [s], [c]
    # spow[j] and cpow[j] hold the coefficients of s**(j+1) and c**(j+1)
    spow = [a] + [[] for _ in range(p - 1)]
    cpow = [b] + [[] for _ in range(p - 1)]
    for k in range(_TAYLOR_TERMS - 1):
        ra, rb = a[::-1], b[::-1]
        for j in range(1, p):
            spow[j].append(sum(map(operator.mul, spow[j - 1], ra)))
            cpow[j].append(sum(map(operator.mul, cpow[j - 1], rb)))
        scale = h / (k + 1)
        a.append(scale * cpow[-1][k])
        b.append(-scale * spow[-1][k])
    return sum(reversed(a)), sum(reversed(b))


def _ode_pair(n: int, z: complex) -> tuple[complex, complex, int]:
    """Taylor-series continuation of s' = c**(n-1), c' = -s**(n-1) from (0, 1) to z.

    Returns ``(sin_n(z), cos_n(z), steps)``.  The path is the segment 0 -> z.
    For z in the rosette it stays inside (each kite is star-shaped from 0),
    and the only singularities near it are the corners omega**k * P.

    Step rule: each step takes ``_TAYLOR_TERMS`` (K = 28) terms of the local
    series and has |h| <= 1/4 of the distance rho from its centre to the
    nearest corner.  By Cauchy's estimate on a disc of radius r < rho, the
    dropped terms are below M(r) * (rho / 4r)**K, where M(r) bounds the pair
    on that disc: roughly 4**-28 ~ 1.4e-17 of its size.  Against mpmath at
    n = 3 and |z| <= 0.9, K = 24 leaves 1e-14 and K = 28 leaves rounding
    (below 2.5e-16).  |P| comes from the gamma closed form and only places
    the steps.

    Branch-free: only integer powers of the running pair appear, so this route
    never consults the folding, chart, series, Newton or quadrature code it
    is checking.
    """
    radius = gamma_corner_radius(n)
    corners = [cmath.rect(radius, math.pi * (2 * k + 1) / n) for k in range(n)]
    length = abs(z)
    s, c = 0j, 1.0 + 0j
    done = 0.0
    steps = 0
    while done < length:
        centre = z * (done / length)
        reach = _TAYLOR_REACH * min(abs(q - centre) for q in corners)
        if reach >= length - done:
            h, done = z - centre, length
        else:
            h, done = z * (reach / length), done + reach
        s, c = _taylor_step(n - 1, s, c, h)
        steps += 1
    return s, c, steps


def check_periodicity_sin3(ctx: SquigContext, samples: Sequence[complex],
                           tolerance: float | None = None) -> VerificationReport:
    """Both lattice period shifts against direct continuation to the base point.

    The folded evaluation reduces z + period and z to the same cell, so using
    the library on both sides would compare a value with itself; the reference
    side is an independent Taylor-series continuation of the ODE pair
    instead.  The note reports the samples and the route's total Taylor steps.
    """
    if ctx.n != 3:
        raise ParameterError(f"periodicity_sin3 needs an n == 3 context, got n = {ctx.n}")
    if not samples:
        raise ParameterError("periodicity_sin3 needs at least one sample")
    tol = _tol("periodicity_sin3", tolerance)
    t0 = time.perf_counter()
    period = 1.5 * ctx.pi_n
    shifts = (period, period * ctx.omega)
    worst = -1.0
    wl, wr = 0j, 0j
    steps = 0
    try:
        for z in samples:
            ref, _, taken = _ode_pair(3, complex(z))
            steps += taken
            for shift in shifts:
                res = sin3_global(ctx, complex(z) + shift)
                if res.is_pole:
                    return _finish("periodicity_sin3", 3, tol, t0, 0j, ref,
                                   _FAIL_SENTINEL, f"unexpected pole flag at {z!r}")
                d = abs(res.value - ref)
                if d > worst:
                    worst, wl, wr = d, res.value, ref
    except SquigError as exc:
        return _failed("periodicity_sin3", 3, tol, t0, exc)
    return _finish("periodicity_sin3", 3, tol, t0, wl, wr, worst,
                   f"samples={len(samples)} steps={steps}")


# ---------------------------------------------------------------------------
# area trisection for n = 3


def check_trisection(ctx: SquigContext, tolerance: float | None = None) -> VerificationReport:
    """Areas between the cubic curve and its diagonal asymptote.

    The quadrant piece under the curve, the unbounded piece between curve and
    asymptote, and the 3x relation between them are all computed by direct
    quadrature and compared against pi_n / 4 from the gamma closed form.  The
    corner-distance relation |P|/2 on the n = 3 context ``ctx`` is folded in
    as well, which ties the library's series constants to the gamma route.
    """
    if ctx.n != 3:
        raise ParameterError(f"trisection needs an n == 3 context, got n = {ctx.n}")
    tol = _tol("trisection", tolerance)
    t0 = time.perf_counter()
    third = 1.0 / 3.0
    rhs = gamma_pi_n(3) / 4.0
    try:
        q1 = integrate_endpoint_singular(
            lambda x, dl, dr: (dr * (1.0 + x + x * x)) ** third,
            0.0, 1.0, right_exp=-third, tol=_QUAD_TOL).value.real
        # area between curve and asymptote below the axis: a triangle piece,
        # a bounded cube-root piece, and a tail with the cancellation removed
        cube = integrate_endpoint_singular(
            lambda x, dl, dr: (dl * (1.0 + x + x * x)) ** third,
            1.0, 2.0, left_exp=-third, tol=_QUAD_TOL).value.real
        tail = integrate_tail(
            lambda x, dl, dr: -x * math.expm1(math.log1p(-x ** -3) / 3.0),
            2.0, 2.0, tol=_QUAD_TOL).value.real
        q4 = 0.5 + (1.5 - cube) + tail
    except SquigError as exc:
        return _failed("trisection", 3, tol, t0, exc)
    err = max(abs(q4 - rhs), abs(q1 - rhs),
              abs((q1 + 2.0 * q4) - 3.0 * rhs),
              abs(abs(ctx.P) / 2.0 - rhs))
    return _finish("trisection", 3, tol, t0, q4, rhs, err,
                   f"quadrant={q1:.12f} total={q1 + 2.0 * q4:.12f}")


# ---------------------------------------------------------------------------
# factorization through the power substitution


def _triangle_map(n: int, w: complex) -> complex:
    """(1/n) * integral of u**(1/n-1) (1-u)**(1/n-1) along [0, w], |w| < 1."""
    a = 1.0 / n - 1.0
    # u = s**n * w absorbs the u**(1/n-1) endpoint singularity
    return (w ** (1.0 / n)) * integrate_smooth(
        lambda s: (1.0 - s ** n * w) ** a, 0.0, 1.0, _QUAD_TOL).value


def check_sc_factorization(ctx: SquigContext, samples: Sequence[complex],
                           tolerance: float | None = None) -> VerificationReport:
    """Sector map versus the triangle map of the n-th power on half-sector samples."""
    n = ctx.n
    if not samples:
        raise ParameterError("sc_factorization needs at least one sample")
    tol = _tol("sc_factorization", tolerance)
    t0 = time.perf_counter()
    worst = -1.0
    wl, wr = 0j, 0j
    try:
        for z in samples:
            lhs = arcsin_n_sector(ctx, complex(z))
            rhs = _triangle_map(n, complex(z) ** n)
            d = abs(lhs - rhs)
            if d > worst:
                worst, wl, wr = d, lhs, rhs
    except SquigError as exc:
        return _failed("sc_factorization", n, tol, t0, exc)
    return _finish("sc_factorization", n, tol, t0, wl, wr, worst,
                   f"samples={len(samples)}")


# ---------------------------------------------------------------------------
# normalization at the origin


def check_riemann_normalization(ctx: SquigContext,
                                tolerance: float | None = None) -> VerificationReport:
    """Fixed point at 0 and a unit derivative there, by central difference."""
    tol = _tol("riemann_normalization", tolerance)
    t0 = time.perf_counter()
    h = 1e-5
    try:
        s0 = sin_n(ctx, 0j).value
        fd = (sin_n(ctx, h + 0j).value - sin_n(ctx, -h + 0j).value) / (2.0 * h)
    except SquigError as exc:
        return _failed("riemann_normalization", ctx.n, tol, t0, exc)
    err = max(abs(s0), abs(fd - 1.0))
    return _finish("riemann_normalization", ctx.n, tol, t0, fd, 1.0, err,
                   f"origin={s0!r}")


# ---------------------------------------------------------------------------
# suite driver


@dataclass(frozen=True)
class VerifyConfig:
    n_values: tuple[int, ...] = (3, 4, 5, 6, 7, 8)
    seed: int = 0x5157
    samples_per_n: int = 64
    tolerances: Mapping[str, float] | None = None
    families: tuple[str, ...] | None = None
    winding_radius: float = 50.0

    def __post_init__(self):
        # a sampled check with no samples would pass with no comparison made
        spn = self.samples_per_n
        if isinstance(spn, bool) or not isinstance(spn, int) or spn < 1:
            raise ParameterError(f"samples_per_n must be a positive integer, got {spn!r}")


def _family_rng(config: VerifyConfig, family: str, n: int) -> random.Random:
    # each (family, n) pair seeds independently so filtering one family out
    # cannot change the samples any other family sees
    return random.Random(f"{config.seed}:{family}:{n}")


def _resolved_tol(config: VerifyConfig, family: str) -> float | None:
    if config.tolerances is None:
        return None
    cls = _FAMILY_CLASS[family]
    if family in config.tolerances:
        return float(config.tolerances[family])
    if cls in config.tolerances:
        return float(config.tolerances[cls])
    return None


def _sc_samples(config: VerifyConfig, n: int) -> list[complex]:
    rng = _family_rng(config, "sc_factorization", n)
    out = []
    for _ in range(config.samples_per_n):
        r = 0.1 + 0.8 * rng.random()
        out.append(r * cmath.exp(1j * rng.random() * math.pi / n))
    return out


def _periodicity_samples(config: VerifyConfig) -> list[complex]:
    rng = _family_rng(config, "periodicity_sin3", 3)
    out: list[complex] = [0j]
    for _ in range(config.samples_per_n - 1):
        r = 0.9 * math.sqrt(rng.random())
        out.append(r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    return out


def run_all(config: VerifyConfig | None = None) -> list[VerificationReport]:
    """Run every applicable check for each configured n, sorted by (name, n).

    Individual failures are recorded in their rows; this never raises for a
    mathematical or numerical reason.  Reports are reproducible across runs
    except for the runtime field.
    """
    cfg = config or VerifyConfig()
    selected = set(cfg.families) if cfg.families is not None else set(_FAMILY_CLASS)
    contexts = {n: make_context(n) for n in cfg.n_values}
    reports: list[VerificationReport] = []

    for n, ctx in contexts.items():
        if "integral_slit" in selected:
            reports.append(check_integral_slit(ctx, _resolved_tol(cfg, "integral_slit")))
        if "integral_ray" in selected:
            reports.append(check_integral_ray(ctx, _resolved_tol(cfg, "integral_ray")))
        if "limit_at_infinity" in selected:
            reports.append(check_limit_at_infinity(
                ctx, tolerance=_resolved_tol(cfg, "limit_at_infinity")))
        if "winding" in selected:
            reports.append(check_winding(ctx, cfg.winding_radius, 0.4 * ctx.P,
                                         _resolved_tol(cfg, "winding")))
        if "sc_factorization" in selected:
            reports.append(check_sc_factorization(
                ctx, _sc_samples(cfg, n), _resolved_tol(cfg, "sc_factorization")))
        if "riemann_normalization" in selected:
            reports.append(check_riemann_normalization(
                ctx, _resolved_tol(cfg, "riemann_normalization")))
        if n == 3 and "periodicity_sin3" in selected:
            reports.append(check_periodicity_sin3(
                ctx, _periodicity_samples(cfg), _resolved_tol(cfg, "periodicity_sin3")))
        if n == 3 and "trisection" in selected:
            reports.append(check_trisection(ctx, _resolved_tol(cfg, "trisection")))

    reports.sort(key=lambda r: (r.name, r.n))
    return reports
