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
import sys
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .errors import ParameterError, SquigError, _shown
from .geometry import SquigContext, make_context
from .reference import (
    _is_finite_number,
    integrate_endpoint_singular,
    integrate_smooth,
    integrate_tail,
    winding_number,
)
from .regions import _is_real, in_rosette
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

_QUAD_TOL = 1e-11          # internal quadrature target, well under any class
_FAIL_SENTINEL = 1e308     # finite so reports stay strict-JSON serializable

_LOOP_LEG_POINTS = 120
_LOOP_ARC_POINTS = 64
_LOOP_OFFSET = 1e-6        # angular offset keeping contour legs off the slits

# run_all's fixed inputs; a caller who wants others passes them to the checks
_SEED = 0x5157
_SAMPLES_PER_N = 64
_WINDING_RADIUS = 50.0


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


def _report(name: str, n: int, tolerance: float | None,
            measure: Callable[[], tuple[complex, complex, float, str]]) -> VerificationReport:
    """Time ``measure()`` and make its row; a raised ``SquigError`` is a failed row.

    ``measure`` returns ``(lhs, rhs, abs_error, note)``.  A non-finite value
    among them is a failed row too, with the values in its note, so that
    strict JSON can carry the row.  A tolerance of None
    takes the family's class default; any other must be a positive finite
    real, as in ``VerifyConfig``, or the row would pass whatever was measured
    (infinity) or never pass (0 or less, NaN).
    """
    if tolerance is None:
        tol = DEFAULT_TOLERANCES[_FAMILIES[name][0]]
    elif _is_real(tolerance) and 0.0 < tolerance <= sys.float_info.max:
        tol = float(tolerance)
    else:
        raise ParameterError(
            f"{name} tolerance must be positive and finite, got {_shown(tolerance)}")
    t0 = time.perf_counter()
    try:
        lhs, rhs, err, note = measure()
        passed = err <= tol
        if not (cmath.isfinite(lhs) and cmath.isfinite(rhs) and math.isfinite(err)):
            note = f"non-finite measurement: abs_error {err!r}, lhs {lhs!r}, rhs {rhs!r}; {note}"
            lhs, rhs, err, passed = 0j, 0j, _FAIL_SENTINEL, False
    except SquigError as exc:
        lhs, rhs, err, note = 0j, 0j, _FAIL_SENTINEL, f"{type(exc).__name__}: {exc}"
        passed = False
    ms = (time.perf_counter() - t0) * 1e3
    return VerificationReport(name, n, complex(lhs), complex(rhs),
                              float(err), tol, passed, ms, note)


def _nan_largest(err: float) -> tuple:
    """A ``max`` key under which a NaN error is the largest: ``>`` skips it."""
    return err != err, err


def _check_samples(name: str, samples) -> None:
    """Refuse ``samples`` unless a sequence of one or more numbers (bools
    excluded, and ints beyond the float range, which ``complex()`` cannot
    take): with none a check would pass with abs_error -1."""
    if not isinstance(samples, Sequence) or not samples or not all(
            isinstance(z, (float, complex)) or _is_real(z) and abs(z) <= sys.float_info.max
            for z in samples):
        raise ParameterError(f"{name} needs a sequence of one or more numbers as samples, "
                             f"got {_shown(samples)}")


def _check_radii(name: str, radii) -> None:
    """Refuse ``radii`` unless a sequence of one or more positive finite reals
    (bools excluded, and ints beyond the float range, which ``float()``
    cannot take); the types are checked before anything sorts them."""
    if not isinstance(radii, Sequence) or not radii or not all(
            _is_real(r) and 0.0 < r <= sys.float_info.max for r in radii):
        raise ParameterError(
            f"{name} needs one or more positive finite radii, got {_shown(radii)}")


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
    def measure():
        lhs = _slit_edge_integral(ctx.n)
        return lhs, ctx.R, abs(lhs - ctx.R), ""
    return _report("integral_slit", ctx.n, tolerance, measure)


def check_integral_ray(ctx: SquigContext, tolerance: float | None = None) -> VerificationReport:
    """Integral of (1 + t**n)**(-(n-1)/n) over [0, inf) against the gamma closed form."""
    n = ctx.n
    beta = (n - 1.0) / n

    def measure():
        head = integrate_smooth(lambda t: (1.0 + t ** n) ** -beta, 0.0, 2.0, _QUAD_TOL)
        tail = integrate_tail(lambda t, dl, dr: (1.0 + t ** n) ** -beta, 2.0, n - 1.0,
                              tol=_QUAD_TOL)
        lhs = (head.value + tail.value).real
        rhs = gamma_corner_radius(n)
        return lhs, rhs, abs(lhs - rhs), ""
    return _report("integral_ray", n, tolerance, measure)


# ---------------------------------------------------------------------------
# behaviour at infinity


def limit_profile(ctx: SquigContext, radii: Sequence[float],
                  angles: int = 32) -> list[float]:
    """Max distance of the boundary image from the reentrant corner per radius.

    Angles are midpoints of a uniform split of one sector, so no sample ever
    lands on a slit.  ``radii`` follows ``check_limit_at_infinity``'s rule and
    ``angles`` must be a positive ``int``.
    """
    _check_radii("limit_profile", radii)
    if not isinstance(angles, int) or isinstance(angles, bool) or angles < 1:
        raise ParameterError(
            f"limit_profile needs a positive integer angles, got {_shown(angles)}")
    tau = ctx.tau
    out = []
    for r in radii:
        out.append(max((abs(arcsin_n(ctx, r * cmath.exp(1j * ((j + 0.5) * tau / angles))) - ctx.P)
                        for j in range(angles)), key=_nan_largest))
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
    rs = default_limit_radii(ctx.n) if radii is None else radii
    _check_radii("limit_at_infinity", rs)
    rs = sorted(rs)

    def measure():
        maxima = limit_profile(ctx, rs)
        err = max((m * (r / rs[-1]) for m, r in zip(maxima, rs)), key=_nan_largest)
        note = " ".join(f"R={r:g}:{m:.3e}" for r, m in zip(rs, maxima))
        return maxima[-1], 0.0, err, note
    return _report("limit_at_infinity", ctx.n, tolerance, measure)


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
    are the caller's responsibility to avoid.  ``R`` must be finite and above
    1: the keyhole loop runs out along the slit from its tip at 1 to ``R``.
    ``w`` must be a finite number (not a bool).
    """
    if not _is_real(R) or not 1.0 < R <= sys.float_info.max:
        raise ParameterError(f"winding needs a finite R above 1, got {_shown(R)}")
    if not _is_finite_number(w):
        raise ParameterError(f"winding needs a finite number as target w, got {_shown(w)}")

    def measure():
        got = winding_number(_boundary_image_loop(ctx, float(R)), complex(w))
        expected = 1 if in_rosette(ctx, complex(w)) else 0
        return got, expected, abs(got - expected), f"target={w!r}"
    return _report("winding", ctx.n, tolerance, measure)


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
    (below 2.5e-16).  Next to the edge [A, P] it is tens of ulps off: 1e-6
    inside it, 23 to 58 ulps of max(1, |value|) at n = 3, 8, 16, 32 and 64,
    and 1,774 next to P at n = 4 (against 30 digits), so no check should
    take it as an ulp-level reference there.  |P| comes from the gamma
    closed form and only places the steps.

    Branch-free: only integer powers of the running pair appear, so this route
    never consults the folding, chart, series or quadrature code it is
    checking.
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
    _check_samples("periodicity_sin3", samples)
    period = 1.5 * ctx.pi_n
    shifts = (period, period * ctx.omega)

    def measure():
        rows = []
        steps = 0
        for z in samples:
            ref, _, taken = _ode_pair(3, complex(z))
            steps += taken
            for shift in shifts:
                res = sin3_global(ctx, complex(z) + shift)
                if res.is_pole:
                    return 0j, ref, _FAIL_SENTINEL, f"unexpected pole flag at {z!r}"
                rows.append((abs(res.value - ref), res.value, ref))
        worst, wl, wr = max(rows, key=lambda row: _nan_largest(row[0]))
        return wl, wr, worst, f"samples={len(samples)} steps={steps}"
    return _report("periodicity_sin3", 3, tolerance, measure)


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
    third = 1.0 / 3.0
    rhs = gamma_pi_n(3) / 4.0

    def measure():
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
        err = max(abs(q4 - rhs), abs(q1 - rhs),
                  abs((q1 + 2.0 * q4) - 3.0 * rhs),
                  abs(abs(ctx.P) / 2.0 - rhs))
        return q4, rhs, err, f"quadrant={q1:.12f} total={q1 + 2.0 * q4:.12f}"
    return _report("trisection", 3, tolerance, measure)


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
    _check_samples("sc_factorization", samples)

    def measure():
        rows = []
        for z in samples:
            lhs = arcsin_n_sector(ctx, complex(z))
            rhs = _triangle_map(n, complex(z) ** n)
            rows.append((abs(lhs - rhs), lhs, rhs))
        worst, wl, wr = max(rows, key=lambda row: _nan_largest(row[0]))
        return wl, wr, worst, f"samples={len(samples)}"
    return _report("sc_factorization", n, tolerance, measure)


# ---------------------------------------------------------------------------
# normalization at the origin


def check_riemann_normalization(ctx: SquigContext,
                                tolerance: float | None = None) -> VerificationReport:
    """Fixed point at 0 and a unit derivative there, by central difference."""
    def measure():
        h = 1e-5
        s0 = sin_n(ctx, 0j).value
        fd = (sin_n(ctx, h + 0j).value - sin_n(ctx, -h + 0j).value) / (2.0 * h)
        return fd, 1.0, max(abs(s0), abs(fd - 1.0)), f"origin={s0!r}"
    return _report("riemann_normalization", ctx.n, tolerance, measure)


# ---------------------------------------------------------------------------
# suite driver


# family -> (tolerance class, runs at n = 3 only, call(ctx, tolerance))
_FAMILIES = {
    "integral_slit": ("quadrature", False, check_integral_slit),
    "integral_ray": ("quadrature", False, check_integral_ray),
    "limit_at_infinity": ("limit", False,
                          lambda ctx, tol: check_limit_at_infinity(ctx, tolerance=tol)),
    "winding": ("identity", False,
                lambda ctx, tol: check_winding(ctx, _WINDING_RADIUS, 0.4 * ctx.P, tol)),
    "sc_factorization": ("factorization", False,
                         lambda ctx, tol: check_sc_factorization(ctx, _sc_samples(ctx.n), tol)),
    "riemann_normalization": ("derivative", False, check_riemann_normalization),
    "periodicity_sin3": ("identity", True,
                         lambda ctx, tol: check_periodicity_sin3(ctx, _periodicity_samples(), tol)),
    "trisection": ("quadrature", True, check_trisection),
}


@dataclass(frozen=True)
class VerifyConfig:
    n_values: tuple[int, ...] = (3, 4, 5, 6, 7, 8)
    tolerances: Mapping[str, float] | None = None
    families: tuple[str, ...] | None = None

    def __post_init__(self):
        # each refusal below stops a run that would pass vacuously (no n, no
        # family, an infinite tolerance) or could never pass (a tolerance of
        # 0 or less, or NaN)
        nv = self.n_values
        if not isinstance(nv, Sequence) or not nv or not all(
                isinstance(n, int) and not isinstance(n, bool) for n in nv):
            raise ParameterError(
                f"n_values must be a sequence of one or more integers, got {_shown(nv)}")
        families = self.families
        if families is not None and (not families or not set(families) <= set(_FAMILIES)):
            raise ParameterError(f"families must name one or more of {sorted(_FAMILIES)}, "
                                 f"got {_shown(families)}")
        if families and not any(n == 3 or not _FAMILIES[f][1] for f in families for n in nv):
            raise ParameterError(f"families {_shown(families)} run at n = 3 only, and n_values "
                                 f"{_shown(nv)} has no 3")
        tolerances = {} if self.tolerances is None else self.tolerances
        if not isinstance(tolerances, Mapping):
            raise ParameterError(f"tolerances must be a mapping of names to values, "
                                 f"got {_shown(tolerances)}")
        for name, value in tolerances.items():
            if name not in _FAMILIES and name not in DEFAULT_TOLERANCES:
                raise ParameterError(f"unknown tolerance name {_shown(name)}; choose from "
                                     f"{sorted(set(_FAMILIES) | set(DEFAULT_TOLERANCES))}")
            if not _is_real(value) or not 0.0 < value <= sys.float_info.max:
                raise ParameterError(
                    f"tolerance {_shown(name)} must be positive and finite, got {_shown(value)}")


def _family_rng(family: str, n: int) -> random.Random:
    # each (family, n) pair seeds independently so filtering one family out
    # cannot change the samples any other family sees
    return random.Random(f"{_SEED}:{family}:{n}")


def _resolved_tol(config: VerifyConfig, family: str) -> float | None:
    tolerances = config.tolerances or {}
    for name in (family, _FAMILIES[family][0]):
        if name in tolerances:
            return float(tolerances[name])
    return None


def _sc_samples(n: int) -> list[complex]:
    rng = _family_rng("sc_factorization", n)
    return [(0.1 + 0.8 * rng.random()) * cmath.exp(1j * rng.random() * math.pi / n)
            for _ in range(_SAMPLES_PER_N)]


def _periodicity_samples() -> list[complex]:
    rng = _family_rng("periodicity_sin3", 3)
    return [0j] + [0.9 * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                   for _ in range(_SAMPLES_PER_N - 1)]


def run_all(config: VerifyConfig | None = None) -> list[VerificationReport]:
    """Run every applicable check for each configured n, sorted by (name, n).

    Individual failures are recorded in their rows; this never raises for a
    mathematical or numerical reason.  Reports are reproducible across runs
    except for the runtime field.
    """
    cfg = config or VerifyConfig()
    contexts = {n: make_context(n) for n in cfg.n_values}
    reports = [call(ctx, _resolved_tol(cfg, name))
               for n, ctx in contexts.items()
               for name, (_, n3_only, call) in _FAMILIES.items()
               if (cfg.families is None or name in cfg.families) and (n == 3 or not n3_only)]
    reports.sort(key=lambda r: (r.name, r.n))
    return reports
