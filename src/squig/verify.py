"""Certification suite for the mapping and identity claims.

Every check recomputes one advertised property through two routes that share
as little code as possible (the library's series constants vs adaptive
quadrature vs gamma-function closed forms, folded evaluation at n = 3 vs
Dixon's elliptic function through theta series, contour images vs
membership tests) and reports the discrepancy against a tolerance class.
Failures are recorded in the report, never raised, so a full run always
yields one row per (check, n) pair.

The suite runs its references on inputs it builds itself, so it skips
their argument checks: the triangle map calls the quadrature rule
``reference._tanh_sinh`` bare, and the winding check hands its loop
straight to ``reference._winding_count``.  ``VerificationReport`` and
``VerifyConfig`` are frozen, slotted classes on ``numerics._FrozenRecord``,
not dataclasses, so a fresh ``squig verify`` loads neither ``dataclasses``
nor ``inspect``.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from typing import Callable, Mapping, Sequence

from .errors import (ParameterError, SquigError, _is_count, _is_finite_number, _is_int,
                     _is_real, _shown)
from .geometry import _MAX_N, _MIN_N, SquigContext, _check_n, make_context
from .numerics import _FrozenRecord
from .reference import (
    _MAX_QUAD_LEVEL,
    _set_fields,
    _tanh_sinh,
    _winding_count,
    integrate_endpoint_singular,
    integrate_smooth,
    integrate_tail,
)
from .regions import in_rosette
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
    "quadrature": 1e-13,
    "identity": 1e-10,
    "derivative": 1e-6,
    "factorization": 1e-9,
    "limit": 1e-3,
}

# The quadrature rule's targets.  The integral identities ask for an error
# under their rounding, and come out within 5.4e-16 relative at n = 3..64;
# the triangle map needs only to stay well under the factorization class.
_QUAD_TOL = 1e-17
_TRIANGLE_TOL = 1e-11
_FAIL_SENTINEL = 1e308     # finite so reports stay strict-JSON serializable

_LOOP_LEG_POINTS = 120
_LOOP_ARC_POINTS = 64
_MAX_PROFILE_CALLS = 10**5  # limit_profile's ceiling on radii times angles: 0.4 s
# the checks' ceiling on samples and radii: at most 0.22 ms a sample (sc_factorization
# next to a slit) and 0.23 ms a radius (limit_at_infinity's 32 angles), so 0.2 s
_MAX_SAMPLES = _MAX_RADII = 10**3
_MAX_N_VALUES = _MAX_N - _MIN_N + 1  # VerifyConfig's ceiling: the size of the range

# run_all's fixed inputs; a caller who wants others passes them to the checks
_SEED = 0x5157
_SAMPLES_PER_N = 64
_WINDING_RADIUS = 50.0


class VerificationReport(_FrozenRecord):
    """One check outcome; ``passed`` is equivalent to abs_error <= tolerance."""

    __slots__ = ("name", "n", "lhs", "rhs", "abs_error", "tolerance", "passed",
                 "runtime_ms", "note")
    name: str
    n: int
    lhs: complex
    rhs: complex
    abs_error: float
    tolerance: float
    passed: bool
    runtime_ms: float
    note: str

    def __init__(self, name, n, lhs, rhs, abs_error, tolerance, passed, runtime_ms, note=""):
        _set_fields(self, name, n, lhs, rhs, abs_error, tolerance, passed, runtime_ms, note)


def _report(name: str, n: int, tolerance: float | None,
            measure: Callable[[], tuple[complex, complex, float, str]]) -> VerificationReport:
    """Time ``measure()`` and make its row; a raised ``SquigError`` is a failed
    row, and so is an ``ArithmeticError`` (an independent route that could not
    produce a value at a sample, such as a quadrature whose integrand divides
    by zero on a slit or overflows).

    ``measure`` returns ``(lhs, rhs, abs_error, note)``.  A non-finite value
    among them is a failed row too, with the values in its note, so that
    strict JSON can carry the row.  A tolerance of None
    takes the family's class default; any other must be a positive finite
    real, as in ``VerifyConfig``, or the row would pass whatever was measured
    (infinity) or never pass (0 or less, NaN).
    """
    if tolerance is None:
        tol = DEFAULT_TOLERANCES[_FAMILIES[name][0]]
    elif _is_real(tolerance) and tolerance > 0.0:
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
    except (SquigError, ArithmeticError) as exc:
        lhs, rhs, err, note = 0j, 0j, _FAIL_SENTINEL, f"{type(exc).__name__}: {exc}"
        passed = False
    ms = (time.perf_counter() - t0) * 1e3
    return VerificationReport(name, n, complex(lhs), complex(rhs),
                              float(err), tol, passed, ms, note)


def _nan_largest(err: float) -> tuple:
    """A ``max`` key under which a NaN error is the largest: ``>`` skips it."""
    return err != err, err


def _check_sequence(name: str, what: str, seq, most: int, entry_ok) -> None:
    """Refuse ``seq`` unless a sequence of 1 to ``most`` entries that each
    pass ``entry_ok``.  The length comes first, by ``len`` alone, so a longer
    sequence is neither walked nor shown."""
    try:
        size = len(seq) if isinstance(seq, Sequence) else 0
    except OverflowError:  # a range beyond sys.maxsize
        size = most + 1
    if 1 <= size <= most and all(map(entry_ok, seq)):
        return
    shown = _shown(seq) if size <= most else f"a {type(seq).__name__} of more than {most}"
    raise ParameterError(f"{name} needs {what}, a sequence whose length lies in [1, {most}], "
                         f"{name}'s ceiling, got {shown}")


def _check_samples(name: str, samples) -> None:
    """Floats, complexes or ``_is_real`` ints; with none, a check would pass."""
    _check_sequence(name, "numbers as samples", samples, _MAX_SAMPLES,
                    lambda z: isinstance(z, (float, complex)) or _is_real(z))


def _check_radii(name: str, radii) -> None:
    """Positive ``_is_real`` numbers, checked before anything sorts them."""
    _check_sequence(name, "positive finite radii", radii, _MAX_RADII,
                    lambda r: _is_real(r) and r > 0.0)


# ---------------------------------------------------------------------------
# closed forms and integral identities


def gamma_pi_n(n: int) -> float:
    """Gamma-function closed form of pi_n, the checks' independent oracle;
    ``n`` is refused as ``SquigContext(n)`` refuses it."""
    _check_n(n)
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


def _ray_integral(n: int) -> float:
    """Integrate (1 + t**n)**(-(n-1)/n) over [0, inf) by split quadrature."""
    beta = (n - 1.0) / n
    head = integrate_smooth(lambda t: (1.0 + t ** n) ** -beta, 0.0, 2.0, _QUAD_TOL)
    tail = integrate_tail(lambda t, dl, dr: (1.0 + t ** n) ** -beta, 2.0, n - 1.0,
                          tol=_QUAD_TOL)
    return (head.value + tail.value).real


def check_integral_ray(ctx: SquigContext, tolerance: float | None = None) -> VerificationReport:
    """Integral of (1 + t**n)**(-(n-1)/n) over [0, inf) against the gamma closed form."""
    def measure():
        lhs = _ray_integral(ctx.n)
        rhs = gamma_corner_radius(ctx.n)
        return lhs, rhs, abs(lhs - rhs), ""
    return _report("integral_ray", ctx.n, tolerance, measure)


# ---------------------------------------------------------------------------
# behaviour at infinity


def limit_profile(ctx: SquigContext, radii: Sequence[float],
                  angles: int = 32) -> list[float]:
    """Max distance of the boundary image from the reentrant corner per radius.

    Angles are midpoints of a uniform split of one sector, so no sample ever
    lands on a slit.  ``radii`` follows ``check_limit_at_infinity``'s rule and
    ``angles`` must be an int (not a bool) from 1 to the ceiling of 10**5
    over the number of radii: 10**5 ``arcsin_n`` calls in all.
    """
    _check_radii("limit_profile", radii)
    most = _MAX_PROFILE_CALLS // len(radii)
    if not _is_count(angles, 1, most):
        raise ParameterError(f"limit_profile needs an integer angles in [1, {most}], its "
                             f"ceiling at {len(radii)} radii, got {_shown(angles)}")
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

    One leg on the slit [1, R] and one arc over the closed base sector are
    evaluated point by point with ``arcsin_n_sector``, which continues F from
    inside onto both rays; rotations and a conjugated copy assemble the full
    loop.  The leg starts at the tip, whose image is A exactly: the edge's
    image is the segment [A, P], so the chord to the next sample stays on it.
    A sample repeats where two pieces meet: a zero step to ``winding_number``.
    """
    om = ctx.omega
    m = _LOOP_LEG_POINTS
    xs = [1.0] + [1.0 + (R - 1.0) * 10.0 ** (-9.0 * (1.0 - j / (m - 1))) for j in range(m)]
    leg = [arcsin_n_sector(ctx, complex(x)) for x in xs]

    a = _LOOP_ARC_POINTS
    arc = [arcsin_n_sector(ctx, R * cmath.exp(1j * ctx.tau * i / a)) for i in range(1, a + 1)]

    piece = leg + arc + [om * v.conjugate() for v in reversed(leg)]
    loop = [rot * v for rot in ctx.roots for v in piece]
    loop.append(loop[0])
    return loop


def check_winding(ctx: SquigContext, R: float, w: complex,
                  tolerance: float | None = None) -> VerificationReport:
    """Winding of the boundary image loop about w versus region membership.

    Targets close to the region boundary are ill-posed for both routes and
    are the caller's responsibility to avoid.  ``R`` must be finite and above
    1: the keyhole loop runs out along the slit from its tip at 1 to ``R``.
    ``w`` must be a finite number (not a bool).
    """
    if not (_is_real(R) and R > 1.0):
        raise ParameterError(f"winding needs a finite R above 1, got {_shown(R)}")
    if not _is_finite_number(w):
        raise ParameterError(f"winding needs a finite number as target w, got {_shown(w)}")

    def measure():
        # the loop is a list of finite complexes: nothing for winding_number
        # to check
        got = _winding_count(_boundary_image_loop(ctx, float(R)), complex(w))
        expected = 1 if in_rosette(ctx, complex(w)) else 0
        return got, expected, abs(got - expected), f"target={w!r}"
    return _report("winding", ctx.n, tolerance, measure)


# ---------------------------------------------------------------------------
# periodicity of the n = 3 extension


# At n = 3, sin_3 and cos_3 are Dixon's sm and cm, elliptic functions of the
# lattice of periods 2w = 1.5 pi_3 and 2w tau, tau = e^(i pi/3) (Dixon 1890;
# Conrad & Flajolet 2006).  The theta series take q**(j*j/4), q = e^(i pi tau):
# theta_1, theta_2 the odd j and theta_3, theta_4 the even.  With |Im v| <=
# pi Im(tau)/2, term j is at most |q|**(j*j/4) e**(j |Im v|) = e**(-(pi
# sqrt(3)/8) j (j - 2)), so j <= 8 drops below 2.6e-19 (j <= 7, 6.7e-15).
_PERIOD = 1.5 * gamma_pi_n(3)
_TAU = cmath.exp(1j * math.pi / 3)
_NOME_POWERS = tuple(cmath.exp(0.25j * math.pi * _TAU * j * j) for j in range(1, 9))


def _thetas(v: complex) -> tuple[complex, complex, complex, complex]:
    """Jacobi's theta_1 .. theta_4 at v for the nome e^(i pi tau) (DLMF 20.2.1-4)."""
    t1 = t2 = t3 = t4 = 0j
    for j, qj in enumerate(_NOME_POWERS, 1):
        sign = -1 if j & 2 else 1  # (-1)**(j // 2)
        cos = qj * cmath.cos(j * v)
        if j % 2:
            t1, t2 = t1 + sign * qj * cmath.sin(j * v), t2 + cos
        else:
            t3, t4 = t3 + cos, t4 + sign * cos
    return 2.0 * t1, 2.0 * t2, 1.0 + 2.0 * t3, 1.0 + 2.0 * t4


_T2, _T3, _T4 = _thetas(0j)[1:]
_C, _E1 = math.pi / _PERIOD, 108.0 ** (-1.0 / 3.0)


def _dixon(z: complex) -> tuple[complex, complex]:
    """``(sm(z), cm(z))``, that is ``(sin_3(z), cos_3(z))``, in closed form.

    ``sm = 6P/(1 - 3P')`` and ``cm = (3P' + 1)/(3P' - 1)`` for ``P = wp(z;
    0, 1/27)``, from theta series at ``v = c z``, ``c = pi/2w`` (DLMF
    23.6.2), both over ``theta_1(v)**3``, so z = 0 and the lattice points
    give (0, 1).  z first moves by a lattice point to |Re| <= w, |Im| <= w
    Im(tau); no table, fold or lattice of the library is read.  Against 30
    digits this is within 7.1e-16 of max(1, |value|) for |z| <= 0.9; far
    out the reduction carries the period's rounding, about an ulp of |z|
    times the slope.
    """
    r = z - round(z.imag / (_PERIOD * _TAU.imag)) * _PERIOD * _TAU
    r -= round(r.real / _PERIOD) * _PERIOD
    t1, t2, t3, t4 = _thetas(_C * r)
    cube = t1 ** 3
    # theta_1**3 P = e1 theta_1**3 + (c theta_3 theta_4(0) theta_2)**2 theta_1, and
    # -3 theta_1**3 P' = 6 c**3 (theta_2 theta_3 theta_4)(0)**2 theta_2 theta_3 theta_4
    wp = _E1 * cube + (_C * _T3 * _T4 * t2) ** 2 * t1
    slope = 6.0 * _C ** 3 * (_T2 * _T3 * _T4) ** 2 * t2 * t3 * t4
    return 6.0 * wp / (cube + slope), (slope - cube) / (slope + cube)


def check_periodicity_sin3(ctx: SquigContext, samples: Sequence[complex],
                           tolerance: float | None = None) -> VerificationReport:
    """Both lattice period shifts against Dixon's closed form at the base point.

    The folded evaluation reduces z + period and z to the same cell, so using
    the library on both sides would compare a value with itself; the reference
    side is ``_dixon``'s theta series instead.
    """
    if ctx.n != 3:
        raise ParameterError(f"periodicity_sin3 needs an n == 3 context, got n = {ctx.n}")
    _check_samples("periodicity_sin3", samples)
    shifts = (1.5 * ctx.pi_n, 1.5 * ctx.pi_n * ctx.omega)

    def measure():
        rows = []
        for z in samples:
            # the library first: it refuses a point beyond the lattice's reach
            got = [sin3_global(ctx, complex(z) + shift) for shift in shifts]
            ref = _dixon(complex(z))[0]
            for res in got:
                if res.is_pole:
                    return 0j, ref, _FAIL_SENTINEL, f"unexpected pole flag at {z!r}"
                rows.append((abs(res.value - ref), res.value, ref))
        worst, wl, wr = max(rows, key=lambda row: _nan_largest(row[0]))
        return wl, wr, worst, f"samples={len(samples)}"
    return _report("periodicity_sin3", 3, tolerance, measure)


# ---------------------------------------------------------------------------
# area trisection for n = 3


def _trisection_areas() -> tuple[float, float]:
    """The areas between the cubic curve x**3 + y**3 = 1 and the axes in the
    first quadrant, and between it and its asymptote in the fourth; each is
    pi_3 / 4."""
    third = 1.0 / 3.0
    quadrant = integrate_endpoint_singular(
        lambda x, dl, dr: (dr * (1.0 + x + x * x)) ** third,
        0.0, 1.0, right_exp=-third, tol=_QUAD_TOL).value.real
    # below the axis: a triangle piece, a bounded cube-root piece, and a tail
    # with the cancellation removed
    cube = integrate_endpoint_singular(
        lambda x, dl, dr: (dl * (1.0 + x + x * x)) ** third,
        1.0, 2.0, left_exp=-third, tol=_QUAD_TOL).value.real
    tail = integrate_tail(
        lambda x, dl, dr: -x * math.expm1(math.log1p(-x ** -3) / 3.0),
        2.0, 2.0, tol=_QUAD_TOL).value.real
    return quadrant, 0.5 + (1.5 - cube) + tail


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
    rhs = gamma_pi_n(3) / 4.0

    def measure():
        q1, q4 = _trisection_areas()
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
    # u = s**n * w absorbs the u**(1/n-1) endpoint singularity; the rule runs
    # bare, as integrate_smooth would run it, on a smooth integrand of s alone
    return (w ** (1.0 / n)) * _tanh_sinh(
        lambda s, dl, dr: (1.0 - s ** n * w) ** a, 0.0, 1.0, _TRIANGLE_TOL, _MAX_QUAD_LEVEL)[0]


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


class VerifyConfig(_FrozenRecord):
    """What ``run_all`` runs: the n values, tolerance overrides by family or
    class, and the families (None for all).

    ``n_values`` holds from 1 to ``_MAX_N_VALUES`` (62, the size of the
    supported range) integers; its length is checked before any entry.
    """

    __slots__ = ("n_values", "tolerances", "families")
    n_values: tuple[int, ...]
    tolerances: Mapping[str, float] | None
    families: tuple[str, ...] | None

    def __init__(self, n_values=(3, 4, 5, 6, 7, 8), tolerances=None, families=None):
        _set_fields(self, n_values, tolerances, families)
        # each refusal below stops a run that would pass vacuously (no n, no
        # family, an infinite tolerance) or could never pass (a tolerance of
        # 0 or less, or NaN); the length comes first, so that a long range
        # is refused without a walk over it
        _check_sequence("VerifyConfig", "integers as n_values", n_values, _MAX_N_VALUES, _is_int)
        if families is not None and (not families or not set(families) <= set(_FAMILIES)):
            raise ParameterError(f"families must name one or more of {sorted(_FAMILIES)}, "
                                 f"got {_shown(families)}")
        if families and not any(n == 3 or not _FAMILIES[f][1]
                                for f in families for n in n_values):
            raise ParameterError(f"families {_shown(families)} run at n = 3 only, and n_values "
                                 f"{_shown(n_values)} has no 3")
        tolerances = {} if tolerances is None else tolerances
        if not isinstance(tolerances, Mapping):
            raise ParameterError(f"tolerances must be a mapping of names to values, "
                                 f"got {_shown(tolerances)}")
        for name, value in tolerances.items():
            if name not in _FAMILIES and name not in DEFAULT_TOLERANCES:
                raise ParameterError(f"unknown tolerance name {_shown(name)}; choose from "
                                     f"{sorted(set(_FAMILIES) | set(DEFAULT_TOLERANCES))}")
            if not (_is_real(value) and value > 0.0):
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
