"""The independent routes that ``verify`` and the tests check the kernel against.

Nothing here serves an evaluation: ``sin_n``, ``cos_n`` and ``arcsin_n``
run on :mod:`squig.numerics` alone, and ``maclaurin`` on
:mod:`squig.series`.  This module holds a double-exponential (tanh-sinh)
rule for integrals with algebraic endpoint singularities, an adaptive
15-point Gauss-Kronrod rule for smooth complex legs, exact rational series
reversion, the GK15 leg of the sector map and a discrete winding-number
count.  ``newton_invert`` and ``_newton_basic`` keep the names of a former
Newton inverter, which the benchmark's tracer wraps; they are views of
the sine, the inverse of the sector map on the closed kite, and not an
independent route.  ``import squig`` does not load this module; it loads
with ``squig.verify`` or at the first use of one of its names through
``squig`` or ``squig.numerics``.

The builders of the kernel's table file live in :mod:`squig.tablegen`,
which this module does not load.  The exact series that ``revert_series``
runs on, :mod:`squig.series`, loads at its first call.

Each quadrature rule takes one integrand form:

* Gauss-Kronrod (``integrate_smooth``) takes ``f(x)``, a callable of one
  real argument; its nodes never come near the interval ends.
* tanh-sinh (``integrate_endpoint_singular``, ``integrate_tail``) takes
  ``f(x, dl, dr)``, which additionally receives the exact distances
  ``dl = x - a`` and ``dr = b - x`` to the interval ends (``dr`` is infinite
  for a tail).  For nodes placed within a few ulps of an endpoint, ``x``
  alone can no longer resolve the distance to the endpoint, while
  ``dl``/``dr`` are computed exactly by the transformation.  Integrands
  without an endpoint singularity simply ignore them.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from math import gcd

from .errors import (
    ConvergenceError,
    DegenerateLoopError,
    DivergenceError,
    DomainError,
    InvalidSeriesError,
    ParameterError,
    QuadratureError,
    RefinementNeededError,
    _shown,
)
from .geometry import make_context
from .regions import _is_real, contains_Pi
from .squigfn import sin_n

TWO_PI = 2.0 * math.pi

# Default absolute tolerance for quadratures; individual ops may tighten it.
DEFAULT_QUAD_TOL = 1e-12

# Cap on tanh-sinh level doublings (the step halves ten times from 1/2).
_MAX_QUAD_LEVEL = 10


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a quadrature together with its error estimate.

    err_estimate is the change produced by the final level doubling (or the
    final adaptive refinement), so it bounds what one more refinement would
    move the value by, for integrands the rules are designed for.
    """

    value: complex
    err_estimate: float
    evaluations: int

    @property
    def real(self) -> float:
        return self.value.real


# ---------------------------------------------------------------------------
# tanh-sinh rule
# ---------------------------------------------------------------------------

def _tanh_sinh_nodes(h: float, odd_only: bool):
    """Yield (t, q, weight_factor) with q = (1 - tanh((pi/2) sinh t)) / 2.

    The weight factor is d x / d t divided by (b - a), i.e.
    pi * cosh(t) * q * (1 - q).  Iteration stops once q underflows; the
    caller additionally stops when contributions become negligible.
    """
    k = 1 if odd_only else 0
    step = 2 if odd_only else 1
    while True:
        t = k * h
        u = 0.5 * math.pi * math.sinh(t)
        if u > 360.0:  # q underflows double precision shortly after this
            e = math.exp(-2.0 * u) if u < 745.0 else 0.0
            q = e
        else:
            e = math.exp(-2.0 * u)
            q = e / (1.0 + e)
        if q == 0.0:
            return
        w = math.pi * math.cosh(t) * q * (1.0 - q)
        yield t, q, w
        k += step


def _tanh_sinh(f3, a: float, b: float, tol: float, max_level: int):
    """Core tanh-sinh iteration; f3(x, dl, dr) -> complex."""
    width = b - a
    if width <= 0.0:
        raise ParameterError("tanh-sinh requires a < b")

    evals = 0

    def node_value(q: float, mirrored: bool) -> complex:
        nonlocal evals
        dr = width * q
        dl = width - dr
        if mirrored:
            dl, dr = dr, dl
            x = a + dl
        else:
            x = b - dr
        evals += 1
        return f3(x, dl, dr)

    def level_sum(h: float, odd_only: bool) -> complex:
        total = 0j
        small_run = 0
        for t, q, w in _tanh_sinh_nodes(h, odd_only):
            if t == 0.0:
                continue
            term = w * (node_value(q, False) + node_value(q, True))
            total += term
            if abs(term) * h * width < tol * 1e-3 and t > 3.0:
                small_run += 1
                if small_run >= 2:
                    break
            else:
                small_run = 0
        return total

    # Level 0: h = 0.5 over all integer nodes; t = 0 contributes pi/4 * f(mid).
    h = 0.5
    total = (math.pi * 0.25) * node_value(0.5, False) + level_sum(h, odd_only=False)
    estimate = total * h * width
    history = [estimate]

    err = math.inf
    for level in range(1, max_level + 1):
        h *= 0.5
        partial = level_sum(h, odd_only=True)
        new_estimate = 0.5 * history[-1] + partial * h * width
        err = abs(new_estimate - history[-1])
        history.append(new_estimate)
        if err <= max(tol, 1e-15 * abs(new_estimate)) and level >= 2:
            return new_estimate, max(err, 1e-16 * abs(new_estimate)), evals, history
    # Marginal misses at the level cap are still useful results as long as
    # the error estimate is honest; only a real stall is an error.
    if err <= 100.0 * tol:
        return history[-1], err, evals, history
    raise QuadratureError(
        f"tanh-sinh did not reach tol={tol:g} within {max_level} levels "
        f"(last change {err:g})",
        last_estimates=history[-2:],
    )


def _check_integrand(f, *reals) -> None:
    """ParameterError unless f is callable and each of ``reals`` a finite real."""
    if not callable(f):
        raise ParameterError(f"the integrand must be callable, got {_shown(f)}")
    for x in reals:
        if not (_is_real(x) and abs(x) <= sys.float_info.max):
            raise ParameterError(f"interval ends and exponents must be finite reals, "
                                 f"got {_shown(x)}")


def integrate_endpoint_singular(f, a: float, b: float,
                                left_exp: float = 0.0, right_exp: float = 0.0,
                                tol: float = DEFAULT_QUAD_TOL) -> QuadratureResult:
    """Integrate f(x, dl, dr) over [a, b] allowing algebraic endpoint singularities.

    left_exp / right_exp are the singularity orders (f ~ dl**-left_exp near a,
    f ~ dr**-right_exp near b); both must be < 1 so the integral converges.
    With the exact offsets dl and dr the result reaches full double precision.
    """
    _check_integrand(f, a, b)
    if not (left_exp < 1.0 and right_exp < 1.0):
        raise DivergenceError(
            f"endpoint exponents must be < 1 for an integrable singularity, "
            f"got ({left_exp}, {right_exp})")
    value, err, evals, _ = _tanh_sinh(f, a, b, tol, _MAX_QUAD_LEVEL)
    return QuadratureResult(value, err, evals)


def integrate_tail(f, a: float, decay_exp: float,
                   tol: float = DEFAULT_QUAD_TOL) -> QuadratureResult:
    """Integrate f(t, dl, dr) from a to infinity given algebraic decay |f| ~ t**-decay_exp.

    The tail beyond max(a, 1) is folded onto a bounded interval with u = 1/t.
    decay_exp must exceed 1 or the integral diverges.  An integrable
    singularity of f at a itself is handled by the endpoint rule: f receives
    dl = t - a exactly and dr = inf.
    """
    _check_integrand(f, a, decay_exp)
    if decay_exp <= 1.0:
        raise DivergenceError(
            f"decay exponent {decay_exp} <= 1: tail integral diverges")
    if a < 0.0:
        raise ParameterError("tail integration requires a >= 0")

    cut = max(a, 1.0)
    total = 0j
    err = 0.0
    evals = 0

    if a < cut:
        head = lambda x, dl, dr: f(x, dl, math.inf)
        v, e, ne, _ = _tanh_sinh(head, a, cut, tol * 0.5, _MAX_QUAD_LEVEL)
        total += v
        err += e
        evals += ne

    # Substituted tail: integral over u in (0, 1/cut] of f(1/u) / u**2.
    # dl_t = t - a maps to (1 - a*u)/u; exact at the u = 1/cut end when a = cut.
    inv_cut = 1.0 / cut

    # The substituted integrand behaves like u**(decay_exp - 2) near u = 0;
    # estimate its scale once and drop nodes whose whole remaining mass is
    # negligible, so f is never evaluated at overflow-inducing arguments.
    t_ref = 8.0 * cut
    scale = abs(f(t_ref, t_ref - a, math.inf)) * t_ref ** decay_exp
    chop_mass = tol * 1e-2

    def tail_part(u: float, dl: float, dr: float) -> complex:
        if scale > 0.0:
            remaining = scale * u ** (decay_exp - 1.0) / (decay_exp - 1.0)
            if remaining < chop_mass:
                return 0j
        t = 1.0 / u
        if a == cut:
            dl_t = a * dr * t  # t - a = a*(1/cut - u)/u exactly
        else:
            dl_t = (1.0 - a * u) * t
        return f(t, dl_t, math.inf) * t * t

    v, e, ne, _ = _tanh_sinh(tail_part, 0.0, inv_cut, tol * 0.5, _MAX_QUAD_LEVEL)
    total += v
    err += e
    evals += ne
    return QuadratureResult(total, max(err, 1e-16 * abs(total)), evals)


# ---------------------------------------------------------------------------
# Gauss-Kronrod 15 on complex-valued legs
# ---------------------------------------------------------------------------

# Standard 15-point Kronrod extension of 7-point Gauss (nodes on [-1, 1]),
# QUADPACK's qk15 values rounded to the nearest double.
_XGK = (
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
    0.20778495500789848, 0.0,
)
_WGK = (
    0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
    0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
    0.20443294007529889, 0.20948214108472782,
)
_WG = (
    0.1294849661688697, 0.27970539148927664, 0.3818300505051189,
    0.4179591836734694,
)


def _gk15(f, a: float, b: float):
    """One 15-point Gauss-Kronrod panel.

    Returns (kronrod, error, abs_integral, evals); abs_integral feeds the
    roundoff floor below which refinement cannot help.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(mid)
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    kabs = _WGK[7] * abs(fc)
    for i in range(7):
        x = half * _XGK[i]
        fa = f(mid - x)
        fb = f(mid + x)
        both = fa + fb
        kron += _WGK[i] * both
        kabs += _WGK[i] * (abs(fa) + abs(fb))
        if i % 2 == 1:
            gauss += _WG[i // 2] * both
    kron *= half
    gauss *= half
    kabs *= abs(half)
    return kron, abs(kron - gauss), kabs, 15


def integrate_smooth(f, a: float, b: float, tol: float = DEFAULT_QUAD_TOL,
                     max_evals: int = 400_000) -> QuadratureResult:
    """Adaptive GK15 for a smooth (complex-valued) integrand on [a, b].

    Globally adaptive: the panel with the largest error estimate is split
    until the summed estimate meets the tolerance or its roundoff floor.
    """
    import heapq

    _check_integrand(f, a, b)
    val, err, kabs, evals = _gk15(f, a, b)
    # Heap entries: (-err, tiebreak, lo, hi, val, kabs).
    counter = 0
    heap = [(-err, counter, a, b, val, kabs)]
    total_err = err
    total_kabs = kabs
    while total_err > max(tol, 2e-16 * total_kabs):
        neg_err, _, lo, hi, pval, pkabs = heapq.heappop(heap)
        perr = -neg_err
        if perr <= 1e-15 * pkabs or (hi - lo) < 1e-15 * max(abs(lo), abs(hi), 1.0):
            # Roundoff floor: no panel can improve; accept the current sum.
            heapq.heappush(heap, (neg_err, counter + 1, lo, hi, pval, pkabs))
            break
        if evals > max_evals:
            raise QuadratureError(
                f"adaptive GK15 exceeded {max_evals} evaluations "
                f"(error estimate {total_err:g}, target {tol:g})",
                last_estimates=[sum(e[4] for e in heap) + pval])
        mid = 0.5 * (lo + hi)
        v1, e1, k1, n1 = _gk15(f, lo, mid)
        v2, e2, k2, n2 = _gk15(f, mid, hi)
        evals += n1 + n2
        total_err += e1 + e2 - perr
        total_kabs += k1 + k2 - pkabs
        counter += 1
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, k1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, k2))
    value = sum(entry[4] for entry in heap)
    return QuadratureResult(value, max(total_err, 2e-16 * abs(value)), evals)


# ---------------------------------------------------------------------------
# Series reversion
# ---------------------------------------------------------------------------

def revert_series(series: RationalSeries, terms: int) -> RationalSeries:
    """Compositional inverse of a series z + ... with exact arithmetic.

    A general utility: the sine's own series comes from the ODE recurrence of
    _ode_coefficients, and reverting the series of F is its cross-check.

    The input must start with the term 1*z.  The result is truncated to the
    degree of its terms-th potential term, respecting the arithmetic
    progression of the input degrees (degrees congruent to 1 modulo the gap
    gcd stay closed under reversion).
    """
    from fractions import Fraction

    from .series import RationalSeries, _power_term

    if not isinstance(series, RationalSeries):
        raise ParameterError(f"reversion needs a RationalSeries, got {_shown(series)}")
    if isinstance(terms, bool) or not isinstance(terms, int) or terms < 1:
        raise ParameterError(f"terms must be an integer >= 1, got {_shown(terms)}")
    if not series.degrees or series.degrees[0] != 1 or series.coeffs[0] != 1:
        raise InvalidSeriesError("reversion needs a series starting with 1*z")
    if series.term_count() == 1:
        return series

    step = 0
    for d in series.degrees[1:]:
        step = gcd(step, d - 1)
    # series(z) = z H(z**step), and by Lagrange inversion the term of degree
    # k = 1 + m step is [x**m] H(x)**(-k) / k, whose powers _power_term extends
    h = [Fraction(0)] * terms
    h[0] = Fraction(1)
    for d, c in zip(series.degrees[1:], series.coeffs[1:]):
        if d - 1 < terms * step:
            h[(d - 1) // step] = c
    pairs = []
    for m in range(terms):
        k = 1 + m * step
        q = [Fraction(1)]
        for j in range(1, m + 1):
            q.append(_power_term(h, q, j, -k))
        if q[m]:
            pairs.append((k, q[m] / k))
    return RationalSeries(*zip(*pairs))


# ---------------------------------------------------------------------------
# The sector map by quadrature
# ---------------------------------------------------------------------------

def sector_segment_integral(n: int, za: complex, zb: complex,
                            tol: float = DEFAULT_QUAD_TOL,
                            max_evals: int = 8_000) -> complex:
    """Principal-branch integral of the arcsine kernel along [za, zb], by GK15.

    Both endpoints (and hence the whole segment) must lie in the closed base
    sector away from the slit part of its boundary, where the principal
    branch is the continuous one.  Neither an evaluation route nor
    ``verify`` uses it; it is the independent quadrature that the tests
    check the series against.  The evaluation budget is deliberately small.
    """
    beta = (n - 1) / n
    seg = zb - za

    def f(s):
        z = za + s * seg
        w = 1.0 - z ** n
        return cmath.exp(-beta * cmath.log(w))

    res = integrate_smooth(f, 0.0, 1.0, tol, max_evals=max_evals)
    return res.value * seg


# ---------------------------------------------------------------------------
# The inverse of the sector map under the Newton names that bench/spans.py
# wraps: no route calls them, and the change that drops those spans deletes
# them
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NewtonResult:
    z: complex
    residual: float
    iterations: int


def newton_invert(n: int, w: complex) -> NewtonResult:
    """The point z of the closed base sector with F(z) = w, for w in the
    closed kite: ``sin_n`` at w, with the sine's forward bound as
    ``residual`` and 0 ``iterations``.  Raises DomainError outside the kite
    and ConvergenceError where the sine flags w as the pole."""
    ctx = make_context(n)
    if not contains_Pi(ctx, w):
        raise DomainError(f"target {w} lies outside the closed kite Pi_{n}",
                          region=f"Pi_{n}")
    res = sin_n(ctx, w)
    if res.is_pole:
        raise ConvergenceError(f"target {w} is flagged as the pole P_{n}",
                               residual=abs(ctx.P - w))
    return NewtonResult(res.value, res.residual, 0)


_newton_basic = newton_invert


# ---------------------------------------------------------------------------
# Winding numbers of discrete loops
# ---------------------------------------------------------------------------

def _is_finite_number(value) -> bool:
    """A finite complex, or a real number (not a bool) within the float range."""
    return (isinstance(value, complex) and cmath.isfinite(value)
            or _is_real(value) and abs(value) <= sys.float_info.max)


def winding_number(loop_values, w: complex) -> int:
    """Winding count of a sampled closed loop around w.

    The samples must repeat the first point at the end and be dense enough
    that consecutive argument increments stay below pi; otherwise a
    RefinementNeededError asks the caller for more samples.  ``w`` and the
    samples must be finite numbers (not bools), else ParameterError is
    raised.
    """
    if not _is_finite_number(w):
        raise ParameterError(f"the winding target must be a finite number, got {_shown(w)}")
    if not (isinstance(loop_values, Sequence) and all(map(_is_finite_number, loop_values))):
        raise ParameterError(f"the loop must be a sequence of finite numbers, got "
                             f"{type(loop_values).__name__}")
    values = [complex(v) for v in loop_values]
    if len(values) < 4:
        raise DegenerateLoopError("a loop needs at least 4 samples")
    if abs(values[0] - values[-1]) > 1e-9 * max(1.0, abs(values[0])):
        raise DegenerateLoopError("loop is not closed (first != last sample)")
    # distance below which a sample counts as the target itself
    near = 1e-12 * max(1.0, max(abs(v) for v in values))
    total = 0.0
    for va, vb in zip(values, values[1:]):
        da, db = va - w, vb - w
        if abs(da) < near or abs(db) < near:
            raise DegenerateLoopError(
                f"loop passes through the target point {w:.6g}")
        inc = cmath.phase(db / da)
        if abs(inc) >= math.pi * 0.999:
            raise RefinementNeededError(
                "consecutive loop samples subtend an angle of almost pi at "
                "the target; the count is ambiguous, refine the sampling")
        total += inc
    count = total / TWO_PI
    # a NaN sum (increments overflowed near the float range) is refused too
    if not math.isfinite(count) or abs(count - round(count)) > 1e-6:
        raise RefinementNeededError(
            f"winding sum {count:.3g} is not close to an integer; refine")
    return round(count)
