"""The independent routes that ``verify`` and the tests check the kernel against.

Nothing here serves an evaluation: ``sin_n``, ``cos_n`` and ``arcsin_n``
run on :mod:`squig.numerics` alone, and ``maclaurin`` on
:mod:`squig.series`.  This module holds one quadrature rule, the
trapezoidal rule after a double-exponential map (Takahasi & Mori 1974;
Mori & Sugihara 2001): tanh-sinh on ``[a, b]`` and exp-sinh on
``[a, inf)``.  It also holds exact rational series reversion, the
quadrature leg of the sector map and a discrete winding-number count.
``newton_invert`` and ``_newton_basic`` keep the names of a former
Newton inverter, which the benchmark's tracer wraps; they are views of
the sine, the inverse of the sector map on the closed kite, and not an
independent route.  ``import squig`` does not load this module; it loads
with ``squig.verify`` or at the first use of one of its names through
``squig`` or ``squig.numerics``.

The builders of the kernel's table file live in :mod:`squig.tablegen`,
which this module does not load.  The exact series that ``revert_series``
runs on, :mod:`squig.series`, loads at its first call.

The four quadrature names check their arguments and run the one rule,
``_tanh_sinh``: ``integrate_smooth`` on ``[a, b]``,
``integrate_endpoint_singular`` on ``[a, b]`` with algebraic endpoint
singularities, ``integrate_tail`` on ``[a, inf)`` and
``sector_segment_integral`` along a segment of the sector.  The rule
passes ``f(x, dl, dr)`` the exact distances ``dl = x - a`` and
``dr = b - x`` to the interval ends (``dr`` is infinite for a tail): for
nodes placed within a few ulps of an end, ``x`` alone can no longer
resolve the distance to it, while the map gives ``dl`` and ``dr`` exactly.
Integrands without an endpoint singularity ignore them, and
``integrate_smooth`` takes a plain ``f(x)``.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
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
    _as_point,
    _is_count,
    _is_finite_number,
    _is_real,
    _shown,
)
from .geometry import _RAY_SNAP, _slit_wedge, make_context
from .regions import contains_Pi
from .squigfn import sin_n

TWO_PI = 2.0 * math.pi

# Default absolute tolerance for quadratures; individual ops may tighten it.
DEFAULT_QUAD_TOL = 1e-12

# The double-exponential rule halves its step from 1/2 at most ten times,
# and stops no earlier than at 1/8.  At level 0 a node whose term is at most
# _CUT of the sum before its side, the second such in a row, ends that side,
# counted from t = _T_FLOOR on or, under exp-sinh, once the side's terms
# have begun to fall.
_MAX_QUAD_LEVEL = 10
_MIN_LEVEL = 2
_CUT = 1e-18
_T_FLOOR = 3.0


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a quadrature together with its error estimate.

    err_estimate is the change produced by the final level doubling, so it
    bounds what one more level would move the value by, for integrands the
    rule is designed for.
    """

    value: complex
    err_estimate: float
    evaluations: int

    @property
    def real(self) -> float:
        return self.value.real


# ---------------------------------------------------------------------------
# The double-exponential rule
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _level_nodes(tail: bool, level: int) -> tuple[tuple, tuple]:
    """The nodes t = k h > 0 and -t that ``level`` adds (every k at level 0,
    the odd k after, h = 2**-(level + 1)) in order of k, up to the float range.

    A node is (offset, weight).  Under tanh-sinh the offset is the share of
    b - a between x and the nearer end, the weight dx/dt over b - a, and the
    sides share one tuple.  Under exp-sinh the offset is dl and the weight
    dx/dt.
    """
    plus, minus = [], []
    h = 0.5 ** (level + 1)
    for k in itertools.count(1, 1 if level == 0 else 2):
        u = 0.5 * math.pi * math.sinh(k * h)
        c = 0.5 * math.pi * math.cosh(k * h)
        if tail and u <= 709.0:  # beyond, exp(u) overflows
            plus.append((math.exp(u), c * math.exp(u)))
            minus.append((math.exp(-u), c * math.exp(-u)))
        elif not tail and (e := math.exp(-2.0 * u)):
            q = e / (1.0 + e)
            plus.append((q, 2.0 * c * q * (1.0 - q)))
        else:
            return tuple(plus), tuple(minus) if tail else tuple(plus)


def _fsum(values: list) -> complex:
    """The sum of ``values``: rounded once where all are real, added in
    order where some are complex."""
    if any(isinstance(v, complex) for v in values):
        return sum(values)
    return math.fsum(values)


def _left_after(err: float, before: float, size: float) -> float:
    """The error left in an estimate of magnitude ``size`` whose last level
    changed it by ``err`` and the level before by ``before``.

    In units of ``size`` the changes fall as err = before**p, and the error
    left as err**p.  A double-exponential rule that has converged doubles
    its digits, p = 2, but a nearly singular integrand gets there late: a
    segment of the sector map at n = 32 was 3.1e-4, 3.7e-8, 2.9e-12 and
    6.7e-16 off at levels 0 to 3, and the first two changes, p = 2.1,
    foretold 1.4e-15 left at level 2.  So p is taken in [1, 3/2], and the
    estimate is never below err**(3/2) nor above err.
    """
    if not 0.0 < err < before < size:
        return err
    p = math.log(err / size) / math.log(before / size)
    return size * (err / size) ** min(p, 1.5)


def _tanh_sinh(f3, a: float, b: float, tol: float, max_level: int):
    """The trapezoidal rule after a double-exponential map; f3(x, dl, dr) -> complex.

    On a finite [a, b] the map is tanh-sinh, x = (a + b)/2 + (b - a)/2 *
    tanh((pi/2) sinh t); for b = inf it is exp-sinh, x = a + exp((pi/2)
    sinh t), under which dl is exact and dr is inf.  Level 0 takes the
    nodes t = k/2 outward from 0, one at a time: each side ends at a node
    that leaves the float range, or at the second node in a row whose term
    is at most _CUT of the sum before the side, or adds at most ``tol`` to
    the estimate, counted from t = _T_FLOOR on or, under exp-sinh, once the
    side's terms have begun to fall.  The floor keeps a side whose mass
    arrives late, as x**2000 on [0, 1] does; the fall ends a decaying
    exp-sinh side before x grows to where an integrand may overflow.  Each
    further level halves the step and adds the odd nodes short of the first
    of those two.

    From level _MIN_LEVEL the iteration stops when the error that the last
    two changes leave (``_left_after``) is within ``tol``, and where a term
    is not finite.  ``tol`` is absolute: 1/t**2 from 1e150 gives 6.3e-289
    for 1e-150.  The sum is rounded once where the terms are real.
    Returns ``(value, err, evals, history)``, ``err`` being the last change.
    """
    if not a < b:
        raise ParameterError("the double-exponential rule requires a < b")
    tail = b == math.inf
    width = b - a
    scale = 1.0 if tail else width

    def evaluate(nodes, left: bool):
        """w(t) f(x(t)), lazily, at the nodes of one side that the float range
        holds, per unit of b - a under tanh-sinh."""
        if tail:
            return (w * f3(x, dl, math.inf) for dl, w in nodes if (x := a + dl) < math.inf)
        if left:
            return (w * f3(a + d, d, width - d) for q, w in nodes if (d := width * q))
        return (w * f3(b - d, width - d, d) for q, w in nodes if (d := width * q))

    # t = 0 is x = a + 1 under exp-sinh and the midpoint under tanh-sinh; a
    # side's reach counts the nodes before the first that the finer levels
    # leave out
    values = [*evaluate([(1.0, 0.5 * math.pi) if tail else (0.5, 0.25 * math.pi)], False)]
    reach = []
    for left, nodes in zip((False, True), _level_nodes(tail, 0)):
        # _CUT of the sum so far, or a term that moves the level-0 estimate
        # by tol
        limit = max(_CUT * abs(sum(values)), 2.0 * tol / scale)
        start = len(values)
        small = fallen = False
        last = abs(values[0])
        for k, value in enumerate(evaluate(nodes, left), 1):
            values.append(value)
            fallen, last = fallen or abs(value) < last, abs(value)
            if last > limit or not (k >= 2 * _T_FLOOR or tail and fallen):
                small = False
            elif small:
                reach.append(k - 1)
                break
            else:
                small = True
        else:
            reach.append(len(values) - start + 1)

    history = []
    err = math.inf
    for level in range(max_level + 1):
        if level:
            plus, minus = _level_nodes(tail, level)
            values += evaluate(plus[:reach[0] << (level - 1)], False)
            values += evaluate(minus[:reach[1] << (level - 1)], True)
        value = 0.5 ** (level + 1) * scale * _fsum(values)
        if history:
            err = abs(value - history[-1])
        history.append(value)
        if not cmath.isfinite(value):  # no level can mend a term that is not finite
            break
        if level >= _MIN_LEVEL and _left_after(err, abs(history[-2] - history[-3]),
                                               abs(value)) <= tol:
            return value, max(err, 1e-16 * abs(value)), len(values), history
    # Marginal misses at the level cap are still useful results as long as
    # the error estimate is honest; only a real stall is an error.
    if err <= 100.0 * tol:
        return history[-1], err, len(values), history
    raise QuadratureError(
        f"the double-exponential rule did not reach tol={tol:g} in {len(history) - 1} "
        f"level doublings (last change {err:g})",
        last_estimates=history[-2:],
    )


def _check_integrand(f, tol, *reals) -> None:
    """ParameterError unless f is callable, ``tol`` a positive finite real and
    each of ``reals`` a finite real."""
    if not callable(f):
        raise ParameterError(f"the integrand must be callable, got {_shown(f)}")
    if not (_is_real(tol) and tol > 0.0):
        raise ParameterError(f"the tolerance tol must be a positive finite real, "
                             f"got {_shown(tol)}")
    for x in reals:
        if not _is_real(x):
            raise ParameterError(f"interval ends and exponents must be finite reals, "
                                 f"got {_shown(x)}")


def integrate_smooth(f, a: float, b: float, tol: float = DEFAULT_QUAD_TOL) -> QuadratureResult:
    """Integrate f(x), a smooth (complex-valued) integrand, over [a, b] to an absolute tol."""
    _check_integrand(f, tol, a, b)
    return QuadratureResult(*_tanh_sinh(lambda x, dl, dr: f(x), a, b, tol, _MAX_QUAD_LEVEL)[:3])


def integrate_endpoint_singular(f, a: float, b: float,
                                left_exp: float = 0.0, right_exp: float = 0.0,
                                tol: float = DEFAULT_QUAD_TOL) -> QuadratureResult:
    """Integrate f(x, dl, dr) over [a, b] allowing algebraic endpoint singularities.

    left_exp / right_exp are the singularity orders (f ~ dl**-left_exp near a,
    f ~ dr**-right_exp near b); both must be < 1 so the integral converges.
    With the exact offsets dl and dr it reaches double precision; tol is absolute.
    """
    _check_integrand(f, tol, a, b, left_exp, right_exp)
    if not (left_exp < 1.0 and right_exp < 1.0):
        raise DivergenceError(
            f"endpoint exponents must be < 1 for an integrable singularity, "
            f"got ({left_exp}, {right_exp})")
    return QuadratureResult(*_tanh_sinh(f, a, b, tol, _MAX_QUAD_LEVEL)[:3])


def integrate_tail(f, a: float, decay_exp: float,
                   tol: float = DEFAULT_QUAD_TOL) -> QuadratureResult:
    """Integrate f(t, dl, dr) from a to infinity given algebraic decay |f| ~ t**-decay_exp.

    decay_exp must exceed 1 or the integral diverges.  ``a`` may be any
    finite real.  An integrable singularity of f at a itself is taken too: f
    receives dl = t - a exactly and dr = inf.  ``tol`` is absolute.
    """
    _check_integrand(f, tol, a, decay_exp)
    if decay_exp <= 1.0:
        raise DivergenceError(
            f"decay exponent {decay_exp} <= 1: tail integral diverges")
    return QuadratureResult(*_tanh_sinh(f, a, math.inf, tol, _MAX_QUAD_LEVEL)[:3])


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
    if not _is_count(terms, 1):
        raise ParameterError(f"terms must be an integer in [1, sys.maxsize], got {_shown(terms)}")
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
                            tol: float = DEFAULT_QUAD_TOL) -> complex:
    """Principal-branch integral of the arcsine kernel along [za, zb], by quadrature.

    Both endpoints (and hence the whole segment) must lie in the closed base
    sector away from the slit part of its boundary, where the principal
    branch is the continuous one.  Neither an evaluation route nor
    ``verify`` uses it; it is the independent quadrature that the tests
    check the series against.
    ``n`` is refused as ``SquigContext(n)`` refuses it, and an endpoint as
    ``arcsin_n_sector`` refuses it, or within 1e-8 of a slit (DomainError);
    where ``z**n`` leaves the float range, QuadratureError is raised.
    """
    ctx = make_context(n)
    za, zb = (_as_point(z, f"the closed sector V_{n}", f"V_{n}") for z in (za, zb))
    for z in (za, zb):
        outside = z and not -_RAY_SNAP <= cmath.phase(z) <= ctx.tau + _RAY_SNAP
        if outside or _slit_wedge(ctx, z)[3]:
            raise DomainError(f"point {z} lies outside the closed sector V_{n} off its slits",
                              region=f"V_{n}")
    beta = (n - 1) / n
    seg = zb - za

    def f(s):
        z = za + s * seg
        w = 1.0 - z ** n
        return cmath.exp(-beta * cmath.log(w))

    try:
        res = integrate_smooth(f, 0.0, 1.0, tol)
    except OverflowError:
        raise QuadratureError(f"the integrand leaves the float range on [{za}, {zb}]") from None
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
