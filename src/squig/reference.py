"""The independent routes that ``verify`` and the tests check the kernel against.

Nothing here serves an evaluation: ``sin_n``, ``cos_n``, ``arcsin_n`` and
``maclaurin`` run on :mod:`squig.numerics` alone.  This module holds a
double-exponential (tanh-sinh) rule for integrals with algebraic endpoint
singularities, an adaptive 15-point Gauss-Kronrod rule for smooth complex
legs, exact rational series reversion, the GK15 leg of the sector map, a
damped Newton inverter on the principal branch, which no route calls, and a
discrete winding-number count.  ``import squig`` does not load it; it loads
with ``squig.verify`` or at the first use of one of its names through
``squig`` or ``squig.numerics``.

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
from dataclasses import dataclass
from math import gcd

from .errors import (
    ConvergenceError,
    DegenerateLoopError,
    DivergenceError,
    InvalidSeriesError,
    ParameterError,
    QuadratureError,
    RefinementNeededError,
    SingularityError,
)
from .numerics import RationalSeries, sector_ray_integral

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


def integrate_endpoint_singular(f, a: float, b: float,
                                left_exp: float = 0.0, right_exp: float = 0.0,
                                tol: float = DEFAULT_QUAD_TOL) -> QuadratureResult:
    """Integrate f(x, dl, dr) over [a, b] allowing algebraic endpoint singularities.

    left_exp / right_exp are the singularity orders (f ~ dl**-left_exp near a,
    f ~ dr**-right_exp near b); both must be < 1 so the integral converges.
    With the exact offsets dl and dr the result reaches full double precision.
    """
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

    if terms < 1:
        raise ParameterError("terms must be >= 1")
    if not series.degrees or series.degrees[0] != 1 or series.coeffs[0] != 1:
        raise InvalidSeriesError("reversion needs a series starting with 1*z")
    if series.term_count() == 1:
        return series

    step = 0
    for d in series.degrees[1:]:
        step = gcd(step, d - 1)
    max_degree = 1 + (terms - 1) * step

    # Dense coefficients of G where series(z) = z * G(z); support is on
    # multiples of step.
    g = [Fraction(0)] * max_degree
    g[0] = Fraction(1)
    for d, c in zip(series.degrees[1:], series.coeffs[1:]):
        if d - 1 < max_degree:
            g[d - 1] = c
    support = [i for i in range(step, max_degree, step) if g[i] != 0]

    out_degrees = []
    out_coeffs = []
    for k in range(1, max_degree + 1, step):
        # Lagrange inversion: a_k = (1/k) [z^(k-1)] G(z)**(-k).
        alpha = -k
        need = k - 1
        q = [Fraction(0)] * (need + 1)
        q[0] = Fraction(1)
        for j in range(step, need + 1, step):
            s = Fraction(0)
            for i in support:
                if i > j:
                    break
                if q[j - i] != 0:
                    s += ((alpha + 1) * i - j) * g[i] * q[j - i]
            q[j] = s / j
        a_k = q[need] / k
        if a_k != 0:
            out_degrees.append(k)
            out_coeffs.append(a_k)
    return RationalSeries(tuple(out_degrees), tuple(out_coeffs))


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
# The principal branch of (1 - z**n) ** exponent: Newton's helpers (below)
# ---------------------------------------------------------------------------

def nearest_root_distance(n: int, z: complex) -> float:
    """Distance from z to the nearest n-th root of unity."""
    phi = cmath.phase(z)
    k = round(phi * n / TWO_PI)
    best = math.inf
    for kk in (k - 1, k, k + 1):
        root = cmath.exp(2j * math.pi * kk / n)
        best = min(best, abs(z - root))
    return best


def principal_power(n: int, z: complex, exponent: float) -> complex:
    """(1 - z**n) ** exponent on the principal branch.

    Valid verbatim throughout the open sector 0 < arg z < 2*pi/n (and on the
    parts of its boundary rays before the roots of unity), where 1 - z**n
    never meets the negative real axis.
    """
    w = 1.0 - z ** n
    if w == 0:
        raise SingularityError(f"z={z:.6g} is a root of unity")
    return cmath.exp(exponent * cmath.log(w))


# ---------------------------------------------------------------------------
# Newton inversion of the sector integral: no route calls it, since the pole
# series covers the lens; bench/spans.py wraps newton_invert and _newton_basic
# by name, and the change that drops those spans deletes them with their
# helpers above
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NewtonResult:
    z: complex
    residual: float
    iterations: int


# angular slack of the sector test, radians
_SECTOR_SLACK = 1e-9


def _in_sector(n: int, z: complex) -> bool:
    """Acceptance region for Newton iterates.

    The closed base sector, except that beyond the unit circle the boundary
    rays are slits (the principal branch flips sides across them), so
    iterates there must keep an angular margin from both rays.  Real targets
    with real solutions stay below radius 1 and are unaffected.
    """
    if abs(z) < 1e-300:
        return True
    phi = cmath.phase(z)
    if not (-_SECTOR_SLACK <= phi <= TWO_PI / n + _SECTOR_SLACK):
        return False
    if abs(z) <= 0.999999:
        return True
    margin = 1e-7
    return margin <= phi <= TWO_PI / n - margin


def _newton_basic(n: int, w: complex, z0: complex, tol: float,
                  max_iter: int) -> NewtonResult:
    beta = (n - 1) / n
    z = z0
    Fz = sector_ray_integral(n, z)
    resid = abs(Fz - w)
    steps = 0
    while resid > tol and steps < max_iter:
        try:
            slope_inv = principal_power(n, z, beta)
        except SingularityError:
            slope_inv = principal_power(n, z * (1.0 - 1e-9) + 1e-12j, beta)
        step = (Fz - w) * slope_inv
        lam = 1.0
        accepted = False
        while lam >= 1.0 / 64.0:
            z_new = z - lam * step
            if not _in_sector(n, z_new) or (
                    nearest_root_distance(n, z_new) < 1e-10):
                lam *= 0.5
                continue
            F_new = sector_ray_integral(n, z_new)
            r_new = abs(F_new - w)
            if r_new < resid:
                z, Fz, resid = z_new, F_new, r_new
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            break
        steps += 1
    return NewtonResult(z, resid, steps)


def newton_invert(n: int, w: complex, z0: complex,
                  tol: float = 1e-12, max_iter: int = 50) -> NewtonResult:
    """Solve F(z) = w for the sector integral F, starting from z0.

    One pass of damped Newton steps with the closed-form reciprocal slope
    (1 - z**n)**((n-1)/n).  A step is halved, at most six times, until it
    lowers the residual |F(z) - w| and its iterate stays in ``_in_sector``
    and 1e-10 away from the roots of unity; the pass ends when the residual
    is at most ``tol``, after ``max_iter`` steps, or when no halving helps.
    ``iterations`` counts the steps taken.  Raises ConvergenceError with the
    last residual if the pass ends above ``tol``.
    """
    res = _newton_basic(n, w, z0, tol, max_iter)
    if res.residual > tol:
        raise ConvergenceError(
            f"could not invert the sector map at target {w}: Newton stalled "
            f"at residual {res.residual:.3g} (tol {tol:g})", residual=res.residual)
    return res


# ---------------------------------------------------------------------------
# Winding numbers of discrete loops
# ---------------------------------------------------------------------------

def winding_number(loop_values, w: complex) -> int:
    """Winding count of a sampled closed loop around w.

    The samples must repeat the first point at the end and be dense enough
    that consecutive argument increments stay below pi; otherwise a
    RefinementNeededError asks the caller for more samples.
    """
    values = [complex(v) for v in loop_values]
    if len(values) < 4:
        raise DegenerateLoopError("a loop needs at least 4 samples")
    if abs(values[0] - values[-1]) > 1e-9 * max(1.0, abs(values[0])):
        raise DegenerateLoopError("loop is not closed (first != last sample)")
    scale = max(abs(v) for v in values)
    total = 0.0
    for va, vb in zip(values, values[1:]):
        da, db = va - w, vb - w
        if abs(da) < 1e-12 * max(1.0, scale) or abs(db) < 1e-12 * max(1.0, scale):
            raise DegenerateLoopError(
                f"loop passes through the target point {w:.6g}")
        inc = cmath.phase(db / da)
        if abs(inc) >= math.pi * 0.999:
            raise RefinementNeededError(
                "consecutive loop samples subtend an angle of almost pi at "
                "the target; the count is ambiguous, refine the sampling")
        total += inc
    count = total / TWO_PI
    nearest = round(count)
    if abs(count - nearest) > 1e-6:
        raise RefinementNeededError(
            f"winding sum {count:.3g} is not close to an integer; refine")
    return int(nearest)
