"""Quadrature, series reversion, the sector-map series, and root finding.

This module owns the low-level numerical machinery: a double-exponential
(tanh-sinh) rule for integrals with algebraic endpoint singularities, an
adaptive 15-point Gauss-Kronrod rule for smooth complex legs, exact rational
series reversion, the three series of the sector map (at 0, at infinity and
the corner chart between them), a damped Newton inverter on the principal
branch, and a discrete winding-number count.

The sector map is evaluated by its series alone.  The quadrature rules serve
``verify``, as the independent route its checks compare against, and
``make_context``, whose period is computed by quadrature for the same
reason.  Each rule takes one integrand form:

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

import bisect
import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

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
# The principal branch of (1 - z**n) ** exponent
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
# Exact rational series and reversion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalSeries:
    """Sparse power series with exact rational coefficients.

    degrees are strictly increasing positive integers and coefficients are
    nonzero Fractions; the pair (degrees[i], coeffs[i]) is one term.
    """

    degrees: tuple
    coeffs: tuple

    def __post_init__(self):
        if len(self.degrees) != len(self.coeffs):
            raise InvalidSeriesError("degrees and coeffs must align")
        last = 0
        for d, c in zip(self.degrees, self.coeffs):
            if d < 1 or (last and d <= last) or (not last and d < 1):
                raise InvalidSeriesError("degrees must be strictly increasing and >= 1")
            if c == 0:
                raise InvalidSeriesError("zero coefficients are not stored")
            last = d

    def coefficient(self, degree: int) -> Fraction:
        for d, c in zip(self.degrees, self.coeffs):
            if d == degree:
                return c
            if d > degree:
                break
        return Fraction(0)

    def term_count(self) -> int:
        return len(self.degrees)

    def truncate(self, max_degree: int) -> "RationalSeries":
        keep = [(d, c) for d, c in zip(self.degrees, self.coeffs) if d <= max_degree]
        return RationalSeries(tuple(d for d, _ in keep), tuple(c for _, c in keep))

    def head(self, terms: int) -> "RationalSeries":
        return RationalSeries(self.degrees[:terms], self.coeffs[:terms])

    def evaluate(self, z: complex) -> complex:
        # Horner over the sparse degree gaps.
        total = 0j
        prev_degree = 0
        for d, c in zip(reversed(self.degrees), reversed(self.coeffs)):
            if prev_degree:
                total *= z ** (prev_degree - d)
            total += complex(c)
            prev_degree = d
        return total * z ** prev_degree if prev_degree else total


def revert_series(series: RationalSeries, terms: int) -> RationalSeries:
    """Compositional inverse of a series z + ... with exact arithmetic.

    The input must start with the term 1*z.  The result is truncated to the
    degree of its terms-th potential term, respecting the arithmetic
    progression of the input degrees (degrees congruent to 1 modulo the gap
    gcd stay closed under reversion).
    """
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
# Binomial series of the sector map
# ---------------------------------------------------------------------------

# |u**n| bounds of the two series regimes of F: the series at 0 holds for
# |u**n| <= SERIES_INNER, the series at infinity for |u**n| >= SERIES_OUTER.
SERIES_INNER = 0.5
SERIES_OUTER = 2.0

# A series is cut once its remainder bound is below this fraction of its
# leading term, i.e. half an ulp.
_SERIES_EPS = 2.0 ** -54


def gamma_pi_n(n: int) -> float:
    """Gamma-function closed form for the half period, no quadrature involved."""
    return 2.0 * math.gamma(1.0 / n) ** 2 / (n * math.gamma(2.0 / n))


def gamma_corner_radius(n: int) -> float:
    """|P| = |F(infinity)|, the length of each slit-edge image, in closed form."""
    return gamma_pi_n(n) / (4.0 * math.cos(math.pi / n))


def _binomial_table(n: int, d: int):
    """Coefficients and term counts of sum_k c_k x**k / (d + n*k), |x| <= 1/2.

    c_k = (beta)_k / k! with beta = (n-1)/n satisfies 0 < c_k <= 1, so the
    remainder after term K is at most |x|**(K+1) / ((d + n*(K+1)) (1 - |x|)).
    With 1 - |x| >= 1/2 that is below _SERIES_EPS / d once |x| <= radii[K];
    terms are added until radii covers |x| = 1/2.
    """
    beta = (n - 1) / n
    coeffs = []
    radii = []
    c = 1.0
    k = 0
    while not radii or radii[-1] < 0.5:
        coeffs.append(c / (d + n * k))
        c *= (beta + k) / (k + 1)
        k += 1
        radii.append((0.5 * _SERIES_EPS * (d + n * k) / d) ** (1.0 / k))
    return coeffs, radii


def _miller_power(p: list, alpha: float, terms: int) -> list:
    """First ``terms`` coefficients of p**alpha, for a power series with p[0] == 1.

    Miller's recurrence (Knuth, TAOCP vol. 2, 4.7), in floats.
    """
    q = [1.0]
    for m in range(1, terms):
        acc = 0.0
        for j in range(1, min(m, len(p) - 1) + 1):
            acc += ((alpha + 1.0) * j - m) * p[j] * q[m - j]
        q.append(acc / m)
    return q


def _corner_polynomial(n: int) -> list:
    """Coefficients of h(delta) = (1 - (1-delta)**n) / (n delta), with h(0) = 1."""
    return [math.comb(n, j + 1) / n * (-1) ** j for j in range(n)]


def _corner_table(n: int):
    """Coefficients and term counts of the corner chart Q(delta) = sum_k q_k delta**k.

    A - F(1 - delta) = n^(1/n) delta^(1/n) Q(delta) with q_k = g_k / (n*k + 1),
    g = h**(-beta) and h = _corner_polynomial(n) = prod_j (1 - delta/(1 - omega**j))
    over j = 1..n-1.  On |delta| = r below rho = 2 sin(pi/n), the distance to
    the nearest root, |g| <= M(r) = prod_j (1 - r/|1 - omega**j|)**(-beta), so
    by Cauchy's estimate the remainder after k terms at |delta| = t*r is at
    most M(r) t**k / ((n*k + 1) (1 - t)).  radii[k-1] is a |delta| where that
    is below _SERIES_EPS; r = rho k / (k + 2 beta) minimises the bound for the
    two nearest roots.  Terms are added until radii covers the half-sector
    annulus, |delta| <= |1 - 2**(+-1/n) e^(i pi/n)|.
    """
    beta = (n - 1) / n
    rho = 2.0 * math.sin(math.pi / n)
    dist = [2.0 * math.sin(math.pi * j / n) for j in range(1, n)]
    reach = max(abs(1.0 - 2.0 ** (s / n) * cmath.exp(1j * math.pi / n)) for s in (-1, 1))
    radii = []
    while not radii or radii[-1] < reach:
        k = len(radii) + 1
        r = rho * k / (k + 2.0 * beta)
        log_m = -beta * sum(math.log1p(-r / d) for d in dist)
        c = _SERIES_EPS * (n * k + 1) * math.exp(-log_m)
        # t = c**(1/k) overshoots the root of t**k / (1 - t) = c; one step of
        # t -> (c (1 - t))**(1/k) from there lands below it
        t = (c * (1.0 - c ** (1.0 / k))) ** (1.0 / k)
        radii.append(t * r)
    g = _miller_power(_corner_polynomial(n), -beta, len(radii))
    return [a / (n * k + 1) for k, a in enumerate(g)], radii


class _SeriesTables(NamedTuple):
    """Per-n constants of the kernel; P and A come from the gamma closed form."""

    inner: tuple      # binomial table of the series at 0
    outer: tuple      # binomial table of the series at infinity
    chart: tuple      # table of Q, the corner chart
    corner: complex   # P
    phase: complex    # e^(i pi beta)
    half: float       # A, the half period


@functools.lru_cache(maxsize=None)
def _series_tables(n: int) -> _SeriesTables:
    return _SeriesTables(
        _binomial_table(n, 1), _binomial_table(n, n - 2), _corner_table(n),
        gamma_corner_radius(n) * cmath.exp(1j * math.pi / n),
        cmath.exp(1j * math.pi * (n - 1) / n), 0.5 * gamma_pi_n(n))


def _binomial_sum(table, x: complex) -> complex:
    """A table's series at x by Horner, cut at half an ulp of its leading term."""
    coeffs, radii = table
    last = bisect.bisect_left(radii, abs(x))
    acc = 0j
    for a in coeffs[last::-1]:
        acc = acc * x + a
    return acc


def _series_tail(n: int, u: complex) -> complex | None:
    """Integral of t**(1-n) (1 - t**-n)**(-beta) from u to infinity, or None.

    Equals sum_k c_k u**(2-n-nk) / (n-2+nk) when |u**n| >= SERIES_OUTER and
    is None otherwise.  Only integer powers of u appear, so the value is the
    continuation from inside the sector onto both of its boundary rays.
    """
    if abs(u) <= 1.0:
        return None
    v = 1.0 / u
    lead = v ** (n - 2)
    y = lead * v * v
    if abs(y) > 1.0 / SERIES_OUTER:
        return None
    return lead * _binomial_sum(_series_tables(n).outer, y)


def sector_ray_integral(n: int, u: complex) -> complex:
    """F(u), the integral of the arcsine kernel along [0, u], from three series.

    With x = u**n, beta = (n-1)/n and c_k = (beta)_k / k!:

    * |x| <= SERIES_INNER:  F(u) = u * sum_k c_k x**k / (n*k + 1);
    * |x| >= SERIES_OUTER:  F(u) = P - e^(i pi beta) * _series_tail(n, u),
      with P from the gamma closed form; the leading term is the pole
      asymptote of F;
    * in the annulus between them, the chart at the corner
      F(1 - delta) = A - n^(1/n) delta^(1/n) Q(delta), with A from the gamma
      closed form.  Points of phase above pi/n use the chart at omega
      through F(omega v) = omega F(v), with the real coefficients of Q.

    Valid on the closed base sector: the boundary rays past their roots of
    unity take the value continued from inside, the lower slit edge
    included.  Each sum is cut by its proven remainder bound at half an ulp
    of its leading term, so the result carries only rounding error (about
    1e-15 relative).
    """
    if abs(u) <= 1.0:
        x = u ** n
        if abs(x) <= SERIES_INNER:
            return u * _binomial_sum(_series_tables(n).inner, x)
    else:
        tail = _series_tail(n, u)
        if tail is not None:
            tables = _series_tables(n)
            return tables.corner - tables.phase * tail
    if cmath.phase(u) > math.pi / n:
        omega = cmath.exp(2j * math.pi / n)
        return omega * _corner_series(n, omega * u.conjugate()).conjugate()
    return _corner_series(n, u)


def _corner_series(n: int, u: complex) -> complex:
    """F(u) from the chart at 1, for u in the lower half of the annulus.

    Beyond the root, delta^(1/n) takes the branch continued from inside the
    sector, where Im u > 0 and arg delta lies in (-pi, 0).  That is the
    principal root, except on the real ray itself, where it is
    |delta|^(1/n) e^(-i pi/n), and a hair below it, where rounding can put
    the reflection of a point on the upper ray.
    """
    tables = _series_tables(n)
    delta = 1.0 - u
    if delta.real < 0.0 and delta.imag >= 0.0:
        root = abs(delta) ** (1.0 / n) * cmath.exp(-1j * abs(cmath.phase(delta)) / n)
    else:
        root = delta ** (1.0 / n)
    return tables.half - n ** (1.0 / n) * root * _binomial_sum(tables.chart, delta)


def sector_segment_integral(n: int, za: complex, zb: complex,
                            tol: float = DEFAULT_QUAD_TOL,
                            max_evals: int = 8_000) -> complex:
    """Principal-branch integral of the arcsine kernel along [za, zb], by GK15.

    Both endpoints (and hence the whole segment) must lie in the closed base
    sector away from the slit part of its boundary, where the principal
    branch is the continuous one.  No evaluation route uses it; it is the
    independent quadrature that ``verify`` checks the series against.  The
    evaluation budget is deliberately small.
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
# Newton inversion of the sector integral
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NewtonResult:
    z: complex
    residual: float
    iterations: int


def _in_sector(n: int, z: complex, slack: float = 1e-9) -> bool:
    """Acceptance region for Newton iterates.

    The closed base sector, except that beyond the unit circle the boundary
    rays are slits (the principal branch flips sides across them), so
    iterates there must keep an angular margin from both rays.  Real targets
    with real solutions stay below radius 1 and are unaffected.
    """
    if abs(z) < 1e-300:
        return True
    phi = cmath.phase(z)
    if not (-slack <= phi <= TWO_PI / n + slack):
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
    for it in range(1, max_iter + 1):
        if resid <= tol:
            return NewtonResult(z, resid, it - 1)
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
    return NewtonResult(z, resid, max_iter)


def newton_invert(n: int, w: complex, z0: complex,
                  tol: float = 1e-12, max_iter: int = 50) -> NewtonResult:
    """Solve F(z) = w for the sector integral F, starting from z0.

    Damped Newton steps use the closed-form reciprocal slope
    (1 - z**n)**((n-1)/n); on stagnation the solver re-seeds itself by
    marching w from F(z0) toward the target.  Raises ConvergenceError with
    the last residual when both strategies fail.
    """
    res = _newton_basic(n, w, z0, tol, max_iter)
    if res.residual <= tol:
        return res

    # Path continuation: walk the target from F(z0) to w.
    z = z0
    base = sector_ray_integral(n, z)
    stages = 10
    last = res
    for j in range(1, stages + 1):
        wj = base + (w - base) * (j / stages)
        stage_tol = tol if j == stages else max(tol, 1e-10)
        last = _newton_basic(n, wj, z, stage_tol, max_iter)
        if last.residual > stage_tol and j < stages:
            continue
        z = last.z
    if last.residual <= tol:
        return last
    raise ConvergenceError(
        f"newton_invert stalled at residual {last.residual:.3g} "
        f"(target {tol:g})", residual=last.residual)


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
