"""The evaluation kernel: the series of the sector map and their tables.

This module holds what evaluation runs on: the exact Maclaurin coefficients
of the sine from its ODE pair (``_ode_coefficients``) and their scaled float
tables (``_ode_tables``), the table of the pole series that inverts the map
near P (``_pole_table``), and the three series of the sector map ``F``, at
0, at infinity and the corner chart between them
(``sector_ray_integral``).  The constants A and P come from the same series
(``_series_tables``), with no quadrature and no gamma function.  Every sum
is cut by a proven remainder bound at half an ulp of its leading term.

The routes that ``verify`` and the tests compare against (the quadrature
rules, series reversion, the GK15 leg of the sector map, the Newton
inverter and the winding count) live in :mod:`squig.reference`, which
``import squig`` does not load.  Their names still resolve here, through
the module ``__getattr__`` below, and load it at first use.  So does
``fractions``: it is imported where exact arithmetic runs.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidSeriesError

# The public names that live in ``reference``, and the private ones that
# bench/spans.py and the tests read here; ``numerics.<name>`` loads it.
_REFERENCE_NAMES = frozenset((
    "DEFAULT_QUAD_TOL", "NewtonResult", "QuadratureResult", "TWO_PI", "_MAX_QUAD_LEVEL",
    "_newton_basic", "_tanh_sinh", "integrate_endpoint_singular", "integrate_smooth",
    "integrate_tail", "nearest_root_distance", "newton_invert", "principal_power",
    "revert_series", "sector_segment_integral", "winding_number",
))


def __getattr__(name):
    if name in _REFERENCE_NAMES:
        from . import reference
        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _REFERENCE_NAMES)


# ---------------------------------------------------------------------------
# Exact rational series
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
            if d < 1 or (last and d <= last):
                raise InvalidSeriesError("degrees must be strictly increasing and >= 1")
            if c == 0:
                raise InvalidSeriesError("zero coefficients are not stored")
            last = d

    def coefficient(self, degree: int) -> Fraction:
        from fractions import Fraction

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
        return _sparse_horner(zip(reversed(self.degrees), map(complex, reversed(self.coeffs))), z)


def _sparse_horner(terms, z: complex) -> complex:
    """Sum of c * z**d over (d, c) pairs given in decreasing degree, by Horner
    over the degree gaps."""
    total = 0j
    prev_degree = 0
    for d, c in terms:
        if prev_degree:
            total *= z ** (prev_degree - d)
        total += c
        prev_degree = d
    return total * z ** prev_degree if prev_degree else total




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


def _ode_coefficients(n: int, terms: int) -> tuple:
    """First ``terms`` exact Maclaurin coefficients (S_k, C_k) of the ODE
    pair: sin_n = z S(z**n) and cos_n = C(z**n).

    With x = z**n, s = z S(x) and c = C(x), the ODE pair s' = c**(n-1),
    c' = -s**(n-1) becomes (1 + n k) S_k = [C**(n-1)]_k and
    n (k + 1) C_(k+1) = -[S**(n-1)]_k.  The powers are extended one term at a
    time by Miller's recurrence, as in _miller_power; with the exponent n - 1
    every weight (alpha + 1) j - m = n j - m is an integer, so each sum is
    formed over one common denominator.
    """
    from fractions import Fraction

    def next_power_term(base, power, m):
        # integer numerators over the lcm of the term denominators, so the
        # sum makes one Fraction (one gcd) instead of one per addition
        parts = [((n * j - m) * base[j].numerator * power[m - j].numerator,
                  base[j].denominator * power[m - j].denominator) for j in range(1, m + 1)]
        den = math.lcm(*(q for _, q in parts))
        return Fraction(sum(p * (den // q) for p, q in parts), den * m)

    s, c = [Fraction(1)], [Fraction(1)]
    s_pow, c_pow = [Fraction(1)], [Fraction(1)]  # S**(n-1) and C**(n-1)
    for m in range(1, terms):
        if m > 1:
            s_pow.append(next_power_term(s, s_pow, m - 1))
        c.append(-s_pow[m - 1] / (n * m))
        c_pow.append(next_power_term(c, c_pow, m))
        s.append(c_pow[m] / (1 + n * m))
    return s, c


# Length of the ODE pair's float tables.  A sum of K terms of a table whose
# entries are at most 2 in modulus leaves at most 2 rho**K / (1 - rho).
ODE_TERMS = 64
# Fixed-point bits of the tables' recurrence.
_ODE_BITS = 110


# ODE_RADII[K-1] is a rho where 2 rho**K / (1 - rho) <= _SERIES_EPS, so K
# terms of such a table leave less than half an ulp.  With c = _SERIES_EPS/2,
# c**(1/K) overshoots the root of rho**K / (1 - rho) = c; one step of
# rho -> (c (1 - rho))**(1/K) from there lands below it.
ODE_RADII = tuple((0.5 * _SERIES_EPS * (1.0 - (0.5 * _SERIES_EPS) ** (1.0 / k))) ** (1.0 / k)
                  for k in range(1, ODE_TERMS + 1))


def _fixed_power_term(base: list, power: list, m: int, num: int, den: int, bits: int) -> int:
    """Coefficient m of power = base**(num/den), in fixed point at 2**-bits.

    Miller's recurrence (Knuth, TAOCP vol. 2, 4.7) on integers, base[0] and
    power[0] being 1: den m power_m = sum_j ((num + den) j - den m) base_j
    power_(m-j), over j = 1..m, with entries beyond base's end taken as 0.
    The sum is exact and rounded down once.
    """
    weight, dm = num + den, den * m
    acc = sum((weight * j - dm) * base[j] * power[m - j]
              for j in range(1, min(m, len(base) - 1) + 1))
    return acc // (dm << bits)


def _ode_tables(n: int, scale: float) -> tuple:
    """Tables a_k = S_k scale**k and b_k = C_k scale**k of the ODE pair.

    The recurrence of _ode_coefficients on the scaled values: with
    s = z S(x), c = C(x) and x = scale * X it reads (1 + n k) a_k =
    [b**(n-1)]_k and n (k + 1) b_(k+1) = -scale [a**(n-1)]_k.  With
    scale = R**n every entry stays within [-2, 2] for n = 3..64, so nothing
    over- or underflows.  It runs on integers in fixed point at
    2**-_ODE_BITS, and each entry is the scaled coefficient rounded once;
    the same recurrence in floats drifts by about one ulp per entry.
    """
    one = 1 << _ODE_BITS
    sig = int(math.ldexp(scale, _ODE_BITS))  # exact: scale is a float above 2**-58
    a, b = [one], [one]
    a_pow, b_pow = [one], [one]  # a**(n-1) and b**(n-1)
    for m in range(1, ODE_TERMS):
        if m > 1:
            a_pow.append(_fixed_power_term(a, a_pow, m - 1, n - 1, 1, _ODE_BITS))
        b.append(-(sig * a_pow[m - 1]) // ((n * m) << _ODE_BITS))
        b_pow.append(_fixed_power_term(b, b_pow, m, n - 1, 1, _ODE_BITS))
        a.append(b_pow[m] // (1 + n * m))
    return tuple(v / one for v in a), tuple(v / one for v in b)


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


def _real_chart(n: int, chart, delta: float) -> float:
    """n^(1/n) |delta|^(1/n) Q(delta) for real delta: A - F(1 - delta) if
    delta > 0, else the integral of (t**n - 1)**(-beta) over [1, 1 - delta],
    the distance from A along the image of the lower slit edge."""
    return n ** (1.0 / n) * abs(delta) ** (1.0 / n) * _binomial_sum(chart, delta).real


class _SeriesTables(NamedTuple):
    """Per-n constants of the kernel, the one source of A and P.

    Both come from the tables, with no gamma function or quadrature:
    A = F(c) + (A - F(c)) at c = 2^(-1/n), where the series at 0 meets the
    chart, and |P| is the edge integral over [1, x] plus the tail beyond x
    at x = 2^(1/n), where the chart meets the series at infinity.  Both are
    within 3e-16 relative of the exact values for n = 3..64.

    The ODE pair's tables (``_ode_tables``) serve the inverse: their sums
    converge for |t**n| < R**n, and ``disc`` is the radius where 64 terms
    reach half an ulp, ODE_RADII[-1]**(1/n) R (0.817 R at n = 3, 0.9905 R
    at n = 64).  Each disc sums the one table of the value asked for, sliced
    backwards from its cut (``sine[last::-1]``) for Horner.
    """

    inner: tuple      # binomial table of the series at 0
    outer: tuple      # binomial table of the series at infinity
    chart: tuple      # table of Q, the corner chart
    corner: complex   # P
    phase: complex    # e^(i pi beta)
    half: float       # A, the half period
    sine: tuple       # a_k = S_k R**(n k), the ODE pair's sine table
    cosine: tuple     # b_k = C_k R**(n k), its cosine table
    scale: float      # R**n, the unit of x = t**n in both
    disc: float       # radius of the discs at 0 and at A that the tables cover
    omega: complex    # e^(2 pi i/n), the root of the corner chart's upper half


@functools.lru_cache(maxsize=None)
def _series_tables(n: int) -> _SeriesTables:
    inner, outer, chart = _binomial_table(n, 1), _binomial_table(n, n - 2), _corner_table(n)
    c, x = 2.0 ** (-1.0 / n), 2.0 ** (1.0 / n)
    half = c * _binomial_sum(inner, c ** n).real + _real_chart(n, chart, 1.0 - c)
    # the tail at x summed directly: _series_tail refuses x**-n a hair above 1/2
    radius = _real_chart(n, chart, 1.0 - x) + x ** (2 - n) * _binomial_sum(outer, x ** -n).real
    scale = radius ** n
    sine, cosine = _ode_tables(n, scale)
    return _SeriesTables(inner, outer, chart, radius * cmath.exp(1j * math.pi / n),
                         cmath.exp(1j * math.pi * (n - 1) / n), half,
                         sine, cosine, scale, ODE_RADII[-1] ** (1.0 / n) * radius,
                         cmath.exp(2j * math.pi / n))


# Fixed-point bits of the pole table's recurrence.  It runs on k_j 8**j,
# which stays near 1 where k_j falls to 1e-43, so no entry loses precision.
_POLE_BITS = 192
_POLE_SHIFT = 3


@functools.lru_cache(maxsize=None)
def _pole_table(n: int) -> tuple:
    """Coefficients k_j of the pole series v = W k(W**n), and their rate.

    With v = 1/u, D = (n-2) (P - F(u)) e^(-i pi beta) = v**(n-2) g(v**n) and
    W = D**(1/(n-2)), dD/dv = (n-2) v**(n-3) (1 - v**n)**(-beta), so
    dv/dW = (W/v)**(n-3) (1 - v**n)**beta.  With v = W k(X), X = W**n, that
    reads (1 + n j) k_j = [k**(3-n) (1 - X k**n)**beta]_j, whose right side
    holds k_j only in k**(3-n)'s term (3-n) k_j.  So (n (j+1) - 2) k_j is the
    rest, from k_0 .. k_(j-1); each step extends the powers k**(3-n), k**n
    and h**beta, h = 1 - X k**n, by one term (``_fixed_power_term``), on
    integers at 2**-_POLE_BITS.  It runs in Y = 8 X, on k_j 8**j, so every
    entry keeps its relative precision and is rounded once.

    The rate is k's reciprocal radius: 1/|X| at the nearest singularity of
    v, the zero of u at t = 0 (|P - t| = R) or, from n = 6 on, the branch
    point at conj(P) (|P - t| = 2 R sin(pi/n)), with
    |X| = ((n-2) |P - t|)**(n/(n-2)).  Every |k_j| is below rate**j (tested
    on exact coefficients), so K terms at X leave at most q**K / (1 - q),
    q = rate |X|.  The table is long enough that this is below half an ulp
    on the whole route: targets of the half-kite triangle outside both
    discs, whose largest |X| lies where the two disc rims cross, or, once
    the discs part (n >= 9), where the disc at 0 meets the real axis:
    0.059 at n = 3, 3.25 at n = 9, 9 entries at n = 3 and 56 at n = 64.
    Built at first use, not in make_context.
    """
    tables = _series_tables(n)
    half, disc = tables.half, tables.disc

    def x_abs(dist):
        return ((n - 2) * dist) ** (n / (n - 2))

    rim = complex(half / 2, math.sqrt(disc * disc - half * half / 4)) if 2 * disc > half else disc
    rate = 1.0 / x_abs(abs(tables.corner) * min(1.0, 2.0 * math.sin(math.pi / n)))
    terms = bisect.bisect_left(ODE_RADII, rate * x_abs(abs(tables.corner - rim))) + 1
    one = 1 << _POLE_BITS
    k, h = [one], [one]
    inv_pow, n_pow, h_pow = [one], [one], [one]  # k**(3-n), k**n and h**beta
    for j in range(1, terms):
        h.append(-n_pow[j - 1] << _POLE_SHIFT)
        h_pow.append(_fixed_power_term(h, h_pow, j, n - 1, n, _POLE_BITS))
        rest = _fixed_power_term(k, inv_pow, j, 3 - n, 1, _POLE_BITS)  # k has no k_j yet
        kj = (rest + sum(inv_pow[i] * h_pow[j - i] for i in range(j)) // one) // (n * (j + 1) - 2)
        k.append(kj)
        inv_pow.append(rest - (n - 3) * kj)
        n_pow.append(_fixed_power_term(k, n_pow, j, n, 1, _POLE_BITS))
    return tuple(v / (one << _POLE_SHIFT * j) for j, v in enumerate(k)), rate


def _binomial_sum(table, x: complex) -> complex:
    """A table's series at x by Horner, cut at half an ulp of its leading term."""
    coeffs, radii = table
    last = bisect.bisect_left(radii, abs(x))
    acc = 0j
    for a in coeffs[last::-1]:
        acc = acc * x + a
    return acc


def _series_tail(tables: _SeriesTables, n: int, u: complex) -> complex | None:
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
    return lead * _binomial_sum(tables.outer, y)


def sector_ray_integral(n: int, u: complex) -> complex:
    """F(u), the integral of the arcsine kernel along [0, u], from three series.

    With x = u**n, beta = (n-1)/n and c_k = (beta)_k / k!:

    * |x| <= SERIES_INNER:  F(u) = u * sum_k c_k x**k / (n*k + 1);
    * |x| >= SERIES_OUTER:  F(u) = P - e^(i pi beta) * _series_tail(..., u);
      the leading term is the pole asymptote of F;
    * in the annulus between them, the chart at the corner
      F(1 - delta) = A - n^(1/n) delta^(1/n) Q(delta).  Points of phase
      above pi/n use the chart at omega through F(omega v) = omega F(v),
      with the real coefficients of Q.

    A and P come from the same series (``_SeriesTables``).  Valid on the
    closed base sector: the boundary rays past their roots of unity take the
    value continued from inside, the lower slit edge included.  Each sum is
    cut by its proven remainder bound at half an ulp of its leading term, so
    the result carries only rounding error (about 1e-15 relative).
    """
    tables = _series_tables(n)
    if abs(u) <= 1.0:
        x = u ** n
        if abs(x) <= SERIES_INNER:
            return u * _binomial_sum(tables.inner, x)
    else:
        tail = _series_tail(tables, n, u)
        if tail is not None:
            return tables.corner - tables.phase * tail
    if cmath.phase(u) > math.pi / n:
        omega = tables.omega
        return omega * _corner_series(tables, n, omega * u.conjugate()).conjugate()
    return _corner_series(tables, n, u)


def _corner_series(tables: _SeriesTables, n: int, u: complex) -> complex:
    """F(u) from the chart at 1, for u in the lower half of the annulus.

    Beyond the root, delta^(1/n) takes the branch continued from inside the
    sector, where Im u > 0 and arg delta lies in (-pi, 0).  That is the
    principal root, except on the real ray itself, where it is
    |delta|^(1/n) e^(-i pi/n), and a hair below it, where rounding can put
    the reflection of a point on the upper ray.
    """
    delta = 1.0 - u
    if delta.real < 0.0 and delta.imag >= 0.0:
        root = abs(delta) ** (1.0 / n) * cmath.exp(-1j * abs(cmath.phase(delta)) / n)
    else:
        root = delta ** (1.0 / n)
    return tables.half - n ** (1.0 / n) * root * _binomial_sum(tables.chart, delta)
