"""Exact rational power series: the record, the sine's coefficients and a
radius estimate.

``RationalSeries`` holds a sparse series with exact coefficients,
``_ode_coefficients`` gives the sine's and the cosine's Maclaurin
coefficients from their ODE pair, and ``radius_estimate`` extrapolates a
convergence radius from the coefficient ratios.  No evaluation route runs
any of it: ``import squig`` does not load this module.  ``maclaurin`` loads
it at its first call, and ``squig.RationalSeries`` and
``squig.radius_estimate`` at their first use.  ``fractions`` is imported
where exact arithmetic runs.
"""

from __future__ import annotations

import math
import numbers

from .errors import InvalidSeriesError, ParameterError, _shown
from .numerics import _FrozenRecord


class RationalSeries(_FrozenRecord):
    """Sparse power series with exact rational coefficients.

    degrees are strictly increasing positive integers and coefficients are
    nonzero Fractions; the pair (degrees[i], coeffs[i]) is one term.
    """

    __slots__ = ("degrees", "coeffs")
    degrees: tuple
    coeffs: tuple

    def __init__(self, degrees: tuple, coeffs: tuple):
        if len(degrees) != len(coeffs):
            raise InvalidSeriesError("degrees and coeffs must align")
        last = 0
        for d, c in zip(degrees, coeffs):
            if d < 1 or (last and d <= last):
                raise InvalidSeriesError("degrees must be strictly increasing and >= 1")
            if c == 0:
                raise InvalidSeriesError("zero coefficients are not stored")
            last = d
        _set_degrees(self, degrees)
        _set_coeffs(self, coeffs)

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


_set_degrees, _set_coeffs = (getattr(RationalSeries, name).__set__
                             for name in RationalSeries.__slots__)


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


def _ode_coefficients(n: int, terms: int) -> tuple:
    """First ``terms`` exact Maclaurin coefficients (S_k, C_k) of the ODE
    pair: sin_n = z S(z**n) and cos_n = C(z**n).

    With x = z**n, s = z S(x) and c = C(x), the ODE pair s' = c**(n-1),
    c' = -s**(n-1) becomes (1 + n k) S_k = [C**(n-1)]_k and
    n (k + 1) C_(k+1) = -[S**(n-1)]_k.  The powers are extended one term at a
    time by Miller's recurrence (Knuth, TAOCP vol. 2, 4.7); with the exponent n - 1
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


def radius_estimate(series: RationalSeries) -> float:
    """Convergence radius from coefficient-ratio extrapolation.

    Consecutive nonzero coefficients give radius estimates
    ``|a_j / a_k|^(1/(k-j))``; with eight or more of them the last three are
    extrapolated to infinite degree (quadratic in 1/degree), otherwise the
    last one is returned as-is.  Needs at least four nonzero terms, each a
    rational (an int or a Fraction).  Each ratio is split into a power of 2
    and a mantissa in (1/2, 2) from the integer numerators and denominators
    (log space in base 2), so coefficients of any size give a value: a
    radius below the float range reads as 0.0, one beyond it as
    ``math.inf``, and so does the result if it uses one.
    """
    if not isinstance(series, RationalSeries):
        raise ParameterError(f"radius estimation needs a RationalSeries, got {_shown(series)}")
    pairs = sorted(zip(series.degrees, series.coeffs))
    if len(pairs) < 4:
        raise InvalidSeriesError(
            f"radius estimation needs at least 4 nonzero terms, got {len(pairs)}"
        )
    if not all(isinstance(c, numbers.Rational) for _, c in pairs):
        raise InvalidSeriesError("radius estimation needs rational coefficients")
    pts = []
    for (d1, a1), (d2, a2) in zip(pairs, pairs[1:]):
        # |a1 / a2| = m 2**shift, m in (1/2, 2) rounded once, from the
        # integers: no quotient leaves the float range on the way
        num = abs(a1.numerator) * a2.denominator
        den = a1.denominator * abs(a2.numerator)
        shift = num.bit_length() - den.bit_length()
        m = (num << max(0, -shift)) / (den << max(0, shift))
        gap = d2 - d1
        try:
            y = m ** (1.0 / gap) * 2.0 ** (shift / gap)
        except OverflowError:  # a radius beyond the float range
            y = math.inf
        pts.append((1.0 / d2, y))
    if len(pts) >= 8:
        (x0, y0), (x1, y1), (x2, y2) = pts[-3:]
        if math.inf in (y0, y1, y2):
            return math.inf
        y01 = (x0 * y1 - x1 * y0) / (x0 - x1)
        y12 = (x1 * y2 - x2 * y1) / (x1 - x2)
        return (x0 * y12 - x2 * y01) / (x0 - x2)
    return pts[-1][1]
