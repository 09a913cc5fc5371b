"""Exact rational power series: the record, the sine's coefficients and a
radius estimate.

``RationalSeries`` holds a sparse series with exact coefficients,
``_power_term`` is the one exact step of Miller's power recurrence, which
``_ode_coefficients`` (the sine's and the cosine's Maclaurin coefficients
from their ODE pair), the table builders and series reversion run on, and
``radius_estimate`` extrapolates a convergence radius from the coefficient
ratios.  No evaluation route runs any of it: ``import squig`` does not
load this module.  ``maclaurin`` loads it at its first call, and
``squig.RationalSeries`` and ``squig.radius_estimate`` at their first use.
Every user of this module runs exact arithmetic, so it imports ``fractions``.
"""

from __future__ import annotations

import bisect
import cmath
import math
import numbers
from fractions import Fraction

from .errors import InvalidSeriesError, ParameterError, _as_point, _is_int, _shown
from .numerics import _FrozenRecord


class RationalSeries(_FrozenRecord):
    """Sparse power series with exact rational coefficients.

    degrees are strictly increasing positive integers and coefficients are
    nonzero rationals (ints or Fractions), both in tuples; the pair
    (degrees[i], coeffs[i]) is one term.  Anything else raises
    ParameterError (what is not a tuple) or InvalidSeriesError.
    """

    __slots__ = ("degrees", "coeffs")
    degrees: tuple
    coeffs: tuple

    def __init__(self, degrees: tuple, coeffs: tuple):
        if not (isinstance(degrees, tuple) and isinstance(coeffs, tuple)):
            raise ParameterError(f"degrees and coeffs must be tuples, got "
                                 f"{type(degrees).__name__} and {type(coeffs).__name__}")
        if len(degrees) != len(coeffs):
            raise InvalidSeriesError("degrees and coeffs must align")
        last = 0
        for d, c in zip(degrees, coeffs):
            if not _is_int(d) or d <= last:
                raise InvalidSeriesError(
                    f"degrees must be strictly increasing integers >= 1, got {_shown(d)}")
            if isinstance(c, bool) or not isinstance(c, numbers.Rational) or c == 0:
                raise InvalidSeriesError(
                    f"coefficients must be nonzero rationals, got {_shown(c)}")
            last = d
        _set_degrees(self, degrees)
        _set_coeffs(self, coeffs)

    def coefficient(self, degree: int) -> Fraction:
        _check_int(degree, "degree")
        for d, c in zip(self.degrees, self.coeffs):
            if d == degree:
                return c
            if d > degree:
                break
        return Fraction(0)

    def term_count(self) -> int:
        return len(self.degrees)

    def truncate(self, max_degree: int) -> "RationalSeries":
        _check_int(max_degree, "max_degree")
        return self.head(bisect.bisect_right(self.degrees, max_degree))

    def head(self, terms: int) -> "RationalSeries":
        if _check_int(terms, "terms") < 0:
            raise ParameterError(f"terms must be nonnegative, got {terms}")
        return RationalSeries(self.degrees[:terms], self.coeffs[:terms])

    def evaluate(self, z: complex) -> complex:
        """Sum of c z**d over the terms, by Horner over the degree gaps, in
        floats; ParameterError where it has no finite float value."""
        z = _as_point(z)
        total, prev = 0j, 0
        try:
            for d, c in zip(reversed(self.degrees), reversed(self.coeffs)):
                if prev:
                    total *= z ** (prev - d)
                total += complex(c)
                prev = d
            if prev:
                total *= z ** prev
        except OverflowError:
            total = math.nan
        if not cmath.isfinite(total):
            raise ParameterError(f"the series has no finite float value at {_shown(z)}")
        return total


_set_degrees, _set_coeffs = (getattr(RationalSeries, name).__set__
                             for name in RationalSeries.__slots__)


def _check_int(value, name: str) -> int:
    if not _is_int(value):
        raise ParameterError(f"{name} must be an integer, got {_shown(value)}")
    return value


def _power_term(base: list, power: list, m: int, num: int, den: int = 1) -> Fraction:
    """Coefficient m of power = base**(num/den), exactly, from power's first m.

    Miller's recurrence (Knuth, TAOCP vol. 2, 4.7), base[0] and power[0]
    being 1: den m power_m = sum_j ((num + den) j - den m) base_j
    power_(m-j), over j = 1..m, with entries beyond base's end taken as 0.
    The sum is ``_lcm_sum``'s.
    """
    weight, dm = num + den, den * m
    return _lcm_sum([((weight * j - dm) * base[j].numerator * power[m - j].numerator,
                      base[j].denominator * power[m - j].denominator)
                     for j in range(1, min(m, len(base) - 1) + 1)], dm)


def _lcm_sum(parts: list, den: int) -> Fraction:
    """The sum of p / q over the integer pairs (p, q) of ``parts``, over
    den > 0, exactly.  The numerators are summed over the lcm of the
    denominators: one Fraction (one gcd), not one per addition.
    """
    lcm = math.lcm(*(q for _, q in parts))
    return Fraction(sum(p * (lcm // q) for p, q in parts), lcm * den)


def _ode_coefficients(n: int, terms: int) -> tuple:
    """First ``terms`` exact Maclaurin coefficients (S_k, C_k) of the ODE
    pair: sin_n = z S(z**n) and cos_n = C(z**n).

    With x = z**n, s = z S(x) and c = C(x), the ODE pair s' = c**(n-1),
    c' = -s**(n-1) becomes (1 + n k) S_k = [C**(n-1)]_k and
    n (k + 1) C_(k+1) = -[S**(n-1)]_k.  The powers are extended one term at
    a time by ``_power_term``.
    """
    s, c = [Fraction(1)], [Fraction(1)]
    s_pow, c_pow = [Fraction(1)], [Fraction(1)]  # S**(n-1) and C**(n-1)
    for m in range(1, terms):
        if m > 1:
            s_pow.append(_power_term(s, s_pow, m - 1, n - 1))
        c.append(-s_pow[m - 1] / (n * m))
        c_pow.append(_power_term(c, c_pow, m, n - 1))
        s.append(c_pow[m] / (1 + n * m))
    return s, c


def radius_estimate(series: RationalSeries) -> float:
    """Convergence radius from coefficient-ratio extrapolation.

    Consecutive nonzero coefficients give radius estimates
    ``|a_j / a_k|^(1/(k-j))``; with eight or more of them the last three are
    extrapolated to infinite degree (quadratic in 1/degree), otherwise the
    last one is returned as-is.  Needs at least four nonzero terms.  Each
    ratio is split into a power of 2 and a mantissa in (1/2, 2) from the
    integer numerators and denominators (log space in base 2), so
    coefficients of any size give a value: a radius below the float range
    reads as 0.0, one beyond it as ``math.inf``, and so does the result if
    it uses one.
    """
    if not isinstance(series, RationalSeries):
        raise ParameterError(f"radius estimation needs a RationalSeries, got {_shown(series)}")
    pairs = sorted(zip(series.degrees, series.coeffs))
    if len(pairs) < 4:
        raise InvalidSeriesError(
            f"radius estimation needs at least 4 nonzero terms, got {len(pairs)}"
        )
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
