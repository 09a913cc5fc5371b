"""Exact series arithmetic, compositional reversion and the sine's series."""

from fractions import Fraction

import pytest

from squig.errors import InvalidSeriesError, ParameterError
from squig.geometry import make_context
from squig.numerics import revert_series
from squig.series import RationalSeries, _ode_coefficients
from squig.squigfn import maclaurin


def forward_series(n: int, terms: int) -> RationalSeries:
    """Exact antiderivative series of the binomial kernel (1 - t^n)^(-(n-1)/n).

    Coefficient of z^(jn+1) is binom(beta)_j / (j! (jn+1)) with rising
    factorial of beta = (n-1)/n; assembled here independently of the library
    evaluation code.
    """
    beta = Fraction(n - 1, n)
    degrees, coeffs = [1], [Fraction(1)]
    c = Fraction(1)
    for j in range(1, terms):
        c *= (beta + j - 1) / j
        degrees.append(j * n + 1)
        coeffs.append(c / (j * n + 1))
    return RationalSeries(tuple(degrees), tuple(coeffs))


def compose_truncated(outer: RationalSeries, inner: RationalSeries,
                      max_degree: int) -> dict:
    """Dense coefficients of outer(inner(z)) up to max_degree, exact."""
    inner_dense = [Fraction(0)] * (max_degree + 1)
    for d, c in zip(inner.degrees, inner.coeffs):
        if d <= max_degree:
            inner_dense[d] = c
    # powers of inner by repeated polynomial multiplication
    result = [Fraction(0)] * (max_degree + 1)
    power = [Fraction(0)] * (max_degree + 1)
    power[0] = Fraction(1)
    next_wanted = dict(zip(outer.degrees, outer.coeffs))
    top = max(outer.degrees)
    for k in range(1, min(top, max_degree) + 1):
        new = [Fraction(0)] * (max_degree + 1)
        for i, a in enumerate(power):
            if a == 0:
                continue
            for j in range(1, max_degree + 1 - i):
                b = inner_dense[j]
                if b != 0:
                    new[i + j] += a * b
        power = new
        c = next_wanted.get(k)
        if c:
            for i, a in enumerate(power):
                result[i] += c * a
    return {i: v for i, v in enumerate(result) if v != 0}


class TestRationalSeries:
    def test_coefficient_lookup(self):
        s = RationalSeries((1, 4), (Fraction(1), Fraction(-1, 6)))
        assert s.coefficient(4) == Fraction(-1, 6)
        assert s.coefficient(3) == Fraction(0)

    def test_validation(self):
        with pytest.raises(InvalidSeriesError):
            RationalSeries((1, 1), (Fraction(1), Fraction(2)))
        with pytest.raises(InvalidSeriesError):
            RationalSeries((0,), (Fraction(1),))
        with pytest.raises(InvalidSeriesError):
            RationalSeries((1,), (Fraction(0),))
        with pytest.raises(InvalidSeriesError):
            RationalSeries((1, 4), (Fraction(1),))

    def test_evaluate_matches_brute_force(self, rng):
        s = forward_series(3, 6)
        for _ in range(20):
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            brute = sum(complex(c) * z ** d for d, c in zip(s.degrees, s.coeffs))
            assert abs(s.evaluate(z) - brute) < 1e-14

    def test_truncate(self):
        s = forward_series(3, 6)
        t = s.truncate(7)
        assert t.degrees == (1, 4, 7)


class TestReversion:
    def test_cubic_kernel_inverse_coefficients(self):
        # Frozen exact values for the degree-3 inverse series.
        inv = revert_series(forward_series(3, 8), 5)
        expected = {
            1: Fraction(1),
            4: Fraction(-1, 6),
            7: Fraction(2, 63),
            10: Fraction(-13, 2268),
            13: Fraction(23, 22113),
        }
        assert dict(zip(inv.degrees, inv.coeffs)) == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_composition_is_identity(self, n):
        terms = 6
        fwd = forward_series(n, terms + 2)
        inv = revert_series(fwd, terms)
        max_degree = inv.degrees[-1]
        comp = compose_truncated(fwd, inv, max_degree)
        assert comp == {1: Fraction(1)}

    def test_geometric_series_inverse(self):
        # z + z^2 + ... + z^6 inverts to alternating signs of z/(1+z).
        s = RationalSeries(tuple(range(1, 7)), tuple(Fraction(1) for _ in range(6)))
        inv = revert_series(s, 6)
        assert inv.degrees == (1, 2, 3, 4, 5, 6)
        assert list(inv.coeffs) == [Fraction((-1) ** (k + 1)) for k in range(1, 7)]

    def test_identity_series(self):
        s = RationalSeries((1,), (Fraction(1),))
        inv = revert_series(s, 5)
        assert inv.degrees == (1,) and inv.coeffs == (Fraction(1),)

    def test_requires_unit_leading_term(self):
        with pytest.raises(InvalidSeriesError):
            revert_series(RationalSeries((1, 3), (Fraction(2), Fraction(1))), 4)
        with pytest.raises(InvalidSeriesError):
            revert_series(RationalSeries((2, 3), (Fraction(1), Fraction(1))), 4)

    def test_requires_positive_terms(self):
        with pytest.raises(ParameterError):
            revert_series(forward_series(3, 4), 0)

    def test_sparsity_respected(self):
        # Input supported on degrees 1 mod 4 keeps the inverse on 1 mod 4.
        inv = revert_series(forward_series(4, 8), 6)
        assert all(d % 4 == 1 for d in inv.degrees)


class TestMaclaurinMatchesReversion:
    """The ODE recurrence of ``maclaurin`` against reversion of the series of F."""

    @pytest.mark.parametrize("n", range(3, 65))
    def test_thirty_terms(self, n):
        assert maclaurin(make_context(n), 30) == revert_series(forward_series(n, 31), 30)

    def test_eighty_terms_n32(self):
        assert maclaurin(make_context(32), 80) == revert_series(forward_series(32, 81), 80)


def sine_coefficients_reference(n: int, terms: int) -> list:
    """The sine half of ``_ode_coefficients`` with one Fraction per
    addition, as the library formed them before it summed integer
    numerators over a common denominator."""

    def next_power_term(base, power, m):
        return sum((n * j - m) * base[j] * power[m - j] for j in range(1, m + 1)) / m

    s, c = [Fraction(1)], [Fraction(1)]
    s_pow, c_pow = [Fraction(1)], [Fraction(1)]
    for m in range(1, terms):
        if m > 1:
            s_pow.append(next_power_term(s, s_pow, m - 1))
        c.append(-s_pow[m - 1] / (n * m))
        c_pow.append(next_power_term(c, c_pow, m))
        s.append(c_pow[m] / (1 + n * m))
    return s


@pytest.mark.parametrize("n", range(3, 65))
def test_common_denominator_sums_match_reference(n):
    assert _ode_coefficients(n, 30)[0] == sine_coefficients_reference(n, 30)
