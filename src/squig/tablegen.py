"""The builders of the kernel's table file, ``_tables.bin``.

Every table is built by Miller's recurrence in exact rationals
(``series._power_term``), each entry rounded once: the ODE pair's tables,
the pole table, and F's three tables, whose entries are
[x**k] base**(-beta) / (d + n k) with base 1 - x for the binomial series
at 0 and at infinity and base h(delta) for the corner chart
(``_f_table``).  A and R = |P| are summed from F's tables
(``_corner_constants``).  ``_pack_tables`` returns the file's bytes, laid
out with the layout constants of :mod:`squig.numerics`, which reads the
file.  Regenerate the file with

    PYTHONPATH=src python -m squig.tablegen

in a checkout; it is written next to ``numerics``.  The builders are not a
fallback: evaluation only reads the file, and ``tests/test_tables.py``
checks it against a fresh build.  Only the generator and that test load
this module; neither ``import squig``, an evaluation nor the certification
suite does.
"""

from __future__ import annotations

import bisect
import cmath
import math
import struct
from fractions import Fraction

from .numerics import (
    _MAX_N,
    _MIN_N,
    _SERIES_EPS,
    _TABLES_ENTRY,
    _TABLES_HEADER,
    _TABLES_MAGIC,
    _TABLES_PATH,
    _TABLES_VERSION,
    ODE_RADII,
    ODE_TERMS,
    _binomial_sum,
    _unit_constants,
)
from .series import _ode_coefficients, _lcm_sum, _power_term


def _f_table(n: int, base: list, d: int, radii: list) -> tuple:
    """F's table [x**k] base**(-beta) / (d + n k), k < len(radii), with ``radii``.

    beta = (n-1)/n and base[0] = 1.  The power base**(-beta) is extended
    one exact term at a time (``series._power_term``), and each
    coefficient is its exact value rounded once.
    """
    power = [Fraction(1)]
    for m in range(1, len(radii)):
        power.append(_power_term(base, power, m, 1 - n, n))
    return [float(g / (d + n * k)) for k, g in enumerate(power)], radii


def _binomial_radii(n: int, d: int) -> list:
    """Term counts of the binomial table sum_k c_k x**k / (d + n*k), |x| <= 1/2.

    c_k = (beta)_k / k!, the coefficients of (1 - x)**(-beta), satisfies
    0 < c_k <= 1, so the remainder after term K is at most
    |x|**(K+1) / ((d + n*(K+1)) (1 - |x|)).  With 1 - |x| >= 1/2 that is
    below _SERIES_EPS / d once |x| <= radii[K]; terms are added until radii
    covers |x| = 1/2.
    """
    radii = []
    while not radii or radii[-1] < 0.5:
        k = len(radii) + 1
        radii.append((0.5 * _SERIES_EPS * (d + n * k) / d) ** (1.0 / k))
    return radii


def _chart_radii(n: int) -> list:
    """Term counts of the corner chart Q(delta) = sum_k q_k delta**k.

    A - F(1 - delta) = n^(1/n) delta^(1/n) Q(delta) with q_k = g_k / (n*k + 1),
    g = h**(-beta) and h(delta) = (1 - (1-delta)**n) / (n delta) =
    prod_j (1 - delta/(1 - omega**j)) over j = 1..n-1.  On |delta| = r below
    rho = 2 sin(pi/n), the distance to the nearest root,
    |g| <= M(r) = prod_j (1 - r/|1 - omega**j|)**(-beta), so by Cauchy's
    estimate the remainder after k terms at |delta| = t*r is at most
    M(r) t**k / ((n*k + 1) (1 - t)).  radii[k-1] is a |delta| where that is
    below _SERIES_EPS; r = rho k / (k + 2 beta) minimises the bound for the
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
    return radii


def _f_tables(n: int) -> tuple:
    """F's tables at 0, at infinity and at the corner, each (coefficients, radii)."""
    binomial = [Fraction(1), Fraction(-1)]
    h = [Fraction(math.comb(n, j + 1) * (-1) ** j, n) for j in range(n)]
    return (_f_table(n, binomial, 1, _binomial_radii(n, 1)),
            _f_table(n, binomial, n - 2, _binomial_radii(n, n - 2)),
            _f_table(n, h, 1, _chart_radii(n)))


def _corner_constants(n: int, inner, outer, chart) -> tuple:
    """A and R = |P| from F's tables at 0, at infinity and at the corner.

    A = F(c) + (A - F(c)) at c = 2^(-1/n), where the series at 0 meets the
    chart, and R is the edge integral over [1, x] plus the tail beyond x at
    x = 2^(1/n), where the chart meets the series at infinity.  For real
    delta, n^(1/n) |delta|^(1/n) Q(delta) is A - F(1 - delta) if delta > 0,
    else the integral of (t**n - 1)**(-beta) over [1, 1 - delta], the
    distance from A along the image of the lower slit edge.
    """
    def real_chart(delta: float) -> float:
        return n ** (1.0 / n) * abs(delta) ** (1.0 / n) * _binomial_sum(chart, delta).real

    c, x = 2.0 ** (-1.0 / n), 2.0 ** (1.0 / n)
    half = c * _binomial_sum(inner, c ** n).real + real_chart(1.0 - c)
    # the tail at x summed directly: _series_tail refuses x**-n a hair above 1/2
    radius = real_chart(1.0 - x) + x ** (2 - n) * _binomial_sum(outer, x ** -n).real
    return half, radius


def _ode_tables(n: int, scale: float) -> tuple:
    """Tables a_k = S_k scale**k and b_k = C_k scale**k of the ODE pair, each
    the exact value (``series._ode_coefficients``) rounded once.  With
    scale = R**n every entry lies within [-2, 2] for n = 3..64."""
    unit = Fraction(scale)
    return tuple(tuple(float(c * unit**k) for k, c in enumerate(exact))
                 for exact in _ode_coefficients(n, ODE_TERMS))


def _pole_reach(n: int, half: float, radius: float) -> tuple:
    """Length and rate of the pole table, from n's A and R.

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
    """
    corner, _, disc, _ = _unit_constants(n, radius)

    def x_abs(dist):
        return ((n - 2) * dist) ** (n / (n - 2))

    rim = complex(half / 2, math.sqrt(disc * disc - half * half / 4)) if 2 * disc > half else disc
    rate = 1.0 / x_abs(abs(corner) * min(1.0, 2.0 * math.sin(math.pi / n)))
    terms = bisect.bisect_left(ODE_RADII, rate * x_abs(abs(corner - rim))) + 1
    return terms, rate


def _pole_coefficients(n: int, terms: int) -> tuple:
    """The first ``terms`` coefficients k_j of the pole series v = W k(W**n).

    With v = 1/u, D = (n-2) (P - F(u)) e^(-i pi beta) = v**(n-2) g(v**n) and
    W = D**(1/(n-2)), dD/dv = (n-2) v**(n-3) (1 - v**n)**(-beta), so
    dv/dW = (W/v)**(n-3) (1 - v**n)**beta.  With v = W k(X), X = W**n, that
    reads (1 + n j) k_j = [k**(3-n) (1 - X k**n)**beta]_j, whose right side
    holds k_j only in k**(3-n)'s term (3-n) k_j.  So (n (j+1) - 2) k_j is the
    rest, from k_0 .. k_(j-1); each step extends the powers k**(3-n), k**n
    and h**beta, h = 1 - X k**n, by one exact term (``series._power_term``),
    the rest is summed over one lcm as those terms are (``series._lcm_sum``),
    and each entry is its exact value rounded once.
    """
    one = Fraction(1)
    k, h = [one], [one]
    inv_pow, n_pow, h_pow = [one], [one], [one]  # k**(3-n), k**n and h**beta
    for j in range(1, terms):
        h.append(-n_pow[j - 1])
        h_pow.append(_power_term(h, h_pow, j, n - 1, n))
        rest = _power_term(k, inv_pow, j, 3 - n)  # k has no k_j yet
        parts = [(a.numerator * b.numerator, a.denominator * b.denominator)
                 for a, b in zip(inv_pow, h_pow[j:0:-1])]
        kj = _lcm_sum([(rest.numerator, rest.denominator), *parts], n * (j + 1) - 2)
        k.append(kj)
        inv_pow.append(rest - (n - 3) * kj)
        n_pow.append(_power_term(k, n_pow, j, n))
    return tuple(map(float, k))


def _pack_tables() -> bytes:
    """The bytes of ``numerics``' table file, built by the recurrences above.

    For each supported n: F's three tables, A and R from them, the ODE
    tables at scale = R**n and the pole table with its rate, in one block
    laid out as ``numerics._read_block`` returns it.  Nothing here reads
    the file it writes.
    """
    header = _TABLES_HEADER.pack(_TABLES_MAGIC, _TABLES_VERSION, _MIN_N, _MAX_N)
    offset = len(header) + (_MAX_N - _MIN_N + 1) * _TABLES_ENTRY.size
    entries, packed = [], []
    for n in range(_MIN_N, _MAX_N + 1):
        tables = _f_tables(n)
        half, radius = _corner_constants(n, *tables)
        scale = radius ** n
        sine, cosine = _ode_tables(n, scale)
        terms, rate = _pole_reach(n, half, radius)
        pole = _pole_coefficients(n, terms)
        values = (scale, *sine, *cosine, *(x for table in tables for part in table for x in part),
                  half, radius, rate, *pole)
        entries.append(_TABLES_ENTRY.pack(offset, len(sine), *(len(t[0]) for t in tables),
                                          len(pole)))
        packed.append(struct.pack(f"<{len(values)}d", *values))
        offset += 8 * len(values)
    return header + b"".join(entries + packed)


if __name__ == "__main__":
    with open(_TABLES_PATH, "wb") as fh:
        fh.write(_pack_tables())
