"""The builders of the kernel's table file, ``_tables.bin``.

Every table is built in exact rationals, each entry rounded once: the ODE
pair's tables (``series._ode_coefficients``), F's three tables, whose
entries are [x**k] base**(-beta) / (d + n k) with base 1 - x for the
binomial series at 0 and at infinity and base h(delta) for the corner
chart (``_f_tables``), and the pole table, F's series at infinity reverted
(``_pole_table``).  A and R = |P| are summed from F's tables
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
from .reference import revert_series
from .series import RationalSeries, _ode_coefficients, _power_term


def _binomial(n: int, c: list, terms: int) -> list:
    """``c`` extended in place to c_k = [x**k] (1 - x)**(-beta) = (beta)_k / k!,
    k < terms, exactly: c_k = c_(k-1) (n k - 1) / (n k)."""
    for k in range(len(c), terms):
        c.append(c[-1] * Fraction(n * k - 1, n * k))
    return c


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


def _f_tables(n: int, c: list) -> tuple:
    """F's tables at 0, at infinity and at the corner, each (coefficients, radii).

    Entry k is [x**k] base**(-beta) / (d + n k), its exact value rounded
    once: the binomial coefficients ``c``, extended as far as the tables at
    0 and at infinity reach, and the chart's h**(-beta), extended one exact
    term at a time (``series._power_term``).
    """
    inner, outer, chart = _binomial_radii(n, 1), _binomial_radii(n, n - 2), _chart_radii(n)
    _binomial(n, c, max(len(inner), len(outer)))
    h = [Fraction(math.comb(n, j + 1) * (-1) ** j, n) for j in range(n)]
    power = [Fraction(1)]
    for m in range(1, len(chart)):
        power.append(_power_term(h, power, m, 1 - n, n))
    return tuple(([float(a / (d + n * k)) for k, a in enumerate(exact[:len(radii)])], radii)
                 for exact, d, radii in ((c, 1, inner), (c, n - 2, outer), (power, 1, chart)))


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
    # the tail at x summed directly: sector_ray_integral takes the chart where
    # x**-n rounds a hair above 1/2
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
    corner, _, disc = _unit_constants(n, radius)

    def x_abs(dist):
        return ((n - 2) * dist) ** (n / (n - 2))

    rim = complex(half / 2, math.sqrt(disc * disc - half * half / 4)) if 2 * disc > half else disc
    rate = 1.0 / x_abs(abs(corner) * min(1.0, 2.0 * math.sin(math.pi / n)))
    terms = bisect.bisect_left(ODE_RADII, rate * x_abs(abs(corner - rim))) + 1
    return terms, rate


def _pole_table(n: int, c: list, terms: int) -> tuple:
    """The first ``terms`` coefficients k_j of the pole series v = W k(W**n).

    With v = 1/u, F's series at infinity gives
    D = (n-2) (P - F(u)) e^(-i pi beta) = v**(n-2) g(v**n),
    g_k = (n-2) c_k / (n-2+nk) on the binomial coefficients ``c``, extended
    to ``terms`` entries, so W = D**(1/(n-2)) = v g(v**n)**(1/(n-2)),
    whose root takes one exact pass of ``series._power_term``.  The table is
    that series reverted exactly (``reference.revert_series``), each entry
    rounded once.
    """
    g = [Fraction(n - 2, n - 2 + n * k) * ck for k, ck in enumerate(_binomial(n, c, terms))]
    root = [Fraction(1)]
    for m in range(1, terms):
        root.append(_power_term(g, root, m, 1, n - 2))
    inverse = revert_series(RationalSeries(tuple(range(1, n * terms, n)), tuple(root)), terms)
    return tuple(float(inverse.coefficient(1 + n * j)) for j in range(terms))


def _pack_tables() -> bytes:
    """The bytes of ``numerics``' table file, built by the functions above.

    For each supported n: F's three tables, A and R from them, the ODE
    tables at scale = R**n and the pole table with its rate, in one block
    laid out as ``numerics._read_block`` returns it.  Nothing here reads
    the file it writes.
    """
    header = _TABLES_HEADER.pack(_TABLES_MAGIC, _TABLES_VERSION, _MIN_N, _MAX_N)
    offset = len(header) + (_MAX_N - _MIN_N + 1) * _TABLES_ENTRY.size
    entries, packed = [], []
    for n in range(_MIN_N, _MAX_N + 1):
        c = [Fraction(1)]
        tables = _f_tables(n, c)
        half, radius = _corner_constants(n, *tables)
        scale = radius ** n
        sine, cosine = _ode_tables(n, scale)
        terms, rate = _pole_reach(n, half, radius)
        pole = _pole_table(n, c, terms)
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
