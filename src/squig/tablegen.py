"""The builders of the kernel's table file, ``_tables.bin``.

Miller's recurrence in fixed point for the ODE pair's tables and the pole
table, and in floats for the corner chart.  ``_pack_tables`` returns the
file's bytes, laid out by ``_format_tables`` with the layout constants of
:mod:`squig.numerics`, which reads the file.  Regenerate the file with

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
    _corner_constants,
    _series_record,
)

# Fixed-point bits of the ODE tables' recurrence.
_ODE_BITS = 110
# Fixed-point bits of the pole table's recurrence.  It runs on k_j 8**j,
# which stays near 1 where k_j falls to 1e-43, so no entry loses precision.
_POLE_BITS = 192
_POLE_SHIFT = 3


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

    The recurrence of series._ode_coefficients on the scaled values: with
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


def _pole_reach(n: int, tables) -> tuple:
    """Length and rate of the pole table, for n's ``numerics._SeriesTables``.

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
    half, disc = tables.half, tables.disc

    def x_abs(dist):
        return ((n - 2) * dist) ** (n / (n - 2))

    rim = complex(half / 2, math.sqrt(disc * disc - half * half / 4)) if 2 * disc > half else disc
    rate = 1.0 / x_abs(abs(tables.corner) * min(1.0, 2.0 * math.sin(math.pi / n)))
    terms = bisect.bisect_left(ODE_RADII, rate * x_abs(abs(tables.corner - rim))) + 1
    return terms, rate


def _pole_coefficients(n: int, terms: int) -> tuple:
    """The first ``terms`` coefficients k_j of the pole series v = W k(W**n).

    With v = 1/u, D = (n-2) (P - F(u)) e^(-i pi beta) = v**(n-2) g(v**n) and
    W = D**(1/(n-2)), dD/dv = (n-2) v**(n-3) (1 - v**n)**(-beta), so
    dv/dW = (W/v)**(n-3) (1 - v**n)**beta.  With v = W k(X), X = W**n, that
    reads (1 + n j) k_j = [k**(3-n) (1 - X k**n)**beta]_j, whose right side
    holds k_j only in k**(3-n)'s term (3-n) k_j.  So (n (j+1) - 2) k_j is the
    rest, from k_0 .. k_(j-1); each step extends the powers k**(3-n), k**n
    and h**beta, h = 1 - X k**n, by one term (``_fixed_power_term``), on
    integers at 2**-_POLE_BITS.  It runs in Y = 8 X, on k_j 8**j, so every
    entry keeps its relative precision and is rounded once.
    """
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
    return tuple(v / (one << _POLE_SHIFT * j) for j, v in enumerate(k))


def _format_tables(blocks) -> bytes:
    """The table file of ``blocks``, one per supported n in order, each laid
    out as ``_unpack_tables`` returns it."""
    header = _TABLES_HEADER.pack(_TABLES_MAGIC, _TABLES_VERSION, _MIN_N, _MAX_N)
    offset = len(header) + len(blocks) * _TABLES_ENTRY.size
    entries, packed = [], []
    for scale, sine, cosine, (coeffs, radii), rate, pole in blocks:
        values = (scale, *sine, *cosine, *coeffs, *radii, rate, *pole)
        entries.append(_TABLES_ENTRY.pack(offset, len(sine), len(pole), len(coeffs)))
        packed.append(struct.pack(f"<{len(values)}d", *values))
        offset += 8 * len(values)
    return header + b"".join(entries + packed)


def _pack_tables() -> bytes:
    """The bytes of ``numerics``' table file, built by the recurrences above.

    For each supported n: the corner chart, the ODE tables at
    scale = R**n with R from that chart, and the pole table with its rate.
    Nothing here reads the file it writes.
    """
    blocks = []
    for n in range(_MIN_N, _MAX_N + 1):
        chart = _corner_table(n)
        scale = _corner_constants(n, chart)[3] ** n
        sine, cosine = _ode_tables(n, scale)
        terms, rate = _pole_reach(n, _series_record(n, chart, sine, cosine, scale))
        blocks.append((scale, sine, cosine, chart, rate, _pole_coefficients(n, terms)))
    return _format_tables(blocks)


if __name__ == "__main__":
    with open(_TABLES_PATH, "wb") as fh:
        fh.write(_pack_tables())
