"""The evaluation kernel: the series of the sector map and their tables.

This module holds what evaluation runs on: the three series of the sector
map ``F``, at 0, at infinity and the corner chart between them
(``sector_ray_integral``), and the per-n record of the tables they are
summed from (``_series_tables``).  The constants A and P come from the same
series, with no quadrature and no gamma function.  Every sum is cut by
a proven remainder bound at half an ulp of its leading term.

Every per-n table (F's three with their radii, the ODE pair's scaled sine
and cosine, and the pole series that inverts the map near P) and the
constants A and R = |P| are read at first use of each n from the package
data file ``_tables.bin``, which ``squig.tablegen`` writes
(``python -m squig.tablegen``).  One reader, ``_read_block``, unpacks n's
block, and no process keeps the file's bytes.  The file's layout constants
live here, for the reader and the writer.  A missing, short or foreign
file raises ``TableFileError``.  Nothing is rebuilt at runtime: a context
computes only P, e^(i pi beta), omega and the discs' radius from R.

The inverse routes (the discs at 0 and at A, and the pole series) sum their
tables through one kernel with one cut rule and one bound, ``_series_sum``.
``F``'s tables, with per-table radii and no bound yet, use ``_binomial_sum``.

The routes that ``verify`` and the tests compare against live in
:mod:`squig.reference`, and the exact rational series in
:mod:`squig.series`; ``import squig`` loads neither.  The names of
``reference`` that the benchmark's tracer wraps here still resolve,
through the module ``__getattr__`` below, and load it at first use.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import itertools
import math
import os
import struct
from typing import NamedTuple

from .errors import TableFileError

# The supported n, the range the table file covers.
_MIN_N = 3
_MAX_N = 64

# The names of ``reference`` that bench/spans.py wraps through this module;
# ``numerics.<name>`` loads it.
_REFERENCE_NAMES = frozenset((
    "_newton_basic", "_tanh_sinh", "integrate_endpoint_singular", "integrate_smooth",
    "integrate_tail", "newton_invert", "revert_series", "sector_segment_integral",
))


def __getattr__(name):
    if name in _REFERENCE_NAMES:
        from . import reference
        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _REFERENCE_NAMES)


# ---------------------------------------------------------------------------
# Frozen records
# ---------------------------------------------------------------------------

class _FrozenRecord:
    """Base of the frozen, slotted result records.

    ``==``, ``hash``, ``repr``, pickling and ``match`` behave as on a
    ``@dataclass(frozen=True)`` with the same fields, and setting or
    deleting an attribute raises ``dataclasses.FrozenInstanceError``.

    A subclass lists its fields in ``__slots__``, in order, and sets them in
    its ``__init__`` through the slots' descriptors.  ``dataclasses`` is
    imported only to raise its ``FrozenInstanceError``, so importing a
    record does not load it (nor ``inspect``, which it imports).
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


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


# Length of the ODE pair's float tables.  A sum of K terms of a table whose
# entries are at most _ODE_TAIL in modulus leaves at most 2 rho**K / (1 - rho).
ODE_TERMS = 64
_ODE_TAIL = 2.0


# ODE_RADII[K-1] is a rho where 2 rho**K / (1 - rho) <= _SERIES_EPS, so K
# terms of such a table leave less than half an ulp.  With c = _SERIES_EPS/2,
# c**(1/K) overshoots the root of rho**K / (1 - rho) = c; one step of
# rho -> (c (1 - rho))**(1/K) from there lands below it.
ODE_RADII = tuple((0.5 * _SERIES_EPS * (1.0 - (0.5 * _SERIES_EPS) ** (1.0 / k))) ** (1.0 / k)
                  for k in range(1, ODE_TERMS + 1))
# One rounding step of the inverse routes' sums, an ulp of 1.
_ULP = 2.0**-52


def _series_sum(coeffs, w: complex, n: int, scale: float, rate: float, tail: float,
                odd: bool):
    """w sum_k a_k x**k if ``odd``, else sum_k a_k x**k, with x = w**n / scale,
    and a bound on its error: the one sum of every inverse route.

    The table's entries obey |a_k| <= tail rate**k, so K terms leave at most
    tail q**K / (1 - q), q = rate |x|.  The sum is cut at the first K where
    that is below half an ulp (ODE_RADII, whose tail is 2, covers tail <= 2),
    but never below two terms: the second keeps the leading imaginary part
    of a value next to 1.  The bound is that remainder plus the rounding:
    one ulp for the leading term and 2 K ulps times the rest, whose moduli
    add up to at most tail q / (1 - q) (Higham, Accuracy and Stability of
    Numerical Algorithms, 5.1).  The product with w adds one ulp.
    """
    x = w**n / scale
    q = rate * abs(x)
    last = bisect.bisect_left(ODE_RADII, q, 1, len(coeffs) - 1)
    acc = 0j
    for a in coeffs[last::-1]:
        acc = acc * x + a
    terms = last + 1
    bound = tail * q**terms / (1.0 - q) + _ULP * (1.0 + 2.0 * tail * terms * q / (1.0 - q))
    if odd:
        return w * acc, abs(w) * (bound + _ULP)
    return acc, bound


class _SeriesTables(NamedTuple):
    """Per-n constants and tables of the kernel, the one source of A and P.

    The first ten fields are n's block of the table file, in its order
    (``_read_block``); the last four are the unit constants that follow
    from R.  A and R come from F's tables, with no gamma function or
    quadrature (``tablegen._corner_constants``).  Both are within 3e-16
    relative of the exact values for n = 3..64.

    The ODE pair's tables serve the inverse: their sums converge for
    |t**n| < R**n, and ``disc`` is the radius where 64 terms reach half an
    ulp, ODE_RADII[-1]**(1/n) R (0.817 R at n = 3, 0.9905 R at n = 64).
    Each disc sums the one table of the value asked for through
    ``_series_sum``, with tail 2 and rate 1 in x = t**n / scale.  The pole
    series sums ``pole`` with tail 1 and ``rate`` in X = W**n
    (``tablegen._pole_coefficients`` and ``tablegen._pole_reach``).
    """

    scale: float      # R**n, the unit of x = t**n in both ODE tables
    sine: tuple       # a_k = S_k R**(n k), the ODE pair's sine table
    cosine: tuple     # b_k = C_k R**(n k), its cosine table
    inner: tuple      # (coefficients, radii) of F's binomial series at 0
    outer: tuple      # (coefficients, radii) of F's binomial series at infinity
    chart: tuple      # (coefficients, radii) of Q, the corner chart
    half: float       # A, the half period
    radius: float     # R = |P|
    rate: float       # 1/|X| at v's nearest singularity: |k_j| <= rate**j
    pole: tuple       # k_j of the pole series v = 1/u = W k(W**n)
    corner: complex   # P = R e^(i pi/n)
    phase: complex    # e^(i pi beta)
    disc: float       # radius of the discs at 0 and at A that the tables cover
    omega: complex    # e^(2 pi i/n), the root of the corner chart's upper half


# The table file: the products of the recurrences in squig.tablegen for
# every supported n, laid out by ``tablegen._pack_tables`` and written by
# ``python -m squig.tablegen``.  A header (magic, format version, the n
# range) and one entry per n (the offset of its block and the lengths of
# its ODE tables, of F's three tables and of the pole table) precede the
# blocks, each the little-endian doubles of ``_SeriesTables``' first ten
# fields: scale, sine, cosine, the coefficients and radii of inner, outer
# and chart, A, R, rate and the pole table.
_TABLES_PATH = os.path.join(os.path.dirname(__file__), "_tables.bin")
_TABLES_MAGIC = b"squigtab"
_TABLES_VERSION = 2
_TABLES_HEADER = struct.Struct("<8sIII")
_TABLES_ENTRY = struct.Struct("<IIIIII")
_REGENERATE = "PYTHONPATH=src python -m squig.tablegen"


def _read_block(path: str, n: int) -> tuple:
    """n's block of the table file at ``path``, as ``_SeriesTables``' first
    ten fields: F's tables as (coefficients, radii) pairs of lists, the ODE
    and pole tables as tuples.

    The header must name this format and the supported n range, every ODE
    table must have ODE_TERMS entries, and the blocks must follow the
    entries back to back up to the file's end.  Anything else raises
    TableFileError: the tables are never rebuilt at runtime.
    """
    def refuse(why: str):
        return TableFileError(f"series table file {path} {why}; regenerate it with "
                              f"`{_REGENERATE}`")

    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise refuse(f"cannot be read ({exc.strerror})") from None
    count = _MAX_N - _MIN_N + 1
    offset = _TABLES_HEADER.size + count * _TABLES_ENTRY.size
    if len(data) < offset:
        raise refuse(f"is short: {len(data)} bytes")
    header = _TABLES_HEADER.unpack_from(data)
    if header != (_TABLES_MAGIC, _TABLES_VERSION, _MIN_N, _MAX_N):
        raise refuse(f"has the header {header!r}, not "
                     f"{(_TABLES_MAGIC, _TABLES_VERSION, _MIN_N, _MAX_N)!r}")
    entries = tuple(_TABLES_ENTRY.iter_unpack(data[_TABLES_HEADER.size:offset]))
    for m, (start, ode, *series, pole) in enumerate(entries, _MIN_N):
        if start != offset or ode != ODE_TERMS:
            raise refuse(f"has a wrong entry at n = {m}")
        offset += 8 * (4 + 2 * (ode + sum(series)) + pole)
    if offset != len(data):
        raise refuse(f"is {len(data)} bytes, not {offset}")
    start, ode, *series, pole = entries[n - _MIN_N]
    values = iter(struct.unpack_from(f"<{4 + 2 * (ode + sum(series)) + pole}d", data, start))

    def take(count: int) -> tuple:
        return tuple(itertools.islice(values, count))

    scale, sine, cosine = next(values), take(ode), take(ode)
    inner, outer, chart = ((list(take(k)), list(take(k))) for k in series)
    half, radius, rate = take(3)
    return scale, sine, cosine, inner, outer, chart, half, radius, rate, tuple(values)


@functools.lru_cache(maxsize=None)
def _series_tables(n: int) -> _SeriesTables:
    block = _read_block(_TABLES_PATH, n)
    return _SeriesTables(*block, *_unit_constants(n, block[7]))


def _unit_constants(n: int, radius: float) -> tuple:
    """The record's last four fields, P, e^(i pi beta), disc and omega, from R."""
    return (radius * cmath.exp(1j * math.pi / n), cmath.exp(1j * math.pi * (n - 1) / n),
            ODE_RADII[-1] ** (1.0 / n) * radius, cmath.exp(2j * math.pi / n))


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
