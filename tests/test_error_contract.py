"""Every call returns a value or raises a SquigError, over n = 3..64.

A derandomized Hypothesis search draws points 1e-14 to 1e-2 (relative)
from the corner A, the slit-edge images A-P and P-B, the pole P and the
slits of the slit plane, rotated into a random sector.  ``sin_n`` and
``cos_n`` are called at the same point; when both return values they must
satisfy the Pythagorean identity s**n + c**n = 1.  A second search draws
NaN and +-inf parts: every map and ``fold`` raise DomainError at such a
point, and the membership tests answer a bool.
"""

import cmath
import functools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from squig.errors import DomainError, SquigError
from squig.geometry import contains_Pi, contains_Sigma, fold, in_rosette, make_context
from squig.squigfn import arcsin_n, arcsin_n_sector, cos_n, sin3_global, sin_n

context = functools.lru_cache(maxsize=None)(make_context)


def _angle_point(vertex: complex, start: complex, stop: complex, r: float, s: float):
    # a point at distance r from vertex, a fraction s of the way round the
    # angle at vertex that turns from direction start to direction stop
    a0 = cmath.phase(start)
    span = (cmath.phase(stop) - a0) % (2.0 * math.pi)
    return vertex + r * cmath.exp(1j * (a0 + s * span))


def _point(ctx, kind: str, d: float, s: float) -> complex:
    a, p, b = ctx.A, ctx.P, ctx.B
    if kind == "A":
        return _angle_point(a, p - a, p.conjugate() - a, d * abs(a), s)
    if kind == "P":
        return _angle_point(p, b - p, a - p, d * abs(p), s)
    if kind == "edge A-P":
        edge = p - a
        return a + s * edge + d * abs(a) * 1j * edge / abs(edge)
    edge = p - b  # edge P-B, approached from inside the kite
    return b + s * edge - d * abs(a) * 1j * edge / abs(edge)


def _call(fn, ctx, z):
    try:
        return fn(ctx, z)
    except SquigError:
        return None


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(
    n=st.integers(3, 64),
    kind=st.sampled_from(("A", "P", "edge A-P", "edge P-B", "slit")),
    exponent=st.floats(-14.0, -2.0),
    s=st.floats(0.01, 0.99),
    k=st.integers(0, 63),
    upper=st.booleans(),
)
def test_returns_or_raises_squig_error(n, kind, exponent, s, k, upper):
    ctx = context(n)
    d = 10.0 ** exponent
    turn = cmath.exp(2j * math.pi * (k % n) / n)
    if kind == "slit":
        # beside the slit omega^k [1, inf), at 1 + 10^-3 .. 1 + 10
        x = 1.0 + 10.0 ** (-3.0 + 4.0 * s)
        w = complex(x, d * x if upper else -d * x) * turn
        got = _call(arcsin_n, ctx, w)
        assert got is None or cmath.isfinite(got)
        return
    z = _point(ctx, kind, d, s) * turn
    sv = _call(sin_n, ctx, z)
    cv = _call(cos_n, ctx, z)
    if sv is None or cv is None or sv.is_pole or cv.is_pole:
        return
    sn, cn = sv.value**n, cv.value**n
    assert abs(sn + cn - 1.0) <= 1e-12 * max(1.0, abs(sn))


_PART = st.one_of(st.sampled_from((math.nan, math.inf, -math.inf)),
                  st.floats(-10.0, 10.0))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(n=st.integers(3, 64), re=_PART, im=_PART)
def test_non_finite_points_raise_domain_error(n, re, im):
    z = complex(re, im)
    assume(not cmath.isfinite(z))
    ctx = context(n)
    maps = [sin_n, cos_n, fold, arcsin_n, arcsin_n_sector]
    if n == 3:
        maps.append(sin3_global)
    for fn in maps:
        with pytest.raises(DomainError):
            fn(ctx, z)
    for test in (contains_Pi, contains_Sigma, in_rosette):
        assert test(ctx, z) in (True, False)
