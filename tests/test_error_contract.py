"""Every call returns a value or raises a SquigError, over n = 3..64.

A derandomized Hypothesis search draws points 1e-14 to 1e-2 (relative)
from the corner A, the slit-edge images A-P and P-B, the pole P and the
slits of the slit plane, rotated into a random sector.  ``sin_n`` and
``cos_n`` are called at the same point; when both return values they must
satisfy the Pythagorean identity s**n + c**n = 1.  A second search draws
NaN and +-inf parts: every map and ``fold`` raise DomainError at such a
point, and the membership tests answer a bool.  An argument that is not a
number (a str, bytes, None, a bool) raises ParameterError everywhere, and
an int beyond the float range is, to a membership test, the infinity of
its sign.  A third search spans
n = 3 over |z| = 1 .. 1e300: each call folds into the kite, up to the
lattice translation's rounding, with finite values, or raises DomainError
beyond the reach of the lattice reduction.

The tools off the evaluation path keep the same contract: ``unfold`` and
``sample_domain`` refuse arguments of the wrong kind, and ``radius_estimate``
returns a value for coefficients of any size and refuses what is not a
``RationalSeries``.  ``RationalSeries`` refuses degrees that are not
integers and coefficients that are not rationals, and its methods refuse
arguments of the wrong kind and values beyond the float range.  The
reference tools (series reversion, the winding count and the quadrature
rules) refuse arguments of the wrong kind and non-finite interval ends.

A hostile-argument sweep closes the file.  Its table ``SWEEP`` lists every
function in ``squig.__all__`` and ``squig.verify.__all__`` (a test fails
when one is missing), a few public classes, and ``sector_segment_integral``
and ``newton_invert``, each with one valid call and its numeric parameters.
Each numeric parameter in turn takes every value of ``HOSTILE`` (None,
"1", True, NaN, +-inf, +-2**1100, +-1e308, 1+0j and 2**70), as one entry
where it is a sequence or a mapping, the rest of the valid call left as it
is.  Every call must return, or raise a SquigError, within 2 s; a
``signal.setitimer`` timer ends a call that runs longer.
"""

import cmath
import functools
import inspect
import math
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import squig
import squig.reference
from squig.errors import DomainError, ParameterError, SquigError
from squig.errors import InvalidSeriesError
from squig.geometry import _CELL_ROUND, contains_Sigma, fold, make_context, unfold
from squig.reference import (
    integrate_endpoint_singular,
    integrate_smooth,
    integrate_tail,
    revert_series,
    winding_number,
)
from squig.regions import contains_Pi, in_rosette, sample_domain
from squig.series import RationalSeries, radius_estimate
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


@pytest.mark.parametrize("n", [3, 4, 64])
@pytest.mark.parametrize("z", [10**400, -(10**400), 10**5000],
                         ids=["huge-int", "huge-negative-int", "huger-int"])
def test_points_beyond_the_float_range_raise_domain_error(n, z):
    # complex(z) once raised a raw OverflowError in every map and in fold
    ctx = context(n)
    maps = [sin_n, cos_n, fold, arcsin_n, arcsin_n_sector]
    if n == 3:
        maps.append(sin3_global)
    for fn in maps:
        with pytest.raises(DomainError, match="float range"):
            fn(ctx, z)


@pytest.mark.parametrize("n", [3, 4, 64])
@pytest.mark.parametrize("z", ["0.5", "x", b"0.5", None, True, [0.5], object()],
                         ids=["numeric-str", "str", "bytes", "none", "bool", "list", "object"])
def test_arguments_that_are_not_numbers_raise_parameter_error(n, z):
    # "0.5" and True were once taken as points, "x" raised a raw ValueError
    # and the others a raw TypeError, in every map, fold and membership test
    ctx = context(n)
    calls = [sin_n, cos_n, fold, arcsin_n, arcsin_n_sector, contains_Pi, contains_Sigma,
             in_rosette]
    if n == 3:
        calls.append(sin3_global)
    for fn in calls:
        with pytest.raises(ParameterError, match="number"):
            fn(ctx, z)


@pytest.mark.parametrize("n", [3, 4, 64])
@pytest.mark.parametrize("z", [10**400, -(10**400), 10**5000],
                         ids=["huge-int", "huge-negative-int", "huger-int"])
def test_membership_beyond_the_float_range_is_that_of_infinity(n, z):
    # complex(z) once raised a raw OverflowError in each membership test
    ctx = context(n)
    inf = complex(math.inf if z > 0 else -math.inf, 0.0)
    for test in (contains_Pi, contains_Sigma, in_rosette):
        assert test(ctx, z) is test(ctx, inf)


def _kite_escape(ctx, t: complex) -> float:
    # how far t lies outside the half-kite triangle (0, A, P), 0 inside
    out = 0.0
    for a, b in ((0j, ctx.A), (ctx.A, ctx.P), (ctx.P, 0j)):
        e, d = b - a, t - a
        out = max(out, (e.imag * d.real - e.real * d.imag) / abs(e))
    return out


def _check_n3_far(z: complex):
    ctx = context(3)
    # the reach: beyond it the translation's rounding, _CELL_ROUND |z|,
    # covers the cell's whole inner disc (|z| = 1.08e14)
    rounding = abs(_CELL_ROUND * z)
    try:
        t = fold(ctx, z).folded
        s, c = sin_n(ctx, z), cos_n(ctx, z)
    except DomainError as exc:
        assert exc.region == "Omega_3"
        assert rounding >= ctx.cell_inner, z
        return
    assert rounding < ctx.cell_inner, z
    assert _kite_escape(ctx, t) <= max(rounding, 1e-15), z
    for got in (s, c):
        assert got.is_pole or (cmath.isfinite(got.value) and math.isfinite(got.residual)), z


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(
    exponent=st.one_of(st.floats(0.0, 300.0), st.floats(12.0, 14.5)),
    phase=st.floats(-math.pi, math.pi),
)
def test_n3_far_points_fold_into_the_kite_or_raise(exponent, phase):
    _check_n3_far(10.0**exponent * cmath.exp(1j * phase))


def test_n3_reach_by_a_dense_sweep():
    # the translation's rounding grows with |z|; below the reach the fold
    # stays within it (measured: 0.32 ulps of |z| at most, over 400,000
    # points from 1e12 to the reach); past it, up to the largest finite
    # points, every call raises
    ctx = context(3)
    reach = ctx.cell_inner / _CELL_ROUND
    rng = random.Random("reach")
    for _ in range(4000):
        r = reach * 10.0 ** -rng.uniform(0.0, 2.0)
        _check_n3_far(r * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
    for z in (reach * (1.0 - 1e-9), reach * (1.0 + 1e-9) * 1j, 1e300,
              1e17 + 1e17j, complex(1.7e308, 1.7e308), complex(-1e308, 0.0)):
        _check_n3_far(z)


@pytest.mark.parametrize("result", ["x", None, 0.5 + 0j, (0.5, 0, False, (0, 0), False)],
                         ids=["str", "none", "complex", "tuple"])
def test_unfold_refuses_what_is_not_a_fold_result(result):
    # "x" and a tuple once raised a raw AttributeError
    with pytest.raises(ParameterError, match="FoldResult"):
        unfold(context(4), result)


class _NoRandrange:
    def random(self):
        return 0.5


@pytest.mark.parametrize("rng", [None, 3, "rng", _NoRandrange(), random.random],
                         ids=["none", "int", "str", "no-randrange", "function"])
def test_sample_domain_refuses_an_rng_without_random_and_randrange(rng):
    # None once raised a raw AttributeError
    with pytest.raises(ParameterError, match="rng"):
        sample_domain(context(4), rng, 3)


@pytest.mark.parametrize("clearance", [0.95, 0.999])
def test_sample_domain_refuses_a_clearance_above_its_ceiling(clearance):
    # the rejection draw once ran on: 18.5 s for 10 points at 0.999, n = 8
    with pytest.raises(ParameterError, match="at most 0.9"):
        _timed(lambda: sample_domain(context(8), random.Random(1), 10, pole_clearance=clearance))


@pytest.mark.parametrize("n", [3, 8, 64])
def test_sample_domain_at_its_ceiling_returns(n):
    assert len(_timed(lambda: sample_domain(context(n), random.Random(1), 10,
                                            pole_clearance=0.9))) == 10


def _series(*exponents):
    return RationalSeries(tuple(range(1, len(exponents) + 1)),
                          tuple(Fraction(1, 10**e) if e >= 0 else Fraction(10**-e)
                                for e in exponents))


@pytest.mark.parametrize("series,radius", [
    (_series(0, 400, 800, 1200), math.inf),           # radii of 1e400
    (_series(0, -400, -800, -1200), 0.0),             # radii of 1e-400
    (_series(0, 1, 2, 3), 10.0),
    (_series(*range(0, 4000, 400)), math.inf),        # extrapolated from three
    (_series(*range(0, -4000, -400)), 0.0),
    (_series(0, 300, 600, 1000), math.inf),           # the last alone overflows
], ids=["huge", "tiny", "plain", "huge-extrapolated", "tiny-extrapolated", "last-huge"])
def test_radius_estimate_takes_coefficients_of_any_size(series, radius):
    # 1e-400 and the like once raised a raw OverflowError from float()
    assert radius_estimate(series) == pytest.approx(radius, rel=1e-12)


@pytest.mark.parametrize("series", ["abc", None, 3, (1, 2, 3, 4)],
                         ids=["str", "none", "int", "tuple"])
def test_radius_estimate_refuses_what_is_not_a_rational_series(series):
    # "abc" once raised a raw AttributeError
    with pytest.raises(ParameterError, match="RationalSeries"):
        radius_estimate(series)


def test_radius_estimate_refuses_coefficients_that_are_not_rational():
    with pytest.raises(InvalidSeriesError, match="rational"):
        radius_estimate(RationalSeries((1, 2, 3, 4), (1.0, 0.5, 0.25, 0.125)))


@pytest.mark.parametrize("degrees,coeffs", [
    ((1, 2), ("a", "b")),
    ((1.5, 2.5), (1, 2)),
    ((True, 2), (1, 2)),
    ((1, 2), (1, math.nan)),
], ids=["str-coefficients", "float-degrees", "bool-degree", "nan-coefficient"])
def test_rational_series_refuses_malformed_terms(degrees, coeffs):
    # each was accepted, and ("a", "b") then raised a raw ValueError from
    # evaluate
    with pytest.raises(InvalidSeriesError):
        RationalSeries(degrees, coeffs)


def test_rational_series_refuses_arguments_that_are_not_tuples():
    # once a raw TypeError
    with pytest.raises(ParameterError, match="tuples"):
        RationalSeries(5, (1,))


SERIES = RationalSeries((1, 4), (Fraction(1), Fraction(-1, 6)))


@pytest.mark.parametrize("call", [
    lambda s: s.head(-1),
    lambda s: s.head("a"),
    lambda s: s.truncate("x"),
    lambda s: s.coefficient("x"),
    lambda s: s.evaluate("x"),
    lambda s: RationalSeries((200,), (1,)).evaluate(1e300),
], ids=["head-negative", "head-str", "truncate-str", "coefficient-str", "evaluate-str",
        "evaluate-overflow"])
def test_rational_series_methods_refuse_bad_arguments(call):
    # head(-1) once dropped the last term silently, the others raised a raw
    # TypeError or OverflowError
    with pytest.raises(ParameterError):
        call(SERIES)


def _integrand(x, dl=0.0, dr=0.0):
    return x


@pytest.mark.parametrize("call", [
    lambda: revert_series(5, 3),
    lambda: revert_series(SERIES, "a"),
    lambda: winding_number(None, 0),
    lambda: winding_number(["a"] * 5, 0),
    lambda: integrate_smooth(None, 0, 1),
    lambda: integrate_smooth(_integrand, "a", 1),
    lambda: integrate_tail(_integrand, math.nan, 2),
    lambda: integrate_endpoint_singular(_integrand, 0, math.nan),
], ids=["revert-int", "revert-str-terms", "winding-none", "winding-str-samples",
        "smooth-none", "smooth-str-end", "tail-nan-start", "singular-nan-end"])
def test_reference_tools_refuse_bad_arguments(call):
    # each once raised a raw AttributeError, TypeError, ValueError or
    # OverflowError
    with pytest.raises(ParameterError):
        call()


# ---------------------------------------------------------------------------
# the hostile-argument sweep over every public entry point


def _valid(**kwargs):
    return lambda: kwargs


def _ctx(n, **kwargs):
    return lambda: {"ctx": context(n), **kwargs}


def _itself(value):
    return value


# name: (one valid call's arguments, {numeric parameter: how a value enters
# it}); a sequence or mapping takes the value as one of its entries
SWEEP = {
    "SquigContext": (_valid(n=4), {"n": _itself}),
    "make_context": (_valid(n=4), {"n": _itself}),
    "fold": (_ctx(4, z=0.3 + 0.1j), {"z": _itself}),
    "unfold": (lambda: {"ctx": context(4), "result": fold(context(4), 0.3 + 0.1j)}, {}),
    "sin_n": (_ctx(4, z=0.3 + 0.1j), {"z": _itself}),
    "cos_n": (_ctx(4, z=0.3 + 0.1j), {"z": _itself}),
    "sin3_global": (_ctx(3, z=0.3 + 0.1j), {"z": _itself}),
    "arcsin_n": (_ctx(4, w=0.5 + 0.1j), {"w": _itself}),
    "arcsin_n_sector": (_ctx(4, z=0.5 + 0.1j), {"z": _itself}),
    "contains_Pi": (_ctx(4, z=0.3 + 0.1j), {"z": _itself}),
    "contains_Sigma": (_ctx(4, w=0.5 + 0.1j), {"w": _itself}),
    "maclaurin": (_ctx(4, terms=5), {"terms": _itself}),
    "boundary_polyline": (_ctx(4, which="gamma", samples_per_edge=4, radius=2.0),
                          {"samples_per_edge": _itself, "radius": _itself}),
    "sample_domain": (lambda: {"ctx": context(4), "rng": random.Random(1), "count": 3,
                               "pole_clearance": 0.05},
                      {"count": _itself, "pole_clearance": _itself}),
    "RationalSeries": (_valid(degrees=(1, 4), coeffs=(1, Fraction(-1, 4))),
                       {"degrees": lambda v: (1, v), "coeffs": lambda v: (1, v)}),
    "radius_estimate": (_valid(series=RationalSeries((1, 2, 3, 4), (1, 1, 1, 1))), {}),
    "revert_series": (_valid(series=RationalSeries((1, 4), (1, Fraction(-1, 4))), terms=4),
                      {"terms": _itself}),
    "integrate_smooth": (_valid(f=lambda x: x * x, a=0.0, b=1.0, tol=1e-12),
                         {"a": _itself, "b": _itself, "tol": _itself}),
    "integrate_endpoint_singular": (
        _valid(f=lambda x, dl, dr: dl ** -0.5, a=0.0, b=1.0, left_exp=0.5, right_exp=0.0,
               tol=1e-12),
        {"a": _itself, "b": _itself, "left_exp": _itself, "right_exp": _itself,
         "tol": _itself}),
    "integrate_tail": (_valid(f=lambda t, dl, dr: 1.0 / (t * t), a=1.0, decay_exp=2.0,
                              tol=1e-12),
                       {"a": _itself, "decay_exp": _itself, "tol": _itself}),
    "winding_number": (_valid(loop_values=[1, 1j, -1, -1j, 1], w=0),
                       {"loop_values": lambda v: [v, 1j, -1, -1j, v], "w": _itself}),
    "sector_segment_integral": (_valid(n=4, za=0j, zb=0.5 + 0.2j, tol=1e-12),
                                {"n": _itself, "za": _itself, "zb": _itself, "tol": _itself}),
    "newton_invert": (_valid(n=4, w=0.3 + 0.1j), {"n": _itself, "w": _itself}),
    "VerifyConfig": (_valid(n_values=(4,), tolerances={"identity": 1e-10}),
                     {"n_values": lambda v: (v,), "tolerances": lambda v: {"identity": v}}),
    "run_all": (lambda: {"config": squig.VerifyConfig(n_values=(4,),
                                                      families=("riemann_normalization",))},
                {}),
    "gamma_pi_n": (_valid(n=4), {"n": _itself}),
    "limit_profile": (_ctx(4, radii=[100.0], angles=8),
                      {"radii": lambda v: [v], "angles": _itself}),
    "check_integral_slit": (_ctx(4, tolerance=1e-8), {"tolerance": _itself}),
    "check_integral_ray": (_ctx(4, tolerance=1e-8), {"tolerance": _itself}),
    "check_riemann_normalization": (_ctx(4, tolerance=1e-6), {"tolerance": _itself}),
    "check_trisection": (_ctx(3, tolerance=1e-8), {"tolerance": _itself}),
    "check_limit_at_infinity": (_ctx(4, radii=[100.0, 1000.0], tolerance=1e-3),
                                {"radii": lambda v: [v, 1000.0], "tolerance": _itself}),
    "check_winding": (_ctx(4, R=50.0, w=0.1, tolerance=1e-10),
                      {"R": _itself, "w": _itself, "tolerance": _itself}),
    "check_periodicity_sin3": (_ctx(3, samples=[0.3 + 0.1j], tolerance=1e-10),
                               {"samples": lambda v: [v], "tolerance": _itself}),
    "check_sc_factorization": (_ctx(3, samples=[0.3 + 0.1j], tolerance=1e-9),
                               {"samples": lambda v: [v], "tolerance": _itself}),
}

HOSTILE = {"none": None, "str": "1", "bool": True, "nan": math.nan, "inf": math.inf,
           "-inf": -math.inf, "2**1100": 2**1100, "-2**1100": -(2**1100), "1e308": 1e308,
           "-1e308": -1e308, "1+0j": 1 + 0j, "2**70": 2**70}
_LIMIT_S = 2.0


def _public(name):
    module = next(m for m in (squig, squig.verify, squig.reference) if hasattr(m, name))
    return getattr(module, name)


class _Stall(BaseException):
    """Raised by the timer in a call that runs past the sweep's limit; a
    BaseException, so that no ``except Exception`` of the call takes it."""


def _timed(call):
    def alarm(signum, frame):
        raise _Stall
    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, _LIMIT_S)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("name", SWEEP)
def test_each_valid_call_of_the_sweep_returns(name):
    args, _ = SWEEP[name]
    _timed(lambda: _public(name)(**args()))


@pytest.mark.parametrize("name,param,value", [
    pytest.param(name, param, value, id=f"{name}-{param}-{vid}")
    for name, (_, params) in SWEEP.items() for param in params
    for vid, value in HOSTILE.items()])
def test_a_hostile_argument_returns_or_raises_a_squig_error(name, param, value):
    # the valid call with this one argument replaced; at most 2 s, and no
    # raw exception
    args, params = SWEEP[name]
    args = args()
    args[param] = params[param](value)
    try:
        _timed(lambda: _public(name)(**args))
    except SquigError:
        pass
    except _Stall:
        pytest.fail(f"{name} with {param}={value!r} did not return within {_LIMIT_S} s")


def test_the_sweep_lists_every_public_function():
    public = {name for module in (squig, squig.verify) for name in module.__all__
              if inspect.isfunction(getattr(module, name))}
    assert public - set(SWEEP) == set()
