import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import squig
from conftest import slit_integral_oracle
from squig import cli, verify
from squig.geometry import make_context
from squig.reference import winding_number
from squig.squigfn import EvalResult
from squig.verify import (
    DEFAULT_TOLERANCES,
    VerifyConfig,
    check_integral_ray,
    check_integral_slit,
    check_limit_at_infinity,
    check_periodicity_sin3,
    check_riemann_normalization,
    check_sc_factorization,
    check_trisection,
    check_winding,
    gamma_pi_n,
    limit_profile,
    run_all,
)


class TestIntegralChecks:
    def test_slit_matches_oracle(self):
        for n in range(3, 9):
            rep = check_integral_slit(make_context(n))
            assert rep.passed
            assert rep.name == "integral_slit"
            assert rep.n == n
            assert rep.lhs.real == pytest.approx(slit_integral_oracle(n), abs=1e-10)

    def test_known_values(self):
        r3 = check_integral_slit(make_context(3))
        r4 = check_integral_slit(make_context(4))
        assert r3.rhs.real == pytest.approx(1.7666387503, abs=1e-9)
        assert r4.rhs.real == pytest.approx(1.3110287771, abs=1e-9)

    def test_slit_certifies_series_ray_certifies_gamma(self):
        # the slit quadrature checks the library's |P|, the ray quadrature the
        # gamma closed form; the two sources agree to about an ulp
        for n in (3, 5, 8):
            ctx = make_context(n)
            a = check_integral_slit(ctx)
            b = check_integral_ray(ctx)
            assert a.rhs == ctx.R
            assert b.rhs == verify.gamma_corner_radius(n)
            assert abs(a.rhs - b.rhs) <= 1.5e-15 * abs(b.rhs)
            assert a.passed and b.passed

    def test_report_invariant(self):
        rep = check_integral_slit(make_context(4), tolerance=1e-15)
        assert rep.passed == (rep.abs_error <= rep.tolerance)
        assert not rep.passed  # quadrature error sits above 1e-15

    def test_runtime_recorded(self):
        rep = check_integral_ray(make_context(3))
        assert rep.runtime_ms >= 0.0


class TestLimitAtInfinity:
    def test_default_passes(self):
        for n in range(3, 9):
            rep = check_limit_at_infinity(make_context(n))
            assert rep.passed, rep
            assert rep.abs_error < 1e-3

    def test_profile_decay_rates(self):
        # error falls like R**-(n-2): one decade of R buys n-2 decades
        ctx = make_context(4)
        m100, m1000 = limit_profile(ctx, [100.0, 1000.0], angles=8)
        assert m100 / m1000 == pytest.approx(100.0, rel=1e-3)
        ctx3 = make_context(3)
        a, b = limit_profile(ctx3, [1000.0, 10000.0], angles=8)
        assert a / b == pytest.approx(10.0, rel=1e-3)

    def test_slow_decay_fails(self):
        # same value at both radii: the discounted early radius exceeds tol
        rep = check_limit_at_infinity(make_context(4), radii=[999.0, 1000.0],
                                      tolerance=4e-7)
        assert not rep.passed

    def test_note_lists_radii(self):
        rep = check_limit_at_infinity(make_context(5))
        assert "R=100" in rep.note and "R=1000" in rep.note

    @pytest.mark.parametrize("radii", [[], [0.0], [-5.0, 100.0], [100.0, math.inf],
                                       [math.nan, 100.0], ["a", "b"], [1.0, "a"],
                                       [True, 100.0], [100.0, 2j], [10 ** 400]])
    def test_refuses_radii_that_are_not_positive_and_finite(self, radii):
        # an empty list once raised a raw ValueError, [0.0] a
        # ZeroDivisionError, strings a raw TypeError (a mix of kinds from
        # sorting), and an int beyond the float range a raw OverflowError
        with pytest.raises(squig.ParameterError, match="radii"):
            check_limit_at_infinity(make_context(4), radii=radii)

    @pytest.mark.parametrize("radii, angles", [
        (5, 8), (["a"], 8), ([], 8), ([0.0], 8), ([100.0], 0), ([100.0], -1),
        ([100.0], 2.5), ([100.0], True), ([10 ** 400], 8),
    ], ids=["radii-int", "radii-str", "radii-empty", "radii-zero", "angles-zero",
            "angles-negative", "angles-float", "angles-bool", "radii-huge-int"])
    def test_profile_refuses_what_measures_nothing(self, radii, angles):
        # 5, ["a"] and angles=2.5 once raised a raw TypeError, [10**400] a
        # raw OverflowError; radii=[] and angles of 0 or less returned a
        # profile that measured nothing
        with pytest.raises(squig.ParameterError, match="radii" if angles == 8 else "angles"):
            limit_profile(make_context(4), radii, angles=angles)


class TestWinding:
    def test_interior_and_exterior(self):
        for n in (4, 5):
            ctx = make_context(n)
            inside = [0.5 + 0.3j, 0.4 * ctx.P, 0.2 * ctx.A, 0.6 * ctx.P,
                      -0.3 * ctx.A, 0.1j * ctx.A, 0.9 * ctx.A, 0.5 * ctx.B,
                      0.3 * ctx.A + 0.3 * ctx.P, -0.28j * abs(ctx.A)]
            outside = [ctx.A + 1.0, 2.0 * ctx.P, -1.5 * ctx.A,
                       1.05 * ctx.P, 1.02 * ctx.A]
            for w in inside:
                rep = check_winding(ctx, 50.0, w)
                assert rep.passed and rep.lhs == 1 and rep.rhs == 1
            for w in outside:
                rep = check_winding(ctx, 50.0, w)
                assert rep.passed and rep.lhs == 0 and rep.rhs == 0

    @pytest.mark.parametrize("n", range(3, 65))
    def test_inside_and_outside_at_every_n(self, n):
        # the loop is built from arcsin_n alone, for every supported n
        ctx = make_context(n)
        inside = check_winding(ctx, 50.0, 0.4 * ctx.P)
        outside = check_winding(ctx, 50.0, 1.05 * ctx.P)
        assert inside.passed and inside.lhs == 1
        assert outside.passed and outside.lhs == 0

    def test_n3_hexagon(self):
        ctx = make_context(3)
        assert check_winding(ctx, 50.0, 0.5 * ctx.P).lhs == 1
        assert check_winding(ctx, 50.0, 1.4 * ctx.A).lhs == 0


def _ode_oracle(n, z):
    """(s, c) at z from mpmath's Taylor ODE solver on t -> t*z, 30 digits."""
    with mpmath.workdps(30):
        zz = mpmath.mpc(z)
        pair = mpmath.odefun(lambda t, y: [zz * y[1] ** (n - 1), -zz * y[0] ** (n - 1)],
                             0, [mpmath.mpc(0), mpmath.mpc(1)])
        s, c = pair(1)
        return complex(s), complex(c)


class TestOdePair:
    # two points at |z| = 0.9 face a corner omega**k * P, where the steps are
    # shortest and the local series converge slowest
    POINTS = (0.9 * cmath.exp(1j * math.pi / 3), -0.9 + 0.0j,
              0.9 + 0.0j, 0.5 + 0.5j, -0.3 - 0.8j, 0.05 + 0.02j)

    def test_matches_mpmath(self):
        for z in self.POINTS:
            s, c, steps = verify._ode_pair(3, z)
            ref_s, ref_c = _ode_oracle(3, z)
            assert abs(s - ref_s) <= 1e-15, z
            assert abs(c - ref_c) <= 1e-15, z
            assert steps >= 1

    def test_origin_takes_no_step(self):
        assert verify._ode_pair(3, 0j) == (0j, 1.0 + 0j, 0)

    def test_note_reports_total_steps(self):
        samples = verify._periodicity_samples()
        total = sum(verify._ode_pair(3, z)[2] for z in samples)
        rep = check_periodicity_sin3(make_context(3), samples)
        assert rep.note == f"samples={len(samples)} steps={total}"


class TestPeriodicity:
    SAMPLES = [0j, 0.4 + 0.2j, -0.3 + 0.5j, 0.7 - 0.6j]

    def test_default_samples_pass(self):
        rep = check_periodicity_sin3(make_context(3), self.SAMPLES)
        assert rep.passed
        assert rep.n == 3
        assert rep.abs_error < 1e-10  # far below the class tolerance

    def test_zero_sample(self):
        rep = check_periodicity_sin3(make_context(3), [0j])
        assert rep.passed
        assert abs(rep.lhs) < 1e-12

    def test_catches_a_wrong_value(self, monkeypatch):
        exact = verify.sin3_global

        def off_by_1e9(ctx, z):
            res = exact(ctx, z)
            return EvalResult(res.value * (1.0 + 1e-9), res.is_pole, res.residual)

        monkeypatch.setattr(verify, "sin3_global", off_by_1e9)
        rep = check_periodicity_sin3(make_context(3), self.SAMPLES)
        assert not rep.passed
        assert rep.tolerance == DEFAULT_TOLERANCES["identity"]


class TestTrisection:
    def test_areas(self):
        rep = check_trisection(make_context(3))
        assert rep.passed
        assert rep.lhs.real == pytest.approx(0.8833193751, abs=1e-9)
        assert rep.rhs.real == pytest.approx(gamma_pi_n(3) / 4.0, abs=1e-14)
        assert "quadrant=" in rep.note and "total=" in rep.note

    def test_three_to_one_relation(self):
        rep = check_trisection(make_context(3))
        quadrant = float(rep.note.split("quadrant=")[1].split()[0])
        total = float(rep.note.split("total=")[1].split()[0])
        assert total == pytest.approx(3.0 * quadrant, abs=1e-10)


def test_n3_checks_refuse_other_contexts():
    ctx = make_context(4)
    with pytest.raises(squig.ParameterError):
        check_periodicity_sin3(ctx, [0j])
    with pytest.raises(squig.ParameterError):
        check_trisection(ctx)


def test_sampled_checks_refuse_an_empty_sample_list():
    # with no samples a check would pass with abs_error -1, below the
    # report schema's minimum of 0
    with pytest.raises(squig.ParameterError, match="sample"):
        check_periodicity_sin3(make_context(3), [])
    with pytest.raises(squig.ParameterError, match="sample"):
        check_sc_factorization(make_context(4), [])


@pytest.mark.parametrize("call", [
    lambda: check_limit_at_infinity(make_context(4), radii=5),
    lambda: check_sc_factorization(make_context(4), 5),
    lambda: check_periodicity_sin3(make_context(3), 5),
    lambda: check_sc_factorization(make_context(4), ["x"]),
    lambda: check_periodicity_sin3(make_context(3), [0.1, True]),
    lambda: check_sc_factorization(make_context(4), [10 ** 400]),
    lambda: check_periodicity_sin3(make_context(3), [0.1, -10 ** 400]),
    lambda: check_sc_factorization(make_context(4), [10 ** 5000]),
], ids=["radii-int", "sc-int", "periodicity-int", "sc-str", "periodicity-bool",
        "sc-huge-int", "periodicity-huge-int", "sc-huger-int"])
def test_sampled_checks_refuse_samples_that_are_not_a_sequence_of_numbers(call):
    # each once raised a raw TypeError or ValueError, or (an int beyond the
    # float range) a raw OverflowError from complex() inside the measured call;
    # an int of more than 4,300 digits raised a raw ValueError from the
    # refusal's own message
    with pytest.raises(squig.ParameterError, match="radii|sample"):
        call()


CHECKS = [
    lambda ctx, tol: check_integral_slit(ctx, tol),
    lambda ctx, tol: check_integral_ray(ctx, tol),
    lambda ctx, tol: check_limit_at_infinity(ctx, tolerance=tol),
    lambda ctx, tol: check_winding(ctx, 50.0, 0.4 * ctx.P, tol),
    lambda ctx, tol: check_periodicity_sin3(make_context(3), [0j], tol),
    lambda ctx, tol: check_trisection(make_context(3), tol),
    lambda ctx, tol: check_sc_factorization(ctx, [0.5], tol),
    lambda ctx, tol: check_riemann_normalization(ctx, tol),
]


@pytest.mark.parametrize("bad", [math.inf, -1.0, 0.0, math.nan, "x", True, 10 ** 400],
                         ids=["inf", "negative", "zero", "nan", "str", "bool", "huge-int"])
def test_checks_refuse_a_tolerance_that_is_not_positive_and_finite(bad):
    # infinity once passed without checking anything, -1.0, 0.0 and NaN gave
    # rows that could never pass, "x" raised a raw ValueError and 10**400 a
    # raw OverflowError; the rule is VerifyConfig's, and the refusal comes
    # before any measuring
    for check in CHECKS:
        with pytest.raises(squig.ParameterError, match="tolerance"):
            check(make_context(4), bad)


@pytest.mark.parametrize("R", [0.5, 1.0, math.inf, math.nan, "x", True, 10 ** 400],
                         ids=["below-tip", "at-tip", "inf", "nan", "str", "bool", "huge-int"])
def test_winding_refuses_a_radius_that_is_not_finite_above_one(R):
    # R = 0.5 once passed with the keyhole inside the slit tip at 1, "x"
    # raised a raw ValueError, and 10**400 a raw OverflowError
    with pytest.raises(squig.ParameterError, match="R"):
        check_winding(make_context(4), R, 0.1)


@pytest.mark.parametrize("w", ["x", math.nan, math.inf, complex(0, math.nan), None, True,
                               10 ** 400, 10 ** 5000, [1]],
                         ids=["str", "nan", "inf", "complex-nan", "none", "bool", "huge-int",
                              "huger-int", "list"])
def test_winding_refuses_a_target_that_is_not_a_finite_number(w):
    # "x", nan, inf and complex(0, nan) once raised a raw ValueError, None a
    # raw TypeError, 10**400 a raw OverflowError, True was taken as 1, and
    # 10**5000 raised a raw ValueError from the refusal's own message; the
    # count itself, winding_number, raised a raw TypeError or OverflowError
    with pytest.raises(squig.ParameterError, match="target"):
        check_winding(make_context(4), 50.0, w)
    loop = [cmath.exp(2j * math.pi * k / 64) for k in range(65)]
    with pytest.raises(squig.ParameterError, match="target"):
        winding_number(loop, w)


def test_winding_about_a_target_near_the_float_range_is_a_failed_row():
    # finite, but the loop's angle increments overflow to NaN, which once
    # raised a raw ValueError from round()
    rep = check_winding(make_context(4), 50.0, complex(1e308, 1e308))
    assert rep.passed is False and rep.note.startswith("RefinementNeededError")


@pytest.mark.parametrize("field, bad", [
    ("n_values", ()),
    ("families", ()), ("families", ("nope",)), ("families", ("winding", "nope")),
    ("tolerances", {"integral_ray": -1}), ("tolerances", {"identity": 0.0}),
    ("tolerances", {"quadrature": math.nan}), ("tolerances", {"limit": math.inf}),
    ("tolerances", {"identity": "1e-9"}), ("tolerances", {"bogus": 1}),
    ("tolerances", [("identity", 1e-9)]), ("tolerances", "x"), ("tolerances", 5),
    ("tolerances", {"identity": 10 ** 400}),
])
def test_verify_config_refuses_vacuous_or_unpassable_settings(field, bad):
    # each would run no check, or a check that passes or fails whatever the
    # library computes; a tolerances that is not a mapping once raised a raw
    # AttributeError
    with pytest.raises(squig.ParameterError, match=field.rstrip("s")):
        VerifyConfig(**{field: bad})


@pytest.mark.parametrize("n_values, families", [
    ((4,), ("trisection",)),
    ((4, 5), ("periodicity_sin3",)),
    ((4, 8, 64), ("trisection", "periodicity_sin3")),
], ids=["trisection", "periodicity", "both"])
def test_verify_config_refuses_n3_only_families_without_n3(n_values, families):
    # such a run checked nothing: run_all returned [] and the CLI exited 0
    with pytest.raises(squig.ParameterError, match="n = 3 only"):
        VerifyConfig(n_values=n_values, families=families)


def test_verify_config_takes_n3_only_families_with_n3_or_another_family():
    rows = run_all(VerifyConfig(n_values=(4, 3), families=("trisection",)))
    assert [(r.name, r.n) for r in rows] == [("trisection", 3)]
    rows = run_all(VerifyConfig(n_values=(4,), families=("trisection", "integral_ray")))
    assert [(r.name, r.n) for r in rows] == [("integral_ray", 4)]


@pytest.mark.parametrize("bad", [4, "34", (3, 4.0), (3, True), {3, 4}, None])
def test_verify_config_refuses_n_values_of_the_wrong_type(bad):
    # n_values=4 once reached run_all and raised a raw TypeError there
    with pytest.raises(squig.ParameterError, match="n_value"):
        VerifyConfig(n_values=bad)


# each family's independent route, the one a raised error can come from
FAMILY_ROUTES = [
    ("integral_slit", "integrate_smooth"),
    ("integral_ray", "integrate_tail"),
    ("limit_at_infinity", "limit_profile"),
    ("winding", "winding_number"),
    ("periodicity_sin3", "_ode_pair"),
    ("trisection", "integrate_endpoint_singular"),
    ("sc_factorization", "_triangle_map"),
    ("riemann_normalization", "sin_n"),
]


@pytest.mark.parametrize("family, route", FAMILY_ROUTES)
def test_a_raised_route_becomes_the_family_failed_row(monkeypatch, family, route):
    def boom(*args, **kwargs):
        raise squig.QuadratureError("injected")

    monkeypatch.setattr(verify, route, boom)
    [rep] = run_all(VerifyConfig(n_values=(3,), families=(family,)))
    assert (rep.name, rep.n, rep.lhs, rep.rhs) == (family, 3, 0j, 0j)
    assert rep.abs_error == 1e308 and rep.passed is False
    assert rep.note == "QuadratureError: injected"
    assert rep.tolerance == DEFAULT_TOLERANCES[verify._FAMILIES[family][0]]


def test_route_table_covers_every_family():
    # a family added to the suite needs its failed-row case above
    assert {family for family, _ in FAMILY_ROUTES} == set(verify._FAMILIES)


def test_failed_row_fails_under_any_tolerance(monkeypatch):
    def boom(*args, **kwargs):
        raise squig.QuadratureError("injected")

    monkeypatch.setattr(verify, "integrate_smooth", boom)
    # the largest tolerance a check takes, above the failed row's 1e308
    rep = check_integral_slit(make_context(4), tolerance=sys.float_info.max)
    assert rep.abs_error == 1e308 and rep.passed is False


@pytest.mark.parametrize("check, n, samples", [
    (check_sc_factorization, 4, [1e308]),
    (check_sc_factorization, 4, [0.5, 1e308]),
    (check_periodicity_sin3, 3, [1e10]),
], ids=["sc-nan", "sc-finite-then-nan", "periodicity-nan"])
def test_a_nan_error_is_a_failed_row(check, n, samples):
    # the reference is NaN at these samples; the worst-error scan once
    # skipped a NaN (d > worst is False), so the row passed with abs_error
    # -1.0 or 0.0
    rep = check(make_context(n), samples)
    assert rep.passed is False and rep.abs_error == 1e308
    assert (rep.lhs, rep.rhs) == (0j, 0j) and "non-finite measurement: abs_error nan" in rep.note
    # the CLI's strict JSON takes the row
    json.dumps(cli._report_dict(rep, stable=True), allow_nan=False)


def test_a_nan_on_the_limit_profile_is_a_failed_row(monkeypatch):
    # max() kept the first of a NaN and a number, whichever came first
    ctx = make_context(4)
    real = verify.arcsin_n
    monkeypatch.setattr(verify, "arcsin_n",
                        lambda c, w: complex(math.nan, 0.0) if abs(w) < 500 else real(c, w))
    assert math.isnan(limit_profile(ctx, [100.0], angles=4)[0])
    rep = check_limit_at_infinity(ctx, radii=[100.0, 1000.0])
    assert rep.passed is False and rep.abs_error == 1e308
    assert rep.note.startswith("non-finite measurement: abs_error nan")


def test_verify_config_takes_family_and_class_tolerances():
    cfg = VerifyConfig(families=("winding",),
                       tolerances={"winding": 1e-9, "identity": 1, "quadrature": 1,
                                   "limit": 2e-3})
    assert verify._resolved_tol(cfg, "winding") == 1e-9
    assert verify._resolved_tol(cfg, "integral_ray") == 1.0


def test_run_all_builds_one_context_per_n(monkeypatch):
    # the n = 3 checks run on run_all's context, where the other checks have
    # already built its caches
    built = []

    def counting(n):
        built.append(n)
        return make_context(n)

    monkeypatch.setattr(verify, "make_context", counting)
    reports = run_all(VerifyConfig(n_values=(3,),
                                   families=("periodicity_sin3", "trisection")))
    assert built == [3]
    assert [r.name for r in reports] == ["periodicity_sin3", "trisection"]


class TestScFactorization:
    def test_samples_pass(self):
        for n in (3, 4, 6):
            ctx = make_context(n)
            zs = [0.5 * cmath.exp(1j * math.pi / (2 * n)), 0.9, 0.2,
                  0.85 * cmath.exp(1j * math.pi / n)]
            rep = check_sc_factorization(ctx, zs)
            assert rep.passed
            assert rep.abs_error < 1e-12

    def test_tolerance_override(self):
        ctx = make_context(4)
        # the default n = 4 samples, where the routes differ by up to 5.6e-16;
        # at points such as 0.5 or 0.9 they agree exactly, which no tolerance
        # can fail
        rep = check_sc_factorization(ctx, verify._sc_samples(4),
                                     tolerance=1e-16)
        assert rep.abs_error > 0.0
        assert not rep.passed


class TestRiemannNormalization:
    def test_unit_derivative(self):
        for n in (3, 4, 7):
            rep = check_riemann_normalization(make_context(n))
            assert rep.passed
            assert rep.lhs == pytest.approx(1.0, abs=1e-9)
            assert rep.note == "origin=0j"


class TestRunAll:
    def test_default_suite_green(self):
        reports = run_all()
        assert all(r.passed for r in reports)
        # 6 per-n families over n=3..8 plus the two n=3-only checks
        assert len(reports) == 38

    def test_sorted_by_name_then_n(self):
        reports = run_all(VerifyConfig(n_values=(5, 3, 4)))
        keys = [(r.name, r.n) for r in reports]
        assert keys == sorted(keys)

    def test_single_n_filters_families(self):
        reports = run_all(VerifyConfig(n_values=(4,)))
        assert {r.n for r in reports} == {4}
        assert {r.name for r in reports} == {
            "integral_slit", "integral_ray", "limit_at_infinity",
            "winding", "sc_factorization", "riemann_normalization"}

    def test_family_filter(self):
        reports = run_all(VerifyConfig(n_values=(4, 5), families=("winding",)))
        assert [r.name for r in reports] == ["winding", "winding"]

    def test_tightened_tolerance_fails_quadrature(self):
        cfg = VerifyConfig(n_values=(4,), tolerances={"quadrature": 1e-15},
                           families=("integral_slit", "winding"))
        by_name = {r.name: r for r in run_all(cfg)}
        assert not by_name["integral_slit"].passed
        assert by_name["winding"].passed  # exact integers are unaffected

    def test_reproducible_modulo_runtime(self):
        strip = lambda rows: [(r.name, r.n, r.lhs, r.rhs, r.abs_error,
                               r.tolerance, r.passed, r.note) for r in rows]
        cfg = VerifyConfig(n_values=(3, 4))
        assert strip(run_all(cfg)) == strip(run_all(cfg))

    def test_default_tolerances_exposed(self):
        assert DEFAULT_TOLERANCES["quadrature"] == 1e-8
        assert DEFAULT_TOLERANCES["identity"] == 1e-10


def test_runtime_is_stdlib_only():
    # a fresh interpreter, so modules that other tests imported cannot leak in;
    # it runs periodicity_sin3's Taylor route, every route of the inverse
    # (the discs at 0 and at A, and the pole series, which also serves the
    # lens between the discs), the kernel near A and the CLI
    code = (
        "import sys\n"
        "import squig\n"
        "import squig.cli\n"
        "from squig import squigfn\n"
        "from squig.verify import VerifyConfig, run_all\n"
        "reports = run_all(VerifyConfig(n_values=(3,), families=('periodicity_sin3',)))\n"
        "assert [r.name for r in reports] == ['periodicity_sin3'] and reports[0].passed\n"
        "routes = set()\n"
        "kernel = squigfn._series_sum\n"
        "def spied(*a):\n"
        "    # every route sums through _series_sum, and its caller names the\n"
        "    # route: _evaluate for the disc at 0, _corner_invert for the disc\n"
        "    # at A, _pole_invert for the pole series\n"
        "    routes.add(sys._getframe(1).f_code.co_name)\n"
        "    return kernel(*a)\n"
        "squigfn._series_sum = spied\n"
        "ctx = squig.make_context(5)\n"
        "for w in (1.0 + 0.01j, 0.3 + 0.1j):\n"
        "    t = squig.arcsin_n(ctx, w)\n"
        "    assert abs(squig.sin_n(ctx, t).value - w) < 1e-12\n"
        "    assert abs(squig.cos_n(ctx, t).value - (1 - w ** 5) ** 0.2) < 1e-12\n"
        "assert routes == {'_evaluate', '_corner_invert'}, routes\n"
        "ctx = squig.make_context(3)\n"
        "assert abs(squig.sin_n(ctx, squig.arcsin_n_sector(ctx, 6.0)).value - 6.0) < 1e-12\n"
        "assert routes == {'_evaluate', '_corner_invert', '_pole_invert'}, routes\n"
        "ctx = squig.make_context(8)\n"
        "routes.clear()\n"
        "t = ctx.A / 2 + 0.1j\n"
        "assert abs(squig.arcsin_n(ctx, squig.sin_n(ctx, t).value) - t) < 1e-12\n"
        "assert routes == {'_pole_invert'}, routes\n"
        "assert squig.cli.main(['eval', '--n', '4', '--fn', 'sin', '--z', '1.8']) == 0\n"
        "loaded = {'numpy', 'scipy', 'mpmath', 'hypothesis'} & set(sys.modules)\n"
        "assert not loaded, sorted(loaded)\n"
    )
    src = str(Path(squig.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
