"""Sine/cosine evaluation, inverse maps, series and their certificates."""

import cmath
import inspect
import math
import random
from fractions import Fraction

import mpmath
import pytest

from squig import numerics, squigfn
from squig.errors import ConvergenceError, DomainError, InvalidSeriesError, ParameterError
from squig.geometry import fold, make_context
from squig.numerics import ODE_TERMS, _ODE_TAIL, _series_sum
from squig.regions import sample_domain
from squig.series import radius_estimate
from squig.squigfn import (
    EvalResult,
    _edge_integral,
    _invert_slit_edge,
    arcsin_n,
    arcsin_n_sector,
    cos_n,
    maclaurin,
    sin3_global,
    sin_n,
)

from conftest import (
    gamma_full_period,
    gamma_half_period,
    rk4_pair_continuation,
    slit_integral_oracle,
)


def corner_radius_oracle(n: int) -> float:
    # distance from the origin to the obstruction corner, via gamma values
    return 0.5 * gamma_half_period(n) / math.cos(math.pi / n)


def sine_root_n4(t: complex, guess: complex) -> mpmath.mpc:
    """The root u of F_4(u) = t next to guess, at 30 digits."""
    with mpmath.workdps(30):
        q = mpmath.mpf(1) / 4
        return mpmath.findroot(
            lambda u: u * mpmath.hyp2f1(3 * q, q, 1 + q, u**4) - mpmath.mpc(t),
            mpmath.mpc(guess))


class TestPiN:
    def test_matches_gamma(self):
        for n in range(3, 9):
            assert make_context(n).pi_n == pytest.approx(
                gamma_full_period(n), abs=1e-12
            )


class TestMaclaurin:
    def test_exact_n3_coefficients(self):
        ser = maclaurin(make_context(3), 5)
        want = {
            1: Fraction(1),
            4: Fraction(-1, 6),
            7: Fraction(2, 63),
            10: Fraction(-13, 2268),
            13: Fraction(23, 22113),
        }
        assert dict(zip(ser.degrees, ser.coeffs)) == want

    def test_first_inverse_coefficient_general(self):
        # leading correction is minus the forward one: -(n-1)/n / (n+1)
        for n in (4, 5, 8):
            ser = maclaurin(make_context(n), 2)
            assert ser.degrees == (1, n + 1)
            assert ser.coefficient(n + 1) == -Fraction(n - 1, n * (n + 1))

    def test_a_shorter_series_is_a_head_of_a_longer_one(self):
        ctx = make_context(3)
        long = maclaurin(ctx, 12)
        short = maclaurin(ctx, 5)
        assert short.term_count() == 5
        assert long.term_count() == 12
        assert short == long.head(5)

    def test_longer_request_after_shorter(self):
        ctx = make_context(5)
        maclaurin(ctx, 7)
        assert maclaurin(ctx, 20) == maclaurin(make_context(5), 20)

    @pytest.mark.parametrize("n", [3, 8, 64])
    def test_float_tables_match_exact_head(self, n):
        # the disc at 0 sums the float tables; the exact series, cut at the
        # tables' length and summed at 40 digits, lies within the certificate
        ctx = make_context(n)
        head = maclaurin(ctx, ODE_TERMS)
        radius = ctx.disc
        for frac in (0.05, 0.3, 0.55, 0.72, 1.0):
            for phase in (0.0, 0.4, 1.0):
                t = frac * radius * cmath.exp(1j * math.pi / n * phase)
                s, bound = _series_sum(ctx.sine, t, n, ctx.scale, 1.0, _ODE_TAIL, True)
                with mpmath.workdps(40):
                    ref = complex(sum(mpmath.mpf(c.numerator) / c.denominator * mpmath.mpc(t) ** d
                                      for d, c in zip(head.degrees, head.coeffs)))
                assert abs(s - ref) <= bound, t
                assert abs(s - ref) <= 1e-15 * abs(ref), t

    def test_agrees_with_evaluation(self):
        ctx = make_context(4)
        ser = maclaurin(ctx, 30)
        for z in (0.3, 0.2 + 0.25j, -0.4 + 0.1j):
            got = sin_n(ctx, z)
            assert ser.evaluate(z) == pytest.approx(got.value, abs=1e-12)

    @pytest.mark.parametrize("bad", [0, -2, 2.5, True])
    def test_bad_terms(self, bad):
        with pytest.raises(ParameterError):
            maclaurin(make_context(3), bad)


class TestRadiusEstimate:
    def test_five_term_estimate(self):
        est = radius_estimate(maclaurin(make_context(3), 5))
        R = corner_radius_oracle(3)
        assert abs(est - R) / R < 0.005

    def test_forty_term_estimates(self):
        for n in (3, 4, 5, 6):
            est = radius_estimate(maclaurin(make_context(n), 40))
            R = corner_radius_oracle(n)
            assert abs(est - R) / R < 0.01

    def test_too_few_terms(self):
        with pytest.raises(InvalidSeriesError):
            radius_estimate(maclaurin(make_context(3), 3))


class TestArcsinSector:
    def test_endpoints(self):
        for n in (3, 4, 6):
            ctx = make_context(n)
            assert arcsin_n_sector(ctx, 0) == 0j
            assert arcsin_n_sector(ctx, 1.0) == ctx.A
            # the float omega is not the root itself: F moves like
            # n^(1/n) |delta|^(1/n) next to it, and |delta| is a few ulps
            bound = 2.0 * n ** (1.0 / n) * (4.0 * 2.0**-53) ** (1.0 / n)
            assert abs(arcsin_n_sector(ctx, ctx.omega) - ctx.B) <= bound

    def test_interior_against_scipy(self):
        from scipy.integrate import quad

        for n in (3, 5):
            ctx = make_context(n)
            beta = (n - 1) / n
            for z in (0.5 + 0.3j, 0.9 * cmath.exp(0.9j * math.pi / n), 2.0 * cmath.exp(0.5j * math.pi / n)):

                def f(s, part):
                    v = z * (1.0 - (s * z) ** n) ** (-beta)
                    return v.real if part else v.imag

                re, _ = quad(f, 0.0, 1.0, args=(True,), limit=200, epsabs=1e-12)
                im, _ = quad(f, 0.0, 1.0, args=(False,), limit=200, epsabs=1e-12)
                assert arcsin_n_sector(ctx, z) == pytest.approx(
                    complex(re, im), abs=2e-10
                )

    def test_lower_edge_beyond_root(self):
        # [1, inf) maps onto the segment from A toward P
        for n in (3, 4, 5):
            ctx = make_context(n)
            phase = cmath.exp(1j * math.pi * (n - 1) / n)
            prev = 0.0
            for x in (1.2, 2.0, 5.0, 30.0):
                offset = (arcsin_n_sector(ctx, x) - ctx.A) / phase
                assert abs(offset.imag) < 1e-12
                assert prev < offset.real < ctx.R
                prev = offset.real

    def test_edge_limit_is_corner(self):
        ctx = make_context(5)
        far = arcsin_n_sector(ctx, 1e5)
        assert abs(far - ctx.P) < 1e-14 + (1e5) ** (-3.0) / 3.0 * 1.001

    def test_upper_edge_symmetry(self):
        for n in (3, 4):
            ctx = make_context(n)
            for x in (1.5, 3.0):
                lower = arcsin_n_sector(ctx, x)
                upper = arcsin_n_sector(ctx, x * ctx.omega)
                assert upper == pytest.approx(ctx.omega * lower.conjugate(), abs=1e-12)

    def test_outside_sector(self):
        ctx = make_context(4)
        for z in (-0.5 + 0.1j, 0.5 - 0.3j, cmath.exp(2.2j * math.pi / 4)):
            with pytest.raises(DomainError) as err:
                arcsin_n_sector(ctx, z)
            assert err.value.region == "V_4"


class TestArcsinGlobal:
    def test_rotation_and_conjugation_symmetry(self):
        ctx = make_context(5)
        w = 0.6 + 0.2j
        base = arcsin_n(ctx, w)
        for k in range(5):
            rot = cmath.exp(2j * math.pi * k / 5)
            assert arcsin_n(ctx, rot * w) == pytest.approx(rot * base, abs=1e-12)
        assert arcsin_n(ctx, w.conjugate()) == pytest.approx(
            base.conjugate(), abs=1e-12
        )

    def test_roundtrip_through_sine(self, rng):
        for n in (3, 4, 6):
            ctx = make_context(n)
            for _ in range(25):
                r = rng.uniform(0.1, 20.0)
                th = rng.uniform(0.02, 2.0 * math.pi)
                w = r * cmath.exp(1j * th)
                if not any(
                    abs((w * cmath.exp(-2j * math.pi * k / n)).imag) < 1e-3
                    and (w * cmath.exp(-2j * math.pi * k / n)).real > 0.9
                    for k in range(n)
                ):
                    z = arcsin_n(ctx, w)
                    back = sin_n(ctx, z)
                    assert not back.is_pole
                    # ~1e-12 inversion residuals amplified by |sine'| = |cosine|^(n-1)
                    cond = (1.0 + r**n) ** ((n - 1) / n)
                    assert back.value == pytest.approx(w, abs=1e-10 + 1e-11 * cond)

    def test_slit_rejected(self):
        ctx = make_context(4)
        for w in (1.2, 1.0, (3.0 + 1e-10j) * cmath.exp(2j * math.pi / 4)):
            with pytest.raises(DomainError) as err:
                arcsin_n(ctx, w)
            assert err.value.region == "Sigma_4"

    def test_zero(self):
        assert arcsin_n(make_context(3), 0) == 0j


class TestSinCosAgainstOde:
    def test_sampled_domain(self, rng):
        for n in range(3, 9):
            ctx = make_context(n)
            for z in sample_domain(ctx, rng, 10, pole_clearance=0.15):
                s = sin_n(ctx, z)
                c = cos_n(ctx, z)
                so, co = rk4_pair_continuation(n, z, steps=8000)
                assert not s.is_pole
                assert s.value == pytest.approx(so, abs=5e-9)
                assert c.value == pytest.approx(co, abs=5e-9)
                assert s.residual < 1e-10
                assert c.residual < 1e-10

    def test_pythagorean(self, rng):
        for n in (3, 4, 6, 8):
            ctx = make_context(n)
            for z in sample_domain(ctx, rng, 20, pole_clearance=0.1):
                s = sin_n(ctx, z).value
                c = cos_n(ctx, z).value
                assert abs(s**n + c**n - 1.0) < 1e-12

    def test_lattice_shifted_against_ode(self):
        ctx = make_context(3)
        for v in (0.3 + 0.2j, -0.5 + 0.4j):
            for shift in (ctx.cell_shift_1, ctx.cell_shift_2, 2 * ctx.cell_shift_1):
                z = v + shift
                s = sin3_global(ctx, z)
                c = cos_n(ctx, z)
                so, co = rk4_pair_continuation(3, z, steps=16000)
                assert s.value == pytest.approx(so, abs=5e-9)
                assert c.value == pytest.approx(co, abs=5e-9)


class TestTransportRules:
    def test_rotation(self):
        ctx = make_context(5)
        z = 0.6 + 0.35j
        s0 = sin_n(ctx, z).value
        c0 = cos_n(ctx, z).value
        for k in range(1, 5):
            rot = cmath.exp(2j * math.pi * k / 5)
            assert sin_n(ctx, rot * z).value == pytest.approx(rot * s0, abs=1e-12)
            assert cos_n(ctx, rot * z).value == pytest.approx(c0, abs=1e-12)

    def test_conjugation(self):
        ctx = make_context(4)
        z = 0.8 + 0.5j
        assert sin_n(ctx, z.conjugate()).value == pytest.approx(
            sin_n(ctx, z).value.conjugate(), abs=1e-12
        )
        assert cos_n(ctx, z.conjugate()).value == pytest.approx(
            cos_n(ctx, z).value.conjugate(), abs=1e-12
        )

    def test_oddness_inside_kite(self):
        # the map is odd where both points avoid folding differences: use
        # the n = 4 rosette, which contains -z for every kite point
        ctx = make_context(4)
        for z in (0.4 + 0.3j, 0.9 + 0.2j):
            assert sin_n(ctx, -z).value == pytest.approx(
                -sin_n(ctx, z).value, abs=1e-12
            )


class TestPolesAndCorners:
    def test_n3_pole_lattice(self):
        ctx = make_context(3)
        pole_pts = [
            ctx.P,
            ctx.P * ctx.omega,
            ctx.P + ctx.cell_shift_1,
            ctx.P - 2 * ctx.cell_shift_2,
        ]
        for z in pole_pts:
            got = sin3_global(ctx, z)
            assert got.is_pole
            assert got.value is None
            assert got.residual == 0.0
            assert cos_n(ctx, z).is_pole

    def test_minus_corner_is_regular(self):
        # -P coincides with the rotated half-period vertex omega^2 A
        ctx = make_context(3)
        got = sin3_global(ctx, -ctx.P)
        assert not got.is_pole
        assert got.value == pytest.approx(ctx.omega**2, abs=1e-12)

    def test_pole_flag_n4(self):
        # the flag is set only where P lies within the error of the target;
        # 1e-8 |P| off P the pole series returns a value within its bound
        ctx = make_context(4)
        for k in range(4):
            assert sin_n(ctx, ctx.P * ctx.roots[k]).is_pole
            assert cos_n(ctx, ctx.P * ctx.roots[k]).is_pole
        t = ctx.P * (1 - 1e-8)
        got = sin_n(ctx, t)
        assert not got.is_pole and not cos_n(ctx, t).is_pole
        assert abs(got.value - complex(sine_root_n4(t, got.value))) <= got.residual

    def test_divergence_just_outside_guard(self):
        # the residual is the pole series' forward bound; the 5e-16 error of
        # P alone moves u by 2.5e-11 relative here
        ctx = make_context(4)
        t = ctx.P * (1 - 1e-5)
        got = sin_n(ctx, t)
        assert not got.is_pole
        assert abs(got.value) > 50.0
        assert got.residual < 1e-10 * abs(got.value)
        assert abs(got.value - complex(sine_root_n4(t, got.value))) <= got.residual

    def test_half_period_vertex(self):
        for n in (3, 4, 7):
            ctx = make_context(n)
            s = sin_n(ctx, ctx.A)
            c = cos_n(ctx, ctx.A)
            assert s.value == pytest.approx(1.0, abs=1e-13)
            assert abs(c.value) < 1e-12

    def test_rotated_vertex(self):
        ctx = make_context(6)
        s = sin_n(ctx, ctx.B)
        assert s.value == pytest.approx(ctx.omega, abs=1e-12)


# the edge-image target of the benchmark that Newton failed on (n = 4)
EDGE_FAILURE = 0.8195010032213695 + 1.0345736657883284j
# a target of the lens between the discs, which Newton served (n = 8)
LENS_TARGET = 0.9748587606477509 - 0.18636096827399323j


class TestEdgeSegment:
    def test_sin_cos_on_slit_edge_image(self):
        for n in (3, 4, 5):
            ctx = make_context(n)
            for x in (1.05, 1.6, 3.5):
                z = arcsin_n_sector(ctx, x)
                s = sin_n(ctx, z)
                c = cos_n(ctx, z)
                assert s.value == pytest.approx(x, abs=1e-9)
                want = (x**n - 1.0) ** (1.0 / n) * cmath.exp(-1j * math.pi / n)
                assert c.value == pytest.approx(want, abs=1e-9)
                so, co = rk4_pair_continuation(n, z, steps=12000)
                assert c.value == pytest.approx(co, abs=1e-8)

    def test_former_edge_failure_takes_the_pole_series(self, monkeypatch):
        # a target 3e-9 |A| inside the edge image A-P for n = 4, 0.116 R from
        # P and outside the disc at A, where Newton from the old pole seed
        # raised ConvergenceError; the pole series inverts it without Newton
        ctx = make_context(4)
        monkeypatch.setattr(numerics, "newton_invert", lambda *a, **kw: pytest.fail("Newton"))
        z = EDGE_FAILURE
        s, c = sin_n(ctx, z).value, cos_n(ctx, z).value
        with mpmath.workdps(30):
            u = sine_root_n4(z, s)
            ref_s, ref_c = complex(u), complex((1 - u**4) ** (mpmath.mpf(1) / 4))
        assert abs(s - ref_s) <= 1e-12 * abs(ref_s)
        assert abs(c - ref_c) <= 1e-12 * abs(ref_c)


def edge_x(n: int) -> list:
    """Points x of the lower slit edge from 1.01 to 50, seeded, x - 1
    log-uniform: a third of them within 0.17 of the corner x = 1."""
    rng = random.Random(f"edge:{n}")
    return [1.01, 50.0] + [1.0 + math.exp(rng.uniform(math.log(0.01), math.log(49.0)))
                           for _ in range(12)]


def edge_integral_mp(n: int, x: float) -> mpmath.mpf:
    """The integral of (t**n - 1)**(-beta) over [1, x] at 30 digits, with
    t = 1 + s**n as in verify._slit_edge_integral: t**n - 1 = s**n poly(t),
    so the integrand n poly(t)**(-beta) is smooth (a plain quadrature over
    [1, x] is up to 30% off at n = 64).  poly(t) = (t**n - 1) / s**n, with
    t**n - 1 = expm1(n log1p(s**n)) free of cancellation."""
    with mpmath.workdps(30):
        beta = mpmath.mpf(n - 1) / n
        top = (mpmath.mpf(x) - 1) ** (mpmath.mpf(1) / n)

        def integrand(s):
            sn = s**n
            return n * (mpmath.expm1(n * mpmath.log1p(sn)) / sn) ** -beta

        return mpmath.quad(integrand, [0, top] if top <= 1 else [0, 1, top])


class TestTracerPinnedViews:
    # no route calls these; bench/spans.py wraps them by name, so a broken
    # view would show only here

    @pytest.mark.parametrize("n", [3, 8, 64])
    def test_edge_integral_against_mpmath(self, n):
        ctx = make_context(n)
        assert _edge_integral(ctx, 1.0) == _edge_integral(ctx, 0.5) == 0.0
        for x in edge_x(n):
            ref = edge_integral_mp(n, x)
            assert abs(_edge_integral(ctx, x) - ref) <= 1e-14 * ref, x

    @pytest.mark.parametrize("n", [3, 8, 64])
    def test_invert_slit_edge_round_trip(self, n):
        # the slope dx/dm is (x**n - 1)**beta, so m's last bits move x by
        # that much; where the point is P's or flagged as the pole it raises
        ctx = make_context(n)
        beta = (n - 1) / n
        solved = 0
        for x in edge_x(n):
            m = _edge_integral(ctx, x)
            if m >= ctx.R or sin_n(ctx, ctx.A + m * ctx.phase).is_pole:
                with pytest.raises(ConvergenceError):
                    _invert_slit_edge(ctx, m)
                continue
            back, residual = _invert_slit_edge(ctx, m)
            assert abs(back - x) <= residual + 4 * math.ulp(m) * (x**n - 1) ** beta, x
            solved += 1
        assert solved >= 3
        with pytest.raises(ConvergenceError):
            _invert_slit_edge(ctx, ctx.R)

    @pytest.mark.parametrize("n", [3, 8, 64])
    def test_newton_invert_round_trip(self, n):
        # newton_invert is sin_n on the kite: F(z) goes back to z within the
        # sine's bound plus F's rounding times the slope (1 - z**n)**beta
        # (measured: within 0.6 of the bound on residual alone); an image
        # that the sine flags as the pole, within rounding of P, raises
        ctx = make_context(n)
        beta = (n - 1) / n
        rng = random.Random(f"newton view:{n}")
        solved = 0
        for _ in range(40):
            z = 10 ** rng.uniform(math.log10(0.05), math.log10(5.0)) * cmath.exp(
                1j * rng.uniform(0.0, ctx.tau))
            w = numerics.sector_ray_integral(ctx, z)
            if sin_n(ctx, w).is_pole:
                assert abs(w - ctx.P) <= 2 * (squigfn._P_ERR + squigfn._FOLD_ROUND) * ctx.R
                with pytest.raises(ConvergenceError):
                    numerics.newton_invert(n, w)
                continue
            res = numerics.newton_invert(n, w)
            assert res.iterations == 0
            slope = abs(1.0 - z**n) ** beta
            assert abs(res.z - z) <= res.residual + 4 * math.ulp(abs(w)) * slope, z
            solved += 1
        assert solved >= 20

    @pytest.mark.parametrize("n", [3, 8, 64])
    def test_newton_invert_refuses_outside_the_kite_and_at_the_pole(self, n):
        ctx = make_context(n)
        for w in (1.01 * ctx.P, -0.1 * ctx.A, 2.0 * ctx.A, 0.5 * ctx.A - 0.01j):
            with pytest.raises(DomainError):
                numerics.newton_invert(n, w)
        with pytest.raises(ConvergenceError):
            numerics.newton_invert(n, ctx.P)


class TestSin3Global:
    def test_requires_n3(self):
        with pytest.raises(ParameterError):
            sin3_global(make_context(4), 0.3)

    def test_periodicity(self):
        ctx = make_context(3)
        L1 = 3.0 * ctx.pi_n / 2.0
        L2 = L1 * ctx.omega
        for v in (0.37 + 0.21j, -1.1 + 0.6j, 2.5 - 1.8j):
            base = sin3_global(ctx, v).value
            assert sin3_global(ctx, v + L1).value == pytest.approx(base, abs=1e-12)
            assert sin3_global(ctx, v + L2).value == pytest.approx(base, abs=1e-12)
            assert sin3_global(ctx, v - 2 * L1 + L2).value == pytest.approx(
                base, abs=1e-11
            )

    def test_residual_covers_the_lattice_translation(self):
        # far from 0 the fold's translation by rounded cell shifts moves the
        # folded point by up to 64 ulps of |z| plus A's error times the
        # shift; the residual covers the value at the point reduced by the
        # exact lattice, at 50 digits, times the shift's cube root of unity
        ctx = make_context(3)
        with mpmath.workdps(50):
            a = mpmath.gamma(mpmath.mpf(1) / 3) ** 2 / (3 * mpmath.gamma(mpmath.mpf(2) / 3))
            om = mpmath.exp(2j * mpmath.pi / 3)
            c1, c2 = a * (1 - om), a * (1 - om**2)
        for k in range(1, 14):
            for phase in (0.3, 1.9, -2.4, 2.9, -0.8):
                z = 10.0**k * cmath.exp(1j * phase)
                m1, m2 = fold(ctx, z).lattice_shift
                assert (m1, m2) != (0, 0)
                with mpmath.workdps(50):
                    v = complex(mpmath.mpc(z) - m1 * c1 - m2 * c2)
                assert fold(ctx, v).lattice_shift == (0, 0)
                for fn, root in ((sin_n, ctx.roots[(m2 - m1) % 3]),
                                 (cos_n, ctx.roots[(m1 - m2) % 3])):
                    got, ref = fn(ctx, z), fn(ctx, v)
                    assert abs(got.value - ref.value * root) <= got.residual, (fn, z)

    def test_identity_everywhere(self, rng):
        ctx = make_context(3)
        checked = 0
        while checked < 25:
            z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            s = sin3_global(ctx, z)
            if s.is_pole:
                continue
            c = cos_n(ctx, z)
            assert abs(s.value**3 + c.value**3 - 1.0) < 1e-10
            checked += 1


class TestEvalResultContract:
    def test_pole_fields(self):
        got = sin3_global(make_context(3), make_context(3).P)
        assert got == EvalResult(None, True, 0.0)

    def test_residual_bound_default_tol(self, rng):
        ctx = make_context(5)
        for z in sample_domain(ctx, rng, 15, pole_clearance=0.1):
            got = sin_n(ctx, z)
            assert got.residual < 1e-10


def test_no_sin_cos_call_reaches_newton(monkeypatch):
    # the discs at 0 and at A and the pole series cover every target, the
    # lens included, and take no tolerance
    for fn in (sin_n, cos_n, sin3_global):
        assert "tol" not in inspect.signature(fn).parameters
    for name in ("newton_invert", "_newton_basic"):
        monkeypatch.setattr(numerics, name, lambda *a, **kw: pytest.fail("Newton"))
    for n in range(3, 65):
        ctx = make_context(n)
        points = sample_domain(ctx, random.Random(f"route:{n}"), 30)
        radius = ctx.disc * (1.0 + 1e-9)
        # the disc rims, where the lens is widest
        turn = cmath.exp(0.5j * math.pi / n)
        points += [radius * turn, ctx.A - radius * turn.conjugate()]
        if n == 8:
            points.append(LENS_TARGET)
        for z in points:
            s, c = sin_n(ctx, z), cos_n(ctx, z)
            if not s.is_pole:
                assert abs(s.value**n + c.value**n - 1.0) <= 1e-12, (n, z)
    assert sin3_global(make_context(3), LENS_TARGET).value is not None
