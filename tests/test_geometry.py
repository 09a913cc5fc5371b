"""Region membership, folding and boundary sampling."""

import cmath
import math
import random
import re

import mpmath
import pytest

from squig.errors import DomainError, ParameterError
from squig.geometry import FoldResult, SquigContext, contains_Sigma, fold, make_context, unfold
from squig.regions import boundary_polyline, contains_Pi, in_rosette, sample_domain

from conftest import SEED, gamma_full_period


class TestMakeContext:
    def test_period_matches_gamma_oracle(self):
        # quadrature route vs the closed form; independent by construction
        for n in range(3, 17):
            ctx = make_context(n)
            assert ctx.pi_n == pytest.approx(gamma_full_period(n), abs=1e-12)

    def test_period_large_n(self):
        for n in (32, 48, 64):
            ctx = make_context(n)
            assert ctx.pi_n == pytest.approx(gamma_full_period(n), abs=1e-12)

    def test_period_to_double_precision(self):
        # 30-digit gamma form; the quadrature must be good to rounding error
        for n in range(3, 65):
            with mpmath.workdps(30):
                ref = float(2 * mpmath.gamma(mpmath.mpf(1) / n) ** 2
                            / (n * mpmath.gamma(mpmath.mpf(2) / n)))
            assert abs(make_context(n).pi_n - ref) <= 1e-15 * ref, n

    def test_vertices(self):
        for n in (3, 5, 8):
            ctx = make_context(n)
            assert ctx.A == complex(ctx.pi_n / 2.0, 0.0)
            assert ctx.B == pytest.approx(ctx.omega * ctx.A, abs=1e-14)
            want = (ctx.pi_n / 4.0) / math.cos(math.pi / n) * cmath.exp(1j * math.pi / n)
            assert ctx.P == pytest.approx(want, abs=1e-14)
            assert ctx.omega == pytest.approx(cmath.exp(2j * math.pi / n), abs=1e-15)

    def test_corner_radius_decreases_with_n(self):
        radii = [make_context(n).R for n in range(3, 12)]
        assert all(a > b for a, b in zip(radii, radii[1:]))
        assert radii[-1] > 1.0

    def test_n3_corner_on_unit_radius_of_A(self):
        ctx = make_context(3)
        assert abs(ctx.P) == pytest.approx(abs(ctx.A), abs=1e-13)

    @pytest.mark.parametrize("bad", [2, 65, 0, -3, 1000, pytest.param(10 ** 5000, id="huger-int")])
    def test_out_of_range_n(self, bad):
        # 10**5000 once raised a raw ValueError from the refusal's own message
        with pytest.raises(ParameterError):
            make_context(bad)

    @pytest.mark.parametrize("bad", [3.0, "4", True, None])
    def test_non_integer_n(self, bad):
        with pytest.raises(ParameterError):
            make_context(bad)

    def test_context_takes_n_alone(self):
        # the constructor refuses what make_context refuses, with its messages
        for bad, message in ((2, "n must lie in [3, 64], got 2"),
                             (65, "n must lie in [3, 64], got 65"),
                             (True, "n must be an integer, got True"),
                             (3.0, "n must be an integer, got 3.0")):
            with pytest.raises(ParameterError, match=re.escape(message)):
                SquigContext(bad)
        with pytest.raises(TypeError):
            SquigContext(4, cmath.exp(0.5j))
        with pytest.raises(TypeError):
            SquigContext(n=4, A=1.0 + 0j)
        ctx = SquigContext(5)
        assert (ctx.n, ctx.A, ctx.P, ctx.pi_n) == (5, make_context(5).A, make_context(5).P,
                                                    make_context(5).pi_n)


class TestContainsPi:
    def test_vertices_and_centroid_inside(self):
        for n in (3, 4, 7):
            ctx = make_context(n)
            for v in (0j, ctx.A, ctx.B, ctx.P):
                assert contains_Pi(ctx, v)
            # barycentric interior points of the two half-kite triangles
            assert contains_Pi(ctx, 0.3 * ctx.A + 0.3 * ctx.P)
            assert contains_Pi(ctx, 0.3 * ctx.B + 0.3 * ctx.P)

    def test_outside_points(self):
        ctx = make_context(4)
        assert not contains_Pi(ctx, -0.1 + 0j)
        assert not contains_Pi(ctx, ctx.A * 1.01)
        assert not contains_Pi(ctx, ctx.A.real + 0.05j * ctx.A.real - 2 * 0.05j * ctx.A.real * 1j)
        assert not contains_Pi(ctx, complex(ctx.A.real, -0.01))

    def test_edge_tolerance(self):
        ctx = make_context(5)
        mid = 0.5 * ctx.A  # on the real edge
        assert contains_Pi(ctx, mid - 1e-12j)
        assert not contains_Pi(ctx, mid - 1e-6j)

    def test_reflex_corner_flip(self):
        # the segment [A, B] midpoint leaves the kite exactly when n >= 5
        for n, inside in ((3, True), (4, True), (5, False), (8, False)):
            ctx = make_context(n)
            assert contains_Pi(ctx, 0.5 * (ctx.A + ctx.B)) is inside

    def test_n4_corner_is_midpoint_of_AB(self):
        ctx = make_context(4)
        assert ctx.P == pytest.approx(0.5 * (ctx.A + ctx.B), abs=1e-13)

    def test_corner_angle_spans_two_wedges(self):
        # interior angle of the kite at P is 4*pi/n for every n
        for n in (3, 4, 5, 6, 10):
            ctx = make_context(n)
            ang = abs(cmath.phase((ctx.A - ctx.P) / (ctx.B - ctx.P)))
            want = 4.0 * math.pi / n
            if want > math.pi:  # phase folds angles beyond pi
                want = 2.0 * math.pi - want
            assert ang == pytest.approx(want, abs=1e-12)


class TestInRosette:
    @pytest.mark.parametrize("n", [4, 5, 8, 16, 64])
    def test_agrees_with_fold(self, n, rng):
        # fold raises DomainError exactly outside the closed rosette
        ctx = make_context(n)
        half = 1.2 * abs(ctx.P)
        inside = 0
        for _ in range(400):
            z = complex(rng.uniform(-half, half), rng.uniform(-half, half))
            try:
                fold(ctx, z)
                folds = True
            except DomainError:
                folds = False
            assert in_rosette(ctx, z) == folds, z
            inside += folds
        assert 0 < inside < 400


class TestContainsSigma:
    def test_origin_and_generic_points(self):
        ctx = make_context(5)
        assert contains_Sigma(ctx, 0j)
        assert contains_Sigma(ctx, 0.99)
        assert contains_Sigma(ctx, -50.0 + 3j)

    def test_on_slit_rays(self):
        for n in (3, 4, 6):
            ctx = make_context(n)
            for k in range(n):
                ray = cmath.exp(2j * math.pi * k / n)
                assert not contains_Sigma(ctx, 1.5 * ray)
                assert not contains_Sigma(ctx, ray)
                assert contains_Sigma(ctx, 0.9999 * ray)

    def test_guard_band_width(self):
        ctx = make_context(4)
        assert not contains_Sigma(ctx, 2.0 + be * 1j if (be := 5e-9) else 0)
        assert contains_Sigma(ctx, 2.0 + 1e-7j)

    def test_between_rays(self):
        ctx = make_context(3)
        assert contains_Sigma(ctx, 10.0 * cmath.exp(1j * math.pi / 3))


class TestFold:
    def test_roundtrip_rosette(self, rng):
        for n in range(4, 9):
            ctx = make_context(n)
            for z in sample_domain(ctx, rng, 1000, pole_clearance=0.0):
                fr = fold(ctx, z)
                assert abs(unfold(ctx, fr) - z) <= 1e-12 * max(1.0, abs(z))
                assert contains_Pi(ctx, fr.folded)
                ph = cmath.phase(fr.folded) if fr.folded != 0 else 0.0
                assert -1e-9 <= ph <= math.pi / n + 1e-9
                assert fr.lattice_shift == (0, 0)

    def test_roundtrip_whole_plane_n3(self, rng):
        ctx = make_context(3)
        for _ in range(1000):
            z = complex(rng.uniform(-30, 30), rng.uniform(-30, 30))
            fr = fold(ctx, z)
            assert abs(unfold(ctx, fr) - z) <= 1e-12 * max(1.0, abs(z))
            assert contains_Pi(ctx, fr.folded)

    def test_idempotent(self, rng):
        for n in (3, 4, 6, 8):
            ctx = make_context(n)
            for z in sample_domain(ctx, rng, 200):
                fr = fold(ctx, z)
                again = fold(ctx, fr.folded)
                assert abs(again.folded - fr.folded) <= 1e-12
                assert again.rotation_k == 0
                assert not again.conjugated
                assert again.lattice_shift == (0, 0)

    def test_deterministic(self):
        ctx = make_context(5)
        z = 0.3 + 0.9j
        assert fold(ctx, z) == fold(ctx, z)

    def test_rotated_copies(self, rng):
        # an interior point of the base kite folds out of its rotated images
        # with exactly the rotation index used to build them
        for n in (4, 5, 7):
            ctx = make_context(n)
            pts = [z for z in sample_domain(ctx, rng, 50) if fold(ctx, z).rotation_k == 0 and not fold(ctx, z).conjugated]
            for z in pts[:20]:
                for k in range(n):
                    fr = fold(ctx, z * cmath.exp(2j * math.pi * k / n))
                    assert fr.rotation_k == k
                    assert not fr.conjugated
                    assert abs(fr.folded - z) <= 1e-10

    def test_reflection_branch(self):
        ctx = make_context(6)
        lo = 1.0 * cmath.exp(0.3j * math.pi / 6)  # below bisector
        hi = 1.0 * cmath.exp(1.7j * math.pi / 6)  # above bisector, same wedge
        fr_lo = fold(ctx, lo)
        fr_hi = fold(ctx, hi)
        assert not fr_lo.conjugated
        assert fr_hi.conjugated
        assert fr_hi.rotation_k == 1
        assert abs(fr_hi.folded - fr_lo.folded) <= 1e-12

    def test_ties(self):
        ctx = make_context(4)
        on_ray = fold(ctx, ctx.B)  # shared wedge ray
        assert not on_ray.conjugated
        assert on_ray.rotation_k == 1
        assert abs(on_ray.folded - ctx.A) <= 1e-12
        on_bisector = fold(ctx, 0.7 * ctx.P)
        assert not on_bisector.conjugated
        assert on_bisector.rotation_k == 0

    def test_no_pole_flag(self):
        # the fold does not judge the pole (sin_n does): a target next to P
        # folds onto it like any other, and the result has four fields
        assert FoldResult.__slots__ == ("folded", "rotation_k", "conjugated", "lattice_shift")
        for n in (3, 4, 6):
            ctx = make_context(n)
            near = ctx.P * (1.0 - 1e-8) * cmath.exp(2j * math.pi / n)
            fr = fold(ctx, near)
            assert fr.rotation_k == 1 and not fr.conjugated
            assert abs(fr.folded - ctx.P * (1.0 - 1e-8)) <= 1e-15 * ctx.R

    def test_outside_rosette_raises(self):
        for n in (4, 6):
            ctx = make_context(n)
            for z in (10.0 + 10.0j, ctx.P * 1.001, -ctx.A * 1.5):
                with pytest.raises(DomainError) as err:
                    fold(ctx, z)
                assert err.value.region == f"Omega_{n}"

    def test_n3_never_raises(self, rng):
        ctx = make_context(3)
        for _ in range(50):
            z = complex(rng.uniform(-100, 100), rng.uniform(-100, 100))
            fold(ctx, z)  # must not raise


class TestFoldLatticeN3:
    def test_full_period_shift(self):
        ctx = make_context(3)
        fr = fold(ctx, 0.3 + 3.0 * ctx.pi_n / 2.0)
        assert abs(fr.folded - 0.3) <= 1e-12
        assert fr.rotation_k == 0
        assert not fr.conjugated
        assert fr.lattice_shift == (1, 1)

    def test_generator_shifts(self):
        ctx = make_context(3)
        inner = 0.25 + 0.15j
        for shift, want in (
            (ctx.cell_shift_1, (1, 0)),
            (ctx.cell_shift_2, (0, 1)),
            (-ctx.cell_shift_1 - ctx.cell_shift_2, (-1, -1)),
        ):
            fr = fold(ctx, inner + shift)
            assert fr.lattice_shift == want
            assert abs(fr.folded - inner) <= 1e-12
            assert fr.rotation_k == 0 and not fr.conjugated

    def test_generators_span_rotated_period(self):
        # the second fundamental period is an integer combination of the cell shifts
        ctx = make_context(3)
        second = (3.0 * ctx.pi_n / 2.0) * ctx.omega
        combo = -2 * ctx.cell_shift_1 + ctx.cell_shift_2
        assert abs(second - combo) <= 1e-12

    def test_cell_is_rosette(self, rng):
        # lattice reduction alone never needs to leave the closed rosette
        ctx = make_context(3)
        for _ in range(300):
            z = complex(rng.uniform(-40, 40), rng.uniform(-40, 40))
            fr = fold(ctx, z)
            m1, m2 = fr.lattice_shift
            v = z - m1 * ctx.cell_shift_1 - m2 * ctx.cell_shift_2
            rot = [v * cmath.exp(-2j * math.pi * k / 3) for k in range(3)]
            assert any(contains_Pi(ctx, u) or contains_Pi(ctx, u.conjugate()) for u in rot)


class TestBoundaryPolyline:
    def test_kite_loop(self):
        ctx = make_context(4)
        pts = boundary_polyline(ctx, "pi", 8)
        assert len(pts) == 4 * 8 + 1
        assert pts[0] == pts[-1]
        assert ctx.A in pts and ctx.B in pts

    def test_rosette_loop(self):
        ctx = make_context(5)
        pts = boundary_polyline(ctx, "omega", 4)
        assert len(pts) == 2 * 5 * 4 + 1
        assert pts[0] == pts[-1]

    def test_counterclockwise(self):
        for tag, kw in (("pi", {}), ("omega", {}), ("gamma", {"radius": 3.0})):
            pts = boundary_polyline(make_context(6), tag, 16, **kw)
            area = 0.0
            for a, b in zip(pts, pts[1:]):
                area += a.real * b.imag - a.imag * b.real
            assert area > 0.0

    def test_gamma_needs_radius(self):
        ctx = make_context(4)
        with pytest.raises(ParameterError):
            boundary_polyline(ctx, "gamma", 8)
        pts = boundary_polyline(ctx, "gamma", 8, radius=10.0)
        assert max(abs(p) for p in pts) <= 10.0 + 1e-12
        assert pts[0] == pts[-1] == 0j

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, -math.inf, math.nan,
                                        "2", True, 2j, pytest.param(10 ** 400, id="huge-int")])
    def test_gamma_refuses_a_radius_that_is_not_positive_and_finite(self, radius):
        # an infinite radius would give NaN and infinite points, a string a
        # raw TypeError, and an int beyond the float range a raw OverflowError
        with pytest.raises(ParameterError, match="radius"):
            boundary_polyline(make_context(4), "gamma", 8, radius=radius)

    def test_bad_arguments(self):
        ctx = make_context(4)
        with pytest.raises(ParameterError):
            boundary_polyline(ctx, "pi", 1)
        with pytest.raises(ParameterError):
            boundary_polyline(ctx, "frontier", 8)


class TestSampleDomain:
    def test_in_domain_and_clear_of_corners(self, rng):
        ctx = make_context(5)
        pts = sample_domain(ctx, rng, 300, pole_clearance=0.1)
        corners = [ctx.P * cmath.exp(2j * math.pi * k / 5) for k in range(5)]
        for z in pts:
            fold(ctx, z)  # membership: must not raise
            assert min(abs(z - c) for c in corners) >= 0.1 * ctx.R - 1e-12

    def test_reproducible(self):
        ctx = make_context(4)
        a = sample_domain(ctx, random.Random(SEED), 64)
        b = sample_domain(ctx, random.Random(SEED), 64)
        assert a == b

    @pytest.mark.parametrize("clearance", [1.0, 1.5, math.inf, "x", None, 1 + 2j, [1]])
    def test_clearance_of_one_or_more_is_refused(self, clearance):
        # every kite point lies within |P| of P, so the draw would never end;
        # a clearance that is no real number once raised a raw TypeError
        ctx = make_context(4)
        with pytest.raises(ParameterError):
            sample_domain(ctx, random.Random(SEED), 1, pole_clearance=clearance)

    def test_nan_clearance_is_refused(self):
        # a NaN clearance fails every comparison, so it would switch the
        # clearance off
        with pytest.raises(ParameterError, match="pole_clearance"):
            sample_domain(make_context(4), random.Random(SEED), 1, pole_clearance=math.nan)

    @pytest.mark.parametrize("count", [2.5, True, False, "3", None])
    def test_count_must_be_an_int(self, count):
        # 2.5 drew 3 points and True drew 1
        with pytest.raises(ParameterError, match="count"):
            sample_domain(make_context(4), random.Random(SEED), count)
