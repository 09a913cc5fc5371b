import json
import math
import random
import xml.etree.ElementTree as ET
from importlib import resources

import jsonschema
import pytest

from conftest import gamma_full_period, slit_integral_oracle
from squig import cli
from squig.cli import UsageError, main, parse_complex
from squig.errors import DomainError
from squig.geometry import make_context
from squig.squigfn import sin_n
from test_series_kernel import corner_oracle


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.bin"
    code = main([*argv, "--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def load_schema(name):
    text = resources.files("squig.schemas").joinpath(name).read_text()
    return json.loads(text)


class TestParseComplex:
    @pytest.mark.parametrize("text,value", [
        ("1.5", 1.5 + 0j),
        ("-2", -2 + 0j),
        ("2i", 2j),
        ("-0.5i", -0.5j),
        ("i", 1j),
        ("-i", -1j),
        ("1+2i", 1 + 2j),
        ("1-2i", 1 - 2j),
        ("0.25-0.75i", 0.25 - 0.75j),
        ("1e-3+2.5i", 1e-3 + 2.5j),
        ("3.5e2", 350 + 0j),
    ])
    def test_accepted(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize("text", ["", "1+2j", "2 + 3i", "i2", "1+-2i", "abc"])
    def test_rejected(self, text):
        with pytest.raises(UsageError):
            parse_complex(text)


class TestEval:
    def test_vertex_value(self, tmp_path):
        code, payload = run_cli(tmp_path, "eval", "--n", "4", "--fn", "sin",
                                "--z", "1.8540747")
        rec = json.loads(payload)
        assert code == 0
        assert rec["value"]["re"] == pytest.approx(1.0, abs=1e-6)
        assert rec["value"]["im"] == pytest.approx(0.0, abs=1e-6)
        assert not rec["is_pole"]

    def test_zero(self, tmp_path):
        code, payload = run_cli(tmp_path, "eval", "--n", "3", "--fn", "sin",
                                "--z", "0")
        rec = json.loads(payload)
        assert code == 0
        assert rec["value"] == {"re": 0.0, "im": 0.0}

    def test_outside_domain_exit_3(self, tmp_path, capsys):
        code, payload = run_cli(tmp_path, "eval", "--n", "4", "--fn", "sin",
                                "--z", "10+10i")
        assert code == 3
        assert payload == b""
        assert "Omega_4" in capsys.readouterr().err

    def test_slit_point_exit_3(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "eval", "--n", "4", "--fn", "arcsin",
                          "--z", "2")
        assert code == 3
        assert "Sigma_4" in capsys.readouterr().err

    def test_pole_record(self, tmp_path):
        # reentrant corner of the n=3 cell carries a pole
        r = slit_integral_oracle(3)
        z = f"{r * math.cos(math.pi / 3):.15f}+{r * math.sin(math.pi / 3):.15f}i"
        code, payload = run_cli(tmp_path, "eval", "--n", "3", "--fn", "sin",
                                "--z", z)
        rec = json.loads(payload)
        assert code == 0
        assert rec["is_pole"] is True
        assert rec["value"] is None

    def test_schema(self, tmp_path):
        schema = load_schema("eval_record.schema.json")
        for fn in ("sin", "cos", "arcsin", "F"):
            _, payload = run_cli(tmp_path, "eval", "--n", "5", "--fn", fn,
                                 "--z", "0.3+0.2i")
            jsonschema.validate(json.loads(payload), schema)

    def test_arcsin_matches_F(self, tmp_path):
        _, a = run_cli(tmp_path, "eval", "--n", "4", "--fn", "arcsin",
                       "--z", "0.5+0.1i")
        _, b = run_cli(tmp_path, "eval", "--n", "4", "--fn", "F",
                       "--z", "0.5+0.1i")
        assert json.loads(a)["value"] == json.loads(b)["value"]

    def test_csv(self, tmp_path):
        code, payload = run_cli(tmp_path, "eval", "--n", "3", "--fn", "cos",
                                "--z", "0.2", "--format", "csv")
        lines = payload.decode().splitlines()
        assert code == 0
        assert lines[0].startswith("n,fn,input_re")
        assert lines[1].startswith("3,cos,0.2,")

    def test_bad_n_exit_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "eval", "--n", "99", "--fn", "sin", "--z", "0")
        assert code == 2

    def test_bad_literal_exit_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "eval", "--n", "4", "--fn", "sin", "--z", "1+2j")
        assert code == 2

    @pytest.mark.parametrize("flag", [("--format", "svg"), ("--stable",)])
    def test_option_it_does_not_act_on_exit_2(self, tmp_path, capsys, flag):
        # eval writes json or csv and has no field that varies between runs
        code, payload = run_cli(tmp_path, "eval", "--n", "4", "--fn", "sin",
                                "--z", "0.5", *flag)
        assert code == 2 and payload == b""
        assert flag[0] in capsys.readouterr().err

    @pytest.mark.parametrize("n", [4, 5, 8, 16, 32, 64])
    def test_residual_covers_the_retry_outside_the_edge(self, tmp_path, n):
        # a point 1e-9 to 5e-8 |A| outside the edge A-P is evaluated at the
        # edge point nearest it and reported at z: every such point returns,
        # and residual covers the step back.  The reference is 30 digits,
        # since residual's slack is an ulp or so
        ctx = make_context(n)
        edge = ctx.P - ctx.A
        outward = -1j * edge / abs(edge)
        rng = random.Random(f"retry:{n}")
        for _ in range(100):
            z = (ctx.A + rng.random() * edge
                 + 10 ** rng.uniform(-9, math.log10(5e-8)) * abs(ctx.A) * outward)
            with pytest.raises(DomainError):
                sin_n(ctx, z)
            recs = {}
            for fn in ("sin", "cos"):
                code, payload = run_cli(tmp_path, "eval", "--n", str(n), "--fn", fn,
                                        "--z", f"{z.real!r}+{z.imag!r}i")
                assert code == 0, z
                rec = json.loads(payload)
                recs[fn] = complex(rec["value"]["re"], rec["value"]["im"]), rec["residual"]
            (value_s, residual_s), (value_c, residual_c) = recs["sin"], recs["cos"]
            ref_s, ref_c = corner_oracle(n, z, value_c)
            assert abs(value_s - ref_s) <= residual_s, z
            assert abs(value_c - ref_c) <= residual_c, z
        # too far out for the retry: refused, as documented
        z = ctx.A + 0.5 * edge + 1e-5 * abs(ctx.A) * outward
        code, _ = run_cli(tmp_path, "eval", "--n", str(n), "--fn", "sin",
                          "--z", f"{z.real!r}+{z.imag!r}i")
        assert code == 3

    def test_numeric_failure_exit_4(self, tmp_path, monkeypatch):
        from squig.errors import ConvergenceError

        def boom(ctx, z):
            raise ConvergenceError("no convergence")
        monkeypatch.setattr(cli, "arcsin_n", boom)
        code, _ = run_cli(tmp_path, "eval", "--n", "4", "--fn", "arcsin", "--z", "0.5")
        assert code == 4


class TestSeries:
    def test_exact_rows(self, tmp_path):
        code, payload = run_cli(tmp_path, "series", "--n", "3", "--terms", "5")
        doc = json.loads(payload)
        rows = [(r["degree"], r["numerator"], r["denominator"]) for r in doc["rows"]]
        assert code == 0
        assert rows == [(1, 1, 1), (4, -1, 6), (7, 2, 63),
                        (10, -13, 2268), (13, 23, 22113)]

    def test_radius_estimate_40_terms(self, tmp_path):
        _, payload = run_cli(tmp_path, "series", "--n", "4", "--terms", "40")
        doc = json.loads(payload)
        closed = doc["radius_closed_form"]
        assert closed == pytest.approx(slit_integral_oracle(4), abs=1e-10)
        assert abs(doc["radius_estimate"] - closed) / closed < 0.01

    def test_single_term(self, tmp_path):
        _, payload = run_cli(tmp_path, "series", "--n", "3", "--terms", "1")
        doc = json.loads(payload)
        assert doc["rows"] == [{"degree": 1, "numerator": 1, "denominator": 1}]
        assert doc["radius_estimate"] is None

    def test_csv_trailer(self, tmp_path):
        _, payload = run_cli(tmp_path, "series", "--n", "3", "--terms", "5",
                             "--format", "csv")
        lines = payload.decode().splitlines()
        assert lines[0] == "degree,numerator,denominator"
        assert lines[-2].startswith("radius_estimate,")
        assert lines[-1].startswith("radius_closed_form,")

    def test_bad_terms_exit_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "series", "--n", "3", "--terms", "0")
        assert code == 2

    def test_terms_beyond_200_exit_2_at_once(self, tmp_path, capsys):
        # 400 terms at n = 8 would run for seconds; 200 is the cap
        code, payload = run_cli(tmp_path, "series", "--n", "8", "--terms", "201")
        assert code == 2 and payload == b""
        assert "series terms must lie in 1..200" in capsys.readouterr().err
        code, payload = run_cli(tmp_path, "series", "--n", "3", "--terms", "200")
        assert code == 0 and len(json.loads(payload)["rows"]) == 200


class TestVerifyCommand:
    def test_single_family_single_n(self, tmp_path):
        code, payload = run_cli(tmp_path, "verify", "--n", "4",
                                "--only", "winding", "--stable")
        arr = json.loads(payload)
        assert code == 0
        assert len(arr) == 1
        assert arr[0]["name"] == "winding" and arr[0]["n"] == 4
        assert "runtime_ms" not in arr[0]

    def test_schema(self, tmp_path):
        schema = load_schema("verification_report.schema.json")
        _, payload = run_cli(tmp_path, "verify", "--n", "3,4",
                             "--only", "integral_slit", "--only", "trisection")
        arr = json.loads(payload)
        jsonschema.validate(arr, schema)
        assert {r["name"] for r in arr} == {"integral_slit", "trisection"}

    def test_tightened_identity_fails(self, tmp_path):
        code, payload = run_cli(tmp_path, "verify", "--n", "3",
                                "--only", "periodicity_sin3",
                                "--tol", "identity=1e-15", "--stable")
        arr = json.loads(payload)
        assert code == 1
        assert arr[0]["pass"] is False

    def test_stable_runs_byte_identical(self, tmp_path):
        args = ("verify", "--n", "3,4", "--only", "integral_slit",
                "--only", "sc_factorization", "--stable")
        _, first = run_cli(tmp_path, *args)
        _, second = run_cli(tmp_path, *args)
        assert first == second

    def test_unstable_has_runtime(self, tmp_path):
        _, payload = run_cli(tmp_path, "verify", "--n", "4", "--only", "winding")
        assert "runtime_ms" in json.loads(payload)[0]

    def test_csv_format(self, tmp_path):
        code, payload = run_cli(tmp_path, "verify", "--n", "4",
                                "--only", "winding", "--format", "csv", "--stable")
        lines = payload.decode().splitlines()
        assert code == 0
        assert lines[0] == ("name,n,lhs_re,lhs_im,rhs_re,rhs_im,"
                            "abs_error,tolerance,pass,note")
        assert lines[1].startswith("winding,4,")

    def test_raised_check_exit_4(self, tmp_path, monkeypatch):
        from squig import verify
        from squig.errors import ConvergenceError

        def boom(ctx, w):
            raise ConvergenceError("no convergence")
        monkeypatch.setattr(verify, "arcsin_n", boom)
        code, payload = run_cli(tmp_path, "verify", "--n", "4",
                                "--only", "limit_at_infinity", "--stable")
        arr = json.loads(payload)
        assert code == 4
        assert arr[0]["pass"] is False
        assert arr[0]["note"].startswith("ConvergenceError")

    def test_unknown_family_exit_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "verify", "--only", "nonsense")
        assert code == 2

    def test_n3_only_family_without_n3_exit_2(self, tmp_path):
        # a run that checks nothing: it once printed [] and exited 0
        code, payload = run_cli(tmp_path, "verify", "--stable", "--n", "4",
                                "--only", "trisection")
        assert code == 2 and payload == b""

    def test_bad_tol_exit_2(self, tmp_path):
        assert run_cli(tmp_path, "verify", "--tol", "identity")[0] == 2
        assert run_cli(tmp_path, "verify", "--tol", "mystery=1e-9")[0] == 2
        assert run_cli(tmp_path, "verify", "--tol", "identity=-1")[0] == 2


class TestGrid:
    def test_F_map_well_formed(self, tmp_path):
        code, payload = run_cli(tmp_path, "grid", "--n", "4", "--map", "F",
                                "--density", "4")
        assert code == 0
        root = ET.fromstring(payload.decode())
        assert root.tag.endswith("svg")
        text = payload.decode()
        assert "A_4" in text and "P_4" in text and "B_4" in text
        assert 'viewBox="' in text

    def test_n4_triangle_midpoint(self, tmp_path):
        # the reentrant corner sits at the midpoint of the segment joining
        # the two outer vertices, so the outline is a right isosceles triangle
        from squig.geometry import make_context
        ctx = make_context(4)
        assert abs(ctx.P - 0.5 * (ctx.A + ctx.B)) < 1e-12

    def test_sin_map_pole_markers_n3(self, tmp_path):
        _, payload = run_cli(tmp_path, "grid", "--n", "3", "--map", "sin",
                             "--density", "4")
        assert payload.decode().count("<circle") == 3

    def test_sin_map_no_markers_n6(self, tmp_path):
        _, payload = run_cli(tmp_path, "grid", "--n", "6", "--map", "sin",
                             "--density", "2")
        assert "<circle" not in payload.decode()

    def test_deterministic(self, tmp_path):
        args = ("grid", "--n", "4", "--map", "sin", "--density", "3")
        assert run_cli(tmp_path, *args)[1] == run_cli(tmp_path, *args)[1]

    def test_density_bounds(self, tmp_path):
        assert run_cli(tmp_path, "grid", "--n", "4", "--map", "F",
                       "--density", "1")[0] == 2
        assert run_cli(tmp_path, "grid", "--n", "4", "--map", "F",
                       "--density", "257")[0] == 2

    def test_format_restriction(self, tmp_path):
        assert run_cli(tmp_path, "grid", "--n", "4", "--map", "F",
                       "--format", "json")[0] == 2


class TestConstants:
    def test_values(self, tmp_path):
        code, payload = run_cli(tmp_path, "constants", "--n", "4")
        doc = json.loads(payload)
        pi4 = gamma_full_period(4)
        assert code == 0
        assert doc["pi_n"] == pytest.approx(pi4, abs=1e-10)
        assert doc["A_n"]["re"] == pytest.approx(pi4 / 2, abs=1e-10)
        assert doc["R_n"] == pytest.approx(slit_integral_oracle(4), abs=1e-10)
        # reentrant corner bisects the sector
        ang = math.atan2(doc["P_n"]["im"], doc["P_n"]["re"])
        assert ang == pytest.approx(math.pi / 4, abs=1e-12)

    def test_csv(self, tmp_path):
        _, payload = run_cli(tmp_path, "constants", "--n", "3",
                             "--format", "csv")
        assert payload.decode().splitlines()[0] == \
            "n,pi_n,A_re,A_im,P_re,P_im,R_n"


class TestStdout:
    def test_writes_stdout_without_out_flag(self, capsysbinary):
        code = main(["constants", "--n", "3"])
        assert code == 0
        assert json.loads(capsysbinary.readouterr().out)["n"] == 3
