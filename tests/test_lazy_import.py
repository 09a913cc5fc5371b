"""What ``import squig`` loads, each check in a fresh interpreter.

The package imports only the evaluation core (``errors``, ``geometry``,
``numerics`` and ``squigfn``).  ``squig.verify`` is registered in
``sys.modules`` by a lazy loader, and its body runs at its first attribute
access.  So after ``import squig``, and after every evaluation route at
every n, the loaded ``squig`` modules are exactly those, ``CORE``.  The rest
loads at its first use, which no evaluation route makes: ``squig.series``
(the exact rational series) and the ``fractions`` it imports with
``maclaurin`` or a read of ``squig.RationalSeries``, ``squig.regions``
(membership tests, boundaries, the sampler) with the region tools,
``squig.reference`` (quadrature, series reversion, Newton, the winding
count) with the suite, which loads neither ``series`` nor ``fractions``,
and ``squig.tablegen`` (the builders of the table file) only with the
generator.  ``dataclasses`` and ``inspect``
do not load: the result records are plain slotted classes.  Nor does a
process keep the table file's bytes once it has read its blocks.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import squig
from test_bench_targets import span_targets

ROOT = Path(squig.__file__).resolve().parents[2]

PRELUDE = """
import contextlib, importlib.util, io, sys

def lazy():
    # type() reads no attribute, so it does not load the module
    return type(sys.modules["squig.verify"]) is importlib.util._LazyModule

def loaded():
    return sorted({"squig.reference", "fractions"} & set(sys.modules))

CORE = ["squig", "squig.errors", "squig.geometry", "squig.numerics", "squig.squigfn",
        "squig.verify"]

def squig_modules():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "squig")

def quiet():
    # the CLI writes bytes to sys.stdout.buffer
    return contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO()))
"""


def run_fresh(code: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PRELUDE + textwrap.dedent(code)],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_only_the_evaluation_core():
    run_fresh("""
        import squig
        assert lazy() and loaded() == [], loaded()
        assert squig_modules() == CORE, squig_modules()
        assert sys.modules["squig.verify"] is squig.verify
        from squig import cli
        for argv in (["eval", "--n", "4", "--fn", "sin", "--z", "0.3+0.2i"],
                     ["eval", "--n", "3", "--fn", "arcsin", "--z", "5+1i"],
                     ["constants", "--n", "5"], ["grid", "--n", "4", "--map", "F"]):
            with quiet():
                assert cli.main(argv) == 0, argv
            assert lazy() and loaded() == [], (argv, loaded())
        # exact arithmetic loads fractions, and still not verify
        with quiet():
            assert cli.main(["series", "--n", "4", "--terms", "5"]) == 0
        assert lazy() and loaded() == ["fractions"], loaded()
        # the first attribute read runs verify's body, which loads reference
        assert squig.verify.run_all is squig.run_all
        assert not lazy() and loaded() == ["fractions", "squig.reference"], loaded()
        # a whole run of the suite does not load the table builders
        assert squig.run_all() and "squig.tablegen" not in sys.modules
    """)


# the modules each CLI command loads beyond the core and the CLI itself
COMMAND_MODULES = [
    pytest.param(["eval", "--n", "4", "--fn", "sin", "--z", "0.3+0.2i"], [], id="eval-sin"),
    pytest.param(["eval", "--n", "3", "--fn", "arcsin", "--z", "5+1i"], [], id="eval-arcsin"),
    pytest.param(["constants", "--n", "5"], [], id="constants"),
    pytest.param(["grid", "--n", "4", "--map", "F"], ["squig.regions"], id="grid-F"),
    pytest.param(["grid", "--n", "3", "--map", "sin", "--density", "4"], ["squig.regions"],
                 id="grid-sin"),
    pytest.param(["series", "--n", "4", "--terms", "5"], ["fractions", "squig.series"],
                 id="series"),
    pytest.param(["verify", "--n", "3,4", "--stable"], ["squig.reference", "squig.regions"],
                 id="verify"),
]


@pytest.mark.parametrize("argv,modules", COMMAND_MODULES)
def test_each_cli_command_loads_only_its_own_modules(argv, modules):
    # eval and constants load neither the exact series nor the region tools,
    # and no command loads the table builders
    run_fresh(f"""
        import squig
        from squig import cli
        def tracked():
            return set(squig_modules()) | ({{"fractions"}} & set(sys.modules))
        before = tracked()
        assert before == set(CORE) | {{"squig.cli"}}, before
        with quiet():
            assert cli.main({argv!r}) == 0
        assert sorted(tracked() - before) == {modules!r}, sorted(tracked() - before)
    """)


def test_series_and_region_names_load_their_module_at_first_use():
    run_fresh("""
        import squig
        from squig import RationalSeries, radius_estimate
        from squig import series
        assert RationalSeries is series.RationalSeries
        assert radius_estimate is series.radius_estimate
        assert squig_modules() == sorted(CORE + ["squig.series"]), squig_modules()
        from squig import boundary_polyline, contains_Pi, sample_domain
        from squig import regions
        assert (boundary_polyline, contains_Pi, sample_domain) == (
            regions.boundary_polyline, regions.contains_Pi, regions.sample_domain)
        assert squig_modules() == sorted(CORE + ["squig.regions", "squig.series"])
        # the exact series loads fractions; neither loads reference or verify's body
        assert lazy() and loaded() == ["fractions"], loaded()
    """)


def test_every_route_at_every_n_runs_without_the_table_builders():
    # the tables come from the package's table file; the recurrences that
    # build it live in squig.tablegen, and the exact series and the region
    # tools in squig.series and squig.regions, none of which evaluation loads
    run_fresh("""
        import cmath, math
        from collections import Counter
        import squig
        from squig import numerics, squigfn
        hits = Counter()
        for module, name in ((squigfn, "_corner_invert"), (squigfn, "_pole_invert"),
                             (numerics, "_corner_series"), (numerics, "_series_tail")):
            def counted(*args, _f=getattr(module, name), _name=name):
                hits[_name] += 1
                return _f(*args)
            setattr(module, name, counted)
        for n in range(3, 65):
            hits.clear()
            ctx = squig.make_context(n)
            A, P = ctx.A, ctx.P
            # the disc at 0, the disc at A and the pole series
            for z in (0.2 * A + 0.05 * P, 0.95 * A + 0.01 * P, P - 1e-3 * P):
                assert squig.sin_n(ctx, z).value is not None
                assert squig.cos_n(ctx, z).value is not None
            # F's series at 0, its corner chart and its series at infinity
            for w in (0.3 * cmath.exp(0.2j), (1.0 + 0.1 / n) * cmath.exp(0.5j * math.pi / n),
                      10.0 * cmath.exp(0.3j / n)):
                squig.arcsin_n(ctx, w)
            assert hits["_pole_invert"] == 2 and hits["_corner_series"] == 1, (n, hits)
            assert hits["_corner_invert"] >= 2 and hits["_series_tail"] >= 1, (n, hits)
        assert lazy() and loaded() == [], loaded()
        assert squig_modules() == CORE, squig_modules()
    """)


def test_import_and_cli_load_neither_dataclasses_nor_inspect():
    # the result records are plain slotted classes; dataclasses (and the
    # inspect it imports) loads only when a frozen record refuses a write
    run_fresh("""
        import squig
        from squig import cli
        for argv in (["eval", "--n", "4", "--fn", "sin", "--z", "0.3+0.2i"],
                     ["constants", "--n", "5"], ["grid", "--n", "4", "--map", "F"],
                     ["series", "--n", "4", "--terms", "5"]):
            with quiet():
                assert cli.main(argv) == 0, argv
            assert not {"dataclasses", "inspect"} & set(sys.modules), argv
    """)


def test_reference_loads_at_first_use_through_numerics():
    wrapped = sorted(name for module, name in span_targets() if module == "squig.numerics")
    run_fresh(f"""
        import squig
        from squig import numerics
        assert loaded() == []
        from squig.numerics import integrate_smooth
        from squig import reference
        assert integrate_smooth is reference.integrate_smooth is squig.integrate_smooth
        assert numerics.newton_invert is reference.newton_invert
        # numerics forwards exactly the names of reference that the tracer
        # wraps through it
        forwarded = set({wrapped!r}) - set(vars(numerics))
        assert numerics._REFERENCE_NAMES == forwarded, forwarded
        assert forwarded <= set(vars(reference))
        # reference does not load verify
        assert lazy() and loaded() == ["squig.reference"], loaded()
    """)


def test_tracer_wraps_the_lazy_suite_straight_after_import():
    # bench/spans.py is read and run, not changed
    run_fresh(f"""
        sys.path.insert(0, {str(ROOT / "bench")!r})
        import squig
        assert lazy()
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        from squig import geometry, squigfn
        wrapped = ((geometry, "fold"), (geometry, "contains_Sigma"), (squigfn, "maclaurin"))
        try:
            verify = sys.modules["squig.verify"]
            assert verify.run_all.__wrapped__ is not None
            assert verify.integrate_smooth.__wrapped__ is not None
            assert squig.run_all is verify.run_all
            for module, name in wrapped:
                assert getattr(module, name).__wrapped__ is not None, name
                assert getattr(squig, name) is getattr(module, name), name
        finally:
            tracer.uninstall()
        assert not hasattr(verify.run_all, "__wrapped__")
        assert not hasattr(verify.integrate_smooth, "__wrapped__")
        for module, name in wrapped:
            assert not hasattr(getattr(module, name), "__wrapped__"), name
    """)


def test_every_public_name_resolves_and_is_listed():
    run_fresh("""
        import squig
        from squig import numerics
        names = dir(squig)
        assert lazy() and loaded() == []
        assert [n for n in squig.__all__ if n not in names] == []
        assert [n for n in sorted(numerics._REFERENCE_NAMES) if n not in dir(numerics)] == []
        for name in squig.__all__:
            getattr(squig, name)
        for name in numerics._REFERENCE_NAMES:
            getattr(numerics, name)
        for module in (squig, numerics):
            try:
                module.no_such_name
            except AttributeError:
                pass
            else:
                raise AssertionError(module)
    """)


def test_no_process_keeps_the_table_file():
    # each n's block is unpacked into its record and the file's bytes are
    # dropped: after the bench's seven contexts and a pole-series call at
    # each, no live block is as large as the file (it once held all of it)
    run_fresh("""
        import os, tracemalloc
        tracemalloc.start()
        import squig
        from squig import numerics
        for n in (3, 4, 5, 8, 16, 32, 64):
            ctx = squig.make_context(n)
            assert squig.sin_n(ctx, ctx.P - 1e-3 * ctx.P).value is not None
        largest = max(trace.size for trace in tracemalloc.take_snapshot().traces)
        assert largest < os.path.getsize(numerics._TABLES_PATH), largest
    """)
