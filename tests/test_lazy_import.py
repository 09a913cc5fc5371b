"""What ``import squig`` loads, each check in a fresh interpreter.

The package imports only the evaluation core (``errors``, ``geometry``,
``numerics`` and ``squigfn``).  ``squig.verify`` is registered in
``sys.modules`` by a lazy loader, and its body runs at its first attribute
access; ``squig.reference`` (quadrature, series reversion, Newton, the
winding count) and ``fractions`` load at their first use.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import squig

ROOT = Path(squig.__file__).resolve().parents[2]

PRELUDE = """
import contextlib, importlib.util, io, sys

def lazy():
    # type() reads no attribute, so it does not load the module
    return type(sys.modules["squig.verify"]) is importlib.util._LazyModule

def loaded():
    return sorted({"squig.reference", "fractions"} & set(sys.modules))

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
    """)


def test_reference_loads_at_first_use_through_numerics():
    run_fresh("""
        import squig
        from squig import numerics
        assert loaded() == []
        from squig.numerics import integrate_smooth
        from squig import reference
        assert integrate_smooth is reference.integrate_smooth is squig.integrate_smooth
        assert numerics.newton_invert is reference.newton_invert
        # numerics forwards every public function and class of reference
        own = {name for name, value in vars(reference).items() if not name.startswith("_")
               and getattr(value, "__module__", None) == "squig.reference"}
        assert own <= numerics._REFERENCE_NAMES <= set(vars(reference)), own
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
        try:
            verify = sys.modules["squig.verify"]
            assert verify.run_all.__wrapped__ is not None
            assert verify.integrate_smooth.__wrapped__ is not None
            assert squig.run_all is verify.run_all
        finally:
            tracer.uninstall()
        assert not hasattr(verify.run_all, "__wrapped__")
        assert not hasattr(verify.integrate_smooth, "__wrapped__")
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
