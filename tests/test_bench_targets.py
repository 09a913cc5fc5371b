"""Every function the benchmark's tracer wraps must exist in the library,
and the tracer must wrap and restore it.

``bench/spans.py`` wraps library functions by (module, attribute) name, so
deleting or renaming one would silently break ``bench/run.py --trace 1``.
The file is read as source, or loaded by path, and never changed.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import squig  # noqa: F401  (the tracer wraps names after this import)

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def span_targets() -> list[tuple[str, str]]:
    """The (module, attribute) pairs of ``TARGETS`` in ``bench/spans.py``."""
    tree = ast.parse(SPANS.read_text(), filename=str(SPANS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("bench/spans.py defines no TARGETS")


def test_every_span_target_resolves():
    targets = span_targets()
    assert len(targets) >= 20
    missing = [f"{module}.{name}" for module, name in targets
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []


def test_tracer_smoke():
    # the real Tracer over one call of each public route and of the Newton
    # view: a view with the wrong return shape fails here, not only in a
    # traced benchmark run
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # resolve every target first, so that the lazy modules are loaded
    # before install lists them
    originals = {(module, name): getattr(importlib.import_module(module), name)
                 for module, name in span_targets()}
    modules = {name: dict(vars(m)) for name, m in sys.modules.items()
               if m is not None and (name == "squig" or name.startswith("squig."))}
    tracer = spans.Tracer()
    tracer.install()
    try:
        ctx = squig.make_context(5)
        squig.sin_n(ctx, 0.3 + 0.1j)
        squig.cos_n(ctx, 0.3 + 0.1j)
        squig.arcsin_n(ctx, 0.3 + 0.1j)
        squig.numerics.newton_invert(5, 0.3 + 0.1j)
    finally:
        tracer.uninstall()
    passes = [s[spans.COUNT] for s in tracer.spans if s[spans.NAME] == "numerics.newton_pass"]
    assert len(passes) == 1 and type(passes[0]) is int
    assert squig.numerics.newton_invert is originals["squig.numerics", "newton_invert"]
    assert not hasattr(squig.numerics.newton_invert, "__wrapped__")
    assert all(getattr(importlib.import_module(module), name) is fn
               for (module, name), fn in originals.items())
    for name, before in modules.items():
        after = vars(sys.modules[name])
        assert [key for key, value in before.items() if after.get(key) is not value] == []
