"""Every function the benchmark's tracer wraps must exist in the library.

``bench/spans.py`` wraps library functions by (module, attribute) name, so
deleting or renaming one would silently break ``bench/run.py --trace 1``.
The file is read as source, not imported or changed.
"""

import ast
import importlib
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
