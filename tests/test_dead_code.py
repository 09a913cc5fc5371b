"""Every module-level private function, class or constant in ``squig`` has
a user, and the errors of the folded target are propagated in one place.

A private name counts as used when some ``src/squig`` module refers to it
as a name or an attribute outside its own definition (a docstring does not
count), or when ``bench/spans.py`` wraps it by name in ``TARGETS``, which
is read as source.  Otherwise nothing can call it and it should go.

The errors of A and P and the rounding of the fold reach ``residual``
through one slope, in ``squigfn._evaluate``; no other code reads them.

Every field that ``SquigContext.__init__`` sets is read as an attribute
outside ``__init__``, and the fields of the second per-n record that the
context replaced (``tables``, ``half``, ``corner``, ``radius``) stay gone.
"""

import ast
from pathlib import Path

import squig
from test_bench_targets import span_targets

PACKAGE = Path(squig.__file__).resolve().parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def assigned_names(stmt: ast.stmt) -> set[str]:
    """The names a top-level statement defines: a def's or class's, or the
    plain names (tuples of them included) that an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)}


def unreferenced_private_names(sources: dict[str, str], wrapped: set[str]) -> list[str]:
    """``module.name`` of each private top-level def, class or assigned
    name that no module refers to outside the statement defining it and
    ``wrapped`` lacks."""
    defined = []
    references = []  # (name, module, names the top-level statement defines)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owners = assigned_names(stmt)
            defined += [(module, name) for name in owners if _is_private(name)]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    references.append((node.id, module, owners))
                elif isinstance(node, ast.Attribute):
                    references.append((node.attr, module, owners))
    return sorted(
        f"{module}.{name}" for module, name in defined
        if name not in wrapped and not any(
            ref == name and not (where == module and name in owners)
            for ref, where, owners in references))


def package_sources() -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


def test_every_private_function_and_class_has_a_user():
    wrapped = {name for _, name in span_targets()}
    assert unreferenced_private_names(package_sources(), wrapped) == []


def test_the_check_sees_an_unused_private_function():
    sources = {
        "a": ("def _used():\n    '''_unused and _wrapped are named here only.'''\n"
              "def _unused():\n    return _unused()\n"
              "def _wrapped():\n    pass\n"
              "class _Helper:\n    pass\n"),
        "b": "from . import a\n\ndef public():\n    return a._used(), a._Helper\n",
    }
    assert unreferenced_private_names(sources, {"_wrapped"}) == ["a._unused"]
    assert unreferenced_private_names(sources, set()) == ["a._unused", "a._wrapped"]


def test_the_check_sees_an_unused_private_constant():
    # a constant counts as read by any statement but its own assignment
    sources = {
        "a": ("_TOL = 1e-6  # _OFFSET's comment does not count\n"
              "_OFFSET: float = 1e-6\n"
              "_SELF = [_SELF for _SELF in ()]\n"
              "_X, (_Y, _Z) = _PAIR = (1, (2, 3))\n"
              "__all__ = ['public']\n"
              "def public():\n    return _TOL + _X + _PAIR[0]\n"),
        "b": "from . import a\n\nSTEP = a._Y\n",
    }
    assert unreferenced_private_names(sources, {"_Z"}) == ["a._OFFSET", "a._SELF"]


def test_the_check_sees_a_constant_that_is_no_longer_read():
    # with its reader gone, a module's private constant is refused
    sources = package_sources()
    verify = sources["verify"]
    sources["verify"] = verify.replace("_LOOP_ARC_POINTS = 64",
                                       "_LOOP_ARC_POINTS = 64\n_LOOP_OFFSET = 1e-6", 1)
    geometry = sources["geometry"]
    sources["geometry"] = geometry.replace("_EDGE_TOL = 1e-10", "_EDGE_TOL = 1e-10\n_POLE_TOL = 1e-6", 1)
    assert sources["verify"] != verify and sources["geometry"] != geometry
    wrapped = {name for _, name in span_targets()}
    assert unreferenced_private_names(sources, wrapped) == ["geometry._POLE_TOL",
                                                            "verify._LOOP_OFFSET"]


# the errors of the folded target, each a constant of squigfn
TARGET_ERRORS = ("_A_ERR", "_P_ERR", "_FOLD_ROUND")


def readers(sources: dict[str, str], names) -> list[str]:
    """``module.owner`` of each top-level def or class that reads one of
    ``names`` as a name or an attribute, ``module.<module>`` for a
    module-level statement that does."""
    found = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = getattr(stmt, "name", "<module>")
            for node in ast.walk(stmt):
                read = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if read in names:
                    found.add(f"{module}.{owner}")
    return sorted(found)


def test_only_evaluate_reads_the_errors_of_the_target():
    assert readers(package_sources(), TARGET_ERRORS) == ["squigfn._evaluate"]


def test_the_check_sees_a_planted_reader():
    sources = {
        "squigfn": ('_A_ERR = 3e-16\n_FOLD_ROUND = 4 * _ULP\n'
                    'def _evaluate():\n    return _A_ERR + _FOLD_ROUND\n'
                    'def _corner_invert():\n    """adds _P_ERR: a docstring is no read"""\n'
                    '    return _A_ERR\n'),
        "geometry": "from . import squigfn\n\nSLACK = squigfn._P_ERR\n",
    }
    assert readers(sources, TARGET_ERRORS) == [
        "geometry.<module>", "squigfn._corner_invert", "squigfn._evaluate"]


# fields of the former second per-n record, which the context replaced
FORMER_FIELDS = ("tables", "half", "corner", "radius")


def context_fields(sources: dict[str, str]) -> tuple[ast.FunctionDef, set[str]]:
    """``geometry.SquigContext.__init__`` and the attributes it sets on self."""
    cls = next(stmt for stmt in ast.parse(sources["geometry"]).body
               if isinstance(stmt, ast.ClassDef) and stmt.name == "SquigContext")
    init = next(stmt for stmt in cls.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__")
    return init, {node.attr for node in ast.walk(init)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id == "self"}


def unread_context_fields(sources: dict[str, str]) -> list[str]:
    """The fields ``SquigContext.__init__`` sets that no module reads as
    ``.name`` outside ``__init__`` itself."""
    init, fields = context_fields(sources)
    inside = {id(node) for node in ast.walk(init)}
    read = {node.attr for source in sources.values() for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in inside}
    return sorted(fields - read)


def test_every_context_field_is_read():
    sources = package_sources()
    assert unread_context_fields(sources) == []
    assert sorted(context_fields(sources)[1] & set(FORMER_FIELDS)) == []


def test_the_check_sees_an_unread_context_field():
    sources = package_sources()
    geometry = sources["geometry"]
    sources["geometry"] = geometry.replace(
        "        self.n = n\n", "        self.n = n\n        self.spare = self.n + 1\n", 1)
    assert sources["geometry"] != geometry
    assert unread_context_fields(sources) == ["spare"]
    assert {"n", "sine", "A", "P", "R", "omega", "spare"} <= context_fields(sources)[1]
