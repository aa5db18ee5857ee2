"""Every name a package module imports is used in that module, every
private module-level function or class is used somewhere in the package,
and every exception class that `errors.py` defines is raised somewhere.

`__init__.py` is left out of the import check: its imports are the
package's exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cliquedec"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "from typing import Dict, List\nimport json\nx: List[int] = json.loads('[]')\n"
    assert unused_imports(source) == ["Dict"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def private_definitions(source: str) -> set:
    """Names of the module-level functions and classes that start with '_'."""
    return {
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }


def referenced_names(source: str, skip: str = "") -> set:
    """Names read or imported in source, not counting the body of the
    module-level definition called skip (so recursion is no use)."""
    out = set()
    for top in ast.parse(source).body:
        if getattr(top, "name", None) == skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out |= {a.name for a in node.names}
    return out


def unreferenced_private(sources: dict) -> list:
    """(module, name) for each private definition nothing else refers to."""
    out = []
    for module, source in sources.items():
        for name in sorted(private_definitions(source)):
            if not any(
                name in referenced_names(other, skip=name if other_module == module else "")
                for other_module, other in sources.items()
            ):
                out.append((module, name))
    return out


def test_unreferenced_private_definitions_are_found():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _orphan():\n    return _orphan()\n",
        "b.py": "from .a import _used\n\nclass _Local:\n    pass\n\nx = _Local()\n",
    }
    assert unreferenced_private(sources) == [("a.py", "_orphan")]


def raised_names(source: str) -> list:
    """(line, name) of each raise statement that names its exception class."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise):
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name):
            found.append((node.lineno, exc.id))
    return found


def untyped_invariants(source: str) -> list:
    """Lines of assert statements and of raises of a bare AssertionError."""
    tree = ast.parse(source)
    asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    raises = [line for line, name in raised_names(source) if name == "AssertionError"]
    return sorted(asserts + raises)


def test_untyped_invariants_are_found():
    source = "assert x\nraise AssertionError('no')\nraise AssertionError\nraise ValueError()\n"
    assert untyped_invariants(source) == [1, 2, 3]


def test_no_assert_statements_in_src():
    # python -O strips asserts, and a bare AssertionError names no invariant:
    # invariants raise typed errors instead
    found = [
        (module, line)
        for module in sorted(p.name for p in PACKAGE.glob("*.py"))
        for line in untyped_invariants((PACKAGE / module).read_text())
    ]
    assert found == []


def test_every_private_definition_is_used():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private(sources) == []


def unraised_errors(errors_source: str, sources: dict) -> list:
    """Exception classes that errors_source defines, other than the base
    class CliquedecError, that no raise statement in sources names."""
    raised = {name for source in sources.values() for _, name in raised_names(source)}
    return [
        node.name
        for node in ast.parse(errors_source).body
        if isinstance(node, ast.ClassDef)
        and node.name != "CliquedecError"
        and node.name not in raised
    ]


def test_unraised_errors_are_found():
    names = ("Called", "Bare", "OnlyCaught")
    errors = "class CliquedecError(Exception):\n    pass\n\n" + "".join(
        f"class {name}(CliquedecError):\n    pass\n\n" for name in names
    )
    sources = {
        "a.py": "def f():\n    raise Called('x')\n\ndef g():\n    raise Bare\n",
        "b.py": "try:\n    f()\nexcept OnlyCaught:\n    pass\n",
    }
    assert unraised_errors(errors, sources) == ["OnlyCaught"]


def test_every_error_class_is_raised():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unraised_errors(sources["errors.py"], sources) == []
