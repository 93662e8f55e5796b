"""The package exports no helper that nothing uses.

Every name ``mfquad`` exports is used by the package itself, outside its own
definition: a function is called there, a class is referenced.  Otherwise
an outside user names it: ``tests/test_acceptance.py``, a ``perfbench``
script or the README's quick start imports it.
"""

import ast
import types
from pathlib import Path

import mfquad

ROOT = Path(__file__).resolve().parents[1]


def _imported_from_mfquad(tree) -> set[str]:
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mfquad"
            for alias in node.names}


def _uses(tree) -> tuple[set[str], set[str]]:
    """The names ``tree`` calls, and the names it references at all,
    each outside the definition of that same name."""
    called, referenced = set(), set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None and name not in inside:
            referenced.add(name)
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name is not None and name not in inside:
                called.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return called, referenced


def test_every_export_is_used_in_src_or_by_an_outside_user():
    called, referenced = set(), set()
    for path in (ROOT / "src" / "mfquad").glob("*.py"):
        if path.name != "__init__.py":  # its imports are the exports themselves
            c, r = _uses(ast.parse(path.read_text()))
            called |= c
            referenced |= r
    outside = _imported_from_mfquad(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    for path in (ROOT / "perfbench").glob("*.py"):
        outside |= _imported_from_mfquad(ast.parse(path.read_text()))
    readme = (ROOT / "README.md").read_text()
    quick_start = readme.split("## Quick start", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    outside |= _imported_from_mfquad(ast.parse(quick_start))

    exports = {name: value for name, value in vars(mfquad).items()
               if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(exports) > 30
    unused = sorted(
        name for name, value in exports.items()
        if name not in outside and name not in (referenced if isinstance(value, type) else called)
    )
    assert unused == []
