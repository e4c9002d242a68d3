"""The public API holds only what the package runs: every function that
``jointweibull`` exports is called somewhere in the package's own modules,
outside its own definition.  A function that only the tests call belongs
in ``tests/_oracles.py``; classes are exempt."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import jointweibull


def _calls_outside_own_def(tree: ast.AST) -> set[str]:
    """Names called in ``tree`` (``f(...)`` or ``mod.f(...)``), each call
    counted unless it sits inside a ``def`` of the same name."""
    called = set()

    def visit(node: ast.AST, inside: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside + (node.name,)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None and name not in inside:
                called.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, ())
    return called


def test_every_exported_function_is_called_by_the_package() -> None:
    package = Path(jointweibull.__file__).parent
    called = set()
    for path in sorted(package.glob("*.py")):
        called |= _calls_outside_own_def(ast.parse(path.read_text(encoding="utf-8")))
    exported = {
        name for name, obj in vars(jointweibull).items()
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__.startswith("jointweibull.")
    }
    assert exported, "no exported function found"
    unused = sorted(exported - called)
    assert not unused, f"exported but never called by the package: {unused}"
