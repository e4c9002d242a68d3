"""The public API holds only what the package runs: every function that
``jointweibull`` exports is called somewhere in the package's own modules,
outside its own definition.  A function that only the tests call belongs
in ``tests/_oracles.py``; classes are exempt."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
        name for name in jointweibull.__all__
        if inspect.isfunction(obj := getattr(jointweibull, name)) and obj.__module__.startswith("jointweibull.")
    }
    assert exported, "no exported function found"
    unused = sorted(exported - called)
    assert not unused, f"exported but never called by the package: {unused}"


def test_every_exported_name_is_its_defining_modules_object(monkeypatch) -> None:
    """``jointweibull.<name>`` resolves on first use to the current attribute
    of the module that defines it: the 44 exported names, each the same
    object as ``jointweibull.<module>.<name>``, a patch on that module seen
    through the package and gone with the patch, and an unknown name an
    ``AttributeError``.  Importing the package loads no submodule, and
    ``jointweibull.mle`` loads its module."""
    assert len(set(jointweibull.__all__)) == len(jointweibull.__all__) == 44
    for name in jointweibull.__all__:
        obj = getattr(jointweibull, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
        assert name in dir(jointweibull)
    original = jointweibull.mle.fit_mle
    monkeypatch.setattr(jointweibull.mle, "fit_mle", "patched")
    assert jointweibull.fit_mle == "patched"
    monkeypatch.undo()
    assert jointweibull.fit_mle is original
    with pytest.raises(AttributeError, match="no attribute 'fit_mle_free'"):
        jointweibull.fit_mle_free
    code = (
        "import sys, jointweibull\n"
        "before = sorted(m for m in sys.modules if m.startswith('jointweibull'))\n"
        "print(before, jointweibull.mle is sys.modules['jointweibull.mle'])\n"
    )
    pkg_root = str(Path(jointweibull.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "['jointweibull'] True\n"
