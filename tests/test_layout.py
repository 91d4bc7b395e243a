"""The package's module layout: which module may import what from which.

Shared numerical kernels live in `privtune._numerics`; a layer module
takes private names from it alone. The imports are read from the source
with `ast`, so a test fails on the line that breaks the layout.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pathlib

import pytest

_PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "privtune"
_MODULES = sorted(path.stem for path in _PACKAGE.glob("*.py"))


def _imports(module: str) -> list[tuple[str, str]]:
    """(module, name) for each name a module imports, name "" for a module.

    A package-relative module is named by its stem, as "tradeoff" for
    `from .tradeoff import x` and `from privtune.tradeoff import x`.
    """
    tree = ast.parse((_PACKAGE / f"{module}.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name, "") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            inside = node.level > 0 or source.split(".")[0] == "privtune"
            if inside:
                source = source.removeprefix("privtune").lstrip(".")
            if inside and not source:
                # `from . import x` imports the module x itself.
                found += [(alias.name, "") for alias in node.names]
            else:
                found += [(source, alias.name) for alias in node.names]
    return found


@pytest.mark.parametrize("module", _MODULES)
def test_private_names_come_only_from_numerics(module):
    crossing = [
        (source, name)
        for source, name in _imports(module)
        if source in _MODULES and source != "_numerics" and name.startswith("_")
    ]
    assert crossing == []


def test_audit_imports_nothing_from_accountant():
    assert [s for s, _ in _imports("audit") if s.endswith("accountant")] == []


def test_numerics_imports_only_math_and_numpy():
    # __future__ and typing serve annotations only.
    sources = {source.split(".")[0] for source, _ in _imports("_numerics")}
    assert sources - {"__future__", "typing"} == {"math", "numpy"}


@pytest.mark.parametrize("module", [m for m in _MODULES if m != "__init__"])
def test_public_functions_are_defined_in_their_layer(module):
    # perfbench/tracer.py times only the functions whose __module__ is the
    # layer that lists them, so a re-exported function would go untimed.
    layer = importlib.import_module(f"privtune.{module}")
    strays = [
        name
        for name in getattr(layer, "__all__", [])
        if inspect.isfunction(getattr(layer, name))
        and getattr(layer, name).__module__ != layer.__name__
    ]
    assert strays == []
