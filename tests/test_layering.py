"""Layering of the package, read from the source with ``ast``.

The quadrature engine (``truncgauss``) and the receptor chains
(``receptor``) sit below the rate methods, and the closed-form bounds do not
reach into the quadrature rates (``mir``).  A name a module imports without
calling it, marked ``# noqa: F401``, is there for perfbench's tracer alone:
the tracer wraps that module's name, so each such alias is listed for that
module in ``WRAPS`` of ``perfbench/tracer.py``, read here as text.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "transduction_mir"


def parse(module: str) -> tuple[ast.Module, list[str]]:
    text = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    return ast.parse(text), text.splitlines()


def package_imports(module: str) -> list[tuple[str, ast.alias]]:
    """(package module, alias) of every name one module imports from
    another module of the package, relatively or by its full name."""
    found = []
    for node in ast.walk(parse(module)[0]):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found += [(node.module, alias) for alias in node.names]
            elif node.level == 0 and (node.module or "").startswith("transduction_mir."):
                found += [(node.module.split(".")[1], alias) for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("transduction_mir."):
                    found.append((alias.name.split(".")[1], alias))
    return found


def tracer_wraps() -> set[tuple[str, str]]:
    """(module, attribute) of every entry of ``WRAPS`` in perfbench/tracer.py."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPS"]:
            return {(module, attr) for module, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracer.py assigns no WRAPS")


def test_modules_found():
    assert {"bounds", "mir", "truncgauss", "receptor"} <= {p.stem for p in PACKAGE.glob("*.py")}
    assert {module for module, _ in package_imports("sweep")} >= {"bounds", "mir", "truncgauss"}


def test_bounds_does_not_import_mir():
    imported = {module for module, _ in package_imports("bounds")}
    assert imported == {"errors", "receptor", "truncgauss"}


@pytest.mark.parametrize("module", ["truncgauss", "receptor"])
def test_engine_modules_import_errors_alone(module):
    assert {imported for imported, _ in package_imports(module)} == {"errors"}


@pytest.mark.parametrize("module", ["mir", "bounds", "sweep"])
def test_unused_aliases_are_the_tracers(module):
    tree, lines = parse(module)
    aliases = [
        alias.asname or alias.name
        for _, alias in package_imports(module)
        if "# noqa: F401" in lines[alias.lineno - 1]
    ]
    assert aliases
    wraps = tracer_wraps()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for alias in aliases:
        assert (module, alias) in wraps, f"{module}.{alias} is not wrapped by the tracer"
        assert alias not in used, f"{module}.{alias} is called, so it needs no noqa"
