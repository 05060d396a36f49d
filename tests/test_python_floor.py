"""Every source file parses with the grammar of Python 3.10.

pyproject.toml admits Python 3.10, and the CI floor job runs it; this check
catches newer syntax (``except*``, PEP 695 type parameters, and the like)
on any interpreter.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for folder in ("src", "tests", "scripts") for p in (ROOT / folder).rglob("*.py"))


def test_sources_found():
    assert any(p.name == "bounds.py" for p in SOURCES)
    assert any(p.name == "test_python_floor.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
