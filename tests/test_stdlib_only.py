"""The runtime is stdlib-only: every module of the package imports only
the package itself and the standard library."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "minimano"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_the_package_has_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_are_stdlib_or_the_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = sorted({root for root in imported_roots(tree)
                      if root != "minimano" and root not in sys.stdlib_module_names})
    assert foreign == []
