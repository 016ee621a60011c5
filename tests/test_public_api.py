"""Every exported name resolves: guards deletions against stale exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hfrac

MODULES = sorted(m.name for m in pkgutil.iter_modules(hfrac.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    mod = importlib.import_module(f"hfrac.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing, f"hfrac.{name}.__all__ names missing attributes: {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(hfrac.__file__).read_text())
    names = [alias.asname or alias.name
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    assert names
    missing = [n for n in names if not hasattr(hfrac, n)]
    assert not missing, missing
