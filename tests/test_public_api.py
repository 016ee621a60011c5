"""Every exported name resolves: guards deletions against stale exports."""

import ast
import importlib
import importlib.util
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


def test_project_scripts_resolve():
    # an installed console script must import its module and find its function
    tomllib = pytest.importorskip("tomllib")           # standard library from 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text()).get("project", {}).get("scripts", {})
    broken = []
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        try:
            obj = importlib.import_module(module)
            for part in attr.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError) as exc:
            broken.append(f"{name} = {target!r}: {exc}")
            continue
        if not callable(obj):
            broken.append(f"{name} = {target!r}: not callable")
    assert not broken, broken


def test_benchmark_targets_resolve():
    # the benchmark wraps layer functions by module and name; a rename must
    # fail here, not only in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    broken = [f"{module}.{name}" for module, name, _, _ in spans.TARGETS
              if not callable(getattr(importlib.import_module(module), name, None))]
    assert spans.TARGETS and not broken, broken
