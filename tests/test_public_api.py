"""Every exported name resolves: guards deletions against stale exports."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import typing
from pathlib import Path

import pytest

import hfrac

MODULES = sorted(m.name for m in pkgutil.iter_modules(hfrac.__path__))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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
    spans = _load_perfbench("spans")
    broken = [f"{module}.{name}" for module, name, _, _ in spans.TARGETS
              if not callable(getattr(importlib.import_module(module), name, None))]
    assert spans.TARGETS and not broken, broken


def test_benchmark_counters_read_target_parameters():
    # a counter reads the bound arguments of its target by parameter name,
    # a["name"]; renaming or dropping that parameter must fail here
    spans = _load_perfbench("spans")
    counters = {node.name: node for node in ast.walk(ast.parse((PERFBENCH / "spans.py").read_text()))
                if isinstance(node, ast.FunctionDef)}
    broken, checked = [], 0
    for module, name, _, count in spans.TARGETS:
        if count is None:
            continue
        params = inspect.signature(getattr(importlib.import_module(module), name)).parameters
        for node in ast.walk(counters[count.__name__]):
            if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                    and node.value.id == "a" and isinstance(node.slice, ast.Constant)):
                checked += 1
                if node.slice.value not in params:
                    broken.append(f"{count.__name__} reads {node.slice.value!r}, "
                                  f"not a parameter of {module}.{name}")
    assert checked and not broken, broken


def _bound_argument(node, local):
    """The parameter name p when node is a["p"] or a local bound to it, else None."""
    if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "a" and isinstance(node.slice, ast.Constant)):
        return node.slice.value
    if isinstance(node, ast.Name):
        return local.get(node.id)
    return None


def _attribute_reads(fn, helpers):
    """(parameter, attribute) pairs a counter reads off its bound arguments:
    a["p"].x, x off a local bound to a["p"], and x that a spans helper reads
    off the argument a["p"] is passed as."""
    local = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                names = target.elts if isinstance(target, ast.Tuple) else [target]
                values = node.value.elts if isinstance(node.value, ast.Tuple) else [node.value]
                for name, value in zip(names, values):
                    param = _bound_argument(value, {})
                    if isinstance(name, ast.Name) and param is not None:
                        local[name.id] = param
    reads = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute):
            param = _bound_argument(node.value, local)
            if param is not None:
                reads.append((param, node.attr))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in helpers:
            helper = helpers[node.func.id]
            for arg, hparam in zip(node.args, helper.args.args):
                param = _bound_argument(arg, local)
                if param is not None:
                    reads += [(param, sub.attr) for sub in ast.walk(helper)
                              if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                              and sub.value.id == hparam.arg]
    return reads


def _has_attribute(tp, attr):
    if typing.get_origin(tp) is typing.Union:          # Optional[X] reads as X
        members = [t for t in typing.get_args(tp) if t is not type(None)]
        if len(members) != 1:
            return False
        tp = members[0]
    fields = {f.name for f in dataclasses.fields(tp)} if dataclasses.is_dataclass(tp) else set()
    return hasattr(tp, attr) or attr in fields


def test_benchmark_counters_read_existing_attributes():
    # a counter reads attributes off its target's arguments (u.radial_profile,
    # a["quad"].gauge); each must exist on the parameter's annotated type, so
    # deleting a field the benchmark counts fails here, not only in a traced run
    spans = _load_perfbench("spans")
    functions = {node.name: node for node in ast.walk(ast.parse((PERFBENCH / "spans.py").read_text()))
                 if isinstance(node, ast.FunctionDef)}
    counters = {count.__name__ for _, _, _, count in spans.TARGETS if count is not None}
    helpers = {name: node for name, node in functions.items()
               if name.startswith("_") and name not in counters}
    broken, checked = [], 0
    for module, name, _, count in spans.TARGETS:
        if count is None:
            continue
        hints = typing.get_type_hints(getattr(importlib.import_module(module), name))
        for param, attr in _attribute_reads(functions[count.__name__], helpers):
            checked += 1
            if param not in hints:
                broken.append(f"{count.__name__} reads {param}.{attr}, but {module}.{name} "
                              f"does not annotate {param!r}")
            elif not _has_attribute(hints[param], attr):
                broken.append(f"{count.__name__} reads {param}.{attr}, which "
                              f"{hints[param]} of {module}.{name} lacks")
    assert checked and not broken, broken


def test_benchmark_calls_bind():
    # every hfrac call of the benchmark's workloads, direct or through
    # Checks.call(suite, fn, *args), must bind to the callee's signature
    workloads = _load_perfbench("workloads")
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    hfrac_names = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "hfrac"
                   for alias in node.names}

    def resolve(node):
        if isinstance(node, ast.Name):
            return getattr(workloads, node.id) if node.id in hfrac_names else None
        if isinstance(node, ast.Attribute):
            base = resolve(node.value)
            return None if base is None else getattr(base, node.attr)
        return None

    broken, checked = [], 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn, args = node.func, node.args
        if isinstance(fn, ast.Attribute) and fn.attr == "call":
            fn, args = args[1], args[2:]
        target = resolve(fn)
        if target is None:
            continue
        checked += 1
        try:
            inspect.signature(target).bind(*args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            broken.append(f"workloads.py:{node.lineno} {ast.unparse(fn)}: {exc}")
    assert checked and not broken, broken


def test_conformal_ladder_reaches_required_layers():
    # the benchmark's traced conformal-ladder run fails unless each of its
    # required layers does work; dropping one must fail here too
    from hfrac.group import GridSpec, TestFunctionId, make_test_function
    from hfrac.lagspec import AnalysisQuadrature, LambdaGrid

    spans, run = _load_perfbench("spans"), _load_perfbench("run")
    # the tracer wraps its targets in every hfrac module, so all are imported
    for name in MODULES:
        importlib.import_module(f"hfrac.{name}")
    kernels = importlib.import_module("hfrac.kernels")
    spec = GridSpec(N_z=32, N_t=64, R_z=8, R_t=8)
    # a small lattice and v-rule of this test's own keep the ladder cheap
    grid = LambdaGrid.build(nodes_per_sign=20, K=8, k_energy_cap=2.0)
    quad = AnalysisQuadrature.build(spec, n_radial_v=224)
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    s = 0.3
    tracer = spans.Tracer()
    tracer.install()
    try:
        # reached through the module attribute, which the tracer patches
        fld = kernels.conformal_extension(f, s, [2.0, 1.4, 1.0, 0.7, 0.5], grid, quad)
        kernels.conformal_pde_residual(fld, s)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(0.0)
    counts = {name: layers[name] for name in run.LAYERS_USED["conformal-ladder"]}
    assert all(v > 0 for v in counts.values()), counts
