"""Every exported name resolves and has a caller: guards deletions against stale exports."""

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
SRC = Path(hfrac.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# public definitions (a method as Class.method) no suite, workload or other
# module calls yet, each kept for the ROADMAP item that needs it
KEPT = {
    "group_mul": "item 10: left-translation covariance (group-law API)",
    "group_inv": "item 10: left-translation covariance (group-law API)",
    "dilate": "item 9: dilation covariance of g* (group-law API)",
    "t_s_values": "item 4: the commutator suite",
    "nonconformal_poisson": "item 6: the CLI's route= option",
    "TestFunctionId.dilated": "item 9: dilation covariance of g*",
    "TestFunctionId.translated": "item 10: left-translation covariance",
    "VerificationReport.to_json": "item 6: the CLI's report output",
}


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


def _reads(node, strings=False) -> set:
    """Names and attribute names the code under node reads (and its strings)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _public_methods(cls: ast.ClassDef) -> list:
    """The methods of a class that neither start with an underscore nor are dunder."""
    return [node for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def test_public_definitions_have_a_caller():
    # a function or class in a module's __all__, and a public method of such a
    # class, must be reached from a workload, a benchmark target, a report
    # suite or module-level code, directly or through other package code that
    # is itself reached: a reference from code nothing reaches does not count.
    # A method is reached by its name read off any object, so a method shares
    # its reach with every method or definition of the same name
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defs, methods, roots, uncalled = {}, {}, set(KEPT), []
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                body = [node]
                if isinstance(node, ast.ClassDef):
                    public = _public_methods(node)
                    for fn in public:
                        defs[f"{node.name}.{fn.name}"] = _reads(fn)
                        methods.setdefault(fn.name, set()).add(f"{node.name}.{fn.name}")
                    body = node.bases + node.decorator_list + [
                        sub for sub in node.body if sub not in public]
                defs.setdefault(node.name, set()).update(*(_reads(sub) for sub in body))
                if isinstance(getattr(node, "returns", None), ast.Name) \
                        and node.returns.id == "VerificationReport":
                    roots.add(node.name)
            elif not (isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                roots |= _reads(node)
    for path in sorted(PERFBENCH.glob("*.py")):
        # the benchmark names its layer targets as strings (spans.TARGETS)
        roots |= _reads(ast.parse(path.read_text()), strings=True)
    live, frontier = set(), roots
    while frontier:
        name = frontier.pop()
        frontier |= methods.get(name, set()) - live
        if name in defs and name not in live:
            live.add(name)
            frontier |= defs[name] - live
    for module, tree in trees.items():
        local = {node.name: node for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        exported = [name for name in getattr(importlib.import_module(f"hfrac.{module}"), "__all__", [])
                    if name in local]
        uncalled += [f"{module}.{name}" for name in exported if name not in live]
        uncalled += [f"{module}.{name}.{fn.name}" for name in exported
                     if isinstance(local[name], ast.ClassDef)
                     for fn in _public_methods(local[name]) if f"{name}.{fn.name}" not in live]
    assert not uncalled, f"public definitions nothing calls: {uncalled}"
    # the tests' independent references stay out of the package
    importers = [module for module, tree in trees.items() for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and any("oracles" in name.split(".")
                         for name in [getattr(node, "module", None) or ""]
                         + [a.name for a in node.names])]
    assert not importers, f"package modules import the test oracles: {importers}"


def test_private_definitions_are_read_in_the_package():
    # a module-level function or class named with one leading underscore is
    # package-internal: some other package code must read it, since a read
    # from the tests alone, or from its own body, keeps dead code alive
    top = [node for path in sorted(SRC.glob("*.py")) for node in ast.parse(path.read_text()).body]
    reads = [_reads(node) for node in top]
    unread = [node.name for node in top
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.startswith("__")
              and not any(node.name in r for other, r in zip(top, reads) if other is not node)]
    assert not unread, f"private definitions nothing in the package reads: {unread}"


def _imported_modules(tree) -> set:
    """The hfrac modules a module imports anywhere, in function bodies too;
    a name imported from the package itself counts as its __init__."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "hfrac" + (f".{node.module}" if node.module else "") if node.level else node.module
            names = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for parts in (name.split(".") for name in names):
            if parts[0] == "hfrac":
                out.add(parts[1] if len(parts) > 1 and parts[1] in MODULES else "__init__")
    return out


def test_package_imports_form_no_cycle():
    # a cycle between hfrac modules forces one of its imports into a function
    # body, so module-level and in-function imports count alike
    graph = {path.stem: _imported_modules(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert {"group", "report"} <= graph["lagspec"] and "lagspec" in graph["operators"]
    on_cycle = []
    for start, targets in graph.items():
        seen, frontier = set(), set(targets)
        while frontier:
            module = frontier.pop()
            if module not in seen:
                seen.add(module)
                frontier |= graph.get(module, set())
        if start in seen:
            on_cycle.append(start)
    assert not on_cycle, f"hfrac modules on an import cycle: {on_cycle}"
