"""What the benchmark harness names in the library still exists.

``perfbench/spans.py``'s ``Tracer.install`` looks up every target with
``getattr``, so a renamed or deleted target would crash every traced run;
``perfbench/workloads.py`` calls the library through the names it imports
and the attributes of the modules it imports, so a deleted one would fail
every call of a workload; the ``sketch`` workload calls ``cgne_q`` with
``precond=``. The harness files are loaded by path and are not modified.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from quatpinv import solvers

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_target_resolves():
    targets = _spans().TARGETS
    assert targets
    for modname, attr in targets:
        assert callable(getattr(importlib.import_module(modname), attr)), \
            f"{modname}.{attr}"


def _resolve(module: str, name: str):
    """module.name, an attribute or a submodule, as ``from module import
    name`` finds it."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")


def test_every_library_name_the_workloads_use_resolves():
    tree = ast.parse(WORKLOADS.read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                node.module.split(".")[0] == "quatpinv":
            for alias in node.names:
                obj = _resolve(node.module, alias.name)
                if inspect.ismodule(obj):
                    modules[alias.asname or alias.name] = obj
    assert {"solvers", "factor", "images", "completion", "deblur",
            "lorenz"} <= set(modules)
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in modules}
    assert used
    missing = [f"{mod}.{attr}" for mod, attr in sorted(used)
               if not hasattr(modules[mod], attr)]
    assert not missing, missing


def test_cgne_takes_the_precond_keyword():
    param = inspect.signature(solvers.cgne_q).parameters["precond"]
    assert param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY)
