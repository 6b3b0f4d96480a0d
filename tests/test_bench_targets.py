"""What the benchmark harness names in the library still exists.

``perfbench/spans.py``'s ``Tracer.install`` looks up every target with
``getattr``, so a renamed or deleted target would crash every traced run;
the ``sketch`` workload calls ``cgne_q`` with ``precond=``. The harness
file is loaded by path and is not modified.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from quatpinv import solvers

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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


def test_cgne_takes_the_precond_keyword():
    param = inspect.signature(solvers.cgne_q).parameters["precond"]
    assert param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY)
