"""Module layout: ``qlit.io`` and ``qlit.tractable`` answer for the names that
moved to ``qlit.circuits`` and ``qlit.formulas``, with the identical objects,
so callers and perfbench's tracer find every name where it was."""

import ast
import os
import subprocess
import sys

import qlit

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _traced_names() -> list[tuple[str, str]]:
    """The ``(module, name)`` pairs that ``perfbench/trace.py``'s
    ``instrument()`` wraps, read from its source."""
    with open(os.path.join(REPO, "perfbench", "trace.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    instrument = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "instrument")
    targets = next(
        n.value for n in ast.walk(instrument)
        if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", None) == "targets"
    )
    return [(entry.elts[0].id, entry.elts[1].value) for entry in targets.elts]


# run in a fresh interpreter, so that every moved name is read through the
# fallback for the first time here
SCRIPT = """
import importlib, json, sys
import qlit, qlit.cli, qlit.core, qlit.io, qlit.quantify, qlit.tractable

def loaded():
    return sorted(m for m in ("qlit.circuits", "qlit.formulas") if m in sys.modules)

report = {"before": loaded()}
report["unknown"] = [hasattr(qlit.io, "no_such_name"), hasattr(qlit.tractable, "no_such_name")]
report["after_unknown"] = loaded()
checks = []
for module in (qlit, qlit.core, qlit.io, qlit.tractable, qlit.quantify):
    checks += [(module.__name__, name) for name in module.__all__]
checks += [("qlit." + module, name) for module, name in json.loads(sys.argv[1])]
bad = []
for module_name, name in checks:
    module = importlib.import_module(module_name)
    value = getattr(module, name)
    home = sys.modules[getattr(value, "__module__", module_name)]
    if getattr(home, name) is not value or vars(module).get(name) is not value:
        bad.append([module_name, name])
report["bad"] = bad
namespace = {}
exec("from qlit.io import *", namespace)
report["star"] = sorted(n for n in qlit.io.__all__ if namespace.get(n) is not getattr(qlit.io, n))
report["homes"] = {
    name: getattr(qlit.io, name).__module__ for name in ("parse_dimacs", "parse_nnf", "parse_formula")
}
print(json.dumps(report))
"""


class TestMovedNames:
    def test_old_and_new_homes_hold_the_identical_objects(self):
        import json

        pairs = _traced_names()
        assert ("io", "parse_sdd") in pairs and ("tractable", "prime_forms") in pairs
        src = os.path.dirname(os.path.dirname(qlit.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = subprocess.run(
            [sys.executable, "-c", SCRIPT, json.dumps(pairs)],
            capture_output=True, text=True, check=True, env=env,
        ).stdout
        report = json.loads(out.splitlines()[-1])
        assert report["before"] == [] and report["unknown"] == [False, False]
        assert report["after_unknown"] == []  # a miss imports nothing
        assert report["bad"] == []
        assert report["star"] == []
        assert report["homes"] == {
            "parse_dimacs": "qlit.io", "parse_nnf": "qlit.circuits", "parse_formula": "qlit.formulas"
        }

    def test_a_moved_name_is_read_once_then_kept(self):
        from qlit import circuits, formulas, io, tractable

        assert io.parse_sdd is circuits.parse_sdd and "parse_sdd" in vars(io)
        assert tractable.verify_sdd is circuits.verify_sdd and "verify_sdd" in vars(tractable)
        assert tractable.prime_forms is formulas.prime_forms
        assert io._tokenize is formulas._tokenize and tractable.PRIME_FORM_CAP == formulas.PRIME_FORM_CAP
