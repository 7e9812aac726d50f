"""The benchmark's traced functions exist under the names it wraps.

``bench/tracer.py`` wraps each ``(module, attribute)`` in its ``TARGETS`` at
run time, so a renamed or removed function only shows up as a failed traced
benchmark run. This test reads ``TARGETS`` from the file with ``ast`` and
resolves every entry in the installed package, methods by their dotted name.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets():
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TARGETS")


def test_every_traced_target_resolves_to_a_callable():
    targets = _targets()
    assert targets
    missing = []
    for module, attr in targets:
        obj = importlib.import_module(f"risdeploy.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert not missing, f"traced targets not found in risdeploy: {missing}"
