"""The benchmark's traced functions exist under the names it wraps.

``bench/tracer.py`` wraps each ``(module, attribute)`` in its ``TARGETS`` at
run time, so a renamed or removed function only shows up as a failed traced
benchmark run. This test reads ``TARGETS`` from the file with ``ast`` and
resolves every entry in the installed package, methods by their dotted name.
``bench/run.py`` fails a traced run when a name in its ``REQUIRED`` lists is
never called, so each of those names must be a traced target, and the
pipeline must still call it: a traced demo ``run`` and ``compare`` through
``bench/child.py`` check that.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
TRACER = BENCH / "tracer.py"
RUN = BENCH / "run.py"
DEMO_CONFIG = ROOT / "src" / "risdeploy" / "data" / "demo_config.json"


def _assigned(path, name):
    "Literal value of a module-level assignment in a file, read without importing it."
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} defines no {name}")


def _targets():
    return _assigned(TRACER, "TARGETS")


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


def test_every_required_name_is_traced():
    traced = {f"{module}.{attr}" for module, attr in _targets()}
    for name in ("REQUIRED", "REQUIRED_RUN", "REQUIRED_COMPARE"):
        required = _assigned(RUN, name)
        assert required, name
        missing = [r for r in required if r not in traced]
        assert not missing, f"{name} in bench/run.py names untraced functions: {missing}"


@pytest.mark.parametrize("argv, required", [
    (["run", "--mode", "full-isac"], "REQUIRED_RUN"),
    (["compare", "--modes", "full-isac", "pathloss-baseline"], "REQUIRED_COMPARE"),
])
def test_every_required_name_is_called(tmp_path, argv, required):
    result = tmp_path / "result.json"
    command = [sys.executable, str(BENCH / "child.py"), "--result", str(result),
               "--spans", str(tmp_path / "spans.npz"), "--", *argv,
               "--config", str(DEMO_CONFIG), "--out", str(tmp_path / "out"), "--seed", "1"]
    subprocess.run(command, check=True, capture_output=True,
                   env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
    out = json.loads(result.read_text())
    assert out["exit_code"] == 0
    calls = {name: rec["calls"] for name, rec in out["trace"]["functions"].items()}
    never = [name for name in _assigned(RUN, "REQUIRED") + _assigned(RUN, required)
             if calls.get(name, 0) < 1]
    assert not never, f"traced functions never called: {never}"
