"""Every top-level function and class of the package is used by the package.

Code that only its own unit tests reach is not part of the planner. This test
parses ``src/risdeploy/*.py`` with ``ast`` and fails on any top-level
definition that no code under ``src/risdeploy`` refers to outside the
definition itself (by name, attribute or ``from ... import``).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "risdeploy"


def _references(trees):
    "(file, line, name) of every name, attribute and from-import in the package."
    refs = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                refs.extend((path, node.lineno, alias.name) for alias in node.names)
    return refs


def test_every_top_level_definition_is_referenced():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(trees) > 1
    refs = _references(trees)
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not any(name == node.name
                       and not (ref_path == path and node.lineno <= line <= node.end_lineno)
                       for ref_path, line, name in refs):
                unused.append(f"{path.name}:{node.name}")
    assert not unused, f"defined but never referenced in the package: {unused}"
