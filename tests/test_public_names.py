"""Every public name of qlam is reached by the program, a criterion or a
workload: each entry of a module's __all__ is loaded somewhere in src/qlam,
perfbench/*.py, tests/test_acceptance.py or tests/test_cli.py.  A name
that only its own unit tests reach should leave src/ instead.  And every
name a module of src/qlam or tests/ imports is loaded there.

Stdlib only: the check reads source files and walks their ASTs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qlam"
READERS = (
    sorted(SRC.glob("*.py"))
    + sorted((ROOT / "perfbench").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "test_cli.py"]
)


def _public_names(tree):
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return [e.value for e in stmt.value.elts]
    return []


def _defined(stmt):
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    return set()


def _loads(tree):
    """(name, top-level statement) for every Name or Attribute load."""
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, stmt
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield node.attr, stmt


def test_every_public_name_is_reached():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in READERS}
    reached = {
        name
        for path, tree in trees.items()
        for name, stmt in _loads(tree)
        # a load inside the name's own definition does not count
        if not (path.parent == SRC and name in _defined(stmt))
    }
    unreached = [
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _public_names(trees[path])
        if name not in reached
    ]
    assert not unreached, f"public names that only unit tests reach: {unreached}"


def test_every_imported_name_is_loaded():
    unused = []
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            # a __future__ import is a compiler directive, never loaded
            if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"
            ):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in loaded:
                        unused.append(f"{path.parent.name}/{path.name}: {name}")
    assert not unused, f"imported names never loaded: {unused}"
