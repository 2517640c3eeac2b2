"""No module in `src/lfqec` or `tests` imports a name at module level that
it never uses: a stale import keeps a dependency, or a removed entry point,
looking alive. `from __future__` imports are directives, not names."""
import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PATHS = sorted((ROOT / "src" / "lfqec").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports that no expression in
    the module reads. `import a.b` binds `a`."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name.partition(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((a.asname or a.name, node.lineno) for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in used)


@pytest.mark.parametrize("path", PATHS, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import itertools\n", ["itertools"]),
        ("import numpy as np\nx = 1\n", ["np"]),
        ("import os.path\nos.getcwd()\n", []),
        ("from a import b, c as d\nd()\n", ["b"]),
        ("from __future__ import annotations\n", []),
        ("from a import b\ndef f(x: b) -> None: pass\n", []),
        ("def f():\n    import json\n", []),  # not at module level
    ],
)
def test_unused_imports_are_found(source, unused):
    assert unused_imports(source) == unused
