"""No module in `src/lfqec` or `tests` imports a name at module level that
it never uses: a stale import keeps a dependency, or a removed entry point,
looking alive. `from __future__` imports are directives, not names. Nor
does `src/lfqec` keep a module-level private helper (function, class or
constant) that nothing in the package reads; public names are exempt, since
tests and acceptance criteria call them."""
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


def dead_helpers(sources: dict) -> list:
    """(module, name) of each module-level private function, class or
    constant of the modules {name: source} that no expression in any of them
    reads, as a name or as an attribute. Dunder names are exempt."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        read.update(node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        read.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return sorted(hit for hit in defined if hit[1] not in read)


def test_every_private_helper_is_read():
    sources = {path.stem: path.read_text() for path in sorted((ROOT / "src" / "lfqec").glob("*.py"))}
    assert len(sources) == 12 and dead_helpers(sources) == []


@pytest.mark.parametrize(
    "sources, dead",
    [
        ({"a": "def _f(): pass\n"}, [("a", "_f")]),
        ({"a": "_CAP = 4\nclass _T: pass\n"}, [("a", "_CAP"), ("a", "_T")]),
        ({"a": "_CAP: int = 4\n"}, [("a", "_CAP")]),
        ({"a": "def _f(): pass\nx = _f()\n"}, []),
        ({"a": "def _f(): pass\n", "b": "from .a import _f\n_f()\n"}, []),
        ({"a": "def _f(): pass\n", "b": "from . import a\na._f()\n"}, []),
        ({"a": "def f(): pass\nCAP = 4\n__all__ = []\n"}, []),  # public and dunder names
        ({"a": "def g():\n    def _h(): pass\n"}, []),  # not at module level
    ],
)
def test_dead_helpers_are_found(sources, dead):
    assert dead_helpers(sources) == dead
