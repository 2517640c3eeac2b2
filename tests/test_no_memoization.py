"""No function in `src/lfqec` carries state from one call to the next
through functools' memoizing decorators: each table and map is built inside
the call that uses it, and is freed when that call returns."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "lfqec"
MEMOIZERS = {"lru_cache", "cache"}


def memoized_functions(source: str) -> list:
    """Names of the functions decorated with functools.lru_cache or
    functools.cache, under any import spelling or alias."""
    tree = ast.parse(source)
    modules, names = set(), set()  # local names of functools, and of its memoizers
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names if a.name in MEMOIZERS}

    def is_memoizer(dec) -> bool:
        if isinstance(dec, ast.Call):  # @lru_cache(maxsize=8)
            dec = dec.func
        if isinstance(dec, ast.Name):
            return dec.id in names
        return (isinstance(dec, ast.Attribute) and dec.attr in MEMOIZERS
                and isinstance(dec.value, ast.Name) and dec.value.id in modules)

    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(map(is_memoizer, node.decorator_list))
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_function_is_memoized(path):
    assert memoized_functions(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "from functools import lru_cache\n@lru_cache(maxsize=8)\ndef f(): pass",
        "from functools import cache as keep\n@keep\ndef f(): pass",
        "import functools\n@functools.lru_cache\ndef f(): pass",
        "import functools as ft\nclass C:\n    @ft.cache\n    def f(self): pass",
    ],
)
def test_each_spelling_is_found(source):
    assert memoized_functions(source) == ["f"]


def test_other_decorators_pass():
    source = "import functools\n@functools.wraps(g)\n@staticmethod\ndef f(): pass"
    assert memoized_functions(source) == []
