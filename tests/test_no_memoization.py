"""No function in `src/lfqec` carries state from one call to the next
through functools' memoizing decorators, or through the ways a value type
could cache a value on itself: `functools.cached_property`, or an
attribute set outside the constructor, by `object.__setattr__` or by
`self.<name> = ...`. Each table and map is built inside the call that uses
it, and is freed when that call returns."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "lfqec"
MEMOIZERS = {"lru_cache", "cache", "cached_property"}


def memoized_functions(source: str) -> list:
    """Names of the functions decorated with functools.lru_cache,
    functools.cache or functools.cached_property, under any import spelling
    or alias."""
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


# the constructor: `__new__` sets the field of a tuple subclass (logic_fn._Canonical)
CONSTRUCTORS = {"__init__", "__new__"}
# classes whose own attributes advance during one call: the ANF parser's cursor
CURSORS = {"_Parser"}


def _sets_self(target) -> bool:
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(map(_sets_self, target.elts))
    if isinstance(target, ast.Starred):
        return _sets_self(target.value)
    return (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
            and target.value.id == "self")


def late_setattrs(source: str, cursors=CURSORS) -> list:
    """Line numbers of the `object.__setattr__` calls and the assignments to
    `self.<name>` that are not in the body of a constructor, nested
    functions and classes included; assignments in a class of `cursors`
    are let through."""
    lines = []

    def visit(node, in_init: bool, cursor: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, False, child.name in cursors)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", None) in CONSTRUCTORS, cursor)
                continue
            func = getattr(child, "func", None)
            if (isinstance(child, ast.Call) and isinstance(func, ast.Attribute)
                    and func.attr == "__setattr__" and isinstance(func.value, ast.Name)
                    and func.value.id == "object" and not in_init):
                lines.append(child.lineno)
            targets = getattr(child, "targets", None) or [getattr(child, "target", None)]
            if (isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign))
                    and any(map(_sets_self, targets)) and not (in_init or cursor)):
                lines.append(child.lineno)
            visit(child, in_init, cursor)

    visit(ast.parse(source), False, False)
    return lines


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_function_is_memoized(path):
    assert memoized_functions(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_frozen_objects_are_set_only_in_post_init(path):
    """Named for the dataclass hook it once checked; the constructor is now `__init__`."""
    assert late_setattrs(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "from functools import lru_cache\n@lru_cache(maxsize=8)\ndef f(): pass",
        "from functools import cache as keep\n@keep\ndef f(): pass",
        "import functools\n@functools.lru_cache\ndef f(): pass",
        "import functools as ft\nclass C:\n    @ft.cache\n    def f(self): pass",
        "from functools import cached_property\nclass C:\n    @cached_property\n    def f(self): pass",
        "import functools\nclass C:\n    @functools.cached_property\n    def f(self): pass",
    ],
)
def test_each_spelling_is_found(source):
    assert memoized_functions(source) == ["f"]


def test_other_decorators_pass():
    source = "import functools\n@functools.wraps(g)\n@staticmethod\ndef f(): pass"
    assert memoized_functions(source) == []


def test_late_setattrs_are_found():
    source = """
class C:
    def __init__(self):
        object.__setattr__(self, "a", 1)
        self.b, (self.c, d) = 2, (3, 4)

    @property
    def table(self):
        object.__setattr__(self, "_t", 2)

    def __init_helper(self):
        def inner():
            object.__setattr__(self, "b", 3)

    def fill(self, other):
        self._t = 2
        self.n += 1
        [*self.rest] = []
        other.x = self.y = 5

object.__setattr__(C, "c", 4)

class Cursor:
    def __new__(cls):
        self = super().__new__(cls)
        self.pos = 0
        return self

    def advance(self):
        self.pos += 1
        object.__setattr__(self, "pos", 2)
"""
    assert late_setattrs(source) == [9, 13, 16, 17, 18, 19, 21, 30, 31]
    assert late_setattrs(source, cursors={"Cursor"}) == [9, 13, 16, 17, 18, 19, 21, 31]


def test_the_cursor_exemption_is_in_use():
    text = (SRC / "_textfile.py").read_text()
    assert late_setattrs(text, cursors=set()) and late_setattrs(text) == []
