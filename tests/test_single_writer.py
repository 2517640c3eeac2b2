"""Only `cli.main` writes stdout. A subcommand returns its report, and
`main` hands it to `_emit` once, after its error handlers, so the one write
still knows the exit code when a reader closes the pipe early. In
`src/lfqec`, `sys.stdout` and a `print` without `file=` appear only in
`cli._emit` and `cli.main`, and `_emit` is called once, from `main`."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "lfqec"
WRITERS = {"cli._emit", "cli.main"}


def writes_stdout(node) -> bool:
    """A read of sys.stdout, an import of it from sys, or a print without file=."""
    if isinstance(node, ast.Attribute):
        return node.attr == "stdout" and isinstance(node.value, ast.Name) and node.value.id == "sys"
    if isinstance(node, ast.ImportFrom):
        return node.module == "sys" and any(a.name == "stdout" for a in node.names)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print" and all(k.arg != "file" for k in node.keywords))


def calls_emit(node) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_emit"


def sites(source: str, match) -> list:
    """(function, line) of each node that matches, the function being the
    innermost enclosing def, or None at module level."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if match(child):
                found.append((func, child.lineno))
            visit(child, func)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_only_main_writes_stdout(path):
    found = sites(path.read_text(), writes_stdout)
    assert [(f, line) for f, line in found if f"{path.stem}.{f}" not in WRITERS] == []


def test_emit_has_one_call_site_in_main():
    found = [(path.stem, f) for path in sorted(SRC.glob("*.py"))
             for f, _ in sites(path.read_text(), calls_emit)]
    assert found == [("cli", "main")]


@pytest.mark.parametrize(
    "source",
    [
        "def cmd_x(args):\n    print('x')",
        "import sys\ndef cmd_x(args):\n    sys.stdout.write('x')",
        "import sys\ndef cmd_x(args):\n    print('x', file=sys.stdout)",
        "import sys\ndef cmd_x(args):\n    out = sys.stdout\n    out.write('x')",
        "from sys import stdout\ndef cmd_x(args):\n    stdout.write('x')",
    ],
)
def test_each_spelling_is_found(source):
    assert sites(source, writes_stdout) != []


def test_sites_name_the_innermost_function():
    source = """
import sys
def main():
    def inner():
        print('x')
    print('error', file=sys.stderr)
    _emit(None, {}, [])
_emit(None, {}, [])
"""
    assert sites(source, writes_stdout) == [("inner", 5)]
    assert sites(source, calls_emit) == [("main", 7), (None, 8)]
