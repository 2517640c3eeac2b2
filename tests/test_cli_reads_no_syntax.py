"""Every input syntax lives in `_textfile`. `cli` hands the text of each
file to one of its `read_*` readers, so `src/lfqec/cli.py` defines no
`parse_*` function and calls none of the token helpers below."""
import ast
import pathlib

import pytest

CLI = pathlib.Path(__file__).resolve().parents[1] / "src" / "lfqec" / "cli.py"
TOKEN_HELPERS = {"content_lines", "integer", "read_header", "residues"}


def syntax_sites(source: str) -> list:
    """(name, line) of each `parse_*` definition and each call of a token helper."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("parse_"):
            found.append((node.name, node.lineno))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in TOKEN_HELPERS:
                found.append((name, node.lineno))
    return found


def test_cli_reads_no_file_syntax():
    assert syntax_sites(CLI.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "def parse_matrix_file(text):\n    return text",
        "def cmd_x(args):\n    return residues(args.betas, 2, 3)",
        "from . import _textfile\ndef cmd_x(args):\n    return _textfile.read_header(args.text, 'p n')",
    ],
)
def test_each_spelling_is_found(source):
    assert syntax_sites(source) != []
