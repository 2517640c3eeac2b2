"""LogicFunction takes an ANF unchecked only when it is a `_Canonical` for
its own (p, n), so the makers of one are the trust boundary of the ANF
invariant: `_canonical_terms`, which checks every term, and `affine_family`,
which extends an ANF already held. Every other mention of the name in
`src/lfqec` may only test for it with isinstance."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "lfqec"
WITNESS = "_Canonical"
MAKERS = {"_canonical_terms", "affine_family"}


def stray_uses(source: str) -> list:
    """Line numbers of the mentions of the witness, imports included, that
    are neither inside a maker nor the class tested by an isinstance call."""
    lines = []

    def visit(node, in_maker: bool):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_maker = in_maker or node.name in MAKERS
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and isinstance(node.args[1], ast.Name) and node.args[1].id == WITNESS):
            visit(node.args[0], in_maker)
            return
        named = (isinstance(node, ast.Name) and node.id == WITNESS
                 or isinstance(node, ast.Attribute) and node.attr == WITNESS
                 or isinstance(node, ast.alias) and WITNESS in (node.name, node.asname))
        if named and not in_maker:
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, in_maker)

    visit(ast.parse(source), False)
    return lines


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_only_the_makers_make_the_witness(path):
    assert stray_uses(path.read_text()) == []


def test_the_makers_are_in_logic_fn():
    tree = ast.parse((SRC / "logic_fn.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert MAKERS <= defined


def test_stray_uses_are_found():
    source = """
class _Canonical(tuple):
    pass

def _canonical_terms(p, n, terms) -> _Canonical:
    return _Canonical(terms, (p, n))

def affine_family(f, rows):
    return [_Canonical(f.anf, (f.p, f.n)) for row in rows]

def check(anf):
    return isinstance(anf, _Canonical)

def forge(anf):
    return _Canonical(anf, (2, 3))

make = _Canonical
from .logic_fn import _Canonical as C
import lfqec.logic_fn
lfqec.logic_fn._Canonical(())
isinstance(x, (_Canonical, tuple))
"""
    assert stray_uses(source) == [15, 17, 18, 20, 21]
