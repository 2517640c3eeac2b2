"""Start-up contract of the command line, checked in fresh interpreters:
importing `lfqec.cli` loads no numpy, input errors (exit 2) in any input
file, code descriptions and their stated K included, are reported before
numpy loads, so is a code over the oracle's pair budget (exit 3), and a
subcommand loads only the modules it runs (`matrix-check` without --build
runs on Python integers alone, and a code built without --verify loads no
oracle). Neither those refusals nor `matrix-check` without --build load
`dataclasses` or `inspect`: no module of the package imports `dataclasses`.
A run builds the parser of its own subcommand only, while `--help`, no
command and an unknown command print every subcommand as before. A
finished command freezes the collector, so the interpreter's exit skips its
full collections, with output and exit code unchanged."""
import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

CHILD = """
import contextlib, io, json, sys
import lfqec.cli
imported = sorted(sys.modules)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = lfqec.cli.main(sys.argv[1:])
print(json.dumps({"imported": imported, "rc": rc, "loaded": sorted(sys.modules),
                  "stdout": out.getvalue()}))
"""

GRAPH = "2 3\n1 2\n2 3\n"
CLASSES = "000\n111\n"
FUNCTION = "2 2\nanf: x1*x2\n"
# a (function, matrix) pair that meets the projector premises
G2_FN = "2 4\nanf: x1*x3 + x1*x4 + x2*x3 + x2*x4 + x3*x4 + x1 + x2\n"
REPAIRED_MAT = "2 4\n1 0 0 0 0 0 1 0\n0 1 0 0 0 0 0 1\n0 0 1 0 1 0 0 0\n0 0 0 1 0 1 0 0\n"
CODE = '{"p": 2, "n": 2, "claimed_d": 1, "basis": ["x1*x2"]}'
RANK_MAT = "2 5\n0 0 1 1 0\n0 0 1 1 1\n1 1 0 0 0\n1 1 0 0 0\n0 1 0 0 0\n"


def run_cli(tmp_path, files: dict, *argv) -> dict:
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {**json.loads(proc.stdout), "stderr": proc.stderr}


MALFORMED = {
    "function header": ({"f.fn": "2\nanf: x1\n"}, ["zset", "f.fn"]),
    "function anf": ({"f.fn": "2 4\nanf: x1 @ x2\n"}, ["apc", "f.fn"]),
    "function table": ({"f.fn": "2 2\ntt: 00011\n"}, ["bent", "f.fn"]),
    "function extra line": ({"f.fn": "2 3\nanf: x1*x2\n+ x3\n"}, ["zset", "f.fn"]),
    "graph": ({"g": "2 3\n1 4\n", "c": CLASSES}, ["graph-code", "g", "--classes", "c", "--d", "2"]),
    "classes": ({"g": GRAPH, "c": "012\n"}, ["graph-code", "g", "--classes", "c", "--d", "2"]),
    "matrix": ({"m": "2 2\n1 0\n0\n"}, ["matrix-check", "m", "--k", "0", "--d", "1"]),
    "matrix no rows": ({"m": "2 0\n"}, ["matrix-check", "m", "--k", "0", "--d", "1"]),
    "matrix verify": ({"m": RANK_MAT}, ["matrix-check", "m", "--k", "1", "--d", "2", "--verify"]),
    "projector matrix": ({"f.fn": FUNCTION, "m": "2 1\n0 1 q\n"}, ["projector", "f.fn", "m"]),
    "betas": ({"f.fn": FUNCTION}, ["coset-code", "f.fn", "--betas", "00,012"]),
    "system": ({"s": "2 2\n10 01\n"}, ["solve-basis", "s"]),
    "code json": ({"c.json": '{"p": 2,'}, ["verify", "c.json"]),
    "code not object": ({"c.json": "[1, 2]"}, ["verify", "c.json"]),
    "code field": ({"c.json": CODE.replace('"claimed_d": 1', '"claimed_d": "x"')}, ["verify", "c.json"]),
    "code anf": ({"c.json": CODE.replace("x1*x2", "x1 @ x2")}, ["verify", "c.json"]),
    "code K": ({"c.json": CODE.replace('"claimed_d"', '"K": 3, "claimed_d"')}, ["verify", "c.json"]),
    "code distance": ({"c.json": CODE.replace('"claimed_d": 1', '"claimed_d": 0')},
                      ["verify", "c.json"]),
    "code basis": ({"c.json": CODE.replace('["x1*x2"]', "[]")}, ["verify", "c.json"]),
}


def test_import_loads_no_numpy(tmp_path):
    out = run_cli(tmp_path, {"s": "2 2\n10 01 1\n"}, "solve-basis", "s")
    assert "numpy" not in out["imported"]
    assert out["rc"] == 0 and "numpy" in out["loaded"]


@pytest.mark.parametrize("case", MALFORMED)
def test_input_errors_exit_2_before_numpy_loads(tmp_path, case):
    files, argv = MALFORMED[case]
    out = run_cli(tmp_path, files, *argv)
    assert out["rc"] == 2
    assert {"numpy", "dataclasses", "inspect"}.isdisjoint(out["loaded"])


def test_code_over_the_pair_budget_exits_3_before_numpy_loads(tmp_path):
    # K = 4096 basis functions on 13 variables make 4096^2 pairs, over 2^22:
    # refused from the length of the basis list, before one string is parsed
    basis = [" + ".join(["x1*x2 + x2*x3"] + [f"x{k + 1}" for k in range(13) if j >> k & 1])
             for j in range(4096)]
    code = json.dumps({"p": 2, "n": 13, "claimed_d": 2, "basis": basis})
    out = run_cli(tmp_path, {"k4096.json": code}, "verify", "k4096.json")
    assert out["rc"] == 3 and out["stdout"] == ""
    refusal = "K^2 = 16777216 basis pairs exceed the listing budget 4194304"
    assert out["stderr"] == f"capacity: {refusal}\n"
    assert "numpy" not in out["loaded"]


@pytest.mark.parametrize(
    "argv, files, rc, unloaded",
    [
        (
            ["zset", "f.fn"],
            {"f.fn": FUNCTION},
            0,
            ["state_oracle", "projector_codes", "code_builder"],
        ),
        (
            ["projector", "g2.fn", "m", "--extract-basis"],
            {"g2.fn": G2_FN, "m": REPAIRED_MAT},
            0,
            ["state_oracle", "code_builder"],
        ),
        (
            ["matrix-check", "m", "--k", "1", "--d", "2"],
            {"m": RANK_MAT},
            0,
            ["logic_fn", "numpy", "dataclasses", "inspect"],
        ),
        (
            ["coset-code", "f.fn", "--betas", "00,11"],
            {"f.fn": FUNCTION},
            0,
            ["graph_codes", "projector_codes", "state_oracle"],
        ),
        (["mds", "--m", "2"], {}, 0, ["graph_codes", "state_oracle"]),
        (
            ["graph-code", "g", "--classes", "c", "--d", "1"],
            {"g": GRAPH, "c": CLASSES},
            0,
            ["projector_codes", "state_oracle"],
        ),
    ],
    ids=["zset", "projector", "matrix-check", "coset-code", "mds", "graph-code"],
)
def test_subcommand_loads_only_its_modules(tmp_path, argv, files, rc, unloaded):
    out = run_cli(tmp_path, files, *argv)
    assert out["rc"] == rc
    loaded = [m for m in unloaded if m in out["loaded"] or f"lfqec.{m}" in out["loaded"]]
    assert loaded == []


# x1*x2 + x3*x4 + x1 + 1 over F_2 as a table: interpolated to its ANF,
# whose degree takes the search and the oracle to their quadratic routes
TT_QUADRATIC = "2 4\ntt: " + "".join(
    str((x >> 3 & x >> 2 & 1) ^ (x >> 1 & x & 1) ^ (x >> 3 & 1) ^ 1) for x in range(16)) + "\n"


@pytest.mark.parametrize("text, argv", [
    (TT_QUADRATIC, ["apc", "f.fn", "--verify"]),
    (TT_QUADRATIC, ["coset-code", "f.fn", "--betas", "0000,1100", "--verify"]),
    ("2 4\nanf: x1*x2*x3 + x4\n", ["coset-code", "f.fn", "--betas", "0000,1100,1010", "--verify"]),
], ids=["apc", "coset-code", "cubic-coset-code"])
def test_a_table_quadratic_loads_no_numpy_ma(tmp_path, text, argv):
    # `numpy.ma` costs about 9 ms cold; plain np.unique is what loads it, and
    # both search routes read the shift differences from np.unique
    out = run_cli(tmp_path, {"f.fn": text}, *argv)
    assert out["rc"] in (0, 1) and out["stdout"], out["stderr"]
    assert "numpy" in out["loaded"] and "numpy.ma" not in out["loaded"]

def test_no_module_imports_dataclasses():
    # a frozen dataclass compiles its generated methods when its module loads
    paths = sorted((SRC / "lfqec").glob("*.py"))
    imported = [
        (path.name, alias.name if isinstance(node, ast.Import) else node.module or "")
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert len(paths) == 12 and ("cli.py", "argparse") in imported
    assert [hit for hit in imported if hit[1].partition(".")[0] == "dataclasses"] == []


def test_fp_algebra_imports_no_numpy():
    # `_textfile` reads every input with fp_algebra's types and caps before numpy loads;
    # numpy work on indices lives in `_tables`, so no import of it here, at any depth
    tree = ast.parse((SRC / "lfqec" / "fp_algebra.py").read_text())
    imported = [alias.name if isinstance(node, ast.Import) else node.module or ""
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    assert "typing" in imported
    assert [name for name in imported if name.partition(".")[0] == "numpy"] == []


def owners(hit) -> list:
    """(module, function) of each node of src/lfqec that hit() accepts, in
    file order: methods read Class.method, and module level reads ''."""
    found = []

    def visit(node, module, scope, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = scope + child.name
                visit(child, module, name + ".", func if isinstance(child, ast.ClassDef) else name)
                continue
            if hit(child):
                found.append((module, func))
            visit(child, module, scope, func)

    for path in sorted((SRC / "lfqec").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "", "")
    return found


def test_the_state_cap_is_read_where_states_are_built():
    # the closed form builds no state, so only the state constructors and the
    # Gram branch of the oracle's one route choice may read MAX_STATE
    def reads(node):
        return (isinstance(node, ast.Name) and node.id == "MAX_STATE" and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute) and node.attr == "MAX_STATE")

    assert owners(reads) == [("state_oracle", "StateVector.__init__"),
                             ("state_oracle", "state_from_function"), ("state_oracle", "_route")]
    tree = ast.parse((SRC / "lfqec" / "state_oracle.py").read_text())
    route = next(node for node in tree.body if getattr(node, "name", "") == "_route")
    closed = [node.lineno for node in ast.walk(route) if isinstance(node, ast.Return)
              and "_closed_form_failures" in ast.unparse(node)]
    cap = [node.lineno for node in ast.walk(route) if reads(node)]
    assert len(closed) == 1 and cap[0] > closed[0]  # after the closed form has returned


def test_one_function_builds_the_symmetric_form():
    # S = U + U^T, which the coset search, the closed form and Gamma share:
    # built by a scatter-add, or by a mirrored write S_ij = S_ji, in one place
    def builds(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "at" and getattr(node.func.value, "attr", "") == "add"
                or isinstance(node, ast.Assign)
                and sum(isinstance(t, ast.Subscript) for t in node.targets) >= 2)

    # the graph reader mirrors each edge weight into an adjacency matrix, no ANF's form
    assert owners(builds) == [("_textfile", "read_graph_file"), ("logic_fn", "_symmetric_form")]


def spells_the_index_map(node) -> bool:
    """A call of numpy's unravel_index, ravel_multi_index or indices, a
    place-value vector base ** np.arange(...), bit rows m >> np.arange(...),
    np.arange(...).reshape(...), which lays a C-order ravel onto grid axes,
    or a listing product(..., repeat=...) of F_p^k: the table index map, or
    its rows, spelled by hand."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "reshape":
            inner = func.value.func if isinstance(func.value, ast.Call) else None
            return getattr(inner, "attr", getattr(inner, "id", "")) == "arange"
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name == "product":
            return any(kw.arg == "repeat" for kw in node.keywords)
        if name == "indices":  # numpy's grid of indices, not slice.indices
            return getattr(getattr(func, "value", None), "id", "np") in ("np", "numpy")
        return name in ("unravel_index", "ravel_multi_index")
    return (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Pow, ast.RShift))
            and isinstance(node.right, ast.Call) and getattr(node.right.func, "attr", "") == "arange")


def test_only_tables_spells_the_index_map():
    # vectors and table indices convert in `_tables` alone, so the search, the
    # oracle, the builders and the projector read one layout; graph_codes' vertex
    # masks 1 << np.arange(n) put vertex 1 in the low bit, a layout of their own
    spelled = owners(spells_the_index_map)
    assert [hit for hit in spelled if hit[0] != "_tables"] == []
    assert {("_tables", ""), ("_tables", "support_index")} <= set(spelled)


@pytest.mark.parametrize("source, found", [
    ("np.unravel_index(keys, (p,) * n)", True),
    ("numpy.ravel_multi_index(x, (p,) * n)", True),
    ("unravel_index(keys, shape)", True),
    ("key = p ** np.arange(n - 1, -1, -1)", True),
    ("place = (p - 1) ** np.arange(k)", True),
    ("y_key = np.arange(p**w).reshape([p if i in supp else 1 for i in range(n)])", True),
    ("y_key = arange(p**w).reshape(shape)", True),
    ("classes = itertools.product(range(p), repeat=k)", True),
    ("roles = np.indices((3,) * s).reshape(s, 3**s).T + 1", True),
    ("subsets = np.arange(1 << s)[:, None] >> np.arange(s) & 1", True),
    ("pairs = itertools.product(range(K), range(K))", False),
    ("i, j = np.argwhere(nonzero)[0]", False),
    ("start, stop, step = window.indices(n)", False),
    ("bits = 1 << np.arange(n)", False),
    ("squares = np.arange(n) ** 2", False),
    ("grid = np.zeros(p**n).reshape((p,) * n)", False),
    ("grid = table.reshape((p,) * n)", False),
    ("idx = table_index(p, rows)", False),
])
def test_index_map_spellings_are_found(source, found):
    assert any(map(spells_the_index_map, ast.walk(ast.parse(source)))) == found


COMMANDS = ["apc", "zset", "bent", "graph-code", "matrix-check", "coset-code", "projector",
            "mds", "solve-basis", "verify"]
TOP_USAGE = f"usage: lfqec [-h]\n             {{{','.join(COMMANDS)}}}\n             ...\n"


def run_lfqec(tmp_path, *argv):
    return subprocess.run(
        [sys.executable, "-m", "lfqec.cli", *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_help_lists_every_subcommand(tmp_path):
    proc = run_lfqec(tmp_path, "--help")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(TOP_USAGE)
    listed = [line.split()[0] for line in proc.stdout.splitlines()
              if line.startswith("    ") and not line.startswith("     ")]
    assert listed == COMMANDS


@pytest.mark.parametrize(
    "argv, error",
    [
        (["nosuch"], "lfqec: error: argument command: invalid choice: 'nosuch'"),
        (["apc"], "lfqec apc: error: the following arguments are required: function"),
        (["zset", "f.fn", "extra"], "lfqec: error: unrecognized arguments: extra"),
    ],
    ids=["unknown", "missing-file", "extra"],
)
def test_usage_errors_exit_2_with_argparse_text(tmp_path, monkeypatch, capsys, argv, error):
    # the text of the parser with every subcommand, which a known command does not build
    from lfqec.cli import _build_parser

    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        _build_parser([]).parse_args(argv)
    full = capsys.readouterr().err
    proc = run_lfqec(tmp_path, *argv)
    assert (exc.value.code, proc.returncode, proc.stdout, proc.stderr) == (2, 2, "", full)
    usage = "usage: lfqec apc [-h] [--format {text,json}] [--verify] function\n"
    assert full.startswith(usage if argv == ["apc"] else TOP_USAGE) and error in full


def test_a_run_builds_the_parser_of_its_subcommand_only(tmp_path, monkeypatch, capsys):
    import argparse

    from lfqec.cli import main

    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(k.get("prog")) or init(self, *a, **k))
    (tmp_path / "s").write_text("2 2\n10 01 1\n")
    monkeypatch.chdir(tmp_path)
    assert main(["solve-basis", "s"]) == 0
    assert built == ["lfqec", "lfqec solve-basis"]
    assert capsys.readouterr().out == "solution: x1 + x1*x2\n"


# registered before lfqec's own handler, so it runs after it (last in, first out)
FREEZE_CHILD = """
import atexit, gc, sys
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
import lfqec.cli
sys.exit(lfqec.cli.main(sys.argv[1:]))
"""


def test_exit_freezes_the_collector_after_the_command(tmp_path, capsys, monkeypatch):
    from lfqec.cli import main

    (tmp_path / "g2.fn").write_text(G2_FN)
    (tmp_path / "m").write_text(REPAIRED_MAT)
    argv = ["projector", "g2.fn", "m", "--extract-basis"]
    proc = subprocess.run(
        [sys.executable, "-c", FREEZE_CHILD, *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    monkeypatch.chdir(tmp_path)
    rc = main(argv)
    assert (proc.returncode, proc.stderr) == (rc, "")
    assert proc.stdout == capsys.readouterr().out + "frozen at exit: True\n"
