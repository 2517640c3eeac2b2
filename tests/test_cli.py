"""Command-line interface: every subcommand in both output formats, the
documented exit codes, and one installed-script smoke test."""
import json
import os
import pathlib
import subprocess
import sys

import pytest

import lfqec
from lfqec import build_coset_code, parse_anf
from lfqec.cli import main

K4_FN = "2 4\nanf: x1*x2 + x1*x3 + x1*x4 + x2*x3 + x2*x4 + x3*x4\n"
G2_FN = "2 4\nanf: x1*x3 + x1*x4 + x2*x3 + x2*x4 + x3*x4 + x1 + x2\n"
C5_GRAPH = "2 5\n1 2\n2 3\n3 4\n4 5\n5 1\n"
C5_CLASSES = "00000\n11111\n"
PRINTED_MAT = "2 4\n1 0 0 0 0 0 1 1\n0 1 0 0 0 0 1 1\n0 0 1 0 1 1 0 1\n0 0 0 1 1 1 1 0\n"
REPAIRED_MAT = "2 4\n1 0 0 0 0 0 1 0\n0 1 0 0 0 0 0 1\n0 0 1 0 1 0 0 0\n0 0 0 1 0 1 0 0\n"
RANK_MAT = "2 5\n0 0 1 1 0\n0 0 1 1 1\n1 1 0 0 0\n1 1 0 0 0\n0 1 0 0 0\n"
SYSTEM_OK = "2 2\n10 01 1\n01 10 0\n"
SYSTEM_BAD = "2 2\n10 10 0\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# happy paths


def test_apc_text_and_json(files, capsys):
    fn = files("k4.fn", K4_FN)
    code, out = run(capsys, "apc", fn)
    assert code == 0
    assert "distance: 2" in out and "witness:" in out
    code, data = run_json(capsys, "apc", fn, "--verify")
    assert code == 0
    assert data["distance"] == 2
    assert data["witness"]["a"] == [1, 1, 0, 0]
    assert data["oracle_distance"] == 2


def test_zset_and_bent(files, capsys):
    fn = files("g2.fn", G2_FN)
    code, data = run_json(capsys, "zset", fn)
    assert code == 0
    assert data["size"] == 12 and len(data["shifts"]) == 12
    assert [0, 0, 0, 1] in data["shifts"]
    assert [0, 0, 0, 0] not in data["shifts"]  # zero shift never vanishes
    code, data = run_json(capsys, "bent", files("b.fn", "2 4\nanf: x1*x2 + x3*x4\n"))
    assert code == 0 and data["bent"] is True
    code, out = run(capsys, "bent", files("nb.fn", "2 4\nanf: x1\n"))
    assert code == 0 and "bent: false" in out


def test_graph_code(files, capsys):
    code, data = run_json(
        capsys,
        "graph-code",
        files("c5.graph", C5_GRAPH),
        "--classes",
        files("c5.classes", C5_CLASSES),
        "--d",
        "3",
        "--verify",
    )
    assert code == 0
    assert data["p"] == 2 and data["n"] == 5
    assert data["K"] == 2 and data["claimed_d"] == 3
    assert data["provenance"] == "graph-code"
    assert data["verification"]["verdict"] == "pass"


def test_matrix_check_both_routes_and_build(files, capsys):
    mat = files("m.mat", RANK_MAT)
    code, data = run_json(capsys, "matrix-check", mat, "--k", "1", "--d", "2", "--build")
    assert code == 0
    assert data["rank_route"]["accepted"] is True
    assert data["kernel_route"]["accepted"] is True
    assert data["code"]["K"] == 2
    code, out = run(capsys, "matrix-check", mat, "--k", "1", "--d", "2")
    assert code == 0
    assert "rank route: accepted" in out and "kernel route: accepted" in out


def test_coset_code(files, capsys):
    fn = files("k4.fn", K4_FN)
    code, data = run_json(
        capsys, "coset-code", fn, "--betas", "0000,1100,1010,1001", "--verify"
    )
    assert code == 0
    assert data["claimed_d"] == 2 and data["K"] == 4
    assert data["verification"]["verdict"] == "pass"


def test_projector_repaired(files, capsys):
    code, data = run_json(
        capsys,
        "projector",
        files("g2.fn", G2_FN),
        files("rep.mat", REPAIRED_MAT),
        "--extract-basis",
    )
    assert code == 0
    assert data["premises"]["all_ok"] is True
    assert data["rank"] == 4 and data["support_size"] == 4
    assert len(data["basis"]) == 4


def test_mds(files, capsys):
    code, data = run_json(capsys, "mds", "--m", "2")
    assert code == 0
    assert data["K"] == 4 and data["n"] == 4
    assert data["claimed_d"] == 2 and data["provenance"] == "mds-family"


def test_solve_basis(files, capsys):
    code, data = run_json(capsys, "solve-basis", files("s.fn", SYSTEM_OK))
    assert code == 0
    assert data["consistent"] is True and data["solution"] == "x1 + x1*x2"


def test_verify_roundtrip(files, capsys, tmp_path):
    spec = build_coset_code(
        parse_anf("x1*x2 + x1*x3 + x1*x4 + x2*x3 + x2*x4 + x3*x4", 2, 4),
        [(0, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)],
    )
    path = tmp_path / "code.json"
    path.write_text(spec.to_json())
    code, data = run_json(capsys, "verify", str(path))
    assert code == 0 and data["verdict"] == "pass"
    # weight above the claim exposes the failing pair
    code, data = run_json(capsys, "verify", str(path), "--max-weight", "2")
    assert code == 1 and data["verdict"] == "fail"
    assert data["failures"][0]["kind"] in ("offdiag_nonzero", "diag_unequal")


# ---------------------------------------------------------------------------
# failure exit codes


def test_exit_1_matrix_check_rejects(files, capsys):
    mat = files("z.mat", "2 5\n" + "0 0 0 0 0\n" * 5)
    code, data = run_json(capsys, "matrix-check", mat, "--k", "1", "--d", "2")
    assert code == 1
    assert data["rank_route"]["accepted"] is False
    assert data["rank_route"]["condition"] == "selector_rank"


def test_exit_1_projector_premises(files, capsys):
    code, data = run_json(
        capsys, "projector", files("g2.fn", G2_FN), files("pr.mat", PRINTED_MAT)
    )
    assert code == 1
    assert data["premises"]["all_ok"] is False
    assert data["premises"]["missing_sums"] == [0, 1]


def test_exit_1_mds_verify(files, capsys):
    code, data = run_json(capsys, "mds", "--m", "2", "--verify")
    assert code == 1
    assert data["verification"]["verdict"] == "fail"
    assert data["verification"]["failures"][0]["a"] == [1, 0, 0, 0]


def test_exit_1_solve_basis_inconsistent(files, capsys):
    code, out = run(capsys, "solve-basis", files("bad.fn", SYSTEM_BAD))
    assert code == 1 and "inconsistent" in out


def test_exit_2_input_errors(files, capsys):
    code, out = run(capsys, "apc", "/nonexistent/path.fn")
    assert code == 2
    code, out = run(capsys, "apc", files("broken.fn", "2 2\n"))
    assert code == 2
    code, out = run(
        capsys,
        "graph-code",
        files("c5.graph", C5_GRAPH),
        "--classes",
        files("bad.classes", "00000\n10000\n01000\n"),
        "--d",
        "3",
    )
    assert code == 2  # coverable symmetric difference is an input defect


@pytest.mark.parametrize(
    "argv, texts",
    [
        (["zset", "{0}"], ["a b\nanf: x1\n"]),
        (["bent", "{0}"], ["2 2\ntt: 0 1 q 1\n"]),
        (
            ["graph-code", "{0}", "--classes", "{1}", "--d", "2"],
            ["2 3\n1 2 q\n2 3\n", "000\n111\n"],
        ),
        (["solve-basis", "{0}"], ["2 2\n01 10 x\n"]),
        (["matrix-check", "{0}", "--k", "1", "--d", "2"], ["2 1\n1x\n"]),
    ],
)
def test_exit_2_malformed_integers(files, capsys, argv, texts):
    paths = [files(f"in{i}.txt", text) for i, text in enumerate(texts)]
    code = main([arg.format(*paths) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_exit_2_projector_row_squares_to_minus_identity(files, capsys):
    # the premises hold, but row 0 = (01|11) squares to -I
    code = main(
        [
            "projector",
            files("g.fn", "2 2\ntt: 0 0 0 1\n"),
            files("neg.mat", "2 2\n0 1 1 1\n1 1 0 0\n"),
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "row 0" in err and "Traceback" not in err


def test_exit_3_capacity(files, capsys):
    code, out = run(capsys, "apc", files("huge.fn", "2 30\nanf: x1\n"))
    assert code == 3
    code, out = run(capsys, "mds", "--m", "6")  # 2^12 > the operator dimension cap
    assert code == 3


# ---------------------------------------------------------------------------
# installed script


def test_console_script(tmp_path):
    fn = tmp_path / "k4.fn"
    fn.write_text(K4_FN)
    # the child imports the same lfqec as the tests, installed or not
    src = str(pathlib.Path(lfqec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "lfqec.cli", "apc", str(fn), "--format", "json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["distance"] == 2
