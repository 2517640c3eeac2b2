"""Command-line interface: every subcommand in both output formats, the
documented exit codes, and one installed-script smoke test."""
import collections
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from conftest import count_expansions
import lfqec
from lfqec import build_coset_code, kl_verify, parse_anf
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


def test_coset_code_from_truth_table(files, capsys):
    # the basis ANF is interpolated from the table: same bytes as the ANF file
    tt = files("maj.tt", "2 3\ntt: 00010111\n")
    anf = files("maj.fn", "2 3\nanf: x1*x2 + x1*x3 + x2*x3\n")
    for fmt in ("text", "json"):
        code, out = run(capsys, "coset-code", tt, "--betas", "000,100", "--format", fmt)
        assert code == 0
        assert out == run(capsys, "coset-code", anf, "--betas", "000,100", "--format", fmt)[1]
    assert '"x1 + x1*x2 + x1*x3 + x2*x3"' in out


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
    path.write_text(json.dumps(spec.to_dict(), indent=2))
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


def test_exit_1_matrix_check_warns_on_few_qudits(files, capsys):
    mat = files("k.mat", "2 6\n001100\n001110\n110000\n110000\n010000\n000000\n")
    code, out = run(capsys, "matrix-check", mat, "--k", "2", "--d", "3")
    assert code == 1
    assert out == (
        "rank route: rejected (selector_rank at erasure [2, 3])\n"
        "kernel route: rejected (kernel_class_action at erasure [2, 3] "
        "kernel vector [0, 0, 0, 1])\n"
        "warning: only 4 qudits for k = 2, d = 3; the construction expects at least "
        "k + 2(d-1) = 6\n"
    )


def test_exit_1_projector_premises(files, capsys):
    code, data = run_json(
        capsys, "projector", files("g2.fn", G2_FN), files("pr.mat", PRINTED_MAT)
    )
    assert code == 1
    assert data["premises"]["all_ok"] is False
    assert data["premises"]["missing_sums"] == [0, 1]


def test_exit_1_projector_premises_every_failure_on_one_line(files, capsys):
    # support size 12 of 16, and rows 1 and 3 equal and not orthogonal to rows 0 and 2
    fn = files("g2c.fn", "2 4\nanf: 1 + " + G2_FN.split("anf: ")[1])
    mat = files("c.mat", "2 4\n10000011\n00010100\n01101000\n00010100\n")
    code, out = run(capsys, "projector", fn, mat)
    assert code == 1
    assert out == (
        "premises: FAIL (support size 12 outside (0, 2^(n-1)]; columns [0, 1, 2, 3, 4, 5, 6, 7] "
        "outside the shift set; column sums at [0, 1, 2, 3] outside the shift set; row pairs "
        "[(0, 1), (0, 3), (1, 2), (2, 3)] not orthogonal; rows are linearly dependent)\n"
    )


def test_exit_1_apc_oracle_disagrees(files, capsys, monkeypatch):
    import lfqec.state_oracle

    monkeypatch.setattr(lfqec.state_oracle, "min_distance", lambda basis: 3)
    fn = files("k4.fn", K4_FN)
    code, out = run(capsys, "apc", fn, "--verify")
    assert code == 1
    assert out == "distance: 2\nwitness: a=1100 b=1100\noracle distance: 3 (DISAGREES)\n"
    code, data = run_json(capsys, "apc", fn, "--verify")
    assert code == 1
    assert (data["distance"], data["oracle_distance"], data["oracle_agrees"]) == (2, 3, False)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_exit_1_premise_error_reaches_main(files, capsys, monkeypatch, fmt):
    # the premises hold, so only the patched solver stops the extraction
    import lfqec.projector_codes

    monkeypatch.setattr(lfqec.projector_codes, "solve_coboundary", lambda *args: None)
    code = main(["projector", files("g2.fn", G2_FN), files("rep.mat", REPAIRED_MAT),
                 "--extract-basis", "--format", fmt])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == ("premise failure: no quadratic function satisfies the syndrome "
                   "difference system\n")


@pytest.mark.parametrize("mat, want", [(REPAIRED_MAT, 0), (PRINTED_MAT, 1)], ids=["ok", "fail"])
def test_projector_checks_premises_once(files, capsys, monkeypatch, mat, want):
    import lfqec.projector_codes

    calls = []
    correlate = lfqec.projector_codes._autocorrelate
    monkeypatch.setattr(lfqec.projector_codes, "_autocorrelate",
                        lambda v: calls.append(v) or correlate(v))
    code, out = run(capsys, "projector", files("g2.fn", G2_FN), files("m.mat", mat))
    assert (code, len(calls)) == (want, 1)
    assert out.startswith("premises: ok\n" if want == 0 else "premises: FAIL (")


def test_projector_expands_each_function_once_per_call(files, capsys, monkeypatch):
    expanded = count_expansions(monkeypatch)
    code, out = run(capsys, "projector", files("g2.fn", G2_FN), files("m.mat", REPAIRED_MAT),
                    "--extract-basis")
    assert code == 0 and out.count("basis[") == 4
    # the function once, read by its premises and its support, g_0 once for the checks
    assert sorted(collections.Counter(map(id, expanded)).values()) == [1, 1]


@pytest.mark.parametrize("mat, want", [(REPAIRED_MAT, 0), (PRINTED_MAT, 1)], ids=["ok", "fail"])
def test_projector_reports_the_premise_check_it_ran(files, capsys, monkeypatch, mat, want):
    import lfqec.projector_codes

    built = []
    report = lfqec.projector_codes.PremiseReport
    monkeypatch.setattr(lfqec.projector_codes, "PremiseReport",
                        lambda *args: built.append(args) or report(*args))
    code, out = run(capsys, "projector", files("g2.fn", G2_FN), files("m.mat", mat),
                    "--extract-basis")
    # the one report is the premise check's: the command builds none of its own
    assert (code, len(built)) == (want, 1)
    assert out.startswith("premises: ok\n" if want == 0 else "premises: FAIL (")


def test_matrix_check_build_runs_the_rank_route_once(files, capsys, monkeypatch):
    import lfqec.graph_codes

    calls = []
    check = lfqec.graph_codes.matrix_code_check
    monkeypatch.setattr(lfqec.graph_codes, "matrix_code_check",
                        lambda *args: calls.append(args) or check(*args))
    code, out = run(capsys, "matrix-check", files("m.mat", RANK_MAT), "--k", "1", "--d", "2",
                    "--build")
    assert (code, len(calls)) == (0, 1)
    assert out.startswith("rank route: accepted\nkernel route: accepted\ncode: ((4, 2, 2))_p=2\n")


def test_coset_code_checks_its_shifts_once(files, capsys, monkeypatch):
    import lfqec.code_builder

    calls = []
    check = lfqec.code_builder._check_betas
    monkeypatch.setattr(lfqec.code_builder, "_check_betas",
                        lambda f, betas: calls.append(betas) or check(f, betas))
    code, out = run(capsys, "coset-code", files("k4.fn", K4_FN), "--betas", "0000,1100,1010,1001")
    assert (code, len(calls)) == (0, 1)
    assert out.startswith("code: ((4, 4, 2))_p=2\n")


def test_mds_parses_its_product_function_once(capsys, monkeypatch):
    import lfqec.code_builder

    calls = []
    parse = lfqec.code_builder.parse_anf
    monkeypatch.setattr(lfqec.code_builder, "parse_anf",
                        lambda *args: calls.append(args) or parse(*args))
    code, out = run(capsys, "mds", "--m", "3")
    assert (code, len(calls)) == (0, 1)
    assert out.startswith("code: ((6, 16, 2))_p=2\n")


def test_bent_expands_its_function_once(files, capsys, monkeypatch):
    expanded = count_expansions(monkeypatch)
    code, out = run(capsys, "bent", files("b.fn", "2 4\nanf: x1*x2 + x3*x4\n"))
    assert code == 0 and out == "bent: true\nsupport size: 6\n"
    assert len(expanded) == 1


P3_FN = "3 4\nanf: x1*x2 + x3\n"


@pytest.mark.parametrize(
    "argv, texts, err",
    [
        (["bent", "{0}"], [P3_FN], "bent detection is defined for p = 2"),
        (["bent", "{0}"], ["2 3\nanf: x1*x2 + x3\n"], "bent functions require even n"),
        (["projector", "{0}", "{1}"], [P3_FN, REPAIRED_MAT],
         "the projector construction is defined for p = 2"),
        (["projector", "{0}", "{1}"], [G2_FN, "2 3\n100010\n010001\n001000\n"],
         "matrix must be 4 x 8 over F_2"),
        (["projector", "{0}", "{1}"], [G2_FN, "3" + REPAIRED_MAT[1:]],
         "matrix must be 4 x 8 over F_2"),
        (["zset", "{0}"], [P3_FN], "zset is defined for p = 2"),
        (["coset-code", "{0}", "--betas", "0000,110"], [K4_FN], "expected 4 residues, got 3"),
    ],
    ids=["bent-p3", "bent-odd-n", "projector-p3", "projector-3x6", "projector-F3", "zset-p3",
         "coset-short-shift"],
)
def test_domain_refusals_come_before_any_expansion(files, capsys, monkeypatch, argv, texts, err):
    expanded = count_expansions(monkeypatch)
    paths = [files(f"in{i}.txt", text) for i, text in enumerate(texts)]
    assert main([arg.format(*paths) for arg in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")
    assert expanded == []


@pytest.mark.parametrize("n", [18, 20])
def test_projector_probes_the_shift_set_without_listing_it(files, capsys, n):
    # x1*...*xn has 2^n - 1 zero-product shifts, over the listing budget as
    # vectors; the premises only read 3n of them
    cycle = [[int((i - j) % n in (1, n - 1)) for j in range(n)] for i in range(n)]
    rows = [" ".join(map(str, [int(i == j) for j in range(n)] + cycle[i])) for i in range(n)]
    fn = files("prod.fn", f"2 {n}\nanf: " + "*".join(f"x{i + 1}" for i in range(n)) + "\n")
    mat = files("cycle.mat", f"2 {n}\n" + "\n".join(rows) + "\n")
    want = "premises: ok\nprojector rank: 1 (support size 1)\n"
    assert run(capsys, "projector", fn, mat) == (0, want)


def test_exit_1_mds_verify(files, capsys):
    code, data = run_json(capsys, "mds", "--m", "2", "--verify")
    assert code == 1
    assert data["verification"]["verdict"] == "fail"
    assert data["verification"]["failures"][0]["a"] == [1, 0, 0, 0]


PATH3_GRAPH = "2 3\n1 2\n2 3\n"


def test_exit_1_distance_claim_past_n(files, capsys):
    # errors weigh at most n, and every code fails by weight n: a claim of
    # d = 9 on 3 qubits is checked at weights 1..3 and refuted, not refused
    argv = ["graph-code", files("p3.g", PATH3_GRAPH), "--classes", files("p3.cl", "000\n"),
            "--d", "9"]
    assert run(capsys, *argv)[0] == 0  # a claim alone is not checked
    code, out = run(capsys, *argv, "--verify")
    assert code == 1
    assert "verification: fail (max weight 3)\n  failure: " in out
    code, data = run_json(capsys, *argv, "--verify")
    assert code == 1
    assert data["verification"]["max_weight"] == 3 and data["verification"]["failures"]


def cycle_graph(n: int) -> str:
    return f"2 {n}\n" + "".join(f"{i} {i % n + 1}\n" for i in range(1, n + 1))


def test_exit_3_full_sweep_over_the_label_budget(files, capsys):
    # a claim past n walks every label: C16 would walk 4^16 - 1 of them, and
    # is refused up front, while C10's 4^10 - 1 keep their verdict and bytes
    def argv(n):
        return ["graph-code", files(f"c{n}.g", cycle_graph(n)),
                "--classes", files(f"c{n}.cl", "0" * n + "\n"), "--d", str(n + 2), "--verify"]

    start = time.perf_counter()
    assert main(argv(16)) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == (
        "", "capacity: 4294967295 labels of weight 1..16 exceed the label budget 67108864\n")
    code, out = run(capsys, *argv(10))
    assert code == 1 and len(out.splitlines()) == 1027
    digest = "d4b8fa19bf9b00d4495e3b9d3a3f2a979b8eec57d475e772b3a0a1d0c1a8290f"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_claim_past_n_is_checked_up_to_n(files, capsys):
    text = json.dumps({"p": 2, "n": 3, "claimed_d": 6, "basis": ["x1*x2", "x1*x2 + x3"]})
    path = files("d6.json", text)
    code, data = run_json(capsys, "verify", path)
    assert code == 1
    assert data["max_weight"] == 3 and data["verdict"] == "fail" and data["failures"]
    code, out = run(capsys, "verify", path)
    assert code == 1 and out.startswith("verdict: fail (max weight 3)\n")
    # an explicit weight past n is still malformed input
    code = main(["verify", path, "--max-weight", "4"])
    assert code == 2
    assert capsys.readouterr() == ("", "error: max_weight must lie in [0, 3]\n")


def test_exit_1_solve_basis_inconsistent(files, capsys):
    code, out = run(capsys, "solve-basis", files("bad.fn", SYSTEM_BAD))
    assert code == 1 and "inconsistent" in out


def test_exit_2_input_errors(files, capsys):
    code, out = run(capsys, "apc", "/nonexistent/path.fn")
    assert code == 2
    code, out = run(capsys, "apc", files("broken.fn", "2 2\n"))
    assert code == 2
    # a function file has one body line; a line after it is refused, not dropped
    for extra in ("2 3\nanf: x1*x2\n+ x3\n", "2 1\ntt: 01\n10\n"):
        code = main(["zset", files("extra.fn", extra)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: function file has one body line, but ")
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
    # --verify checks the code that --build makes, so alone it is refused
    code = main(["matrix-check", files("m.mat", RANK_MAT), "--k", "1", "--d", "2", "--verify"])
    assert code == 2
    assert capsys.readouterr() == ("", "error: --verify checks the built code, so it needs --build\n")
    code = main(["matrix-check", files("r.mat", "2 3\n10\n1\n0\n"), "--k", "0", "--d", "1"])
    assert code == 2
    assert capsys.readouterr() == ("", "error: matrix rows have inconsistent lengths\n")
    code = main(["matrix-check", files("e.mat", "2 0\n"), "--k", "0", "--d", "1"])
    assert code == 2
    assert capsys.readouterr() == ("", "error: a matrix needs at least one row, got r = 0\n")
    code = main(["solve-basis", files("s.sys", "2 2\n\n# nothing\n")])
    assert code == 2
    want = "error: system file needs at least one 'alpha beta t' row\n"
    assert capsys.readouterr() == ("", want)
    # valid JSON that is not an object is refused by name, not by a TypeError's text
    code = main(["verify", files("list.json", "[1, 2]")])
    assert code == 2
    want = "error: malformed code description: the top level must be a JSON object\n"
    assert capsys.readouterr() == ("", want)


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


@pytest.mark.parametrize(
    "text",
    [
        '{"p":2,"n":2,"claimed_d":2,"basis":5}',
        '{"p":2,"n":2,"claimed_d":2,"basis":[5]}',
        '{"p":2,"n":2,"claimed_d":2,"basis":["x1"],"K":"x"}',
        '{"p":2,"n":2,"claimed_d":2,"basis":["x1"],"K":null}',
        '{"p":2,"n":1,"claimed_d":1,"basis":"01"}',
        '{"p":2,"n":2,"claimed_d":1.9,"basis":["x1"]}',
        '{"p":2,"n":true,"claimed_d":2,"basis":["x1"]}',
        "[" * 100000,
    ],
    ids=["basis-int", "basis-ints", "K-text", "K-null", "basis-text", "d-float", "n-bool", "deep"],
)
def test_exit_2_malformed_code_description(files, capsys, text):
    code = main(["verify", files("code.json", text)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


DEEP_ANF = "(" * 400 + "x1" + ")" * 400


@pytest.mark.parametrize(
    "argv, text",
    [
        (["zset", "{0}"], f"2 2\nanf: {DEEP_ANF}\n"),
        (["verify", "{0}"], json.dumps({"p": 2, "n": 2, "claimed_d": 1, "basis": [DEEP_ANF]})),
    ],
    ids=["zset", "verify"],
)
def test_exit_2_deeply_nested_anf(files, capsys, argv, text):
    code = main([arg.format(files("deep.txt", text)) for arg in argv])
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
    code, out = run(capsys, "mds", "--m", "9")  # 2^16 functions of 172 ANF terms > the listing budget
    assert code == 3


def test_bent_expands_a_product_of_16_factors(files, capsys):
    # (1+x1)...(1+x16) has 2^16 terms; it is 1 at x = 0 alone
    text = "2 16\nanf: " + "".join(f"(1+x{i})" for i in range(1, 17)) + "\n"
    assert main(["bent", files("prod16.fn", text)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "bent: false\nsupport size: 1\n"
    assert captured.err == ""


def test_exit_3_state_capacity_for_a_quadratic_code(files, capsys):
    # the state cap bounds the Gram route alone: a cubic code over it exits 3,
    # and the quadratic code takes the closed form, which needs no states
    text = json.dumps({"p": 2, "n": 21, "claimed_d": 2, "basis": ["x1*x2*x3", "x1*x2*x3 + x4"]})
    code = main(["verify", files("big.json", text)])
    assert code == 3
    assert capsys.readouterr() == ("", "capacity: p^n with n = 21 exceeds cap 1048576\n")
    text = json.dumps({"p": 2, "n": 21, "claimed_d": 2, "basis": ["x1*x2", "x1*x2 + x3"]})
    code = main(["verify", files("big.json", text)])
    assert code == 1
    out, err = capsys.readouterr()
    assert err == ""
    # Z3 and Y3 link the two states, and X3 fixes one and flips the other's sign
    e3, zero = "001" + "0" * 18, "0" * 21
    assert out.splitlines() == [
        "verdict: fail (max weight 1)",
        f"failure: a={zero} b={e3} offdiag_nonzero at (0, 1)",
        f"failure: a={e3} b={zero} diag_unequal at (0, 1)",
        f"failure: a={e3} b={e3} offdiag_nonzero at (0, 1)",
    ]


def test_exit_3_label_budget_is_read_before_the_state_cap(files, capsys):
    # a cubic code over both caps: kl_verify counts its labels before the
    # route is chosen, so the label budget, not the state cap, refuses it
    text = json.dumps({"p": 2, "n": 21, "claimed_d": 8, "basis": ["x1*x2*x3", "x1*x2*x3 + x4"]})
    assert main(["verify", files("big.json", text)]) == 3
    assert capsys.readouterr() == (
        "", "capacity: 299330271 labels of weight 1..7 exceed the label budget 67108864\n")


def test_a_claim_that_needs_no_label_meets_no_cap(files, capsys):
    # claimed_d = 1 checks weights 1..0: no label, so no route sizes the
    # states of this cubic basis over the state cap; d = 2 still meets it
    basis = [f"x1*x2*x3 + x4*x5{c}" for c in ("", " + x1", " + x2")]
    for d, want in [(1, (0, "verdict: pass (max weight 0)\n", "")),
                    (2, (3, "", "capacity: p^n with n = 21 exceeds cap 1048576\n"))]:
        text = json.dumps({"p": 2, "n": 21, "claimed_d": d, "basis": basis})
        assert (main(["verify", files("big.json", text)]), *capsys.readouterr()) == want
    assert kl_verify([parse_anf(f, 2, 21) for f in basis], 0).passed


def test_quadratic_inputs_are_verified_without_states(files, capsys, monkeypatch, tmp_path):
    import lfqec.state_oracle

    k4 = files("k4.fn", K4_FN)
    spec = build_coset_code(parse_anf(K4_FN.split("anf: ")[1], 2, 4), [(0, 0, 0, 0), (1, 1, 0, 0)])
    argvs = [
        ["graph-code", files("c5.graph", C5_GRAPH), "--classes", files("c5.cl", C5_CLASSES),
         "--d", "3", "--verify"],
        ["coset-code", k4, "--betas", "0000,1100,1010,1001", "--verify"],
        ["matrix-check", files("m.mat", RANK_MAT), "--k", "1", "--d", "2", "--build", "--verify"],
        ["mds", "--m", "2", "--verify"],
        ["verify", files("code.json", json.dumps(spec.to_dict(), indent=2)), "--max-weight", "2"],
        ["apc", k4, "--verify"],
    ]
    argvs += [argv + ["--format", "json"] for argv in argvs]
    want = [run(capsys, *argv) for argv in argvs]
    assert [code for code, _ in want] == [0, 0, 0, 1, 1, 0] * 2

    def refuse(f):
        raise AssertionError("state built")

    # CodeSpec.states imports it per call, so this one patch covers it too
    monkeypatch.setattr(lfqec.state_oracle, "state_from_function", refuse)
    assert [run(capsys, *argv) for argv in argvs] == want


# ---------------------------------------------------------------------------
# child processes: a reader that closes stdout early, and the installed script


def child_env() -> dict:
    """The environment of a child that imports the same lfqec as the tests,
    installed or not."""
    src = str(pathlib.Path(lfqec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}


def read_one_byte(tmp_path, *argv) -> tuple:
    """(exit code, stderr) of `lfqec argv` when its reader takes one byte
    of stdout and closes the pipe. The output must exceed the 64 KiB pipe
    buffer, so that the child is still writing when the pipe closes."""
    proc = subprocess.Popen([sys.executable, "-m", "lfqec.cli", *argv], cwd=tmp_path,
                            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(1)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    return proc.wait(timeout=120), err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_closed_stdout_changes_neither_exit_code_nor_stderr(tmp_path, fmt):
    # every nonzero shift of x1*...*x14 is listed: 246 KB of text, 2.3 MB of JSON
    (tmp_path / "x14.fn").write_text("2 14\nanf: " + "*".join(f"x{i}" for i in range(1, 15)))
    assert read_one_byte(tmp_path, "zset", "x14.fn", "--format", fmt) == (0, "")


def test_a_closed_stdout_keeps_a_refutation(tmp_path):
    # the refuted weight-1 claim of mds --m 6: 240 KB of text (m = 5 gives only 47 KB)
    assert read_one_byte(tmp_path, "mds", "--m", "6", "--verify") == (1, "")


def test_console_script(tmp_path):
    fn = tmp_path / "k4.fn"
    fn.write_text(K4_FN)
    proc = subprocess.run(
        [sys.executable, "-m", "lfqec.cli", "apc", str(fn), "--format", "json"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["distance"] == 2
