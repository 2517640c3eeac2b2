"""Command-line interface.

Subcommands: apc, zset, bent, graph-code, matrix-check, coset-code,
projector, mds, solve-basis, verify. Every subcommand takes --format
text|json.

Exit codes: 0 success / verified; 1 verification or premise failure
(a failed distance claim, rejected matrix, failed projector premises,
or an inconsistent difference system); 2 malformed input; 3 capacity.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from ._textfile import content_lines, integer, read_header, residues
from .codespec import CodeSpec, check_claim
from .code_builder import (
    build_coset_code,
    build_matrix_code,
    build_mds_family,
)
from .errors import CapacityError, InputError, PremiseError
from .fp_algebra import FpMatrix
from .graph_codes import (
    build_graph_code,
    matrix_code_check,
    matrix_kernel_check,
    parse_graph_file,
)
from .logic_fn import (
    anf_text,
    apc_distance,
    parse_function_file,
    solve_coboundary,
    weight_support,
    is_bent,
    zset,
)
from .projector_codes import (
    check_projector_premises,
    extract_boolean_basis,
    projector_rank,
)
from .state_oracle import kl_verify, min_distance, state_from_function


# ---------------------------------------------------------------------------
# file formats shared by several subcommands


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def parse_matrix_file(text: str) -> FpMatrix:
    """'p r' then r rows of residues (compact digits for p <= 7 or
    separated values); column count is set by the first row."""
    p, r, body = read_header(text, "p r")
    if len(body) != r:
        raise InputError(f"expected {r} matrix rows, got {len(body)}")
    rows = [residues(ln, p) for ln in body]
    if len({len(row) for row in rows}) != 1:
        raise InputError("matrix rows have inconsistent lengths")
    return FpMatrix.from_rows(p, rows)


def parse_classes_file(text: str, n: int) -> list:
    """One class per line as a length-n binary string, vertex 1 leftmost."""
    classes = []
    for ln in content_lines(text):
        if not re.fullmatch(r"[01]+", ln) or len(ln) != n:
            raise InputError(f"class line must be {n} binary digits, got {ln!r}")
        classes.append(frozenset(i + 1 for i, ch in enumerate(ln) if ch == "1"))
    if not classes:
        raise InputError("classes file has no classes")
    return classes


def parse_system_file(text: str):
    """'p n' then rows 'alpha beta t' (two residue vectors and a residue)."""
    p, n, body = read_header(text, "p n")
    if not body:
        raise InputError("system file needs at least one 'alpha beta t' row")
    pairs = []
    for ln in body:
        parts = ln.split()
        if len(parts) != 3:
            raise InputError(f"system row must be 'alpha beta t', got {ln!r}")
        alpha = _parse_vector(parts[0], p, n)
        beta = _parse_vector(parts[1], p, n)
        t = integer(parts[2], "t")
        if not 0 <= t < p:
            raise InputError(f"t must lie in [0, p), got {t}")
        pairs.append((alpha, beta, t))
    return p, n, pairs


def _parse_vector(token: str, p: int, n: int) -> tuple:
    return tuple(residues(token, p, n, sep=r"[.,:]"))


def _parse_betas(arg: str, p: int, n: int) -> list:
    return [_parse_vector(tok, p, n) for tok in arg.split(",") if tok]


# ---------------------------------------------------------------------------
# output helpers


def _emit(args, payload: dict, text_lines: list) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _vector_str(v) -> str:
    return "".join(str(x) for x in v) if all(0 <= x <= 9 for x in v) else ",".join(map(str, v))


def _codespec_payload(spec: CodeSpec, report=None) -> dict:
    payload = spec.to_dict()
    if report is not None:
        payload["verification"] = report.to_dict()
    return payload


def _codespec_lines(spec: CodeSpec, report=None) -> list:
    lines = [
        f"code: (({spec.n}, {spec.claimed_K}, {spec.claimed_d}))_p={spec.p}",
        f"provenance: {spec.provenance}",
    ]
    lines += [f"basis[{i}]: {anf_text(f)}" for i, f in enumerate(spec.basis)]
    if report is not None:
        lines.append(f"verification: {report.verdict} (max weight {report.max_weight})")
        for fail in report.failures:
            lines.append(
                f"  failure: a={_vector_str(fail.a)} b={_vector_str(fail.b)} "
                f"{fail.kind} at ({fail.i}, {fail.j})"
            )
    return lines


def _verify_spec(args, spec: CodeSpec):
    """(report, exit_code) for a --verify run; (None, 0) without it."""
    if not getattr(args, "verify", False):
        return None, 0
    report = check_claim(spec)
    return report, 0 if report.passed else 1


# ---------------------------------------------------------------------------
# subcommands


def cmd_apc(args) -> int:
    f = parse_function_file(_read(args.function))
    res = apc_distance(f)
    payload = {
        "distance": res.distance,
        "witness": {"a": list(res.witness.a), "b": list(res.witness.b)},
    }
    lines = [
        f"distance: {res.distance}",
        f"witness: a={_vector_str(res.witness.a)} b={_vector_str(res.witness.b)}",
    ]
    code = 0
    if args.verify:
        oracle = min_distance([state_from_function(f)], cap=f.n)
        agree = oracle == res.distance
        payload["oracle_distance"] = oracle
        payload["oracle_agrees"] = agree
        lines.append(f"oracle distance: {oracle} ({'agrees' if agree else 'DISAGREES'})")
        if not agree:
            code = 1
    _emit(args, payload, lines)
    return code


def cmd_zset(args) -> int:
    f = parse_function_file(_read(args.function))
    zs = sorted(zset(f))
    payload = {"size": len(zs), "shifts": [list(v) for v in zs]}
    lines = [f"size: {len(zs)}"] + [_vector_str(v) for v in zs]
    _emit(args, payload, lines)
    return 0


def cmd_bent(args) -> int:
    f = parse_function_file(_read(args.function))
    bent = is_bent(f)
    M, _ = weight_support(f)
    payload = {"bent": bent, "support_size": M}
    lines = [f"bent: {str(bent).lower()}", f"support size: {M}"]
    _emit(args, payload, lines)
    return 0


def cmd_graph_code(args) -> int:
    G = parse_graph_file(_read(args.graph))
    classes = parse_classes_file(_read(args.classes), G.n)
    spec = build_graph_code(G, classes, args.d)
    report, code = _verify_spec(args, spec)
    _emit(args, _codespec_payload(spec, report), _codespec_lines(spec, report))
    return code


def _matrix_result_dict(res) -> dict:
    return {
        "accepted": res.accepted,
        "condition": res.condition,
        "erased": list(res.erased) if res.erased is not None else None,
        "vector": list(res.vector) if res.vector is not None else None,
        "warning": res.warning,
    }


def _matrix_result_line(name: str, res) -> str:
    if res.accepted:
        return f"{name}: accepted"
    extra = f" at erasure {list(res.erased)}" if res.erased is not None else ""
    if res.vector is not None:
        extra += f" kernel vector {list(res.vector)}"
    return f"{name}: rejected ({res.condition}{extra})"


def cmd_matrix_check(args) -> int:
    A = parse_matrix_file(_read(args.matrix))
    rank_res = matrix_code_check(A, args.k, args.d)
    kernel_res = matrix_kernel_check(A, args.k, args.d)
    payload = {
        "rank_route": _matrix_result_dict(rank_res),
        "kernel_route": _matrix_result_dict(kernel_res),
    }
    lines = [
        _matrix_result_line("rank route", rank_res),
        _matrix_result_line("kernel route", kernel_res),
    ]
    if rank_res.warning:
        lines.append(f"warning: {rank_res.warning}")
    code = 0 if rank_res.accepted else 1
    if args.build and rank_res.accepted:
        spec = build_matrix_code(A, args.k, args.d)
        report, code = _verify_spec(args, spec)
        payload["code"] = _codespec_payload(spec, report)
        lines += _codespec_lines(spec, report)
    _emit(args, payload, lines)
    return code


def cmd_coset_code(args) -> int:
    f = parse_function_file(_read(args.function))
    betas = _parse_betas(args.betas, f.p, f.n)
    spec = build_coset_code(f, betas)
    report, code = _verify_spec(args, spec)
    _emit(args, _codespec_payload(spec, report), _codespec_lines(spec, report))
    return code


def cmd_projector(args) -> int:
    f = parse_function_file(_read(args.function))
    A = parse_matrix_file(_read(args.matrix))
    report = check_projector_premises(f, A)
    if not report.all_ok:
        _emit(
            args,
            {"premises": report.to_dict()},
            [f"premises: FAIL ({report.summary()})"],
        )
        return 1
    prank = projector_rank(f, A)
    M, support = weight_support(f)
    payload = {"premises": report.to_dict(), "rank": prank, "support_size": M}
    lines = ["premises: ok", f"projector rank: {prank} (support size {M})"]
    if args.extract_basis:
        basis = [extract_boolean_basis(f, A, t) for t in support]
        payload["basis"] = [anf_text(g) for g in basis]
        lines += [f"basis[{i}]: {anf_text(g)}" for i, g in enumerate(basis)]
    _emit(args, payload, lines)
    return 0


def cmd_mds(args) -> int:
    spec = build_mds_family(args.m)
    report, code = _verify_spec(args, spec)
    _emit(args, _codespec_payload(spec, report), _codespec_lines(spec, report))
    return code


def cmd_solve_basis(args) -> int:
    p, n, pairs = parse_system_file(_read(args.system))
    g = solve_coboundary(pairs, p, n)
    if g is None:
        _emit(args, {"consistent": False}, ["inconsistent"])
        return 1
    _emit(args, {"consistent": True, "solution": anf_text(g)}, [f"solution: {anf_text(g)}"])
    return 0


def cmd_verify(args) -> int:
    spec = CodeSpec.from_json(_read(args.codespec))
    max_weight = args.max_weight if args.max_weight is not None else spec.claimed_d - 1
    report = kl_verify(spec.states(), max_weight)
    payload = report.to_dict()
    lines = [f"verdict: {report.verdict} (max weight {max_weight})"]
    for fail in report.failures:
        lines.append(
            f"failure: a={_vector_str(fail.a)} b={_vector_str(fail.b)} "
            f"{fail.kind} at ({fail.i}, {fail.j})"
        )
    _emit(args, payload, lines)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )

    top = argparse.ArgumentParser(
        prog="lfqec",
        description="Quantum codes from logic functions, with exact verification.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("apc", parents=[common], help="nonvanishing character-sum distance")
    sp.add_argument("function", help="function file")
    sp.add_argument("--verify", action="store_true", help="cross-check with the state oracle")
    sp.set_defaults(fn=cmd_apc)

    sp = sub.add_parser("zset", parents=[common], help="zero-product shift set")
    sp.add_argument("function")
    sp.set_defaults(fn=cmd_zset)

    sp = sub.add_parser("bent", parents=[common], help="flat-spectrum test")
    sp.add_argument("function")
    sp.set_defaults(fn=cmd_bent)

    sp = sub.add_parser("graph-code", parents=[common], help="code from a weighted graph")
    sp.add_argument("graph", help="graph file")
    sp.add_argument("--classes", required=True, help="classes file")
    sp.add_argument("--d", type=int, required=True, help="claimed distance")
    sp.add_argument("--verify", action="store_true")
    sp.set_defaults(fn=cmd_graph_code)

    sp = sub.add_parser(
        "matrix-check", parents=[common], help="rank and kernel conditions for a matrix"
    )
    sp.add_argument("matrix", help="matrix file")
    sp.add_argument("--k", type=int, required=True, help="number of class columns")
    sp.add_argument("--d", type=int, required=True, help="target distance")
    sp.add_argument("--build", action="store_true", help="emit the code when accepted")
    sp.add_argument("--verify", action="store_true")
    sp.set_defaults(fn=cmd_matrix_check)

    sp = sub.add_parser("coset-code", parents=[common], help="code from shift vectors")
    sp.add_argument("function")
    sp.add_argument("--betas", required=True, help="comma-separated shift vectors")
    sp.add_argument("--verify", action="store_true")
    sp.set_defaults(fn=cmd_coset_code)

    sp = sub.add_parser("projector", parents=[common], help="projector from (function, matrix)")
    sp.add_argument("function")
    sp.add_argument("matrix")
    sp.add_argument("--extract-basis", action="store_true", help="recover basis functions")
    sp.set_defaults(fn=cmd_projector)

    sp = sub.add_parser("mds", parents=[common], help="product family on 2m variables")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--verify", action="store_true")
    sp.set_defaults(fn=cmd_mds)

    sp = sub.add_parser("solve-basis", parents=[common], help="solve a difference system")
    sp.add_argument("system", help="system file")
    sp.set_defaults(fn=cmd_solve_basis)

    sp = sub.add_parser("verify", parents=[common], help="check a stored code claim")
    sp.add_argument("codespec", help="code description JSON")
    sp.add_argument("--max-weight", type=int, default=None)
    sp.set_defaults(fn=cmd_verify)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PremiseError as exc:
        print(f"premise failure: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
