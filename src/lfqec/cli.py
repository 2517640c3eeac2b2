"""Command-line interface: maps arguments to commands and reports to output.

Subcommands: apc, zset, bent, graph-code, matrix-check, coset-code,
projector, mds, solve-basis, verify. Every subcommand takes --format
text|json.

Exit codes: 0 success / verified; 1 a failed claim, rejected matrix, failed
projector premises or inconsistent difference system; 2 malformed input;
3 capacity: refused up front or, as a backstop, a command out of memory.

Each subcommand reads its input files with `_textfile`, which knows every
input syntax, and only then imports the modules it runs, so malformed
input is refused before numpy loads, and no subcommand loads the modules
of another. A subcommand returns (payload, text lines, exit code), which
`main` alone writes. One table in `_build_parser` names each subcommand's
handler, help and arguments; a run builds the parser of its own subcommand
only, and `--help`, no command or an unknown one build all of them.
"""
from __future__ import annotations

import argparse
import atexit
import gc
import itertools
import json
import os
import sys
from pathlib import Path

from ._textfile import read_classes_file, read_code_file, read_function_file, read_graph_file
from ._textfile import read_matrix_file, read_system_file, read_vectors
from .errors import CapacityError, InputError, PremiseError

atexit.register(gc.freeze)  # a command leaves little garbage: skip the exit collections


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# output helpers


def _emit(args, payload: dict, text_lines: list) -> None:
    if args.format == "json":
        # streamed in batches: no copy of the whole text, and no write per chunk
        chunks = json.JSONEncoder(indent=2).iterencode(payload)
        while batch := list(itertools.islice(chunks, 4096)):
            sys.stdout.write("".join(batch))
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)


def _vector_str(v) -> str:
    return "".join(str(x) for x in v) if all(0 <= x <= 9 for x in v) else ",".join(map(str, v))


def _code_output(args, spec) -> tuple:
    """(payload, text lines, exit code) for a built code, with the oracle
    verdict on its claim when --verify is given."""
    payload = spec.to_dict()
    lines = [
        f"code: (({spec.n}, {spec.claimed_K}, {spec.claimed_d}))_p={spec.p}",
        f"provenance: {spec.provenance}",
    ]
    lines += [f"basis[{i}]: {text}" for i, text in enumerate(payload["basis"])]
    if not args.verify:
        return payload, lines, 0
    from .codespec import check_claim

    report = check_claim(spec)
    payload["verification"] = report.to_dict()
    lines.append(f"verification: {report.verdict} (max weight {report.max_weight})")
    lines += ["  " + line for line in _failure_lines(report)]
    return payload, lines, 0 if report.passed else 1


def _failure_lines(report) -> list:
    return [
        f"failure: a={_vector_str(e.a)} b={_vector_str(e.b)} {e.kind} at ({e.i}, {e.j})"
        for e in report.failures
    ]


# ---------------------------------------------------------------------------
# subcommands


def cmd_apc(args) -> tuple:
    parsed = read_function_file(_read(args.function))
    from .logic_fn import LogicFunction, apc_distance

    f = LogicFunction(*parsed)
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
        from .state_oracle import min_distance

        oracle = min_distance([f])
        agree = oracle == res.distance
        payload["oracle_distance"] = oracle
        payload["oracle_agrees"] = agree
        lines.append(f"oracle distance: {oracle} ({'agrees' if agree else 'DISAGREES'})")
        if not agree:
            code = 1
    return payload, lines, code


def cmd_zset(args) -> tuple:
    parsed = read_function_file(_read(args.function))
    from .logic_fn import LogicFunction, zset

    zs = sorted(zset(LogicFunction(*parsed)))
    # only the requested form: near the listing budget each takes hundreds of MB
    if args.format == "json":
        return {"size": len(zs), "shifts": zs}, [], 0  # tuples encode as JSON lists
    return {}, [f"size: {len(zs)}", *map(_vector_str, zs)], 0


def cmd_bent(args) -> tuple:
    parsed = read_function_file(_read(args.function))
    from .logic_fn import LogicFunction, _bent_domain, is_bent

    f = _bent_domain(LogicFunction(*parsed))  # refused outside it before its ANF is expanded
    bent = is_bent(f)  # f is held as its table: one expansion of an ANF, read by both
    M = int((f.table != 0).sum())
    payload = {"bent": bent, "support_size": M}
    return payload, [f"bent: {str(bent).lower()}", f"support size: {M}"], 0


def cmd_graph_code(args) -> tuple:
    p, n, adj = read_graph_file(_read(args.graph))
    classes = read_classes_file(_read(args.classes), n)
    from .graph_codes import WeightedGraph, build_graph_code

    return _code_output(args, build_graph_code(WeightedGraph(p, n, adj), classes, args.d))


def _matrix_result_line(name: str, res) -> str:
    if res.accepted:
        return f"{name}: accepted"
    extra = f" at erasure {list(res.erased)}" if res.erased is not None else ""
    if res.vector is not None:
        extra += f" kernel vector {list(res.vector)}"
    return f"{name}: rejected ({res.condition}{extra})"


def cmd_matrix_check(args) -> tuple:
    if args.verify and not args.build:
        raise InputError("--verify checks the built code, so it needs --build")
    A = read_matrix_file(_read(args.matrix))
    from .graph_codes import matrix_code_check, matrix_kernel_check

    rank_res = matrix_code_check(A, args.k, args.d)
    kernel_res = matrix_kernel_check(A, args.k, args.d)
    payload = {"rank_route": rank_res._asdict(), "kernel_route": kernel_res._asdict()}
    lines = [
        _matrix_result_line("rank route", rank_res),
        _matrix_result_line("kernel route", kernel_res),
    ]
    if rank_res.warning:
        lines.append(f"warning: {rank_res.warning}")
    code = 0 if rank_res.accepted else 1
    if args.build and rank_res.accepted:
        from .code_builder import _matrix_code

        payload["code"], more, code = _code_output(args, _matrix_code(A, args.k, args.d))
        lines += more
    return payload, lines, code


def cmd_coset_code(args) -> tuple:
    p, n, values, terms = read_function_file(_read(args.function))
    betas = read_vectors(args.betas, p, n)
    from .code_builder import build_coset_code
    from .logic_fn import LogicFunction

    return _code_output(args, build_coset_code(LogicFunction(p, n, values, terms), betas))


def cmd_projector(args) -> tuple:
    parsed = read_function_file(_read(args.function))
    A = read_matrix_file(_read(args.matrix))
    from .logic_fn import LogicFunction, anf_text
    from .projector_codes import _binary_table, extract_boolean_basis, projector_rank

    # checked with A before its ANF is expanded, once, for the premises and the basis
    f = _binary_table(LogicFunction(*parsed), A)
    try:
        report = projector_rank(f, A)
    except PremiseError as exc:
        report = exc.report
        return {"premises": report.to_dict()}, [f"premises: FAIL ({report.summary()})"], 1
    payload = {"premises": report.to_dict(), "rank": report.M, "support_size": report.M}
    lines = ["premises: ok", f"projector rank: {report.M} (support size {report.M})"]
    if args.extract_basis:
        basis = [anf_text(g) for g in extract_boolean_basis(f, A)]
        payload["basis"] = basis
        lines += [f"basis[{i}]: {text}" for i, text in enumerate(basis)]
    return payload, lines, 0


def cmd_mds(args) -> tuple:
    from .code_builder import build_mds_family

    return _code_output(args, build_mds_family(args.m))


def cmd_solve_basis(args) -> tuple:
    p, n, pairs = read_system_file(_read(args.system))
    from .logic_fn import anf_text, solve_coboundary

    g = solve_coboundary(pairs, p, n)
    if g is None:
        return {"consistent": False}, ["inconsistent"], 1
    text = anf_text(g)
    return {"consistent": True, "solution": text}, [f"solution: {text}"], 0


def cmd_verify(args) -> tuple:
    p, n, claimed_d, provenance, terms = read_code_file(_read(args.codespec))
    from .codespec import CodeSpec, check_claim
    from .logic_fn import LogicFunction
    from .state_oracle import kl_verify

    basis = tuple(LogicFunction(p, n, anf=t) for t in terms)
    spec = CodeSpec(p, n, basis, claimed_d, provenance)
    report = check_claim(spec) if args.max_weight is None else kl_verify(basis, args.max_weight)
    lines = [f"verdict: {report.verdict} (max weight {report.max_weight})"] + _failure_lines(report)
    return report.to_dict(), lines, 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser(argv: list) -> argparse.ArgumentParser:
    """The top parser with the one subparser that argv[0] names, or with all
    of them when it names none (--help, no command, an unknown command). The
    top usage lists every name either way, so each usage, help and error
    text reads as it does with all of them."""
    flag = {"action": "store_true"}
    # name -> (handler, help, arguments after --format: name -> add_argument
    # options); built per call, so the handlers are read as the module holds them
    commands = {
        "apc": (cmd_apc, "nonvanishing character-sum distance", {
            "function": {"help": "function file"},
            "--verify": {**flag, "help": "cross-check with the state oracle"}}),
        "zset": (cmd_zset, "zero-product shift set", {"function": {}}),
        "bent": (cmd_bent, "flat-spectrum test", {"function": {}}),
        "graph-code": (cmd_graph_code, "code from a weighted graph", {
            "graph": {"help": "graph file"},
            "--classes": {"required": True, "help": "classes file"},
            "--d": {"type": int, "required": True, "help": "claimed distance"},
            "--verify": flag}),
        "matrix-check": (cmd_matrix_check, "rank and kernel conditions for a matrix", {
            "matrix": {"help": "matrix file"},
            "--k": {"type": int, "required": True, "help": "number of class columns"},
            "--d": {"type": int, "required": True, "help": "target distance"},
            "--build": {**flag, "help": "emit the code when accepted"},
            "--verify": flag}),
        "coset-code": (cmd_coset_code, "code from shift vectors", {
            "function": {},
            "--betas": {"required": True, "help": "comma-separated shift vectors"},
            "--verify": flag}),
        "projector": (cmd_projector, "projector from (function, matrix)", {
            "function": {},
            "matrix": {},
            "--extract-basis": {**flag, "help": "recover basis functions"}}),
        "mds": (cmd_mds, "product family on 2m variables", {
            "--m": {"type": int, "required": True},
            "--verify": flag}),
        "solve-basis": (cmd_solve_basis, "solve a difference system", {
            "system": {"help": "system file"}}),
        "verify": (cmd_verify, "check a stored code claim", {
            "codespec": {"help": "code description JSON"},
            "--max-weight": {"type": int, "default": None}}),
    }
    names = [argv[0]] if argv and argv[0] in commands else list(commands)
    top = argparse.ArgumentParser(
        prog="lfqec",
        description="Quantum codes from logic functions, with exact verification.",
    )
    # argparse spells the default metavar from the names added, and names the
    # action 'command' in its errors only when no metavar is given
    every = "{" + ",".join(commands) + "}" if len(names) == 1 else None
    sub = top.add_subparsers(dest="command", required=True, metavar=every)
    for name in names:
        fn, help_text, arguments = commands[name]
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--format", choices=("text", "json"), default="text", help="output format")
        for argument, options in arguments.items():
            sp.add_argument(argument, **options)
        sp.set_defaults(fn=fn)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    try:
        payload, lines, code = args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PremiseError as exc:
        print(f"premise failure: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3
    except MemoryError:  # numpy's _ArrayMemoryError too: out of memory is no refutation
        print(f"capacity: {args.command} ran out of memory", file=sys.stderr)
        return 3
    try:
        _emit(args, payload, lines)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: the verdict stands, and the
        # interpreter's exit flush of what is left goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
