"""Seeded job lists for the three workloads.

A job is one `lfqec` command line plus the input files it reads and an
output check. The seed draws vertex relabellings, class subsets, translates
of shift sets, affine parts, qubit permutations, random truth tables and a
random quadratic form, always at fixed sizes, so a job's cost does not
depend on the seed. Expected verdicts come from `reference`, never from
lfqec.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as ref

# Cliques in the "symmetric difference is uncoverable below weight 3" graph
# of the cycle C_n (vertex v joined to v + 1, bit v of a mask is vertex v+1),
# found once by a most-constrained-first greedy search. Any subset of a
# clique, translated by one of its members, is again a valid class set.
CYCLE_CLIQUES = {
    (10, 2): (0, 73, 616, 545, 197, 740, 140, 685, 31, 574, 86, 631, 786, 435, 378, 859),
    (9, 2): (0, 146, 201, 91, 163, 49, 438, 292, 495, 381),
}

# Shift sets whose coset code on the cycle function has character-sum
# distance 2; translating every shift by one vector keeps the distance and
# the cost of the search.
COSET_SHIFTS = {
    (7, 3): ((0, 0, 0, 0, 0, 0, 0), (2, 1, 1, 0, 0, 0, 0), (0, 0, 2, 1, 2, 1, 1),
             (2, 2, 1, 1, 1, 2, 0), (2, 2, 0, 1, 2, 1, 0), (2, 2, 2, 0, 0, 2, 0),
             (1, 0, 0, 1, 1, 1, 0), (0, 0, 0, 2, 1, 1, 0), (1, 2, 1, 1, 2, 2, 2)),
    (5, 5): ((0, 0, 0, 0, 0), (4, 3, 3, 1, 4), (0, 2, 3, 4, 2), (1, 1, 2, 2, 3),
             (4, 0, 4, 2, 1)),
}

G2_ANF = "x1*x3 + x1*x4 + x2*x3 + x2*x4 + x3*x4 + x1 + x2"
B_MATCHING = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
GAMMA_G2 = ((0, 0, 1, 1), (0, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0))

# Window on the number of labels the p = 2, n = 12 APC search scans before
# its first nonvanishing sum; random forms outside it are redrawn so the job
# costs about the same on every seed.
APC12_SCAN = (3400, 3800)


@dataclass
class Job:
    name: str
    argv: list  # lfqec arguments; file names are relative to the work dir
    files: dict = field(default_factory=dict)
    expect_rc: int = 0
    # check(parsed stdout or None) -> None when correct, else a reason
    check: Callable = lambda out: None
    malformed: bool = False  # an input the README contract answers with exit 2


# ---------------------------------------------------------------------------
# text formats


def cycle_edges(n: int, perm) -> dict:
    """Edges of C_n after relabelling vertex v as perm[v] (0-based)."""
    out = {}
    for v in range(n):
        u, w = perm[v], perm[(v + 1) % n]
        out[(min(u, w), max(u, w))] = 1
    return out


def graph_text(p: int, n: int, edges: dict) -> str:
    return f"{p} {n}\n" + "".join(f"{u + 1} {v + 1} {w}\n" for (u, v), w in sorted(edges.items()))


def matrix_text(p: int, rows) -> str:
    return f"{p} {len(rows)}\n" + "".join(" ".join(str(int(v)) for v in r) + "\n" for r in rows)


def function_text(p: int, n: int, anf: str) -> str:
    return f"{p} {n}\nanf: {anf}\n"


def tt_text(n: int, table) -> str:
    return f"2 {n}\ntt: " + "".join(str(int(v)) for v in table) + "\n"


def vec_text(v) -> str:
    return "".join(str(int(x)) for x in v)


def relabel_mask(mask: int, perm) -> int:
    return sum(1 << perm[v] for v in range(len(perm)) if mask >> v & 1)


def mask_vector(mask: int, n: int) -> tuple:
    return tuple(mask >> v & 1 for v in range(n))


def cycle_classes(rng, n: int, p: int, K: int):
    """(perm, class masks): K members of the stored clique, translated so the
    empty class is present, vertices relabelled, order shuffled."""
    clique = list(CYCLE_CLIQUES[(n, p)])
    chosen = [clique[i] for i in sorted(rng.choice(len(clique), K, replace=False))]
    pivot = chosen[int(rng.integers(K))]
    perm = [int(v) for v in rng.permutation(n)]
    masks = [relabel_mask(m ^ pivot, perm) for m in chosen]
    return perm, [masks[i] for i in rng.permutation(K)]


# ---------------------------------------------------------------------------
# output checks


def _diff(what, got, want):
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


def _first(*reasons):
    return next((r for r in reasons if r), None)


def _failures_json(fails) -> list:
    return [{"a": list(a), "b": list(b), "kind": k, "i": i, "j": j} for a, b, k, i, j in fails]


def check_report(rep: dict, fails: list, max_weight: int):
    return _first(
        _diff("max_weight", rep.get("max_weight"), max_weight),
        _diff("verdict", rep.get("verdict"), "fail" if fails else "pass"),
        _diff("failures", rep.get("failures"), _failures_json(fails)),
    )


def check_codespec(out: dict, p: int, n: int, tables, claimed_d: int, fails):
    """fails: the reference failure list of the --verify sweep, or None."""
    got = [ref.table_from_anf(s, p, n) for s in out.get("basis", [])]
    if len(got) != len(tables) or any(not np.array_equal(g, t) for g, t in zip(got, tables)):
        return "basis functions differ from the expected ones"
    return _first(
        _diff("(p, n, K, d)", (out["p"], out["n"], out["K"], out["claimed_d"]),
              (p, n, len(tables), claimed_d)),
        None if fails is None else check_report(out["verification"], fails, claimed_d - 1),
    )


def malformed_job(name, argv, files) -> Job:
    return Job(name, argv, files, expect_rc=2, malformed=True)


# ---------------------------------------------------------------------------
# oracle_sweep


def graph_code_job(rng, name, n, p, K) -> Job:
    perm, masks = cycle_classes(rng, n, p, K)
    edges = cycle_edges(n, perm)
    f = ref.table_from_anf(ref.anf_quadratic(n, edges), p, n)
    D = ref.digits(p, n)
    tables = [(f + D @ np.array(mask_vector(m, n))) % p for m in masks]
    classes = "".join(vec_text(mask_vector(m, n)) + "\n" for m in masks)
    fails = ref.gram_failures(p, n, tables, 2)
    return Job(
        name,
        ["graph-code", f"{name}.graph", "--classes", f"{name}.classes", "--d", "3", "--verify"],
        {f"{name}.graph": graph_text(p, n, edges), f"{name}.classes": classes},
        expect_rc=1 if fails else 0,
        check=lambda out: check_codespec(out, p, n, tables, 3, fails),
    )


def overclaim_job(rng) -> Job:
    """A stored ((9, 5, 3)) cycle code that claims d = 4: the weight-3
    sweep records many failing labels and the command exits 1."""
    n, p, K = 9, 2, 5
    perm, masks = cycle_classes(rng, n, p, K)
    edges = cycle_edges(n, perm)
    basis = [ref.anf_quadratic(n, edges, mask_vector(m, n)) for m in masks]
    tables = [ref.table_from_anf(s, p, n) for s in basis]
    spec = {"p": p, "n": n, "K": K, "claimed_d": 4, "provenance": "graph-code", "basis": basis}
    fails = ref.gram_failures(p, n, tables, 3)
    return Job(
        "verify_c9_d4",
        ["verify", "c9.json"],
        {"c9.json": json.dumps(spec)},
        expect_rc=1 if fails else 0,
        check=lambda out: check_report(out, fails, 3),
    )


def coset_job(rng, n, p) -> Job:
    """Cycle function plus a random affine part, with the stored shift set
    translated by a random vector."""
    name = f"coset_p{p}"
    edges = cycle_edges(n, list(range(n)))
    lin = [int(v) for v in rng.integers(0, p, n)]
    anf = ref.anf_quadratic(n, edges, lin, int(rng.integers(0, p)))
    delta = rng.integers(0, p, n)
    betas = [tuple(int(v) for v in (np.array(b) + delta) % p) for b in COSET_SHIFTS[(n, p)]]
    f = ref.table_from_anf(anf, p, n)
    D = ref.digits(p, n)
    tables = [(f + D @ np.array(b)) % p for b in betas]
    d = ref.coset_distance(p, n, f, betas)
    fails = ref.gram_failures(p, n, tables, d - 1)
    return Job(
        name,
        ["coset-code", f"{name}.fn", "--betas", ",".join(vec_text(b) for b in betas), "--verify"],
        {f"{name}.fn": function_text(p, n, anf)},
        expect_rc=1 if fails else 0,
        check=lambda out: check_codespec(out, p, n, tables, d, fails),
    )


def oracle_sweep(rng) -> list:
    return [
        graph_code_job(rng, "graph_c10", 10, 2, 16),
        overclaim_job(rng),
        coset_job(rng, 7, 3),
        coset_job(rng, 5, 5),
        malformed_job(
            "bad_graph_edge",
            ["graph-code", "bad.graph", "--classes", "bad.classes", "--d", "2"],
            {"bad.graph": "2 3\n1 2 q\n2 3\n", "bad.classes": "000\n111\n"},
        ),
    ]


# ---------------------------------------------------------------------------
# function_analysis


def zset_job(rng, n) -> Job:
    table = (rng.random(2**n) < 0.3).astype(np.int64)
    name = f"zset_n{n}"

    def check(out):
        want = [[int(v) for v in ref.digits(2, n)[i]] for i in ref.zset(table)]
        return _first(_diff("size", out["size"], len(want)), _diff("shifts", out["shifts"], want))

    return Job(name, ["zset", f"{name}.fn"], {f"{name}.fn": tt_text(n, table)}, check=check)


def bent_job(name, n, fn_text, table) -> Job:
    def check(out):
        return _diff(
            "(bent, support)", (out["bent"], out["support_size"]),
            (ref.is_bent(table), int(np.count_nonzero(table))),
        )

    return Job(name, ["bent", f"{name}.fn"], {f"{name}.fn": fn_text}, check=check)


def apc_job(name, p, n, anf) -> Job:
    table = ref.table_from_anf(anf, p, n)

    def check(out):
        w, a, b = ref.first_nonvanishing(p, n, table, oracle=False)
        ow, _, _ = ref.first_nonvanishing(p, n, table, oracle=True)
        return _diff(
            "(distance, witness, oracle)",
            (out["distance"], out["witness"], out["oracle_distance"], out["oracle_agrees"]),
            (w, {"a": list(a), "b": list(b)}, ow, ow == w),
        )

    return Job(name, ["apc", f"{name}.fn", "--verify"], {f"{name}.fn": function_text(p, n, anf)},
               check=check)


def _apc_scan_count(n: int, adj) -> int:
    """Labels the APC search visits up to its first hit. At p = 2 the sum at
    (a, b) of a graph function is nonzero iff b = Gamma a; this is used only
    to pick inputs, the output check sums outright."""
    neigh = [sum(1 << u for u in range(n) if adj[v][u]) for v in range(n)]
    count = 0
    for w in range(1, n + 1):
        for a, b in ref.labels_of_weight(2, n, w):
            count += 1
            am = sum(1 << v for v in range(n) if a[v])
            ga = 0
            for v in range(n):
                if am >> v & 1:
                    ga ^= neigh[v]
            if ga == sum(1 << v for v in range(n) if b[v]):
                return count
    raise AssertionError("unreachable")


def random_apc12(rng) -> str:
    n = 12
    while True:
        upper = np.triu(rng.random((n, n)) < 0.3, 1)
        adj = (upper | upper.T).astype(int)
        if APC12_SCAN[0] <= _apc_scan_count(n, adj) <= APC12_SCAN[1]:
            edges = {(u, v): 1 for u in range(n) for v in range(u + 1, n) if adj[u][v]}
            return ref.anf_quadratic(n, edges, [int(v) for v in rng.integers(0, 2, n)])


def matrix_jobs(rng) -> list:
    """A random 12 x 12 matrix over F_3 that passes both routes (k = 2,
    d = 3), and a copy whose first class column repeats a qudit column."""
    p, m, k, d = 3, 12, 2, 3
    while True:
        A = rng.integers(0, p, (m, m)).tolist()
        if ref.matrix_rank_route(A, p, k, d)[0] and ref.matrix_kernel_first_failure(A, p, k, d) is None:
            break
    bad = [row[:] for row in A]
    col = int(rng.integers(k, m))
    for r in range(m):
        bad[r][0] = bad[r][col]

    def job(name, M):
        rank = ref.matrix_rank_route(M, p, k, d)
        kern = ref.matrix_kernel_first_failure(M, p, k, d)

        def check(out):
            rr, kr = out["rank_route"], out["kernel_route"]
            reason = _first(
                _diff("rank route", (rr["accepted"], rr["condition"], rr["erased"]), rank),
                _diff("kernel route verdict", (kr["accepted"], kr["erased"]),
                      (kern is None, kern)),
                _diff("warning", rr["warning"], None),
            )
            if reason or kern is None:
                return reason
            I = [q for q in range(k, m) if q not in kern]
            sub = [[M[i][j] for j in list(range(k)) + kern] for i in I]
            vec = kr["vector"]
            in_kernel = any(vec) and all(sum(a * b for a, b in zip(r, vec)) % p == 0 for r in sub)
            if not in_kernel or kr["condition"] not in ref.kernel_violations(M, p, k, kern, vec):
                return f"kernel witness {vec} ({kr['condition']}) does not hold"
            return None

        return Job(name, ["matrix-check", f"{name}.mat", "--k", str(k), "--d", str(d)],
                   {f"{name}.mat": matrix_text(p, M)}, expect_rc=0 if rank[0] else 1, check=check)

    return [job("matrix_accept", A), job("matrix_reject", bad)]


def solve_job(rng) -> Job:
    """Difference system of a random quadratic over F_3 on 10 variables,
    with n independent random shifts."""
    p, n = 3, 10
    D = ref.digits(p, n)
    edges = {(u, v): int(rng.integers(0, p)) for u in range(n) for v in range(u + 1, n)}
    g0 = ref.table_from_anf(ref.anf_quadratic(n, edges, rng.integers(0, p, n).tolist()), p, n)
    while True:
        alphas = rng.integers(0, p, (n, n)).tolist()
        if ref.rank(alphas, p) == n:
            break
    rows = []
    for a in alphas:
        diff = (g0[ref.shift_index(p, n, a)] - g0) % p
        t = int(diff[0])
        beta = [int(diff[p ** (n - 1 - i)] - t) % p for i in range(n)]
        rows.append((a, beta, t))

    def check(out):
        if out.get("consistent") is not True:
            return "a consistent system was reported inconsistent"
        g = ref.table_from_anf(out["solution"], p, n)
        for a, beta, t in rows:
            if not np.array_equal((g[ref.shift_index(p, n, a)] - g) % p, (D @ np.array(beta) + t) % p):
                return f"solution breaks the row for alpha={a}"
        return None

    text = f"{p} {n}\n" + "".join(f"{vec_text(a)} {vec_text(b)} {t}\n" for a, b, t in rows)
    return Job("solve_basis", ["solve-basis", "system.txt"], {"system.txt": text}, check=check)


def function_analysis(rng) -> list:
    rand16 = (rng.random(2**16) < 0.5).astype(np.int64)
    pairs = rng.permutation(14).reshape(7, 2)
    bent_anf = ref.anf_quadratic(14, {(int(min(u, v)), int(max(u, v))): 1 for u, v in pairs})
    c4 = ref.anf_quadratic(4, cycle_edges(4, list(range(4))), rng.integers(0, 5, 4).tolist())
    c6 = ref.anf_quadratic(6, cycle_edges(6, list(range(6))), rng.integers(0, 3, 6).tolist())
    return [
        zset_job(rng, 12),
        zset_job(rng, 11),
        bent_job("bent_random16", 16, tt_text(16, rand16), rand16),
        bent_job("bent_14", 14, function_text(2, 14, bent_anf), ref.table_from_anf(bent_anf, 2, 14)),
        apc_job("apc_quadratic12", 2, 12, random_apc12(rng)),
        apc_job("apc_c4_p5", 5, 4, c4),
        apc_job("apc_c6_p3", 3, 6, c6),
        *matrix_jobs(rng),
        solve_job(rng),
        malformed_job("bad_function_header", ["zset", "bad.fn"], {"bad.fn": "a b\nanf: x1\n"}),
        malformed_job("bad_system_row", ["solve-basis", "bad.sys"], {"bad.sys": "2 2\n01 10 x\n"}),
    ]


# ---------------------------------------------------------------------------
# projector


def permute_function_anf(anf: str, perm) -> str:
    """Rename x_i to x_(perm[i-1]+1) in ANF text written with x-variables."""
    return re.sub(r"x(\d+)", lambda m: f"x{perm[int(m.group(1)) - 1] + 1}", anf)


def permute_stabilizer(rows, perm) -> list:
    """Apply one qubit permutation to the rows and both column blocks of an
    n x 2n matrix (L|B)."""
    n = len(rows)
    out = [[0] * (2 * n) for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = rows[i][j]
            out[perm[i]][n + perm[j]] = rows[i][n + j]
    return out


def _support(table, n):
    return [tuple(int(v) for v in ref.digits(2, n)[i]) for i in np.nonzero(table)[0]]


def projector_job(name, n, anf, table, A, extract: bool) -> Job:
    premises = ref.projector_premises(table, A, n)

    def check(out):
        reason = _diff("premises", out["premises"], premises)
        if reason or not premises["all_ok"]:
            return reason
        M = premises["M"]
        reason = _diff("(rank, support)", (out["rank"], out["support_size"]), (M, M))
        if reason or not extract:
            return reason
        return check_eigenbasis(out["basis"], n, A, table)

    files = {f"{name}.fn": function_text(2, n, anf), f"{name}.mat": matrix_text(2, A)}
    argv = ["projector", f"{name}.fn", f"{name}.mat"] + (["--extract-basis"] if extract else [])
    return Job(name, argv, files, expect_rc=0 if premises["all_ok"] else 1, check=check)


def check_eigenbasis(basis, n, A, table):
    support = _support(table, n)
    if len(basis) != len(support):
        return f"{len(basis)} basis functions for a support of {len(support)}"
    tables = [ref.table_from_anf(s, 2, n) for s in basis]
    if len({t.tobytes() for t in tables}) != len(tables):
        return "basis functions repeat"
    for g, t in zip(tables, support):
        if not ref.eigen_ok(g, A, n, t):
            return f"basis function for syndrome {vec_text(t)} is not its joint eigenvector"
    return None


def mds_reference(m: int):
    """The product family: f = (y1+..+y_{2m-2}+y_{2m-1})(y1+..+y_{2m-2}+y_{2m})
    and A = (I | Gamma(f)) with Gamma the quadratic coefficient matrix."""
    n = 2 * m
    common = " + ".join(f"x{i}" for i in range(1, n - 1))
    anf = f"({common} + x{n - 1}) * ({common} + x{n})"
    D = ref.digits(2, n)
    s = D[:, : n - 2].sum(axis=1)
    table = ((s + D[:, n - 2]) * (s + D[:, n - 1])) % 2

    def at(*vs):  # f at the indicator vector of the 0-based variables vs
        return int(table[sum(1 << (n - 1 - v) for v in vs)])

    # the coefficient of x_i x_j in a quadratic read off its table
    gamma = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            gamma[i][j] = gamma[j][i] = (at(i, j) - at(i) - at(j) + at()) % 2
    A = [[int(i == j) for j in range(n)] + gamma[i] for i in range(n)]
    return anf, table, A


def mds_job(m: int, verify: bool) -> Job:
    n = 2 * m
    _, table, A = mds_reference(m)
    K = int(np.count_nonzero(table))

    def check(out):
        reason = _first(
            _diff("(p, n, K, d)", (out["p"], out["n"], out["K"], out["claimed_d"]), (2, n, K, 2)),
            check_eigenbasis(out["basis"], n, A, table),
        )
        if reason or not verify:
            return reason
        tables = [ref.table_from_anf(s, 2, n) for s in out["basis"]]
        return check_report(out["verification"], ref.gram_failures(2, n, tables, 1), 1)

    # Criteria 02 and 03 pin this: the family's weight-1 sweep fails.
    return Job(f"mds_m{m}" + ("_verify" if verify else ""),
               ["mds", "--m", str(m)] + (["--verify"] if verify else []),
               expect_rc=1 if verify else 0, check=check)


def projector(rng) -> list:
    perm8 = [int(v) for v in rng.permutation(8)]
    lo = permute_function_anf(G2_ANF, perm8[:4])
    hi = permute_function_anf(G2_ANF, perm8[4:])
    anf8 = f"({lo}) * ({hi})"
    table8 = ref.table_from_anf(lo, 2, 8) * ref.table_from_anf(hi, 2, 8) % 2
    BB = [list(r) + [0] * 4 for r in B_MATCHING] + [[0] * 4 + list(r) for r in B_MATCHING]
    A8 = permute_stabilizer([[int(i == j) for j in range(8)] + BB[i] for i in range(8)], perm8)
    perm4 = [int(v) for v in rng.permutation(4)]
    g4 = permute_function_anf(G2_ANF, perm4)
    repaired = permute_stabilizer([[int(i == j) for j in range(4)] + list(B_MATCHING[i]) for i in range(4)], perm4)
    printed = permute_stabilizer([[int(i == j) for j in range(4)] + list(GAMMA_G2[i]) for i in range(4)], perm4)
    return [
        projector_job("product8_basis", 8, anf8, table8, A8, extract=True),
        projector_job("product8", 8, anf8, table8, A8, extract=False),
        projector_job("repaired4", 4, g4, ref.table_from_anf(g4, 2, 4), repaired, extract=True),
        projector_job("printed4", 4, g4, ref.table_from_anf(g4, 2, 4), printed, extract=False),
        mds_job(3, verify=True),
    ]


WORKLOADS = {
    "oracle_sweep": oracle_sweep,
    "function_analysis": function_analysis,
    "projector": projector,
}


def make_jobs(workload: str, seed: int) -> list:
    return WORKLOADS[workload](np.random.default_rng(seed))
