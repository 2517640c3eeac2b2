"""Weighted graphs, coverage obstructions, graph/stabilizer codes, and the
two independent matrix-premise checks (rank route and kernel route)."""
import itertools

import numpy as np
import pytest

from conftest import reference_coverage_map, reference_kernel_check, reference_rank_check
from conftest import reference_apply_error, verify_stabilizer
from lfqec import graph_codes
from lfqec import (
    CapacityError,
    FpMatrix,
    InputError,
    WeightedGraph,
    add_affine,
    build_graph_code,
    graph_to_stabilizer_rows,
    matrix_code_check,
    matrix_kernel_check,
    min_distance,
    parse_graph_file,
    quadratic_form,
    state_from_function,
    symplectic_product,
    uncoverable_family,
)

C5_TEXT = "2 5\n1 2\n2 3\n3 4\n4 5\n5 1\n"
K4_TEXT = "2 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"

KERNEL_PIN_ROWS = [
    [0, 0, 1, 1, 0, 0],
    [0, 0, 1, 1, 1, 0],
    [1, 1, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
]
RANK_PIN_F2_ROWS = [
    [0, 0, 1, 1, 0],
    [0, 0, 1, 1, 1],
    [1, 1, 0, 0, 0],
    [1, 1, 0, 0, 0],
    [0, 1, 0, 0, 0],
]
RANK_PIN_F3_ROWS = [
    [0, 0, 0, 1, 1],
    [0, 0, 0, 0, 1],
    [0, 0, 0, 1, 0],
    [1, 0, 1, 0, 0],
    [1, 1, 0, 0, 0],
]


def random_graph(gen, p, n):
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = int(gen.integers(0, p))
            adj[i][j] = adj[j][i] = w
    return WeightedGraph(p, n, FpMatrix.from_rows(p, adj))


def symmetric_f2(bits, n):
    adj = [[0] * n for _ in range(n)]
    t = bits
    for i in range(n):
        for j in range(i + 1, n):
            adj[i][j] = adj[j][i] = t & 1
            t >>= 1
    return adj


# ---------------------------------------------------------------------------
# parsing


def test_parse_graph_file():
    G = parse_graph_file(C5_TEXT)
    assert (G.p, G.n) == (2, 5)
    assert G.adj.entries[0][1] == 1 and G.adj.entries[0][2] == 0
    H = parse_graph_file("3 3\n1 2 2\n# comment\n2 3\n")
    assert H.adj.entries[0][1] == 2 and H.adj.entries[1][2] == 1 and H.adj.entries[0][2] == 0
    assert parse_graph_file("2 3\n").n == 3  # edgeless graph is fine


def test_parse_graph_errors():
    for bad in (
        "",
        "2\n1 2\n",
        "2 0\n",
        "2 3\n1 1\n",  # self-loop
        "2 3\n1 4\n",  # out of range
        "2 3\n1 2\n2 1\n",  # duplicate edge
        "2 3\n1 2 0\n",  # zero weight
        "3 3\n1 2 3\n",  # weight outside 1..p-1
        "2 3\n1 2 3 4\n",
        "2 3\n1 2 q\n",  # non-integer weight
        "2 x\n",  # non-integer header
    ):
        with pytest.raises(InputError):
            parse_graph_file(bad)


def test_graph_function_is_edge_form():
    G = parse_graph_file(K4_TEXT)
    f = G.function()
    expected = 0
    for idx, x in enumerate(itertools.product((0, 1), repeat=4)):
        val = sum(x[i] * x[j] for i in range(4) for j in range(i + 1, 4)) % 2
        assert f.table[idx] == val


# ---------------------------------------------------------------------------
# coverage


def test_uncoverable_family_pins():
    C5 = parse_graph_file(C5_TEXT)
    assert uncoverable_family(C5, 3) == {frozenset({1, 2, 3, 4, 5})}
    K4 = parse_graph_file(K4_TEXT)
    assert uncoverable_family(K4, 2) == {
        frozenset(pair) for pair in itertools.combinations(range(1, 5), 2)
    }
    # with no shift budget every nonempty set is an obstruction
    assert len(uncoverable_family(C5, 1)) == 2**5 - 1
    with pytest.raises(InputError, match="d must be >= 1"):
        uncoverable_family(C5, 0)


def test_family_shrinks_with_distance(gen):
    for _ in range(20):
        G = random_graph(gen, 2, int(gen.integers(3, 7)))
        d = int(gen.integers(1, 3))
        assert uncoverable_family(G, d + 1) <= uncoverable_family(G, d)


def test_coverage_map_matches_the_reference(gen):
    # witness for witness, at every budget up to two past n
    for p, n in itertools.product((2, 3, 5), range(1, 8)):
        G = random_graph(gen, p, n)
        for budget in range(n + 3):
            omega, delta = graph_codes._coverage_map(G, budget)
            found = {m: (omega[m], delta[m]) for m in range(1 << n) if omega[m] >= 0}
            assert found == reference_coverage_map(G, budget), (p, n, budget)


def test_coverage_witness_recomputes(gen):
    # each witness of the coverage map that build_graph_code reads, recomputed
    for _ in range(40):
        n = int(gen.integers(3, 7))
        p = int(gen.choice([2, 3]))
        G = random_graph(gen, p, n)
        d = int(gen.integers(2, 4))
        T = frozenset(
            int(v) + 1 for v in gen.choice(n, size=int(gen.integers(1, n + 1)), replace=False)
        )
        mask = sum(1 << (v - 1) for v in T)
        omegas, deltas = graph_codes._coverage_map(G, d - 1)
        if omegas[mask] < 0:
            assert T in uncoverable_family(G, d)
            continue
        omega, delta = ({v for v in range(n) if m >> v & 1} for m in (omegas[mask], deltas[mask]))
        assert len(omega | delta) <= d - 1
        # recompute: T = delta xor support of the weighted neighborhood sum
        acc = np.zeros(n, dtype=int)
        for u in omega:
            acc += G.adj.entries[u]
        parity = {v for v in range(n) if acc[v] % p}
        assert {v + 1 for v in parity ^ delta} == set(T)


# ---------------------------------------------------------------------------
# graph codes


def test_build_graph_code_accepts_pinned_pair():
    G = parse_graph_file(C5_TEXT)
    spec = build_graph_code(G, [frozenset(), frozenset({1, 2, 3, 4, 5})], 3)
    assert spec.claimed_K == 2 and spec.claimed_d == 3
    assert spec.provenance == "graph-code"
    assert min_distance(spec.states()) == 3


def test_build_graph_code_requires_empty_class():
    G = parse_graph_file(C5_TEXT)
    with pytest.raises(InputError, match="empty class"):
        build_graph_code(G, [frozenset({1})], 2)
    with pytest.raises(InputError, match="vertex 9 out of range"):
        build_graph_code(G, [frozenset(), frozenset({9})], 2)
    with pytest.raises(InputError, match="d must be >= 1"):
        build_graph_code(G, [frozenset()], 0)


def test_build_graph_code_rejects_coverable_difference():
    G = parse_graph_file(C5_TEXT)
    # {1} xor {2} = {1,2} is coverable at d = 3, and the message names a witness
    with pytest.raises(InputError, match="omega=.*delta="):
        build_graph_code(G, [frozenset(), frozenset({1}), frozenset({2})], 3)
    # the first pair in class order fails, with the first witness of its difference
    with pytest.raises(InputError) as err:
        build_graph_code(G, [frozenset(), frozenset({1, 2, 3, 4, 5}), frozenset({2, 4})], 3)
    assert str(err.value) == (
        "classes [] and [2, 4]: symmetric difference [2, 4] is coverable below "
        "weight 3; witness omega=[3] delta=[]"
    )
    with pytest.raises(InputError, match="distinct"):
        build_graph_code(G, [frozenset(), frozenset({1}), frozenset({1})], 2)


def test_one_class_graph_code_needs_no_coverage_search():
    # a single class has no pair to check, so the vertex cap of the search
    # does not apply; a second class brings it back
    path = [[int(abs(u - v) == 1) for v in range(21)] for u in range(21)]
    G = WeightedGraph(2, 21, FpMatrix.from_rows(2, path))
    spec = build_graph_code(G, [frozenset()], 2)
    assert spec.claimed_K == 1 and spec.n == 21 and spec.basis[0] == G.function()
    with pytest.raises(CapacityError, match="20 vertices"):
        build_graph_code(G, [frozenset(), frozenset({1})], 2)


def test_first_coverable_pair_matches_a_pair_loop(gen):
    # the first pair in class order whose difference the reference map
    # covers, with that map's witness, or the code when no pair is covered
    outcomes = {"accepted": 0, "rejected": 0}
    for _ in range(150):
        p, n = int(gen.choice([2, 3, 5])), int(gen.integers(2, 7))
        G, d = random_graph(gen, p, n), int(gen.integers(1, 4))
        K = int(gen.integers(2, min(7, 1 << n) + 1))
        masks = [0, *(int(m) for m in gen.choice(np.arange(1, 1 << n), K - 1, replace=False))]
        classes = [frozenset(v + 1 for v in range(n) if masks[i] >> v & 1)
                   for i in gen.permutation(K)]
        cov, want = reference_coverage_map(G, d - 1), None
        for ci, cj in itertools.combinations(classes, 2):
            t = sum(1 << (v - 1) for v in ci ^ cj)
            if t in cov:
                om, de = ([v + 1 for v in range(n) if m >> v & 1] for m in cov[t])
                want = (f"classes {sorted(ci)} and {sorted(cj)}: symmetric difference "
                        f"{sorted(ci ^ cj)} is coverable below weight {d}; witness "
                        f"omega={om} delta={de}")
                break
        if want is None:
            assert build_graph_code(G, classes, d).claimed_K == K
            outcomes["accepted"] += 1
        else:
            with pytest.raises(InputError) as err:
                build_graph_code(G, classes, d)
            assert str(err.value) == want
            outcomes["rejected"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_graph_code_basis_functions():
    K4 = parse_graph_file(K4_TEXT)
    classes = [frozenset(), frozenset({1, 2}), frozenset({1, 3}), frozenset({1, 4})]
    spec = build_graph_code(K4, classes, 2)
    f = K4.function()
    for cls, g in zip(classes, spec.basis):
        chi = tuple(1 if v in cls else 0 for v in range(1, 5))
        assert g == add_affine(f, chi, 0)
    assert min_distance(spec.states()) == 2


# ---------------------------------------------------------------------------
# stabilizer rows


def test_stabilizer_rows_structure():
    G = parse_graph_file(C5_TEXT)
    rows = graph_to_stabilizer_rows(G)
    assert len(rows) == 5
    for i, r in enumerate(rows):
        assert r.a == tuple(1 if j == i else 0 for j in range(5))
        assert r.b == G.adj.row(i)


def test_verify_stabilizer_random(gen):
    for _ in range(30):
        p = int(gen.choice([2, 3]))
        n = int(gen.integers(2, 6))
        G = random_graph(gen, p, n)
        assert verify_stabilizer(G)
        rows = graph_to_stabilizer_rows(G)
        for r, s in itertools.combinations(rows, 2):
            assert symplectic_product(r, s) == 0


def test_stabilizer_row_fixes_state_directly():
    G = parse_graph_file(K4_TEXT)
    psi = state_from_function(G.function())
    for row in graph_to_stabilizer_rows(G):
        assert reference_apply_error(row, psi) == psi


# ---------------------------------------------------------------------------
# matrix premise checks: rank route


def test_rank_route_pinned_accepts():
    A2 = FpMatrix.from_rows(2, RANK_PIN_F2_ROWS)
    r = matrix_code_check(A2, 1, 2)
    assert r.accepted and bool(r) and r.condition is None and r.warning is None
    A3 = FpMatrix.from_rows(3, RANK_PIN_F3_ROWS)
    assert matrix_code_check(A3, 1, 2).accepted


def test_rank_route_rejections():
    zero = FpMatrix.from_rows(2, [[0] * 5 for _ in range(5)])
    r = matrix_code_check(zero, 1, 2)
    assert not r.accepted and r.condition == "selector_rank" and r.erased == (1,)

    A = FpMatrix.from_rows(2, symmetric_f2(16, 5))  # single edge, zero class column
    r = matrix_code_check(A, 1, 2)
    assert not r.accepted and r.condition == "joint_rank" and r.erased == (1,)


def test_rank_route_matches_reference(gen):
    # the verdict, failed condition and erasure set of three plain ranks per set
    seen = {}
    for _ in range(600):
        p = int(gen.choice([2, 3, 5]))
        m = int(gen.integers(3, 9))
        k = int(gen.integers(0, min(3, m)))
        d = int(gen.integers(1, min(5, m - k + 2)))
        mask = gen.random((m, m)) < float(gen.choice([0.3, 0.6, 0.9]))
        A = FpMatrix.from_rows(p, (gen.integers(1, p, (m, m)) * mask).tolist())
        got = matrix_code_check(A, k, d)
        assert (got.accepted, got.condition, got.erased) == reference_rank_check(A, k, d)
        seen[got.condition] = seen.get(got.condition, 0) + 1
    assert min(seen.get(c, 0) for c in (None, "selector_rank", "joint_rank")) >= 20


def test_rank_route_eliminates_twice_per_erasure_set(monkeypatch):
    # rows are read from A.entries: no submatrix is built, and each of the
    # C(4, 1) erasure sets of an accepted matrix takes two eliminations
    calls = []
    eliminate = graph_codes._eliminate
    monkeypatch.setattr(graph_codes, "_eliminate",
                        lambda rows, p: calls.append(p) or eliminate(rows, p))
    A = FpMatrix.from_rows(2, RANK_PIN_F2_ROWS)
    monkeypatch.setattr(FpMatrix, "__init__", lambda M, *args: pytest.fail("FpMatrix built"))
    assert matrix_code_check(A, 1, 2).accepted
    assert len(calls) == 2 * 4


def test_rank_route_warning_and_validation():
    A = FpMatrix.from_rows(2, KERNEL_PIN_ROWS)
    r = matrix_code_check(A, 2, 3)
    assert r.warning is not None and "k + 2(d-1)" in r.warning
    with pytest.raises(InputError):
        matrix_code_check(FpMatrix.from_rows(2, [[0, 0], [0, 0], [0, 0]]), 1, 2)
    with pytest.raises(InputError):
        matrix_code_check(A, 6, 2)
    with pytest.raises(InputError):
        matrix_code_check(A, 1, 0)
    with pytest.raises(InputError):
        matrix_code_check(A, 4, 4)  # only 2 qudits for d - 1 = 3 erasures


# ---------------------------------------------------------------------------
# matrix premise checks: kernel route


def test_kernel_route_pinned_matrix():
    A = FpMatrix.from_rows(2, KERNEL_PIN_ROWS)
    k = matrix_kernel_check(A, 1, 2)
    assert k.accepted
    # the rank route is strictly more demanding here
    r = matrix_code_check(A, 1, 2)
    assert not r.accepted and r.condition == "selector_rank"
    # yet the two-state code the matrix describes has true distance 2
    sub = A.submatrix(range(1, 6), range(1, 6))
    f = quadratic_form(sub)
    lin = tuple(A.row(q)[0] for q in range(1, 6))
    basis = [state_from_function(f), state_from_function(add_affine(f, lin, 0))]
    assert min_distance(basis) == 2


def test_kernel_route_rejections():
    # an edge between qudits 2 and 3 with class support makes a bad kernel vector
    A = FpMatrix.from_rows(2, symmetric_f2(16, 5))
    k = matrix_kernel_check(A, 1, 2)
    assert not k.accepted
    assert k.condition in ("kernel_class_component", "kernel_class_action")
    assert k.vector is not None and any(k.vector)


def test_kernel_accept_implies_joint_rank(gen):
    # the kernel conditions subsume the column-independence half of the rank
    # route, so a kernel-accepted matrix can only fail on selector rank
    accepted = 0
    for _ in range(200):
        A = FpMatrix.from_rows(2, symmetric_f2(int(gen.integers(0, 1 << 15)), 6))
        if matrix_kernel_check(A, 1, 2).accepted:
            accepted += 1
            r = matrix_code_check(A, 1, 2)
            assert r.accepted or r.condition == "selector_rank"
    assert accepted > 0


def test_kernel_route_matches_enumeration(gen):
    # the basis check must return the witness that enumerating the whole
    # kernel meets first, including which of the two conditions it breaks
    seen = {}
    for _ in range(600):
        p = int(gen.choice([2, 3, 5]))
        m = int(gen.integers(3, 8))
        k = int(gen.integers(1, min(3, m)))
        d = int(gen.integers(2, min(4, m - k + 2)))
        mask = gen.random((m, m)) < 0.35
        A = FpMatrix.from_rows(p, (gen.integers(1, p, (m, m)) * mask).tolist())
        got = matrix_kernel_check(A, k, d)
        want = reference_kernel_check(A, k, d)
        assert (got.accepted, got.condition, got.erased, got.vector) == want
        seen[got.condition] = seen.get(got.condition, 0) + 1
    assert min(seen.get(c, 0) for c in (None, "kernel_class_component", "kernel_class_action")) >= 20
