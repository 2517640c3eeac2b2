"""End-to-end acceptance checks, one test per criterion so `pytest -v`
prints one pass/fail line each.

Every numeric expectation here is either pinned by an independent oracle or
asserted as stated; nothing is weakened to make a line turn green. Criteria
02 and 03 assert claims about the four-point family built from the matrix
(I | Gamma(g)) that the exact state oracle refutes (a weight-one error is
undetected); they are expected to stay red, and the printout names the exact
sub-claims that do not hold.
"""
import itertools
import json
import pathlib
import time

import numpy as np
import pytest

from lfqec import (
    FpMatrix,
    PremiseError,
    add_affine,
    apc_distance,
    bent_exclusion,
    build_coset_code,
    build_graph_code,
    build_matrix_code,
    build_mds_family,
    check_projector_premises,
    extract_boolean_basis,
    rank,
    graph_to_stabilizer_rows,
    inner_product,
    is_bent,
    kl_verify,
    matrix_code_check,
    mds_function,
    mds_matrix,
    min_distance,
    parse_anf,
    parse_graph_file,
    projector_rank,
    quadratic_form,
    state_from_function,
    symplectic_product,
    uncoverable_family,
    verify_stabilizer,
    weight_support,
    zset,
    zset_via_autocorrelation,
)

K4_GRAPH_FILE = "2 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
C5_GRAPH_FILE = "2 5\n1 2\n2 3\n3 4\n4 5\n5 1\n"

RANK_PIN_F2 = [
    [0, 0, 1, 1, 0],
    [0, 0, 1, 1, 1],
    [1, 1, 0, 0, 0],
    [1, 1, 0, 0, 0],
    [0, 1, 0, 0, 0],
]
RANK_PIN_F3 = [
    [0, 0, 0, 1, 1],
    [0, 0, 0, 0, 1],
    [0, 0, 0, 1, 0],
    [1, 0, 1, 0, 0],
    [1, 1, 0, 0, 0],
]


def assert_claims(claims: dict):
    """Print one line per sub-claim, then fail if any is false."""
    for name, ok in claims.items():
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")
    bad = [name for name, ok in claims.items() if not ok]
    assert not bad, f"claims that do not hold: {bad}"


def random_table_function(gen, p, n):
    from lfqec import LogicFunction

    return LogicFunction(p, n, gen.integers(0, p, p**n).astype(np.int64))


def test_criterion_01_graph_to_verified_state():
    start = time.perf_counter()
    G = parse_graph_file(K4_GRAPH_FILE)
    f = G.function()
    expected = parse_anf("x1*x2 + (x1 + x2)*(x3 + x4) + x3*x4", 2, 4)
    claims = {"table_equality": f == expected}
    res = apc_distance(f)
    claims["apc_distance_2"] = res.distance == 2
    claims["oracle_distance_2"] = min_distance([state_from_function(f)]) == 2
    elapsed = time.perf_counter() - start
    claims["runtime_under_1s"] = elapsed < 1.0
    assert_claims(claims)


def test_criterion_02_four_point_example_end_to_end():
    start = time.perf_counter()
    g = mds_function(2)
    A = mds_matrix(2)
    M, supp = weight_support(g)
    claims = {
        "weight_is_4": M == 4,
        "support_exact": set(supp)
        == {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1)},
    }
    rows = A  # 4 x 8 over F_2
    claims["rows_independent"] = rank(rows) == 4
    from lfqec import PauliLabel

    labels = [PauliLabel(2, A.row(i)[:4], A.row(i)[4:]) for i in range(4)]
    claims["rows_pairwise_orthogonal"] = all(
        symplectic_product(u, v) == 0 for u, v in itertools.combinations(labels, 2)
    )
    report = check_projector_premises(g, A)
    claims["premises_pass"] = report.all_ok

    expected_shifts = {
        (1, 0, 0, 0): (0, 1, 0, 0),  # g + y2
        (0, 1, 0, 0): (1, 0, 0, 0),  # g + y1
        (0, 0, 1, 1): (1, 1, 1, 1),  # g + y1 + y2 + y3 + y4
        (1, 1, 1, 1): (0, 0, 1, 1),  # g + y3 + y4
    }
    reproduced = True
    basis = []
    for t, shift in expected_shifts.items():
        got = extract_boolean_basis(g, A, t)
        basis.append(got)
        want = add_affine(g, shift, 0)
        diff = (np.asarray(got.table) - np.asarray(want.table)) % 2
        reproduced &= len(set(diff.tolist())) == 1
    claims["extraction_reproduces_basis"] = reproduced

    states = [state_from_function(b) for b in basis]
    claims["states_pairwise_orthogonal"] = all(
        inner_product(u, v).is_zero() for u, v in itertools.combinations(states, 2)
    )
    claims["kl_passes_at_weight_1"] = kl_verify(states, 1).passed
    claims["kl_fails_at_weight_2"] = not kl_verify(states, 2).passed
    claims["distance_exactly_2"] = min_distance(states) == 2
    elapsed = time.perf_counter() - start
    claims["runtime_under_1s"] = elapsed < 1.0
    assert_claims(claims)


def test_criterion_03_product_family_distance_claims():
    start = time.perf_counter()
    claims = {}
    for m in (2, 3):
        spec = build_mds_family(m)
        states = spec.states()
        claims[f"m{m}_shape_is_(({2 * m},{4 ** (m - 1)},2))"] = (
            spec.n == 2 * m and spec.claimed_K == 4 ** (m - 1) and spec.claimed_d == 2
        )
        claims[f"m{m}_kl_passes_at_weight_1"] = kl_verify(states, 1).passed
        claims[f"m{m}_kl_fails_at_weight_2"] = not kl_verify(states, 2).passed
    elapsed = time.perf_counter() - start
    claims["runtime_under_10s"] = elapsed < 10.0
    assert_claims(claims)


def test_criterion_04_shift_set_equivalence_sweep():
    gen = np.random.default_rng(40_2026)
    checked = 0
    while checked < 500:
        n = int(gen.integers(1, 7))
        f = random_table_function(gen, 2, n)
        M, _ = weight_support(f)
        if M > 2 ** (n - 1):
            continue
        assert zset(f) == zset_via_autocorrelation(f), f"disagreement at {f!r}"
        checked += 1
    print(f"  [ok] {checked} support-bounded functions, both routes equal")


def test_criterion_05_character_sum_vs_oracle_sweep():
    gen = np.random.default_rng(50_2026)
    for trial in range(200):
        p = 2 if trial % 2 == 0 else 3
        n = int(gen.integers(1, 7 if p == 2 else 6))
        f = random_table_function(gen, p, n)
        claimed = apc_distance(f).distance
        oracle = min_distance([state_from_function(f)])
        assert claimed == oracle, f"trial {trial}: {claimed} != {oracle} for {f!r}"
    print("  [ok] 200 random functions, character-sum distance equals oracle")


def test_criterion_06_coset_code_soundness_sweep(tmp_path):
    gen = np.random.default_rng(60_2026)
    discrepancies = []
    for trial in range(120):
        p = 2 if trial % 3 else 3
        n = int(gen.integers(2, 5))
        f = random_table_function(gen, p, n)
        K = int(gen.choice([2, 4]))
        betas = set()
        while len(betas) < K:
            betas.add(tuple(int(v) for v in gen.integers(0, p, n)))
        spec = build_coset_code(f, sorted(betas))
        report = kl_verify(spec.states(), spec.claimed_d - 1)
        if not report.passed:
            discrepancies.append(
                {"trial": trial, "code": spec.to_dict(), "report": report.to_dict()}
            )
    if discrepancies:
        artifact = tmp_path / "coset_discrepancies.json"
        artifact.write_text(json.dumps(discrepancies, indent=2))
        pytest.fail(f"{len(discrepancies)} discrepancies, details in {artifact}")
    print("  [ok] 120 random coset codes all pass below their claimed distance")


def test_criterion_07_exhaustive_5x5_premise_sweep():
    start = time.perf_counter()
    accepted = []
    for bits in range(1 << 10):
        rows = [[0] * 5 for _ in range(5)]
        t = bits
        for i in range(5):
            for j in range(i + 1, 5):
                rows[i][j] = rows[j][i] = t & 1
                t >>= 1
        A = FpMatrix.from_rows(2, rows)
        if matrix_code_check(A, 1, 2).accepted:
            accepted.append((bits, A))
    claims = {"accept_count_222": len(accepted) == 222}
    confirmed = all(
        min_distance(build_matrix_code(A, 1, 2).states()) == 2 for _, A in accepted
    )
    claims["every_acceptance_oracle_confirmed_((4,2,2))"] = confirmed
    first = accepted[0][1]
    claims["pinned_first_f2_fixture"] = [list(first.row(i)) for i in range(5)] == RANK_PIN_F2
    A3 = FpMatrix.from_rows(3, RANK_PIN_F3)
    claims["pinned_f3_fixture_accepted"] = matrix_code_check(A3, 1, 2).accepted
    claims["pinned_f3_oracle_confirmed"] = (
        min_distance(build_matrix_code(A3, 1, 2).states()) == 2
    )
    elapsed = time.perf_counter() - start
    claims["runtime_under_60s"] = elapsed < 60.0
    assert_claims(claims)


def test_criterion_08_stabilizer_rows_fix_their_state():
    gen = np.random.default_rng(80_2026)
    from lfqec import WeightedGraph

    for _ in range(50):
        n = int(gen.integers(2, 9))
        adj = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                adj[i][j] = adj[j][i] = int(gen.integers(0, 2))
        G = WeightedGraph(2, n, FpMatrix.from_rows(2, adj))
        assert verify_stabilizer(G)
        rows = graph_to_stabilizer_rows(G)
        for u, v in itertools.combinations(rows, 2):
            assert symplectic_product(u, v) == 0
    print("  [ok] 50 random graphs: stabilizer rows fix the state, pairwise orthogonal")


def test_criterion_09_class_codes_oracle_confirmed():
    K4 = parse_graph_file(K4_GRAPH_FILE)
    classes = [frozenset(), frozenset({1, 2}), frozenset({1, 3}), frozenset({1, 4})]
    spec = build_graph_code(K4, classes, 2)
    claims = {
        "k4_shape_((4,4,2))": spec.claimed_K == 4 and spec.claimed_d == 2,
        "k4_oracle_distance_2": min_distance(spec.states()) == 2,
    }

    C5 = parse_graph_file(C5_GRAPH_FILE)
    family = uncoverable_family(C5, 3)
    # class search: greedily extend {empty} while differences stay uncoverable
    chosen = [frozenset()]
    for T in sorted(family, key=lambda s: (len(s), sorted(s))):
        if all((T ^ c) in family for c in chosen):
            chosen.append(T)
    spec5 = build_graph_code(C5, chosen, 3)
    claims["c5_search_yields_((5,2,3))"] = spec5.claimed_K == 2 and spec5.claimed_d == 3
    claims["c5_oracle_distance_3"] = min_distance(spec5.states()) == 3
    assert_claims(claims)


def test_criterion_10_flat_spectrum_rejection():
    b = parse_anf("x1*x2 + x3*x4", 2, 4)
    M, _ = weight_support(b)
    claims = {
        "detected_bent": is_bent(b),
        "support_size_6": M == 6,
        "structural_exclusion": bent_exclusion(b),
    }
    A = FpMatrix.identity(2, 4).hstack(
        FpMatrix.from_rows(2, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    )
    report = check_projector_premises(b, A)
    claims["premises_reject"] = not report.all_ok and bool(report.missing_columns)
    try:
        projector_rank(b, A)
        claims["builder_refuses"] = False
    except PremiseError:
        claims["builder_refuses"] = True
    assert_claims(claims)
