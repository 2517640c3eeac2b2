"""The exact dyadic-cyclotomic operator product and rank by trace, the
four-premise projector construction, syndrome-term extraction against the
dense operator reference and the syndrome-by-syndrome solve, and the
bent-function exclusion."""
import re

import numpy as np
import pytest

from conftest import (
    as_complex,
    assemble_projector,
    close,
    displacement,
    float_displacement,
    function_outer,
    identity_operator,
    label_sum,
    operator_sum,
    random_function,
    reference_boolean_basis,
    reference_eigen_failure,
    stabilizer_labels,
    state_complex,
    syndrome_term,
)
from lfqec import fp_algebra, projector_codes
from lfqec import (
    CapacityError,
    FpMatrix,
    InputError,
    LogicFunction,
    OperatorMatrix,
    PauliLabel,
    PremiseError,
    add_affine,
    anf_text,
    bent_exclusion,
    build_mds_family,
    check_projector_premises,
    extract_boolean_basis,
    mds_function,
    mds_matrix,
    parse_anf,
    projector_rank,
    rank,
    state_from_function,
    weight_support,
)
from lfqec.cli import main

G2_ANF = "x1*x3 + x1*x4 + x2*x3 + x2*x4 + x3*x4 + x1 + x2"
GAMMA_G2 = [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
B_MATCHING = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]


def printed_matrix():
    ident = FpMatrix.identity(2, 4)
    return ident.hstack(FpMatrix.from_rows(2, GAMMA_G2))


def repaired_matrix():
    return FpMatrix.identity(2, 4).hstack(FpMatrix.from_rows(2, B_MATCHING))


def op_complex(op):
    zeta = np.exp(2j * np.pi / op.p)
    ent = np.asarray(op.entries)
    acc = np.zeros(ent.shape[:2], dtype=complex)
    for m in range(op.p):
        acc += ent[:, :, m] * zeta**m
    return acc * 2.0**op.scale_log2


def random_operator(gen, p, n):
    N = p**n
    return OperatorMatrix(p, n, gen.integers(0, 3, size=(N, N, p)).astype(np.int64))


def random_label(gen, p, n):
    return PauliLabel(
        p,
        tuple(int(v) for v in gen.integers(0, p, n)),
        tuple(int(v) for v in gen.integers(0, p, n)),
    )


# ---------------------------------------------------------------------------
# operator arithmetic


def is_hermitian(op) -> bool:
    return np.allclose(op_complex(op), op_complex(op).conj().T)


def test_operator_arithmetic_float_reference(gen):
    for _ in range(60):
        p = int(gen.choice([2, 3, 5]))
        n = 1 if p == 5 else int(gen.integers(1, 3))
        A = random_operator(gen, p, n)
        B = random_operator(gen, p, n)
        assert np.allclose(op_complex(A.mul(B)), op_complex(A) @ op_complex(B))
        assert close(as_complex(A.trace()), np.trace(op_complex(A)))


def test_operator_equality_across_scales():
    X = displacement(PauliLabel(2, (1,), (0,)))
    half = OperatorMatrix(2, 1, X.entries, -1)
    assert OperatorMatrix(2, 1, 2 * X.entries, -1) == X == operator_sum(half, half)
    assert X != displacement(PauliLabel(2, (0,), (1,)))
    with pytest.raises(TypeError):
        hash(X)


def test_displacement_matrix_pins():
    X = displacement(PauliLabel(2, (1,), (0,)))
    assert np.allclose(op_complex(X), [[0, 1], [1, 0]])
    Z = displacement(PauliLabel(2, (0,), (1,)))
    assert np.allclose(op_complex(Z), [[1, 0], [0, -1]])
    XZ = displacement(PauliLabel(2, (1,), (1,)))
    assert np.allclose(op_complex(XZ), [[0, -1], [1, 0]])
    assert np.allclose(op_complex(identity_operator(2, 2)), np.eye(4))


def test_displacement_composition(gen):
    # the exact product against the Weyl relation E'_u E'_v = zeta^(b_u.a_v) E'_(u+v)
    for _ in range(200):
        p = int(gen.choice([2, 3, 5]))
        n = 1 if p == 5 else int(gen.integers(1, 3))
        u = random_label(gen, p, n)
        v = random_label(gen, p, n)
        cross = sum(x * y for x, y in zip(u.b, v.a)) % p
        assert displacement(u).mul(displacement(v)) == displacement(label_sum(u, v), cross)


def test_trace_of_displacements():
    assert displacement(PauliLabel(2, (1, 0), (0, 0))).trace().is_zero()
    assert displacement(PauliLabel(3, (0, 0), (1, 2))).trace().is_zero()
    assert identity_operator(2, 3).trace().as_integer() == 8


def test_operator_capacity():
    # the dimension cap is checked before the entries are read
    with pytest.raises(CapacityError, match="dimension 1024, need 2048"):
        OperatorMatrix(2, 11, np.zeros((0, 0, 2), dtype=np.int64))


def test_operator_product_past_the_float_bound_is_refused():
    # a product sum of 2 * 2^26 * 2^26 = 2^53 may round in float64; 2^51 may not
    big = np.zeros((2, 2, 2), dtype=np.int64)
    big[:, :, 0] = 2**26
    A = OperatorMatrix(2, 1, big)
    with pytest.raises(CapacityError, match=r"2\^52"):
        A.mul(A)
    half = OperatorMatrix(2, 1, big // 2)
    assert np.array_equal(half.mul(half).entries[:, :, 0], np.full((2, 2), 2**51))


# ---------------------------------------------------------------------------
# projector forms


def test_projector_logic_identities():
    X = displacement(PauliLabel(2, (1,), (0,)))
    plus = syndrome_term([X], (0,), 2, 1)
    minus = syndrome_term([X], (1,), 2, 1)
    assert plus.is_idempotent() and minus.is_idempotent()
    assert plus.rank() == 1 and minus.rank() == 1
    assert operator_sum(plus, minus) == identity_operator(2, 1)
    with pytest.raises(InputError):
        X.rank()  # not idempotent


# ---------------------------------------------------------------------------
# premises and projector assembly


def test_premises_printed_matrix_fail_on_sums():
    g = parse_anf(G2_ANF, 2, 4)
    report = check_projector_premises(g, printed_matrix())
    assert report.weight_ok and report.M == 4
    assert report.missing_columns == ()
    assert report.missing_sums == (0, 1)
    assert report.nonorthogonal_pairs == ()
    assert report.rows_independent
    assert not report.all_ok
    assert "column sums at [0, 1]" in report.summary()
    d = report.to_dict()
    assert d["missing_sums"] == [0, 1] and d["all_ok"] is False


def test_premises_repaired_matrix_pass():
    g = parse_anf(G2_ANF, 2, 4)
    report = check_projector_premises(g, repaired_matrix())
    assert report.all_ok
    assert report.summary() == "all premises hold"


@pytest.mark.parametrize(
    "anf, rows, fields, summary",
    [
        (  # row 1 has a nonzero product with rows 2 and 3
            G2_ANF,
            [[1, 0, 0, 0, 0, 0, 1, 0], [0, 1, 0, 0, 0, 0, 0, 1],
             [0, 0, 1, 1, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0, 0]],
            {"nonorthogonal_pairs": ((1, 2), (1, 3))},
            "row pairs [(1, 2), (1, 3)] not orthogonal",
        ),
        (  # rows 0 and 2 are equal
            G2_ANF,
            [[1, 0, 0, 0, 0, 0, 1, 0], [0, 1, 1, 0, 1, 0, 0, 1],
             [1, 0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 1, 0, 1, 0, 0]],
            {"rows_independent": False},
            "rows are linearly dependent",
        ),
        (  # the zero function: no support, and every shift in its set
            "0", [[1, 0, 0, 0, 0, 0, 1, 0], [0, 1, 0, 0, 0, 0, 0, 1],
                  [0, 0, 1, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 1, 0, 0]],
            {"M": 0, "weight_ok": False},
            "support size 0 outside (0, 2^(n-1)]",
        ),
    ],
    ids=["nonorthogonal", "dependent", "empty-support"],
)
def test_premise_failures_each_alone(anf, rows, fields, summary):
    report = check_projector_premises(parse_anf(anf, 2, 4), FpMatrix.from_rows(2, rows))
    holding = projector_codes.PremiseReport(4, report.M, True, (), (), (), True)
    assert report == holding._replace(**fields)
    assert not report.all_ok and report.summary() == summary


def test_projector_rank_repaired():
    g = parse_anf(G2_ANF, 2, 4)
    report = projector_rank(g, repaired_matrix())  # the checked report, whose M is the rank
    assert report == check_projector_premises(g, repaired_matrix()) and report.M == 4
    P = assemble_projector(g, repaired_matrix())
    assert P.is_idempotent()
    assert is_hermitian(P)
    assert P.rank() == 4


def test_projector_rank_refuses_printed_matrix():
    g = parse_anf(G2_ANF, 2, 4)
    with pytest.raises(PremiseError) as exc:
        projector_rank(g, printed_matrix())
    assert exc.value.report.missing_sums == (0, 1)


def test_projector_rank_refuses_rows_squaring_to_minus_identity():
    # the premises hold, but row 0 = (01|11) has a . b = 1: E_0^2 = -I
    f = parse_anf("x1*x2", 2, 2)
    A = FpMatrix.from_rows(2, [[0, 1, 1, 1], [1, 1, 0, 0]])
    assert check_projector_premises(f, A).all_ok
    with pytest.raises(InputError, match="row 0"):
        projector_rank(f, A)
    assert not assemble_projector(f, A).is_idempotent()


def test_projector_rank_capacity_after_premises(monkeypatch):
    f = parse_anf("x1*x2*x3*x4*x5*x6*x7*x8*x9*x10*x11", 2, 11)
    A = FpMatrix.identity(2, 11).hstack(FpMatrix.from_rows(2, [[0] * 11] * 11))
    with pytest.raises(PremiseError):
        projector_rank(f, A)  # the zero columns of B are no shifts
    B = [[int(j == (i + 1) % 11 or i == (j + 1) % 11) for j in range(11)] for i in range(11)]
    A = FpMatrix.identity(2, 11).hstack(FpMatrix.from_rows(2, B))
    assert check_projector_premises(f, A).all_ok
    assert projector_rank(f, A).M == 1  # no operator is formed, so no dimension cap applies
    # the extraction holds M functions of at most 1 + n + n(n-1)/2 = 67 ANF
    # terms: over the budget it is refused before a support point is listed
    # or the difference system is solved
    monkeypatch.setattr(fp_algebra, "MAX_LISTING", 66)
    monkeypatch.setattr(projector_codes, "index_rows", lambda *args: pytest.fail("listed"))
    monkeypatch.setattr(projector_codes, "solve_coboundary", lambda *args: pytest.fail("solved"))
    with pytest.raises(CapacityError, match="1 x 67 basis ANF terms exceed the listing budget 66"):
        extract_boolean_basis(f, A)


def test_assembly_of_printed_matrix_is_still_a_projector():
    # the defect is in the premises, not in the operator algebra: the printed
    # rows commute and are independent, so the assembled sum is a projector
    g = parse_anf(G2_ANF, 2, 4)
    P = assemble_projector(g, printed_matrix())
    assert P.is_idempotent()
    assert is_hermitian(P)
    assert P.rank() == 4


def test_assemble_rejects_noncommuting_rows():
    g = parse_anf("x1", 2, 2)
    A = FpMatrix.from_rows(2, [[1, 0, 0, 1], [0, 1, 0, 0]])
    with pytest.raises(InputError, match="commute"):
        assemble_projector(g, A)


def test_function_outer_float_reference(gen):
    for _ in range(20):
        n = int(gen.integers(1, 4))
        g = random_function(gen, 2, n)
        outer = function_outer(g)
        vec = state_complex(state_from_function(g))
        ref = np.outer(vec, vec.conj()) / 2**n
        assert np.allclose(op_complex(outer), ref)
        assert outer.is_idempotent() and outer.rank() == 1


# ---------------------------------------------------------------------------
# extraction


def test_extraction_reproduces_expected_functions():
    g = mds_function(2)
    A = mds_matrix(2)
    expected = {
        (1, 0, 0, 0): add_affine(g, (0, 1, 0, 0), 0),
        (0, 1, 0, 0): add_affine(g, (1, 0, 0, 0), 0),
        (0, 0, 1, 1): add_affine(g, (1, 1, 1, 1), 0),
        (1, 1, 1, 1): add_affine(g, (0, 0, 1, 1), 0),
    }
    support = weight_support(g)[1]
    basis = extract_boolean_basis(g, A)
    assert len(basis) == len(support) == 4
    for t, got in zip(support, basis):
        diff = (np.asarray(got.table) - np.asarray(expected[t].table)) % 2
        assert len(set(diff.tolist())) == 1


def test_extraction_single_row():
    f = parse_anf("x1", 2, 1)
    A = FpMatrix.from_rows(2, [[1, 0]])
    assert extract_boolean_basis(f, A) == [parse_anf("x1", 2, 1)]


def test_extraction_errors():
    g = mds_function(2)
    A = mds_matrix(2)
    zeros = FpMatrix.from_rows(2, [[0] * 8 for _ in range(4)])
    with pytest.raises(InputError, match="invertible"):
        extract_boolean_basis(g, zeros)
    with pytest.raises(InputError):
        extract_boolean_basis(parse_anf("x1*x2", 3, 2), A)


def test_extraction_refuses_a_matrix_of_the_wrong_shape():
    # 3 x 6 has the n x 2n form, but for n = 3, not for the function's n = 4
    A = FpMatrix.from_rows(2, np.eye(3, 6, dtype=int).tolist())
    with pytest.raises(InputError, match="matrix must be 4 x 8 over F_2"):
        extract_boolean_basis(parse_anf("x1*x2 + x3", 2, 4), A)


def test_extraction_inverts_the_left_block_with_one_elimination(monkeypatch):
    calls = []
    eliminate = projector_codes._eliminate
    monkeypatch.setattr(projector_codes, "_eliminate",
                        lambda rows, p: calls.append(len(rows)) or eliminate(rows, p))
    monkeypatch.setattr(projector_codes, "fp_rank", lambda M: pytest.fail("rank"))
    assert len(extract_boolean_basis(mds_function(3), mds_matrix(3))) == 16
    assert calls == [6]  # [L | I], which gives L's invertibility and L^(-1)


def test_projector_command_builds_the_row_labels_once(tmp_path, monkeypatch, capsys):
    # only the commutation premise reads A's rows as labels
    built = []
    label = projector_codes.PauliLabel
    monkeypatch.setattr(projector_codes, "PauliLabel",
                        lambda *args: built.append(args) or label(*args))
    fn, mat = tmp_path / "g2.fn", tmp_path / "rep.mat"
    fn.write_text(f"2 4\nanf: {G2_ANF}\n")
    mat.write_text("2 4\n" + "".join(f"{''.join(map(str, r))}\n" for r in repaired_matrix().entries))
    assert main(["projector", str(fn), str(mat), "--extract-basis"]) == 0
    assert capsys.readouterr().out.count("basis[") == 4
    assert len(built) == 4


def test_extraction_rejects_a_wrong_solution(monkeypatch):
    # adding x4 flips the eigenvalue of row 3 = (e_4 | .) only
    g = mds_function(2)
    A = mds_matrix(2)
    solve = projector_codes.solve_coboundary
    monkeypatch.setattr(
        projector_codes, "solve_coboundary", lambda *args: add_affine(solve(*args), (0, 0, 0, 1))
    )
    with pytest.raises(RuntimeError, match="row 3"):
        extract_boolean_basis(g, A)


def test_extraction_forms_each_row_shift_once(monkeypatch):
    # one shift per row of A serves all K = 256 recovered states
    A = mds_matrix(5)
    calls = []
    shift = projector_codes.shifted
    monkeypatch.setattr(projector_codes, "shifted",
                        lambda values, p, n, a: calls.append(tuple(a)) or shift(values, p, n, a))
    assert len(extract_boolean_basis(mds_function(5), A)) == 256
    assert calls == [tuple(A.row(i)[:10]) for i in range(10)]


def test_extraction_forms_one_linear_form_per_row(monkeypatch):
    # the check reads b_i . x once per row on g0's table, never once per syndrome
    A = mds_matrix(3)
    calls = []
    values = projector_codes.linear_values
    monkeypatch.setattr(projector_codes, "linear_values",
                        lambda p, n, b: calls.append(tuple(b)) or values(p, n, b))
    assert len(extract_boolean_basis(mds_function(3), A)) == 16
    assert calls == [tuple(A.row(i)[6:]) for i in range(6)]


def test_extraction_check_matches_the_per_state_reference(gen, monkeypatch):
    # the factored check against every recovered state, row by row: the solve
    # is given random linear and quadratic terms, so the row and the sign of
    # the first failure vary; the unperturbed solve must pass
    cases = [(mds_function(m), mds_matrix(m)) for m in (2, 3, 4)]
    for _ in range(30):
        n = int(gen.integers(1, 7))
        f = LogicFunction(2, n, (gen.random(2**n) < 0.5).astype(np.int64))
        cases.append((f, random_stabilizer_matrix(gen, n)))
    solve, solved, perturb = projector_codes.solve_coboundary, [], [False]

    def perturbed(pairs, p, n):
        g = solve(pairs, p, n)
        if perturb[0]:
            quad = [(1, (j, k)) for j in range(n) for k in range(j + 1, n) if gen.random() < 0.2]
            linear = [(1, (j,)) for j in range(n) if gen.random() < 0.3]
            g = LogicFunction(2, n, anf=g.anf + tuple(linear + quad))
        solved.append(g)
        return g

    monkeypatch.setattr(projector_codes, "solve_coboundary", perturbed)
    seen = set()
    for f, A in cases:
        for perturb[0] in (False, True, True):
            solved.clear()
            try:
                extract_boolean_basis(f, A)
                got = None
            except RuntimeError as exc:
                found = re.fullmatch(r"recovered state is not an eigenvector of row (\d+) "
                                     r"with sign \(-1\)\^([01])", str(exc))
                got = (int(found[1]), int(found[2]))
            if not perturb[0]:
                assert got is None
            if solved:
                assert got == reference_eigen_failure(solved[0], f, A)
                seen.add(got)
    assert None in seen and any(s and s[1] for s in seen) and any(s and s[0] for s in seen)


def test_extraction_premise_error_on_inconsistent_rows():
    f = parse_anf("x1", 2, 2)
    A = FpMatrix.from_rows(2, [[1, 0, 0, 1], [0, 1, 0, 0]])
    with pytest.raises(PremiseError):
        extract_boolean_basis(f, A)


def random_stabilizer_matrix(gen, n):
    """G (I | S) with G invertible and S symmetric with a zero diagonal over
    F_2: n commuting, independent involutions with an invertible left block."""
    while True:
        G = gen.integers(0, 2, (n, n))
        if rank(FpMatrix.from_rows(2, G.tolist())) == n:
            break
    U = np.triu(gen.integers(0, 2, (n, n)), 1)
    return FpMatrix.from_rows(2, np.hstack([G, G @ (U + U.T) % 2]).tolist())


def swap_column_pairs(A, js):
    """Exchange columns j and n + j for each j in js (x and z on qubit j)."""
    n = A.rows
    rows = [list(A.row(i)) for i in range(n)]
    for r in rows:
        for j in js:
            r[j], r[n + j] = r[n + j], r[j]
    return FpMatrix.from_rows(2, rows)


def function_meeting_premises(gen, A):
    """A function of small support whose shift set holds the premises for A,
    or None after a bounded number of draws."""
    n = A.rows
    for _ in range(200):
        M = int(gen.integers(1, min(4, 2 ** (n - 1)) + 1))
        table = np.zeros(2**n, dtype=np.int64)
        table[gen.choice(2**n, M, replace=False)] = 1
        f = LogicFunction(2, n, table)
        if check_projector_premises(f, A).all_ok:
            return f
    return None


def test_extraction_matches_per_syndrome_reference(gen):
    # one solve for all syndromes against one full solve per syndrome, on
    # mds_matrix(m), random G(I|S) matrices with a quarter of them given one
    # flipped right-block bit (commutation or a . b = 0 breaks, so the system
    # is inconsistent), and functions that are often identically zero
    cases = [(mds_function(m), mds_matrix(m)) for m in (2, 3, 4)]
    for _ in range(60):
        n = int(gen.integers(1, 7))
        A = random_stabilizer_matrix(gen, n)
        if gen.random() < 0.25:
            rows = [list(A.row(i)) for i in range(n)]
            rows[int(gen.integers(n))][n + int(gen.integers(n))] ^= 1
            A = FpMatrix.from_rows(2, rows)
        density = float(gen.choice([0.0, 0.2, 0.5]))
        cases.append((LogicFunction(2, n, (gen.random(2**n) < density).astype(np.int64)), A))
    inconsistent = empty = 0
    for f, A in cases:
        support = weight_support(f)[1]
        try:
            want = [reference_boolean_basis(f, A, t) for t in support]
        except PremiseError:
            inconsistent += 1
            with pytest.raises(PremiseError):
                extract_boolean_basis(f, A)
            continue
        got = extract_boolean_basis(f, A)
        assert got == want
        assert [anf_text(g) for g in got] == [anf_text(g) for g in want]
        empty += not support
    assert inconsistent >= 5 and empty >= 5


def test_projector_rank_and_extraction_match_dense_reference(gen):
    cases = singular = 0
    while cases < 24:
        n = int(gen.integers(2, 6))
        A0 = random_stabilizer_matrix(gen, n)
        f = function_meeting_premises(gen, A0)
        if f is None:
            continue
        js = [int(j) for j in gen.choice(n, int(gen.integers(1, n + 1)), replace=False)]
        for A in (A0, swap_column_pairs(A0, js)):
            cases += 1
            assert projector_rank(f, A).M == assemble_projector(f, A).rank()
            ops = [displacement(e) for e in stabilizer_labels(A)]
            if rank(A.submatrix(range(n), range(n))) != n:
                singular += 1
                with pytest.raises(InputError, match="invertible"):
                    extract_boolean_basis(f, A)
                continue
            for t, g in zip(weight_support(f)[1], extract_boolean_basis(f, A)):
                assert function_outer(g) == syndrome_term(ops, t, 2, n)
    assert singular >= 3


def test_mds_family_m4_float_eigenvectors():
    spec = build_mds_family(4)
    _, support = weight_support(mds_function(4))
    assert len(spec.basis) == len(support) == 64
    ops = [float_displacement(e) for e in stabilizer_labels(mds_matrix(4))]
    for g, t in zip(spec.basis, support):
        psi = state_complex(state_from_function(g))
        for E, ti in zip(ops, t):
            assert np.allclose(E @ psi, (-1) ** ti * psi)


# ---------------------------------------------------------------------------
# bent exclusion


def test_bent_exclusion():
    assert bent_exclusion(parse_anf("x1*x2 + x3*x4", 2, 4))
    assert not bent_exclusion(parse_anf("x1*x2", 2, 4))
    assert not bent_exclusion(parse_anf("x1*x2", 2, 3))  # odd n
    with pytest.raises(InputError):
        bent_exclusion(parse_anf("x1*x2", 2, 2))
    with pytest.raises(InputError):
        bent_exclusion(parse_anf("x1*x2", 3, 2))
