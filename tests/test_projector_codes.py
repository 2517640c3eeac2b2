"""Exact dyadic-cyclotomic operator algebra, the four-premise projector
construction, syndrome-term extraction against the dense operator
reference, and the bent-function exclusion."""
import itertools

import numpy as np
import pytest

from conftest import (
    assemble_projector,
    close,
    float_displacement,
    function_outer,
    random_function,
    rng,
    stabilizer_labels,
    syndrome_term,
)
from lfqec import projector_codes
from lfqec import (
    CapacityError,
    FpMatrix,
    InputError,
    LogicFunction,
    OperatorMatrix,
    PauliLabel,
    PremiseError,
    add_affine,
    bent_exclusion,
    build_mds_family,
    check_projector_premises,
    extract_boolean_basis,
    mds_function,
    mds_matrix,
    operator_matrix,
    parse_anf,
    projector_and,
    projector_not,
    projector_or,
    projector_rank,
    rank,
    row_span_labels,
    state_from_function,
    weight_support,
)

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


def test_operator_arithmetic_float_reference(gen):
    for _ in range(60):
        p = int(gen.choice([2, 3, 5]))
        n = 1 if p == 5 else int(gen.integers(1, 3))
        A = random_operator(gen, p, n)
        B = random_operator(gen, p, n)
        assert np.allclose(op_complex(A.add(B)), op_complex(A) + op_complex(B))
        assert np.allclose(op_complex(A.sub(B)), op_complex(A) - op_complex(B))
        assert np.allclose(op_complex(A.mul(B)), op_complex(A) @ op_complex(B))
        assert np.allclose(op_complex(A.half()), op_complex(A) / 2)
        assert np.allclose(op_complex(A.dagger()), op_complex(A).conj().T)
        e = int(gen.integers(0, p))
        zeta = np.exp(2j * np.pi / p)
        assert np.allclose(op_complex(A.phase(e)), op_complex(A) * zeta**e)
        assert close(A.trace().to_complex(), np.trace(op_complex(A)))


def test_operator_equality_across_scales():
    X = operator_matrix(PauliLabel(2, (1,), (0,)))
    assert X.add(X).half() == X
    assert X.half().add(X.half()) == X
    assert X != operator_matrix(PauliLabel(2, (0,), (1,)))
    with pytest.raises(TypeError):
        hash(X)


def test_dagger_reverses_products(gen):
    for _ in range(20):
        p = int(gen.choice([2, 3]))
        A = random_operator(gen, p, 2)
        B = random_operator(gen, p, 2)
        assert A.mul(B).dagger() == B.dagger().mul(A.dagger())


def test_displacement_matrix_pins():
    X = operator_matrix(PauliLabel(2, (1,), (0,)))
    assert np.allclose(op_complex(X), [[0, 1], [1, 0]])
    Z = operator_matrix(PauliLabel(2, (0,), (1,)))
    assert np.allclose(op_complex(Z), [[1, 0], [0, -1]])
    XZ = operator_matrix(PauliLabel(2, (1,), (1,)))
    assert np.allclose(op_complex(XZ), [[0, -1], [1, 0]])
    assert operator_matrix(PauliLabel(2, (0,), (0,))) == OperatorMatrix.identity(2, 1)


def test_displacement_composition(gen):
    for _ in range(200):
        p = int(gen.choice([2, 3, 5]))
        n = 1 if p == 5 else int(gen.integers(1, 3))
        u = random_label(gen, p, n)
        v = random_label(gen, p, n)
        cross = sum(x * y for x, y in zip(u.b, v.a)) % p
        lhs = operator_matrix(u).mul(operator_matrix(v))
        assert lhs == operator_matrix(u + v).phase(cross)


def test_displacement_dagger_identity(gen):
    for _ in range(50):
        p = int(gen.choice([2, 3, 5]))
        e = random_label(gen, p, 2)
        ab = sum(x * y for x, y in zip(e.a, e.b)) % p
        assert operator_matrix(e).dagger() == operator_matrix(-e).phase(ab)


def test_trace_of_displacements():
    assert operator_matrix(PauliLabel(2, (1, 0), (0, 0))).trace().is_zero()
    assert operator_matrix(PauliLabel(3, (0, 0), (1, 2))).trace().is_zero()
    N = OperatorMatrix.identity(2, 3).trace()
    assert N.as_integer() == 8


def test_operator_capacity():
    with pytest.raises(CapacityError):
        operator_matrix(PauliLabel(2, (0,) * 11, (0,) * 11))


# ---------------------------------------------------------------------------
# signed-label algebra and projector forms


def test_projector_and_matches_matrices(gen):
    for _ in range(100):
        n = int(gen.integers(1, 3))
        u = random_label(gen, 2, n)
        v = random_label(gen, 2, n)
        s1 = int(gen.choice([1, -1]))
        s2 = int(gen.choice([1, -1]))
        sign, w = projector_and((s1, u), (s2, v))
        lhs = operator_matrix(u).mul(operator_matrix(v)).phase(0 if s1 * s2 == 1 else 1)
        rhs = operator_matrix(w).phase(0 if sign == 1 else 1)
        assert lhs == rhs


def test_projector_and_validation():
    u = PauliLabel(3, (1,), (0,))
    with pytest.raises(InputError):
        projector_and((1, u), (1, u))
    v = PauliLabel(2, (1,), (0,))
    with pytest.raises(InputError):
        projector_and((2, v), (1, v))


def test_projector_logic_identities():
    X = operator_matrix(PauliLabel(2, (1,), (0,)))
    I = OperatorMatrix.identity(2, 1)
    plus = I.add(X).half()
    minus = I.sub(X).half()
    assert plus.is_idempotent() and minus.is_idempotent()
    assert plus.rank() == 1 and minus.rank() == 1
    assert projector_or(plus, minus) == I
    assert projector_not(plus) == minus
    assert projector_not(projector_not(plus)) == plus
    with pytest.raises(InputError):
        X.rank()  # not idempotent


def test_row_span_labels_group():
    labels = row_span_labels(repaired_matrix())
    assert len(labels) == 16
    assert labels[0] == (1, PauliLabel(2, (0, 0, 0, 0), (0, 0, 0, 0)))
    seen = {lab for _, lab in labels}
    assert len(seen) == 16  # independent rows generate 2^n distinct labels


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


def test_projector_rank_repaired():
    g = parse_anf(G2_ANF, 2, 4)
    assert projector_rank(g, repaired_matrix()) == 4
    P = assemble_projector(g, repaired_matrix())
    assert P.is_idempotent()
    assert P.dagger() == P
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


def test_projector_rank_capacity_after_premises():
    f = parse_anf("x1*x2*x3*x4*x5*x6*x7*x8*x9*x10*x11", 2, 11)
    A = FpMatrix.identity(2, 11).hstack(FpMatrix.from_rows(2, [[0] * 11] * 11))
    with pytest.raises(PremiseError):
        projector_rank(f, A)  # the zero columns of B are no shifts
    B = [[int(j == (i + 1) % 11 or i == (j + 1) % 11) for j in range(11)] for i in range(11)]
    A = FpMatrix.identity(2, 11).hstack(FpMatrix.from_rows(2, B))
    assert check_projector_premises(f, A).all_ok
    with pytest.raises(CapacityError):
        projector_rank(f, A)


def test_assembly_of_printed_matrix_is_still_a_projector():
    # the defect is in the premises, not in the operator algebra: the printed
    # rows commute and are independent, so the assembled sum is a projector
    g = parse_anf(G2_ANF, 2, 4)
    P = assemble_projector(g, printed_matrix())
    assert P.is_idempotent()
    assert P.dagger() == P
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
        vec = state_from_function(g).to_complex()
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
    for t, want in expected.items():
        got = extract_boolean_basis(g, A, t)
        diff = (np.asarray(got.table) - np.asarray(want.table)) % 2
        assert len(set(diff.tolist())) == 1


def test_extraction_single_row():
    f = parse_anf("x1", 2, 1)
    A = FpMatrix.from_rows(2, [[1, 0]])
    g = extract_boolean_basis(f, A, (1,))
    assert g == parse_anf("x1", 2, 1)


def test_extraction_errors():
    g = mds_function(2)
    A = mds_matrix(2)
    with pytest.raises(InputError, match="support"):
        extract_boolean_basis(g, A, (0, 0, 1, 0))
    with pytest.raises(InputError, match="length"):
        extract_boolean_basis(g, A, (1, 0))
    zeros = FpMatrix.from_rows(2, [[0] * 8 for _ in range(4)])
    with pytest.raises(InputError, match="invertible"):
        extract_boolean_basis(g, zeros, (1, 0, 0, 0))
    with pytest.raises(InputError):
        extract_boolean_basis(parse_anf("x1*x2", 3, 2), A, (1, 1))


def test_extraction_rejects_a_wrong_solution(monkeypatch):
    # adding x4 flips the eigenvalue of row 3 = (e_4 | .) only
    g = mds_function(2)
    A = mds_matrix(2)
    t = (1, 0, 0, 0)
    wrong = add_affine(extract_boolean_basis(g, A, t), (0, 0, 0, 1), 0)
    monkeypatch.setattr(projector_codes, "solve_coboundary", lambda *args: wrong)
    with pytest.raises(RuntimeError, match="row 3"):
        extract_boolean_basis(g, A, t)


def test_extraction_premise_error_on_inconsistent_rows():
    f = parse_anf("x1", 2, 2)
    A = FpMatrix.from_rows(2, [[1, 0, 0, 1], [0, 1, 0, 0]])
    with pytest.raises(PremiseError):
        extract_boolean_basis(f, A, (1, 0))


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
            assert projector_rank(f, A) == assemble_projector(f, A).rank()
            ops = [operator_matrix(e) for e in stabilizer_labels(A)]
            left_invertible = rank(A.submatrix(range(n), range(n))) == n
            singular += not left_invertible
            for t in weight_support(f)[1]:
                if not left_invertible:
                    with pytest.raises(InputError, match="invertible"):
                        extract_boolean_basis(f, A, t)
                    continue
                g = extract_boolean_basis(f, A, t)
                assert function_outer(g) == syndrome_term(ops, t, 2, n)
    assert singular >= 3


def test_mds_family_m4_float_eigenvectors():
    spec = build_mds_family(4)
    _, support = weight_support(mds_function(4))
    assert len(spec.basis) == len(support) == 64
    ops = [float_displacement(e) for e in stabilizer_labels(mds_matrix(4))]
    for g, t in zip(spec.basis, support):
        psi = state_from_function(g).to_complex()
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
