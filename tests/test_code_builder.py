"""Code constructions from coset characters, premise-checked matrices, and
the two-point quadratic family, each cross-checked against the state oracle."""
import numpy as np
import pytest

from conftest import random_function, reference_coset_distance
import lfqec.codespec
from lfqec import (
    CodeSpec,
    FpMatrix,
    InputError,
    LogicFunction,
    PremiseError,
    add_affine,
    apc_distance,
    build_coset_code,
    build_matrix_code,
    build_mds_family,
    claimed_coset_distance,
    kl_verify,
    matrix_code_check,
    mds_function,
    mds_matrix,
    min_distance,
    parse_anf,
    quadratic_form,
    weight_support,
)
from lfqec.logic_fn import _first_nonvanishing

K4_ANF = "x1*x2 + x1*x3 + x1*x4 + x2*x3 + x2*x4 + x3*x4"
BETAS_K4 = [(0, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)]

RANK_PIN_F2 = FpMatrix.from_rows(
    2,
    [
        [0, 0, 1, 1, 0],
        [0, 0, 1, 1, 1],
        [1, 1, 0, 0, 0],
        [1, 1, 0, 0, 0],
        [0, 1, 0, 0, 0],
    ],
)
RANK_PIN_F3 = FpMatrix.from_rows(
    3,
    [
        [0, 0, 0, 1, 1],
        [0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0],
        [1, 0, 1, 0, 0],
        [1, 1, 0, 0, 0],
    ],
)


# ---------------------------------------------------------------------------
# coset codes


def test_claimed_coset_distance_pins():
    f = parse_anf(K4_ANF, 2, 4)
    assert claimed_coset_distance(f, BETAS_K4) == 2
    # every weight-1 label vanishes; the first failing one sits in a block with
    # a = 0, at b = beta_1 - beta_0
    pair = [(0, 0, 0, 0), (1, 1, 0, 0)]
    assert _first_nonvanishing(f, pair) == (2, (0, 0, 0, 0), (1, 1, 0, 0))
    assert reference_coset_distance(f, pair) == (2, ((0, 0, 0, 0), (1, 1, 0, 0)))
    g = parse_anf("2*x1*x2", 3, 2)
    assert claimed_coset_distance(g, [(0, 0), (1, 0), (2, 0)]) == 1


def test_claimed_coset_distance_matches_pairwise_reference(gen):
    # random quadratic forms (many vanishing sums) alternate with random tables;
    # every other shift set is an arithmetic progression, whose differences repeat
    distances = []
    for p, n in [(2, 4), (2, 5), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2), (13, 2)]:
        for trial in range(6):
            if trial % 2:
                f = random_function(gen, p, n)
            else:
                A = np.triu(gen.integers(0, p, (n, n)), 1)
                q = quadratic_form(FpMatrix.from_rows(p, ((A + A.T) % p).tolist()))
                f = add_affine(q, gen.integers(0, p, n).tolist(), 0)
            K = int(gen.integers(1, 5))
            betas = set()
            if trial % 4 < 2:
                step = gen.integers(0, p, n)
                betas = {tuple(int(v) for v in k * step % p) for k in range(max(K, 2))}
            while len(betas) < K:
                betas.add(tuple(int(v) for v in gen.integers(0, p, n)))
            betas = sorted(betas)
            w, (a, b) = reference_coset_distance(f, betas)
            assert claimed_coset_distance(f, betas) == w
            assert _first_nonvanishing(f, betas) == (w, a, b)
            distances.append(w)
    assert max(distances) >= 2


def test_build_coset_code_pinned():
    f = parse_anf(K4_ANF, 2, 4)
    spec = build_coset_code(f, BETAS_K4)
    assert spec.claimed_K == 4 and spec.claimed_d == 2
    assert spec.provenance == "coset-code"
    for beta, g in zip(BETAS_K4, spec.basis):
        assert g == add_affine(f, beta, 0)
    assert min_distance(spec.states()) == 2

    g3 = parse_anf("2*x1*x2", 3, 2)
    spec3 = build_coset_code(g3, [(0, 0), (1, 0), (2, 0)])
    assert spec3.claimed_d == 1 == min_distance(spec3.states())


def test_build_coset_code_errors():
    f = parse_anf(K4_ANF, 2, 4)
    with pytest.raises(InputError):
        build_coset_code(f, [])
    with pytest.raises(InputError):
        build_coset_code(f, [(0, 0, 0, 0), (0, 0, 0, 0)])
    with pytest.raises(InputError):
        build_coset_code(f, [(0, 0, 0)])
    with pytest.raises(InputError):
        build_coset_code(f, [(0, 0, 0, 2)])


def test_codespec_refuses_equal_basis_functions_in_either_form(monkeypatch):
    anf, other = parse_anf("x1*x2 + x3", 2, 3), parse_anf("x1*x2", 2, 3)
    table, other_table = LogicFunction(2, 3, anf.table), LogicFunction(2, 3, other.table)
    for basis in ([anf, other, anf], [table, other_table, table], [other, anf, table]):
        with pytest.raises(InputError, match="pairwise distinct tables"):
            CodeSpec(2, 3, tuple(basis), 1, "test")
    assert CodeSpec(2, 3, (table, other), 1, "test").claimed_K == 2
    # with every hash tied, the tables themselves decide
    monkeypatch.setattr(lfqec.codespec, "hash", lambda data: 0, raising=False)
    assert CodeSpec(2, 3, (table, other_table, parse_anf("x3", 2, 3)), 1, "test").claimed_K == 3
    with pytest.raises(InputError, match="pairwise distinct tables"):
        CodeSpec(2, 3, (table, other, anf), 1, "test")


def test_coset_claim_is_never_optimistic(gen):
    # the claimed distance counts every shifted character sum, so the states
    # always satisfy the orthogonality conditions strictly below it
    for _ in range(25):
        p = int(gen.choice([2, 3]))
        n = int(gen.integers(2, 5))
        f = random_function(gen, p, n)
        K = int(gen.choice([2, 4]))
        betas = set()
        while len(betas) < K:
            betas.add(tuple(int(v) for v in gen.integers(0, p, n)))
        spec = build_coset_code(f, sorted(betas))
        assert kl_verify(spec.states(), spec.claimed_d - 1).passed


# ---------------------------------------------------------------------------
# matrix codes


def test_build_matrix_code_pinned_f2():
    spec = build_matrix_code(RANK_PIN_F2, 1, 2)
    assert spec.claimed_K == 2 and spec.claimed_d == 2 and spec.n == 4
    assert spec.provenance == "matrix-code"
    assert min_distance(spec.states()) == 2
    # basis: quadratic form of the qudit block, plus the class-column part
    qf = quadratic_form(RANK_PIN_F2.submatrix(range(1, 5), range(1, 5)))
    lin = tuple(RANK_PIN_F2.row(q)[0] for q in range(1, 5))
    assert spec.basis[0] == qf
    assert spec.basis[1] == add_affine(qf, lin, 0)


def test_build_matrix_code_pinned_f3():
    spec = build_matrix_code(RANK_PIN_F3, 1, 2)
    assert spec.claimed_K == 3 and spec.claimed_d == 2
    assert min_distance(spec.states()) == 2


def test_build_matrix_code_rejects_with_report():
    zero = FpMatrix.from_rows(2, [[0] * 5 for _ in range(5)])
    with pytest.raises(PremiseError) as exc:
        build_matrix_code(zero, 1, 2)
    report = exc.value.report
    assert report is not None and not report.accepted
    assert report.condition == "selector_rank"
    assert report == matrix_code_check(zero, 1, 2)


def test_build_matrix_code_k0_single_state():
    spec = build_matrix_code(RANK_PIN_F2, 0, 2)
    assert spec.claimed_K == 1
    f = spec.basis[0]
    assert f == quadratic_form(RANK_PIN_F2)
    assert min_distance(spec.states()) == apc_distance(f).distance


# ---------------------------------------------------------------------------
# two-point quadratic family


def test_mds_function_shape():
    g = mds_function(2)
    assert (g.p, g.n) == (2, 4)
    assert g == parse_anf("(y1 + y2 + y3)*(y1 + y2 + y4)", 2, 4)
    M, supp = weight_support(g)
    assert M == 4
    assert supp == [(0, 0, 1, 1), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 1, 1)]

    h = mds_function(3)
    assert (h.p, h.n) == (2, 6)
    assert h == parse_anf("(y1+y2+y3+y4+y5)*(y1+y2+y3+y4+y6)", 2, 6)
    with pytest.raises(InputError):
        mds_function(1)


def test_mds_matrix_structure():
    A = mds_matrix(2)
    assert A.rows == 4 and A.cols == 8
    left = A.submatrix(range(4), range(4))
    assert left == FpMatrix.identity(2, 4)
    right = A.submatrix(range(4), range(4, 8))
    assert right == FpMatrix.from_rows(
        2, [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
    )


def test_mds_family_m2_basis_and_true_distance():
    spec = build_mds_family(2)
    assert spec.claimed_K == 4 and spec.claimed_d == 2 and spec.n == 4
    assert spec.provenance == "mds-family"
    g = mds_function(2)
    expected = [
        add_affine(g, (1, 1, 1, 1), 0),  # support point 0011
        add_affine(g, (1, 0, 0, 0), 0),  # support point 0100
        add_affine(g, (0, 1, 0, 0), 0),  # support point 1000
        add_affine(g, (0, 0, 1, 1), 0),  # support point 1111
    ]
    for got, want in zip(spec.basis, expected):
        diff = (np.asarray(got.table) - np.asarray(want.table)) % 2
        assert len(set(diff.tolist())) == 1  # equal up to an additive constant
    # the claim does not survive the oracle: a weight-1 error is undetected
    assert min_distance(spec.states()) == 1


def test_mds_family_m3_true_distance():
    spec = build_mds_family(3)
    assert spec.claimed_K == 16 and spec.claimed_d == 2 and spec.n == 6
    assert min_distance(spec.states()) == 1


def test_mds_family_states_orthogonal():
    spec = build_mds_family(2)
    states = spec.states()
    from lfqec import inner_product

    for i in range(4):
        for j in range(4):
            ip = inner_product(states[i], states[j])
            if i == j:
                assert ip.as_integer() == 16
            else:
                assert ip.is_zero()
