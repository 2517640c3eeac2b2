"""Exact cyclotomic arithmetic, label enumeration, and F_p linear algebra."""
import cmath
import itertools
import math

import numpy as np
import pytest

from conftest import (
    as_complex,
    close,
    digit_index,
    label_sum,
    label_weight,
    random_cyclo,
    reference_labels,
    reference_rank,
    rng,
    walk_blocks,
)
from lfqec import (
    CapacityError,
    CycloInt,
    FpMatrix,
    InputError,
    PauliLabel,
    label_blocks,
    rank,
    solve_linear,
    symplectic_product,
)
from lfqec import _tables, fp_algebra
from lfqec._tables import support_rows
from lfqec.fp_algebra import table_size, validate_prime


# ---------------------------------------------------------------------------
# cyclotomic integers


def test_root_sum_is_zero():
    for p in (2, 3, 5, 7):
        total = CycloInt(p, (1,) * p)
        assert total.is_zero()


def test_zero_iff_constant_coefficients():
    assert CycloInt(3, (4, 4, 4)).is_zero()
    assert not CycloInt(3, (4, 4, 5)).is_zero()
    assert CycloInt(2, (7, 7)).is_zero()


def test_canonical_form_min_zero():
    z = CycloInt(5, (3, 8, 3, 4, 6))
    assert min(z.coeffs) == 0
    assert z.coeffs == (0, 5, 0, 1, 3)


def test_integer_and_zeta_constructors():
    assert CycloInt(3, (5, 0, 0)).as_integer() == 5
    assert CycloInt(3, (-4, 0, 0)).as_integer() == -4
    assert CycloInt(7, (0,) * 7).as_integer() == 0
    z = CycloInt(5, (0, 0, 3, 0, 0))
    assert z.as_integer() is None
    assert close(as_complex(z), 3 * cmath.exp(4j * cmath.pi / 5))


def test_is_zero_agrees_with_float_magnitude():
    gen = rng(12)
    for _ in range(500):
        p = int(gen.choice([2, 3, 5]))
        z = random_cyclo(gen, p, lo=-3, hi=4)
        assert z.is_zero() == (abs(as_complex(z)) < 1e-6)


def test_mixed_field_rejected():
    with pytest.raises(InputError):
        CycloInt(3, (0, 1))


# ---------------------------------------------------------------------------
# labels and the symplectic form


def test_label_normalization_and_weight():
    e = PauliLabel(3, (4, 0, -1), (0, 5, 0))
    assert e.a == (1, 0, 2) and e.b == (0, 2, 0)
    assert label_weight(e) == 3
    assert label_weight(PauliLabel(2, (0, 0), (0, 0))) == 0


def test_symplectic_product_antisymmetric_bilinear():
    gen = rng(14)
    for _ in range(300):
        p = int(gen.choice([2, 3, 5]))
        n = int(gen.integers(1, 5))
        u = PauliLabel(p, tuple(gen.integers(0, p, n)), tuple(gen.integers(0, p, n)))
        v = PauliLabel(p, tuple(gen.integers(0, p, n)), tuple(gen.integers(0, p, n)))
        w = PauliLabel(p, tuple(gen.integers(0, p, n)), tuple(gen.integers(0, p, n)))
        assert symplectic_product(u, v) == (-symplectic_product(v, u)) % p
        assert symplectic_product(u, u) == 0
        lhs = symplectic_product(u, label_sum(v, w))
        rhs = (symplectic_product(u, v) + symplectic_product(u, w)) % p
        assert lhs == rhs


def flat_labels(p, n, w):
    return [(a, b) for a, bs in walk_blocks(p, n, w) for b in bs]


def test_label_enumeration_counts_and_order():
    # weight-w count: C(n, w) * (p^2 - 1)^w
    for p, n in ((2, 3), (3, 2)):
        total = 0
        for w in range(1, n + 1):
            labels = flat_labels(p, n, w)
            assert len(labels) == math.comb(n, w) * (p * p - 1) ** w
            assert all(label_weight(PauliLabel(p, a, b)) == w for a, b in labels)
            total += len(labels)
        assert total == p ** (2 * n) - 1
        every = [label for w in range(1, n + 1) for label in flat_labels(p, n, w)]
        assert len(set(every)) == total

    assert flat_labels(2, 2, 1)[:6] == [
        ((0, 0), (1, 0)),
        ((1, 0), (0, 0)),
        ((1, 0), (1, 0)),
        ((0, 0), (0, 1)),
        ((0, 1), (0, 0)),
        ((0, 1), (0, 1)),
    ]


def sorted_labels_by_weight(p: int, n: int) -> dict:
    """Every label of F_p^n x F_p^n, bucketed by weight and each bucket
    sorted by support, then a, then b on the support: the listing that
    reference_labels replaced, kept as its reference."""
    def key(label):
        # supports of one weight have one length, so one flat list sorts
        # by support, then a, then b
        a, b = label
        supp = [i for i in range(n) if a[i] or b[i]]
        return supp + [a[i] for i in supp] + [b[i] for i in supp]

    vectors = list(itertools.product(range(p), repeat=n))
    by_weight = {w: [] for w in range(n + 1)}
    for a in vectors:
        for b in vectors:
            by_weight[sum(1 for x, y in zip(a, b) if x or y)].append((a, b))
    return {w: sorted(labels, key=key) for w, labels in by_weight.items()}


# every n at which the sorted listing took under a second on a 2-core host
# (p = 2, n = 9: 0.85 s; p = 3, n = 6 and p = 5, n = 5 take longer)
@pytest.mark.parametrize("p, max_n", [(2, 9), (3, 5), (5, 4)])
def test_reference_labels_match_the_sorted_listing(p, max_n):
    for n in range(1, max_n + 1):
        for w, labels in sorted_labels_by_weight(p, n).items():
            assert reference_labels(p, n, w) == labels, (n, w)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_label_blocks_follow_the_reference_order(p):
    for n in range(1, 5):
        for w in range(n + 1):
            blocks = walk_blocks(p, n, w)
            assert [(a, b) for a, bs in blocks for b in bs] == reference_labels(p, n, w)
            # one block per (support, a) pair; the chunks of a support come in
            # a row, in the order of the supports, and hold int8 rows n wide
            assert len(blocks) == math.comb(n, w) * p**w
            chunks = list(label_blocks(p, n, w))
            supports = [list(s) for s in itertools.combinations(range(n), w)]
            assert [supp for supp, _ in itertools.groupby(s for s, *_ in chunks)] == supports
            assert all(X.dtype == np.int8 and X.shape == (len(A), n)
                       for _, A, B, _ in chunks for X in (A, B))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("rows", [1, 7, 40])
def test_label_walk_in_small_chunks_keeps_the_reference_order(p, rows, monkeypatch):
    # with a small row budget a support spans several chunks, and chunks
    # split a-groups; the walk, flattened, keeps the reference order
    monkeypatch.setattr(_tables, "_CHUNK_ROWS", rows)
    for n in range(1, 4):
        for w in range(n + 1):
            chunks = list(label_blocks(p, n, w))
            assert all(0 < len(A) <= rows for _, A, *_ in chunks)
            flat = [(a, b) for a, bs in walk_blocks(p, n, w) for b in bs]
            assert flat == reference_labels(p, n, w)
    # the one support of weight 3 spans several chunks, unless its kept rows fit one
    assert (len(chunks) == 1) if (p * p - 1) ** 3 <= rows else (len(chunks) > 1)


@pytest.mark.parametrize("p, w, rows", [(2, 2, 9), (2, 3, 30), (3, 2, 70)])
def test_a_weight_whose_kept_rows_fit_a_chunk_is_decoded_once(p, w, rows, monkeypatch):
    # the p^2w numbers take several decode chunks, but the (p^2 - 1)^w rows
    # kept fit one, which every support shares: one grouping, and the one
    # decode placed on each support
    monkeypatch.setattr(_tables, "_CHUNK_ROWS", rows)
    assert (p * p - 1) ** w <= rows < p ** (2 * w)
    n = w + 2
    chunks = list(label_blocks(p, n, w))
    assert len(chunks) == math.comb(n, w)
    supp0, A0, B0, starts0 = chunks[0]
    for supp, A, B, starts in chunks:
        assert starts is starts0
        for X, X0 in ((A, A0), (B, B0)):
            want = np.zeros_like(X0)
            want[:, supp] = X0[:, supp0]
            assert np.array_equal(X, want)
    flat = [(a, b) for a, bs in walk_blocks(p, n, w) for b in bs]
    assert flat == reference_labels(p, n, w)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("rows", [1, 7, 40])
def test_label_walk_hands_full_rows_and_a_group_starts(p, rows, monkeypatch):
    # A and B are int8 (rows, n), 0 off the support, and starts cuts each
    # chunk at exactly the maximal runs of equal a
    monkeypatch.setattr(_tables, "_CHUNK_ROWS", rows)
    for n in range(1, 4):
        for w in range(n + 1):
            for supp, A, B, starts in label_blocks(p, n, w):
                off = [i for i in range(n) if i not in supp]
                for X in (A, B):
                    assert X.dtype == np.int8 and X.shape == (len(A), n)
                    assert not X[:, off].any()
                a = A.tolist()
                runs = [i for i in range(1, len(a)) if a[i] != a[i - 1]]
                assert starts == [0, *runs, len(a)]


@pytest.mark.parametrize("p", [2, 3, 5, 13])
@pytest.mark.parametrize("rows", [1, 7, 40, 2**16])
def test_support_rows_list_each_shift_once_in_the_walk_order(p, rows):
    # every a with k nonzero digits: supports in combinations order, then the
    # digits on the support lexicographic, in int8 chunks of at most rows rows
    for n in range(1, 5 if p < 13 else 4):
        for k in range(n + 1):
            chunks = list(support_rows(p, n, k, rows))
            assert all(A.dtype == np.int8 and 0 < len(A) <= rows and A.shape[1] == n
                       for A in chunks)
            got = [tuple(a) for A in chunks for a in A.tolist()]
            want = [a for a in itertools.product(range(p), repeat=n)
                    if sum(map(bool, a)) == k]
            want.sort(key=lambda a: ([i for i in range(n) if a[i]], a))
            assert got == want
            assert len(got) == math.comb(n, k) * (p - 1) ** k


def test_support_rows_take_at_least_one_row_a_chunk():
    chunks = list(support_rows(3, 3, 2, 0))
    assert [len(A) for A in chunks] == [1] * 12


# ---------------------------------------------------------------------------
# difference sets of row families


def listed_differences(rows, p: int) -> tuple:
    """(keys, i, j) of _tables.differences from every ordered pair i != j
    in row-major order, each difference keyed by its table index."""
    first = {}
    for i, j in itertools.product(range(len(rows)), repeat=2):
        if i != j:
            delta = [(x - y) % p for x, y in zip(rows[i], rows[j])]
            first.setdefault(digit_index(p, delta), (i, j))
    keys = sorted(first)
    return keys, [first[k][0] for k in keys], [first[k][1] for k in keys]


@pytest.mark.parametrize("p", [2, 3, 5, 13])
@pytest.mark.parametrize("chunk", [None, 1, 7])
def test_differences_match_a_listing_of_every_pair(p, chunk, monkeypatch):
    # K from 1 (no pair) past sqrt(p^n), random rows and the same rows with
    # the first repeated (key 0 from i != j); chunks of 1 or 7 pairs split the rows
    if chunk is not None:
        monkeypatch.setattr(_tables, "_DIFF_PAIRS", chunk)
    gen, sides = rng(p), set()
    for n in (1, 2, 3):
        for K in range(1, min(p**n, 14) + 1):
            rows = gen.integers(0, p, (K, n)).tolist()
            for family in (rows, rows + rows[:1]):
                got = [v.tolist() for v in _tables.differences(family, p)]
                assert got == list(listed_differences(family, p)), (n, family)
                sides.add((len(family) ** 2 > p**n) - (len(family) ** 2 < p**n))
            assert _tables.differences(rows + rows[:1], p)[0][0] == 0
            if K == 1:
                assert _tables.differences(rows, p)[0].size == 0
    assert sides == {-1, 0, 1}


def test_differences_across_the_chunk_size():
    # 600^2 pairs fill two chunks of the real size; most keys of n = 16 are
    # new in the second, and a key both hold keeps the first chunk's pair
    rows = rng(16).integers(0, 2, (600, 16)).tolist()
    assert 600**2 > _tables._DIFF_PAIRS > 600
    keys, i, j = _tables.differences(rows, 2)
    assert [keys.tolist(), i.tolist(), j.tolist()] == list(listed_differences(rows, 2))
    step = _tables._DIFF_PAIRS // 600  # rows in one chunk
    assert (i >= step).any() and (i < step).any()


# ---------------------------------------------------------------------------
# matrices


def test_rank_pinned_cases():
    assert rank(FpMatrix.identity(2, 4)) == 4
    assert rank(FpMatrix.from_rows(3, [[0, 0], [0, 0]])) == 0
    assert rank(FpMatrix.from_rows(2, [[1, 1], [1, 1]])) == 1
    assert rank(FpMatrix.from_rows(5, [[1, 2], [2, 4]])) == 1
    assert rank(FpMatrix.from_rows(5, [[1, 2], [2, 3]])) == 2


def test_rank_invariant_under_shuffles():
    gen = rng(15)
    for _ in range(200):
        p = int(gen.choice([2, 3, 5]))
        r, c = int(gen.integers(1, 6)), int(gen.integers(1, 6))
        M = FpMatrix.from_rows(p, gen.integers(0, p, (r, c)).tolist())
        base = rank(M)
        pr = gen.permutation(r).tolist()
        pc = gen.permutation(c).tolist()
        shuffled = FpMatrix.from_rows(p, [[M.entries[i][j] for j in pc] for i in pr])
        assert rank(shuffled) == base
        assert rank(M.submatrix(pr, pc)) == base


def test_solve_linear_consistent_systems():
    gen = rng(16)
    for _ in range(200):
        p = int(gen.choice([2, 3, 5]))
        r, c = int(gen.integers(1, 6)), int(gen.integers(1, 6))
        M = FpMatrix.from_rows(p, gen.integers(0, p, (r, c)).tolist())
        x = gen.integers(0, p, c).tolist()
        rhs = [sum(M.entries[i][j] * x[j] for j in range(c)) % p for i in range(r)]
        sol = solve_linear(M, rhs)
        assert sol is not None
        got = [sum(M.entries[i][j] * sol.particular[j] for j in range(c)) % p for i in range(r)]
        assert got == rhs
        for v in sol.nullspace:
            assert all(
                sum(M.entries[i][j] * v[j] for j in range(c)) % p == 0 for i in range(r)
            )
        assert rank(M) + len(sol.nullspace) == c
        # any combination of particular + nullspace still solves
        if sol.nullspace:
            coeffs = gen.integers(0, p, len(sol.nullspace)).tolist()
            y = list(sol.particular)
            for cf, v in zip(coeffs, sol.nullspace):
                y = [(yi + cf * vi) % p for yi, vi in zip(y, v)]
            got = [sum(M.entries[i][j] * y[j] for j in range(c)) % p for i in range(r)]
            assert got == rhs


def test_solve_linear_inconsistent():
    M = FpMatrix.from_rows(2, [[1, 1], [1, 1]])
    assert solve_linear(M, [0, 1]) is None
    M3 = FpMatrix.from_rows(3, [[1, 2], [2, 4]])
    assert solve_linear(M3, [1, 0]) is None


def test_matrix_helpers():
    M = FpMatrix.from_rows(3, [[1, 2, 0], [2, 0, 1]])
    assert M.rows == 2 and M.cols == 3
    assert M.row(1) == (2, 0, 1)
    assert M.submatrix([1], [0, 2]).entries == ((2, 1),)
    st = M.hstack(M)
    assert st.cols == 6 and st.row(0) == (1, 2, 0, 1, 2, 0)
    sym = FpMatrix.from_rows(2, [[0, 1], [1, 0]])
    assert sym.is_symmetric() and sym.has_zero_diagonal()
    assert not FpMatrix.from_rows(2, [[1, 1], [1, 0]]).has_zero_diagonal()
    with pytest.raises(InputError):
        FpMatrix.from_rows(2, [[1, 1], [1]])


# ---------------------------------------------------------------------------
# capacities


def test_validate_prime():
    for p in (2, 3, 5, 7, 11, 13):
        assert validate_prime(p) == p
    for bad in (1, 4, 6, 9, 17, 0, -3):
        with pytest.raises(InputError):
            validate_prime(bad)


def test_table_size_caps():
    assert table_size(2, 10) == 1024
    with pytest.raises(CapacityError):
        table_size(2, 30)
    with pytest.raises(CapacityError):
        table_size(13, 10)
    with pytest.raises(CapacityError):
        table_size(2, 10**18)  # refused before p^n is formed
    with pytest.raises(InputError):
        table_size(2, -1)


def full_row_eliminate(rows: list, p: int) -> list:
    """Gauss-Jordan reduction that updates every entry of every row it
    touches; the pivot columns, with the rows reduced in place."""
    pivots, r = [], 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r:
                rows[i] = [(x - rows[i][c] * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_eliminate_from_the_pivot_column_matches_full_rows(p):
    # the rows reduced from each pivot column on are the full-row reduction's,
    # their count of pivots is the reference rank, and solve_linear agrees
    # with the ranks of the matrix and of its augmented form
    gen = rng(60 + p)
    for _ in range(150):
        r, c = int(gen.integers(1, 8)), int(gen.integers(1, 8))
        inner = int(gen.integers(1, max(r, c) + 1))  # products of low rank too
        M = gen.integers(0, p, (r, inner)) @ gen.integers(0, p, (inner, c)) % p
        rows, want = M.tolist(), M.tolist()
        pivots = fp_algebra._eliminate(rows, p)
        assert pivots == full_row_eliminate(want, p) and rows == want
        assert len(pivots) == reference_rank(M.tolist(), p)
        rhs = gen.integers(0, p, r).tolist() if gen.integers(0, 2) else (
            M @ gen.integers(0, p, c) % p).tolist()
        sol = solve_linear(FpMatrix.from_rows(p, M.tolist()), rhs)
        augmented = [row + [v] for row, v in zip(M.tolist(), rhs)]
        assert (sol is None) == (reference_rank(augmented, p) > len(pivots))
        if sol is not None:
            assert (M @ np.array(sol.particular) % p).tolist() == rhs
            assert len(sol.nullspace) == c - len(pivots)
            assert not (M @ np.array(sol.nullspace, dtype=np.int64).reshape(-1, c).T % p).any()
