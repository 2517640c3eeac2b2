"""The table index layout against plain digit arithmetic: x_1 is the most
significant digit of index(x) = sum_i x_i p^(n-i), for every prime the
package takes, with the zero vector among the linear forms and shifts. The
two maps between digit rows and indices hold to Horner's rule, the
difference set's keys are their forward map, and the walk's order key
increases along the label walk."""
import itertools

import numpy as np
import pytest

from conftest import digit_index, random_function
from lfqec import LogicFunction, _tables, weight_support
from lfqec._tables import (
    differences,
    digit_axis,
    index_rows,
    index_vectors,
    label_at,
    label_blocks,
    label_order,
    least_label,
    linear_values,
    shifted,
    shifted_indices,
    support_index,
    table_index,
)

CASES = [(2, 1), (2, 6), (3, 4), (3, 7), (5, 3), (7, 3), (11, 2), (13, 2), (13, 3)]


def vectors(gen, p: int, n: int) -> list:
    """The zero vector, the all-(p-1) vector and random ones."""
    return [(0,) * n, (p - 1,) * n] + [tuple(gen.integers(0, p, n).tolist()) for _ in range(20)]


@pytest.mark.parametrize("p, n", CASES)
def test_layout_matches_digit_arithmetic(gen, p, n):
    xs = list(itertools.product(range(p), repeat=n))
    N = p**n
    assert [digit_index(p, x) for x in xs] == list(range(N))
    assert index_vectors(p, n, np.arange(N)) == xs
    assert index_vectors(p, n, []) == []
    assert table_index(p, np.array(xs).reshape(N, n)).tolist() == list(range(N))
    grid = np.zeros((p,) * n, dtype=np.int64)
    for i in range(n):
        assert (grid + digit_axis(p, n, i)).reshape(-1).tolist() == [x[i] for x in xs]
    for v in vectors(gen, p, n):
        want = [sum(vi * xi for vi, xi in zip(v, x)) % p for x in xs]
        assert linear_values(p, n, v).tolist() == want
        moved = [digit_index(p, [(xi + vi) % p for xi, vi in zip(x, v)]) for x in xs]
        assert shifted_indices(p, n, v).tolist() == moved
        values = gen.permutation(N)
        rolled = [values[digit_index(p, [(xi - vi) % p for xi, vi in zip(x, v)])] for x in xs]
        assert shifted(values, p, n, v).tolist() == rolled
    assert linear_values(p, n, (0,) * n).tolist() == [0] * N


@pytest.mark.parametrize("p, n", CASES)
def test_function_reads_follow_the_layout(gen, p, n):
    f = random_function(gen, p, n)
    xs = list(itertools.product(range(p), repeat=n))
    M, support = weight_support(f)
    want = [x for x in xs if f.table[digit_index(p, x)]]
    assert (M, support) == (len(want), want)
    assert weight_support(LogicFunction(p, n, np.zeros(p**n, dtype=np.int64))) == (0, [])
    # repeated variables are powers, () is the constant
    monos = [tuple(sorted(gen.integers(0, n, int(gen.integers(0, 4))).tolist())) for _ in range(8)]
    terms = [(int(gen.integers(1, p)), m) for m in monos if all(m.count(v) < p for v in m)]
    g = LogicFunction(p, n, anf=terms)
    want = [sum(c * int(np.prod([x[v] for v in m])) for c, m in terms) % p for x in xs]
    assert g.table.tolist() == want


@pytest.mark.parametrize("p, n", CASES)
def test_the_two_maps_follow_horners_rule(gen, p, n):
    xs = np.array(list(itertools.product(range(p), repeat=n))).reshape(p**n, n)
    want = [digit_index(p, x) for x in xs.tolist()]
    dtypes = [np.int8, np.uint8, np.int64, np.uint64] + [bool] * (p == 2)
    for dtype in dtypes:
        idx = table_index(p, xs.astype(dtype))
        assert idx.dtype == np.int64 and idx.tolist() == want
    assert np.array_equal(index_rows(p, n, want), xs)
    # stacked (rows, K, n) digit rows map entry by entry, and back
    rows = gen.integers(0, p, size=(3, 5, n)).astype(np.int8)
    idx = table_index(p, rows)
    assert idx.shape == (3, 5)
    assert idx.tolist() == [[digit_index(p, x) for x in block] for block in rows.tolist()]
    assert np.array_equal(index_rows(p, n, idx), rows)
    assert index_rows(p, n, []).shape == (0, n)


@pytest.mark.parametrize("p, n", CASES)
def test_support_index_reads_the_digits_on_the_support(p, n):
    xs = list(itertools.product(range(p), repeat=n))
    grid = np.zeros((p,) * n, dtype=np.int64)
    for w in range(n + 1):
        for supp in itertools.combinations(range(n), w):
            got = (grid + support_index(p, n, list(supp))).reshape(-1).tolist()
            assert got == [digit_index(p, [x[s] for s in supp]) for x in xs]


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_difference_keys_are_the_forward_map_of_their_first_pair(gen, p):
    n = 4 if p < 13 else 3
    rows = gen.integers(0, p, size=(9, n))
    rows[5] = rows[2]  # a repeated row: L_2 - L_5 = 0 is a key
    keys, first = differences(rows, p)
    K = len(rows)
    pairs = [(i, j) for i in range(K) for j in range(K) if i != j]
    deltas = table_index(p, np.array([(rows[i] - rows[j]) % p for i, j in pairs]))
    assert keys.tolist() == sorted(set(deltas.tolist()))
    for key, at in zip(keys.tolist(), first.tolist()):
        i, j = divmod(at, K)
        assert (i, j) == pairs[deltas.tolist().index(key)]  # the first pair in row-major order
        assert table_index(p, (rows[i] - rows[j]) % p) == key


def walked_keys(p: int, n: int) -> list:
    """label_order's (major, minor) of every label, in label_blocks' order;
    label_at decodes each key back to its (w, a, b)."""
    keys = []
    for w in range(1, n + 1):
        for _, A, B, _ in label_blocks(p, n, w):
            block = list(zip(*(key.tolist() for key in label_order(p, A, B))))
            assert [label_at(p, n, key) for key in block] == [
                (w, tuple(a), tuple(b)) for a, b in zip(A.tolist(), B.tolist())]
            keys += block
    return keys


ORDER_CASES = [(p, n) for p in (2, 3, 5) for n in range(1, 5) if (p, n) != (5, 4)]


@pytest.mark.parametrize("p, n", ORDER_CASES + [(5, 4)])
def test_the_order_key_increases_along_the_walk(p, n):
    keys = walked_keys(p, n)
    assert len(keys) == p ** (2 * n) - 1
    assert all(k < k_next for k, k_next in zip(keys, keys[1:]))
    zero = np.zeros(n, dtype=np.int8)
    assert tuple(map(int, label_order(p, zero, zero))) > keys[-1]  # (0, 0) is no label


@pytest.mark.parametrize("p, n", ORDER_CASES)
def test_the_order_key_increases_across_small_chunks(monkeypatch, p, n):
    monkeypatch.setattr(_tables, "_CHUNK_ROWS", 5)
    keys = walked_keys(p, n)
    assert len(keys) == p ** (2 * n) - 1
    assert all(k < k_next for k, k_next in zip(keys, keys[1:]))


@pytest.mark.parametrize("p, n", [(2, 5), (3, 4), (13, 3)])
def test_least_label_is_the_least_key_of_a_label(gen, p, n):
    # rows A (r, 1, n) against B (r, m, n), as the character-sum search holds
    # them, with (0, 0) among them; a best key below every row's is kept
    for _ in range(20):
        A = gen.integers(0, p, size=(4, 1, n)) * (gen.random((4, 1, 1)) < 0.7)
        B = gen.integers(0, p, size=(4, 3, n)) * (gen.random((4, 3, 1)) < 0.5)
        A[0], B[0, 0] = 0, 0
        major, minor = label_order(p, *np.broadcast_arrays(A, B))
        real = (A != 0).any(axis=-1) | (B != 0).any(axis=-1)  # (4, 3): not (0, 0)
        keys = sorted(zip(major[real].tolist(), minor[real].tolist()))
        assert least_label(p, A, B) == keys[0]
        assert least_label(p, A, B, keys[-1]) == keys[0]
        assert least_label(p, A, B, (1, 0)) == (1, 0)
    zero = np.zeros((2, 1, n), dtype=np.int64)
    assert least_label(p, zero, zero) is None
    assert least_label(p, zero, zero, (1, 0)) == (1, 0)
