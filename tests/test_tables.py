"""The table index layout against plain digit arithmetic: x_1 is the most
significant digit of index(x) = sum_i x_i p^(n-i), for every prime the
package takes, with the zero vector among the linear forms and shifts."""
import itertools

import numpy as np
import pytest

from conftest import digit_index, random_function
from lfqec import LogicFunction, weight_support
from lfqec._tables import (
    digit_axis,
    index_vectors,
    linear_values,
    shifted,
    shifted_indices,
    vector_index,
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
    assert all(vector_index(p, n, x) == idx for idx, x in enumerate(xs))
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
