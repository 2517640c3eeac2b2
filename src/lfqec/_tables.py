"""The index layout shared by every table over F_p^n.

A table is a flat array of length p^n whose entry for x = (x_1, ..., x_n)
sits at index sum_i x_i * p^(n-i), so x_1 is the most significant digit.
That is the C-order ravel of an array on the grid (p,)*n whose axis i
carries the digit x_(i+1). Every helper here works on that grid: a digit is
one broadcast axis, a linear form is a sum of them and a shift is a roll, so
no helper forms a table of all p^n * n digits. This module is the only one
that converts between indices and vectors, and `shifted` is the one roll.
"""
import numpy as np


def digit_axis(p: int, n: int, i: int) -> np.ndarray:
    """The digit x_(i+1) on the grid: arange(p) shaped onto axis i, so it
    broadcasts against any array of shape (p,)*n."""
    return np.arange(p, dtype=np.int64).reshape((1,) * i + (p,) + (1,) * (n - 1 - i))


def linear_values(p: int, n: int, b) -> np.ndarray:
    """b.x mod p for every table index. The form is summed on the axes of
    the support of b, p^|supp b| entries, and then spread over the grid."""
    form = np.int64(0)
    for i, v in enumerate(b):
        if v % p:
            form = (form + digit_axis(p, n, i) * v) % p
    out = np.empty((p,) * n, dtype=np.int64)
    out[...] = form
    return out.reshape(-1)


def index_vectors(p: int, n: int, idx) -> list:
    """The vectors at the given table indices, as tuples of Python ints."""
    digits = np.unravel_index(np.asarray(idx, dtype=np.int64), (p,) * n)
    return list(zip(*(d.tolist() for d in digits)))


def vector_index(p: int, n: int, x) -> int:
    """The table index of the vector x, whose entries must lie in 0..p-1."""
    return int(np.ravel_multi_index(tuple(int(v) for v in x), (p,) * n))


def shifted(values: np.ndarray, p: int, n: int, a) -> np.ndarray:
    """values[x - a] for every x: the one grid roll, by a_i along each axis i."""
    axes = tuple(i for i, v in enumerate(a) if v % p)
    return np.roll(values.reshape((p,) * n), tuple(int(a[i]) for i in axes), axis=axes).reshape(-1)


def shifted_indices(p: int, n: int, a) -> np.ndarray:
    """Index of x + a for every x, as an array over table indices."""
    return shifted(np.arange(p**n), p, n, [-int(v) for v in a])
