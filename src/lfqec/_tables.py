"""Shared index arithmetic for dense truth tables over F_p^n.

Vectors x = (x_1, ..., x_n) map to table index sum_i x_i * p^(n-i), so x_1 is
the most significant digit. All caches return read-only arrays; callers must
copy before mutating.
"""
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def digit_table(p: int, n: int) -> np.ndarray:
    """(p^n, n) array whose row idx is the vector with that index."""
    N = p**n
    idx = np.arange(N)
    out = np.empty((N, n), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        out[:, i] = idx % p
        idx = idx // p
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def place_values(p: int, n: int) -> np.ndarray:
    """Digit weights (p^(n-1), ..., p, 1), matching digit_table rows."""
    out = np.array([p ** (n - 1 - i) for i in range(n)], dtype=np.int64)
    out.setflags(write=False)
    return out


def index_of(p: int, n: int, x) -> int:
    return int(np.asarray(x, dtype=np.int64) @ place_values(p, n))


def vector_at(p: int, n: int, idx: int) -> tuple:
    return tuple(int(v) for v in digit_table(p, n)[idx])


# Each entry is a p^n index array. Label walks keep the a-part outside the
# b-part, so consecutive calls share one shift: a few entries keep those hits
# while bounding the memory, and a miss is one roll.
SHIFT_CACHE_SIZE = 8


@lru_cache(maxsize=SHIFT_CACHE_SIZE)
def _shift_cache(p: int, n: int, a: tuple) -> np.ndarray:
    """On the index grid with one axis per digit, x + a is a cyclic roll by
    -a_i along each axis i where a_i is nonzero."""
    supp = tuple(i for i, v in enumerate(a) if v)
    grid = np.arange(p**n).reshape((p,) * n)
    out = np.roll(grid, tuple(-a[i] for i in supp), axis=supp).ravel()
    out.setflags(write=False)
    return out


def shifted_indices(p: int, n: int, a) -> np.ndarray:
    """Index of x + a for every x, as an array over table indices."""
    return _shift_cache(p, n, tuple(int(v) % p for v in a))
