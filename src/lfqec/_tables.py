"""The index layout shared by every table over F_p^n, and the index
algebra on it: the label walk and the difference set of a row family.

A table is a flat array of length p^n whose entry for x = (x_1, ..., x_n)
sits at index sum_i x_i * p^(n-i), so x_1 is the most significant digit.
That is the C-order ravel of an array on the grid (p,)*n whose axis i
carries the digit x_(i+1). Every helper here works on that grid: a digit is
one broadcast axis, a linear form is a sum of them and a shift is a roll, so
no helper forms a table of all p^n * n digits. `shifted` is the one roll.
Digit rows and indices convert here alone: `table_index` maps rows to
indices, `index_rows` maps indices back to rows (`index_vectors` as tuples),
and `support_index` gives index(x_S) on the axes of a support S.

Labels (a|b) and row families are int8 rows of digits. `label_blocks` walks
the labels of one weight as rows grouped by a, in `label_order`, the one
order key, whose least `least_label` keeps and `label_at` decodes;
`support_rows` lists the X-parts a by their number of nonzero digits, and
`differences` forms {L_i - L_j} of a family as table indices, in bounded
memory. The character-sum search and the oracle share them; their
predicates stay apart.
"""
import itertools

import numpy as np

_CHUNK_ROWS = 2**16  # numbers the label walk decodes at once, so rows in one of its chunks
_DIFF_PAIRS = 2**18  # pairs (i, j) one row chunk of `differences` keys at once
# b^62, ..., b, 1 for every base b a digit row is read in, a prime p or p - 1;
# exact where b^e < 2^63, as is every place value of a table under the cap
_POWERS = np.arange(14)[:, None] ** np.arange(62, -1, -1)
_POWERS.setflags(write=False)


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


def _places(p: int, n: int) -> np.ndarray:
    """The place values p^(n-1), ..., p, 1 of n base-p digits, a read-only view."""
    return _POWERS[p, _POWERS.shape[1] - n :]


def table_index(p: int, rows) -> np.ndarray:
    """The int64 table indices of an integer or bool array of digit rows (..., n)."""
    return np.matmul(rows, _places(p, rows.shape[-1]), dtype=np.int64)


def index_rows(p: int, n: int, idx) -> np.ndarray:
    """The int64 digit rows (..., n) at the given table indices."""
    return np.asarray(idx, dtype=np.int64)[..., None] // _places(p, n) % p


def support_index(p: int, n: int, supp) -> np.ndarray:
    """index(x_S) for every x, S ascending: S's axes in C order, broadcast over the grid."""
    return np.arange(p ** len(supp)).reshape([p if i in supp else 1 for i in range(n)])


def index_vectors(p: int, n: int, idx) -> list:
    """The vectors at the given table indices, as tuples of Python ints."""
    return list(map(tuple, index_rows(p, n, idx).tolist()))


def shifted(values: np.ndarray, p: int, n: int, a) -> np.ndarray:
    """values[x - a] for every x: the one grid roll, by a_i along each axis i."""
    axes = tuple(i for i, v in enumerate(a) if v % p)
    return np.roll(values.reshape((p,) * n), tuple(int(a[i]) for i in axes), axis=axes).reshape(-1)


def shifted_indices(p: int, n: int, a) -> np.ndarray:
    """Index of x + a for every x, as an array over table indices."""
    return shifted(np.arange(p**n), p, n, [-int(v) for v in a])


def label_blocks(p: int, n: int, w: int):
    """All labels of symplectic weight w in the fixed order, along which
    label_order increases: support, then a, then b, each lexicographic, as
    (supp, A, B, starts) per chunk. A and B are int8 rows (rows, n) holding a
    and b, 0 off supp, decoded from the 2w base-p digits of up to _CHUNK_ROWS
    numbers less those with a_k = b_k = 0; rows starts[i]:starts[i + 1] share
    their a, and starts runs 0 .. rows. Weights whose rows fit one chunk decode once."""
    digits = index_rows(p, w, np.arange(p**w)).astype(np.int8)  # row i: i in base p

    def chunk(lo):
        a, b = np.divmod(np.arange(lo, min(lo + _CHUNK_ROWS, p ** (2 * w))), p**w)
        keep = (digits[a] | digits[b]).all(axis=1)
        return digits[np.stack((a[keep], b[keep]))]  # (2, rows, w): the a_S and b_S rows

    def grouped(AB):
        cut = (AB[0, 1:] != AB[0, :-1]).any(axis=1).nonzero()[0] + 1
        return AB, [0, *cut.tolist(), AB.shape[1]]

    numbers = range(0, p ** (2 * w), _CHUNK_ROWS)
    fits = (p * p - 1) ** w <= _CHUNK_ROWS  # then decoded chunk by chunk and grouped once
    whole = [grouped(np.concatenate(list(map(chunk, numbers)), axis=1))] if fits else None
    for supp in map(list, itertools.combinations(range(n), w)):
        for AB, starts in whole or (grouped(AB) for AB in map(chunk, numbers) if AB.shape[1]):
            full = np.zeros((2, AB.shape[1], n), dtype=np.int8)
            full[..., supp] = AB
            yield supp, *full, starts


def label_order(p: int, A, B) -> tuple:
    """The key (major, minor) of the labels (a|b) in the broadcasting rows A
    and B, compared as pairs, that increases along label_blocks over weights
    1..n. Supports come as their masks (x_1 the top bit) descend, so major =
    w 2^n + 2^n - 1 - mask, and minor = index(a) p^n + index(b). (0, 0),
    which is no label, has major (n + 1) 2^n, past every label's."""
    return _major(A, B), _minor(p, A, B)


def _major(A, B) -> np.ndarray:
    held = (A != 0) | (B != 0)
    n, w = held.shape[-1], held.sum(axis=-1)
    return np.where(w > 0, (w << n) + ((1 << n) - 1 - table_index(2, held)), (n + 1) << n)


def _minor(p: int, A, B) -> np.ndarray:
    return table_index(p, A) * p ** A.shape[-1] + table_index(p, B)


def least_label(p: int, A, B, best=None):
    """min(best, the least label_order key of a label in the broadcasting rows
    A and B) as a pair of ints, or None if neither has one. Minors are formed
    only on the rows of the least major, and only if it is at most best's."""
    A, B = np.broadcast_arrays(A, B)
    major, n = _major(A, B), A.shape[-1]
    lo = int(major.min())
    if lo >> n > n or best and lo > best[0]:  # (0, 0) alone, or no major below best's
        return best
    key = (lo, int(_minor(p, A[major == lo], B[major == lo]).min()))
    return min(best or key, key)


def label_at(p: int, n: int, key) -> tuple:
    """(w, a, b) of the label whose label_order key is key, a and b as tuples."""
    return (key[0] >> n, *index_vectors(p, n, divmod(key[1], p**n)))


def support_rows(p: int, n: int, k: int, rows: int):
    """Every a in F_p^n with exactly k nonzero digits: supports in the walk's
    order, then the digits on a support lexicographic, as int8 rows (r, n)
    in chunks of at most max(rows, 1) rows. k = 0 gives the zero row."""
    per, rows = (p - 1) ** k, max(rows, 1)  # digit rows of one support
    supports = itertools.combinations(range(n), k)
    while batch := list(itertools.islice(supports, max(rows // per, 1))):
        cols = np.fromiter(itertools.chain(*batch), np.intp).reshape(len(batch), 1, k)
        for lo in range(0, per, rows):
            digits = 1 + index_rows(p - 1, k, np.arange(lo, min(lo + rows, per)))
            out = np.zeros((len(batch), len(digits), n), dtype=np.int8)
            out[np.arange(len(batch))[:, None, None], np.arange(len(digits))[:, None], cols] = digits
            yield out.reshape(-1, n)


def differences(rows, p: int):
    """(keys, first) for the (K, n) rows L of a family over F_p: the ascending
    table indices of L_i - L_j over i != j, each with its first pair (i, j) in
    row-major order as i K + j. Row chunks of about _DIFF_PAIRS pairs are keyed
    key * size + place and sorted, and each chunk's new keys join the running
    set: memory is |D| <= min(K^2, p^n) keys plus one chunk."""
    L = (np.array(rows, dtype=np.int64) % p).astype(np.int8)  # digit passes over int8
    (K, n), keys, first = L.shape, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    assert p**n * max(K, _DIFF_PAIRS) < 2**63, "key * size + place fits int64"
    for lo in range(0, K, step := max(1, _DIFF_PAIRS // K)):
        i = np.arange(lo, min(lo + step, K))
        key = np.zeros((len(i), K), dtype=np.int64)
        for col in L.T:
            key *= p
            key += np.subtract.outer(col[i], col) % p
        size = key.size  # key * size + place sorts the chunk by key, then by pair
        key = key * size + np.arange(size).reshape(key.shape)
        key = np.sort(key[i[:, None] != np.arange(K)])  # the pairs i != j
        new, at = np.unique(key // size, return_index=True)
        place = lo * K + key[at] % size
        at = np.searchsorted(keys, new)
        fresh = at == np.searchsorted(keys, new, side="right")  # not yet in keys
        keys, first = (np.insert(v, at[fresh], w[fresh]) for v, w in ((keys, new), (first, place)))
    return keys, first
