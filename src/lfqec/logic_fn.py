"""Logic functions F_p^n -> F_p: truth tables, algebraic normal form,
character autocorrelation, APC distance, the zero-product shift set, bent
detection, and the coboundary solver that recovers quadratic functions from
difference constraints.

One label search gives `apc_distance` (one zero shift) and coset distances:
f of degree <= 2 has its first nonvanishing sum read off (a, delta), any
other f walks the labels on its table. One in-place Walsh route gives the
p = 2 quantities: the zero-product shift set is the zero set of the support
indicator's autocorrelation, and bent detection reads the spectrum of the
signs (-1)^f.

Truth tables are int64 arrays of length p^n in the layout of `_tables`, the
grid (p,)*n with one axis per variable, on which monomials, linear forms and
shifts are evaluated by broadcasting. ANF monomials are sorted tuples of
0-based variable indices with repetition as exponent; () is the constant
monomial. A canonical ANF has nonzero reduced coefficients, exponents below
p and its terms in (degree, monomial) order. A `_Canonical` asserts it, made
only by `_canonical_terms` and `affine_family` (see there).
"""
from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from ._tables import differences, index_rows, index_vectors, label_at, label_blocks
from ._tables import least_label, linear_values, shifted, support_index, support_rows
from ._textfile import anf_terms
from .errors import CapacityError, InputError
from .fp_algebra import CycloInt, FpMatrix, MAX_TABLE, PauliLabel, _Slotted, check_listing, rank
from .fp_algebra import solve_linear, table_size


class LogicFunction(_Slotted):
    """Held as its truth table (a `tt:` input) or as its ANF (every builder),
    never both. The ANF is an iterable of (coeff, monomial) terms whose
    exponents are already below p; here its coefficients are reduced mod p,
    zero terms dropped and the rest put in canonical order, unless it is a
    `_Canonical` for this (p, n), which has had all that done. `values` is
    the table when the function is held as one, `anf` ((coeff, monomial), ...)."""

    __slots__ = ("p", "n", "values", "anf")

    def __init__(self, p: int, n: int, values=None, anf=None):
        N = table_size(p, n)
        if (values is None) == (anf is None):
            raise InputError("a logic function holds either its table or its ANF")
        if anf is not None:
            if not (isinstance(anf, _Canonical) and anf.field == (p, n)):
                anf = _canonical_terms(p, n, anf)
        else:
            values = np.array(values, dtype=np.int64)  # the one copy, reduced in place
            values %= p
            if values.shape != (N,):
                raise InputError(f"table must have {N} entries, got shape {values.shape}")
            values.setflags(write=False)
        self.p, self.n, self.values, self.anf = p, n, values, anf

    @property
    def table(self) -> np.ndarray:
        """The held table, or the ANF expanded anew on each read, so a caller
        reads it once. The coefficients are scattered onto the exponent grid,
        one axis a variable and one entry longer than its largest exponent,
        and evaluated by _per_axis with V[x][m] = x^m (0^0 = 1)."""
        if self.values is not None:
            return self.values
        p, n = self.p, self.n
        monos = [m for _, m in self.anf]
        lens = np.fromiter(map(len, monos), dtype=np.int64, count=len(monos))
        var = np.fromiter(itertools.chain.from_iterable(monos), dtype=np.int64)
        term = np.repeat(np.arange(len(monos)), lens)
        # a monomial lists its variables in order, so an exponent is a run of equal keys
        starts = np.flatnonzero(np.diff(term * n + var, prepend=-1))
        shape = np.ones(n, dtype=np.int64)
        np.maximum.at(shape, var[starts], np.diff(starts, append=len(var)) + 1)
        grid = np.zeros(shape.tolist(), dtype=np.uint8)  # one byte an entry: strides count entries
        flat = np.bincount(term, weights=np.array(grid.strides)[var], minlength=len(monos))
        grid.reshape(-1)[flat.astype(np.int64)] = [c for c, _ in self.anf]
        values = _per_axis(grid, [[pow(x, m, p) for m in range(p)] for x in range(p)], p)
        return np.broadcast_to(values, (p,) * n).astype(np.int64, order="C").reshape(-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogicFunction) or (self.p, self.n) != (other.p, other.n):
            return False
        return bool(np.array_equal(self.table, other.table))


class _Canonical(tuple):
    """Canonical terms and the field (p, n) they are canonical for, which
    LogicFunction takes unchecked; a copy or an unpickled one keeps its field."""

    def __new__(cls, terms, field: tuple = ()):
        self = super().__new__(cls, terms)
        self.field = field
        return self


def _canonical_terms(p: int, n: int, terms) -> _Canonical:
    acc: dict = {}
    for coeff, mono in ((c, tuple(sorted(int(v) for v in m))) for c, m in terms):
        acc[mono] = (acc.get(mono, 0) + int(coeff)) % p
    for mono in acc:  # each distinct monomial once, in the order it first appears
        if mono and (mono[0] < 0 or mono[-1] >= n):  # sorted: its ends bound its range
            raise InputError(f"variable index out of range in monomial {mono}")
        for v in set(mono):
            if mono.count(v) >= p:
                raise InputError(f"exponent of x{v + 1} must be < p in ANF")
    terms = sorted(acc.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return _Canonical(((c, m) for m, c in terms if c != 0), (p, n))


# ---------------------------------------------------------------------------
# ANF text (the syntax is read by `_textfile`)


def parse_anf(text: str, p: int, n: int) -> LogicFunction:
    """Parse a polynomial in x1..xn (aliases y1..yn) into a LogicFunction
    held as its reduced ANF."""
    return LogicFunction(p, n, anf=anf_terms(text, p, n))


def _per_axis(grid: np.ndarray, M: list, p: int) -> np.ndarray:
    """The p x p matrix M applied mod p along every axis of the uint8 grid:
    new[x] = sum_k M[x][k] old[k] over the slabs of one axis. An axis of
    length L < p reads M's first L columns and grows to p; one of length 1 is
    left to broadcast. At p > 2 a pass sums over the slabs of the last axis,
    reduces the sums mod p by table lookup and puts the new axis first."""
    assert p * (p - 1) ** 2 < 2**16, "uint16 sums of p products are exact: 1872 at p = 13"
    if p == 2:  # M = [[1, 0], [1, 1]]: slab 0 stays, so slab 1 sums in place, the Moebius XOR
        for axis, L in enumerate(grid.shape):
            if L == 2:
                rows = grid.reshape(math.prod(grid.shape[:axis]), 2, -1)
                rows[:, 1] ^= rows[:, 0]
        return grid
    cols = np.array(M, dtype=np.uint8).T[:, :, None]  # cols[k]: column k of M, shaped (p, 1)
    residue = (np.arange(p * (p - 1) ** 2 + 1) % p).astype(np.uint8)
    for _ in range(grid.ndim):
        rows = np.ascontiguousarray(grid.reshape(-1, grid.shape[-1]).T)  # slabs of the last axis
        if len(rows) > 1:
            acc = (cols[0] * rows[0]).astype(np.uint16)
            for k in range(1, len(rows)):
                acc += cols[k] * rows[k]  # a uint8 product: at most (p-1)^2
            rows = np.take(residue, acc)
        grid = rows.reshape(rows.shape[:1] + grid.shape[:-1])
    return grid


def _anf_terms(f: LogicFunction, max_deg: int | None = None) -> tuple | None:
    """The reduced ANF of f, f.anf or else interpolated from the table; None
    if a monomial has degree above max_deg. Along each axis the coefficients
    are c_0 = v(0) and c_m = -sum_x x^(p-1-m) v(x) for 1 <= m <= p-1, the
    expansion of sum_a v(a) (1 - (x-a)^(p-1)), which is 1 at x = a only."""
    if f.anf is not None:
        return f.anf if max_deg is None or all(len(m) <= max_deg for _, m in f.anf) else None
    p, n = f.p, f.n
    W = [[1] + [0] * (p - 1)] + [[-pow(x, p - 1 - m, p) % p for x in range(p)] for m in range(1, p)]
    grid = _per_axis(f.table.astype(np.uint8).reshape((p,) * n), W, p)
    if max_deg is not None and np.count_nonzero(grid) > math.comb(n + max_deg, max_deg):
        return None  # more terms than monomials of degree <= max_deg: list none of them
    exps = np.argwhere(grid)  # the exponent vectors of the nonzero coefficients
    deg = exps.sum(axis=1)
    if max_deg is not None and (deg > max_deg).any():
        return None  # before one tuple per term is built
    # canonical order: by degree, then by monomial tuple; within one degree
    # the tuples ascend as the exponent vectors, and so their indices, descend
    order = np.lexsort((-np.arange(len(deg)), deg))
    exps, deg = exps[order], deg[order]
    coeffs = grid[tuple(exps.T)].tolist()
    terms = []
    cuts = np.flatnonzero(np.diff(deg, prepend=-1)).tolist() + [len(deg)]  # runs of one degree
    for lo, hi in zip(cuts, cuts[1:]):
        d = int(deg[lo])
        monos = np.repeat(np.tile(np.arange(n), hi - lo), exps[lo:hi].ravel())
        terms += zip(coeffs[lo:hi], map(tuple, monos.reshape(hi - lo, d).tolist()))
    return tuple(terms)


def anf_text(f: LogicFunction) -> str:
    """Canonical ANF string, e.g. 'x1*x2 + 2*x3 + 1'; interpolated from the
    table when f carries no ANF."""
    terms = _anf_terms(f)
    if not terms:
        return "0"
    names = [f"x{v + 1}" for v in range(f.n)]
    parts = []
    for coeff, mono in terms:
        if len(set(mono)) == len(mono):  # every exponent 1, as always at p = 2
            factors = "*".join([names[v] for v in mono])
        else:  # a power, which needs p > 2
            factors = "*".join(f"{names[v]}^{mono.count(v)}".removesuffix("^1")
                               for v in sorted(set(mono)))
        parts.append(f"{coeff}*{factors}" if factors and coeff != 1 else factors or str(coeff))
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# constructors used by the code builders; affine_family extends a held canonical
# ANF, and so is the one maker of a `_Canonical` besides `_canonical_terms`


def quadratic_form(A: FpMatrix) -> LogicFunction:
    """f(x) = sum_{i<j} A_ij x_i x_j for symmetric zero-diagonal A."""
    if not A.is_symmetric():
        raise InputError("matrix must be symmetric")
    if not A.has_zero_diagonal():
        raise InputError("matrix must have zero diagonal")
    n = A.rows
    terms = [(A.entries[i][j], (i, j)) for i in range(n) for j in range(i + 1, n)]
    return LogicFunction(A.p, n, anf=terms)


def affine_family(f: LogicFunction, rows, consts=None) -> list:
    """g_j(x) = f(x) + L_j . x + c_j for the (K, n) rows L_j and constants c_j
    (0 when consts is None), held as f is. An ANF member is the merged affine
    prefix, the constant then x_1 .. x_n, before f's own degree >= 2 terms:
    canonical order puts affine terms first, so no member is re-sorted."""
    p, n = f.p, f.n
    rows = [[int(v) % p for v in row] for row in rows]
    consts = [0] * len(rows) if consts is None else [int(c) for c in consts]
    if any(len(row) != n for row in rows) or len(consts) != len(rows):
        raise InputError(f"each affine row needs {n} entries and one constant")
    if f.anf is None:
        return [LogicFunction(p, n, f.values + linear_values(p, n, row) + c)
                for row, c in zip(rows, consts)]
    lo = sum(len(m) < 2 for _, m in f.anf)  # canonical order: the affine terms lead
    base = [0] * (n + 1)  # f's constant, then its coefficient of each x_j
    for c, m in f.anf[:lo]:
        base[m[0] + 1 if m else 0] = c
    monos, tail, family = [()] + [(j,) for j in range(n)], f.anf[lo:], []
    for row, c in zip(rows, consts):
        coeffs = [(b + r) % p for b, r in zip(base, [c, *row])]
        prefix = [(v, m) for v, m in zip(coeffs, monos) if v]
        family.append(LogicFunction(p, n, anf=_Canonical(itertools.chain(prefix, tail), (p, n))))
    return family


def add_affine(f: LogicFunction, beta, c: int = 0) -> LogicFunction:
    """g(x) = f(x) + beta . x + c, held in the form f is held in: one member."""
    return affine_family(f, [beta], [c])[0]


def weight_support(f: LogicFunction):
    """(M, support): count and index-ordered list of x with f(x) != 0."""
    idx = np.flatnonzero(f.table)
    return len(idx), index_vectors(f.p, f.n, idx)


# ---------------------------------------------------------------------------
# character sums


def _first_nonvanishing(f: LogicFunction, betas) -> tuple:
    """(w, a, b): the first label, in increasing weight and label_blocks
    order, at which some shift pair (beta_i, beta_j), i = j included, makes
    the sum at (a, b + beta_i - beta_j) nonzero; i = j is the sum
    sum_x zeta^(f(x) - f(x-a) + b.x), and a full-support row never vanishes.
    D = _tables.differences of the shifts, which are pairwise distinct, so
    D u {0} is D after 0. The route goes by degree alone: f of degree
    <= 2 has the label read off (a, delta), any other f walks its table.
    Refused before the keys: K^2 over the listing budget, and K p^n over the
    table cap where K tables are built (the walk's, or a table-held f's basis)."""
    p, n, K = f.p, f.n, len(betas)
    check_listing(K * K, f"K^2 = {K * K} shift pairs")
    terms = _anf_terms(f, max_deg=2)
    if (terms is None or f.anf is None) and (entries := K * p**n) > MAX_TABLE:
        raise CapacityError(f"K p^n = {entries} shift table entries exceed the cap {MAX_TABLE}")
    keys, first = differences(betas, p)
    if terms is not None:
        return _quadratic_first(p, n, terms, index_rows(p, n, np.append(0, keys)))
    return _walked_first(f, betas, [divmod(k, K) for k in first.tolist()])


def _symmetric_form(p: int, n: int, terms) -> np.ndarray:
    """The symmetric form S = U + U^T mod p, (n, n) int64, of the degree-2
    ANF terms: f(x) - f(x-a) = (S a).x + const when the rest of f is affine."""
    S = np.zeros((n, n), dtype=np.int64)
    for c, m in terms:
        if len(m) == 2:
            np.add.at(S, (m, m[::-1]), c)  # S_ij and S_ji, or 2c at S_ii for a square
    return S % p


_PAIR_ROWS = 2**10  # (a, delta) rows a chunk of _quadratic_first holds, each n entries wide


def _quadratic_first(p: int, n: int, terms, deltas) -> tuple:
    """_first_nonvanishing for the reduced ANF terms Q + L.x + c of degree
    <= 2. With S = _symmetric_form(Q), f(x) - f(x-a) = (S a).x + const, so
    the sum at (a, b + delta) is nonzero exactly when b = -(S a + delta) mod
    p. The first label is the _tables.least_label over every a and every row
    delta of deltas, D u {0} in ascending index order. An a with k nonzero
    digits gives labels of weight >= k, so a is enumerated by k until k
    exceeds the least weight found.
    Memory: a chunk of a-rows, rows x |D u {0}| <= _PAIR_ROWS unless one row exceeds it."""
    S, best = _symmetric_form(p, n, terms), None  # best: the least order key found
    for k in range(n + 1):
        if best and k > label_at(p, n, best)[0]:
            break
        for A in support_rows(p, n, k, _PAIR_ROWS // len(deltas)):
            A = A.astype(np.int64)[:, None, :]
            B = -(A @ S) - deltas  # (rows, |D u {0}|, n)
            B %= p
            best = least_label(p, A, B, best)
    return label_at(p, n, best)


def _walked_first(f: LogicFunction, betas, pairs) -> tuple:
    """_first_nonvanishing by walking the labels on f's table, given one (i, j) per delta != 0.

    The labels of an a-group share their support S and shift a, and b is 0
    off S. With y = x_S, delta = beta_i - beta_j and d(x) = f(x) - f(x-a),

        sum_x zeta^(d(x) + delta.x + b.x) = sum_y zeta^(b_S.y) H[y],

    where H[y][e] counts the x over y with d(x) + delta.x = e mod p. One
    bincount over N keys gives H for an a-group and delta, and a label sums
    p^(w+1) gathered entries, hist[e] = sum_y H[y][e - b_S.y]; it is nonzero
    iff hist is not flat. Memory is O(K N): the a-group's keys, gathers of at
    most one table's entries and, when some delta != 0, K int8 tables beta_i.x and two buffers."""
    p, n, table = f.p, f.n, f.table
    lin = [linear_values(p, n, beta).astype(np.int8) for beta in betas] if pairs else []
    buf = [np.empty(p**n, dtype=t) for t in (np.int64, np.int8)] if pairs else None
    # a key is stride * index(y) + d(x) + 2p + beta_i.x - beta_j.x, whose last
    # four terms lie in [2, 4p - 2]: no reduction mod p on the N keys
    stride = 4 * p
    for w in range(1, n + 1):
        ys = index_rows(p, w, np.arange(p**w)).T  # y in index order, x_S[0] most significant
        y_rows = p * np.arange(p**w)[:, None]  # H[y] starts at p y in the flat H
        rows = p ** max(0, n - w - 1)  # labels per gather: rows p^(w+1) <= N entries
        for supp, A, B, starts in label_blocks(p, n, w):
            y_key = support_index(p, n, supp)  # index(y)
            offset = stride * y_key + 2 * p  # p^w entries, broadcast over the grid
            for lo, hi in zip(starts, starts[1:]):  # the a-groups of the chunk
                keys = shifted(table, p, n, a := A[lo].tolist())  # a new array: writable
                np.subtract(table, keys, out=keys)  # d(x), then its key, in place
                np.add(keys.reshape((p,) * n), offset, out=keys.reshape((p,) * n))
                for c in range(lo, hi, rows):
                    by = (B[c : min(c + rows, hi), supp] @ ys)[:, :, None]
                    idx = y_rows + (np.arange(p) - by) % p  # (b, y, e) -> H[y][e - b_S.y]
                    hit = np.zeros(len(idx), dtype=bool)
                    for i, j in ((0, 0), *pairs):  # the a-group's own keys first
                        exps = keys if i == j else np.add(
                            keys, np.subtract(lin[i], lin[j], out=buf[1]), out=buf[0])
                        counts = np.bincount(exps, minlength=stride * p**w)
                        sums = counts.reshape(p**w, 4, p).sum(axis=1).reshape(-1)[idx].sum(axis=1)
                        hit |= (sums != sums[:, :1]).any(axis=1)
                        if hit[0]:  # no label of the gather comes before it
                            break
                    if hit.any():
                        return w, tuple(a), tuple(B[c + hit.argmax()].tolist())
                del keys, exps  # before the next roll: one a-group's keys at a time
    raise RuntimeError("unreachable: weight-n labels always include a nonvanishing sum")


class ApcResult(NamedTuple):
    distance: int
    witness: PauliLabel


def apc_distance(f: LogicFunction) -> ApcResult:
    """Smallest symplectic weight of a nonzero label whose character sum does
    not vanish; the witness is the first such label in the fixed order."""
    w, a, b = _first_nonvanishing(f, [(0,) * f.n])
    return ApcResult(w, PauliLabel(f.p, a, b))


def autocorrelation(f: LogicFunction, a) -> CycloInt:
    """sum_x zeta^( f(x) - f(x+a) ); the plain integer correlation at p = 2."""
    if len(a) != f.n:
        raise InputError("shift length mismatch")
    t = f.table
    exps = (t - shifted(t, f.p, f.n, [-int(v) for v in a])) % f.p
    return CycloInt(f.p, tuple(np.bincount(exps, minlength=f.p).tolist()))


def _fwht(v: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of v, in place: v is a writable
    int64 array that the caller owns and gives up, and v itself is returned.

    The callers transform 0/1 support indicators (through _autocorrelate),
    the signs (-1)^f (only is_bent) and the squared spectra of indicators,
    whose sum is at most 2^n * 2^n by Parseval. Every butterfly partial sum
    is bounded by that sum, so it stays below MAX_TABLE^2 = 2^48 and the
    intermediate -2 hi below 2^49: int64 is exact across the whole table cap."""
    assert len(v) <= MAX_TABLE and 2 * MAX_TABLE**2 < 2**63, "int64 exactness bound"
    assert v.dtype == np.int64, "an int64 array the caller owns"
    h = 1
    while h < len(v):
        lo, hi = v.reshape(-1, 2, h).swapaxes(0, 1)  # views of the butterfly halves
        lo += hi
        hi *= -2
        hi += lo  # lo + hi - 2 hi = lo - hi
        h *= 2
    return v


def _autocorrelate(v: np.ndarray) -> np.ndarray:
    """sum_x v(x) v(x + a) for every shift a, as FWHT(FWHT(v)^2) / 2^n,
    computed in place in v, which the caller owns as for _fwht. Every caller
    hands it the 0/1 indicator of a support, so a zero marks a shift in the
    zero-product shift set."""
    _fwht(np.square(_fwht(v), out=v))
    return np.floor_divide(v, len(v), out=v)


# ---------------------------------------------------------------------------
# zero-product shift set and bent detection


def zset(f: LogicFunction) -> set:
    """Shifts a with sum_x f(x) * f(x+a) = 0, the sum taken over the
    integers. Defined for p = 2; the sums are the autocorrelation of the
    0/1 indicator of the support."""
    if f.p != 2:
        raise InputError("zset is defined for p = 2")
    zero = np.flatnonzero(_autocorrelate(np.array(f.table)) == 0)
    check_listing(len(zero) * f.n, f"{len(zero)} shifts of length {f.n}")  # before any tuple
    return set(index_vectors(2, f.n, zero))


def _bent_domain(f: LogicFunction) -> LogicFunction:
    """f held as its table, once it lies in bent detection's domain, p = 2
    and even n: both are checked before an ANF is expanded."""
    if f.p != 2:
        raise InputError("bent detection is defined for p = 2")
    if f.n % 2:
        raise InputError("bent functions require even n")
    return f if f.anf is None else LogicFunction(2, f.n, f.table)


def is_bent(f: LogicFunction) -> bool:
    """True iff every nonzero shift has zero correlation, that is, iff every
    Walsh coefficient of (-1)^f has magnitude 2^(n/2). f over p != 2 or with
    odd n is refused before its ANF is expanded. On a positive answer the
    support size is checked against the only two values a flat spectrum allows."""
    t = _bent_domain(f).table
    w = _fwht(np.where(t, -1, 1))
    bent = bool(np.all(np.abs(w, out=w) == 2 ** (f.n // 2)))
    if bent:
        M = int(np.sum(t))
        half = 2 ** (f.n - 1)
        quarter = 2 ** (f.n // 2 - 1)
        if M not in (half - quarter, half + quarter):
            raise RuntimeError(f"flat spectrum with impossible support size {M}")
    return bent


# ---------------------------------------------------------------------------
# coboundary solver


def solve_coboundary(pairs, p: int, n: int) -> LogicFunction | None:
    """Find a quadratic f (no square terms, constant normalized to 0) with

        f(x + alpha_i) - f(x) = beta_i . x + t_i   for all x and every i.

    pairs is a list of (alpha_i, beta_i, t_i). Returns None when no such
    quadratic exists. The alpha_i must be linearly independent.
    """
    table_size(p, n)
    pairs = [
        (tuple(int(v) % p for v in a), tuple(int(v) % p for v in b), int(t) % p)
        for a, b, t in pairs
    ]
    for a, b, _ in pairs:
        if len(a) != n or len(b) != n:
            raise InputError("alpha/beta length mismatch")
    alpha_mat = FpMatrix.from_rows(p, [a for a, _, _ in pairs])
    if rank(alpha_mat) != len(pairs):
        raise InputError("the alpha_i must be linearly independent")

    # unknowns: lambda_1..lambda_n then q_{jk} for j < k, one per monomial of f
    quads = list(itertools.combinations(range(n), 2))
    rows, rhs = [], []
    for alpha, beta, t in pairs:
        # coefficient of x_m:  sum_{k != m} q_{mk} alpha_k  =  beta_m
        rows += [[0] * n + [alpha[k] if j == m else alpha[j] if k == m else 0 for j, k in quads]
                 for m in range(n)]
        rhs += beta
        # constant:  lambda . alpha + sum_{j<k} q_{jk} alpha_j alpha_k  =  t
        rows.append([*alpha, *(alpha[j] * alpha[k] % p for j, k in quads)])
        rhs.append(t)
    sol = solve_linear(FpMatrix.from_rows(p, rows), rhs)
    monos = [(m,) for m in range(n)] + quads
    return None if sol is None else LogicFunction(p, n, anf=list(zip(sol.particular, monos)))
