"""Exact arithmetic over prime fields F_p and the ring Z[zeta_p], on
Python integers alone: the command line reads its input with these types
and caps before it loads numpy.

Three pillars used everywhere else:

- CycloInt: an integer coefficient vector (c_0, ..., c_{p-1}) standing for
  sum_j c_j * zeta^j with zeta a primitive p-th root of unity. Since
  1 + zeta + ... + zeta^{p-1} = 0, adding a constant to all coefficients is
  the zero element; the canonical form subtracts the minimum so at least one
  coefficient is 0. A value is zero exactly when its coefficients are all
  equal, which makes character-sum zero tests pure integer comparisons.
- PauliLabel: (a|b) in F_p^n x F_p^n naming the phase-free error X_a Z_b,
  with the symplectic product. `_tables` walks labels as index rows.
- F_p linear algebra: rank, solve with nullspace basis, over small matrices.

Capacities keep everything desk-scale: p <= 13, truth tables to 2^24
entries, state vectors to 2^20, listings to 2^22 entries (vectors x
length, basis pairs, or basis functions x ANF terms), and an oracle sweep
to 2^26 labels.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import CapacityError, InputError

PRIMES = (2, 3, 5, 7, 11, 13)

MAX_TABLE = 2**24
MAX_STATE = 2**20
# Most entries in one listing, such as zset's vectors x length; fits 768 MiB
MAX_LISTING = 2**22
# Most labels one full oracle sweep walks: every label of C13 at p = 2, 4^13 - 1
MAX_LABELS = 2**26


def validate_prime(p) -> int:
    p = int(p)
    if p not in PRIMES:
        raise InputError(f"p must be one of {PRIMES}, got {p}")
    return p


def table_size(p: int, n: int, cap: int = MAX_TABLE) -> int:
    """p^n after validating the prime, the arity, and the size cap."""
    p = validate_prime(p)
    if not isinstance(n, int) or n < 1:
        raise InputError(f"n must be a positive integer, got {n!r}")
    if n >= cap.bit_length():  # p^n >= 2^n > cap; also spares computing a huge p^n
        raise CapacityError(f"p^n with n = {n} exceeds cap {cap}")
    N = p**n
    if N > cap:
        raise CapacityError(f"p^n = {N} exceeds cap {cap}")
    return N


def check_listing(entries: int, what: str) -> None:
    """Refuse a listing of more than MAX_LISTING entries before it is built."""
    if entries > MAX_LISTING:
        raise CapacityError(f"{what} exceed the listing budget {MAX_LISTING}")


class _Slotted:
    """Base of the validated value types. A subclass names its fields in
    __slots__ and its __init__ validates, normalizes, then sets each field
    once. Equality and hashing go by the fields, within one class."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._key()))
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# cyclotomic integers


class CycloInt(_Slotted):
    """Element of Z[zeta_p], canonicalized so min(coeffs) == 0."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: tuple):
        validate_prime(p)
        if len(coeffs) != p:
            raise InputError(f"need {p} coefficients, got {len(coeffs)}")
        m = min(coeffs)
        self.p, self.coeffs = p, tuple(int(c) - m for c in coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def as_integer(self) -> int | None:
        """The rational integer this value equals, or None. In canonical
        form an integer looks like (c0, c, c, ..., c) and equals c0 - c."""
        tail = self.coeffs[1:]
        if any(c != tail[0] for c in tail):
            return None
        return self.coeffs[0] - (tail[0] if tail else 0)


# ---------------------------------------------------------------------------
# error labels


class PauliLabel(_Slotted):
    """(a|b) naming X_a Z_b; a and b are residue tuples of equal length."""

    __slots__ = ("p", "a", "b")

    def __init__(self, p: int, a: tuple, b: tuple):
        validate_prime(p)
        if len(a) == 0 or len(a) != len(b):
            raise InputError("a and b must be nonempty tuples of equal length")
        self.p, self.a, self.b = p, tuple(int(v) % p for v in a), tuple(int(v) % p for v in b)

    @property
    def n(self) -> int:
        return len(self.a)


def symplectic_product(u: PauliLabel, v: PauliLabel) -> int:
    """a_u . b_v - a_v . b_u mod p; antisymmetric and bilinear."""
    if u.p != v.p or u.n != v.n:
        raise InputError("label mismatch")
    s = sum(x * y for x, y in zip(u.a, v.b)) - sum(x * y for x, y in zip(v.a, u.b))
    return s % u.p


# ---------------------------------------------------------------------------
# F_p matrices and linear algebra


class FpMatrix(_Slotted):
    __slots__ = ("p", "entries")  # entries: tuple of row tuples, residues mod p

    def __init__(self, p: int, entries: tuple):
        validate_prime(p)
        rows = tuple(tuple(int(v) % p for v in row) for row in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise InputError("ragged matrix")
        self.p, self.entries = p, rows

    @classmethod
    def from_rows(cls, p: int, rows) -> "FpMatrix":
        return cls(p, tuple(tuple(row) for row in rows))

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        return cls(p, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def submatrix(self, row_idx, col_idx) -> "FpMatrix":
        return FpMatrix(self.p, tuple(tuple(self.entries[i][j] for j in col_idx) for i in row_idx))

    def hstack(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p or self.rows != other.rows:
            raise InputError("hstack shape mismatch")
        return FpMatrix(self.p, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def has_zero_diagonal(self) -> bool:
        return self.rows == self.cols and all(self.entries[i][i] == 0 for i in range(self.rows))


def _eliminate(rows: list, p: int):
    """In-place reduced row echelon form of rows of residues mod p; returns
    pivot column list. Rows r.. are zero left of column c when c is reached,
    so the pivot row and every update are formed from column c on."""
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        tail = [(v * inv) % p for v in rows[r][c:]]
        rows[r] = rows[r][:c] + tail
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f, row = rows[i][c], rows[i]
                rows[i] = row[:c] + [(x - f * y) % p for x, y in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(M: FpMatrix) -> int:
    return len(_eliminate([list(r) for r in M.entries], M.p))


class LinearSolution(NamedTuple):
    particular: tuple
    nullspace: tuple  # tuple of basis vectors


def solve_linear(M: FpMatrix, rhs) -> LinearSolution | None:
    """Solve M x = rhs over F_p. Returns a particular solution plus a
    nullspace basis, or None when the system is inconsistent."""
    p = M.p
    rhs = tuple(int(v) % p for v in rhs)
    if len(rhs) != M.rows:
        raise InputError("rhs length mismatch")
    ncols = M.cols
    aug = [list(r) + [v] for r, v in zip(M.entries, rhs)]
    if not aug:
        return LinearSolution((), ())
    pivots = _eliminate(aug, p)
    if ncols in pivots:
        return None  # pivot in the rhs column: inconsistent
    pivot_rows = {c: aug[i] for i, c in enumerate(pivots)}  # the reduced row of each pivot
    x = tuple(pivot_rows[c][ncols] if c in pivot_rows else 0 for c in range(ncols))
    basis = tuple(  # one vector per free column fc: 1 there, minus its pivot rows' entries
        tuple(-pivot_rows[c][fc] % p if c in pivot_rows else int(c == fc) for c in range(ncols))
        for fc in range(ncols) if fc not in pivot_rows)
    return LinearSolution(x, basis)
