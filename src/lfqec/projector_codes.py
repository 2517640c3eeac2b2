"""Projector-style binary codes: exact operator matrices over Z[zeta_p]
with dyadic scaling, displacement-label algebra, the four-premise shift-set
test for stabilizer matrices A = (L|B), the projector's rank, and recovery
of the basis functions from single syndrome terms.

No verdict forms a dense operator. The rank follows from the premises, and
each recovered state is checked as a joint eigenvector of the n rows, one
exact gather per row (the stabilizer formalism, Gottesman quant-ph/9705052).
OperatorMatrix stores 2^scale_log2 * sum_j entries[.,.,j] zeta^j with
integer entries, for callers that want the dense operator algebra itself.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._tables import digit_table, shifted_indices
from .errors import CapacityError, InputError, PremiseError
from .fp_algebra import (
    MAX_OPERATOR_DIM,
    CycloInt,
    FpMatrix,
    PauliLabel,
    rank as fp_rank,
    symplectic_product,
    validate_prime,
)
from .logic_fn import LogicFunction, is_bent, solve_coboundary, weight_support, zset
from .state_oracle import StateVector, apply_error, state_from_function

_FLOAT_EXACT_BOUND = 2**52


def _operator_dim(p: int, n: int) -> int:
    N = p**n
    if N > MAX_OPERATOR_DIM:
        raise CapacityError(
            f"operator matrices are limited to dimension {MAX_OPERATOR_DIM}, need {N}"
        )
    return N


@dataclass(frozen=True)
class OperatorMatrix:
    p: int
    n: int
    entries: np.ndarray  # (N, N, p) int64, per-cell min = 0
    scale_log2: int = 0

    def __post_init__(self):
        validate_prime(self.p)
        N = _operator_dim(self.p, self.n)
        e = np.asarray(self.entries, dtype=np.int64)
        if e.shape != (N, N, self.p):
            raise InputError(f"entries must be {(N, N, self.p)}, got {e.shape}")
        e = e - e.min(axis=2, keepdims=True)
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @classmethod
    def identity(cls, p: int, n: int) -> "OperatorMatrix":
        N = _operator_dim(p, n)
        e = np.zeros((N, N, p), dtype=np.int64)
        e[np.arange(N), np.arange(N), 0] = 1
        return cls(p, n, e)

    @classmethod
    def zero(cls, p: int, n: int) -> "OperatorMatrix":
        N = _operator_dim(p, n)
        return cls(p, n, np.zeros((N, N, p), dtype=np.int64))

    def _check(self, other: "OperatorMatrix"):
        if (self.p, self.n) != (other.p, other.n):
            raise InputError("operator shape mismatch")

    def _aligned(self, other: "OperatorMatrix"):
        s = min(self.scale_log2, other.scale_log2)
        a = self.entries * (1 << (self.scale_log2 - s))
        b = other.entries * (1 << (other.scale_log2 - s))
        return a, b, s

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        if (self.p, self.n) != (other.p, other.n):
            return False
        a, b, _ = self._aligned(other)
        a = a - a.min(axis=2, keepdims=True)
        b = b - b.min(axis=2, keepdims=True)
        return bool(np.array_equal(a, b))

    def __hash__(self):
        raise TypeError("OperatorMatrix is not hashable")

    def add(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check(other)
        a, b, s = self._aligned(other)
        return OperatorMatrix(self.p, self.n, a + b, s)

    def sub(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check(other)
        a, b, s = self._aligned(other)
        return OperatorMatrix(self.p, self.n, a - b, s)

    def half(self) -> "OperatorMatrix":
        return OperatorMatrix(self.p, self.n, self.entries, self.scale_log2 - 1)

    def phase(self, e: int) -> "OperatorMatrix":
        """Multiply by zeta^e (index roll in the exponent axis)."""
        rolled = self.entries[:, :, (np.arange(self.p) - e) % self.p]
        return OperatorMatrix(self.p, self.n, rolled, self.scale_log2)

    def mul(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Exact product: p^2 integer matrix products folded by exponent.
        float64 BLAS is used only under a proven-exact magnitude bound."""
        self._check(other)
        p = self.p
        N = p**self.n
        amax = int(self.entries.max(initial=0))
        bmax = int(other.entries.max(initial=0))
        out = np.zeros((N, N, p), dtype=np.int64)
        use_float = amax * bmax * N < _FLOAT_EXACT_BOUND
        for j in range(p):
            A = self.entries[:, :, j]
            if not A.any():
                continue
            Af = A.astype(np.float64) if use_float else None
            for k in range(p):
                B = other.entries[:, :, k]
                if not B.any():
                    continue
                if use_float:
                    prod = Af @ B.astype(np.float64)
                    out[:, :, (j + k) % p] += prod.astype(np.int64)
                else:
                    prod = A.astype(object) @ B.astype(object)
                    out[:, :, (j + k) % p] += prod.astype(np.int64)
        return OperatorMatrix(p, self.n, out, self.scale_log2 + other.scale_log2)

    def dagger(self) -> "OperatorMatrix":
        e = self.entries.transpose(1, 0, 2)[:, :, (-np.arange(self.p)) % self.p]
        return OperatorMatrix(self.p, self.n, e, self.scale_log2)

    def trace(self) -> CycloInt:
        """Trace of the entry layer, ignoring the dyadic scale."""
        N = self.p**self.n
        diag = self.entries[np.arange(N), np.arange(N), :].sum(axis=0)
        return CycloInt(self.p, tuple(int(c) for c in diag))

    def is_idempotent(self) -> bool:
        return self.mul(self) == self

    def rank(self) -> int:
        """Rank via the trace; valid only for projectors, so idempotency is
        checked first and a non-projector is rejected."""
        if not self.is_idempotent():
            raise InputError("rank-by-trace requires an idempotent operator")
        t = self.trace().as_integer()
        if t is None:
            raise RuntimeError("projector trace is not a rational integer")
        if self.scale_log2 >= 0:
            return t << self.scale_log2
        q, r = divmod(t, 1 << -self.scale_log2)
        if r:
            raise RuntimeError("projector trace is not an integer after scaling")
        return q


def operator_matrix(e: PauliLabel) -> OperatorMatrix:
    """Displacement operator: entry (x + a, x) = zeta^(b.x)."""
    p, n = e.p, e.n
    N = _operator_dim(p, n)
    sh = shifted_indices(p, n, e.a)
    rot = digit_table(p, n) @ np.array(e.b, dtype=np.int64) % p
    ent = np.zeros((N, N, p), dtype=np.int64)
    ent[sh, np.arange(N), rot] = 1
    return OperatorMatrix(p, n, ent)


# ---------------------------------------------------------------------------
# signed-label algebra (binary)


def projector_and(left: tuple, right: tuple) -> tuple:
    """Product of signed displacement labels over F_2:
    (s, u) * (s', v) = (s * s' * (-1)^(b_u . a_v), u + v)."""
    s1, u = left
    s2, v = right
    if u.p != 2 or v.p != 2:
        raise InputError("signed-label products are defined for p = 2")
    if s1 not in (1, -1) or s2 not in (1, -1):
        raise InputError("signs must be +1 or -1")
    cross = sum(x * y for x, y in zip(u.b, v.a)) % 2
    sign = s1 * s2 * (-1 if cross else 1)
    return (sign, u + v)


def projector_or(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Disjunction of orthogonal projectors: the plain sum."""
    return a.add(b)


def projector_not(a: OperatorMatrix) -> OperatorMatrix:
    return OperatorMatrix.identity(a.p, a.n).sub(a)


# ---------------------------------------------------------------------------
# four-premise test for A = (L|B) against a function's shift set


@dataclass(frozen=True)
class PremiseReport:
    n: int
    M: int
    weight_ok: bool  # 0 < M <= 2^(n-1)
    missing_columns: tuple  # 0-based columns of A not in the shift set
    missing_sums: tuple  # 0-based i with col_i(L) + col_i(B) not in the set
    nonorthogonal_pairs: tuple  # 0-based row pairs with nonzero product
    rows_independent: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.weight_ok
            and not self.missing_columns
            and not self.missing_sums
            and not self.nonorthogonal_pairs
            and self.rows_independent
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "M": self.M,
            "weight_ok": self.weight_ok,
            "missing_columns": list(self.missing_columns),
            "missing_sums": list(self.missing_sums),
            "nonorthogonal_pairs": [list(pr) for pr in self.nonorthogonal_pairs],
            "rows_independent": self.rows_independent,
            "all_ok": self.all_ok,
        }

    def summary(self) -> str:
        if self.all_ok:
            return "all premises hold"
        bad = []
        if not self.weight_ok:
            bad.append(f"support size {self.M} outside (0, 2^(n-1)]")
        if self.missing_columns:
            bad.append(f"columns {list(self.missing_columns)} outside the shift set")
        if self.missing_sums:
            bad.append(f"column sums at {list(self.missing_sums)} outside the shift set")
        if self.nonorthogonal_pairs:
            bad.append(f"row pairs {list(self.nonorthogonal_pairs)} not orthogonal")
        if not self.rows_independent:
            bad.append("rows are linearly dependent")
        return "; ".join(bad)


def _stabilizer_rows(A: FpMatrix) -> list:
    n = A.rows
    if A.cols != 2 * n:
        raise InputError(f"matrix must be n x 2n, got {A.rows} x {A.cols}")
    return [PauliLabel(A.p, A.row(i)[:n], A.row(i)[n:]) for i in range(n)]


def check_projector_premises(f: LogicFunction, A: FpMatrix) -> PremiseReport:
    """The four conditions for A = (L|B) to project onto a space spanned by
    translates of f:

      (1) 0 < M <= 2^(n-1) for the support size M;
      (2) every column of A, read as a length-n vector, lies in zset(f);
      (3) every sum col_i(L) + col_i(B) lies in zset(f);
      (4) the rows commute pairwise (symplectic product 0) and are
          linearly independent.
    """
    if f.p != 2:
        raise InputError("the projector construction is defined for p = 2")
    if A.p != 2 or A.rows != f.n or A.cols != 2 * f.n:
        raise InputError(f"matrix must be {f.n} x {2 * f.n} over F_2")
    n = f.n
    M, _ = weight_support(f)
    zs = zset(f)
    weight_ok = 0 < M <= 2 ** (n - 1)
    missing_cols = tuple(j for j in range(2 * n) if A.col(j) not in zs)
    missing_sums = tuple(
        i
        for i in range(n)
        if tuple((A.col(i)[r] + A.col(n + i)[r]) % 2 for r in range(n)) not in zs
    )
    rows = _stabilizer_rows(A)
    nonorth = tuple(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if symplectic_product(rows[i], rows[j]) != 0
    )
    independent = fp_rank(A) == n
    return PremiseReport(n, M, weight_ok, missing_cols, missing_sums, nonorth, independent)


# ---------------------------------------------------------------------------
# projector rank and basis extraction


def projector_rank(f: LogicFunction, A: FpMatrix) -> int:
    """Rank of the projector sum_t prod_i 1/2 (I + (-1)^(t_i) E_i), t over
    the support of f, without forming it. All four premises must hold, the
    operator dimension cap applies, and every row must square to +I, which
    for E_i = E'_(a_i, b_i) means a_i . b_i = 0 (mod 2).

    The rows are then n commuting, independent, Hermitian involutions. No
    product of a nonempty subset of them is a multiple of I, so each such
    product has trace 0, and each syndrome term expands to trace
    2^n / 2^n = 1: a rank-one projector. Terms of distinct syndromes are
    orthogonal, so the sum over the support has rank M."""
    report = check_projector_premises(f, A)
    if not report.all_ok:
        raise PremiseError(f"premise failure: {report.summary()}", report)
    _operator_dim(2, f.n)
    for i, e in enumerate(_stabilizer_rows(A)):
        if sum(x * y for x, y in zip(e.a, e.b)) % 2:
            raise InputError(f"row {i} squares to -I: a . b is odd, so it is not an involution")
    return report.M


def extract_boolean_basis(f: LogicFunction, A: FpMatrix, t) -> LogicFunction:
    """Recover the quadratic function g whose state spans the syndrome-t
    term of the projector for (f, A): solve the difference system

        g(x + alpha_i) - g(x) = beta_i . x + t_i + beta_i . alpha_i

    over the rows (alpha_i | beta_i) of A, then verify exactly that
    E_i psi_g = (-1)^(t_i) psi_g for every row. Requires t in the support of
    f and an invertible left block.

    The check is the term identity term == (1/2^n)|psi_g><psi_g|. A common
    +-1 eigenvector forces the rows to be commuting involutions (E_i E_j =
    +-E_j E_i and E_i^2 = +-I for displacements), and the invertible left
    block makes them independent, so the joint eigenspace is the line of
    psi_g, the term is the projector onto it, and <psi_g|psi_g> = 2^n."""
    if f.p != 2:
        raise InputError("basis extraction is defined for p = 2")
    n = f.n
    t = tuple(int(v) % 2 for v in t)
    if len(t) != n:
        raise InputError("syndrome length mismatch")
    if f.value(t) == 0:
        raise InputError(f"syndrome {t} is not in the support of the function")
    rows = _stabilizer_rows(A)
    left = A.submatrix(range(n), range(n))
    if fp_rank(left) != n:
        raise InputError("left block of the matrix must be invertible")
    _operator_dim(2, n)
    pairs = []
    for i, row in enumerate(rows):
        const = (t[i] + sum(x * y for x, y in zip(row.a, row.b))) % 2
        pairs.append((row.a, row.b, const))
    g = solve_coboundary(pairs, 2, n)
    if g is None:
        raise PremiseError(
            "no quadratic function satisfies the syndrome difference system"
        )
    psi = state_from_function(g)
    for i, (row, ti) in enumerate(zip(rows, t)):
        want = StateVector(2, n, -psi.amps) if ti else psi
        if apply_error(row, psi) != want:
            raise RuntimeError(
                f"recovered state is not an eigenvector of row {i} with sign (-1)^{ti}"
            )
    return g


# ---------------------------------------------------------------------------
# structural exclusion of bent functions


def bent_exclusion(f: LogicFunction) -> bool:
    """True when the function is bent and therefore can never satisfy the
    shift-set premises on more than two variables: a flat spectrum forces an
    empty zero-product shift set, but the premises need 2n members. Odd n
    has no bent functions, so the answer there is always False."""
    if f.p != 2:
        raise InputError("bent exclusion is defined for p = 2")
    if f.n <= 2:
        raise InputError("exclusion statement needs n > 2")
    if f.n % 2:
        return False
    if not is_bent(f):
        return False
    if zset(f):
        raise RuntimeError("bent function with nonempty zero-product shift set")
    return True


# ---------------------------------------------------------------------------
# convenience: enumerate all signed-label products of a row set


def row_span_labels(A: FpMatrix) -> list:
    """Signed labels of all products of subsets of the rows of A (binary),
    in subset-lex order; useful for stabilizer-group inspection."""
    rows = _stabilizer_rows(A)
    n = len(rows)
    out = []
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            acc = (1, PauliLabel(2, (0,) * A.rows, (0,) * A.rows))
            for i in combo:
                acc = projector_and(acc, (1, rows[i]))
            out.append(acc)
    return out
