"""Projector-style binary codes: exact operator matrices over Z[zeta_p]
with dyadic scaling, the four-premise shift-set test for stabilizer
matrices A = (L|B), the projector's rank, and recovery of the basis
functions of every syndrome term from one coboundary solve.

No verdict forms a dense operator. The rank follows from the premises, and
each recovered state is checked as a joint eigenvector of the n rows, one
exact gather per row (the stabilizer formalism, Gottesman quant-ph/9705052).
OperatorMatrix stores 2^scale_log2 * sum_j entries[.,.,j] zeta^j with
integer entries, and keeps only what its rank by trace needs: the exact
product, equality across scales, the trace and the idempotency test.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ._tables import index_rows, linear_values, shifted, table_index
from .errors import CapacityError, InputError, PremiseError
from .fp_algebra import (
    CycloInt,
    FpMatrix,
    PauliLabel,
    _Slotted,
    _eliminate,
    check_listing,
    rank as fp_rank,
    symplectic_product,
    validate_prime,
)
from .logic_fn import LogicFunction, _autocorrelate, _bent_domain, affine_family, is_bent
from .logic_fn import solve_coboundary

_FLOAT_EXACT_BOUND = 2**52
MAX_OPERATOR_DIM = 1024  # dimension p^n of an OperatorMatrix


class OperatorMatrix(_Slotted):
    __slots__ = ("p", "n", "entries", "scale_log2")  # entries: (N, N, p) int64, per-cell min = 0

    def __init__(self, p: int, n: int, entries, scale_log2: int = 0):
        validate_prime(p)
        if (N := p**n) > MAX_OPERATOR_DIM:
            raise CapacityError(
                f"operator matrices are limited to dimension {MAX_OPERATOR_DIM}, need {N}")
        e = np.asarray(entries, dtype=np.int64)
        if e.shape != (N, N, p):
            raise InputError(f"entries must be {(N, N, p)}, got {e.shape}")
        e = e - e.min(axis=2, keepdims=True)
        e.setflags(write=False)
        self.p, self.n, self.entries, self.scale_log2 = p, n, e, scale_log2

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

    def mul(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Exact product: p^2 float64 matrix products folded by exponent,
        each under the bound that makes it exact; a product past it is
        refused."""
        if (self.p, self.n) != (other.p, other.n):
            raise InputError("operator shape mismatch")
        p = self.p
        N = p**self.n
        bound = int(self.entries.max(initial=0)) * int(other.entries.max(initial=0)) * N
        if bound >= _FLOAT_EXACT_BOUND:
            raise CapacityError(f"operator product sums up to {bound} exceed the float bound 2^52")
        out = np.zeros((N, N, p), dtype=np.int64)
        for j in range(p):
            A = self.entries[:, :, j]
            if not A.any():
                continue
            Af = A.astype(np.float64)
            for k in range(p):
                B = other.entries[:, :, k]
                if B.any():
                    out[:, :, (j + k) % p] += (Af @ B.astype(np.float64)).astype(np.int64)
        return OperatorMatrix(p, self.n, out, self.scale_log2 + other.scale_log2)

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


# ---------------------------------------------------------------------------
# four-premise test for A = (L|B) against a function's shift set


class PremiseReport(NamedTuple):
    n: int
    M: int
    weight_ok: bool  # 0 < M <= 2^(n-1)
    missing_columns: tuple  # 0-based columns of A not in the shift set
    missing_sums: tuple  # 0-based i with col_i(L) + col_i(B) not in the set
    nonorthogonal_pairs: tuple  # 0-based row pairs with nonzero product
    rows_independent: bool

    @property
    def all_ok(self) -> bool:
        return self.weight_ok and self.rows_independent and not (
            self.missing_columns or self.missing_sums or self.nonorthogonal_pairs)

    def to_dict(self) -> dict:
        return {**self._asdict(), "missing_columns": list(self.missing_columns),
                "missing_sums": list(self.missing_sums),
                "nonorthogonal_pairs": [list(pr) for pr in self.nonorthogonal_pairs],
                "all_ok": self.all_ok}

    def summary(self) -> str:
        """The failed premises in field order, or that all of them hold."""
        checks = [
            (not self.weight_ok, f"support size {self.M} outside (0, 2^(n-1)]"),
            (self.missing_columns, f"columns {list(self.missing_columns)} outside the shift set"),
            (self.missing_sums, f"column sums at {list(self.missing_sums)} outside the shift set"),
            (self.nonorthogonal_pairs,
             f"row pairs {list(self.nonorthogonal_pairs)} not orthogonal"),
            (not self.rows_independent, "rows are linearly dependent")]
        return "; ".join(text for failed, text in checks if failed) or "all premises hold"


def _binary_table(f: LogicFunction, A: FpMatrix) -> LogicFunction:
    """f held as its table, once f is over F_2 and A is f.n x 2f.n over F_2:
    both are checked before an ANF is expanded."""
    if f.p != 2:
        raise InputError("the projector construction is defined for p = 2")
    if A.p != 2 or A.rows != f.n or A.cols != 2 * f.n:
        raise InputError(f"matrix must be {f.n} x {2 * f.n} over F_2")
    return f if f.anf is None else LogicFunction(2, f.n, f.table)


def check_projector_premises(f: LogicFunction, A: FpMatrix) -> PremiseReport:
    """The four conditions for A = (L|B) to project onto a space spanned by
    translates of f:

      (1) 0 < M <= 2^(n-1) for the support size M;
      (2) every column of A, read as a length-n vector, lies in zset(f);
      (3) every sum col_i(L) + col_i(B) lies in zset(f);
      (4) the rows commute pairwise (symplectic product 0) and are
          linearly independent.

    f over p != 2, or an A that is not n x 2n over F_2, is refused before
    an ANF is expanded."""
    n, t = f.n, _binary_table(f, A).table
    M = int(np.count_nonzero(t))
    zero = _autocorrelate(np.array(t)) == 0  # zset(f) by shift index, probed and never listed
    cols = np.array(A.entries).T  # (2n, n): column j of A as a vector
    weight_ok = 0 < M <= 2 ** (n - 1)
    missing_cols = tuple(np.flatnonzero(~zero[table_index(2, cols)]).tolist())
    missing_sums = tuple(np.flatnonzero(~zero[table_index(2, (cols[:n] + cols[n:]) % 2)]).tolist())
    rows = [PauliLabel(2, r[:n], r[n:]) for r in A.entries]
    nonorth = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                    if symplectic_product(rows[i], rows[j]) != 0)
    independent = fp_rank(A) == n
    return PremiseReport(n, M, weight_ok, missing_cols, missing_sums, nonorth, independent)


# ---------------------------------------------------------------------------
# projector rank and basis extraction


def projector_rank(f: LogicFunction, A: FpMatrix) -> PremiseReport:
    """The checked premise report of (f, A): its support size M is the rank
    of the projector sum_t prod_i 1/2 (I + (-1)^(t_i) E_i), t over the
    support of f, which is never formed. The premise check first refuses f
    over p != 2 and an A that is not n x 2n over F_2, before an ANF is
    expanded. All four premises must hold, and every row must square to +I,
    which for E_i = E'_(a_i, b_i) means a_i . b_i = 0 (mod 2).

    The rows are then n commuting, independent, Hermitian involutions. No
    product of a nonempty subset of them is a multiple of I, so each such
    product has trace 0, and each syndrome term expands to trace
    2^n / 2^n = 1: a rank-one projector. Terms of distinct syndromes are
    orthogonal, so the sum over the support has rank M."""
    report = check_projector_premises(f, A)
    if not report.all_ok:
        raise PremiseError(f"premise failure: {report.summary()}", report)
    for i, r in enumerate(A.entries):
        if sum(x * y for x, y in zip(r[: f.n], r[f.n :])) % 2:
            raise InputError(f"row {i} squares to -I: a . b is odd, so it is not an involution")
    return report


def extract_boolean_basis(f: LogicFunction, A: FpMatrix) -> list:
    """Recover, for every support point t of f in table-index order, the
    quadratic function g_t whose state spans the syndrome-t term of the
    projector for (f, A). Each g_t solves the difference system

        g(x + alpha_i) - g(x) = beta_i . x + t_i + beta_i . alpha_i

    over the rows (alpha_i | beta_i) of A, and is verified exactly:
    E_i psi_g = (-1)^(t_i) psi_g for every row. f must be over F_2 and A
    n x 2n over F_2, refused before an ANF is expanded, with an invertible
    left block L; an empty support gives [].

    The system changes with t only in its constants, so one solve serves
    every syndrome: g_t = g_0 + lambda_t . x with L lambda_t = t, where g_0
    solves the system at t = 0. L is invertible, so lambda_t and the solution
    are unique, and the system is consistent for one t exactly when it is
    for all. One elimination of [L | I] finds both L's rank and L^(-1).

    The check is the term identity term == (1/2^n)|psi_g><psi_g|. A common
    +-1 eigenvector forces the rows to be commuting involutions (E_i E_j =
    +-E_j E_i and E_i^2 = +-I for displacements), and the invertible left
    block makes them independent, so the joint eigenspace is the line of
    psi_g, the term is the projector onto it, and <psi_g|psi_g> = 2^n. Per
    row i that reads g_t(x + a_i) = g_t(x) + b_i . x + t_i for every x, so
    d_i(x) = g_0(x + a_i) + g_0(x) + b_i . x is the constant t_i + lambda_t . a_i."""
    f, n = _binary_table(f, A), f.n
    ab = [(r[:n], r[n:]) for r in A.entries]
    inv = [list(a) + [int(i == j) for j in range(n)] for i, (a, _) in enumerate(ab)]
    if _eliminate(inv, 2) != list(range(n)):  # a pivot in I: L is singular
        raise InputError("left block of the matrix must be invertible")
    M, terms = int(np.count_nonzero(f.table)), 1 + n + n * (n - 1) // 2
    # the M basis functions are held at once, counted before any support point is listed
    check_listing(M * terms, f"{M} x {terms} basis ANF terms")
    if not M:
        return []
    g0 = solve_coboundary([(a, b, sum(x * y for x, y in zip(a, b)) % 2) for a, b in ab], 2, n)
    if g0 is None:
        raise PremiseError("no quadratic function satisfies the syndrome difference system")
    # lambda_t = L^(-1) t for every t at once: the rows of signs times L^(-1) transposed
    signs = index_rows(2, n, np.flatnonzero(f.table))
    lams = signs @ np.array(inv)[:, n:].T % 2
    g = g0.table  # one expansion: each row gathers d_i once, for every syndrome
    for i, (a, b) in enumerate(ab):
        d = shifted(g, 2, n, a) ^ g ^ linear_values(2, n, b)  # g(x + a) = g(x - a) over F_2
        c = signs[:, i] ^ lams @ a % 2
        bad = np.flatnonzero((c != d[0]) | (d != d[0]).any())
        if bad.size:
            raise RuntimeError(f"recovered state is not an eigenvector of row {i} with sign "
                               f"(-1)^{signs[bad[0], i]}")
    return affine_family(g0, lams.tolist())


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
    if not is_bent(f := _bent_domain(f)):  # f held as its table, read by both
        return False
    if (_autocorrelate(np.array(f.table)) == 0).any():
        raise RuntimeError("bent function with nonempty zero-product shift set")
    return True
