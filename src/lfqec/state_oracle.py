"""Exact state-vector verification of error-correction conditions.

Amplitudes live in Z[zeta_p]: a state over n qudits is an (p^n, p) int64
array whose row x holds the exponent histogram of the amplitude at |x>.
Gram matrices come from float64 matrix products, used only under a bound,
checked once per sweep, that keeps every partial sum an integer of magnitude
below 2^53; over it the oracle raises CapacityError. Below it every product
is exact, so a verdict is a proof, not an estimate.

The displacement operator for a label e = (a, b) acts as

    E'_e |x> = zeta^(b.x) |x + a>

(no global phase factor), and a weight-w error is any E'_e with w nonzero
qudit positions. A basis {|psi_i>} detects all errors up to weight d-1 iff
for every label e of weight < d the Gram matrix G_e[i][j] = <psi_i|E'_e|psi_j>
is scalar: off-diagonal entries vanish and diagonal entries agree. For a
one-dimensional space the convention is stricter: G_e[0][0] must itself be 0.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ._tables import digit_table, shifted_indices
from .errors import CapacityError, InputError
from .fp_algebra import (
    MAX_STATE,
    CycloInt,
    PauliLabel,
    iter_labels_of_weight,
    table_size,
)

# Integers up to 2^53 in size are exact in float64, and so is every sum of
# them that stays in that range, in any order.
_EXACT = 2**53


@dataclass(frozen=True)
class StateVector:
    p: int
    n: int
    amps: np.ndarray  # (p^n, p) int64; row x = exponent histogram at |x>

    def __post_init__(self):
        N = table_size(self.p, self.n, cap=MAX_STATE)
        a = np.asarray(self.amps, dtype=np.int64)
        if a.shape != (N, self.p):
            raise InputError(f"amplitude array must be {(N, self.p)}, got {a.shape}")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    def is_zero(self) -> bool:
        return bool(np.all(self.amps == self.amps[:, :1]))

    def __eq__(self, other) -> bool:
        """Exact equality in Z[zeta_p]: the difference row at each basis
        state must have all-equal coordinates (the one relation zeta^0 +
        ... + zeta^(p-1) = 0)."""
        if not isinstance(other, StateVector) or (self.p, self.n) != (other.p, other.n):
            return NotImplemented
        d = self.amps - other.amps
        return bool(np.all(d == d[:, :1]))

    def __hash__(self):
        raise TypeError("StateVector is not hashable")

    def to_complex(self) -> np.ndarray:
        zeta = np.exp(2j * np.pi / self.p)
        return self.amps @ zeta ** np.arange(self.p)


def state_from_function(f) -> StateVector:
    """|psi_f> = sum_x zeta^(f(x)) |x>, as exact one-hot histograms."""
    N = table_size(f.p, f.n, cap=MAX_STATE)
    amps = np.zeros((N, f.p), dtype=np.int64)
    amps[np.arange(N), np.asarray(f.table, dtype=np.int64)] = 1
    return StateVector(f.p, f.n, amps)


def _error_index(e: PauliLabel, p: int, n: int) -> np.ndarray:
    """Gather index g with E'_e psi = psi[g], both spelled exponent-major
    (entry t*N + y is coefficient t at |y>): |y> reads x = y - a with its
    exponents moved up by b.x = b.y - a.b."""
    if (e.p, e.n) != (p, n):
        raise InputError("label does not match the state")
    b = np.array(e.b, dtype=np.int64)
    supp = np.flatnonzero(b)
    rot = digit_table(p, n)[:, supp] @ b[supp] - sum(x * y for x, y in zip(e.a, e.b))
    x = shifted_indices(p, n, tuple(-v for v in e.a))
    g = np.subtract.outer(np.arange(p), rot)  # built in place: one p*N array
    g %= p
    g *= p**n
    g += x
    return g.ravel()


def apply_error(e: PauliLabel, state: StateVector) -> StateVector:
    """E'_e acts by new[x + a] = zeta^(b.x) * old[x]."""
    g = _error_index(e, state.p, state.n)
    return StateVector(state.p, state.n, state.amps.T.ravel()[g].reshape(state.p, -1).T)


def _stack(states) -> np.ndarray:
    """(K, p*N) float64 array, exponent-major: entry [i, s*N + y] is
    coefficient s of state i at |y>. Checks that the kernel is exact on it:
    a Gram coefficient sums N*p products of two histogram entries, each at
    most M = max |entry| in size, so N*p*M^2 < 2^53 keeps every partial sum
    exact."""
    p, N = states[0].p, len(states[0].amps)
    m = max(max(int(s.amps.max()), -int(s.amps.min())) for s in states)
    if N * p * m * m >= _EXACT:
        raise CapacityError(
            f"amplitudes up to {m} over {N * p} exponent slots leave the exact "
            f"float64 range 2^53"
        )
    X = np.empty((len(states), p, N))
    for row, s in zip(X, states):
        row[...] = s.amps.T
    return X.reshape(len(states), p * N)


def _gram(bras: np.ndarray, kets: np.ndarray, p: int) -> np.ndarray:
    """(p, K, K') int64 array G with G[c, i, j] the coefficient of zeta^c in
    <bra_i|ket_j>, both given as _stack rows. One float64 product gives the
    dot products P[i, s, j, t] of exponent slices; conj(zeta^s) * zeta^t =
    zeta^(t - s), so G[c] sums the slices with t = s + c."""
    K, L = len(bras), len(kets)
    P = (bras.reshape(K * p, -1) @ kets.reshape(L * p, -1).T).reshape(K, p, L, p)
    s = np.arange(p)
    return P[:, s, :, (s[:, None] + s) % p].sum(axis=1).astype(np.int64)


def inner_product(u: StateVector, v: StateVector) -> CycloInt:
    """<u|v> = sum_x conj(u_x) v_x, exact in Z[zeta_p]."""
    if (u.p, u.n) != (v.p, v.n):
        raise InputError("states live on different spaces")
    X = _stack([u, v])
    return CycloInt(u.p, tuple(int(c) for c in _gram(X[:1], X[1:], u.p)[:, 0, 0]))


def gram_matrix(basis, e: PauliLabel):
    """G_e[i][j] = <psi_i| E'_e |psi_j> for every basis pair."""
    p, n = _check_basis(basis)
    X = _stack(basis)
    G = _gram(X, X[:, _error_index(e, p, n)], p)
    K = len(basis)
    return [[CycloInt(p, tuple(int(c) for c in G[:, i, j])) for j in range(K)] for i in range(K)]


@dataclass(frozen=True)
class KLFailure:
    a: tuple
    b: tuple
    kind: str  # "offdiag_nonzero" | "diag_unequal"
    i: int
    j: int

    def to_dict(self) -> dict:
        return {"a": list(self.a), "b": list(self.b), "kind": self.kind, "i": self.i, "j": self.j}


@dataclass(frozen=True)
class VerifyReport:
    p: int
    n: int
    K: int
    max_weight: int
    verdict: str  # "pass" | "fail"
    failures: tuple = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "K": self.K,
            "max_weight": self.max_weight,
            "verdict": self.verdict,
            "failures": [f.to_dict() for f in self.failures],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _violation(G: np.ndarray):
    """First scalar-Gram violation (kind, i, j) in one label's coefficient
    array, or None. An entry is 0 iff its p coefficients agree. One-
    dimensional spaces must have G_e[0][0] = 0 outright; otherwise
    off-diagonal entries are scanned in row-major order first, then each
    diagonal entry is compared with G_e[0][0]."""
    K = G.shape[1]
    nonzero = (G != G[:1]).any(axis=0)
    if K == 1:
        return ("diag_unequal", 0, 0) if nonzero[0, 0] else None
    np.fill_diagonal(nonzero, False)
    if nonzero.any():
        i, j = np.argwhere(nonzero)[0]
        return "offdiag_nonzero", int(i), int(j)
    diag = G[:, np.arange(K), np.arange(K)]
    diff = diag - diag[:, :1]  # G_jj - G_00, coefficient by coefficient
    unequal = (diff != diff[:1]).any(axis=0)
    if unequal.any():
        return "diag_unequal", 0, int(np.argmax(unequal))
    return None


def _failures(basis, p: int, n: int, max_weight: int):
    """Yield (weight, KLFailure) for every failing label of weight
    1..max_weight, in increasing weight and the fixed order within each."""
    X = _stack(basis)
    # One ket buffer per sweep, so labels allocate no fresh p*N arrays (the
    # OS would fault their pages in anew each time). take() buffers `out`
    # under its default mode="raise"; the index is in range by construction.
    kets = np.empty_like(X)
    for w in range(1, max_weight + 1):
        for e in iter_labels_of_weight(p, n, w):
            np.take(X, _error_index(e, p, n), axis=1, out=kets, mode="clip")
            bad = _violation(_gram(X, kets, p))
            if bad is not None:
                yield w, KLFailure(e.a, e.b, *bad)


def _check_basis(basis):
    if not basis:
        raise InputError("basis must be nonempty")
    p, n = basis[0].p, basis[0].n
    for s in basis:
        if (s.p, s.n) != (p, n):
            raise InputError("basis states live on different spaces")
    return p, n


def kl_verify(basis, max_weight: int) -> VerifyReport:
    """Check every error label of weight 1..max_weight, in increasing weight
    and a fixed deterministic order within each weight. Records one failure
    entry per failing label; verdict is "pass" iff there are none."""
    p, n = _check_basis(basis)
    if not 0 <= max_weight <= n:
        raise InputError(f"max_weight must lie in [0, {n}]")
    failures = [bad for _, bad in _failures(basis, p, n, max_weight)]
    verdict = "pass" if not failures else "fail"
    return VerifyReport(p, n, len(basis), max_weight, verdict, tuple(failures))


def min_distance(basis, cap: int | None = None):
    """Smallest weight at which some label breaks the scalar-Gram condition,
    or the string "> cap" when every weight up to the cap is clean."""
    p, n = _check_basis(basis)
    if cap is None:
        cap = n
    if not 1 <= cap <= n:
        raise InputError(f"cap must lie in [1, {n}]")
    for w, _ in _failures(basis, p, n, cap):
        return w
    return f"> {cap}"
