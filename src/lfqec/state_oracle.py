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

Logic-function bases whose reduced ANFs f_j = Q + L_j.x + c_j share one
quadratic Q, of symmetric form S = U + U^T, need no states: G_e[i][j] =
p^n zeta^(const) if u = b - S a equals L_i - L_j, else 0 (the codeword-
stabilized criterion, arXiv:0708.1021; over F_p, quant-ph/0508070), so each
label looks u up in the difference set of the rows L_j. Other function
bases, and states, take the Gram sweep: the closed form's reference.
kl_verify and min_distance take either kind of basis, choose the route in
`_route` and refuse on both routes K^2 basis pairs over the listing budget.
Only the Gram route, before it builds a state, also refuses p^n over the
state cap, then K p^(n+1) entries over the table cap. kl_verify, which walks
every label up to its weight on either route, first refuses a count over
the label budget; min_distance stops at its first failing weight.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._tables import differences, label_blocks, linear_values, shifted, table_index
from .errors import CapacityError, InputError
from .fp_algebra import MAX_LABELS, MAX_STATE, MAX_TABLE, CycloInt, _Slotted
from .fp_algebra import check_listing, table_size
from .logic_fn import LogicFunction, _anf_terms, _symmetric_form

# Integers up to 2^53 in size are exact in float64, and so is every sum of
# them that stays in that range, in any order.
_EXACT = 2**53


class StateVector(_Slotted):
    __slots__ = ("p", "n", "amps")  # amps: (p^n, p) int64; row x = exponent histogram at |x>

    def __init__(self, p: int, n: int, amps):
        N = table_size(p, n, cap=MAX_STATE)
        a = np.array(amps, dtype=np.int64)  # one copy, whatever the input's dtype
        if a.shape != (N, p):
            raise InputError(f"amplitude array must be {(N, p)}, got {a.shape}")
        a.setflags(write=False)
        self.p, self.n, self.amps = p, n, a

    def __eq__(self, other) -> bool:
        """Exact equality in Z[zeta_p]: the difference row at each basis
        state must have all-equal coordinates (the one relation zeta^0 +
        ... + zeta^(p-1) = 0)."""
        if not isinstance(other, StateVector) or (self.p, self.n) != (other.p, other.n):
            return NotImplemented
        d = self.amps - other.amps
        return bool(np.all(d == d[:, :1]))


def state_from_function(f) -> StateVector:
    """|psi_f> = sum_x zeta^(f(x)) |x>, as exact one-hot histograms."""
    N = table_size(f.p, f.n, cap=MAX_STATE)
    amps = np.zeros((N, f.p), dtype=np.int64)
    amps[np.arange(N), np.asarray(f.table, dtype=np.int64)] = 1
    return StateVector(f.p, f.n, amps)


def _error_index(shift: np.ndarray, a, b, p: int, n: int) -> np.ndarray:
    """Gather index g with E'_(a,b) psi = psi[g], both spelled exponent-major
    (entry t*N + y is coefficient t at |y>): |y> reads x = y - a, at index
    shift[y] of shift = shifted(np.arange(p**n), p, n, a), with its exponents moved
    up by b.x = b.y - a.b."""
    rot = linear_values(p, n, b) - sum(x * y for x, y in zip(a, b))
    g = np.subtract.outer(np.arange(p), rot)  # built in place: one p*N array
    g %= p
    g *= p**n
    g += shift
    return g.ravel()


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


class KLFailure(NamedTuple):
    a: tuple
    b: tuple
    kind: str  # "offdiag_nonzero" | "diag_unequal"
    i: int
    j: int

    def to_dict(self) -> dict:
        return {"a": list(self.a), "b": list(self.b), "kind": self.kind, "i": self.i, "j": self.j}


class VerifyReport(NamedTuple):
    p: int
    n: int
    K: int
    max_weight: int
    verdict: str  # "pass" | "fail"
    failures: tuple = ()

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {**self._asdict(), "failures": [f.to_dict() for f in self.failures]}


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


def _failures(states, p: int, n: int, max_weight: int):
    """Yield (weight, KLFailure) for every failing label of weight
    1..max_weight, in increasing weight and the fixed order within each.
    The labels of one a-group share their a, and so the shift x - a."""
    X = _stack(states)
    # One ket buffer per sweep, so labels allocate no fresh p*N arrays (the
    # OS would fault their pages in anew each time). take() buffers `out`
    # under its default mode="raise"; the index is in range by construction.
    kets = np.empty_like(X)
    for w in range(1, max_weight + 1):
        for _, A, B, starts in label_blocks(p, n, w):
            for lo, hi in zip(starts, starts[1:]):
                a = A[lo].tolist()  # Python ints: _error_index sums over them
                shift = shifted(np.arange(p**n), p, n, a)
                for b in B[lo:hi].tolist():
                    np.take(X, _error_index(shift, a, b, p, n), axis=1, out=kets, mode="clip")
                    bad = _violation(_gram(X, kets, p))
                    if bad is not None:
                        yield w, KLFailure(tuple(a), tuple(b), *bad)


def _closed_form_failures(S, L, p: int, n: int, max_weight: int):
    """_failures on the states of f_j = Q + L_j.x + c_j via u = b - S a, keyed
    by table index: the first pair i != j with L_i - L_j = u in differences(L),
    else, if u = 0, the first j with L_j.a != L_0.a, as G_jj ~ zeta^(-L_j.a); K = 1
    has no pair and fails iff u = 0. _check_basis holds every basis to the pair
    budget (`lfqec verify` applies it before any ANF is parsed or table built)."""
    (codes, fi, fj), K = differences(L, p), len(L)
    for w in range(1, max_weight + 1):
        for supp, A, B, _ in label_blocks(p, n, w):
            u = table_index(p, (B - A[:, supp] @ S[supp]) % p)  # S a = a_S S[supp], S symmetric
            at = np.searchsorted(codes, u)
            hit = np.searchsorted(codes, u, side="right") > at  # u is a key; at may be len(codes)
            for r in np.flatnonzero(hit | (u == 0)).tolist():
                if hit[r]:
                    bad = ("offdiag_nonzero", int(fi[at[r]]), int(fj[at[r]]))
                elif (j := int(np.argmax((L - L[0]) @ A[r] % p != 0))) or K == 1:
                    bad = ("diag_unequal", 0, j)
                else:
                    continue
                yield w, KLFailure(tuple(A[r].tolist()), tuple(B[r].tolist()), *bad)


def _route(basis, p: int, n: int, max_weight: int):
    """The one route choice. Functions whose reduced ANFs share one quadratic
    part take the closed form, which builds no state. Any other basis takes
    the Gram sweep, which refuses first p^n over the state cap, then K states,
    float stack and ket buffer of K p^(n+1) entries each over the table cap."""
    functions = isinstance(basis[0], LogicFunction)
    if functions:
        anfs = [_anf_terms(f, max_deg=2) for f in basis]
        quads = {tuple(t for t in terms if len(t[1]) == 2) for terms in anfs if terms is not None}
        if None not in anfs and len(quads) == 1:
            lins = [{m: c for c, m in terms if len(m) == 1} for terms in anfs]
            L = np.array([[lin.get((v,), 0) for v in range(n)] for lin in lins])
            return _closed_form_failures(_symmetric_form(p, n, anfs[0]), L, p, n, max_weight)
    table_size(p, n, cap=MAX_STATE)
    if (entries := len(basis) * p ** (n + 1)) > MAX_TABLE:
        raise CapacityError(f"K p^(n+1) = {entries} Gram sweep entries exceed the cap {MAX_TABLE}")
    states = [state_from_function(f) for f in basis] if functions else basis
    return _failures(states, p, n, max_weight)


def _check_basis(basis):
    """(p, n) of a nonempty basis of StateVectors or of LogicFunctions on one
    space, whose K^2 pairs every route reads: the closed form as its
    difference set, the Gram sweep as (Kp)^2 products per label. It applies
    no other cap: each route caps what it builds (see _route)."""
    if not basis:
        raise InputError("basis must be nonempty")
    if not any(all(isinstance(s, kind) for s in basis) for kind in (LogicFunction, StateVector)):
        raise InputError("a basis must hold only StateVectors or only LogicFunctions")
    p, n = basis[0].p, basis[0].n
    if any((s.p, s.n) != (p, n) for s in basis):
        raise InputError("basis states live on different spaces")
    check_listing(len(basis) ** 2, f"K^2 = {len(basis) ** 2} basis pairs")
    return p, n


def kl_verify(basis, max_weight: int) -> VerifyReport:
    """Check every error label of weight 1..max_weight, in increasing weight
    and a fixed deterministic order within each weight. Records one failure
    entry per failing label; verdict is "pass" iff there are none. Both
    routes walk every label, so more than MAX_LABELS of them are refused first.
    max_weight 0 has no label: it passes before a route, and so meets no route's cap."""
    p, n = _check_basis(basis)
    if not 0 <= max_weight <= n:
        raise InputError(f"max_weight must lie in [0, {n}]")
    labels = sum(math.comb(n, w) * (p * p - 1) ** w for w in range(1, max_weight + 1))
    if labels > MAX_LABELS:
        raise CapacityError(
            f"{labels} labels of weight 1..{max_weight} exceed the label budget {MAX_LABELS}")
    failures = tuple(bad for _, bad in _route(basis, p, n, max_weight)) if max_weight else ()
    return VerifyReport(p, n, len(basis), max_weight, "fail" if failures else "pass", failures)


def min_distance(basis):
    """Smallest weight at which some label breaks the scalar-Gram condition,
    or the string "> n" when every weight up to n is clean."""
    p, n = _check_basis(basis)
    return next((w for w, _ in _route(basis, p, n, n)), f"> {n}")
