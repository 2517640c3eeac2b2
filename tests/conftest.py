"""Shared helpers: seeded random objects, independent float-arithmetic
cross-checks, and the direct (slow, exact) reference implementations that
the transform, matrix-product and eigenvector routines are compared
against, among them the dense projector operators."""
from __future__ import annotations

import cmath
import itertools

import numpy as np
import pytest

from lfqec import (
    CycloInt,
    FpMatrix,
    InputError,
    LogicFunction,
    OperatorMatrix,
    PauliLabel,
    StateVector,
    apc_sum,
    iter_labels_of_weight,
    operator_matrix,
    rank,
    symplectic_product,
    weight_support,
)


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_function(gen: np.random.Generator, p: int, n: int) -> LogicFunction:
    return LogicFunction(p, n, gen.integers(0, p, p**n).astype(np.int64))


def direct_spectrum(f: LogicFunction) -> np.ndarray:
    """sum_x (-1)^(f(x) + f(x + a)) summed shift by shift, the O(4^n)
    reference for the transform route. At p = 2 the index of x + a is
    index(x) XOR index(a)."""
    t = f.table
    x = np.arange(len(t))
    return np.array([np.sum(1 - 2 * ((t + t[x ^ a]) % 2)) for a in x], dtype=np.int64)


def direct_zset(f: LogicFunction) -> set:
    """Shifts a with sum_x f(x) f(x + a) = 0 over the integers, summed shift
    by shift; a is spelled with x1 as its most significant bit."""
    t = f.table
    x = np.arange(len(t))
    return {
        tuple(int(bit) for bit in format(a, f"0{f.n}b")) for a in x if np.sum(t * t[x ^ a]) == 0
    }


def reference_apply_error(e: PauliLabel, state: StateVector) -> StateVector:
    """new[x + a] = zeta^(b.x) * old[x], basis state by basis state."""
    p, n = state.p, state.n
    old = np.asarray(state.amps).tolist()
    new = [None] * len(old)
    for idx, x in enumerate(itertools.product(range(p), repeat=n)):
        jdx = 0
        for xi, ai in zip(x, e.a):
            jdx = jdx * p + (xi + ai) % p
        r = sum(bi * xi for bi, xi in zip(e.b, x)) % p  # coefficient c moves to c + r
        new[jdx] = old[idx][p - r :] + old[idx][: p - r]
    return StateVector(p, n, new)


def reference_inner_product(u: StateVector, v: StateVector) -> CycloInt:
    """<u|v> as p^2 dot products of exponent columns, in Python integers:
    conj(u) has coefficient j where u has -j, and zeta^j * zeta^k lands on
    coefficient j + k."""
    p = u.p
    uc = np.asarray(u.amps).astype(object)[:, (-np.arange(p)) % p]
    vv = np.asarray(v.amps).astype(object)
    dots = uc.T @ vv  # dots[j, k] = column j of conj(u) . column k of v
    hist = [0] * p
    for j in range(p):
        for k in range(p):
            hist[(j + k) % p] += int(dots[j, k])
    return CycloInt(p, tuple(hist))


def reference_gram_matrix(basis, e: PauliLabel) -> list:
    shifted = [reference_apply_error(e, psi) for psi in basis]
    return [[reference_inner_product(u, w) for w in shifted] for u in basis]


def reference_label_failure(basis, e: PauliLabel):
    """The first scalar-Gram violation of one label as a report entry, or
    None: G[0][0] = 0 for K = 1; else the first nonzero off-diagonal entry in
    row-major order, then the first diagonal entry unequal to G[0][0]."""
    G = reference_gram_matrix(basis, e)
    K = len(basis)
    entry = {"a": list(e.a), "b": list(e.b)}
    if K == 1:
        return None if G[0][0].is_zero() else {**entry, "kind": "diag_unequal", "i": 0, "j": 0}
    for i in range(K):
        for j in range(K):
            if i != j and not G[i][j].is_zero():
                return {**entry, "kind": "offdiag_nonzero", "i": i, "j": j}
    for j in range(1, K):
        if G[j][j] != G[0][0]:
            return {**entry, "kind": "diag_unequal", "i": 0, "j": j}
    return None


def reference_kl_report(basis, max_weight: int) -> dict:
    """kl_verify(basis, max_weight).to_dict(), entry by entry."""
    p, n = basis[0].p, basis[0].n
    failures = [
        bad
        for w in range(1, max_weight + 1)
        for e in iter_labels_of_weight(p, n, w)
        if (bad := reference_label_failure(basis, e)) is not None
    ]
    return {
        "p": p,
        "n": n,
        "K": len(basis),
        "max_weight": max_weight,
        "verdict": "fail" if failures else "pass",
        "failures": failures,
    }


def reference_min_distance(basis, cap: int | None = None):
    p, n = basis[0].p, basis[0].n
    cap = n if cap is None else cap
    for w in range(1, cap + 1):
        for e in iter_labels_of_weight(p, n, w):
            if reference_label_failure(basis, e) is not None:
                return w
    return f"> {cap}"


def reference_coset_distance(f: LogicFunction, betas) -> int:
    """claimed_coset_distance with one character sum per label and ordered
    shift pair."""
    for w in range(1, f.n + 1):
        for e in iter_labels_of_weight(f.p, f.n, w):
            for bi in betas:
                for bj in betas:
                    b = tuple((x + y - z) % f.p for x, y, z in zip(e.b, bi, bj))
                    if not apc_sum(f, PauliLabel(f.p, e.a, b)).is_zero():
                        return w
    raise AssertionError("the diagonal pairs fail by weight n")


def stabilizer_labels(A: FpMatrix) -> list:
    """Row i of the n x 2n matrix (L|B) as the label (L_i, B_i)."""
    n = A.rows
    return [PauliLabel(A.p, A.row(i)[:n], A.row(i)[n:]) for i in range(n)]


def syndrome_term(ops: list, t, p: int, n: int) -> OperatorMatrix:
    """Product over rows of 1/2 (I + (-1)^(t_i) E_i), row order fixed, as a
    dense exact operator."""
    ident = OperatorMatrix.identity(p, n)
    term = ident
    for ti, E in zip(t, ops):
        factor = (ident.add(E) if ti == 0 else ident.sub(E)).half()
        term = term.mul(factor)
    return term


def assemble_projector(f: LogicFunction, A: FpMatrix) -> OperatorMatrix:
    """Sum of the dense syndrome terms over the support of f. Requires
    commuting, independent rows (checked); the shift-set premises are not
    checked."""
    if f.p != 2 or A.p != 2:
        raise InputError("projector assembly is defined for p = 2")
    rows = stabilizer_labels(A)
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if symplectic_product(rows[i], rows[j]) != 0:
                raise InputError(f"rows {i} and {j} do not commute")
    if rank(A) != A.rows:
        raise InputError("rows are linearly dependent")
    ops = [operator_matrix(e) for e in rows]
    M, support = weight_support(f)
    if M == 0:
        raise InputError("the function has empty support")
    acc = None
    for t in support:
        term = syndrome_term(ops, t, f.p, f.n)
        acc = term if acc is None else acc.add(term)
    return acc


def function_outer(g: LogicFunction) -> OperatorMatrix:
    """(1/2^n) |psi_g><psi_g| : entry (r, c) = zeta^(g(r) - g(c)), scaled."""
    p, n = g.p, g.n
    N = p**n
    diff = (g.table[:, None] - g.table[None, :]) % p
    ent = np.zeros((N, N, p), dtype=np.int64)
    rr, cc = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    ent[rr, cc, diff] = 1
    return OperatorMatrix(p, n, ent, -n)


def float_displacement(e: PauliLabel) -> np.ndarray:
    """E'_e as a dense complex matrix: entry (x + a, x) = zeta^(b.x), with
    vectors listed in index order (x1 most significant)."""
    p, n = e.p, e.n
    x = np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64)
    target = (x + e.a) % p @ p ** np.arange(n - 1, -1, -1)
    out = np.zeros((p**n, p**n), dtype=complex)
    out[target, np.arange(p**n)] = np.exp(2j * np.pi * (x @ e.b) / p)
    return out


def random_cyclo(gen: np.random.Generator, p: int, lo=-9, hi=10) -> CycloInt:
    return CycloInt(p, tuple(int(v) for v in gen.integers(lo, hi, p)))


def as_complex(z: CycloInt) -> complex:
    zeta = cmath.exp(2j * cmath.pi / z.p)
    return sum(c * zeta**j for j, c in enumerate(z.coeffs))


def close(a: complex, b: complex, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@pytest.fixture
def gen():
    return rng(20260817)
