"""Shared helpers: seeded random objects, independent float-arithmetic
cross-checks, and the direct (slow, exact) reference implementations that
the transform, matrix-product and eigenvector routines are compared
against, among them the per-label character sums, the paper's shift-set
formula, the dense projector operators and the syndrome-by-syndrome basis
extraction."""
from __future__ import annotations

import cmath
import functools
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
    PremiseError,
    StateVector,
    graph_to_stabilizer_rows,
    label_blocks,
    rank,
    solve_coboundary,
    solve_linear,
    state_from_function,
    symplectic_product,
    weight_support,
)


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_function(gen: np.random.Generator, p: int, n: int) -> LogicFunction:
    return LogicFunction(p, n, gen.integers(0, p, p**n).astype(np.int64))


def count_expansions(monkeypatch) -> list:
    """Patch LogicFunction.table to record each ANF-held function whose ANF
    it expands; the list keeps them alive, so their ids stay distinct."""
    expanded, table = [], LogicFunction.table

    def counted(f):
        if f.anf is not None:
            expanded.append(f)
        return table.fget(f)

    monkeypatch.setattr(LogicFunction, "table", property(counted))
    return expanded


def digit_index(p: int, x) -> int:
    """Table index of x by Horner's rule, x_1 the most significant digit."""
    idx = 0
    for v in x:
        idx = idx * p + v
    return idx


@functools.lru_cache(maxsize=8)
def grid_vectors(p: int, n: int) -> np.ndarray:
    """Every x in F_p^n in table-index order, as an (p^n, n) int64 array."""
    return np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64)


def grid_index(p: int, x: np.ndarray) -> np.ndarray:
    """Table index of each row of x, x_1 the most significant digit."""
    return x @ p ** np.arange(x.shape[1] - 1, -1, -1)


def label_weight(e: PauliLabel) -> int:
    """Positions where (a_i, b_i) != (0, 0)."""
    return sum(1 for x, y in zip(e.a, e.b) if x or y)


def label_sum(u: PauliLabel, v: PauliLabel) -> PauliLabel:
    """(a_u + a_v | b_u + b_v), reduced mod p by the label."""
    return PauliLabel(u.p, tuple(map(sum, zip(u.a, v.a))), tuple(map(sum, zip(u.b, v.b))))


def state_complex(psi: StateVector) -> np.ndarray:
    """The amplitudes of psi as complex floats at zeta = exp(2 pi i / p)."""
    return psi.amps @ np.exp(2j * np.pi * np.arange(psi.p) / psi.p)


def character_sum(f: LogicFunction, a, b) -> CycloInt:
    """sum_x zeta^(f(x) - f(x - a) + b.x) as an exact exponent histogram.
    x - a is indexed digit by digit and b.x is one product over the listed
    vectors, so none of lfqec's shift or linear-form tables is used."""
    x = grid_vectors(f.p, f.n)
    exps = (f.table - f.table[grid_index(f.p, (x - a) % f.p)] + x @ np.array(b)) % f.p
    return CycloInt(f.p, tuple(np.bincount(exps, minlength=f.p).tolist()))


def direct_spectrum(f: LogicFunction) -> np.ndarray:
    """sum_x (-1)^(f(x) + f(x + a)) summed shift by shift, the O(4^n)
    reference for the transform route. At p = 2 the index of x + a is
    index(x) XOR index(a)."""
    t = f.table
    x = np.arange(len(t))
    return np.array([np.sum(1 - 2 * ((t + t[x ^ a]) % 2)) for a in x], dtype=np.int64)


def shift_bits(n: int, a: int) -> tuple:
    """The binary shift with table index a, x1 its most significant bit."""
    return tuple(int(bit) for bit in format(a, f"0{n}b"))


def direct_zset(f: LogicFunction) -> set:
    """Shifts a with sum_x f(x) f(x + a) = 0 over the integers, summed shift
    by shift."""
    t = f.table
    x = np.arange(len(t))
    return {shift_bits(f.n, a) for a in x if np.sum(t * t[x ^ a]) == 0}


def formula_zset(f: LogicFunction) -> set:
    """The paper's {a : r_f(a) = 2^n - 4M}, with r_f from direct_spectrum and
    M the weight of f. The formula's precondition M <= 2^(n-1) is checked:
    a heavier f raises ValueError. Since r_f(a) = 2^n - 4M + 4 sum_x f(x)
    f(x + a), the set is the zero-product shift set."""
    M = int(np.count_nonzero(f.table))
    if M > 2 ** (f.n - 1):
        raise ValueError(f"weight {M} exceeds 2^(n-1) = {2 ** (f.n - 1)}")
    r = direct_spectrum(f)
    return {shift_bits(f.n, a) for a in np.flatnonzero(r == 2**f.n - 4 * M)}


def difference_zset(f: LogicFunction) -> set:
    """The shifts outside the support's XOR difference set {s + s'}: no two
    support points differ by such an a, so sum_x f(x) f(x + a) = 0. Its
    cost is quadratic in the support size, for sparse tables at large n."""
    s = np.flatnonzero(f.table)
    hit = np.zeros(len(f.table), dtype=bool)
    hit[(s[:, None] ^ s).ravel()] = True
    return {shift_bits(f.n, a) for a in np.flatnonzero(~hit)}


def walk_blocks(p: int, n: int, w: int) -> list:
    """The walk label_blocks(p, n, w) read as blocks (a, bs), one per support
    and a, every vector a tuple of Python ints: bs lists the b that go with a."""
    blocks = []
    for supp, A, B, _ in label_blocks(p, n, w):  # merges a-groups itself, not by starts
        for a, b in zip(map(tuple, A.tolist()), map(tuple, B.tolist())):
            if not blocks or blocks[-1][:2] != (supp, a):
                blocks.append((supp, a, []))
            blocks[-1][2].append(b)
    return [(a, bs) for _, a, bs in blocks]


def conj(coeffs: tuple) -> tuple:
    """The coefficients of the complex conjugate: zeta^j goes to zeta^(-j)."""
    return tuple(coeffs[-j % len(coeffs)] for j in range(len(coeffs)))


def rotate(coeffs: tuple, e: int) -> tuple:
    """The coefficients of zeta^e times the value."""
    return tuple(coeffs[(j - e) % len(coeffs)] for j in range(len(coeffs)))


def reference_labels(p: int, n: int, w: int) -> list:
    """Every label (a, b) of symplectic weight w, listed in the fixed order
    every label search must follow: supports of size w in lexicographic
    order, then a on the support, then b on the support, each lexicographic.
    Only b_k != 0 is allowed where a_k = 0, so each label's support is
    exactly its set, and no label of another weight is formed."""
    labels = []
    for supp in itertools.combinations(range(n), w):
        for a_s in itertools.product(range(p), repeat=w):
            for b_s in itertools.product(*(range(0 if x else 1, p) for x in a_s)):
                a, b = [0] * n, [0] * n
                for i, x, y in zip(supp, a_s, b_s):
                    a[i], b[i] = x, y
                labels.append((tuple(a), tuple(b)))
    return labels


def verify_stabilizer(G) -> bool:
    """Exact check that every vertex operator of a weighted graph fixes the
    graph state."""
    psi = state_from_function(G.function())
    return all(reference_apply_error(row, psi) == psi for row in graph_to_stabilizer_rows(G))


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


def kernel_gram_matrix(basis, e: PauliLabel) -> list:
    """G_e[i][j] = <psi_i|E'_e|psi_j> from the oracle's own float64 kernel
    (`_stack` and `_gram`, which the Gram sweep runs once per label), on
    kets shifted by reference_apply_error."""
    from lfqec import state_oracle

    p, K = basis[0].p, len(basis)
    kets = state_oracle._stack([reference_apply_error(e, psi) for psi in basis])
    G = state_oracle._gram(state_oracle._stack(basis), kets, p)
    return [[CycloInt(p, tuple(int(c) for c in G[:, i, j])) for j in range(K)] for i in range(K)]


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
        for a, b in reference_labels(p, n, w)
        if (bad := reference_label_failure(basis, PauliLabel(p, a, b))) is not None
    ]
    return {
        "p": p,
        "n": n,
        "K": len(basis),
        "max_weight": max_weight,
        "verdict": "fail" if failures else "pass",
        "failures": failures,
    }


def reference_min_distance(basis):
    p, n = basis[0].p, basis[0].n
    for w in range(1, n + 1):
        for a, b in reference_labels(p, n, w):
            if reference_label_failure(basis, PauliLabel(p, a, b)) is not None:
                return w
    return f"> {n}"


def reference_coset_distance(f: LogicFunction, betas) -> tuple:
    """(distance, (a, b) of the first failing label) of claimed_coset_distance,
    with one character sum per label and ordered shift pair."""
    for w in range(1, f.n + 1):
        for a, b in reference_labels(f.p, f.n, w):
            for bi in betas:
                for bj in betas:
                    moved = tuple((x + y - z) % f.p for x, y, z in zip(b, bi, bj))
                    if not character_sum(f, a, moved).is_zero():
                        return w, (a, b)
    raise AssertionError("the diagonal pairs fail by weight n")


def reference_apc_distance(f: LogicFunction) -> tuple:
    """(distance, (a, b) of the witness) of apc_distance, with one
    character sum per label."""
    for w in range(1, f.n + 1):
        for a, b in reference_labels(f.p, f.n, w):
            if not character_sum(f, a, b).is_zero():
                return w, (a, b)
    raise AssertionError("a full-support row never vanishes")


def reference_kernel_check(A: FpMatrix, k: int, d: int):
    """matrix_kernel_check by enumerating every nonzero kernel vector, as a
    combination of the solved nullspace basis with coefficients in
    lexicographic order, and testing both conditions on each. Returns
    (accepted, condition, erased, vector)."""
    p = A.p
    cls, qudits = list(range(k)), list(range(k, A.rows))
    for E in itertools.combinations(qudits, d - 1):
        I = [q for q in qudits if q not in E]
        M = A.submatrix(I, cls).hstack(A.submatrix(I, list(E)))
        basis = solve_linear(M, [0] * M.rows).nullspace
        for coeffs in itertools.product(range(p), repeat=len(basis)):
            if not any(coeffs):
                continue
            vec = tuple(sum(c * bv[i] for c, bv in zip(coeffs, basis)) % p for i in range(M.cols))
            if any(vec[:k]):
                return False, "kernel_class_component", E, vec
            for x in cls:
                if sum(A.entries[x][e] * v for e, v in zip(E, vec[k:])) % p:
                    return False, "kernel_class_action", E, vec
    return True, None, None, None


def reference_rank(rows, p: int) -> int:
    """Rank over F_p by forward elimination on a copy of the rows."""
    rows, r = [list(row) for row in rows], 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        for i in range(r + 1, len(rows)):
            f = rows[i][c] * inv
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def reference_rank_check(A: FpMatrix, k: int, d: int):
    """matrix_code_check with the three ranks of each erasure set E taken
    as stated: rank A_E,I must be d-1, and rank [A_I,class | A_I,E] must be
    rank A_I,E + k. Returns (accepted, condition, erased)."""
    cls, qudits = list(range(k)), list(range(k, A.rows))

    def sub(rows, cols):
        return [[A.entries[i][j] for j in cols] for i in rows]

    for E in itertools.combinations(qudits, d - 1):
        I = [q for q in qudits if q not in E]
        if reference_rank(sub(E, I), A.p) != d - 1:
            return False, "selector_rank", E
        if reference_rank(sub(I, cls + list(E)), A.p) != reference_rank(sub(I, E), A.p) + k:
            return False, "joint_rank", E
    return True, None, None


def reference_coverage_map(G, budget: int) -> dict:
    """mask(T) -> (omega, delta) masks of the first witness of every T
    coverable within the budget, by three nested loops over support size,
    support and role tuple (1 = omega only, 2 = delta only, 3 = both), with
    N(omega) summed row by row for each tuple."""
    cov: dict = {}
    for s in range(budget + 1):
        for supp in itertools.combinations(range(G.n), s):
            for roles in itertools.product((1, 2, 3), repeat=s):
                om = sum(1 << v for v, r in zip(supp, roles) if r & 1)
                de = sum(1 << v for v, r in zip(supp, roles) if r & 2)
                totals = [0] * G.n
                for v in range(G.n):
                    if om >> v & 1:
                        totals = [t + w for t, w in zip(totals, G.adj.entries[v])]
                parity = sum(1 << u for u in range(G.n) if totals[u] % G.p)
                cov.setdefault(de ^ parity, (om, de))
    return cov


def stabilizer_labels(A: FpMatrix) -> list:
    """Row i of the n x 2n matrix (L|B) as the label (L_i, B_i)."""
    n = A.rows
    return [PauliLabel(A.p, A.row(i)[:n], A.row(i)[n:]) for i in range(n)]


def displacement(e: PauliLabel, phase: int = 0) -> OperatorMatrix:
    """zeta^phase E'_e as a dense exact operator: entry (x + a, x) is
    zeta^(b.x + phase)."""
    x = grid_vectors(e.p, e.n)
    ent = np.zeros((len(x), len(x), e.p), dtype=np.int64)
    ent[grid_index(e.p, (x + e.a) % e.p), np.arange(len(x)), (x @ np.array(e.b) + phase) % e.p] = 1
    return OperatorMatrix(e.p, e.n, ent)


def identity_operator(p: int, n: int) -> OperatorMatrix:
    return displacement(PauliLabel(p, (0,) * n, (0,) * n))


def operator_sum(A: OperatorMatrix, B: OperatorMatrix) -> OperatorMatrix:
    """A + B, at the finer of their two dyadic scales."""
    a, b, s = A._aligned(B)
    return OperatorMatrix(A.p, A.n, a + b, s)


def syndrome_term(ops: list, t, p: int, n: int) -> OperatorMatrix:
    """Product over rows of 1/2 (I + (-1)^(t_i) E_i), row order fixed, as a
    dense exact operator."""
    ident = identity_operator(p, n)
    term = ident
    for ti, E in zip(t, ops):
        term = term.mul(OperatorMatrix(p, n, ident.entries + (-1) ** ti * E.entries, -1))
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
    ops = [displacement(e) for e in rows]
    M, support = weight_support(f)
    if M == 0:
        raise InputError("the function has empty support")
    acc = None
    for t in support:
        term = syndrome_term(ops, t, f.p, f.n)
        acc = term if acc is None else operator_sum(acc, term)
    return acc


def reference_boolean_basis(f: LogicFunction, A: FpMatrix, t) -> LogicFunction:
    """The syndrome-t basis function solved on its own: the full difference
    system g(x + alpha_i) - g(x) = beta_i . x + t_i + beta_i . alpha_i over
    the rows of A, then the check E_i psi_g = (-1)^(t_i) psi_g per row with
    the basis-state-by-basis-state displacement. Raises as the library does
    for p != 2, a singular left block and an inconsistent system."""
    if f.p != 2:
        raise InputError("basis extraction is defined for p = 2")
    n = f.n
    rows = stabilizer_labels(A)
    if rank(A.submatrix(range(n), range(n))) != n:
        raise InputError("left block of the matrix must be invertible")
    pairs = [(e.a, e.b, (ti + sum(x * y for x, y in zip(e.a, e.b))) % 2) for e, ti in zip(rows, t)]
    g = solve_coboundary(pairs, 2, n)
    if g is None:
        raise PremiseError("no quadratic function satisfies the syndrome difference system")
    psi = state_from_function(g)
    for i, (e, ti) in enumerate(zip(rows, t)):
        want = StateVector(2, n, -psi.amps) if ti else psi
        if reference_apply_error(e, psi) != want:
            raise RuntimeError(f"recovered state is not an eigenvector of row {i} with sign (-1)^{ti}")
    return g


def reference_eigen_failure(g0: LogicFunction, f: LogicFunction, A: FpMatrix):
    """The first (row, sign) at which the basis g_t = g0 + lambda_t . x,
    L lambda_t = t for each support point t of f, fails E_i psi_g =
    (-1)^(t_i) psi_g: rows in order, then support points in table-index
    order; None when every row holds. lambda_t is found by trying every
    vector, g0 is evaluated from its ANF and each row is applied basis state
    by basis state."""
    n = f.n
    vectors = list(itertools.product(range(2), repeat=n))
    support = [x for x, v in zip(vectors, f.table.tolist()) if v]
    left = [A.row(i)[:n] for i in range(n)]
    g0_values = [sum(c * all(x[v] for v in m) for c, m in g0.anf) for x in vectors]
    states = []
    for t in support:
        lam = next(v for v in vectors if all(
            sum(r * y for r, y in zip(row, v)) % 2 == ti for row, ti in zip(left, t)))
        table = [(g + sum(y * z for y, z in zip(lam, x))) % 2 for g, x in zip(g0_values, vectors)]
        states.append(state_from_function(LogicFunction(2, n, np.array(table))))
    for i, e in enumerate(stabilizer_labels(A)):
        for t, psi in zip(support, states):
            if reference_apply_error(e, psi) != (StateVector(2, n, -psi.amps) if t[i] else psi):
                return i, t[i]
    return None


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
    x = grid_vectors(e.p, e.n)
    out = np.zeros((len(x), len(x)), dtype=complex)
    out[grid_index(e.p, (x + e.a) % e.p), np.arange(len(x))] = np.exp(2j * np.pi * (x @ e.b) / e.p)
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
