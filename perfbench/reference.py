"""Independent reference answers for the benchmark's output checks.

Nothing here imports lfqec. Every routine works from the documented
conventions only: truth-table index sum_i x_i p^(n-i) (x_1 most
significant), the displacement E_(a,b)|x> = zeta^(b.x)|x + a>, and the
label order "support, then a, then b, each lexicographic".

Exactness: an element z of Z[zeta_p] is zero iff all its Galois conjugates
are zero, and a nonzero z has |norm| >= 1, so at least one conjugate has
modulus >= 1. The complex128 tests below evaluate every conjugate and call z
zero when all moduli are below 1/2; float error is ~N * 1e-16, far inside.
"""
from __future__ import annotations

import itertools
import re
from functools import lru_cache

import numpy as np

# ---------------------------------------------------------------------------
# tables and ANF text


@lru_cache(maxsize=None)
def digits(p: int, n: int) -> np.ndarray:
    """(p^n, n) read-only array; row idx is the vector with that index."""
    idx = np.arange(p**n)
    out = np.empty((p**n, n), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        out[:, i] = idx % p
        idx = idx // p
    out.setflags(write=False)
    return out


def shift_index(p: int, n: int, a) -> np.ndarray:
    """index(x + a) for every index x."""
    D = digits(p, n)
    sh = (D + np.asarray(a, dtype=np.int64)) % p
    return sh @ (p ** np.arange(n - 1, -1, -1, dtype=np.int64))


_FACTOR = re.compile(r"x(\d+)(?:\^(\d+))?$")


def table_from_anf(text: str, p: int, n: int) -> np.ndarray:
    """Truth table of a sum of monomials 'c*x1^e*x3 + x2 + 1' (the form both
    the inputs written here and lfqec's canonical output use)."""
    D = digits(p, n)
    acc = np.zeros(p**n, dtype=np.int64)
    text = text.strip()
    if text == "0":
        return acc
    for term in text.split(" + "):
        coeff = 1
        val = np.ones(p**n, dtype=np.int64)
        for fac in term.split("*"):
            m = _FACTOR.match(fac)
            if m:
                e = int(m.group(2) or 1)
                val = val * D[:, int(m.group(1)) - 1] ** e % p
            else:
                coeff = coeff * int(fac)
        acc += coeff * val
    return acc % p


def anf_quadratic(n: int, weights: dict, linear=(), const: int = 0) -> str:
    """ANF text for sum w_uv x_u x_v + sum l_i x_i + c (0-based u, v, i)."""
    terms = []
    for (u, v), w in sorted(weights.items()):
        if w:
            terms.append(("" if w == 1 else f"{w}*") + f"x{u + 1}*x{v + 1}")
    terms += [("" if c == 1 else f"{c}*") + f"x{i + 1}" for i, c in enumerate(linear) if c]
    if const:
        terms.append(str(const))
    return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# labels and zero tests in Z[zeta_p]


def labels_of_weight(p: int, n: int, w: int):
    """Labels (a, b) of symplectic weight w in the documented order."""
    for supp in itertools.combinations(range(n), w):
        for avals in itertools.product(range(p), repeat=w):
            branges = [range(p) if av else range(1, p) for av in avals]
            for bvals in itertools.product(*branges):
                a = [0] * n
                b = [0] * n
                for pos, av, bv in zip(supp, avals, bvals):
                    a[pos] = av
                    b[pos] = bv
                yield tuple(a), tuple(b)


def _roots(p: int) -> np.ndarray:
    """zeta^k for every conjugate k = 1..p-1, as rows indexed by exponent."""
    k = np.arange(1, p)[:, None]
    return np.exp(2j * np.pi * k * np.arange(p)[None, :] / p)


def is_zero(vals: np.ndarray) -> np.ndarray:
    """vals[..., k] holds conjugate k of an element; True where it is 0."""
    return np.max(np.abs(vals), axis=-1) < 0.5


def char_sums(p: int, exps: np.ndarray) -> np.ndarray:
    """sum_x zeta^(exps[..., x]) for every conjugate, on the last axis."""
    R = _roots(p)
    return np.stack([R[k][exps % p].sum(axis=-1) for k in range(p - 1)], axis=-1)


def _label_chunks(p, n, max_weight, chunk=2048):
    for w in range(1, max_weight + 1):
        it = labels_of_weight(p, n, w)
        while True:
            block = list(itertools.islice(it, chunk))
            if not block:
                break
            yield w, block


def first_nonvanishing(p: int, n: int, table: np.ndarray, oracle: bool):
    """First label, in order, whose single-state sum does not vanish.

    oracle=False: sum_x zeta^(f(x) - f(x - a) + b.x)   (character-sum route)
    oracle=True:  sum_x zeta^(f(x) + b.x - f(x + a))   (<psi|E|psi>)
    Returns (weight, a, b)."""
    D = digits(p, n)
    shifts: dict = {}
    for w, block in _label_chunks(p, n, n, chunk=256):
        for a, _ in block:
            if a not in shifts:
                shifts[a] = shift_index(p, n, a if oracle else tuple(-v % p for v in a))
        sidx = np.stack([shifts[a] for a, _ in block])
        B = np.array([b for _, b in block], dtype=np.int64)
        exps = table[None, :] - table[sidx] + B @ D.T
        nz = ~is_zero(char_sums(p, exps))
        if nz.any():
            i = int(np.argmax(nz))
            return w, block[i][0], block[i][1]
    raise AssertionError("a full-support label always has a nonvanishing sum")


def coset_distance(p: int, n: int, table: np.ndarray, betas) -> int:
    """Smallest weight w with a label (a, b) and an ordered pair (i, j)
    whose sum at (a, b + beta_i - beta_j) does not vanish."""
    D = digits(p, n)
    betas = np.asarray(betas, dtype=np.int64)
    diffs = np.unique((betas[:, None, :] - betas[None, :, :]).reshape(-1, n) % p, axis=0)
    for w, block in _label_chunks(p, n, n, chunk=64):
        for a, b in block:
            sidx = shift_index(p, n, tuple(-v % p for v in a))
            base = table - table[sidx]
            bs = (np.asarray(b, dtype=np.int64)[None, :] + diffs) % p
            exps = base[None, :] + bs @ D.T
            if not is_zero(char_sums(p, exps)).all():
                return w
    raise AssertionError("unreachable")


def gram_failures(p: int, n: int, tables, max_weight: int) -> list:
    """First scalar-Gram violation per label, for labels of weight
    1..max_weight, as (a, b, kind, i, j). G_e[i][j] = <psi_i|E_e|psi_j>;
    a one-dimensional code needs G_e[0][0] = 0."""
    D = digits(p, n)
    T = np.asarray(tables, dtype=np.int64)  # (K, N)
    K = len(T)
    R = _roots(p)
    psi = np.stack([R[k][T] for k in range(p - 1)])  # (p-1, K, N)
    out = []
    for w in range(1, max_weight + 1):
        for a, b in labels_of_weight(p, n, w):
            sidx = shift_index(p, n, a)
            bx = D @ np.asarray(b, dtype=np.int64) % p
            G = np.stack(
                [np.conj(psi[k][:, sidx]) @ (psi[k] * R[k][bx][None, :]).T for k in range(p - 1)],
                axis=-1,
            )  # (K, K, p-1)
            if K == 1:
                if not is_zero(G[0, 0]):
                    out.append((a, b, "diag_unequal", 0, 0))
                continue
            off = ~is_zero(G)
            np.fill_diagonal(off, False)
            if off.any():
                i, j = np.argwhere(off)[0]
                out.append((a, b, "offdiag_nonzero", int(i), int(j)))
                continue
            diag = ~is_zero(G[np.arange(K), np.arange(K)] - G[0, 0][None, :])
            if diag.any():
                out.append((a, b, "diag_unequal", 0, int(np.argmax(diag))))
    return out


def displace(p: int, n: int, a, b, psi: np.ndarray) -> np.ndarray:
    """E_(a,b) psi with new[x + a] = zeta^(b.x) old[x] (complex vector)."""
    D = digits(p, n)
    phase = np.exp(2j * np.pi * (D @ np.asarray(b, dtype=np.int64) % p) / p)
    out = np.empty_like(psi)
    out[shift_index(p, n, a)] = phase * psi
    return out


# ---------------------------------------------------------------------------
# binary functions: zero-product shifts and bentness


def zset(table: np.ndarray) -> list:
    """Indices a with sum_x f(x) f(x xor a) = 0, by direct summation."""
    t = np.asarray(table, dtype=np.int32)
    N = len(t)
    idx = np.arange(N)
    out = []
    for lo in range(0, N, 256):
        a = np.arange(lo, min(N, lo + 256))
        sums = t[np.bitwise_xor(a[:, None], idx[None, :])] @ t
        out.extend(int(v) for v in a[sums == 0])
    return out


def walsh(table: np.ndarray) -> np.ndarray:
    """W(u) = sum_x (-1)^(f(x) + u.x), as one tensor contraction per axis."""
    n = int(np.log2(len(table)))
    v = (1.0 - 2.0 * np.asarray(table, dtype=np.float64)).reshape((2,) * n)
    H = np.array([[1.0, 1.0], [1.0, -1.0]])
    for ax in range(n):
        v = np.moveaxis(np.tensordot(H, v, axes=([1], [ax])), 0, ax)
    return v.reshape(-1)


def is_bent(table: np.ndarray) -> bool:
    n = int(np.log2(len(table)))
    return bool(np.all(np.abs(np.abs(walsh(table)) - 2.0 ** (n / 2)) < 0.5))


# ---------------------------------------------------------------------------
# plain F_p elimination


def rref(rows, p: int):
    """(reduced rows, pivot columns) of a list of residue rows."""
    M = [[int(v) % p for v in r] for r in rows]
    pivots = []
    r = 0
    ncols = len(M[0]) if M else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = pow(M[r][c], -1, p)
        M[r] = [v * inv % p for v in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [(x - f * y) % p for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    return M, pivots


def rank(rows, p: int) -> int:
    return len(rref(rows, p)[1]) if rows and rows[0] else 0


def kernel_basis(rows, p: int, ncols: int) -> list:
    M, pivots = rref(rows, p) if rows else ([], [])
    out = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for i, c in enumerate(pivots):
            v[c] = -M[i][fc] % p
        out.append(v)
    return out


def _sub(A, rows, cols):
    return [[A[i][j] for j in cols] for i in rows]


def _hstack(X, Y):
    return [x + y for x, y in zip(X, Y)]


def matrix_rank_route(A, p: int, k: int, d: int):
    """(accepted, condition, erased) of the documented rank conditions."""
    m = len(A)
    cls, qudits = list(range(k)), list(range(k, m))
    for E in itertools.combinations(qudits, d - 1):
        I = [q for q in qudits if q not in E]
        if rank(_sub(A, E, I), p) != d - 1:
            return False, "selector_rank", list(E)
        if rank(_hstack(_sub(A, I, cls), _sub(A, I, E)), p) != rank(_sub(A, I, E), p) + k:
            return False, "joint_rank", list(E)
    return True, None, None


def kernel_violations(A, p: int, k: int, E, vec) -> set:
    """Which kernel conditions a vector of [A_I,class | A_I,E] breaks."""
    bad = set()
    if any(vec[:k]):
        bad.add("kernel_class_component")
    if any(sum(A[x][e] * dv for e, dv in zip(E, vec[k:])) % p for x in range(k)):
        bad.add("kernel_class_action")
    return bad


def matrix_kernel_first_failure(A, p: int, k: int, d: int):
    """First erasure set (in combination order) whose kernel holds a vector
    breaking a kernel condition, or None when the route accepts."""
    m = len(A)
    cls, qudits = list(range(k)), list(range(k, m))
    for E in itertools.combinations(qudits, d - 1):
        I = [q for q in qudits if q not in E]
        M = _hstack(_sub(A, I, cls), _sub(A, I, E))
        if any(kernel_violations(A, p, k, E, v) for v in kernel_basis(M, p, k + len(E))):
            return list(E)
    return None


def symplectic(u_a, u_b, v_a, v_b, p: int) -> int:
    return (sum(x * y for x, y in zip(u_a, v_b)) - sum(x * y for x, y in zip(v_a, u_b))) % p


def projector_premises(table: np.ndarray, A, n: int) -> dict:
    """The four premises for A = (L|B) against a binary function, as the
    report fields lfqec prints."""
    zs = {tuple(int(v) for v in digits(2, n)[i]) for i in zset(table)}
    M = int(np.count_nonzero(table))
    cols = [tuple(A[r][j] for r in range(n)) for j in range(2 * n)]
    rows = [(A[i][:n], A[i][n:]) for i in range(n)]
    report = {
        "n": n,
        "M": M,
        "weight_ok": 0 < M <= 2 ** (n - 1),
        "missing_columns": [j for j in range(2 * n) if cols[j] not in zs],
        "missing_sums": [
            i for i in range(n) if tuple((x + y) % 2 for x, y in zip(cols[i], cols[n + i])) not in zs
        ],
        "nonorthogonal_pairs": [
            [i, j]
            for i in range(n)
            for j in range(i + 1, n)
            if symplectic(rows[i][0], rows[i][1], rows[j][0], rows[j][1], 2)
        ],
        "rows_independent": rank(A, 2) == n,
    }
    report["all_ok"] = (
        report["weight_ok"]
        and not report["missing_columns"]
        and not report["missing_sums"]
        and not report["nonorthogonal_pairs"]
        and report["rows_independent"]
    )
    return report


def eigen_ok(g_table: np.ndarray, A, n: int, t) -> bool:
    """Float check that psi_g = (-1)^g is the joint eigenvector of the rows
    of A with eigenvalues (-1)^(t_i): the syndrome-t projector term."""
    psi = (1.0 - 2.0 * g_table).astype(np.complex128)
    for i in range(n):
        got = displace(2, n, A[i][:n], A[i][n:], psi)
        if not np.allclose(got, (-1) ** t[i] * psi, atol=1e-9):
            return False
    return True
