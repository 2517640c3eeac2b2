"""Builders that turn a function plus combinatorial data into CodeSpecs:
coset codes from shift vectors with an operationally computed distance,
codes from square matrices passing the rank conditions, and the product
family on 2m variables whose basis comes from projector-term extraction.

Builders emit *claims*; `codespec.check_claim` is the exact arbiter. The
coset builder is special in that its claimed distance is itself computed
from character sums rather than taken on faith.
"""
from __future__ import annotations

import itertools

import numpy as np

from ._tables import digit_table
from .codespec import CodeSpec
from .errors import InputError, PremiseError
from .fp_algebra import FpMatrix, iter_labels_of_weight
from .graph_codes import matrix_code_check
from .logic_fn import LogicFunction, add_affine, apc_exponents, parse_anf, quadratic_form
from .projector_codes import extract_boolean_basis


def claimed_coset_distance(f: LogicFunction, betas) -> int:
    """Smallest weight of a label (a, b) for which some ordered shift pair
    (beta_i, beta_j), including i = j, makes the character sum at
    (a, b + beta_i - beta_j) nonzero. The i = j pairs reduce to the plain
    nonvanishing test, so the search always terminates by weight n.

    A pair enters only through delta = beta_i - beta_j, and the sum at
    b + delta has the exponents of the sum at b plus delta.x, so each label
    costs one exponent table and one histogram per distinct delta."""
    betas = _check_betas(f, betas)
    p = f.p
    D = digit_table(p, f.n)
    deltas = sorted({tuple((x - y) % p for x, y in zip(bi, bj)) for bi in betas for bj in betas})
    deltas = [np.array(delta, dtype=np.int64) for delta in deltas]
    for w in range(1, f.n + 1):
        for e in iter_labels_of_weight(p, f.n, w):
            base = apc_exponents(f, e)
            for delta in deltas:
                hist = np.bincount((base + D @ delta) % p, minlength=p)
                if np.any(hist != hist[0]):
                    return w
    raise RuntimeError("unreachable: the diagonal pairs fail by weight n")


def _check_betas(f: LogicFunction, betas) -> list:
    out = []
    for beta in betas:
        beta = tuple(int(v) for v in beta)
        if len(beta) != f.n:
            raise InputError(f"shift {beta} has wrong length")
        if any(not 0 <= v < f.p for v in beta):
            raise InputError(f"shift {beta} has entries outside 0..{f.p - 1}")
        out.append(beta)
    if not out:
        raise InputError("at least one shift vector is required")
    if len(set(out)) != len(out):
        raise InputError("shift vectors must be pairwise distinct")
    return out


def build_coset_code(f: LogicFunction, betas) -> CodeSpec:
    """Basis f + beta.x for each shift; the claimed distance is the
    character-sum bound computed by claimed_coset_distance."""
    betas = _check_betas(f, betas)
    d = claimed_coset_distance(f, betas)
    basis = tuple(add_affine(f, beta) for beta in betas)
    return CodeSpec(f.p, f.n, basis, claimed_d=d, provenance="coset-code")


def build_matrix_code(A: FpMatrix, k: int, d: int) -> CodeSpec:
    """Code from a square matrix whose first k indices are class columns:
    one basis function per class vector c, consisting of the quadratic form
    of the qudit block plus the linear part fed by the class columns.
    Rejects any matrix the rank conditions reject; constants in c alone are
    dropped since a global phase never changes the code."""
    result = matrix_code_check(A, k, d)
    if not result.accepted:
        raise PremiseError(
            f"matrix rejected: condition {result.condition} fails at "
            f"erasure set {result.erased}",
            result,
        )
    m = A.rows
    nq = m - k
    qudits = list(range(k, m))
    block = A.submatrix(qudits, qudits)
    quad = quadratic_form(block)  # enforces symmetric, zero diagonal
    basis = []
    for c in itertools.product(range(A.p), repeat=k):
        lin = [
            sum(A.entries[q][col] * c[col] for col in range(k)) % A.p
            for q in qudits
        ]
        basis.append(add_affine(quad, lin))
    return CodeSpec(A.p, nq, tuple(basis), claimed_d=d, provenance="matrix-code")


# ---------------------------------------------------------------------------
# the product family on 2m variables


def mds_function(m: int) -> LogicFunction:
    """(y_1 + ... + y_{2m-2} + y_{2m-1}) * (y_1 + ... + y_{2m-2} + y_{2m})
    over F_2, on n = 2m variables."""
    if m < 2:
        raise InputError("the product family needs m >= 2")
    n = 2 * m
    common = " + ".join(f"y{i}" for i in range(1, n - 1))
    text = f"({common} + y{n - 1}) * ({common} + y{n})"
    return parse_anf(text, 2, n)


def mds_matrix(m: int) -> FpMatrix:
    """(I | Gamma(f)) for the product function: identity on the left,
    the quadratic coefficient matrix on the right."""
    f = mds_function(m)
    n = f.n
    gamma = [[0] * n for _ in range(n)]
    for coeff, mono in f.anf:
        if len(mono) == 2 and coeff:
            i, j = mono
            gamma[i][j] = gamma[j][i] = coeff
    ident = FpMatrix.identity(2, n)
    return ident.hstack(FpMatrix.from_rows(2, gamma))


def build_mds_family(m: int) -> CodeSpec:
    """Code claimed ((2m, 2^(2m-2), 2)): one basis function per support
    point of the product function, each recovered from its projector
    syndrome and checked exactly as a joint eigenvector of the rows."""
    f = mds_function(m)
    A = mds_matrix(m)
    basis = []
    for idx in range(2**f.n):
        if f.table[idx]:
            t = tuple(int(v) for v in _digits(idx, f.n))
            basis.append(extract_boolean_basis(f, A, t))
    return CodeSpec(f.p, f.n, tuple(basis), claimed_d=2, provenance="mds-family")


def _digits(idx: int, n: int) -> list:
    out = [0] * n
    for i in range(n - 1, -1, -1):
        out[i] = idx & 1
        idx >>= 1
    return out
