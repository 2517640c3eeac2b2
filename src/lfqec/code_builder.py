"""Builders that turn a function plus combinatorial data into CodeSpecs:
coset codes from shift vectors with an operationally computed distance,
codes from square matrices passing the rank conditions, and the product
family on 2m variables whose basis comes from projector-term extraction.

Builders emit *claims*; `codespec.check_claim` is the exact arbiter. The
coset builder is special in that its claimed distance is itself computed
from character sums rather than taken on faith.
"""
from __future__ import annotations

import numpy as np

from ._tables import index_rows
from .codespec import CodeSpec
from .errors import InputError, PremiseError
from .fp_algebra import FpMatrix, table_size
from .logic_fn import LogicFunction, _first_nonvanishing, _symmetric_form, affine_family, parse_anf
from .logic_fn import quadratic_form


def claimed_coset_distance(f: LogicFunction, betas) -> int:
    """Smallest weight of a label (a, b) for which some ordered shift pair
    (beta_i, beta_j), including i = j, makes the character sum at
    (a, b + beta_i - beta_j) nonzero; i = j is the test of apc_distance.
    The search refuses shift counts over its caps (see _first_nonvanishing)."""
    return _first_nonvanishing(f, _check_betas(f, betas))[0]


def _check_betas(f: LogicFunction, betas) -> list:
    """The shifts as tuples: at least one, pairwise distinct, each of length
    n with entries in 0..p-1. Capacity is the search's to check."""
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
    character-sum bound computed by claimed_coset_distance, which alone
    checks the shifts."""
    betas = list(betas)  # read twice: by the distance, then by the basis
    d = claimed_coset_distance(f, betas)
    return CodeSpec(f.p, f.n, tuple(affine_family(f, betas)), claimed_d=d, provenance="coset-code")


def build_matrix_code(A: FpMatrix, k: int, d: int) -> CodeSpec:
    """Code from a square matrix whose first k indices are class columns:
    one basis function per class vector c, the quadratic form of the qudit
    block plus the linear part fed by the class columns (a constant in c
    alone is a global phase, so it is dropped). Rejects any matrix the rank
    conditions reject, checked here once; `_matrix_code` then builds the code."""
    from .graph_codes import matrix_code_check

    result = matrix_code_check(A, k, d)
    if not result.accepted:
        raise PremiseError(
            f"matrix rejected: condition {result.condition} fails at "
            f"erasure set {result.erased}",
            result,
        )
    return _matrix_code(A, k, d)


def _matrix_code(A: FpMatrix, k: int, d: int) -> CodeSpec:
    qudits = range(k, A.rows)
    quad = quadratic_form(A.submatrix(qudits, qudits))  # enforces symmetric, zero diagonal
    # row c: the class columns of the qudit rows applied to the class vector c
    classes = index_rows(A.p, k, np.arange(A.p**k))
    lins = classes @ np.array(A.entries, dtype=np.int64)[k:, :k].T % A.p
    basis = tuple(affine_family(quad, lins.tolist()))
    return CodeSpec(A.p, len(qudits), basis, claimed_d=d, provenance="matrix-code")


# ---------------------------------------------------------------------------
# the product family on 2m variables


def mds_function(m: int) -> LogicFunction:
    """(y_1 + ... + y_{2m-2} + y_{2m-1}) * (y_1 + ... + y_{2m-2} + y_{2m})
    over F_2, on n = 2m variables."""
    if m < 2:
        raise InputError("the product family needs m >= 2")
    n = 2 * m
    table_size(2, n)  # before the text, which grows with m
    common = " + ".join(f"y{i}" for i in range(1, n - 1))
    text = f"({common} + y{n - 1}) * ({common} + y{n})"
    return parse_anf(text, 2, n)


def mds_matrix(m: int) -> FpMatrix:
    """(I | Gamma(f)) for the product function: identity on the left,
    the quadratic coefficient matrix on the right."""
    return _identity_gamma(mds_function(m))


def _identity_gamma(f: LogicFunction) -> FpMatrix:
    gamma = _symmetric_form(2, f.n, f.anf)  # Gamma = S: zero diagonal, as p = 2 has no squares
    return FpMatrix.identity(2, f.n).hstack(FpMatrix.from_rows(2, gamma.tolist()))


def build_mds_family(m: int) -> CodeSpec:
    """Code claimed ((2m, 2^(2m-2), 2)): one basis function per support
    point of the product function, all recovered from one coboundary solve
    and each checked exactly as a joint eigenvector of the rows."""
    from .projector_codes import extract_boolean_basis

    f = mds_function(m)  # parsed once, for the matrix and the basis
    basis = extract_boolean_basis(f, _identity_gamma(f))
    return CodeSpec(f.p, f.n, tuple(basis), claimed_d=2, provenance="mds-family")
