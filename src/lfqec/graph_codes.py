"""Codes from weighted graphs over F_p.

A graph Gamma on n vertices with symmetric zero-diagonal F_p weights carries
the quadratic function f(x) = sum_{u<v} Gamma_uv x_u x_v, whose state is
stabilized by X at each vertex paired with Z along its weighted row. Code
spaces are spanned by f plus indicator linear parts chosen from "class"
vertex sets; the distance condition is a purely combinatorial coverage test
on symmetric differences of classes.

A vertex set T is *coverable* with budget w when T = delta XOR N(omega) for
some vertex sets omega, delta with |omega union delta| <= w, where N(omega)
is the set of vertices whose total edge weight into omega is nonzero mod p.
The degree-d family D_d(Gamma) collects the nonempty sets that are NOT
coverable with budget d-1; pairwise symmetric differences of classes must
land in it.

Vertices are 1-based in every public signature; bitmasks stay internal.
"""
from __future__ import annotations

import itertools
from typing import NamedTuple

from ._textfile import read_graph_file
from .errors import CapacityError, InputError
from .fp_algebra import FpMatrix, PauliLabel, _Slotted, _eliminate, check_listing, solve_linear

# The matrix checks run on Python ints; numpy loads only when coverage runs
# or a function-valued construction imports logic_fn and codespec.

MAX_COVERAGE_VERTICES = 20


class WeightedGraph(_Slotted):
    __slots__ = ("p", "n", "adj")

    def __init__(self, p: int, n: int, adj: FpMatrix):
        if adj.p != p or adj.rows != n or adj.cols != n:
            raise InputError("adjacency matrix shape/field mismatch")
        if not adj.is_symmetric():
            raise InputError("adjacency matrix must be symmetric")
        if not adj.has_zero_diagonal():
            raise InputError("self-loops are not allowed")
        self.p, self.n, self.adj = p, n, adj

    def function(self) -> LogicFunction:
        from .logic_fn import quadratic_form

        return quadratic_form(self.adj)


def parse_graph_file(text: str) -> WeightedGraph:
    """'p n' then one 'u v [w]' line per edge (1-based vertices, weight
    default 1). Blank lines and '#' comments are skipped; repeating an edge
    is an error."""
    return WeightedGraph(*read_graph_file(text))


# ---------------------------------------------------------------------------
# coverage


def _mask(G: WeightedGraph, vs) -> int:
    """The bitmask of a vertex set, refusing a vertex outside 1..n."""
    mask = 0
    for v in frozenset(map(int, vs)):
        if not 1 <= v <= G.n:
            raise InputError(f"vertex {v} out of range 1..{G.n}")
        mask |= 1 << (v - 1)
    return mask


def _unmask(mask: int, n: int) -> frozenset:
    return frozenset(v + 1 for v in range(n) if mask >> v & 1)


def _coverage_map(G: WeightedGraph, budget: int) -> np.ndarray:
    """Rows omega and delta over the 2^n vertex masks T: the masks of T's
    first witness in (support size, support, roles) order; omega[T] is -1
    where T is not coverable within the budget."""
    if G.n > MAX_COVERAGE_VERTICES:
        raise CapacityError(f"coverage search limited to {MAX_COVERAGE_VERTICES} vertices")
    top = min(budget, G.n)  # no support is larger than n
    check_listing(3**top, f"3^{top} = {3**top} coverage role tuples")
    import numpy as np

    bits, adj = 1 << np.arange(G.n), np.array(G.adj.entries, dtype=np.int64)
    cov = np.full((2, 1 << G.n), -1)
    for s in range(top + 1):
        # role tuples in product order, 1 = omega only, 2 = delta only, 3 = both;
        # each picks its omega and its delta by subset index into the support
        roles = np.indices((3,) * s).reshape(s, 3**s).T + 1
        picks = np.stack([roles & 1, roles >> 1]) @ bits[:s]
        subsets = np.arange(1 << s)[:, None] >> np.arange(s) & 1
        for supp in map(list, itertools.combinations(range(G.n), s)):
            masks = subsets @ bits[supp]
            nbrs = (subsets @ adj[supp] % G.p != 0) @ bits  # N(omega) per subset
            t, first = np.unique(masks[picks[1]] ^ nbrs[picks[0]], return_index=True)
            new = cov[0, t] < 0
            cov[:, t[new]] = masks[picks[:, first[new]]]
    return cov


def uncoverable_family(G: WeightedGraph, d: int) -> set:
    """D_d(Gamma) in full: every nonempty vertex set that survives the
    coverage test. Exponential in n; guarded by the vertex cap."""
    if d < 1:
        raise InputError("d must be >= 1")
    omega, _ = _coverage_map(G, d - 1)
    return {_unmask(m, G.n) for m in range(1, 1 << G.n) if omega[m] < 0}


# ---------------------------------------------------------------------------
# graph code construction and stabilizer rows


def build_graph_code(G: WeightedGraph, classes, d: int) -> CodeSpec:
    """Span of g_i = f + chi(C_i).x over the given vertex classes, claiming
    distance d. Requires the empty class to be present and every pairwise
    symmetric difference to be uncoverable; the first violating pair in class
    order is reported with a coverage witness. K^2 is held to the listing budget."""
    masks = [_mask(G, c) for c in classes]
    if d < 1:
        raise InputError("d must be >= 1")
    if 0 not in masks:
        raise InputError("the empty class must be included")
    if len(set(masks)) != len(masks):
        raise InputError("classes must be pairwise distinct")
    check_listing(len(masks) ** 2, f"K^2 = {len(masks) ** 2} class pairs")
    if len(masks) > 1:
        import numpy as np

        # distinct classes differ, so each difference is nonempty and is
        # coverable exactly when omega holds a witness for it
        omega, delta = _coverage_map(G, d - 1)
        mask_array = np.array(masks)
        for i, mi in enumerate(masks[:-1]):
            hits = np.flatnonzero(omega[mi ^ mask_array[i + 1 :]] >= 0)
            if hits.size:
                mj = masks[i + 1 + hits[0]]
                ci, cj, t = (sorted(_unmask(m, G.n)) for m in (mi, mj, mi ^ mj))
                om, de = (sorted(_unmask(m[mi ^ mj], G.n)) for m in (omega, delta))
                raise InputError(
                    f"classes {ci} and {cj}: symmetric difference {t} is coverable "
                    f"below weight {d}; witness omega={om} delta={de}"
                )
    from .codespec import CodeSpec
    from .logic_fn import affine_family

    basis = affine_family(G.function(), [[m >> v & 1 for v in range(G.n)] for m in masks])
    return CodeSpec(G.p, G.n, tuple(basis), claimed_d=d, provenance="graph-code")


def graph_to_stabilizer_rows(G: WeightedGraph) -> list:
    """One label per vertex: X there, Z with the row's weights elsewhere."""
    return [PauliLabel(G.p, tuple(int(u == v) for u in range(G.n)), G.adj.entries[v])
            for v in range(G.n)]


# ---------------------------------------------------------------------------
# matrix-shaped distance conditions (rank route and kernel route)


class MatrixCheckResult(NamedTuple):
    accepted: bool
    condition: str | None = None  # which test failed
    erased: tuple | None = None  # the qudit index set E (0-based into A)
    vector: tuple | None = None  # kernel witness, when the kernel route failed
    warning: str | None = None

    def __bool__(self) -> bool:
        return self.accepted


def _split_blocks(A: FpMatrix, k: int, d: int):
    m = A.rows
    if A.cols != m:
        raise InputError("matrix must be square")
    if not 0 <= k < m:
        raise InputError(f"k must lie in [0, {m - 1}]")
    if d < 1:
        raise InputError("d must be >= 1")
    qudits = list(range(k, m))
    if d - 1 > len(qudits):
        raise InputError(f"d = {d} needs at least {d - 1} qudit indices, have {len(qudits)}")
    warning = None
    if len(qudits) < k + 2 * (d - 1):
        warning = (
            f"only {len(qudits)} qudits for k = {k}, d = {d}; "
            f"the construction expects at least k + 2(d-1) = {k + 2 * (d - 1)}"
        )
    return tuple(range(k)), qudits, warning


def matrix_code_check(A: FpMatrix, k: int, d: int) -> MatrixCheckResult:
    """Rank conditions for a distance-d code on the qudit block, classes on
    the first k indices. For every erasure set E of d-1 qudit indices with
    complement I:

      (i)  the E-rows restricted to I-columns have full rank d-1;
      (ii) adjoining the class columns to the I-rows-over-E-columns block
           raises the rank by exactly k.

    Each set takes two eliminations of rows read from A.entries. For (ii)
    the I-rows are reduced over the E columns and then the class columns,
    so the pivots from column d-1 on are the rank the class columns add.
    """
    cls, qudits, warning = _split_blocks(A, k, d)
    p, rows = A.p, A.entries
    for E in itertools.combinations(qudits, d - 1):
        I = [q for q in qudits if q not in E]
        if len(_eliminate([[rows[e][i] for i in I] for e in E], p)) != d - 1:
            return MatrixCheckResult(False, "selector_rank", E, None, warning)
        pivots = _eliminate([[rows[i][c] for c in E + cls] for i in I], p)
        if sum(c >= d - 1 for c in pivots) != k:
            return MatrixCheckResult(False, "joint_rank", E, None, warning)
    return MatrixCheckResult(True, None, None, None, warning)


def matrix_kernel_check(A: FpMatrix, k: int, d: int) -> MatrixCheckResult:
    """Kernel conditions: for every erasure set E of d-1 qudit indices with
    complement I, each nonzero kernel vector of [A_I,class | A_I,E] must

      (a) vanish on the class coordinates, and
      (b) be annihilated by the class rows over the E columns.

    Both conditions are linear, so they hold on the kernel iff they hold on
    the solved nullspace basis. The witness is the vector that enumerating
    the kernel by basis coefficients, in lexicographic order, would meet
    first: the failing basis vector of largest index, so the basis is
    checked in reverse and the failed condition is read from that vector.

    This is a separate route from matrix_code_check and is strictly
    stronger; the two are never merged.
    """
    cls, qudits, warning = _split_blocks(A, k, d)
    for E in itertools.combinations(qudits, d - 1):
        I = [q for q in qudits if q not in E]
        M = FpMatrix(A.p, tuple(tuple(A.entries[i][c] for c in cls + E) for i in I))
        for vec in reversed(solve_linear(M, [0] * M.rows).nullspace):  # residue tuples
            if any(vec[:k]):
                return MatrixCheckResult(False, "kernel_class_component", E, vec, warning)
            if any(sum(A.entries[x][e] * v for e, v in zip(E, vec[k:])) % A.p for x in cls):
                return MatrixCheckResult(False, "kernel_class_action", E, vec, warning)
    return MatrixCheckResult(True, None, None, None, warning)
