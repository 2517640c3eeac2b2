"""Why acceptance criteria 02 and 03 stay red, pinned. The product family
g = (s + y_(2m-1)) (s + y_(2m)), s = y_1 + ... + y_(2m-2), is built as
g + L_j.x over L = supp g, up to one shared linear term, and a label fails
off the diagonal exactly when u = b - S a is a difference of two rows of L.
At weight one that happens for the Y errors on the 2m - 2 shared variables
alone, whose u maps supp g onto itself. The linear shift set {x : x_(2m-1) = 0, x_(2m) = s(x)} on the same g
meets d = 2 instead, and the paper's matrix (I | Gamma(g)) misses the column
sums 0 and 1, which is why the premises fail."""
import itertools

import numpy as np
import pytest

from conftest import reference_kl_report
from lfqec import (
    build_mds_family,
    check_projector_premises,
    kl_verify,
    mds_function,
    mds_matrix,
    state_from_function,
    weight_support,
)
from lfqec.logic_fn import affine_family

MS = range(2, 7)


def unit(n: int, *at) -> tuple:
    """The vector of F_2^n with ones at the 0-based positions at."""
    return tuple(int(i in at) for i in range(n))


def linear_family(m: int) -> list:
    """g + L_j.x over L = {x : x_(2m-1) = 0, x_(2m) = s(x)}, K = 4^(m-1)."""
    L = [(*y, 0, sum(y) % 2) for y in itertools.product((0, 1), repeat=2 * m - 2)]
    return affine_family(mds_function(m), L)


@pytest.mark.parametrize("m", MS)
def test_weight_one_failures_are_the_y_errors_on_the_shared_variables(m):
    n = 2 * m
    report = kl_verify(build_mds_family(m).basis, 1)
    ys = [unit(n, i) for i in range(n - 2)]  # a = b = e_i, i <= 2m - 2 (1-based)
    assert [(bad.a, bad.b) for bad in report.failures] == [(e, e) for e in ys]
    assert {bad.kind for bad in report.failures} == {"offdiag_nonzero"}
    assert len(report.failures) == 2 * m - 2


@pytest.mark.parametrize("m", MS)
def test_each_failing_u_maps_the_support_onto_itself(m):
    # the basis's rows are supp g; u = e_i + e_(2m-1) + e_(2m) flips s and both
    # last coordinates, so L + u = L. X_i's u = e_(2m-1) + e_(2m) and Z_i's u = e_i
    # do not, which is why they pass; no oracle is called
    n, g = 2 * m, mds_function(m)
    L = np.array(weight_support(g)[1])
    support = set(map(tuple, L.tolist()))
    # basis member j is g + (L_j + c).x with c.x = s(x): the rows are supp g
    # up to one shared translate, which leaves each difference L_i - L_j as it is
    want = affine_family(g, (L ^ unit(n, *range(n - 2))).tolist())
    assert all((h.table == k.table).all()
               for h, k in zip(build_mds_family(m).basis, want, strict=True))

    def onto_itself(u) -> bool:
        return set(map(tuple, (L ^ u).tolist())) == support

    for i in range(n - 2):
        assert onto_itself(unit(n, i, n - 2, n - 1))
        assert not onto_itself(unit(n, i))
    assert not onto_itself(unit(n, n - 2, n - 1))


@pytest.mark.parametrize("m, failures", zip(MS, (18, 45, 84, 135, 198)))
def test_a_linear_shift_set_on_the_same_g_meets_distance_2(m, failures):
    basis = linear_family(m)
    assert len(basis) == 4 ** (m - 1)  # 2^(n-2) at d = 2: the quantum Singleton bound
    assert kl_verify(basis, 1).passed
    assert len(kl_verify(basis, 2).failures) == failures


@pytest.mark.parametrize("m", [2, 3])
def test_the_linear_shift_set_agrees_with_the_reference(m):
    basis = linear_family(m)
    states = [state_from_function(g) for g in basis]
    for w in (1, 2):
        assert kl_verify(basis, w).to_dict() == reference_kl_report(states, w)


def test_the_papers_matrix_misses_the_column_sums_0_and_1():
    # the reason criterion 02's premises_pass is false
    assert check_projector_premises(mds_function(2), mds_matrix(2)).missing_sums == (0, 1)
