"""State-vector oracle: exact cyclotomic amplitudes, Pauli action, Gram
matrices, and the orthogonality-based verification of claimed distances.
Float references use complex arithmetic independent of the integer paths."""
import itertools
import json
import math

import numpy as np
import pytest

from conftest import (
    close,
    random_function,
    reference_apply_error,
    reference_gram_matrix,
    reference_inner_product,
    reference_kl_report,
    reference_min_distance,
    rng,
)
from lfqec import (
    CapacityError,
    CycloInt,
    InputError,
    PauliLabel,
    StateVector,
    add_affine,
    apc_distance,
    apply_error,
    build_coset_code,
    build_graph_code,
    gram_matrix,
    inner_product,
    kl_verify,
    min_distance,
    parse_anf,
    parse_graph_file,
    state_from_function,
    uncoverable_family,
)

K4_ANF = "x1*x2 + x1*x3 + x1*x4 + x2*x3 + x2*x4 + x3*x4"
C5_TEXT = "2 5\n1 2\n2 3\n3 4\n4 5\n5 1\n"


def random_state(gen, p, n):
    amps = gen.integers(0, 4, size=(p**n, p)).astype(np.int64)
    return StateVector(p, n, amps)


def sparse_state(gen, p, n):
    """Generic histograms (signed, not one-hot) on one or two basis states,
    so that many Gram entries vanish and failures land anywhere."""
    N = p**n
    amps = np.zeros((N, p), dtype=np.int64)
    pos = gen.choice(N, int(gen.integers(1, 3)), replace=False)
    amps[pos] = gen.integers(-3, 4, size=(len(pos), p))
    return StateVector(p, n, amps)


def rotated(state, e):
    """state multiplied by the global phase zeta^e."""
    amps = np.roll(np.asarray(state.amps), e % state.p, axis=1)
    return StateVector(state.p, state.n, amps)


def random_label(gen, p, n, nonzero=False):
    while True:
        a = tuple(int(v) for v in gen.integers(0, p, n))
        b = tuple(int(v) for v in gen.integers(0, p, n))
        if not nonzero or any(a) or any(b):
            return PauliLabel(p, a, b)


# ---------------------------------------------------------------------------
# states and error action


def test_state_from_function_one_hot():
    f = parse_anf("x1*x2", 2, 2)
    psi = state_from_function(f)
    amps = np.asarray(psi.amps)
    assert amps.shape == (4, 2)
    assert amps.sum() == 4
    for idx in range(4):
        assert amps[idx, f.table[idx]] == 1
    vec = psi.to_complex()
    assert close(vec[3], -1) and close(vec[0], 1)


def test_state_equality_is_exact():
    f = parse_anf("x1", 2, 1)
    assert state_from_function(f) == state_from_function(f)
    assert state_from_function(f) != state_from_function(parse_anf("0", 2, 1))
    # equality is invariant under adding the all-ones cyclotomic relation row
    psi = state_from_function(parse_anf("x1", 3, 1))
    shifted = StateVector(3, 1, np.asarray(psi.amps) + 1)
    assert psi == shifted
    with pytest.raises(TypeError):
        hash(psi)


def test_apply_error_float_reference(gen):
    for _ in range(60):
        p = int(gen.choice([2, 3, 5]))
        n = int(gen.integers(1, 3))
        psi = random_state(gen, p, n)
        e = random_label(gen, p, n)
        got = apply_error(e, psi).to_complex()

        zeta = np.exp(2j * np.pi / p)
        ref = np.zeros(p**n, dtype=complex)
        vec = psi.to_complex()
        for idx, x in enumerate(itertools.product(range(p), repeat=n)):
            shifted = tuple((xi + ai) % p for xi, ai in zip(x, e.a))
            jdx = 0
            for v in shifted:
                jdx = jdx * p + v
            phase = sum(bi * xi for bi, xi in zip(e.b, x)) % p
            ref[jdx] += zeta**phase * vec[idx]
        assert all(close(g, r) for g, r in zip(got, ref))
        assert apply_error(e, psi) == reference_apply_error(e, psi)


def test_error_composition_invariant(gen):
    for _ in range(200):
        p = int(gen.choice([2, 3, 5]))
        n = int(gen.integers(1, 3))
        psi = random_state(gen, p, n)
        u = random_label(gen, p, n)
        v = random_label(gen, p, n)
        seq = apply_error(u, apply_error(v, psi))
        combined = apply_error(u + v, psi)
        cross = sum(bu * av for bu, av in zip(u.b, v.a)) % p
        assert seq == rotated(combined, cross)


def test_apply_error_space_mismatch():
    psi = state_from_function(parse_anf("x1", 2, 1))
    with pytest.raises(InputError):
        apply_error(PauliLabel(3, (1,), (0,)), psi)
    with pytest.raises(InputError):
        apply_error(PauliLabel(2, (1, 0), (0, 0)), psi)


# ---------------------------------------------------------------------------
# inner products and Gram matrices


def test_inner_product_norm_and_symmetry(gen):
    f = parse_anf(K4_ANF, 2, 4)
    psi = state_from_function(f)
    assert inner_product(psi, psi).as_integer() == 16
    for _ in range(60):
        p = int(gen.choice([2, 3, 5]))
        n = int(gen.integers(1, 3))
        u = random_state(gen, p, n)
        v = random_state(gen, p, n)
        uv = inner_product(u, v)
        vu = inner_product(v, u)
        assert uv == reference_inner_product(u, v)
        assert uv == vu.conj()
        assert close(uv.to_complex(), np.vdot(u.to_complex(), v.to_complex()))
    with pytest.raises(InputError):
        inner_product(
            state_from_function(parse_anf("x1", 2, 1)),
            state_from_function(parse_anf("x1", 2, 2)),
        )


def test_gram_hermiticity_relation(gen):
    # <psi_j|E_(a,b) psi_i> relates to the reversed entry of the inverse label
    for _ in range(100):
        p = int(gen.choice([2, 3, 5]))
        n = int(gen.integers(1, 3))
        basis = [state_from_function(random_function(gen, p, n)) for _ in range(3)]
        e = random_label(gen, p, n)
        minus = PauliLabel(
            p,
            tuple((-ai) % p for ai in e.a),
            tuple((-bi) % p for bi in e.b),
        )
        G = gram_matrix(basis, e)
        H = gram_matrix(basis, minus)
        assert G == reference_gram_matrix(basis, e)
        ab = sum(ai * bi for ai, bi in zip(e.a, e.b)) % p
        for i in range(3):
            for j in range(3):
                assert G[j][i] == H[i][j].conj().rotate(-ab)


def test_gram_matrix_generic_states_match_reference(gen):
    for _ in range(60):
        p = int(gen.choice([2, 3, 5]))
        n = int(gen.integers(1, 3))
        K = int(gen.integers(1, 5))
        basis = [random_state(gen, p, n) for _ in range(K)]
        basis = [StateVector(p, n, np.asarray(s.amps) - 2) for s in basis]  # signed
        e = random_label(gen, p, n)
        assert gram_matrix(basis, e) == reference_gram_matrix(basis, e)


def test_inner_product_beyond_float_range_raises():
    # 2^31 on both basis states: <u|u> = 2^63, which int64 dot products wrap
    # to -2^63; the float64 kernel refuses it instead of returning a wrong norm
    u = StateVector(2, 1, [[2**31, 0], [2**31, 0]])
    assert reference_inner_product(u, u).as_integer() == 2**63
    with pytest.raises(CapacityError):
        inner_product(u, u)
    with pytest.raises(CapacityError):
        gram_matrix([u], PauliLabel(2, (1,), (0,)))


def test_kl_verify_exactness_bound():
    # N = 2, p = 2: a Gram coefficient sums N * p = 4 products of amplitudes
    # up to M in size, so M^2 must stay below 2^53 / 4 = 2^51
    m = math.isqrt(2**51)

    def basis(amp):
        return [StateVector(2, 1, [[amp, 0], [0, 0]]), StateVector(2, 1, [[0, 0], [amp, 1]])]

    with pytest.raises(CapacityError):
        kl_verify(basis(m + 1), 1)
    with pytest.raises(CapacityError):
        min_distance(basis(-(m + 1)))
    edge = basis(m)
    assert kl_verify(edge, 1).to_dict() == reference_kl_report(edge, 1)
    assert inner_product(edge[0], edge[0]).as_integer() == m * m
    xz = PauliLabel(2, (1,), (1,))
    assert gram_matrix(edge, xz) == reference_gram_matrix(edge, xz)


def dressed(gen, states):
    """c * psi with a random integer added to each row: the same vectors up
    to one scale, spelled with generic, non-one-hot histograms."""
    c = int(gen.integers(2, 50))
    return [
        StateVector(s.p, s.n, c * np.asarray(s.amps) + gen.integers(-99, 99, (len(s.amps), 1)))
        for s in states
    ]


def test_kl_verify_generic_states_match_reference(gen):
    # |00>, |01>, |10>: Z on qubit 1 gives G = diag(1, 1, -1), a diagonal
    # failure at j = 2; X on qubit 1 swaps |00> and |10>, an off-diagonal
    # failure at (0, 2)
    kets = [np.zeros((4, 2), dtype=np.int64) for _ in range(3)]
    for k, amps in enumerate(kets):
        amps[k, 0] = 1
    pinned = dressed(gen, [StateVector(2, 2, amps) for amps in kets])
    rep = kl_verify(pinned, 1).to_dict()
    assert rep == reference_kl_report(pinned, 1)
    kinds = [(f["kind"], f["i"], f["j"]) for f in rep["failures"]]
    assert ("diag_unequal", 0, 2) in kinds and ("offdiag_nonzero", 0, 2) in kinds
    assert min_distance(pinned) == reference_min_distance(pinned) == 1

    seen = set()
    for trial in range(45):
        p = int(gen.choice([2, 3, 5]))
        n = int(gen.integers(1, 4 if p < 5 else 3))
        K = int(gen.integers(1, 5))
        make = sparse_state if trial % 3 else random_state
        basis = [make(gen, p, n) for _ in range(K)]
        cap = min(n, 2)
        w = int(gen.integers(0, cap + 1))
        got = kl_verify(basis, w).to_dict()
        assert got == reference_kl_report(basis, w)
        assert min_distance(basis, cap) == reference_min_distance(basis, cap)
        seen.update((f["kind"], f["i"], f["j"]) for f in got["failures"])
    assert any(kind == "offdiag_nonzero" and j > 1 for kind, _, j in seen)
    assert any(kind == "diag_unequal" and j > 1 for kind, _, j in seen)


def test_generic_histograms_of_code_states_keep_distance(gen):
    f = parse_anf(K4_ANF, 2, 4)
    betas = [(0, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)]
    for states in [
        [state_from_function(add_affine(f, b, 0)) for b in betas],
        [state_from_function(parse_anf("x1*x2 + x2*x3 + x1*x3", 3, 3))],
    ]:
        generic = dressed(gen, states)
        assert min_distance(generic) == min_distance(states) == reference_min_distance(generic)
        assert kl_verify(generic, 2).to_dict() == reference_kl_report(generic, 2)


def test_gram_diagonal_is_shift_sum():
    # for a one-function basis the Gram entry is the shifted character sum
    from lfqec import apc_sum

    f = parse_anf(K4_ANF, 2, 4)
    psi = state_from_function(f)
    for e in [PauliLabel(2, (1, 1, 0, 0), (1, 1, 0, 0)), PauliLabel(2, (1, 0, 0, 0), (0, 0, 0, 0))]:
        G = gram_matrix([psi], e)
        assert G[0][0] == apc_sum(f, e)


# ---------------------------------------------------------------------------
# verification


def test_kl_single_state_matches_shift_distance():
    f = parse_anf(K4_ANF, 2, 4)
    psi = state_from_function(f)
    assert kl_verify([psi], 1).passed
    rep = kl_verify([psi], 2)
    assert not rep.passed
    first = rep.failures[0]
    assert first.kind == "diag_unequal" and (first.i, first.j) == (0, 0)
    assert first.a == (1, 1, 0, 0) and first.b == (1, 1, 0, 0)
    assert min_distance([psi]) == 2 == apc_distance(f).distance


def test_kl_random_single_states_match_shift_distance(gen):
    for _ in range(30):
        p = int(gen.choice([2, 3]))
        n = int(gen.integers(1, 4))
        f = random_function(gen, p, n)
        assert min_distance([state_from_function(f)]) == apc_distance(f).distance


def test_min_distance_cap_literal():
    psi = state_from_function(parse_anf(K4_ANF, 2, 4))
    assert min_distance([psi], cap=1) == "> 1"
    assert min_distance([psi], cap=2) == 2
    with pytest.raises(InputError):
        min_distance([psi], cap=0)
    with pytest.raises(InputError):
        min_distance([psi], cap=5)


def test_five_cycle_pair_distance_three():
    G = parse_graph_file(C5_TEXT)
    assert uncoverable_family(G, 3) == {frozenset({1, 2, 3, 4, 5})}
    spec = build_graph_code(G, [frozenset(), frozenset({1, 2, 3, 4, 5})], 3)
    states = spec.states()
    assert len(states) == 2
    assert kl_verify(states, 2).passed
    assert min_distance(states) == 3


# Class masks of the cycle C10 whose pairwise symmetric differences are all
# uncoverable below weight 3 (bit v of a mask is vertex v + 1).
C10_CLIQUE = (0, 73, 616, 545, 197, 740, 140, 685, 31, 574, 86, 631, 786, 435, 378, 859)


def test_cycle10_graph_code_k16():
    text = "2 10\n" + "".join(f"{v} {v % 10 + 1}\n" for v in range(1, 11))
    classes = [frozenset(v + 1 for v in range(10) if m >> v & 1) for m in C10_CLIQUE]
    spec = build_graph_code(parse_graph_file(text), classes, 3)
    states = spec.states()
    assert len(states) == 16
    assert kl_verify(states, 2).passed
    assert min_distance(states) == 3


def test_full_coset_family_has_distance_one():
    # taking every linear character gives a full basis, which detects nothing
    f = parse_anf(K4_ANF, 2, 4)
    betas = list(itertools.product((0, 1), repeat=4))
    states = [state_from_function(add_affine(f, beta, 0)) for beta in betas]
    G = gram_matrix(states, PauliLabel(2, (0, 0, 0, 0), (1, 0, 0, 0)))
    assert any(not G[i][j].is_zero() for i in range(16) for j in range(16) if i != j)
    assert min_distance(states) == 1


def test_four_betas_give_distance_two():
    f = parse_anf(K4_ANF, 2, 4)
    spec = build_coset_code(f, [(0, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)])
    assert spec.claimed_d == 2
    states = spec.states()
    assert kl_verify(states, 1).passed
    assert min_distance(states) == 2


def test_kl_invariance_under_relabeling(gen):
    f = parse_anf(K4_ANF, 2, 4)
    betas = [(0, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)]
    states = [state_from_function(add_affine(f, b, 0)) for b in betas]
    for _ in range(5):
        order = gen.permutation(4)
        assert min_distance([states[i] for i in order]) == 2
    # adding one shared affine part to every member preserves the verdict
    beta = (1, 0, 1, 1)
    moved = [state_from_function(add_affine(add_affine(f, b, 0), beta, 1)) for b in betas]
    assert min_distance(moved) == 2


def test_verify_report_serialization():
    psi = state_from_function(parse_anf(K4_ANF, 2, 4))
    rep = kl_verify([psi], 2)
    data = json.loads(rep.to_json())
    assert data["verdict"] == "fail"
    assert data["p"] == 2 and data["n"] == 4 and data["K"] == 1
    assert data["max_weight"] == 2
    assert data["failures"][0]["kind"] == "diag_unequal"
    assert data["failures"][0]["a"] == [1, 1, 0, 0]

    ok = kl_verify([psi], 1)
    ok_data = json.loads(ok.to_json())
    assert ok_data["verdict"] == "pass" and ok_data["failures"] == []


def test_kl_verify_input_errors():
    psi = state_from_function(parse_anf("x1*x2", 2, 2))
    phi = state_from_function(parse_anf("x1", 2, 1))
    with pytest.raises(InputError):
        kl_verify([], 1)
    with pytest.raises(InputError):
        kl_verify([psi, phi], 1)
    with pytest.raises(InputError):
        kl_verify([psi], 3)
    with pytest.raises(InputError):
        kl_verify([psi], -1)
    assert kl_verify([psi], 0).passed  # vacuous weight range


def test_shift_cache_stays_bounded_over_a_sweep(gen):
    # a weight-2 sweep at p = 3, n = 7 meets 99 distinct shifts a
    from lfqec import _tables

    _tables._shift_cache.cache_clear()
    psi = state_from_function(random_function(gen, 3, 7))
    assert not kl_verify([psi], 2).passed
    info = _tables._shift_cache.cache_info()
    assert info.misses > info.maxsize == _tables.SHIFT_CACHE_SIZE
    assert info.currsize <= _tables.SHIFT_CACHE_SIZE
    for _ in range(20):
        a = tuple(int(v) for v in gen.integers(0, 3, 7))
        want = [
            int("".join(str((xi + ai) % 3) for xi, ai in zip(x, a)), 3)
            for x in itertools.product(range(3), repeat=7)
        ]
        assert _tables.shifted_indices(3, 7, a).tolist() == want
