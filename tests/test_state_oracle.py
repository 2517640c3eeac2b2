"""State-vector oracle: exact cyclotomic amplitudes, Pauli action, Gram
matrices, and the orthogonality-based verification of claimed distances.
Float references use complex arithmetic independent of the integer paths."""
import itertools
import json
import math

import numpy as np
import pytest

from conftest import (
    as_complex,
    character_sum,
    close,
    conj,
    kernel_gram_matrix,
    label_sum,
    random_function,
    reference_apply_error,
    reference_gram_matrix,
    reference_inner_product,
    reference_kl_report,
    reference_min_distance,
    rotate,
    state_complex,
    walk_blocks,
)
from lfqec import _tables, fp_algebra, state_oracle
from lfqec.cli import main
from lfqec import (
    CapacityError,
    FpMatrix,
    InputError,
    LogicFunction,
    PauliLabel,
    StateVector,
    add_affine,
    apc_distance,
    apply_error,
    build_coset_code,
    build_graph_code,
    build_matrix_code,
    check_claim,
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
    vec = state_complex(psi)
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
        got = state_complex(apply_error(e, psi))

        zeta = np.exp(2j * np.pi / p)
        ref = np.zeros(p**n, dtype=complex)
        vec = state_complex(psi)
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
        combined = apply_error(label_sum(u, v), psi)
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
        assert uv.coeffs == conj(vu.coeffs)
        assert close(as_complex(uv), np.vdot(state_complex(u), state_complex(v)))
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
        G = kernel_gram_matrix(basis, e)
        H = kernel_gram_matrix(basis, minus)
        assert G == reference_gram_matrix(basis, e)
        ab = sum(ai * bi for ai, bi in zip(e.a, e.b)) % p
        for i in range(3):
            for j in range(3):
                assert G[j][i].coeffs == rotate(conj(H[i][j].coeffs), -ab)


def test_gram_matrix_generic_states_match_reference(gen):
    for _ in range(60):
        p = int(gen.choice([2, 3, 5]))
        n = int(gen.integers(1, 3))
        K = int(gen.integers(1, 5))
        basis = [random_state(gen, p, n) for _ in range(K)]
        basis = [StateVector(p, n, np.asarray(s.amps) - 2) for s in basis]  # signed
        e = random_label(gen, p, n)
        assert kernel_gram_matrix(basis, e) == reference_gram_matrix(basis, e)


def test_inner_product_beyond_float_range_raises():
    # 2^31 on both basis states: <u|u> = 2^63, which int64 dot products wrap
    # to -2^63; the float64 kernel refuses it instead of returning a wrong norm
    u = StateVector(2, 1, [[2**31, 0], [2**31, 0]])
    assert reference_inner_product(u, u).as_integer() == 2**63
    with pytest.raises(CapacityError):
        inner_product(u, u)
    with pytest.raises(CapacityError):
        kernel_gram_matrix([u], PauliLabel(2, (1,), (0,)))


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
    assert kernel_gram_matrix(edge, xz) == reference_gram_matrix(edge, xz)


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
    f = parse_anf(K4_ANF, 2, 4)
    psi = state_from_function(f)
    for e in [PauliLabel(2, (1, 1, 0, 0), (1, 1, 0, 0)), PauliLabel(2, (1, 0, 0, 0), (0, 0, 0, 0))]:
        G = kernel_gram_matrix([psi], e)
        assert G[0][0] == character_sum(f, e.a, e.b)


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
    G = kernel_gram_matrix(states, PauliLabel(2, (0, 0, 0, 0), (1, 0, 0, 0)))
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
    data = json.loads(json.dumps(rep.to_dict(), indent=2))
    assert data["verdict"] == "fail"
    assert data["p"] == 2 and data["n"] == 4 and data["K"] == 1
    assert data["max_weight"] == 2
    assert data["failures"][0]["kind"] == "diag_unequal"
    assert data["failures"][0]["a"] == [1, 1, 0, 0]

    ok = kl_verify([psi], 1)
    ok_data = json.loads(json.dumps(ok.to_dict(), indent=2))
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


def test_gram_sweep_forms_one_shift_per_block(gen, monkeypatch):
    # a weight-2 sweep at p = 3, n = 7 walks 7 * 3 + 21 * 9 blocks (a, bs),
    # and the labels of one block share the shift x - a
    calls = []
    shift = state_oracle.shifted_indices
    monkeypatch.setattr(state_oracle, "shifted_indices",
                        lambda p, n, a: calls.append(tuple(a)) or shift(p, n, a))
    psi = state_from_function(random_function(gen, 3, 7))
    assert not kl_verify([psi], 2).passed
    blocks = [a for w in (1, 2) for a, _ in walk_blocks(3, 7, w)]
    assert len(blocks) == 7 * 3 + 21 * 9
    assert calls == [tuple(-v for v in a) for a in blocks]


# ---------------------------------------------------------------------------
# function bases: the closed form against the Gram kernel


def random_quadratic_basis(gen, p, n, K):
    """f_j = Q + L_j.x + c_j with one random Q (squares x_i^2 at p > 2), some
    L_j repeated with a constant moved by 1, and some functions given only by
    their table, so that their ANF is interpolated."""
    quad = [(int(gen.integers(1, p)), (i, j)) for i in range(n) for j in range(i, n)
            if (i < j or p > 2) and gen.random() < 0.5]
    affine = []
    for k in range(K):
        if k and gen.random() < 0.3:
            lin, c = affine[int(gen.integers(k))]
            affine.append((lin, (c + 1) % p))
        else:
            affine.append(([(int(v), (i,)) for i, v in enumerate(gen.integers(0, p, n))],
                           int(gen.integers(p))))
    basis = [LogicFunction(p, n, anf=quad + lin + [(c, ())]) for lin, c in affine]
    return [LogicFunction(p, n, f.table) if gen.random() < 0.3 else f for f in basis]


def refuse(*args):
    raise AssertionError("this route must not run")


def test_closed_form_matches_gram_kernel(gen, monkeypatch):
    cases, seen = [], set()
    for _ in range(50):
        p = int(gen.choice([2, 3, 5]))
        n = int(gen.integers(1, {2: 5, 3: 4, 5: 3}[p]))
        K = min(int(gen.integers(1, 5)), p**n)
        basis = random_quadratic_basis(gen, p, n, K)
        states = [state_from_function(f) for f in basis]
        want = [kl_verify(states, w).to_dict() for w in range(n + 1)]
        cases.append((basis, want, min_distance(states)))
    monkeypatch.setattr(state_oracle, "state_from_function", refuse)
    for basis, want, distance in cases:
        got = [kl_verify(basis, w).to_dict() for w in range(len(want))]
        assert got == want
        assert min_distance(basis) == distance
        seen.update((len(basis) == 1, f["kind"], f["j"] > 1) for f in got[-1]["failures"])
    assert {(True, "diag_unequal", False), (False, "offdiag_nonzero", True),
            (False, "diag_unequal", True)} <= seen


@pytest.mark.parametrize("p", [2, 3, 5])
def test_both_routes_keep_their_verdicts_across_chunk_boundaries(gen, monkeypatch, p):
    # 5 numbers per walk chunk: supports span chunks, and chunks split a-groups
    cases = []
    for _ in range(4):
        n = int(gen.integers(2, {2: 5, 3: 4, 5: 3}[p]))
        basis = random_quadratic_basis(gen, p, n, min(int(gen.integers(1, 4)), p**n))
        states = [state_from_function(f) for f in basis]
        cases.append((basis, states, kl_verify(states, n).to_dict()))
    monkeypatch.setattr(_tables, "_CHUNK_ROWS", 5)
    for basis, states, want in cases:
        n = want["n"]
        assert kl_verify(basis, n).to_dict() == want
        assert kl_verify(states, n).to_dict() == reference_kl_report(states, n)


def test_closed_form_refuses_a_pair_table_over_the_listing_budget(monkeypatch):
    # K = 8 distinct linear parts make a table of 64 pairs, over a budget of 63
    basis = [add_affine(parse_anf("x1*x2 + x2*x3", 2, 3), lin, 0)
             for lin in itertools.product((0, 1), repeat=3)]
    assert kl_verify(basis, 1).verdict == "fail"
    monkeypatch.setattr(fp_algebra, "MAX_LISTING", 63)
    with pytest.raises(CapacityError, match="K\\^2 = 64 basis pairs exceed the listing budget 63"):
        kl_verify(basis, 1)


@pytest.mark.parametrize("p", [2, 3])
def test_closed_form_looks_up_keys_past_the_largest_difference(p):
    # L = (0, 0, 0) and e_3 give D = {index(e_3), index(-e_3)} = {1, p - 1}, so
    # every label with b_1 != 0 has u = b - S a of index at least p^2, past
    # the last key; the verdicts are the reference's, entry by entry
    f = parse_anf("x1*x2", p, 3)
    basis = [f, add_affine(f, (0, 0, 1))]
    keys, _ = _tables.differences([(0, 0, 0), (0, 0, 1)], p)
    assert keys.tolist() == sorted({1, p - 1})
    states = [state_from_function(g) for g in basis]
    for w in range(4):
        assert kl_verify(basis, w).to_dict() == reference_kl_report(states, w)


def test_verify_of_a_one_function_code_has_no_pair_to_look_up(tmp_path, capsys):
    # K = 1: no difference at all, so only u = 0 fails, as the reference has it
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"p": 3, "n": 2, "claimed_d": 3, "basis": ["x1*x2 + x2"]}))
    assert main(["verify", str(path)]) == 1
    states = [state_from_function(parse_anf("x1*x2 + x2", 3, 2))]
    failures = reference_kl_report(states, 2)["failures"]
    assert capsys.readouterr().out.splitlines() == ["verdict: fail (max weight 2)"] + [
        f"failure: a={''.join(map(str, e['a']))} b={''.join(map(str, e['b']))} "
        f"diag_unequal at (0, 0)" for e in failures]
    assert failures and {e["kind"] for e in failures} == {"diag_unequal"}


def test_a_sweep_over_the_label_budget_is_refused_before_the_walk(monkeypatch):
    # weights 1..2 at p = 2, n = 3 are 3 * 3 + 3 * 9 = 36 labels, on either route
    f = parse_anf("x1*x2", 2, 3)
    closed_form = [f, add_affine(f, (0, 0, 1))]
    gram = [parse_anf("x1*x2*x3", 2, 3), parse_anf("x1*x2*x3 + x1", 2, 3)]
    monkeypatch.setattr(state_oracle, "MAX_LABELS", 36)
    for basis in (closed_form, gram):
        assert kl_verify(basis, 2).verdict == "fail"
    monkeypatch.setattr(state_oracle, "MAX_LABELS", 35)
    monkeypatch.setattr(state_oracle, "label_blocks", refuse)
    for basis in (closed_form, gram):
        with pytest.raises(CapacityError, match="^36 labels of weight 1..2 exceed the label budget 35$"):
            kl_verify(basis, 2)
        assert kl_verify(basis, 0).verdict == "pass"  # no label to walk


def test_state_basis_over_the_pair_budget_is_refused_before_stacking(monkeypatch):
    # the Gram route reads (K p)^2 products per label; 8 states make 64 pairs
    f = parse_anf("x1*x2*x3", 2, 3)
    lins = itertools.product((0, 1), repeat=3)
    states = [state_from_function(add_affine(f, lin)) for lin in lins]
    monkeypatch.setattr(fp_algebra, "MAX_LISTING", 63)
    monkeypatch.setattr(state_oracle, "_stack", refuse)
    refusal = "K\\^2 = 64 basis pairs exceed the listing budget 63"
    for entry in (kl_verify, min_distance):
        with pytest.raises(CapacityError, match=refusal):
            entry(states, 1)


def test_shared_quadratic_verdicts_read_no_table(monkeypatch, tmp_path, capsys):
    # the builders, the closed form and `lfqec verify` read only ANFs
    rank_pin = FpMatrix.from_rows(2, [[0, 0, 1, 1, 0], [0, 0, 1, 1, 1], [1, 1, 0, 0, 0],
                                      [1, 1, 0, 0, 0], [0, 1, 0, 0, 0]])
    code = tmp_path / "code.json"

    def verdicts():
        k4 = parse_anf(K4_ANF, 2, 4)
        basis = [add_affine(k4, beta) for beta in itertools.product((0, 1), repeat=4)]
        graph = build_graph_code(parse_graph_file(C5_TEXT), [frozenset(), frozenset(range(1, 6))], 3)
        code.write_text(json.dumps(graph.to_dict()))
        reports = [kl_verify(basis, w) for w in range(5)]
        reports += [check_claim(graph), check_claim(build_matrix_code(rank_pin, 1, 2))]
        return [r.to_dict() for r in reports], main(["verify", str(code)]), capsys.readouterr()

    want = verdicts()
    assert [r["verdict"] for r in want[0]] == ["pass"] + ["fail"] * 4 + ["pass", "pass"]
    monkeypatch.setattr(LogicFunction, "table", property(refuse))
    assert verdicts() == want


def test_function_bases_outside_the_closed_form_take_the_gram_kernel(monkeypatch):
    cubic = parse_anf("x1*x2*x3 + x1", 2, 3)
    two_quads = [parse_anf("x1*x2", 3, 3), parse_anf("x1*x2 + x2*x3", 3, 3)]
    squares = [parse_anf("x1^2", 3, 2), parse_anf("2*x1^2", 3, 2)]
    bases = [[cubic], [cubic, parse_anf("x1*x2*x3", 2, 3)], [LogicFunction(2, 3, cubic.table)],
             two_quads, squares]
    states = [[state_from_function(f) for f in basis] for basis in bases]
    want = [[kl_verify(s, w).to_dict() for w in range(s[0].n + 1)] for s in states]
    monkeypatch.setattr(state_oracle, "_closed_form_failures", refuse)
    for basis, s, reports in zip(bases, states, want):
        assert [kl_verify(basis, w).to_dict() for w in range(len(reports))] == reports
        assert min_distance(basis) == min_distance(s)


def test_function_entries_keep_the_input_errors():
    f = parse_anf("x1*x2", 2, 2)
    with pytest.raises(InputError, match="nonempty"):
        kl_verify([], 1)
    with pytest.raises(InputError, match="different spaces"):
        kl_verify([f, parse_anf("x1", 2, 1)], 1)
    with pytest.raises(InputError, match="only StateVectors or only LogicFunctions"):
        kl_verify([f, state_from_function(f)], 1)
    with pytest.raises(InputError, match="only StateVectors or only LogicFunctions"):
        min_distance([state_from_function(f), f])
    with pytest.raises(InputError, match=r"max_weight must lie in \[0, 2\]"):
        kl_verify([f], 3)
    with pytest.raises(InputError, match=r"cap must lie in \[1, 2\]"):
        min_distance([f], cap=0)
    # the state cap is the Gram route's: a cubic basis over it is refused, a
    # shared-quadratic one takes the closed form and gets its verdict
    with pytest.raises(CapacityError, match="p\\^n with n = 21 exceeds cap 1048576"):
        kl_verify([parse_anf("x1*x2*x3", 2, 21)], 1)
    report = kl_verify([parse_anf("x1*x2", 2, 21)], 1)
    # X on each of x3 .. x21, which the function does not read, fixes the state
    assert [(e.a.index(1), e.b, e.kind) for e in report.failures] == [
        (v, (0,) * 21, "diag_unequal") for v in range(2, 21)]
    assert kl_verify([f], 0).passed
