"""Functions F_p^n -> F_p: parsing, character sums, shift sets, bentness,
and the coboundary solver. Float references are independent of the exact
integer paths they check."""
import cmath
import itertools
import math
import pickle
import re
import sys
import time
import tracemalloc

import numpy as np
import pytest

from conftest import (
    as_complex,
    character_sum,
    close,
    count_expansions,
    difference_zset,
    direct_spectrum,
    direct_zset,
    formula_zset,
    label_weight,
    random_function,
    reference_apc_distance,
    reference_coset_distance,
    walk_blocks,
)
import lfqec
import lfqec._tables
import lfqec.fp_algebra
import lfqec.logic_fn
from lfqec._tables import linear_values
from lfqec._textfile import MAX_NESTING, anf_terms, read_function_file
from lfqec.fp_algebra import PRIMES
from lfqec.logic_fn import affine_family
from lfqec import (
    CapacityError,
    FpMatrix,
    InputError,
    LogicFunction,
    WeightedGraph,
    add_affine,
    anf_text,
    apc_distance,
    autocorrelation,
    bent_exclusion,
    build_coset_code,
    build_graph_code,
    build_mds_family,
    check_projector_premises,
    claimed_coset_distance,
    is_bent,
    parse_anf,
    quadratic_form,
    solve_coboundary,
    weight_support,
    zset,
)

K4_ANF = "x1*x2 + x1*x3 + x1*x4 + x2*x3 + x2*x4 + x3*x4"


def brute_table(p, n, fn):
    vals = []
    for x in itertools.product(range(p), repeat=n):
        vals.append(fn(x) % p)
    return vals


# ---------------------------------------------------------------------------
# parsing and ANF


def test_parse_anf_pinned_tables():
    f = parse_anf("x1*x2", 2, 2)
    assert list(f.table) == [0, 0, 0, 1]  # index = 2*x1 + x2
    g = parse_anf("x2", 2, 2)
    assert list(g.table) == [0, 1, 0, 1]
    h = parse_anf("1 + x1", 2, 1)
    assert list(h.table) == [1, 0]
    q = parse_anf("2*x1 + x2^2", 3, 2)
    assert list(q.table) == brute_table(3, 2, lambda x: 2 * x[0] + x[1] ** 2)


def test_a_function_holds_its_anf_or_its_table():
    pairs = [((1, 0), (0, 1), 0), ((0, 1), (1, 0), 0)]
    anf_held = [
        LogicFunction(3, 2, anf=[(1, (0, 1))]),
        parse_anf("x1*x2 + x3", 2, 3),
        quadratic_form(FpMatrix.from_rows(2, [[0, 1], [1, 0]])),
        solve_coboundary(pairs, 2, 2),
        add_affine(parse_anf("x1*x2", 2, 2), (1, 1), 1),
    ]
    assert all(f.anf is not None and f.values is None for f in anf_held)
    tables = [LogicFunction(2, 2, [0, 1, 1, 0])]
    tables.append(add_affine(tables[0], (1, 0), 1))
    assert all(f.anf is None and f.values is not None for f in tables)
    assert tables[1].table.tolist() == [1, 0, 1, 0]
    with pytest.raises(InputError, match="either its table or its ANF"):
        LogicFunction(2, 2)
    with pytest.raises(InputError, match="either its table or its ANF"):
        LogicFunction(2, 2, [0, 0, 0, 1], anf=((1, (0, 1)),))


def test_an_anf_is_put_in_canonical_order_on_construction():
    # out of order, a repeated monomial, an unsorted one and coefficients to reduce
    raw = ((1, (2,)), (1, (1, 0)), (2, (0, 1)), (4, ()), (3, (2,)))
    f = LogicFunction(3, 3, anf=raw)
    assert f.anf == LogicFunction(3, 3, anf=raw).anf == ((1, ()), (1, (2,)))
    assert f == parse_anf("x3 + 1", 3, 3)
    assert add_affine(f, (1, 0, 2), 2).anf == ((1, (0,)),)  # x3 + 1 + x1 + 2*x3 + 2
    with pytest.raises(InputError, match="exponent of x1"):
        LogicFunction(3, 3, anf=((1, (0, 0, 0)),))


def test_parse_exponent_reduction():
    assert parse_anf("x1^2", 2, 1) == parse_anf("x1", 2, 1)
    assert parse_anf("x1^3", 3, 1) == parse_anf("x1", 3, 1)
    assert parse_anf("x1^4", 3, 1) == parse_anf("x1^2", 3, 1)
    assert parse_anf("x1^2", 3, 1) != parse_anf("x1", 3, 1)
    assert parse_anf("x1^0", 3, 1) == parse_anf("1", 3, 1)
    # a power starts from its base: every exponent 0..2p, on a variable, a
    # sum and a constant (0^0 = 1), read as the per-x power
    for p in (3, 5, 7):
        bases = [("x1", lambda x: x[0]), ("(x1 + 2*x2 + 1)", lambda x: x[0] + 2 * x[1] + 1),
                 ("0", lambda x: 0), (f"({p - 1})", lambda x: p - 1)]
        for e in range(2 * p + 1):
            for text, fn in bases:
                f = parse_anf(f"{text}^{e}", p, 2)
                assert list(f.table) == brute_table(p, 2, lambda x: pow(fn(x), e, p)), (text, e)
    # a variable repeated across factors reduces as one power: x1^3 = x1
    f = parse_anf("x1^2*x1", 3, 2)
    assert f.anf == ((1, (0,)),)
    assert list(f.table) == brute_table(3, 2, lambda x: x[0] ** 3)


def test_parse_operators_and_aliases():
    f = parse_anf("(x1 + x2)*(x1 + x3) - x1", 3, 3)
    assert list(f.table) == brute_table(3, 3, lambda x: (x[0] + x[1]) * (x[0] + x[2]) - x[0])
    assert parse_anf("y1*y2", 2, 2) == parse_anf("x1*x2", 2, 2)
    assert parse_anf("2x1", 3, 1) == parse_anf("2*x1", 3, 1)  # juxtaposition
    assert parse_anf("-x1", 3, 1) == parse_anf("2*x1", 3, 1)
    assert parse_anf("x1**2", 3, 1) == parse_anf("x1^2", 3, 1)


def test_parse_errors():
    for bad in ("x5", "x1 +", "x1 ^ x2", "(x1", "x1 @ x2", "x0", "x1^-1"):
        with pytest.raises(InputError):
            parse_anf(bad, 2, 4)


# int() refuses digit strings over this length (default 4,300 since Python 3.11)
MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
OVER_MAX_DIGITS = pytest.mark.skipif(not 0 < MAX_DIGITS < 5000, reason="no int digit limit")


@pytest.mark.parametrize(
    "text, message",
    [
        ("x1 @ x2", "syntax error at position 3: '@ x2'"),
        ("x1 + x", "syntax error at position 5: 'x'"),
        ("x5", "variable index 5 out of range 1..4"),
        ("x0", "variable index 0 out of range 1..4"),
        ("y7 + 1", "variable index 7 out of range 1..4"),
        ("x1 ^ x2", "exponent must be an integer at position 7"),
        ("x1^-1", "exponent must be an integer at position 4"),
        ("(x1", "missing ')' at position 3"),
        ("((x1 + x2)*x3", "missing ')' at position 13"),
        ("x1 +", "unexpected token at position 4"),
        ("x1 +   ", "unexpected token at position 7"),
        (")", "unexpected token at position 1"),
        ("", "unexpected token at position 0"),
        ("x1 * * x2", "unexpected token at position 6"),
        ("x1 x2 )", "unexpected token ')' at position 7"),
        ("(x1)(x2))", "unexpected token ')' at position 9"),
        # two faults: the first in reading order is reported
        ("x1 ^ x2 @", "exponent must be an integer at position 7"),
        ("(x1 @", "syntax error at position 4: '@'"),
        ("y2*x3 ) + x9", "unexpected token ')' at position 7"),
        ("x1 \t\n+ x2 $", "syntax error at position 10: '$'"),
        ("x1 ^ 2 3 ^ x2", "exponent must be an integer at position 13"),
        pytest.param("9" * 5000, f"constant must be an integer, got {'9' * 5000!r}",
                     marks=OVER_MAX_DIGITS, id="5000-digit constant"),
        pytest.param("x" + "1" * 5000, f"variable index must be an integer, got {'1' * 5000!r}",
                     marks=OVER_MAX_DIGITS, id="5000-digit index"),
        pytest.param("x1^" + "7" * 5000, f"constant must be an integer, got {'7' * 5000!r}",
                     marks=OVER_MAX_DIGITS, id="5000-digit exponent"),
        pytest.param("(" * 3000 + "x1" + ")" * 3000, "polynomial nests too deeply", id="nested 3000"),
    ],
)
def test_reader_messages(text, message):
    with pytest.raises(InputError) as exc:
        parse_anf(text, 3, 4)
    assert str(exc.value) == message


def read_nested(depth: int, frames: int) -> list:
    """anf_terms of x1 inside `depth` parentheses, from `frames` extra frames."""
    if frames:
        return read_nested(depth, frames - 1)
    return anf_terms("(" * depth + "x1" + ")" * depth, 2, 1)


@pytest.mark.parametrize("frames", [0, 300])
def test_nesting_limit_is_a_property_of_the_text(frames):
    assert read_nested(MAX_NESTING, frames) == [(1, (0,))]
    for depth in (MAX_NESTING + 1, 200):
        with pytest.raises(InputError, match="^polynomial nests too deeply$"):
            read_nested(depth, frames)


def test_anf_text_round_trip(gen):
    for _ in range(100):
        p = int(gen.choice([2, 3]))
        n = int(gen.integers(1, 5))
        terms = []
        for _ in range(int(gen.integers(0, 6))):
            deg = int(gen.integers(0, 3))
            mono = tuple(sorted(gen.choice(n, size=min(deg, n), replace=False).tolist()))
            terms.append((int(gen.integers(1, p)), mono))
        f = LogicFunction(p, n, anf=terms)
        assert parse_anf(anf_text(f), p, n) == f


def evaluate_text(p, n, text) -> list:
    """The table of an ANF text evaluated x by x as a Python expression over
    the integers: '^' becomes '**', factors juxtaposed as ')(' are joined by
    '*', and xi and yi read x[i-1]."""
    expr = re.sub(r"\)\s*\(", ")*(", text.replace("^", "**"))
    expr = re.sub(r"[xy](\d+)", lambda m: f"x[{int(m[1]) - 1}]", expr)
    code = compile(expr, "<anf>", "eval")
    return brute_table(p, n, lambda x: eval(code, {"x": x}))


CANCELLING = [
    "x1 - x1",
    "(1+x1)(1+x2)(1+x3) - 1",
    "x1 + x2 - x1 - x2 + 1",
    "-(x1*x2 + x3) + x3 + x1*x2*x3 + x1*x2",
    "(x1 + x2)^2 - x1^2 - x2^2 - 2*x1*x2 + x3",
    "x1*x2 - x2*x1 + 3 - 3 + x2 - x2",
]


@pytest.mark.parametrize("p, n, dense", [(2, 8, 4), (3, 5, 4), (5, 3, 4), (7, 3, 4), (13, 3, 1)])
def test_summing_in_place_keeps_the_canonical_anf(gen, p, n, dense):
    # texts of random tables, and sums that cancel, against the interpolated
    # ANF of each text's values computed x by x
    texts = [anf_text(random_function(gen, p, n)) for _ in range(dense)] + CANCELLING
    for text in texts:
        expected = lfqec.logic_fn._anf_terms(LogicFunction(p, n, evaluate_text(p, n, text)))
        assert parse_anf(text, p, n).anf == expected


def random_expression(gen, p, n, depth) -> tuple:
    """(text, value, level) of a random expression tree: value(x) evaluates
    it over the integers, powers mod p, and level is how loosely its text
    binds (0 a constant, variable or parenthesized text, 1 a power, 2 a
    product, 3 a sum). Leaves are constants up to 3p and variables under
    either name; nodes are sums, differences, unary minus, products written
    with '*' or by juxtaposition, and powers up to 2p + 1 written with '^' or
    '**'."""
    kind = int(gen.integers(0, 6)) if depth else int(gen.integers(0, 2))
    if kind == 0:
        c = int(gen.integers(0, 3 * p + 1))
        return str(c), lambda x: c, 0
    if kind == 1:
        v = int(gen.integers(0, n))
        return f"{gen.choice(['x', 'y'])}{v + 1}", lambda x: x[v], 0

    def operand(loosest):  # a subtree, parenthesized if it binds looser, or at random
        text, value, level = random_expression(gen, p, n, depth - 1)
        return (text if level <= loosest and gen.random() < 0.7 else f"({text})"), value

    if kind == 2:  # a leading '-' negates the whole term it starts
        a, fa = operand(2)
        return f"(-{a})", lambda x: -fa(x), 0
    if kind == 3:
        (a, fa), e = operand(0), int(gen.integers(0, 2 * p + 2))
        return f"{a}{gen.choice(['^', '**'])}{e}", lambda x: pow(fa(x), e, p), 1
    (a, fa), (b, fb) = operand(3 if kind == 4 else 2), operand(2)
    if kind == 4:
        if gen.random() < 0.5:
            return f"{a} + {b}", lambda x: fa(x) + fb(x), 3
        return f"{a} - {b}", lambda x: fa(x) - fb(x), 3
    if gen.random() < 0.5:
        return f"{a}*{b}", lambda x: fa(x) * fb(x), 2
    # juxtaposed: no space is needed after ')' or before '(' or a variable
    space = "" if a.endswith(")") or b[0] in "(xy" else " "
    return f"{a}{space}{b}", lambda x: fa(x) * fb(x), 2


@pytest.mark.parametrize("p, n", [(2, 5), (3, 3), (5, 2), (13, 2)])
def test_random_expressions_match_their_values(gen, p, n):
    for _ in range(150):
        text, value, _ = random_expression(gen, p, n, int(gen.integers(1, 5)))
        expected = lfqec.logic_fn._anf_terms(LogicFunction(p, n, brute_table(p, n, value)))
        assert parse_anf(text, p, n).anf == expected, text


def test_a_dense_anf_text_parses_in_linear_time(gen):
    # about 8,200 terms; with a copy of the sum per '+' this took 8.9 s on a 2-core host
    f = random_function(gen, 2, 14)
    text = anf_text(f)
    t0 = time.perf_counter()
    g = parse_anf(text, 2, 14)
    assert time.perf_counter() - t0 < 3
    assert g == f


def product_anf(n: int) -> list:
    """The 2^n terms of (1+x1)(1+x2)...(1+xn) over F_2."""
    return [(1, m) for k in range(n + 1) for m in itertools.combinations(range(n), k)]


def test_a_product_of_16_factors_expands_within_a_second():
    # 2^16 terms, 1 at x = 0 alone; adding each term over the grid took 21 s on a 2-core host
    f = LogicFunction(2, 16, anf=product_anf(16))
    t0 = time.perf_counter()
    t = f.table
    assert time.perf_counter() - t0 < 1
    assert np.flatnonzero(t).tolist() == [0]


def test_anf_interpolated_from_table(gen):
    # a function built from its table carries no ANF; anf_text interpolates it
    for _ in range(300):
        p = int(gen.choice(PRIMES))
        n = int(gen.integers(1, {2: 6, 3: 4, 5: 3, 7: 2, 11: 2, 13: 2}[p] + 1))
        terms = []
        for _ in range(int(gen.integers(0, 6))):
            exps = gen.integers(0, p, n) * (gen.random(n) < 0.5)
            mono = tuple(v for v, e in enumerate(exps.tolist()) for _ in range(e))
            terms.append((int(gen.integers(1, p)), mono))
        f = LogicFunction(p, n, anf=terms)
        derived = lfqec.logic_fn._anf_terms(LogicFunction(p, n, f.table))
        assert derived == f.anf
        assert LogicFunction(p, n, anf=derived) == f
        g = random_function(gen, p, n)
        assert g.anf is None
        assert parse_anf(anf_text(g), p, n) == g


def evaluate_terms(p, n, terms) -> list:
    """The table of sum c * prod x_v over (c, monomial) terms, x by x."""
    return brute_table(
        p, n, lambda x: sum(c * math.prod(x[v] for v in mono) for c, mono in terms)
    )


@pytest.mark.parametrize("p, n", [(2, 7), (3, 4), (5, 3)])
def test_interpolated_anf_evaluates_to_the_table(gen, p, n):
    degrees = range(n * (p - 1) + 1)
    for _ in range(10):
        f = random_function(gen, p, n)
        terms = lfqec.logic_fn._anf_terms(f)
        assert evaluate_terms(p, n, terms) == f.table.tolist()
        top = max((len(mono) for _, mono in terms), default=0)
        for d in degrees:
            assert lfqec.logic_fn._anf_terms(f, d) == (terms if top <= d else None)
        # a table of degree at most 2, squares included, known only by its values
        monos = [(), *((v,) for v in range(n)), *itertools.combinations_with_replacement(range(n), 2)]
        low = [(int(gen.integers(p)), mono) for mono in monos]
        q = LogicFunction(p, n, evaluate_terms(p, n, low))
        terms = lfqec.logic_fn._anf_terms(q, max_deg=2)
        assert terms is not None and evaluate_terms(p, n, terms) == q.table.tolist()
        assert all(len(mono) <= 2 for _, mono in terms)
        assert lfqec.logic_fn._anf_terms(q, max_deg=1) == (
            terms if all(len(mono) <= 1 for _, mono in terms) else None
        )


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_interpolation_sums_reach_their_bound(p):
    # v(x) = sum_k (p-1) C(x, k): every forward difference is p - 1, so each
    # coefficient sums its largest possible value before it is reduced
    v = brute_table(p, 1, lambda x: (p - 1) * sum(math.comb(x[0], k) for k in range(p)))
    terms = lfqec.logic_fn._anf_terms(LogicFunction(p, 1, v))
    assert evaluate_terms(p, 1, terms) == v


def test_anf_matches_table_evaluation(gen):
    # random terms with powers up to p - 1 at every p; draw 0 is the zero ANF,
    # draw 1 a constant, and odd draws leave the last variable out, so its
    # axis is broadcast
    for p, trial in itertools.product(PRIMES, range(40)):
        n = int(gen.integers(1, {2: 7, 3: 5, 5: 4}.get(p, 3) + 1))
        used = n - trial % 2 if n > 1 else n
        terms = []
        for _ in range(int(gen.integers(0, 6)) if trial > 1 else 0):
            exps = gen.integers(0, p, used) * (gen.random(used) < 0.6)
            terms.append((int(gen.integers(1, p)), [(v, int(e)) for v, e in enumerate(exps) if e]))
        if trial == 1:
            terms = [(int(gen.integers(1, p)), [])]
        text = " + ".join(
            f"{c}" + "".join(f"*x{v + 1}^{e}" for v, e in mono) for c, mono in terms
        ) or "0"
        g = parse_anf(text, p, n)
        monos = [(c, tuple(v for v, e in mono for _ in range(e))) for c, mono in terms]
        assert list(g.table) == evaluate_terms(p, n, monos)


def test_quadratic_form():
    A = FpMatrix.from_rows(2, [[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    f = quadratic_form(A)
    assert list(f.table) == brute_table(2, 3, lambda x: x[0] * x[1] + x[0] * x[2])
    with pytest.raises(InputError):
        quadratic_form(FpMatrix.from_rows(2, [[0, 1], [0, 0]]))
    with pytest.raises(InputError):
        quadratic_form(FpMatrix.from_rows(2, [[1, 1], [1, 0]]))
    with pytest.raises(InputError, match="symmetric"):  # more columns than rows
        quadratic_form(FpMatrix.from_rows(2, [[0, 1, 1]]))


def test_add_affine(gen):
    for _ in range(50):
        p = int(gen.choice([2, 3]))
        n = int(gen.integers(1, 4))
        f = random_function(gen, p, n)
        beta = tuple(int(v) for v in gen.integers(0, p, n))
        c = int(gen.integers(0, p))
        g = add_affine(f, beta, c)
        ref = brute_table(p, n, lambda x: 0)
        for idx, x in enumerate(itertools.product(range(p), repeat=n)):
            ref[idx] = (f.table[idx] + sum(b * xi for b, xi in zip(beta, x)) + c) % p
        assert list(g.table) == ref
        # the updated ANF is the canonical ANF of the sum
        q = random_quadratic(gen, p, n)
        q = add_affine(q, (0,) * n, int(gen.integers(-p, 2 * p)))
        c = int(gen.integers(-p, 2 * p))
        extra = [(b, (j,)) for j, b in enumerate(beta)] + [(c, ())]
        assert add_affine(q, beta, c).anf == LogicFunction(p, n, anf=[*q.anf, *extra]).anf
    h = parse_anf("x1*x2", 2, 2)
    k = add_affine(h, (1, 0), 1)
    assert anf_text(k) == "1 + x1 + x1*x2"


def random_anf(gen, p, n) -> LogicFunction:
    """An ANF-held function of degree up to 3, with raw coefficients outside
    0..p-1, repeated monomials and exponents below p."""
    terms = []
    for _ in range(int(gen.integers(0, 8))):
        mono = sorted(gen.integers(0, n, int(gen.integers(0, 4))).tolist())
        if all(mono.count(v) < p for v in mono):
            terms.append((int(gen.integers(-p, 2 * p)), tuple(mono)))
    return LogicFunction(p, n, anf=terms)


def affine_reference(f, row, c) -> LogicFunction:
    """f + row . x + c by the full route: a plain list of terms canonicalized
    on construction, or the table sum reduced on construction."""
    if f.anf is None:
        return LogicFunction(f.p, f.n, f.table + linear_values(f.p, f.n, row) + c)
    return LogicFunction(f.p, f.n, anf=[*f.anf, (c, ()), *((v, (j,)) for j, v in enumerate(row))])


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_affine_family_matches_full_canonicalization(gen, p):
    n = 2 if p == 13 else 3
    anfs = [random_anf(gen, p, n) for _ in range(12)]
    anfs += [LogicFunction(p, n, anf=[]),  # f = 0
             LogicFunction(p, n, anf=[(int(gen.integers(1, p)), ()), (1, (n - 1,))])]  # no tail
    for f_anf in anfs:
        held = {m: c for c, m in f_anf.anf}
        # the row and constant that cancel f's own linear and constant terms
        cancel = [-held.get((j,), 0) for j in range(n)], -held.get((), 0)
        rows = [cancel[0]] + gen.integers(-2 * p, 3 * p, (5, n)).tolist()
        consts = [cancel[1]] + gen.integers(-2 * p, 3 * p, 5).tolist()
        for f in (f_anf, LogicFunction(p, n, f_anf.table)):
            family = affine_family(f, rows, consts)
            assert len(family) == len(rows)
            for g, row, c in zip(family, rows, consts):
                want = affine_reference(f, row, c)
                assert (g.anf is None, g.values is None) == (f.anf is None, f.values is None)
                assert g.anf == want.anf and type(g.anf) is type(want.anf)
                assert np.array_equal(g.table, want.table)
            if f.anf is not None:
                assert all(len(m) >= 2 for _, m in family[0].anf)  # the prefix cancelled
            # K = 1, without constants, and as add_affine
            (one,) = affine_family(f, rows[1:2])
            assert np.array_equal(one.table, affine_reference(f, rows[1], 0).table)
            assert one.anf == add_affine(f, rows[1]).anf
            assert affine_family(f, []) == []
            with pytest.raises(InputError, match="needs"):
                affine_family(f, [rows[1], rows[2][:-1]])
            with pytest.raises(InputError, match="needs"):
                affine_family(f, rows[:2], consts[:1])
    assert "affine_family" not in lfqec.__all__


def test_a_canonical_anf_is_taken_unchecked_only_for_its_own_field():
    f = LogicFunction(3, 3, anf=[(2, (2, 2))])
    with pytest.raises(InputError, match="out of range"):
        LogicFunction(3, 2, anf=f.anf)
    with pytest.raises(InputError, match="exponent"):
        LogicFunction(2, 3, anf=f.anf)
    kept = pickle.loads(pickle.dumps(f))
    assert kept.anf == f.anf and kept.anf.field == (3, 3)


def test_builders_canonicalize_as_often_at_any_K(monkeypatch):
    calls, canonical = [], lfqec.logic_fn._canonical_terms

    def counted(*args):
        calls.append(args)
        return canonical(*args)

    def count(build):
        calls.clear()
        return build().claimed_K, len(calls)

    monkeypatch.setattr(lfqec.logic_fn, "_canonical_terms", counted)
    f = parse_anf("x1*x2 + x3*x4 + x4*x5", 2, 5)
    shifts = list(itertools.product((0, 1), repeat=5))[:16]
    cycle = [[int(abs(i - j) in (1, 3)) for j in range(4)] for i in range(4)]
    G = WeightedGraph(2, 4, FpMatrix.from_rows(2, cycle))
    classes = [{v + 1 for v in range(4) if m >> v & 1} for m in range(8)]
    builds = [
        (lambda: build_mds_family(2), lambda: build_mds_family(5), 256),
        (lambda: build_coset_code(f, shifts[:1]), lambda: build_coset_code(f, shifts), 16),
        (lambda: build_graph_code(G, classes[:1], 1), lambda: build_graph_code(G, classes, 1), 8),
    ]
    for small, large, K in builds:
        (_, few), (got_K, many) = count(small), count(large)
        assert got_K == K and many == few <= 2


def test_weight_support():
    f = parse_anf("x1*x2", 2, 2)
    M, supp = weight_support(f)
    assert M == 1 and supp == [(1, 1)]
    g = parse_anf("x1 + x2", 3, 2)
    M, supp = weight_support(g)
    assert M == 6
    assert supp[0] == (0, 1) and len(supp) == 6


# ---------------------------------------------------------------------------
# character sums


def apc_sum_float(f, a, b):
    """Independent float reference of the shifted character sum."""
    p, n = f.p, f.n
    zeta = cmath.exp(2j * cmath.pi / p)
    total = 0j
    for idx, x in enumerate(itertools.product(range(p), repeat=n)):
        xm = tuple((xi - ai) % p for xi, ai in zip(x, a))
        idxm = 0
        for v in xm:
            idxm = idxm * p + v
        expo = (int(f.table[idx]) - int(f.table[idxm]) + sum(bi * xi for bi, xi in zip(b, x))) % p
        total += zeta**expo
    return total


def test_apc_sum_matches_float_reference(gen):
    # the exact per-label sum of the distance references, against floats
    for _ in range(60):
        p = int(gen.choice([2, 3, 5]))
        n = int(gen.integers(1, 3))
        f = random_function(gen, p, n)
        a = tuple(int(v) for v in gen.integers(0, p, n))
        b = tuple(int(v) for v in gen.integers(0, p, n))
        assert close(as_complex(character_sum(f, a, b)), apc_sum_float(f, a, b))


def test_apc_distance_pins():
    f = parse_anf(K4_ANF, 2, 4)
    res = apc_distance(f)
    assert res.distance == 2
    # every label below the distance has a vanishing sum; the witness does not
    for a, bs in walk_blocks(2, 4, 1):
        for b in bs:
            assert character_sum(f, a, b).is_zero()
    assert not character_sum(f, res.witness.a, res.witness.b).is_zero()
    assert label_weight(res.witness) == 2

    zero = LogicFunction(2, 2, np.zeros(4, dtype=np.int64))
    assert apc_distance(zero).distance == 1
    assert apc_distance(parse_anf("x1 + x2", 3, 2)).distance == 1


def random_quadratic(gen, p, n) -> LogicFunction:
    """Random quadratic plus affine part, squares included at p > 2; such
    functions often reach weight 2 or 3 before a sum survives."""
    pairs = [(i, j) for i in range(n) for j in range(i if p > 2 else i + 1, n)]
    terms = [(int(gen.integers(0, p)), mono) for mono in pairs + [(i,) for i in range(n)]]
    return LogicFunction(p, n, anf=terms)


@pytest.mark.parametrize("p, max_n", [(2, 5), (3, 3), (5, 2), (7, 2), (13, 2)])
def test_apc_distance_matches_per_label_reference(gen, p, max_n):
    distances = []
    for _ in range(30):
        n = int(gen.integers(1, max_n + 1))
        make = random_quadratic if gen.integers(0, 4) else random_function
        f = make(gen, p, n)
        res = apc_distance(f)
        got = (res.distance, (res.witness.a, res.witness.b))
        assert got == reference_apc_distance(f)
        distances.append(res.distance)
    assert max(distances) >= 2


def random_cubic(gen, p, n) -> LogicFunction:
    """random_quadratic plus one cubic term with a nonzero coefficient, so
    the search walks the labels; a square in it needs p > 2 when n = 2."""
    mono = tuple(sorted(gen.choice(n, 3, replace=False).tolist())) if n >= 3 else (0, 0, 1)
    return LogicFunction(p, n, anf=[*random_quadratic(gen, p, n).anf,
                                    (int(gen.integers(1, p)), mono)])


def count_walks(monkeypatch) -> list:
    """Patch the label walk the search imports to record each call."""
    walks, walk = [], lfqec.logic_fn.label_blocks
    monkeypatch.setattr(lfqec.logic_fn, "label_blocks",
                        lambda *args: walks.append(args) or walk(*args))
    return walks


def test_search_reads_every_gather_chunk(gen, monkeypatch):
    # one label per gather chunk, so a first failing label that is not the
    # first of its block lies past the block's first chunk
    monkeypatch.setattr(lfqec._tables, "_CHUNK_ROWS", 1)
    walks = count_walks(monkeypatch)
    later = 0
    for p, n in [(2, 4), (3, 3), (5, 2)]:
        for _ in range(10):
            f = random_cubic(gen, p, n)
            # three random shifts, then 1 to 4: repeated differences, K = 1
            for betas in (sorted({tuple(int(v) for v in gen.integers(0, p, n)) for _ in range(3)}),
                          random_shifts(gen, p, n)):
                w, (a, b) = reference_coset_distance(f, betas)
                walks.clear()
                assert lfqec.logic_fn._first_nonvanishing(f, betas) == (w, a, b)
                assert walks
                bs = next(bs for a2, bs in walk_blocks(p, n, w) if a2 == a and b in bs)
                later += bs.index(b) > 0
    assert later


@pytest.mark.parametrize("p, n", [(2, 4), (3, 3), (5, 2)])
def test_search_across_chunk_boundaries(gen, monkeypatch, p, n):
    # 7 numbers per walk chunk: supports span chunks, and chunks split a-groups
    monkeypatch.setattr(lfqec._tables, "_CHUNK_ROWS", 7)
    walks, zero_hits = count_walks(monkeypatch), 0
    for _ in range(10):
        f = random_cubic(gen, p, n)
        # three random shifts, then 1 to 4: repeated differences, K = 1
        for betas in (sorted({tuple(int(v) for v in gen.integers(0, p, n)) for _ in range(3)}),
                      random_shifts(gen, p, n)):
            w, (a, b) = reference_coset_distance(f, betas)
            walks.clear()
            assert lfqec.logic_fn._first_nonvanishing(f, betas) == (w, a, b)
            zero_hits += not any(a)  # an a = 0 group answers by one lookup in D
        res = apc_distance(f)
        assert (res.distance, (res.witness.a, res.witness.b)) == reference_apc_distance(f)
        assert len(walks) >= 2
    assert zero_hits


def test_walk_passes_an_a_zero_group_without_a_table_pass():
    # e_1 is no difference of these 256 shifts, so the weight-1 group a = 0,
    # b = e_1 fails and (e_1, 0) answers; one bincount per delta took about 5 s
    f = parse_anf("x1*x2*x3 + x4*x5 + x6*x7*x8 + x2*x9", 2, 16)
    betas = lfqec._tables.index_vectors(2, 16, np.random.default_rng(0).choice(2**16, 256, False))
    e1 = (1,) + (0,) * 15
    t0 = time.perf_counter()
    assert lfqec.logic_fn._first_nonvanishing(f, betas) == (1, e1, (0,) * 16)
    assert time.perf_counter() - t0 < 1


def random_shifts(gen, p, n) -> list:
    """1 to 4 distinct shifts; half the time an arithmetic progression,
    whose differences repeat."""
    K = int(gen.integers(1, 5))
    if gen.integers(0, 2):
        base, step = gen.integers(0, p, n), gen.integers(0, p, n)
        return sorted({tuple(int(v) for v in (base + i * step) % p) for i in range(K)})
    return sorted({tuple(int(v) for v in gen.integers(0, p, n)) for _ in range(K)})


@pytest.mark.parametrize("p, max_n, rows", [(2, 4, None), (3, 3, None), (3, 3, 1),
                                            (5, 2, 2), (13, 2, None)])
def test_quadratic_search_matches_the_per_label_references(gen, monkeypatch, p, max_n, rows):
    # f of degree <= 2, squares included at p > 2, held as its ANF or its
    # table, is read off (a, delta) without a walk, also when a chunk of
    # a-rows is shorter than one support's
    if rows is not None:
        monkeypatch.setattr(lfqec.logic_fn, "_PAIR_ROWS", rows)
    walks = count_walks(monkeypatch)
    held, distances = set(), []
    for _ in range(14):
        n = int(gen.integers(1, max_n + 1))
        f = random_quadratic(gen, p, n)
        if gen.integers(0, 2):
            f = LogicFunction(p, n, f.table)
        betas = random_shifts(gen, p, n)
        w, (a, b) = reference_coset_distance(f, betas)
        assert lfqec.logic_fn._first_nonvanishing(f, betas) == (w, a, b)
        res = apc_distance(f)
        assert (res.distance, (res.witness.a, res.witness.b)) == reference_apc_distance(f)
        held.add(f.anf is None)
        distances.append(w)
    assert walks == [] and held == {True, False} and max(distances) >= 2


@pytest.mark.parametrize("p, anf, want", [
    (3, "x1^2", (1, (1,), (1,))),  # S = 2: b = -2 a, where S = 1 would give b = 2
    (3, "x1^2 + x2^2", (1, (1, 0), (1, 0))),
    (5, "x1^2 + x2^2", (1, (1, 0), (3, 0))),  # S = 2 I: b = -2 a
    (5, "2*x1^2 + x1*x2", (2, (0, 1), (4, 0))),  # S a has weight 2 for every a != 0
    (13, "x1^2 + 7*x1*x2 + 12*x2^2", None),
])
def test_square_terms_add_twice_to_the_diagonal(p, anf, want):
    f = parse_anf(anf, p, 2 if "x2" in anf else 1)
    res = apc_distance(f)
    got = (res.distance, (res.witness.a, res.witness.b))
    assert got == reference_apc_distance(f)
    if want is not None:
        assert got == (want[0], (want[1], want[2]))


@pytest.mark.parametrize("p, n", [(2, 5), (3, 4), (5, 3), (13, 2)])
def test_symmetric_form_meets_the_difference_identity(gen, p, n):
    # f(x) - f(x - a) = (S a).x + c(a) for every a, checked by brute force
    # over every x on f's terms alone; S is the only matrix for which the
    # left side less (S a).x is constant in x for each a
    points = list(itertools.product(range(p), repeat=n))
    for _ in range(3):
        f = random_quadratic(gen, p, n)
        values = {x: sum(c * math.prod(x[v] for v in m) for c, m in f.anf) % p for x in points}
        S = lfqec.logic_fn._symmetric_form(p, n, f.anf)
        assert S.shape == (n, n) and (S == S.T).all() and ((0 <= S) & (S < p)).all()
        for a in points:
            Sa = [sum(int(S[i, j]) * a[j] for j in range(n)) for i in range(n)]
            rest = {(values[x] - values[tuple((u - v) % p for u, v in zip(x, a))]
                     - sum(s * u for s, u in zip(Sa, x))) % p for x in points}
            assert len(rest) == 1, (f.anf, a)


def test_a_held_quadratic_is_never_expanded(monkeypatch):
    # n = 20: the ANF is read off, and no table of 2^20 entries is built
    terms = [(1, (i, (i + 1) % 20)) for i in range(20)] + [(1, (3,)), (1, ())]
    f = LogicFunction(2, 20, anf=terms)
    expanded = count_expansions(monkeypatch)
    assert apc_distance(f).distance == 3  # the cycle C20's graph state
    betas = [(0,) * 20, (1,) * 20]
    assert claimed_coset_distance(f, betas) <= 3
    assert expanded == []


def test_a_table_over_the_degree_bound_lists_no_coefficient(gen, monkeypatch):
    # more nonzero coefficients than monomials of degree <= 2: refused before
    # np.argwhere lists them; a quadratic table comes back as its ANF
    def no_listing(*args):
        raise AssertionError("np.argwhere ran")

    f = random_function(gen, 2, 10)
    monkeypatch.setattr(np, "argwhere", no_listing)
    assert lfqec.logic_fn._anf_terms(f, max_deg=2) is None
    monkeypatch.undo()
    q = random_quadratic(gen, 3, 4)
    assert lfqec.logic_fn._anf_terms(LogicFunction(3, 4, q.table), max_deg=2) == q.anf


# a p = 2, n = 16 graph state of distance 5: the label walk took 24-33 s on it
# on a 2-core host
APC16 = ("x1*x7 + x1*x8 + x1*x9 + x1*x12 + x1*x14 + x2*x3 + x2*x5 + x2*x11 + x2*x12 + "
         "x2*x13 + x2*x14 + x2*x15 + x3*x4 + x3*x5 + x3*x8 + x3*x9 + x3*x10 + x3*x11 + "
         "x3*x12 + x3*x14 + x3*x15 + x3*x16 + x4*x7 + x4*x13 + x4*x14 + x4*x15 + x4*x16 + "
         "x5*x6 + x5*x7 + x5*x8 + x5*x13 + x5*x15 + x5*x16 + x6*x7 + x6*x9 + x6*x10 + "
         "x6*x12 + x6*x13 + x6*x14 + x7*x9 + x7*x10 + x7*x11 + x8*x10 + x8*x15 + x8*x16 + "
         "x9*x11 + x9*x12 + x9*x13 + x9*x14 + x9*x16 + x10*x11 + x10*x16 + x11*x12 + "
         "x11*x13 + x12*x13 + x12*x14 + x13*x15 + x14*x15 + x15*x16")


def test_apc_reads_a_distance_5_quadratic_at_n16_within_3_s(tmp_path, capsys):
    from lfqec.cli import main

    (tmp_path / "f.fn").write_text(f"2 16\nanf: {APC16}\n")
    start = time.perf_counter()
    assert main(["apc", str(tmp_path / "f.fn")]) == 0
    elapsed = time.perf_counter() - start
    assert capsys.readouterr().out == (
        "distance: 5\nwitness: a=0000000100000001 b=1001000110000001\n")
    assert elapsed <= 3.0, f"apc took {elapsed:.2f} s"


def test_coset_code_forms_2048_squared_shift_differences_within_3_s(tmp_path, capsys):
    # a cubic walks its table; its 2048^2 ordered shift pairs took about 6 s
    # as a dict of difference tuples on a 2-core host
    from lfqec.cli import main

    (tmp_path / "f.fn").write_text("2 11\nanf: x1*x2*x3 + x4*x5 + x6\n")
    betas = ",".join(format(j, "011b") for j in range(2048))
    start = time.perf_counter()
    assert main(["coset-code", str(tmp_path / "f.fn"), "--betas", betas]) == 0
    elapsed = time.perf_counter() - start
    assert capsys.readouterr().out.startswith("code: ((11, 2048, 1))_p=2\n")
    assert elapsed <= 3.0, f"coset-code took {elapsed:.2f} s"


def test_search_builds_one_shift_table_per_shift(gen, monkeypatch):
    # the one zero shift of apc_distance has no nonzero difference, so no
    # table beta.x is built; three shifts take one table each
    calls = []
    linear_values = lfqec.logic_fn.linear_values
    monkeypatch.setattr(lfqec.logic_fn, "linear_values",
                        lambda *args: calls.append(args) or linear_values(*args))
    f = random_function(gen, 2, 6)
    apc_distance(f)
    assert calls == []
    betas = [(0,) * 6, (0, 1, 0, 1, 1, 0), (1, 1, 0, 0, 0, 0)]
    claimed_coset_distance(f, betas)
    assert sorted(beta for _, _, beta in calls) == betas


def test_apc_distance_affine_invariance(gen):
    for _ in range(40):
        p = int(gen.choice([2, 3]))
        n = int(gen.integers(1, 4))
        f = random_function(gen, p, n)
        beta = tuple(int(v) for v in gen.integers(0, p, n))
        c = int(gen.integers(0, p))
        assert apc_distance(f).distance == apc_distance(add_affine(f, beta, c)).distance


def test_autocorrelation_values():
    f = parse_anf("x1*x2 + x3*x4", 2, 4)
    assert autocorrelation(f, (0, 0, 0, 0)).as_integer() == 16
    for a in itertools.product((0, 1), repeat=4):
        if any(a):
            assert autocorrelation(f, a).as_integer() == 0
    g = parse_anf("x1", 3, 1)
    # sum zeta^(x - (x+1)) = 3 * zeta^-1
    assert autocorrelation(g, (1,)) == __import__("lfqec").CycloInt(3, (0, 0, 3))


def direct_walsh(v: np.ndarray) -> np.ndarray:
    """sum_x v(x) (-1)^(u.x) for every u, one parity per (u, x) pair."""
    x = np.arange(len(v))
    return np.array([sum(int(c) * (-1) ** bin(u & k).count("1") for k, c in zip(x, v))
                     for u in x], dtype=np.int64)


def test_fwht_transforms_the_callers_array_in_place(gen):
    # _fwht and _autocorrelate return the int64 array they are handed, transformed
    for n in range(1, 9):
        f = random_function(gen, 2, n)
        held, x = f.table, np.arange(2**n)
        signs = np.where(held, -1, 1)
        for v, want in [(np.array(held), direct_walsh(held)), (signs, direct_walsh(signs))]:
            assert lfqec.logic_fn._fwht(v) is v and np.array_equal(v, want)
        for v, want in [(np.where(held, -1, 1), direct_spectrum(f)),
                        (np.array(held), [int(held @ held[x ^ a]) for a in x])]:
            assert lfqec.logic_fn._autocorrelate(v) is v and np.array_equal(v, want)
        with pytest.raises((AssertionError, ValueError)):  # a held table is read-only
            lfqec.logic_fn._fwht(held)
    # each public caller builds the one array it transforms, so f's values stay as they were
    bent = LogicFunction(2, 4, parse_anf("x1*x2 + x3*x4", 2, 4).table)
    for f in [bent] + [random_function(gen, 2, n) for n in (4, 6, 8)]:
        kept = f.values.copy()
        A = FpMatrix.from_rows(2, gen.integers(0, 2, (f.n, 2 * f.n)).tolist())
        for call in (zset, is_bent, bent_exclusion, lambda f: check_projector_premises(f, A)):
            call(f)
            assert np.array_equal(f.values, kept) and not f.values.flags.writeable


# ---------------------------------------------------------------------------
# shift sets and bentness


def test_zset_pinned():
    g = parse_anf("x1*x3 + x1*x4 + x2*x3 + x2*x4 + x3*x4 + x1 + x2", 2, 4)
    expected_missing = {(0, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 1), (0, 1, 1, 1)}
    zs = zset(g)
    assert zs == set(itertools.product((0, 1), repeat=4)) - expected_missing
    assert zs == direct_zset(g)
    assert zset(parse_anf("0", 2, 3)) == set(itertools.product((0, 1), repeat=3))
    assert zset(parse_anf("1", 2, 3)) == set()


def test_zset_equivalence_and_precondition(gen):
    checked = heavy = 0
    while checked < 50 or heavy < 10:
        n = int(gen.integers(1, 6))
        f = random_function(gen, 2, n)
        assert zset(f) == direct_zset(f)
        M, _ = weight_support(f)
        if M > 2 ** (n - 1):
            with pytest.raises(ValueError):  # the formula's precondition
                formula_zset(f)
            assert zset(f) == set()  # f and every shift of it share a support point
            heavy += 1
            continue
        assert zset(f) == formula_zset(f)
        checked += 1
    with pytest.raises(InputError):
        zset(random_function(gen, 3, 2))


def test_zset_routes_agree_at_n16(gen):
    n = 16
    table = np.zeros(2**n, dtype=np.int64)
    table[gen.choice(2**n, 120, replace=False)] = 1
    f = LogicFunction(2, n, table)
    zs = zset(f)
    assert zs == difference_zset(f)
    assert 0 < len(zs) < 2**n and (0,) * n not in zs


def test_zset_references_share_no_transform(gen, monkeypatch):
    # a fault in lfqec's Walsh transforms cannot reach the references that check zset
    fs = [random_function(gen, 2, n) for n in range(1, 7)]
    fs = [f if 2 * f.table.sum() <= 2**f.n else LogicFunction(2, f.n, 1 - f.table) for f in fs]
    want = [zset(f) for f in fs]
    for name in ("_fwht", "_autocorrelate"):
        monkeypatch.setattr(lfqec.logic_fn, name, None)
    assert [formula_zset(f) for f in fs] == want
    assert [difference_zset(f) for f in fs] == want


def test_zset_listing_budget_counts_entries(monkeypatch):
    # x1 on n = 4 has the 8 shifts with a_1 = 1: 32 entries in all
    f = parse_anf("x1", 2, 4)
    monkeypatch.setattr(lfqec.fp_algebra, "MAX_LISTING", 32)
    assert len(zset(f)) == 8
    monkeypatch.setattr(lfqec.fp_algebra, "MAX_LISTING", 31)
    with pytest.raises(CapacityError, match="8 shifts of length 4"):
        zset(f)


def test_is_bent():
    assert is_bent(parse_anf("x1*x2 + x3*x4", 2, 4))
    assert is_bent(parse_anf("x1*x2", 2, 2))
    assert not is_bent(parse_anf("x1", 2, 2))
    assert not is_bent(parse_anf("x1*x2", 2, 4))  # rank-2 form on 4 variables
    # complete-graph form on 4 vertices: off-diagonal matrix is invertible
    assert is_bent(parse_anf(K4_ANF, 2, 4))
    with pytest.raises(InputError):
        is_bent(parse_anf("x1*x2", 2, 3))  # odd n
    with pytest.raises(InputError):
        is_bent(parse_anf("x1*x2", 3, 2))  # p != 2


def test_table_readers_expand_an_anf_once(monkeypatch):
    f, bent = parse_anf("x1*x2*x3 + x4", 2, 4), parse_anf(K4_ANF, 2, 4)
    reads = [
        (lambda: lfqec.logic_fn._first_nonvanishing(f, [(0, 0, 0, 0), (1, 1, 0, 0)]), f),
        (lambda: apc_distance(f), f),
        (lambda: is_bent(bent), bent),
        (lambda: autocorrelation(f, (1, 0, 1, 0)), f),
        (lambda: zset(f), f),
        (lambda: bent_exclusion(bent), bent),
    ]
    expanded = count_expansions(monkeypatch)
    for read, g in reads:
        expanded.clear()
        read()
        assert len(expanded) == 1 and expanded[0] is g


def test_is_bent_at_n18():
    inner_product = " + ".join(f"x{2 * i + 1}*x{2 * i + 2}" for i in range(9))
    f = parse_anf(inner_product, 2, 18)
    assert is_bent(f)
    assert not is_bent(add_affine(parse_anf("x1*x2", 2, 18), (1,) * 18))


def test_bent_support_sizes(gen):
    # every bent function found among random quadratics has the forced size
    hits = 0
    for _ in range(200):
        f = random_function(gen, 2, 4)
        if is_bent(f):
            M, _ = weight_support(f)
            assert M in (6, 10)
            hits += 1
    bent = parse_anf("x1*x2 + x3*x4", 2, 4)
    M, _ = weight_support(bent)
    assert M == 6


# ---------------------------------------------------------------------------
# coboundary solver


def difference_tables(f):
    """(beta, t) of D_alpha f for unit alphas when the difference is affine."""
    import lfqec

    out = []
    D = np.array(list(itertools.product(range(f.p), repeat=f.n)))
    for i in range(f.n):
        alpha = tuple(1 if j == i else 0 for j in range(f.n))
        sh = [0] * (f.p**f.n)
        for idx, x in enumerate(itertools.product(range(f.p), repeat=f.n)):
            xp = tuple((xi + ai) % f.p for xi, ai in zip(x, alpha))
            j = 0
            for v in xp:
                j = j * f.p + v
            sh[idx] = j
        diff = (f.table[sh] - f.table) % f.p
        t = int(diff[0])  # value at x = 0
        beta = []
        for k in range(f.n):
            idx = f.p ** (f.n - 1 - k)  # x = e_k
            beta.append((int(diff[idx]) - t) % f.p)
        out.append((alpha, tuple(beta), t, diff))
    return out


def test_solve_coboundary_reproduces_quadratics(gen):
    for _ in range(60):
        p = int(gen.choice([2, 3]))
        n = int(gen.integers(2, 5))
        terms = [(int(gen.integers(0, p)), (i, j)) for i in range(n) for j in range(i + 1, n)]
        terms += [(int(gen.integers(0, p)), (i,)) for i in range(n)]
        f = LogicFunction(p, n, anf=terms)
        pairs = []
        diffs = []
        for alpha, beta, t, diff in difference_tables(f):
            pairs.append((alpha, beta, t))
            diffs.append(diff)
        g = solve_coboundary(pairs, p, n)
        assert g is not None
        # all n * p^n pointwise equations hold for the returned function
        for (alpha, beta, t), diff in zip(pairs, diffs):
            got = difference_tables(g)
            for ga, gb, gt, gdiff in got:
                if ga == alpha:
                    assert np.array_equal(gdiff, diff)


def test_solve_coboundary_inconsistent_and_dependent():
    # requiring D_(1,0) f = x1 is impossible for square-free quadratics
    assert solve_coboundary([((1, 0), (1, 0), 0)], 2, 2) is None
    with pytest.raises(InputError):
        solve_coboundary([((1, 0), (0, 1), 0), ((1, 0), (0, 1), 1)], 2, 2)
    with pytest.raises(InputError):
        solve_coboundary([((0, 0), (0, 1), 0)], 2, 2)


def test_solve_coboundary_pinned():
    # D_(1,0) f = x2 + 1 and D_(0,1) f = x1 force f = x1*x2 + x1 (constant 0)
    g = solve_coboundary([((1, 0), (0, 1), 1), ((0, 1), (1, 0), 0)], 2, 2)
    assert g == parse_anf("x1*x2 + x1", 2, 2)


# ---------------------------------------------------------------------------
# function files


def parse_function_file(text: str) -> LogicFunction:
    return LogicFunction(*read_function_file(text))


def test_parse_function_file_variants():
    f = parse_function_file("2 2\nanf: x1*x2\n")
    assert f == parse_anf("x1*x2", 2, 2)
    g = parse_function_file("# comment\n\n2 2\ntt: 0001\n")
    assert g == f
    h = parse_function_file("3 1\ntt: 0, 1, 2\n")
    assert list(h.table) == [0, 1, 2]
    sp = parse_function_file("2 2\ntt: 0 0 0 1\n")
    assert sp == f
    # p > 7 reads a digit string compactly only when it has exactly p^n digits
    assert list(parse_function_file("11 1\ntt: 01234567890\n").table) == [*range(10), 0]


def test_compact_table_is_read_as_one_byte_a_digit():
    # 2^20 compact digits are held as a byte view, not a list of 8-byte entries
    digits = np.random.default_rng(20).integers(0, 2, 2**20)
    text = "2 20\ntt: " + (digits.astype(np.uint8) + ord("0")).tobytes().decode() + "\n"
    tracemalloc.start()
    try:
        parsed = read_function_file(text)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 2 * 2**20
    f = LogicFunction(*parsed)
    assert np.array_equal(f.table, digits)
    # separated values, and p = 11 residues of two digits, are read as lists
    spaced = read_function_file("2 20\ntt: " + " ".join(map(str, digits.tolist())))
    assert isinstance(spaced[2], list) and LogicFunction(*spaced) == f
    vals = np.random.default_rng(11).integers(0, 11, 11**2)
    two_digit = read_function_file("11 2\ntt: " + ", ".join(map(str, vals.tolist())))
    assert isinstance(two_digit[2], list) and 10 in two_digit[2]
    assert np.array_equal(LogicFunction(*two_digit).table, vals)
    small = np.minimum(vals, 9).tolist()  # spelled both ways: p^n digits, or separated
    compact = read_function_file("11 2\ntt: " + "".join(map(str, small)))
    assert LogicFunction(*compact) == LogicFunction(*read_function_file(
        "11 2\ntt: " + " ".join(map(str, small))))


@pytest.mark.parametrize("pad", ["", "\t "], ids=["none", "spaces"])
def test_compact_table_is_read_in_two_copies(pad):
    # the body line's bytes and their digit values, never a slice or a strip of
    # the line beside them: at most twice the text (its own copy not counted),
    # plus small objects
    digits = np.random.default_rng(5).integers(0, 2, 2**20)
    text = f"# c\n2 20\ntt:{pad}" + (digits.astype(np.uint8) + ord("0")).tobytes().decode() + " \n"
    tracemalloc.start()
    try:
        parsed = read_function_file(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * len(text) + 1024
    assert bytes(parsed[2]) == digits.astype(np.uint8).tobytes()
    # a space of more than one byte before the digits: the view starts at the first digit
    assert bytes(read_function_file("2 2\ntt:\u3000 0110\n")[2]) == bytes([0, 1, 1, 0])


@pytest.mark.parametrize("text", ["3 1\ntt: 013\n", "3 1\ntt: 0, 1, 3\n", "3 1\ntt: 0 -1 2\n"])
def test_parse_function_file_residue_out_of_range(text):
    # a compact digit string and separated values, above p - 1 and below 0
    with pytest.raises(InputError, match=r"^residues must lie in \[0, 3\)$"):
        parse_function_file(text)


def test_parse_function_file_errors():
    for bad in (
        "2 2\n",  # missing body
        "2\nanf: x1",  # bad header
        "2 2\ntt: 00011",  # wrong count
        "2 2\ntt: 0002",  # residue out of range
        "2 2\nbody: x1",  # unknown body
        "a b\nanf: x1",  # non-integer header
        "2 2\ntt: 0 1 q 1",  # non-integer residue
    ):
        with pytest.raises(InputError):
            parse_function_file(bad)
    if MAX_DIGITS:  # int() refuses longer digit strings
        with pytest.raises(InputError):
            parse_function_file("2 2\nanf: " + "9" * (MAX_DIGITS + 1))
