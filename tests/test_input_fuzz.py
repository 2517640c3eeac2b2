"""Fuzz the input contract: function, graph, matrix, system and code
files run through the command line never escape as an exception and always
exit with a documented code (0 ok, 1 refuted, 2 bad input, 3 over capacity).

Each file starts well formed with small sizes, so that inputs which parse
stay cheap to run, though an ANF body may nest deeper than the interpreter
recurses; three in four then get one token replaced by junk or one line
dropped. A code description (JSON) instead gets one field set to a
value of the wrong type, which must be refused with exit 2, one field set
to a bad value of the right type, one field dropped, or its text cut short.
"""
import contextlib
import io
import json

import pytest

from lfqec.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FUZZ = hypothesis.settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)

JUNK = ("q", "1x", "-1", "2.5", "#", ",", "", "x1", "7", "99999999999999999999", "1_0", "0x1")
junk = st.one_of(st.sampled_from(JUNK), st.text(alphabet="0123x ,.:-#q", max_size=6))
small_p = st.sampled_from((2, 3))


def residue(p):
    return st.integers(0, p - 1).map(str)


def vector(p, n):
    return st.lists(residue(p), min_size=n, max_size=n).map("".join)


@st.composite
def damaged(draw, lines):
    """File text from well-formed token lines; half the time one token is
    replaced by junk, and a quarter of the time one line is dropped."""
    lines = [list(line) for line in draw(lines)]
    damage = draw(st.sampled_from(("none", "token", "token", "line")))
    i = draw(st.integers(0, len(lines) - 1))
    if damage == "token" and lines[i]:
        lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(junk)
    elif damage == "line":
        del lines[i]
    return "\n".join(" ".join(line) for line in lines) + "\n"


@st.composite
def function_lines(draw):
    p, n = draw(small_p), draw(st.integers(1, 3))
    factor = st.sampled_from([f"x{i}" for i in range(1, n + 1)] + ["2", "y1^2"])
    monomial = st.lists(factor, min_size=1, max_size=3).map("*".join)
    anf = st.lists(monomial, min_size=1, max_size=3).map(" + ".join)
    # 600 levels nest past the interpreter's recursion limit
    depth = st.sampled_from((0, 0, 2, 600))
    anf = st.tuples(anf, depth).map(lambda ad: "(" * ad[1] + ad[0] + ")" * ad[1])
    body = draw(st.one_of(
        anf.map(lambda text: ["anf:", text]),
        vector(p, p**n).map(lambda tt: ["tt:", tt]),
        st.lists(residue(p), min_size=p**n, max_size=p**n).map(lambda tt: ["tt:", *tt]),
    ))
    return [[str(p), str(n)], body]


@st.composite
def graph_files(draw):
    """(graph text, classes text); the classes always include the empty one."""
    p, n = draw(small_p), draw(st.integers(1, 5))
    edge = st.tuples(st.integers(1, n), st.integers(1, n), st.integers(1, p - 1))
    edges = draw(st.lists(edge, max_size=6, unique_by=lambda e: (min(e[:2]), max(e[:2]))))
    lines = [[str(p), str(n)]] + [[str(u), str(v), str(w)] for u, v, w in edges if u != v]
    classes = [["0" * n]] + draw(st.lists(vector(2, n).map(lambda c: [c]), max_size=2))
    return draw(damaged(st.just(lines))), draw(damaged(st.just(classes)))


@st.composite
def matrix_lines(draw):
    p, r = draw(small_p), draw(st.integers(1, 4))
    row = st.one_of(vector(p, r).map(lambda v: [v]), st.lists(residue(p), min_size=r, max_size=r))
    return [[str(p), str(r)]] + draw(st.lists(row, min_size=r, max_size=r))


@st.composite
def system_lines(draw):
    p, n = draw(small_p), draw(st.integers(1, 3))
    pair = st.tuples(vector(p, n), vector(p, n), residue(p)).map(list)
    return [[str(p), str(n)]] + draw(st.lists(pair, min_size=1, max_size=3))


INTEGER_FIELDS = ("p", "n", "claimed_d", "K")
NOT_AN_INTEGER = ("2", 1.9, 2.0, None, True, [2], {})
NOT_A_BASIS = (5, [5], "01", "x1", None, {"x1": 1}, ["x1", 3])


@st.composite
def code_descriptions(draw):
    """(JSON text, whether a field was given a value of the wrong type)."""
    p, n = draw(small_p), draw(st.integers(1, 3))
    variables = [f"x{i}" for i in range(1, n + 1)]
    anf = st.lists(st.sampled_from(variables + ["1", f"x1*x{n}"]), min_size=1, max_size=3)
    basis = draw(st.lists(anf.map(" + ".join), min_size=1, max_size=3, unique=True))
    data = {"p": p, "n": n, "claimed_d": draw(st.integers(1, 3)), "basis": basis}
    if draw(st.booleans()):
        data["K"] = len(basis)
    damage = draw(st.sampled_from(("none", "type", "type", "value", "drop", "text")))
    key = draw(st.sampled_from(INTEGER_FIELDS + ("basis",)))
    if damage == "type":
        data[key] = draw(st.sampled_from(NOT_A_BASIS if key == "basis" else NOT_AN_INTEGER))
    elif damage == "value":
        junk_basis = st.lists(st.sampled_from(("q", "x9", "", "x1*")), min_size=1, max_size=2)
        data[key] = draw(junk_basis if key == "basis" else st.integers(-2, 40))
    elif damage == "drop":
        data.pop(key, None)
    text = json.dumps(data)
    if damage == "text":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text, damage == "type"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def assert_contract(workdir, argv, texts):
    paths = []
    for i, text in enumerate(texts):
        path = workdir / f"input{i}.txt"
        path.write_text(text)
        paths.append(str(path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.format(*paths) for arg in argv])
    assert code in (0, 1, 2, 3), (code, texts)
    if code == 2:
        assert err.getvalue().startswith("error: "), (err.getvalue(), texts)
    return code


@FUZZ
@hypothesis.given(text=damaged(function_lines()), command=st.sampled_from(("zset", "bent", "apc")))
def test_function_file_contract(workdir, text, command):
    assert_contract(workdir, [command, "{0}"], [text])


@FUZZ
@hypothesis.given(texts=graph_files(), d=st.integers(1, 3))
def test_graph_file_contract(workdir, texts, d):
    assert_contract(workdir, ["graph-code", "{0}", "--classes", "{1}", "--d", str(d)], texts)


@FUZZ
@hypothesis.given(text=damaged(matrix_lines()), k=st.integers(0, 2), d=st.integers(1, 3))
def test_matrix_file_contract(workdir, text, k, d):
    argv = ["matrix-check", "{0}", "--k", str(k), "--d", str(d), "--build"]
    assert_contract(workdir, argv, [text])


@FUZZ
@hypothesis.given(text=damaged(system_lines()))
def test_system_file_contract(workdir, text):
    assert_contract(workdir, ["solve-basis", "{0}"], [text])


@FUZZ
@hypothesis.given(case=code_descriptions())
def test_code_file_contract(workdir, case):
    text, wrong_type = case
    code = assert_contract(workdir, ["verify", "{0}"], [text])
    if wrong_type:
        assert code == 2, text
