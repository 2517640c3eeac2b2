"""Readers of every input format: the token helpers (comment and
blank-line filtering, the two-integer header, integer tokens and residue
rows), residue vectors (shift lists and system columns), the matrix,
classes, system, function and graph files, the code description (JSON),
and the ANF syntax. Every malformed token raises InputError. Readers return
plain values (header integers, ANF term lists, residue lists, byte views and
tuples, FpMatrix) and import no numeric library, so bad input is refused
before one is loaded.
"""
from __future__ import annotations

import json
import re

from .errors import InputError
from .fp_algebra import FpMatrix, check_listing, table_size

_DIGITS = re.compile(r"[0-9]+")
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))
_TT_PREFIX = re.compile(r"tt:\s*")  # a table body's keyword and the spaces after it
MAX_NESTING = 100  # open parentheses in an ANF; the parser spends 4 frames on each


def content_lines(text: str) -> list:
    """Stripped lines, without blank lines and lines starting with '#'."""
    lines = (ln.strip() for ln in text.splitlines())
    return [ln for ln in lines if ln and not ln.startswith("#")]


def integer(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise InputError(f"{what} must be an integer, got {token!r}") from None


def read_header(text: str, names: str) -> tuple:
    """(a, b, body) for a file whose first content line holds the two
    integers `names` (such as 'p n'); body is the remaining content lines."""
    lines = content_lines(text)
    if not lines:
        raise InputError(f"file needs a '{names}' line")
    head = lines[0].split()
    if len(head) != 2:
        raise InputError(f"first line must be '{names}', got {lines[0]!r}")
    a, b = (integer(tok, f"header entry {name!r}") for tok, name in zip(head, names.split()))
    return a, b, lines[1:]


def residues(token: str, p: int, count: int | None = None, sep: str = r"[\s,]+", start: int = 0):
    """Residues in [0, p) of token[start:]: a compact digit string when p <= 7
    or when it has exactly `count` digits, as a memoryview of one byte a
    digit, otherwise a list of the integers separated by `sep`. A given
    `count` is enforced. Handed the only reference to its token, it reads a
    compact one in two copies: the token's bytes, then their values."""
    digits = len(token) - start
    if _DIGITS.fullmatch(token, start) and (p <= 7 or digits == count):
        raw = token.encode()
        del token  # freed here if the caller kept no reference
        vals = memoryview(raw.translate(_DIGIT_VALUES))[-digits:]  # b"0" .. b"9" to 0 .. 9
    else:
        vals = [integer(tok, "residue") for tok in re.split(sep, token[start:]) if tok]
    if count is not None and len(vals) != count:
        raise InputError(f"expected {count} residues, got {len(vals)}")
    if vals and (min(vals) < 0 or max(vals) >= p):
        raise InputError(f"residues must lie in [0, {p})")
    return vals


def read_vectors(text: str, p: int, n: int) -> list:
    """Vectors of n residues, one per nonempty ','-separated token: a
    compact digit string or residues separated by '.', ',' or ':'."""
    return [tuple(residues(tok, p, n, sep=r"[.,:]")) for tok in text.split(",") if tok]


# ---------------------------------------------------------------------------
# matrix, classes and system files


def read_matrix_file(text: str) -> FpMatrix:
    """'p r' then r rows of residues (compact digits for p <= 7 or
    separated values); column count is set by the first row."""
    p, r, body = read_header(text, "p r")
    if r < 1:
        raise InputError(f"a matrix needs at least one row, got r = {r}")
    if len(body) != r:
        raise InputError(f"expected {r} matrix rows, got {len(body)}")
    rows = [residues(ln, p) for ln in body]
    if len({len(row) for row in rows}) != 1:
        raise InputError("matrix rows have inconsistent lengths")
    return FpMatrix.from_rows(p, rows)


def read_classes_file(text: str, n: int) -> list:
    """One class per line as a length-n binary string, vertex 1 leftmost."""
    classes = []
    for ln in content_lines(text):
        if not re.fullmatch(r"[01]+", ln) or len(ln) != n:
            raise InputError(f"class line must be {n} binary digits, got {ln!r}")
        classes.append(frozenset(i + 1 for i, ch in enumerate(ln) if ch == "1"))
    if not classes:
        raise InputError("classes file has no classes")
    return classes


def read_system_file(text: str) -> tuple:
    """(p, n, rows) of a system file: 'p n' then rows 'alpha beta t' (two
    residue vectors and a residue), each read as (alpha, beta, t)."""
    p, n, body = read_header(text, "p n")
    if not body:
        raise InputError("system file needs at least one 'alpha beta t' row")
    rows = []
    for ln in body:
        parts = ln.split()
        if len(parts) != 3:
            raise InputError(f"system row must be 'alpha beta t', got {ln!r}")
        alpha, beta = (tuple(residues(tok, p, n, sep=r"[.,:]")) for tok in parts[:2])
        t = integer(parts[2], "t")
        if not 0 <= t < p:
            raise InputError(f"t must lie in [0, p), got {t}")
        rows.append((alpha, beta, t))
    return p, n, rows


# ---------------------------------------------------------------------------
# function files and ANF text


def read_function_file(text: str) -> tuple:
    """(p, n, values, terms), the arguments of `LogicFunction`, of a function
    file: exactly two content lines, 'p n' then either 'anf: <polynomial>'
    (terms from `anf_terms`, values None) or 'tt: <p^n residues in index
    order>' (terms None): a compact digit string, returned as a byte view,
    or whitespace/comma separated values, returned as a list."""
    p, n, body = read_header(text, "p n")
    if not body:
        raise InputError("function file needs a body line after 'p n'")
    if len(body) > 1:
        raise InputError(f"function file has one body line, but {body[1]!r} follows it")
    N = table_size(p, n)
    if body[0].startswith("anf:"):
        return p, n, None, anf_terms(body[0][4:].strip(), p, n)
    if not body[0].startswith("tt:"):
        raise InputError("body line must start with 'anf:' or 'tt:'")
    start = _TT_PREFIX.match(body[0]).end()
    # the line itself, not a slice, and its one reference: a compact table costs two copies
    return p, n, residues(body.pop(), p, N, start=start), None


def anf_terms(text: str, p: int, n: int) -> list:
    """(coeff, monomial) terms of a polynomial in x1..xn (aliases y1..yn),
    zero coefficients dropped; a monomial lists its 0-based variables in
    order, exponents (below p) as repetition, as `LogicFunction.anf` does."""
    table_size(p, n)
    parser = _Parser(text, p, n)
    try:
        poly = parser.expr()
    except RecursionError as exc:  # a caller already deep in the stack
        raise InputError("polynomial nests too deeply") from exc
    if parser.tok[0] != "end":
        raise InputError(f"unexpected token {parser.tok[1]!r} at position {parser.pos}")
    return [(c, mono) for mono, c in poly.items() if c]


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|[xy](?P<var>\d+)|(?P<op>\*\*|[-+*^()])|(?P<end>\Z))?")


class _Parser:
    """Polynomials in x1..xn (y aliases) with +, -, *, ^, parentheses and
    juxtaposition, as dicts from monomials to coefficients mod p. A token is
    (kind, value); only an operator's value is an operator symbol."""

    def __init__(self, text: str, p: int, n: int):
        self.text = text
        self.p = p
        self.n = n
        self.pos = 0
        self.depth = 0  # parentheses open at the current token
        self._advance()

    def _advance(self):
        m = _TOKEN.match(self.text, self.pos)
        self.pos = m.end()
        kind = m.lastgroup
        if kind is None:
            raise InputError(f"syntax error at position {self.pos}: {self.text[self.pos:]!r}")
        val = m[kind]
        if kind == "int":
            val = integer(val, "constant")
        elif kind == "var":
            val = integer(val, "variable index") - 1
            if not 0 <= val < self.n:
                raise InputError(f"variable index {val + 1} out of range 1..{self.n}")
        elif val == "**":
            val = "^"
        self.tok = (kind, val)

    def expr(self) -> dict:
        poly: dict = {}
        while True:
            sign = self.tok[1]
            if sign in ("+", "-"):  # optional before the first term
                self._advance()
            for mono, v in self._term().items():  # summed in place: no copy per '+'
                poly[mono] = (poly.get(mono, 0) + (self.p - v if sign == "-" else v)) % self.p
            if self.tok[1] not in ("+", "-"):
                return poly

    def _term(self) -> dict:
        poly = self._power()
        while self.tok[0] in ("int", "var") or self.tok[1] in ("*", "("):
            if self.tok[1] == "*":  # else a factor by juxtaposition
                self._advance()
            poly = _poly_mul(poly, self._power(), self.p)
        return poly

    def _power(self) -> dict:
        base = self._atom()
        if self.tok[1] != "^":
            return base
        self._advance()
        kind, e = self.tok
        if kind != "int":
            raise InputError(f"exponent must be an integer at position {self.pos}")
        self._advance()
        e = _reduce_exponent(e, self.p)
        out = base if e else {(): 1}  # 0^0 = 1; no caller mutates a term, so base is shared
        for _ in range(e - 1):
            out = _poly_mul(out, base, self.p)
        return out

    def _atom(self) -> dict:
        kind, val = self.tok
        if kind not in ("int", "var") and val != "(":
            raise InputError(f"unexpected token at position {self.pos}")
        self._advance()
        if kind == "int":
            return {(): val % self.p}
        if kind == "var":
            return {(val,): 1}
        if self.depth == MAX_NESTING:
            raise InputError("polynomial nests too deeply")
        self.depth += 1
        poly = self.expr()
        if self.tok[1] != ")":
            raise InputError(f"missing ')' at position {self.pos}")
        self.depth -= 1
        self._advance()
        return poly


def _reduce_exponent(e: int, p: int) -> int:
    """x^p = x pointwise, so exponents e >= 1 reduce to ((e-1) mod (p-1)) + 1."""
    return (e - 1) % (p - 1) + 1 if e else 0


def _poly_mul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            mono = tuple(sorted(ka + kb))
            if len(mono) - len(set(mono)) >= p - 1:  # some variable may repeat p times
                mono = tuple(v for v in sorted(set(mono))
                             for _ in range(_reduce_exponent(mono.count(v), p)))
            out[mono] = (out.get(mono, 0) + va * vb) % p
    return out


def read_code_file(text: str) -> tuple:
    """(p, n, claimed_d, provenance, basis terms) of a code description: a
    JSON object with integers p, n and claimed_d, a list `basis` of ANF
    strings (read by `anf_terms`), and optionally a `provenance` and an
    integer K, which must equal the number of basis strings. A basis over
    the oracle's pair budget is refused before any string is parsed."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("malformed code description: the top level must be a JSON object")
    try:
        p, n, claimed_d, basis = (data[key] for key in ("p", "n", "claimed_d", "basis"))
        provenance = str(data.get("provenance", ""))
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed code description: {exc}") from exc
    for key in ("p", "n", "claimed_d", "K"):  # JSON integers; bool is an int subclass
        value = data.get(key, 0)
        if isinstance(value, bool) or not isinstance(value, int):
            raise InputError(f"malformed code description: {key} = {value!r} is not an integer")
    if not isinstance(basis, list) or not all(isinstance(s, str) for s in basis):
        raise InputError("malformed code description: basis must be a list of strings")
    check_listing(len(basis) ** 2, f"K^2 = {len(basis) ** 2} basis pairs")
    terms = [anf_terms(s, p, n) for s in basis]
    if data.get("K", len(terms)) != len(terms):
        raise InputError(f"stated K = {data['K']} but {len(terms)} basis functions were given")
    if not terms:  # CodeSpec's own checks, made here before numpy loads
        raise InputError("a code needs at least one basis function")
    if claimed_d < 1:
        raise InputError("claimed distance must be >= 1")
    return p, n, claimed_d, provenance, terms


# ---------------------------------------------------------------------------
# graph files


def read_graph_file(text: str) -> tuple:
    """(p, n, adjacency) of a graph file: 'p n' then one 'u v [w]' line per
    edge (1-based vertices, weight default 1). Repeating an edge is an
    error."""
    p, n, body = read_header(text, "p n")
    table_size(p, n)  # bounds the n x n adjacency before it is allocated
    entries = [[0] * n for _ in range(n)]
    seen = set()
    for ln in body:
        parts = ln.split()
        if len(parts) not in (2, 3):
            raise InputError(f"edge line must be 'u v [w]', got {ln!r}")
        u, v, w = (integer(tok, "edge entry") for tok in (parts + ["1"])[:3])
        if not (1 <= u <= n and 1 <= v <= n):
            raise InputError(f"edge {u}-{v} out of range 1..{n}")
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise InputError(f"edge {u}-{v} given twice")
        if not (1 <= w <= p - 1):
            raise InputError(f"edge {u}-{v} weight must lie in 1..{p - 1}, got {w}")
        seen.add(key)
        entries[u - 1][v - 1] = entries[v - 1][u - 1] = w
    return p, n, FpMatrix(p, tuple(tuple(r) for r in entries))
