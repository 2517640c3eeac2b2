"""Reader shared by the plain-text input files (function, graph, matrix,
classes and system files): comment and blank-line filtering, the
two-integer header, integer tokens and residue rows. Every malformed token
raises InputError.
"""
from __future__ import annotations

import re

from .errors import InputError

_DIGITS = re.compile(r"[0-9]+")


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


def residues(token: str, p: int, count: int | None = None, sep: str = r"[\s,]+") -> list:
    """Residues in [0, p): a compact digit string when p <= 7 or when it has
    exactly `count` digits, otherwise integers separated by `sep`. A given
    `count` is enforced."""
    if _DIGITS.fullmatch(token) and (p <= 7 or len(token) == count):
        vals = [int(ch) for ch in token]
    else:
        vals = [integer(tok, "residue") for tok in re.split(sep, token) if tok]
    if count is not None and len(vals) != count:
        raise InputError(f"expected {count} residues, got {len(vals)}")
    if any(not 0 <= v < p for v in vals):
        raise InputError(f"residues must lie in [0, {p})")
    return vals
