"""Portable description of a constructed code: the basis functions, the
claimed parameters ((n, K, d)), and where the construction came from.

A CodeSpec is a *claim*. `check_claim` turns it into a verdict by running
the exact oracle check on the basis functions at every error weight below
the claimed distance; builders surface the report instead of silently
trusting their own bookkeeping.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InputError
from .logic_fn import LogicFunction, anf_text, parse_anf
from .state_oracle import VerifyReport, kl_verify_functions, state_from_function


@dataclass(frozen=True)
class CodeSpec:
    p: int
    n: int
    basis: tuple  # LogicFunction, pairwise distinct truth tables
    claimed_d: int
    provenance: str

    def __post_init__(self):
        basis = tuple(self.basis)
        if not basis:
            raise InputError("a code needs at least one basis function")
        for f in basis:
            if not isinstance(f, LogicFunction) or (f.p, f.n) != (self.p, self.n):
                raise InputError("basis functions must share the code's (p, n)")
        tables = {f.table.tobytes() for f in basis}
        if len(tables) != len(basis):
            raise InputError("basis functions must have pairwise distinct tables")
        if self.claimed_d < 1:
            raise InputError("claimed distance must be >= 1")
        object.__setattr__(self, "basis", basis)

    @property
    def claimed_K(self) -> int:
        return len(self.basis)

    def states(self):
        return [state_from_function(f) for f in self.basis]

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "K": self.claimed_K,
            "claimed_d": self.claimed_d,
            "provenance": self.provenance,
            "basis": [anf_text(f) for f in self.basis],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "CodeSpec":
        try:
            p, n, claimed_d, basis_text = (data[key] for key in ("p", "n", "claimed_d", "basis"))
            provenance = str(data.get("provenance", ""))
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed code description: {exc}") from exc
        for key in ("p", "n", "claimed_d", "K"):  # JSON integers; bool is an int subclass
            value = data.get(key, 0)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InputError(f"malformed code description: {key} = {value!r} is not an integer")
        if not isinstance(basis_text, list) or not all(isinstance(s, str) for s in basis_text):
            raise InputError("malformed code description: basis must be a list of strings")
        basis = tuple(parse_anf(s, p, n) for s in basis_text)
        spec = cls(p, n, basis, claimed_d, provenance)
        if "K" in data and data["K"] != spec.claimed_K:
            raise InputError(
                f"stated K = {data['K']} but {spec.claimed_K} basis functions were given"
            )
        return spec

    @classmethod
    def from_json(cls, text: str) -> "CodeSpec":
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise InputError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)


def check_claim(spec: CodeSpec) -> VerifyReport:
    """Exact check of the distance claim: every error of weight below
    claimed_d must leave the scalar-Gram condition intact."""
    return kl_verify_functions(spec.basis, spec.claimed_d - 1)
