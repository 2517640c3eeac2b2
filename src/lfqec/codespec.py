"""Portable description of a constructed code: the basis functions, the
claimed parameters ((n, K, d)), and where the construction came from.

A CodeSpec is a *claim*. `check_claim` turns it into a verdict by running
the exact oracle check (imported by the call, as in `states`) on the basis
functions at every error weight below the claimed distance; builders
surface the report instead of silently trusting their own bookkeeping.
"""
from __future__ import annotations

from .errors import InputError
from .fp_algebra import _Slotted
from .logic_fn import LogicFunction, anf_text


class CodeSpec(_Slotted):
    __slots__ = ("p", "n", "basis", "claimed_d", "provenance")  # basis: distinct LogicFunctions

    def __init__(self, p: int, n: int, basis, claimed_d: int, provenance: str):
        basis = tuple(basis)
        if not basis:
            raise InputError("a code needs at least one basis function")
        if claimed_d < 1:
            raise InputError("claimed distance must be >= 1")
        for f in basis:
            if not isinstance(f, LogicFunction) or (f.p, f.n) != (p, n):
                raise InputError("basis functions must share the code's (p, n)")
        # reduced ANFs are unique; tables go by a hash of their bytes, compared on a tie
        anfs = all(f.anf is not None for f in basis)
        keys = [f.anf if anfs else hash(f.table.tobytes()) for f in basis]
        if len(set(keys)) < len(basis) and (anfs or any(
                basis[i].table.tobytes() == basis[j].table.tobytes()
                for i in range(len(basis)) for j in range(i) if keys[i] == keys[j])):
            raise InputError("basis functions must have pairwise distinct tables")
        self.p, self.n, self.basis, self.claimed_d, self.provenance = (
            p, n, basis, claimed_d, provenance)

    @property
    def claimed_K(self) -> int:
        return len(self.basis)

    def states(self):
        from .state_oracle import state_from_function

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


def check_claim(spec: CodeSpec):
    """The oracle's VerifyReport on the distance claim: every error of
    weight below claimed_d, so of weight 1..min(claimed_d - 1, n), must leave
    the scalar-Gram condition intact; every code fails by weight n. The caps
    are those of the oracle route the basis takes (see state_oracle)."""
    from .state_oracle import kl_verify

    return kl_verify(spec.basis, min(spec.claimed_d - 1, spec.n))
