"""Shared helpers: seeded random objects and independent float-arithmetic
reference implementations used to cross-check the exact integer routines."""
from __future__ import annotations

import cmath

import numpy as np
import pytest

from lfqec import CycloInt, LogicFunction


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_function(gen: np.random.Generator, p: int, n: int) -> LogicFunction:
    return LogicFunction(p, n, gen.integers(0, p, p**n).astype(np.int64))


def direct_spectrum(f: LogicFunction) -> np.ndarray:
    """sum_x (-1)^(f(x) + f(x + a)) summed shift by shift, the O(4^n)
    reference for the transform route. At p = 2 the index of x + a is
    index(x) XOR index(a)."""
    t = f.table
    x = np.arange(len(t))
    return np.array([np.sum(1 - 2 * ((t + t[x ^ a]) % 2)) for a in x], dtype=np.int64)


def direct_zset(f: LogicFunction) -> set:
    """Shifts a with sum_x f(x) f(x + a) = 0 over the integers, summed shift
    by shift; a is spelled with x1 as its most significant bit."""
    t = f.table
    x = np.arange(len(t))
    return {
        tuple(int(bit) for bit in format(a, f"0{f.n}b")) for a in x if np.sum(t * t[x ^ a]) == 0
    }


def random_cyclo(gen: np.random.Generator, p: int, lo=-9, hi=10) -> CycloInt:
    return CycloInt(p, tuple(int(v) for v in gen.integers(lo, hi, p)))


def as_complex(z: CycloInt) -> complex:
    zeta = cmath.exp(2j * cmath.pi / z.p)
    return sum(c * zeta**j for j, c in enumerate(z.coeffs))


def close(a: complex, b: complex, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@pytest.fixture
def gen():
    return rng(20260817)
