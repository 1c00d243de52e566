"""Polar transform core: bit reversal, generator matrix, fast encoding.

The generator is G = R F^(x)n where R is the bit-reversal permutation and
F = [[1,0],[1,1]].  Encoding (``transform_rows``, one u word per row of a
batch) never materialises G: it permutes the input by R and runs the
O(N log N) butterfly.  The explicit matrix is kept for tests and for
parity-check extraction.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf2 import BitMatrix, _check_dtype, _check_index_set, _check_integer, _check_shapes

__all__ = [
    "MAX_LOG2_BLOCK",
    "CodeParams",
    "PolarCodeSpec",
    "bit_reversal_permutation",
    "generator_matrix",
    "transform_rows",
    "butterfly_rows",
]

# Desk-scale guard: block lengths beyond 2^20 are out of scope.
MAX_LOG2_BLOCK = 20

F = np.array([[1, 0], [1, 1]], dtype=np.uint8)


@dataclass(frozen=True)
class CodeParams:
    """Block structure of a polar code: N = 2^n."""

    n: int

    def __post_init__(self):
        _check_integer(self.n, "n")
        if not 0 <= self.n <= MAX_LOG2_BLOCK:
            raise ValueError(f"n must be in [0, {MAX_LOG2_BLOCK}], got {self.n}")

    @property
    def N(self) -> int:
        return 1 << self.n


# typed: True equals a numpy 1 and must not hit its cached entry
@lru_cache(maxsize=None, typed=True)
def bit_reversal_permutation(n: int) -> np.ndarray:
    """Permutation sending i to the integer with i's n-bit string reversed.

    An involution: applying it twice is the identity.
    """
    CodeParams(n)
    idx = np.arange(1 << n, dtype=np.int64)
    rev = np.zeros(1 << n, dtype=np.int64)
    for _ in range(n):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    rev.setflags(write=False)
    return rev


def generator_matrix(n: int) -> BitMatrix:
    """G = R F^(x)n: the n-th Kronecker power of F with bit-reversed rows."""
    rev = bit_reversal_permutation(n)  # checks n before the 4^n-cell product
    m = np.array([[1]], dtype=np.uint8)
    for _ in range(n):
        m = np.kron(F, m)
    return BitMatrix(m[rev])


def butterfly_rows(x: np.ndarray) -> np.ndarray:
    """Multiply each row of a (batch, L) array by F^(x)m in place; returns x.

    L = 2^m.  F^(x)m is an involution, so a second call undoes the first.
    Any memory layout works, since splitting the row axis is always a view;
    column-major (batch-contiguous) arrays run fastest.
    """
    nbatch, L = x.shape
    h = 1
    while h < L:
        v = x.reshape(nbatch, L // (2 * h), 2 * h)
        v[:, :, :h] ^= v[:, :, h:]
        h *= 2
    return x


def transform_rows(rows: np.ndarray) -> np.ndarray:
    """Apply the polar transform to each row of a (batch, N) integer or bool
    array of 0/1 bits."""
    rows = _check_dtype("rows", rows)
    _, N = _check_shapes("rows", rows)
    return butterfly_rows(rows[:, bit_reversal_permutation(N.bit_length() - 1)])


class PolarCodeSpec:
    """A polar code: block structure and information set A.

    ``PolarCodeSpec(params, info_set)``: ``info_set`` is strictly
    increasing inside [0, N), and every bit outside it is frozen to zero.
    On the symmetric channels modelled here the SC error probability does
    not depend on the frozen values (Arikan 2009).  The decoder still takes
    frozen values as an array, because coset decoding fixes some frozen
    bits to message bits from another stage.
    """

    __slots__ = ("params", "info_set", "info_mask")

    def __init__(self, params: CodeParams, info_set):
        info = _check_index_set(info_set, params.N, "info_set")
        mask = np.zeros(params.N, dtype=bool)
        mask[info] = True
        info.setflags(write=False)
        mask.setflags(write=False)
        self.params = params
        self.info_set = info
        self.info_mask = mask

    @property
    def N(self) -> int:
        return self.params.N

    @property
    def info_len(self) -> int:
        return self.info_set.size

    def __repr__(self) -> str:
        return f"PolarCodeSpec(N={self.N}, |A|={self.info_len})"
