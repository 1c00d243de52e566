"""Dense GF(2) linear algebra: bit matrices, packing and online rank.

Matrices are immutable bit containers backed by numpy uint8 arrays, and
words are rows of plain uint8 arrays throughout the package.  The
elimination kernels pack columns (or rows) into Python integers, one bit
per position, so every row update is a single word-parallel XOR on
machine words.  That is what keeps 1024-column rank computations
affordable inside Monte-Carlo loops.  Rank elimination
(``IncrementalRank``) knows the bit width of its vectors, pivots on each
vector's highest set bit through a table indexed by bit length, so each
XOR step is one lookup, and stops reducing once the rank equals the
width, since every later vector is then dependent.

Index sets are sorted, duplicate-free, 0-based integer sequences
throughout the package.

The module also holds the package's only copy of each shared argument
check and of the row packer ``_pack``.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "BitMatrix",
    "IncrementalRank",
    "null_space_basis",
    "pack_columns",
]


class BitMatrix:
    """Immutable dense matrix over GF(2)."""

    __slots__ = ("_entries",)

    def __init__(self, entries):
        _check_values("entries", entries, 0, "0 or 1")
        arr = np.array(entries, dtype=np.uint8, order="C")  # always a copy
        if arr.ndim != 2:
            raise ValueError(f"entries must be 2-dimensional, got shape {arr.shape}")
        arr.setflags(write=False)
        self._entries = arr

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def rows(self) -> int:
        return self._entries.shape[0]

    @property
    def cols(self) -> int:
        return self._entries.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._entries.shape

    def __eq__(self, other) -> bool:
        return isinstance(other, BitMatrix) and np.array_equal(self._entries, other._entries)

    def __repr__(self) -> str:
        return f"BitMatrix(rows={self.rows}, cols={self.cols})"


# ---------------------------------------------------------------------------
# bit packing


def _pack(bits: np.ndarray) -> np.ndarray:
    """(L, W) little-endian uint64 words of an (L, M) array: bit r of word
    [j, w] is set iff bits[j, 64 w + r] is nonzero; padding bits are 0."""
    L, M = bits.shape
    words = np.zeros((L, 8 * -(-M // 64)), dtype=np.uint8)
    # packbits is several times faster on rows that are contiguous
    words[:, : -(-M // 8)] = np.packbits(np.ascontiguousarray(bits), axis=1, bitorder="little")
    return words.view("<u8")


def _pack_2d(arr: np.ndarray) -> list[int]:
    """Pack each row of a 0/1 array into an int (bit j = column j)."""
    return [int.from_bytes(r.tobytes(), "little") for r in _pack(arr)]


def _unpack_int(x: int, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    raw = x.to_bytes((n + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=n, bitorder="little")


def pack_columns(m: BitMatrix) -> list[int]:
    """Columns of ``m`` as integers, bit i of each integer being row i."""
    return _pack_2d(m.entries.T)


# ---------------------------------------------------------------------------
# elimination


class IncrementalRank:
    """Online GF(2) rank of a growing family of packed vectors.

    ``width`` is the bit width of the vectors: each one must be smaller
    than ``2**width``.  Each vector is reduced on its highest set bit,
    against a pivot table of ``width + 1`` slots indexed by bit length
    (``v.bit_length()``, which builds no temporaries), so the reduction is
    deterministic.  Slot 0 stays 0, so one lookup per step both finds the
    pivot and stops the loop at an empty slot or a zero remainder.
    Feeding the same vectors in any order yields the same final rank.  Once
    ``rank == width`` every further vector is dependent, and ``add``
    returns False without reducing it.
    """

    __slots__ = ("_pivots", "_width", "rank")

    def __init__(self, width: int):
        _check_integer(width, "width", 0)
        self._pivots = [0] * (width + 1)
        self._width = width
        self.rank = 0

    def add(self, v: int) -> bool:
        """Reduce ``v`` against the basis; return True if it was independent."""
        if self.rank == self._width:
            return False
        pivots = self._pivots
        while p := pivots[v.bit_length()]:
            v ^= p
        if not v:
            return False
        pivots[v.bit_length()] = v
        self.rank += 1
        return True


def _rref_pivot_rows(row_ints: Sequence[int]) -> dict[int, int]:
    """Reduced row echelon form; returns {pivot column: fully reduced row}."""
    pivots: dict[int, int] = {}
    for v in row_ints:
        while v:
            low = (v & -v).bit_length() - 1
            p = pivots.get(low)
            if p is None:
                pivots[low] = v
                break
            v ^= p
    # Backward pass: clear each pivot column from every other pivot row.
    # Descending order guarantees rows are final above the current column.
    for c in sorted(pivots, reverse=True):
        vc = pivots[c]
        for c2 in pivots:
            if c2 != c and (pivots[c2] >> c) & 1:
                pivots[c2] ^= vc
    return pivots


def null_space_basis(m: BitMatrix) -> BitMatrix:
    """Basis H of the right null space of ``m``, one basis vector per row.

    Satisfies m @ H.T == 0 and rank(H) == m.cols - rank(m).  The basis is
    the canonical one read off the reduced row echelon form (one row per
    free column, in column order); consumers that only take ranks are
    basis-independent.
    """
    ncols = m.cols
    pivots = _rref_pivot_rows(_pack_2d(m.entries))
    pivot_cols = set(pivots)
    basis: list[int] = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        h = 1 << f
        for p, v in pivots.items():
            if (v >> f) & 1:
                h |= 1 << p
        basis.append(h)
    out = np.zeros((len(basis), ncols), dtype=np.uint8)
    for i, h in enumerate(basis):
        out[i] = _unpack_int(h, ncols)
    return BitMatrix(out)


# ---------------------------------------------------------------------------
# argument checks


def _check_integer(value, name: str, low: int | None = None) -> None:
    """Reject a size, count or seed that is not an integer (bool is not
    one; numpy integers are), or is below ``low`` if given; the ValueError
    starts with ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


def _check_real(value, name: str) -> None:
    """Reject a probability or LLR magnitude that is not a real number
    (bool is not one; numpy integers and floats are); the ValueError starts
    with ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _check_probability(value, name: str, high: float = 1.0) -> None:
    """Reject a probability that is not a real number in [0, high]; the
    ValueError starts with ``name``."""
    _check_real(value, name)
    if not 0.0 <= value <= high:
        raise ValueError(f"{name} must be in [0, {high:g}], got {value}")


def _check_seed(value, name: str = "seed") -> None:
    """Reject a PRNG seed that is not an integer in [0, 2**64); the
    ValueError starts with ``name``."""
    _check_integer(value, name, 0)
    if value >= 2**64:
        raise ValueError(f"{name} must be below 2**64, got {value}")


def _check_index_set(idx, limit: int, name: str) -> np.ndarray:
    """A fresh int64 copy of ``idx``, checked to hold integers (bool is not
    one; an empty input of any dtype is the empty set), to be 1-D, strictly
    increasing and inside [0, limit); errors start with ``name``."""
    arr = np.asarray(idx)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integer indices, got dtype {arr.dtype}")
    arr = np.array(arr, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size:
        if np.any(np.diff(arr) <= 0):
            raise ValueError(f"{name} must be strictly increasing")
        if arr[0] < 0 or arr[-1] >= limit:
            raise ValueError(f"{name} indices must lie in [0, {limit})")
    return arr


def _check_shapes(name: str, words, **per_position) -> tuple[int, int]:
    """(batch, N) of the batch ``words``, checked in O(1): it is 2-D with N a
    power of two, info_mask is (N,), and any other per-position argument is
    (N,) or (batch, N).  The ValueError names the argument at fault."""
    shape = np.shape(words)
    if len(shape) != 2 or not shape[1] or shape[1] & (shape[1] - 1):
        raise ValueError(f"{name} must have shape (batch, N) with N a power of two, got {shape}")
    nbatch, N = shape
    for arg, value in per_position.items():
        allowed = [(N,)] if arg == "info_mask" else [(N,), (nbatch, N)]
        if np.shape(value) not in allowed:
            raise ValueError(f"{arg} must have shape {' or '.join(map(str, allowed))}, got {np.shape(value)}")
    return nbatch, N


def _check_dtype(name: str, values, what: str = "an integer or bool array") -> np.ndarray:
    """``values`` as an array (an ndarray is not copied), checked in O(1) to
    have an integer or bool dtype; the ValueError says ``name`` must be
    ``what``."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biu":
        raise ValueError(f"{name} must be {what}, got dtype {arr.dtype}")
    return arr


def _check_values(name: str, values, low: int, allowed: str) -> np.ndarray:
    """``values`` as an array (``_check_dtype``), its entries checked to be
    integers in low..1 (erasure symbols are -1, 0 and 1, bits 0 and 1) by
    one min/max scan, with no temporary of the array's size."""
    arr = _check_dtype(name, values, f"{allowed} of an integer dtype")
    if arr.size and (arr.min() < low or arr.max() > 1):
        raise ValueError(f"{name} must be {allowed}, got values in [{arr.min()}, {arr.max()}]")
    return arr
