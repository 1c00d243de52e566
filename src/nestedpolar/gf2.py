"""Dense GF(2) linear algebra: products, rank, null spaces, submatrix selection.

Vectors and matrices are immutable bit containers backed by numpy uint8
arrays.  The elimination kernels pack rows (or columns) into Python
integers, one bit per position, so every row update is a single
word-parallel XOR on machine words.  That is what keeps 1024-column rank
computations affordable inside Monte-Carlo loops.

Index sets are sorted, duplicate-free, 0-based integer sequences
throughout the package.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

__all__ = [
    "BitVector",
    "BitMatrix",
    "IncrementalRank",
    "vec_mat_mul",
    "rank",
    "rank_of_ints",
    "null_space_basis",
    "select_rows",
    "select_columns",
    "pack_rows",
    "pack_columns",
]


def _as_bit_array(values, ndim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=np.uint8)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional bit array, got shape {arr.shape}")
    if arr.size and arr.max() > 1:
        raise ValueError("entries must be 0 or 1")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


class BitVector:
    """Immutable vector over GF(2)."""

    __slots__ = ("_bits",)

    def __init__(self, bits):
        self._bits = _as_bit_array(bits, ndim=1)

    @property
    def bits(self) -> np.ndarray:
        return self._bits

    @property
    def length(self) -> int:
        return self._bits.size

    def __len__(self) -> int:
        return self._bits.size

    def __getitem__(self, i: int) -> int:
        return int(self._bits[i])

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError(f"length mismatch: {self.length} vs {other.length}")
        return BitVector(self._bits ^ other._bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, BitVector) and np.array_equal(self._bits, other._bits)

    def __hash__(self):
        return hash(self._bits.tobytes())

    def __repr__(self) -> str:
        body = "".join(map(str, self._bits[:64]))
        tail = "..." if self.length > 64 else ""
        return f"BitVector({body}{tail}, length={self.length})"


class BitMatrix:
    """Immutable dense matrix over GF(2)."""

    __slots__ = ("_entries",)

    def __init__(self, entries):
        self._entries = _as_bit_array(entries, ndim=2)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(np.eye(n, dtype=np.uint8))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(np.zeros((rows, cols), dtype=np.uint8))

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

    def transpose(self) -> "BitMatrix":
        return BitMatrix(self._entries.T)

    def row(self, i: int) -> BitVector:
        return BitVector(self._entries[i])

    def __eq__(self, other) -> bool:
        return isinstance(other, BitMatrix) and np.array_equal(self._entries, other._entries)

    def __hash__(self):
        return hash((self.shape, self._entries.tobytes()))

    def __repr__(self) -> str:
        return f"BitMatrix(rows={self.rows}, cols={self.cols})"


# ---------------------------------------------------------------------------
# bit packing


def _pack_2d(arr: np.ndarray) -> list[int]:
    """Pack each row of a uint8 0/1 array into an int (bit j = column j)."""
    if arr.shape[0] == 0:
        return []
    if arr.shape[1] == 0:
        return [0] * arr.shape[0]
    packed = np.packbits(arr, axis=1, bitorder="little")
    return [int.from_bytes(r.tobytes(), "little") for r in packed]


def _unpack_int(x: int, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    raw = x.to_bytes((n + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=n, bitorder="little")


def pack_rows(m: BitMatrix) -> list[int]:
    """Rows of ``m`` as integers, bit j of each integer being column j."""
    return _pack_2d(m.entries)


def pack_columns(m: BitMatrix) -> list[int]:
    """Columns of ``m`` as integers, bit i of each integer being row i."""
    return _pack_2d(np.ascontiguousarray(m.entries.T))


# ---------------------------------------------------------------------------
# elimination


class IncrementalRank:
    """Online GF(2) rank of a growing family of packed vectors.

    Pivots are chosen as the first nonzero position in column order, so
    the reduction is deterministic.  Feeding the same vectors in any
    order yields the same final rank.
    """

    __slots__ = ("_pivots", "rank")

    def __init__(self):
        self._pivots: dict[int, int] = {}
        self.rank = 0

    def add(self, v: int) -> bool:
        """Reduce ``v`` against the basis; return True if it was independent."""
        pivots = self._pivots
        while v:
            low = (v & -v).bit_length() - 1
            p = pivots.get(low)
            if p is None:
                pivots[low] = v
                self.rank += 1
                return True
            v ^= p
        return False


def rank_of_ints(vectors: Iterable[int]) -> int:
    """GF(2) rank of a family of packed vectors."""
    acc = IncrementalRank()
    for v in vectors:
        acc.add(v)
    return acc.rank


def rank(m: BitMatrix) -> int:
    """Rank of ``m`` over GF(2) via Gaussian elimination on packed rows."""
    return rank_of_ints(pack_rows(m))


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
    pivots = _rref_pivot_rows(pack_rows(m))
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
# products and selection


def vec_mat_mul(v: BitVector, m: BitMatrix) -> BitVector:
    """Vector-matrix product over GF(2): result[j] = XOR_i v[i]*m[i,j]."""
    if v.length != m.rows:
        raise ValueError(f"dimension mismatch: vector length {v.length}, matrix rows {m.rows}")
    sel = np.nonzero(v.bits)[0]
    acc = 0
    for r in _pack_2d(m.entries[sel]):
        acc ^= r
    return BitVector(_unpack_int(acc, m.cols))


def _check_index_set(idx, limit: int, name: str = "index set") -> np.ndarray:
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


def select_rows(m: BitMatrix, idx) -> BitMatrix:
    """Submatrix of the rows listed in ``idx`` (strictly increasing)."""
    arr = _check_index_set(idx, m.rows)
    return BitMatrix(m.entries[arr])


def select_columns(m: BitMatrix, idx) -> BitMatrix:
    """Submatrix of the columns listed in ``idx`` (strictly increasing)."""
    arr = _check_index_set(idx, m.cols)
    return BitMatrix(m.entries[:, arr])
