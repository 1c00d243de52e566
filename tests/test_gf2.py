from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from nestedpolar.gf2 import (
    BitMatrix,
    IncrementalRank,
    null_space_basis,
    pack_columns,
    pack_rows,
    rank,
    rank_of_ints,
    select_columns,
)

from oracles import F, naive_rank


def test_bitmatrix_validation():
    m = BitMatrix([[1, 0], [0, 1]])
    assert m.shape == (2, 2)
    with pytest.raises(ValueError):
        BitMatrix([[3]])
    assert BitMatrix(np.eye(3, dtype=np.uint8)) == BitMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_bitmatrix_rejects_vectors_and_copies_read_only():
    with pytest.raises(ValueError):
        BitMatrix([1, 0])
    with pytest.raises(ValueError):
        BitMatrix([[0, 2, 1]])
    # entries are a read-only, row-major copy of the input, whatever its layout
    src = np.array([[1, 1], [0, 1]], dtype=np.uint8)
    for arr in (src, src.T):
        m = BitMatrix(arr)
        assert not m.entries.flags.writeable and m.entries.flags.c_contiguous
        assert np.array_equal(m.entries, arr)
    src[0, 0] = 0
    assert m.entries[0, 0] == 1


def test_rank_trivial():
    assert rank(BitMatrix(np.eye(4, dtype=np.uint8))) == 4
    assert rank(BitMatrix(np.zeros((3, 5), dtype=np.uint8))) == 0


def test_rank_against_independent_elimination():
    rng = np.random.default_rng(123)
    for _ in range(100):
        m = rng.integers(0, 2, (8, 8), dtype=np.uint8)
        assert rank(BitMatrix(m)) == naive_rank(m)


def test_rank_equals_transpose_rank():
    rng = np.random.default_rng(5)
    for _ in range(50):
        shape = tuple(rng.integers(1, 12, 2))
        m = rng.integers(0, 2, shape, dtype=np.uint8)
        assert rank(BitMatrix(m)) == rank(BitMatrix(m.T))


def test_null_space_trivial():
    basis = null_space_basis(BitMatrix(np.eye(3, dtype=np.uint8)))
    assert basis.shape == (0, 3)
    basis = null_space_basis(BitMatrix([[1, 1]]))
    assert basis == BitMatrix([[1, 1]])


def test_null_space_postconditions():
    rng = np.random.default_rng(9)
    for _ in range(40):
        shape = tuple(rng.integers(1, 14, 2))
        arr = rng.integers(0, 2, shape, dtype=np.uint8)
        m = BitMatrix(arr)
        h = null_space_basis(m)
        assert h.shape[0] == m.cols - rank(m)
        assert rank(h) == h.rows
        if h.rows:
            prod = (arr.astype(np.int64) @ h.entries.T.astype(np.int64)) % 2
            assert not prod.any()


def test_null_space_zero_rows_gives_identity_rank():
    h = null_space_basis(BitMatrix(np.zeros((0, 5), dtype=np.uint8)))
    assert h.rows == 5 and rank(h) == 5


def test_rank_nullity():
    rng = np.random.default_rng(11)
    for _ in range(30):
        m = BitMatrix(rng.integers(0, 2, (7, 11), dtype=np.uint8))
        assert rank(null_space_basis(m)) + rank(m) == m.cols


def test_select_trivial():
    eye = BitMatrix(np.eye(3, dtype=np.uint8))
    got = select_columns(eye, [0, 2])
    assert np.array_equal(got.entries, np.array([[1, 0], [0, 0], [0, 1]]))
    assert select_columns(BitMatrix(F), [1]) == BitMatrix([[0], [1]])


def test_select_against_naive_copy():
    rng = np.random.default_rng(3)
    m = rng.integers(0, 2, (8, 8), dtype=np.uint8)
    cols = [0, 2, 3, 7]
    assert np.array_equal(select_columns(BitMatrix(m), cols).entries,
                          np.array([[m[i, j] for j in cols] for i in range(8)]))


def test_select_errors():
    m = BitMatrix(np.eye(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        select_columns(m, [0, 4])
    with pytest.raises(ValueError):
        select_columns(m, [2, 1])
    with pytest.raises(ValueError):
        select_columns(m, [1, 1])
    # non-integer indices are rejected, not truncated or read as 0/1
    for idx in ([0.7, 2.9], [0.0, 1.0], [False, True]):
        with pytest.raises(ValueError, match="^index set must hold integer"):
            select_columns(m, idx)


def test_select_empty_index_set():
    m = BitMatrix(np.eye(4, dtype=np.uint8))
    assert select_columns(m, []).shape == (4, 0)
    assert rank(select_columns(m, [])) == 0


def test_packing_round_trip():
    rng = np.random.default_rng(17)
    m = BitMatrix(rng.integers(0, 2, (5, 70), dtype=np.uint8))
    rows = pack_rows(m)
    for i, r in enumerate(rows):
        bits = [(r >> j) & 1 for j in range(m.cols)]
        assert np.array_equal(bits, m.entries[i])
    cols = pack_columns(m)
    for j, c in enumerate(cols):
        bits = [(c >> i) & 1 for i in range(m.rows)]
        assert np.array_equal(bits, m.entries[:, j])


def test_incremental_rank_matches_batch():
    rng = np.random.default_rng(29)
    for _ in range(20):
        m = rng.integers(0, 2, (10, 10), dtype=np.uint8)
        acc = IncrementalRank(10)
        for v in pack_rows(BitMatrix(m)):
            acc.add(v)
        assert acc.rank == naive_rank(m)


@st.composite
def vector_families(draw):
    """A width w in [0, 70] and more than w vectors below 2**w, so most
    families reach full rank and then go on adding."""
    w = draw(st.integers(0, 70))
    count = draw(st.integers(w + 1, w + 12))
    # Mix unit vectors in, so full rank is reached early as well as late.
    vec = st.integers(0, (1 << w) - 1)
    if w:
        vec = st.one_of(vec, st.integers(0, w - 1).map(lambda i: 1 << i))
    return w, draw(st.lists(vec, min_size=count, max_size=count))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(vector_families())
def test_incremental_rank_tracks_naive_rank_on_every_prefix(family):
    w, vectors = family
    rows = np.array([[(v >> j) & 1 for j in range(w)] for v in vectors], dtype=np.uint8)
    acc = IncrementalRank(w)
    before = 0
    for k, v in enumerate(vectors, 1):
        expected = naive_rank(rows[:k])
        assert acc.add(v) == (expected > before)
        assert acc.rank == expected
        before = expected


class _Probe(int):
    """An int that records whether the reduction looked at its bits."""

    reads = 0

    def bit_length(self):
        _Probe.reads += 1
        return int.bit_length(self)


def test_incremental_rank_skips_reduction_at_full_rank():
    acc = IncrementalRank(3)
    for v in (0b011, 0b110, 0b111):
        assert acc.add(v)
    _Probe.reads = 0
    assert not acc.add(_Probe(0b101))
    assert _Probe.reads == 0 and acc.rank == 3
    # Below full rank the same vector is reduced.
    acc = IncrementalRank(3)
    acc.add(0b011)
    assert not acc.add(_Probe(0b011))
    assert _Probe.reads > 0


def test_incremental_rank_width():
    assert rank_of_ints([0, 0], 0) == 0
    assert rank_of_ints([0b10, 0b01, 0b11], 2) == 2
    with pytest.raises(ValueError, match="width"):
        IncrementalRank(-1)
