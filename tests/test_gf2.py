import numpy as np
import pytest

from nestedpolar.gf2 import (
    BitMatrix,
    BitVector,
    IncrementalRank,
    null_space_basis,
    pack_columns,
    pack_rows,
    rank,
    select_columns,
    select_rows,
    vec_mat_mul,
)

from oracles import F, kron_power, naive_rank, naive_vec_mat_mul


def test_bitvector_validation():
    v = BitVector([1, 0, 1])
    assert v.length == 3 and v[2] == 1
    with pytest.raises(ValueError):
        BitVector([0, 2, 1])
    with pytest.raises(ValueError):
        BitVector([[1, 0]])
    assert not v.bits.flags.writeable


def test_bitmatrix_validation():
    m = BitMatrix([[1, 0], [0, 1]])
    assert m.shape == (2, 2)
    with pytest.raises(ValueError):
        BitMatrix([[3]])
    assert BitMatrix.identity(3) == BitMatrix(np.eye(3, dtype=np.uint8))


def test_vec_mat_mul_identity():
    assert vec_mat_mul(BitVector([1, 0]), BitMatrix.identity(2)) == BitVector([1, 0])


def test_vec_mat_mul_f_matrix():
    # (1,1) F = first row xor second row = (0,1)
    assert vec_mat_mul(BitVector([1, 1]), BitMatrix(F)) == BitVector([0, 1])


def test_vec_mat_mul_against_naive_product():
    g = kron_power(2)
    v = np.array([1, 0, 1, 1], dtype=np.uint8)
    got = vec_mat_mul(BitVector(v), BitMatrix(g))
    assert np.array_equal(got.bits, naive_vec_mat_mul(v, g))


def test_vec_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        vec_mat_mul(BitVector([1, 0, 1]), BitMatrix.identity(2))


def test_vec_mat_mul_xor_distributes():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = BitMatrix(rng.integers(0, 2, (6, 9), dtype=np.uint8))
        u = BitVector(rng.integers(0, 2, 6, dtype=np.uint8))
        v = BitVector(rng.integers(0, 2, 6, dtype=np.uint8))
        assert vec_mat_mul(u ^ v, m) == vec_mat_mul(u, m) ^ vec_mat_mul(v, m)


def test_rank_trivial():
    assert rank(BitMatrix.identity(4)) == 4
    assert rank(BitMatrix.zeros(3, 5)) == 0


def test_rank_against_independent_elimination():
    rng = np.random.default_rng(123)
    for _ in range(100):
        m = rng.integers(0, 2, (8, 8), dtype=np.uint8)
        assert rank(BitMatrix(m)) == naive_rank(m)


def test_rank_equals_transpose_rank():
    rng = np.random.default_rng(5)
    for _ in range(50):
        shape = tuple(rng.integers(1, 12, 2))
        m = BitMatrix(rng.integers(0, 2, shape, dtype=np.uint8))
        assert rank(m) == rank(m.transpose())


def test_null_space_trivial():
    basis = null_space_basis(BitMatrix.identity(3))
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
    h = null_space_basis(BitMatrix.zeros(0, 5))
    assert h.rows == 5 and rank(h) == 5


def test_rank_nullity():
    rng = np.random.default_rng(11)
    for _ in range(30):
        m = BitMatrix(rng.integers(0, 2, (7, 11), dtype=np.uint8))
        assert rank(null_space_basis(m)) + rank(m) == m.cols


def test_select_trivial():
    eye = BitMatrix.identity(3)
    got = select_columns(eye, [0, 2])
    assert np.array_equal(got.entries, np.array([[1, 0], [0, 0], [0, 1]]))
    assert select_rows(BitMatrix(F), [1]) == BitMatrix([[1, 1]])


def test_select_against_naive_copy():
    rng = np.random.default_rng(3)
    m = rng.integers(0, 2, (8, 8), dtype=np.uint8)
    rows = [1, 4, 6]
    cols = [0, 2, 3, 7]
    assert np.array_equal(select_rows(BitMatrix(m), rows).entries,
                          np.array([[m[i, j] for j in range(8)] for i in rows]))
    assert np.array_equal(select_columns(BitMatrix(m), cols).entries,
                          np.array([[m[i, j] for j in cols] for i in range(8)]))


def test_select_errors():
    m = BitMatrix.identity(4)
    with pytest.raises(ValueError):
        select_rows(m, [0, 4])
    with pytest.raises(ValueError):
        select_columns(m, [2, 1])
    with pytest.raises(ValueError):
        select_columns(m, [1, 1])
    # non-integer indices are rejected, not truncated or read as 0/1
    for idx in ([0.7, 2.9], [0.0, 1.0], [False, True]):
        with pytest.raises(ValueError, match="^index set must hold integer"):
            select_columns(m, idx)


def test_select_empty_index_set():
    m = BitMatrix.identity(4)
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
        acc = IncrementalRank()
        for v in pack_rows(BitMatrix(m)):
            acc.add(v)
        assert acc.rank == naive_rank(m)
