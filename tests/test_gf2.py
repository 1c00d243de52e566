from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from nestedpolar.channels import bec_sample_rows, bsc_sample_rows
from nestedpolar.gf2 import BitMatrix, IncrementalRank, null_space_basis, pack_columns
from nestedpolar.polar import bit_reversal_permutation, generator_matrix, transform_rows
from nestedpolar.wiretap import equivocation_rank

from oracles import naive_rank


def test_bitmatrix_validation():
    m = BitMatrix([[1, 0], [0, 1]])
    assert m.shape == (2, 2)
    with pytest.raises(ValueError):
        BitMatrix([[3]])
    assert BitMatrix(np.eye(3, dtype=np.uint8)) == BitMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


@pytest.mark.parametrize("name, call", [
    pytest.param("entries", lambda: BitMatrix([[0.5]]), id="BitMatrix-half"),
    pytest.param("entries", lambda: BitMatrix([[1.7]]), id="BitMatrix-float"),
    pytest.param("entries", lambda: BitMatrix(np.array([[256]])), id="BitMatrix-256"),
    pytest.param("entries", lambda: BitMatrix([["1"]]), id="BitMatrix-str"),
    pytest.param("entries", lambda: BitMatrix([[-1]]), id="BitMatrix-negative"),
    pytest.param("entries", lambda: BitMatrix([1, 0]), id="BitMatrix-vector"),
    pytest.param("width", lambda: IncrementalRank(True), id="IncrementalRank-bool"),
    pytest.param("width", lambda: IncrementalRank(2.5), id="IncrementalRank-float"),
    pytest.param("n", lambda: generator_matrix(True), id="generator_matrix-bool"),
    pytest.param("n", lambda: bit_reversal_permutation(True), id="bit_reversal_permutation-bool"),
    pytest.param("n", lambda: bit_reversal_permutation(21), id="bit_reversal_permutation-too-large"),
    pytest.param("rows", lambda: transform_rows(np.zeros(8, dtype=np.uint8)), id="transform_rows-vector"),
    pytest.param("rows", lambda: transform_rows(np.zeros((2, 6), dtype=np.uint8)), id="transform_rows-length"),
    pytest.param("x", lambda: bsc_sample_rows(np.array([[0, 2]]), 0.1, np.random.default_rng(0)),
                 id="bsc_sample_rows-symbol"),
    pytest.param("x", lambda: bsc_sample_rows(np.array([[0.0, 1.0]]), 0.1, np.random.default_rng(0)),
                 id="bsc_sample_rows-float"),
    pytest.param("rows", lambda: transform_rows(np.array([[0.5, 1.0]])), id="transform_rows-float"),
    pytest.param("rows", lambda: transform_rows([[0.5, 1.0]]), id="transform_rows-float-list"),
    pytest.param("x", lambda: bec_sample_rows([[0.5, 1.0]], 0.1, np.random.default_rng(0)),
                 id="bec_sample_rows-float-list"),
    pytest.param("rng", lambda: bec_sample_rows(np.zeros((1, 4), dtype=np.uint8), 0.5, 5),
                 id="bec_sample_rows-int-rng"),
    pytest.param("rng", lambda: bec_sample_rows(np.zeros((2, 4), dtype=np.uint8), 0.5,
                                                [np.random.default_rng(0)] * 2),
                 id="bec_sample_rows-list-rng"),
    pytest.param("rng", lambda: bsc_sample_rows(np.zeros((1, 4), dtype=np.uint8), 0.1, 5),
                 id="bsc_sample_rows-int-rng"),
    pytest.param("rng", lambda: bsc_sample_rows(np.zeros((1, 4), dtype=np.uint8), 0.1,
                                                np.random.RandomState(0)),
                 id="bsc_sample_rows-RandomState"),
])
def test_bad_inputs_raise_value_errors_naming_the_argument(name, call):
    # the shared checks give every bad input a ValueError that starts with
    # the argument's name; the cached entry for a numpy n = 1, which equals
    # True, must not answer True
    bit_reversal_permutation(np.int64(1))
    with pytest.raises(ValueError, match=f"^{name} must"):
        call()


def test_nested_lists_of_bits_read_like_arrays():
    rows = [[0, 1, 1, 0], [1, 1, 0, 1]]
    arr = np.array(rows, dtype=np.uint8)
    assert np.array_equal(transform_rows(rows), transform_rows(arr))
    for sample in (bec_sample_rows, bsc_sample_rows):
        assert np.array_equal(sample(rows, 0.3, np.random.default_rng(5)),
                              sample(arr, 0.3, np.random.default_rng(5)))


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
        assert h.shape[0] == m.cols - naive_rank(arr)
        assert naive_rank(h.entries) == h.rows
        if h.rows:
            prod = (arr.astype(np.int64) @ h.entries.T.astype(np.int64)) % 2
            assert not prod.any()


def test_null_space_zero_rows_gives_identity_rank():
    h = null_space_basis(BitMatrix(np.zeros((0, 5), dtype=np.uint8)))
    assert h.rows == 5 and naive_rank(h.entries) == 5


def test_rank_nullity():
    rng = np.random.default_rng(11)
    for _ in range(30):
        arr = rng.integers(0, 2, (7, 11), dtype=np.uint8)
        assert naive_rank(null_space_basis(BitMatrix(arr)).entries) + naive_rank(arr) == arr.shape[1]


# equivocation_rank selects the erased columns of H and H_s, and checks the
# erased set as an index set.
_H = BitMatrix(np.eye(4, dtype=np.uint8)[2:])
_H_S = BitMatrix(np.eye(4, dtype=np.uint8)[1:])


def test_select_errors():
    with pytest.raises(ValueError, match="^erased indices must lie in"):
        equivocation_rank(_H, _H_S, [0, 4])
    with pytest.raises(ValueError, match="^erased indices must lie in"):
        equivocation_rank(_H, _H_S, [-1, 2])
    with pytest.raises(ValueError, match="^erased must be strictly increasing"):
        equivocation_rank(_H, _H_S, [2, 1])
    with pytest.raises(ValueError, match="^erased must be strictly increasing"):
        equivocation_rank(_H, _H_S, [1, 1])
    # non-integer indices are rejected, not truncated or read as 0/1
    for idx in ([0.7, 2.9], [0.0, 1.0], [False, True]):
        with pytest.raises(ValueError, match="^erased must hold integer"):
            equivocation_rank(_H, _H_S, idx)


def test_select_empty_index_set():
    assert equivocation_rank(_H, _H_S, []) == 0
    assert equivocation_rank(_H, _H_S, np.array([], dtype=np.float64)) == 0
    assert equivocation_rank(_H, _H_S, [1]) == 1
    assert equivocation_rank(_H, _H_S, [0, 1, 2, 3]) == 1


def test_packing_round_trip():
    rng = np.random.default_rng(17)
    m = BitMatrix(rng.integers(0, 2, (70, 5), dtype=np.uint8))
    cols = pack_columns(m)
    for j, c in enumerate(cols):
        bits = [(c >> i) & 1 for i in range(m.rows)]
        assert np.array_equal(bits, m.entries[:, j])


def test_incremental_rank_matches_batch():
    rng = np.random.default_rng(29)
    for _ in range(20):
        m = rng.integers(0, 2, (10, 10), dtype=np.uint8)
        acc = IncrementalRank(10)
        for v in pack_columns(BitMatrix(m.T)):
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
    acc = IncrementalRank(0)
    assert not acc.add(0) and not acc.add(0) and acc.rank == 0
    acc = IncrementalRank(2)
    assert [acc.add(v) for v in (0b10, 0b01, 0b11)] == [True, True, False] and acc.rank == 2
    with pytest.raises(ValueError, match="width"):
        IncrementalRank(-1)
