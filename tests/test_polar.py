import numpy as np
import pytest

from nestedpolar.gf2 import BitMatrix
from nestedpolar.polar import (
    CodeParams,
    PolarCodeSpec,
    bit_reversal_permutation,
    butterfly_rows,
    generator_matrix,
    transform_rows,
)

from oracles import F, kron_power, naive_rank, naive_vec_mat_mul, reference_generator


def test_code_params_guard():
    assert CodeParams(0).N == 1
    assert CodeParams(10).N == 1024
    with pytest.raises(ValueError):
        CodeParams(21)
    with pytest.raises(ValueError):
        CodeParams(-1)
    # n is an integer: not a bool, not a float, whatever its value
    for bad in (1.5, 3.0, np.float64(3.0), True, np.bool_(True)):
        with pytest.raises(ValueError, match="^n must be an integer"):
            CodeParams(bad)
    assert CodeParams(np.int64(3)).N == 8
    # n is checked before the 4^n-cell Kronecker product is built
    for n in (-1, 21):
        with pytest.raises(ValueError, match="^n must be in"):
            generator_matrix(n)


def test_bit_reversal_small():
    assert np.array_equal(bit_reversal_permutation(1), [0, 1])
    assert np.array_equal(bit_reversal_permutation(2), [0, 2, 1, 3])
    assert np.array_equal(bit_reversal_permutation(3), [0, 4, 2, 6, 1, 5, 3, 7])


def test_bit_reversal_is_involution():
    for n in range(0, 11):
        perm = bit_reversal_permutation(n)
        assert np.array_equal(perm[perm], np.arange(1 << n))


def test_generator_matrix_small():
    assert generator_matrix(0) == BitMatrix([[1]])
    assert generator_matrix(1) == BitMatrix(F)
    assert np.array_equal(generator_matrix(2).entries, kron_power(2)[[0, 2, 1, 3]])


def test_generator_matrix_matches_reference():
    for n in range(0, 7):
        assert np.array_equal(generator_matrix(n).entries, reference_generator(n))


def test_generator_matrix_full_rank():
    for n in range(0, 11):
        assert naive_rank(generator_matrix(n).entries) == 1 << n


def test_transform_zero_and_hand_case():
    assert np.array_equal(transform_rows(np.zeros((1, 4), dtype=np.uint8)), [[0, 0, 0, 0]])
    assert np.array_equal(transform_rows(np.array([[1, 1]], dtype=np.uint8)), [[0, 1]])


def test_transform_matches_matrix_multiplication():
    rng = np.random.default_rng(2)
    for n in range(0, 7):
        g = generator_matrix(n).entries
        for _ in range(20):
            u = rng.integers(0, 2, (1, 1 << n), dtype=np.uint8)
            assert np.array_equal(transform_rows(u), naive_vec_mat_mul(u, g))


def test_transform_is_involution():
    rng = np.random.default_rng(4)
    for n in range(0, 11):
        u = rng.integers(0, 2, (1, 1 << n), dtype=np.uint8)
        assert np.array_equal(transform_rows(transform_rows(u)), u)


def test_butterfly_rows_in_place_for_any_layout():
    rng = np.random.default_rng(6)
    k = kron_power(4)
    u = rng.integers(0, 2, (5, 16), dtype=np.uint8)
    for x in (u.copy(), np.asfortranarray(u), u[:, ::-1].copy()[:, ::-1], np.tile(u, 2)[:, ::2]):
        expected = naive_vec_mat_mul(x, k)
        assert butterfly_rows(x) is x
        assert np.array_equal(x, expected)
    assert transform_rows(np.zeros((0, 16), dtype=np.uint8)).shape == (0, 16)


def test_transform_rejects_bad_length():
    with pytest.raises(ValueError):
        transform_rows(np.array([[1, 0, 1]], dtype=np.uint8))


def test_spec_validation():
    params = CodeParams(2)
    spec = PolarCodeSpec(params, [1, 3])
    assert spec.N == 4 and spec.info_len == 2
    assert np.array_equal(spec.info_mask, [False, True, False, True])
    assert not spec.info_set.flags.writeable and not spec.info_mask.flags.writeable
    with pytest.raises(ValueError):
        PolarCodeSpec(params, [3, 1])
    with pytest.raises(ValueError):
        PolarCodeSpec(params, [1, 4])
    with pytest.raises(ValueError, match="^info_set must hold integer"):
        PolarCodeSpec(params, [0.7, 2.9])
    with pytest.raises(ValueError, match="^info_set must hold integer"):
        PolarCodeSpec(params, np.array([False, True]))
    # every bit outside the information set is frozen to zero
    with pytest.raises(TypeError):
        PolarCodeSpec(params, [1, 3], [0, 0, 1, 0])


def codeword(frozen, info, msg):
    """The codeword carrying the 1-D message msg on info and frozen elsewhere."""
    u = np.array(frozen, dtype=np.uint8)
    u[info] = msg
    return transform_rows(u[None, :])[0]


def test_encode_all_frozen():
    assert np.array_equal(codeword(np.zeros(4), [], []), [0, 0, 0, 0])


def test_encode_hand_case():
    assert np.array_equal(codeword([0, 0], [1], [1]), [1, 1])


def test_encode_matches_explicit_submatrices():
    rng = np.random.default_rng(6)
    g = generator_matrix(2).entries
    for _ in range(30):
        k = int(rng.integers(1, 4))
        info = np.sort(rng.choice(4, size=k, replace=False))
        frozen_idx = np.setdiff1d(np.arange(4), info)
        frozen = np.zeros(4, dtype=np.uint8)
        for i in frozen_idx:
            frozen[i] = rng.integers(0, 2)
        msg = rng.integers(0, 2, k, dtype=np.uint8)
        u_frozen = frozen[frozen_idx]
        expected = naive_vec_mat_mul(msg, g[info]) ^ (
            naive_vec_mat_mul(u_frozen, g[frozen_idx]) if frozen_idx.size else 0
        )
        assert np.array_equal(codeword(frozen, info, msg), expected)


def test_spec_does_not_freeze_caller_arrays():
    info = np.array([0, 1], dtype=np.int64)
    PolarCodeSpec(CodeParams(2), info)
    info[0] = 1  # caller's array stays writeable
    assert info[0] == 1
