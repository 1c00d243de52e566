from unittest import mock

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from nestedpolar import channels
from nestedpolar.channels import (
    RngStream,
    RngStreams,
    bec_sample_rows,
    bsc_llr_magnitude,
    bsc_sample_rows,
    cascade_rows,
)
from nestedpolar.sc import ERASED

from oracles import bec_sample_float_rule, bsc_sample_float_rule


def test_rng_stream_reproducible():
    a = RngStream(1234, 5).generator().random(100)
    b = RngStream(1234, 5).generator().random(100)
    assert np.array_equal(a, b)
    c = RngStream(1234, 6).generator().random(100)
    assert not np.array_equal(a, c)


def test_rng_stream_is_the_seed_sequence_of_its_address():
    # the generator is seeded from both ints' 32-bit words, which must give
    # SeedSequence([seed, stream_id]) exactly, for multi-word ints too
    for seed, stream in ((0, 0), (1234, 5), (2**32 - 1, 2**32), (2**64 - 1, 2**70 + 3),
                         (np.uint64(2**63 + 7), np.int32(9))):
        reference = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), int(stream)])))
        assert np.array_equal(RngStream(seed, stream).generator().random(16), reference.random(16))


ADDRESS_EDGES = [0, 2**32 - 1, 2**32, 2**64 - 1, np.uint64(2**63 + 7), np.int32(9)]


@pytest.mark.parametrize("seed", ADDRESS_EDGES)
def test_rng_streams_start_where_rng_stream_generators_do(seed):
    # the batch's own SeedSequence and PCG64 seeding against numpy's, with
    # one-, two- and three-word ids in one batch (up to five entropy words,
    # one more than SeedSequence's pool)
    ids = ADDRESS_EDGES + [2**32 - 2, 5, 2**32 + 1, np.uint32(2**32 - 1), 2**70 + 3]
    batch = RngStreams(seed, ids)
    assert len(batch) == len(ids)
    for stream_id, rng in zip(ids, batch):
        reference = RngStream(seed, stream_id).generator()
        assert rng.bit_generator.state == reference.bit_generator.state
        assert np.array_equal(rng.random(4), reference.random(4))
        assert rng.integers(0, 2**62) == reference.integers(0, 2**62)


@pytest.mark.parametrize("k", [0, 1, 7, 8, 9, 6088])
def test_rng_streams_bits_are_the_fair_integers(k):
    ids = [0, 3, 2**32, 2**64 - 1]
    bits = RngStreams(11, ids).bits(k)
    reference = [RngStream(11, i).generator().integers(0, 2, k, dtype=np.uint8) for i in ids]
    assert bits.dtype == np.uint8 and bits.shape == (len(ids), k)
    assert np.array_equal(bits, np.array(reference, dtype=np.uint8).reshape(len(ids), k))
    assert RngStreams(11, []).bits(k).shape == (0, k)


@pytest.mark.parametrize("args, field", [
    ((-1, [0]), "master_seed"),
    ((2**64, [0]), "master_seed"),
    ((1.0, [0]), "master_seed"),
    ((3, [0, -2]), "stream_id"),
    ((3, [True]), "stream_id"),
    ((3, [0, 2.0]), "stream_id"),
])
def test_rng_streams_reject_bad_addresses(args, field):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        RngStreams(*args)


def test_rng_streams_bits_reject_a_bad_count():
    for bad in (2.0, -1, True):
        with pytest.raises(ValueError, match="^k must be"):
            RngStreams(3, [0]).bits(bad)


def test_rng_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(0, -2)


@pytest.mark.parametrize("args, field", [
    ((1.5,), "master_seed"),
    ((np.float64(2.0),), "master_seed"),
    ((True,), "master_seed"),
    ((np.bool_(True),), "master_seed"),
    (("3",), "master_seed"),
    ((3, 2.0), "stream_id"),
    ((3, False), "stream_id"),
    ((3, None), "stream_id"),
])
def test_rng_stream_rejects_non_integer_addresses(args, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        RngStream(*args)


def test_rng_stream_accepts_numpy_integers():
    a = RngStream(np.uint64(1234), np.int32(5)).generator().random(8)
    assert np.array_equal(a, RngStream(1234, 5).generator().random(8))


def test_bec_extremes():
    x = np.array([[1, 0, 1, 1]], dtype=np.uint8)
    rng = RngStream(0).generator()
    assert np.array_equal(bec_sample_rows(x, 0.0, rng), x)
    assert np.all(bec_sample_rows(x, 1.0, rng) == ERASED)
    with pytest.raises(ValueError):
        bec_sample_rows(x, 1.01, rng)
    # a bool is not a probability, nor is a string
    for bad in (True, False, "0.5", None):
        with pytest.raises(ValueError, match="^erasure_prob must be a real number"):
            bec_sample_rows(x, bad, rng)
    assert np.array_equal(bec_sample_rows(x, np.float32(0.0), rng), x)


def test_bec_rejects_non_integer_words():
    rng = RngStream(0).generator()
    with pytest.raises(ValueError, match="^x must be an integer or bool array"):
        bec_sample_rows(np.array([0.7, 0.0, 1.0]), 0.5, rng)


EDGE_PROBS = [0.0, 1.0, 5e-324, float(np.nextafter(1.0, 0.0)), 0.1, 4 / 9, 0.5]


@st.composite
def sampler_inputs(draw):
    """(x, erasure probability, seed): x is uint8 0/1, bool, or three-valued
    int8, of shape (N,), (batch, N) or (0, N)."""
    n = draw(st.integers(0, 6))
    shape = draw(st.sampled_from([(1 << n,), (draw(st.integers(1, 5)), 1 << n), (0, 1 << n)]))
    kind = draw(st.sampled_from(["uint8", "bool", "int8"]))
    seed = draw(st.integers(0, 2**32 - 1))
    low = -1 if kind == "int8" else 0
    x = np.random.default_rng(seed).integers(low, 2, shape).astype(kind)
    p = draw(st.sampled_from(EDGE_PROBS) | st.floats(0.0, 1.0))
    return x, p, seed


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sampler_inputs())
def test_bec_sampler_equals_float_draw_rule(case):
    x, p, seed = case
    y = bec_sample_rows(x, p, np.random.default_rng(seed))
    assert y.dtype == np.int8 and y.shape == x.shape
    assert np.array_equal(y, bec_sample_float_rule(x, p, np.random.default_rng(seed)))
    # the pattern does not depend on the word: bec(x) == bec(0) | x
    x8 = x.astype(np.int8)
    pattern = bec_sample_rows(np.zeros_like(x), p, np.random.default_rng(seed))
    assert np.array_equal(y, pattern | x8)
    # and a cascade commutes with ORing in the word
    e = bec_sample_rows(np.zeros_like(x), 0.5, np.random.default_rng(seed + 1))
    assert set(np.unique(e).tolist()) <= {ERASED, 0}
    after = cascade_rows(e | x8, p, np.random.default_rng(seed))
    assert np.array_equal(after, cascade_rows(e, p, np.random.default_rng(seed)) | x8)


def test_bec_sampler_takes_one_generator_per_row():
    # row r of a batched call is the one-row call on the r-th twin generator
    gens = lambda: RngStreams(5, range(4))  # noqa: E731
    bits = RngStream(4).generator().integers(0, 2, (4, 32), dtype=np.uint8)
    rows = bec_sample_rows(np.zeros((4, 32), dtype=np.uint8), 0.5, RngStream(6).generator())
    for sampler, x in ((bec_sample_rows, bits), (cascade_rows, rows | bits.astype(np.int8))):
        one_by_one = np.stack([sampler(row, 0.4, g) for row, g in zip(x, gens())])
        batched = sampler(x, 0.4, gens())
        assert batched.dtype == np.int8 and np.array_equal(batched, one_by_one)
    zeros = np.broadcast_to(np.zeros(32, dtype=np.int8), (4, 32))
    pattern = bec_sample_rows(zeros, 0.4, gens())
    assert np.array_equal(pattern | bits.astype(np.int8), bec_sample_rows(bits, 0.4, gens()))
    for bad_x, bad_gens in ((bits, RngStreams(5, range(3))), (bits, RngStreams(5, range(8))),
                            (bits[0], RngStreams(5, range(1)))):
        with pytest.raises(ValueError, match="^rng must be one generator per row"):
            bec_sample_rows(bad_x, 0.4, bad_gens)


def test_bec_never_flips():
    rng = RngStream(3).generator()
    x = rng.integers(0, 2, (1, 512), dtype=np.uint8)
    y = bec_sample_rows(x, 0.4, rng)
    keep = y != ERASED
    assert np.array_equal(y[keep], x[keep])


def test_bec_erasure_fraction():
    rng = RngStream(7).generator()
    x = np.zeros((1, 1024), dtype=np.uint8)
    erased = sum((bec_sample_rows(x, 0.25, rng) == ERASED).sum() for _ in range(1000))
    assert abs(erased / (1024 * 1000) - 0.25) < 0.01


def test_cascade_identity_and_absorbing():
    rng = RngStream(9).generator()
    x = rng.integers(0, 2, (1, 64), dtype=np.uint8)
    y = bec_sample_rows(x, 0.3, rng)
    same = cascade_rows(y, 0.0, rng)
    assert np.array_equal(same, y)
    everything = bec_sample_rows(x, 1.0, rng)
    assert np.all(cascade_rows(everything, 0.5, rng) == ERASED)


def test_cascade_composition_rate():
    e1, e_deg = 0.3, 0.4
    rng = RngStream(11).generator()
    x = np.zeros((1, 1024), dtype=np.uint8)
    total = 0
    for _ in range(500):
        y = cascade_rows(bec_sample_rows(x, e1, rng), e_deg, rng)
        total += (y == ERASED).sum()
    expected = e1 + (1 - e1) * e_deg
    assert abs(total / (1024 * 500) - expected) < 0.01


def test_bsc_extremes():
    x = np.array([[0, 1, 0, 1]], dtype=np.uint8)
    rng = RngStream(13).generator()
    clean = bsc_sample_rows(x, 0.0, rng)
    assert clean.dtype == np.uint8
    assert np.array_equal(clean, x)
    # at crossover 1/2 the received bits carry no information
    flat = bsc_sample_rows(x, 0.5, rng)
    assert flat.dtype == np.uint8 and set(flat.ravel()) <= {0, 1}
    assert bsc_llr_magnitude(0.5) == 0.0
    with pytest.raises(ValueError):
        bsc_sample_rows(x, 0.51, rng)
    for bad in (False, True, "0.1"):
        with pytest.raises(ValueError, match="^crossover probability must be a real number"):
            bsc_sample_rows(x, bad, rng)
        with pytest.raises(ValueError, match="^crossover probability must be a real number"):
            bsc_llr_magnitude(bad)
    # ln((1-p)/p) would be negative above 1/2, and undefined at 1
    for bad in (0.7, 1.0, -0.1, np.nan):
        with pytest.raises(ValueError, match=r"^crossover probability must be in \[0, 0.5\]"):
            bsc_llr_magnitude(bad)


def test_bsc_rejects_non_bit_symbols():
    rng = RngStream(14).generator()
    for bad in (np.array([[0, 1, 2, 3]]), np.array([[0, -1, 0, 1]], dtype=np.int8),
                np.array([[0.0, 1.0, 0.0, 1.0]])):
        with pytest.raises(ValueError, match="^x must be 0 or 1"):
            bsc_sample_rows(bad, 0.11, rng)
    # bool symbols are bits, and give the received bits of their uint8 twins
    x = np.array([[False, True, True, False]])
    assert np.array_equal(bsc_sample_rows(x, 0.11, RngStream(15).generator()),
                          bsc_sample_rows(x.view(np.uint8), 0.11, RngStream(15).generator()))


@st.composite
def bsc_sampler_inputs(draw):
    """(x, crossover probability, seed, block cells): x holds 0/1 symbols of
    an integer or bool dtype, of shape (batch, N) with batch one block of
    rows, one row either side of it, or several blocks and a part; the
    block is the sampler's own or a few cells."""
    n = draw(st.integers(0, 6))
    N = 1 << n
    cells = draw(st.sampled_from([channels._SAMPLE_BLOCK_CELLS, 1, 2, 5, 64, 100]))
    rows = max(1, cells // N)
    batch = draw(st.sampled_from([rows - 1, rows, rows + 1, 3 * rows + 1]))
    kind = draw(st.sampled_from(["uint8", "bool", "int8", "int64"]))
    seed = draw(st.integers(0, 2**32 - 1))
    x = np.random.default_rng(seed).integers(0, 2, (batch, N)).astype(kind)
    p = draw(st.sampled_from([0.0, 5e-324, 0.1, 4 / 9, 0.5]) | st.floats(0.0, 0.5))
    return x, p, seed, cells


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(bsc_sampler_inputs())
def test_bsc_sampler_equals_float_draw_rule(case):
    # the flips are drawn a block of rows at a time; on a twin generator
    # they must be those of one whole-array draw, at every block boundary
    x, p, seed, cells = case
    with mock.patch.object(channels, "_SAMPLE_BLOCK_CELLS", cells):
        rng = np.random.default_rng(seed)
        y = bsc_sample_rows(x, p, rng)
    twin = np.random.default_rng(seed)
    assert y.dtype == np.uint8 and y.shape == x.shape
    assert np.array_equal(y, bsc_sample_float_rule(x, p, twin))
    # and both generators end at the same point of the stream
    assert rng.random() == twin.random()


def test_bsc_flip_fraction():
    p = 0.11
    rng = RngStream(17).generator()
    x = np.zeros((1, 1024), dtype=np.uint8)
    flips = 0
    for _ in range(500):
        y = bsc_sample_rows(x, p, rng)
        flips += (y != x).sum()
    assert abs(flips / (1024 * 500) - p) < 0.01


def test_channel_realizations_reproducible():
    x = (np.arange(256) % 2).astype(np.uint8)[None, :]
    y1 = bec_sample_rows(x, 0.3, RngStream(21, 4).generator())
    y2 = bec_sample_rows(x, 0.3, RngStream(21, 4).generator())
    assert np.array_equal(y1, y2)
