import gc
import itertools
from unittest import mock

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from nestedpolar import sc
from nestedpolar.channels import LLR_CAP, RngStream, bec_sample_rows, bsc_llr_magnitude, bsc_sample_rows
from nestedpolar.construction import bec_reliability, select_info_set
from nestedpolar.polar import CodeParams, PolarCodeSpec, transform_rows
from nestedpolar.sc import (
    ERASED,
    decode_bec_rows,
    genie_llr_rows,
    undetermined_bec_rows,
)

from oracles import (
    bec_sc_reference,
    bitrev,
    genie_erased_bits,
    genie_llr_walk,
    llr_boxplus,
    ml_genie_flags,
    naive_rank,
    reference_generator,
    sequential_ml_decode,
)


def random_spec(n, k, rng):
    info = np.sort(rng.choice(1 << n, size=k, replace=False))
    return PolarCodeSpec(CodeParams(n), info)


def codewords(spec, msgs):
    """Codewords of spec for a (batch, |A|) array of messages."""
    u = np.zeros((len(msgs), spec.N), dtype=np.uint8)
    u[:, spec.info_set] = msgs
    return transform_rows(u)


def bec_decode(spec, y):
    return decode_bec_rows(y, spec.info_mask, np.zeros(spec.N, dtype=np.uint8))


def erased_leaves(y):
    """(batch, N) bool: whether SC's message at each bit of each row is
    erased, from ``undetermined_bec_rows`` with one information bit at a time."""
    N = y.shape[1]
    return np.stack([undetermined_bec_rows(y, np.arange(N) == i) for i in range(N)], axis=1) > 0


def sample_bec_trials(spec, eps, seed, trials):
    """Messages and BEC outputs of ``trials`` codewords of spec; trial t draws
    its message bits, then one uniform per position, from RngStream(seed, t)."""
    rngs = [RngStream(seed, t).generator() for t in range(trials)]
    msgs = np.array([g.integers(0, 2, spec.info_len, dtype=np.uint8) for g in rngs])
    x = codewords(spec, msgs)
    return msgs, np.array([bec_sample_rows(row, eps, g) for row, g in zip(x, rngs)])


def test_noiseless_round_trip_inverts():
    rng = np.random.default_rng(0)
    for n in (2, 4, 6):
        spec = random_spec(n, (1 << n) // 2, rng)
        msg = rng.integers(0, 2, (1, spec.info_len), dtype=np.uint8)
        x = codewords(spec, msg)
        u_hat, undet = bec_decode(spec, x.astype(np.int8))
        assert undet[0] == 0
        assert np.array_equal(u_hat[:, spec.info_set], msg)
        assert np.array_equal(transform_rows(u_hat), x)


def test_all_erased_returns_zero_guesses():
    spec = PolarCodeSpec(CodeParams(3), [3, 5, 6, 7])
    y = np.full((1, 8), ERASED, dtype=np.int8)
    u_hat, undet = bec_decode(spec, y)
    assert undet[0] == 4
    assert np.array_equal(u_hat[0, spec.info_set], np.zeros(4))


def test_frozen_positions_always_output_frozen_values():
    rng = np.random.default_rng(8)
    frozen = np.array([1, 0, 1, 1, 0, 0, 0, 0], dtype=np.uint8)
    mask = np.arange(8) >= 5
    y = np.array([rng.choice(np.array([0, 1, ERASED], dtype=np.int8), size=8) for _ in range(20)])
    u_hat, _ = decode_bec_rows(y, mask, frozen)
    assert np.array_equal(u_hat[:, :5], np.broadcast_to(frozen[:5], (20, 5)))


def test_bec_consistency_when_fully_determined():
    # whenever nothing stayed undetermined the re-encoded word must match
    # every unerased received symbol
    info = select_info_set(bec_reliability(4, 0.3), 6)
    spec = PolarCodeSpec(CodeParams(4), info)
    _, y = sample_bec_trials(spec, 0.3, 50, 200)
    u_hat, undet = bec_decode(spec, y)
    determined = undet == 0
    re_encoded = transform_rows(u_hat[determined])
    keep = y[determined] != ERASED
    assert np.array_equal(re_encoded[keep], y[determined][keep])
    assert determined.sum() > 20


def test_block_error_rate_within_union_bound():
    n, eps, trials = 3, 0.25, 10_000
    profile = bec_reliability(n, eps)
    info = select_info_set(profile, 4)
    spec = PolarCodeSpec(CodeParams(n), info)
    bound = profile.z[info].sum()
    msgs, y = sample_bec_trials(spec, eps, 77, trials)
    errors = np.any(bec_decode(spec, y)[0][:, info] != msgs, axis=1).sum()
    sigma = np.sqrt(bound * (1 - bound) / trials)
    assert errors / trials <= bound + 3 * sigma


def test_undetermined_bec_rows_match_recoverability_oracle():
    patterns = np.array(list(itertools.product([False, True], repeat=8)))
    u = np.random.default_rng(4).integers(0, 2, patterns.shape, dtype=np.uint8)
    y = np.where(patterns, np.int8(ERASED), transform_rows(u).astype(np.int8))
    expected = np.array([genie_erased_bits(p) for p in patterns])
    assert np.array_equal(erased_leaves(y), expected)


def test_undetermined_bec_rows_match_recoverability_oracle_random_patterns():
    rng = np.random.default_rng(5)
    # batches of 63 to 129 rows straddle the 64-row words of the erasure planes
    for n, count in ((1, 4), (2, 6), (3, 6), (4, 8), (5, 8), (6, 4),
                     (1, 63), (2, 64), (3, 65), (3, 129), (7, 65), (8, 20), (9, 6), (10, 3)):
        N = 1 << n
        erased = rng.random((count, N)) < rng.random((count, 1))
        u = rng.integers(0, 2, (count, N), dtype=np.uint8)
        y = np.where(erased, np.int8(ERASED), transform_rows(u).astype(np.int8))
        expected = np.array([genie_erased_bits(p) for p in erased])
        assert np.array_equal(erased_leaves(y), expected)


def test_recoverability_oracle_is_the_rank_definition():
    # the oracle's echelon form against rank(rows i..) == rank(rows i+1..)
    rng = np.random.default_rng(7)
    for n in range(5):
        for erased in rng.random((12, 1 << n)) < rng.random((12, 1)):
            sub = reference_generator(n)[:, ~erased]
            by_rank = [naive_rank(sub[i:]) == naive_rank(sub[i + 1 :]) for i in range(1 << n)]
            assert np.array_equal(genie_erased_bits(erased), by_rank)


def test_genie_counts_equal_decoder_undetermined_counts():
    # an information decision is undetermined iff the genie marks its leaf
    # erased, whatever the mask, the frozen values and the received bits;
    # n = 5, 6, 7 put the level-wise pass's last in-word stride, and its
    # first whole-word one, on either side of a 64-bit word
    rng = np.random.default_rng(8)
    for n in (0, 1, 3, 5, 6, 7, 9):
        N = 1 << n
        for nbatch in (1, 63, 64, 65, 130):
            mask = rng.random(N) < rng.random()
            fv = rng.integers(0, 2, (nbatch, N) if rng.random() < 0.5 else N, dtype=np.uint8)
            y = rng.integers(0, 2, (nbatch, N)).astype(np.int8)
            y[rng.random((nbatch, N)) < rng.random((nbatch, 1))] = ERASED
            _, undet = decode_bec_rows(y, mask, fv)
            assert np.array_equal(erased_leaves(y)[:, mask].sum(axis=1), undet)
            # the decoder returns the genie's counts, so the second half of
            # this holds by construction
            counts = undetermined_bec_rows(y, mask)
            assert counts.dtype == np.int64 and np.array_equal(counts, undet)


def test_empty_batches():
    N = 16
    y = np.zeros((0, N), dtype=np.int8)
    u_hat, undet = decode_bec_rows(y, np.ones(N, dtype=bool), np.zeros(N, dtype=np.uint8))
    assert u_hat.shape == (0, N) and u_hat.dtype == np.uint8
    assert undet.shape == (0,) and undet.dtype == np.int64
    counts = undetermined_bec_rows(y, np.ones(N, dtype=bool))
    assert counts.shape == (0,) and counts.dtype == np.int64


def test_erasure_symbols_checked():
    mask, fv = np.ones(4, dtype=bool), np.zeros(4, dtype=np.uint8)
    # the float word lies within [ERASED, 1], so only its dtype gives it away
    for y in (np.array([[0, 3, 0, 0]], dtype=np.int8), np.array([[0, -2, 0, 0]], dtype=np.int8),
              np.array([[0, 0.5, 0, -1.0]])):
        with pytest.raises(ValueError, match="^y symbols must be 0, 1 or ERASED"):
            decode_bec_rows(y, mask, fv)
        with pytest.raises(ValueError, match="^y symbols must be 0, 1 or ERASED"):
            undetermined_bec_rows(y, mask)
    # a bool word is a word of 0s and 1s
    assert undetermined_bec_rows(np.array([[False, True, False, True]]), mask).tolist() == [0]


def assert_matches_bec_reference(y, mask, fv):
    got = decode_bec_rows(y, mask, fv)
    expected = bec_sc_reference(y, mask, fv)
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype
        assert np.array_equal(g, e)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(0, 8),
    nbatch=st.integers(0, 4) | st.sampled_from([63, 64, 65, 129]),  # around 64-row words
    mask_kind=st.sampled_from(["frozen", "info", "mixed", "reliable"]),
    eps=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    codeword=st.booleans(),
    per_row_frozen=st.booleans(),
    frozen_dtype=st.sampled_from([np.uint8, bool]),
    seed=st.integers(0, 2**32 - 1),
)
def test_decode_bec_rows_matches_sc_reference(
    n, nbatch, mask_kind, eps, codeword, per_row_frozen, frozen_dtype, seed
):
    rng = np.random.default_rng(seed)
    N = 1 << n
    if mask_kind == "reliable":  # the kind of mask the relay decodes, rate-1 runs and all
        mask = np.zeros(N, dtype=bool)
        mask[select_info_set(bec_reliability(n, 0.5), int(rng.integers(0, N + 1)))] = True
    else:
        mask = {"frozen": np.zeros(N, bool), "info": np.ones(N, bool),
                "mixed": rng.random(N) < rng.random()}[mask_kind]
    fv = rng.integers(0, 2, (nbatch, N) if per_row_frozen else N).astype(frozen_dtype)
    u = rng.integers(0, 2, (nbatch, N), dtype=np.uint8)
    if codeword:  # frozen positions agree with fv, so only erasures are noise
        u = np.where(mask, u, np.broadcast_to(fv, (nbatch, N))).astype(np.uint8)
    y = np.where(rng.random((nbatch, N)) < eps, np.int8(ERASED), transform_rows(u).astype(np.int8))
    assert_matches_bec_reference(y, mask, fv)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 8), nbatch=st.integers(2, 5), data=st.data())
def test_decode_bec_rows_one_erasure_in_a_rate1_subtree(n, nbatch, data):
    # Only one row carries an erasure into a rate-1 node: that node must
    # descend for the whole batch, and the clean rows must still come out
    # right.  With every bit information, the root is that node; with bit 0
    # frozen, the right half is, and its message at j is erased only when
    # both received symbols feeding it are.
    N = 1 << n
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    row = data.draw(st.integers(0, nbatch - 1), label="row")
    mask = np.ones(N, dtype=bool)
    y = rng.integers(0, 2, (nbatch, N)).astype(np.int8)
    if data.draw(st.booleans(), label="root"):
        y[row, data.draw(st.integers(0, N - 1), label="pos")] = ERASED
    else:
        mask[0] = False
        j = data.draw(st.integers(0, N // 2 - 1), label="j")
        y[row, [bitrev(j, n), bitrev(j + N // 2, n)]] = ERASED
    fv = np.zeros(N, dtype=np.uint8)
    assert_matches_bec_reference(y, mask, fv)
    assert decode_bec_rows(y, mask, fv)[1][row] >= 1


def test_decode_bec_rows_leaves_no_cyclic_garbage():
    # the recursive walk is a closure over itself; a call that left that
    # cycle behind would hold its u and n_info until the cyclic collector
    # ran, and a caller making few allocations (the relay) would pile them up
    y = np.zeros((3, 64), dtype=np.int8)
    y[:, ::3] = ERASED
    mask = np.arange(64) >= 32
    fv = np.zeros(64, dtype=np.uint8)
    decode_bec_rows(y, mask, fv)
    gc.collect()
    gc.disable()
    try:
        decode_bec_rows(y, mask, fv)
        assert gc.collect() == 0
    finally:
        gc.enable()


def count_check_nodes(monkeypatch, y, mask):
    # count the check combines the erasure decoder's walk makes
    check = sc._bec_check
    calls = []

    def counting(a, b):
        calls.append(a.shape[0])
        return check(a, b)

    monkeypatch.setattr(sc, "_bec_check", counting)
    decode_bec_rows(y, mask, np.zeros(mask.size, dtype=np.uint8))
    return len(calls)


def test_node_rule_skips_rate0_and_rate1_subtrees(monkeypatch):
    # The full walk makes one check-node combine per internal node (N - 1);
    # the node rule must remove them where it applies.
    n, N = 8, 256
    u = np.random.default_rng(3).integers(0, 2, (16, N), dtype=np.uint8)
    y = transform_rows(u).astype(np.int8)
    assert count_check_nodes(monkeypatch, y, np.ones(N, dtype=bool)) == 0
    assert count_check_nodes(monkeypatch, y, np.zeros(N, dtype=bool)) == 0
    mixed = np.zeros(N, dtype=bool)
    mixed[select_info_set(bec_reliability(n, 0.3), 128)] = True
    assert 0 < count_check_nodes(monkeypatch, y, mixed) < N - 1


def test_genie_llr_walk_matches_sequential_ml_reference():
    # the walk is the genie's bit-for-bit oracle (the tree-walk test below),
    # so this chain holds genie SC to ML, ties included; the enumerating
    # ml_genie_flags is held to sequential_ml_decode, one bit at a time
    rng = np.random.default_rng(21)
    llr = np.round(rng.normal(0, 2, (64, 4)), 3)
    llr[rng.random(llr.shape) < 0.25] = 0.0  # exact ties
    u = rng.integers(0, 2, llr.shape, dtype=np.uint8)
    flags = ml_genie_flags(llr, u)
    sequential = np.array([
        [sequential_ml_decode(llr[r], np.arange(4) == i, u[r])[i] for i in range(4)]
        for r in range(llr.shape[0])
    ])
    assert np.array_equal(flags, sequential != u)
    assert np.array_equal(genie_llr_walk(llr, u), flags)


@pytest.mark.parametrize("n, nbatch", [(3, 40), (4, 8)])
def test_genie_llr_rows_match_sequential_ml_on_bsc_ties(n, nbatch):
    # BSC LLRs +-L make exact ties common; ML decides each one 0.  Both
    # batches are small enough that only level 0 runs on codes, so the
    # float levels take the rest, at N = 8 and at N = 16
    rng = np.random.default_rng(22)
    p, L = 0.11, bsc_llr_magnitude(0.11)
    u = rng.integers(0, 2, (nbatch, 1 << n), dtype=np.uint8)
    y = bsc_sample_rows(transform_rows(u), p, rng)
    levels = []
    real = sc._genie_code_level

    def counting(codes, x, table, d):
        levels.append(d)
        return real(codes, x, table, d)

    with mock.patch.object(sc, "_genie_code_level", counting):
        flags = genie_llr_rows(y, L, u)
    assert levels == [0]
    assert np.array_equal(flags, ml_genie_flags(np.where(y, -L, L), u))


def test_llr_check_is_exactly_odd_and_symmetric():
    # on a grid of +-0, 1e-300, subnormals and magnitudes up to the LLR cap
    # and past it (deep float levels sum up to N of them): bitwise odd in
    # each argument, bitwise symmetric, exactly 0 when either input is 0,
    # and within 1e-15 (1 + |a| + |b|) of the logaddexp form
    mags = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-17, 1e-8, 1e-3, 0.1,
                     0.5, 1.0, bsc_llr_magnitude(0.11), 2.5, 7.0, 19.0, 36.0, 37.5, LLR_CAP,
                     2 * LLR_CAP, 1024 * LLR_CAP])
    vals = np.concatenate([mags, -mags])
    a, b = (g.ravel() for g in np.meshgrid(vals, vals))
    f = sc._llr_check(a, b)
    assert np.array_equal(sc._llr_check(-a, b).view(np.int64), (-f).view(np.int64))
    assert np.array_equal(sc._llr_check(b, a).view(np.int64), f.view(np.int64))
    assert np.array_equal(f.view(np.int64), llr_boxplus(a, b).view(np.int64))
    assert np.all(f[(a == 0) | (b == 0)] == 0)
    reference = np.logaddexp(0.0, a + b) - np.logaddexp(a, b)
    assert np.all(np.abs(f - reference) <= 1e-15 * (1 + np.abs(a) + np.abs(b)))
    # on strided halves, as the float levels pass them
    v = np.stack([a.reshape(2, -1), b.reshape(2, -1)], axis=1)
    assert np.array_equal(sc._llr_check(v[:, 0], v[:, 1]).ravel().view(np.int64), f.view(np.int64))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 8),
    nbatch=st.integers(0, 600),
    p=st.sampled_from([0.0, 0.5, None]),
    per_row=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_genie_llr_rows_match_tree_walk(n, nbatch, p, per_row, seed):
    # the genie's top levels run on codes into a table of distinct values,
    # from the received bits read as +-L (+-0.0 at p = 1/2); how many levels
    # depends on N and the batch size.  Its flags must equal the walk's bit
    # for bit.
    rng = np.random.default_rng(seed)
    N = 1 << n
    crossover = rng.uniform(0.0, 0.5) if p is None else p
    u = rng.integers(0, 2, (nbatch, N) if per_row else N, dtype=np.uint8)
    y = bsc_sample_rows(transform_rows(np.broadcast_to(u, (nbatch, N))), crossover, rng)
    L = bsc_llr_magnitude(crossover)
    assert np.array_equal(genie_llr_rows(y, L, u), genie_llr_walk(np.where(y, -L, L), u))


def test_genie_tiles_cover_every_cell_once():
    for shape in [(1, 1), (1, 10), (4, 3), (8, 5), (3, 64)]:
        cells = np.arange(shape[0] * shape[1]).reshape(shape)
        for block in (0, 1, 2, 3, 5, 15, 64, 1000):
            tiles = [cells[tile] for tile in sc._tiles(shape, block)]
            assert np.array_equal(np.concatenate([t.ravel() for t in tiles]), cells.ravel())
            assert max(t.size for t in tiles) <= max(1, block)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 7),
    nbatch=st.integers(1, 80),
    cells=st.integers(1, 2048),
    p=st.sampled_from([0.0, 0.5, None]),
    per_row=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_genie_llr_rows_in_small_blocks(n, nbatch, cells, p, per_row, seed):
    # blocks of a few cells cut the triple passes of every code level, and
    # the float levels' rows, with uneven last blocks; the flags must equal
    # those of the default blocks and the walk's
    rng = np.random.default_rng(seed)
    N = 1 << n
    crossover = rng.uniform(0.0, 0.5) if p is None else p
    u = rng.integers(0, 2, (nbatch, N) if per_row else N, dtype=np.uint8)
    y = bsc_sample_rows(transform_rows(np.broadcast_to(u, (nbatch, N))), crossover, rng)
    L = bsc_llr_magnitude(crossover)
    expected = genie_llr_rows(y, L, u)
    assert np.array_equal(expected, genie_llr_walk(np.where(y, -L, L), u))
    with mock.patch.object(sc, "_GENIE_BLOCK_CELLS", cells):
        assert np.array_equal(genie_llr_rows(y, L, u), expected)


@pytest.mark.parametrize("K, widened", [(10, False), (200, True)])
def test_genie_code_level_widens_codes_past_uint16(K, widened):
    # uint16 codes into a table of K random values over 2^20 cells: at
    # K = 200 the new table has more than 65536 entries, so the codes come
    # back as int32.  Either way the messages they give equal those of the
    # float level bit for bit.
    rng = np.random.default_rng(30 + K)
    table = rng.normal(0.0, 3.0, K)
    codes = rng.integers(0, K, (1 << 10, 1 << 10), dtype=np.uint16)
    x = rng.integers(0, 2, codes.shape, dtype=np.uint8)
    m, xm = table[codes], x.copy()
    sc._genie_float_level(m, xm, 3)
    codes, table = sc._genie_code_level(codes, x, table, 3)
    assert codes.dtype == (np.int32 if widened else np.uint16)
    assert (table.size > 1 << 16) == widened
    assert np.array_equal(table[codes].view(np.int64), m.view(np.int64))
    assert np.array_equal(x, xm)


def test_genie_llr_rows_edge_cases():
    # an empty batch
    flags = genie_llr_rows(np.zeros((0, 8), dtype=np.uint8), 1.0, np.zeros(8, dtype=np.uint8))
    assert flags.shape == (0, 8) and flags.dtype == bool
    # N = 1: the leaf is the channel; at magnitude 0 (p = 1/2) both +0.0
    # and -0.0 decide 0
    y = np.array([[0], [1], [0], [1]], dtype=np.uint8)
    assert genie_llr_rows(y, 0.0, np.array([[0], [1], [1], [0]])).ravel().tolist() == [False, True, True, False]
    # one word of true bits for every row
    assert genie_llr_rows(y[:2], 2.0, np.array([0])).ravel().tolist() == [False, True]
    # the caller's array is left alone, whatever its layout
    rng = np.random.default_rng(12)
    u = rng.integers(0, 2, (300, 64), dtype=np.uint8)
    y = bsc_sample_rows(transform_rows(u), 0.11, rng)
    L = bsc_llr_magnitude(0.11)
    for arr in (y, np.asfortranarray(y)):
        before = arr.copy()
        assert np.array_equal(genie_llr_rows(arr, L, u), genie_llr_walk(np.where(before, -L, L), u))
        assert np.array_equal(arr, before)


def test_llr_inputs_must_be_finite_and_are_clamped():
    # the genie uses the LLR magnitude unclamped, but not unchecked
    y, u = np.array([[0, 1], [1, 0]], dtype=np.uint8), np.zeros(2, dtype=np.uint8)
    for bad in (np.nan, np.inf, -np.inf, -1.0):
        with pytest.raises(ValueError, match="^magnitude must be finite"):
            genie_llr_rows(y, bad, u)
    # a bool is not a magnitude, nor is a string
    for bad in (True, False, "1", None, np.array([1.0])):
        with pytest.raises(ValueError, match="^magnitude must be a real number"):
            genie_llr_rows(y, bad, u)
    assert np.array_equal(genie_llr_rows(y, 1, u), genie_llr_rows(y, np.float64(1.0), u))
    for bad in (np.array([[0, 2], [1, 0]]), np.array([[0, -1], [1, 0]]), y.astype(np.float64)):
        with pytest.raises(ValueError, match="^y must be 0 or 1"):
            genie_llr_rows(bad, 1.0, u)
    # the BSC LLR magnitude is clamped to the cap, even at crossover 0
    for p in (0.0, 1e-300, 1e-20):
        assert bsc_llr_magnitude(p) == LLR_CAP
    assert bsc_llr_magnitude(0.11) < LLR_CAP


def test_decoders_are_deterministic():
    spec = PolarCodeSpec(CodeParams(4), np.arange(0, 16, 2))
    y = np.resize(np.array([0, 1, ERASED], dtype=np.int8), (1, 16))
    a = bec_decode(spec, y)
    b = bec_decode(spec, y)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_word_length_checked():
    spec = PolarCodeSpec(CodeParams(3), [7])
    mask, fv = spec.info_mask, np.zeros(spec.N, dtype=np.uint8)
    with pytest.raises(ValueError, match=r"^info_mask must have shape \(2,\), got \(8,\)"):
        decode_bec_rows(np.zeros((1, 2), dtype=np.int8), mask, fv)
    with pytest.raises(ValueError, match="^frozen_values must"):
        decode_bec_rows(np.zeros((1, 2), dtype=np.int8), mask[:2], fv)
    with pytest.raises(ValueError, match="^y must"):
        genie_llr_rows(np.zeros(8, dtype=np.uint8), 1.0, fv)
    # a non-power-of-two length, and an information mask of the wrong length
    with pytest.raises(ValueError, match="^y must .* power of two"):
        decode_bec_rows(np.zeros((1, 6), dtype=np.int8), np.ones(6, dtype=bool), np.zeros(6, dtype=np.uint8))
    with pytest.raises(ValueError, match="^info_mask must"):
        decode_bec_rows(np.zeros((1, 8), dtype=np.int8), np.ones(4, dtype=bool), fv)
    with pytest.raises(ValueError, match="^info_mask must"):
        undetermined_bec_rows(np.zeros((2, 8), dtype=np.int8), np.ones((2, 8), dtype=bool))
    with pytest.raises(ValueError, match="^y must .* power of two"):
        undetermined_bec_rows(np.zeros(8, dtype=np.int8), mask)
    # one word of true bits serves every row; the genie's true bits must
    # cover the words, not run past them
    rng = np.random.default_rng(10)
    u = rng.integers(0, 2, 8, dtype=np.uint8)
    y = rng.integers(0, 2, (3, 8), dtype=np.uint8)
    assert np.array_equal(genie_llr_rows(y, 1.3, u), genie_llr_rows(y, 1.3, np.tile(u, (3, 1))))
    with pytest.raises(ValueError, match="^u_true must"):
        genie_llr_rows(np.zeros((3, 8), dtype=np.uint8), 1.0, np.zeros((2, 8), dtype=np.uint8))
    # true bits are 0 or 1, of an integer or bool dtype
    for bad in (np.array([2, 0, 0, 0]), np.array([[0, 1, 0, 0], [0, 0, -1, 0]]), np.zeros(4)):
        with pytest.raises(ValueError, match="^u_true must be 0 or 1"):
            genie_llr_rows(np.zeros((2, 4), dtype=np.uint8), 1.0, bad)
    assert not genie_llr_rows(np.zeros((2, 4), dtype=np.uint8), 1.0, np.zeros(4, dtype=bool)).any()
    with pytest.raises(ValueError, match="^y must"):
        undetermined_bec_rows(np.zeros((3, 6), dtype=np.int8), np.ones(6, dtype=bool))
    # frozen values are 0 or 1, of an integer or bool dtype: a 2 at a
    # frozen position, in one word or in one row of many, is rejected
    two = fv.copy()
    two[0] = 2
    per_row = np.zeros((2, 8), dtype=np.int8)
    per_row[1, 3] = -1
    words = np.zeros((2, 8), dtype=np.int8)
    for bad in (two, per_row, np.full(8, 0.5)):
        with pytest.raises(ValueError, match="^frozen_values must be 0 or 1"):
            decode_bec_rows(words, mask, bad)
    assert decode_bec_rows(words, mask, np.ones(8, dtype=bool))[0][:, :7].all()


def test_info_mask_values_checked():
    # The node rule counts information bits by summing the mask and the
    # leaves test its truth, so a 2 would let the rate-1 shortcut fire on a
    # half-frozen node; a float mask is rejected by its dtype.
    y = np.array([[0, 0, 0, 0], [1, 0, 1, 0]], dtype=np.int8)
    fv = np.array([1, 1, 0, 0], dtype=np.uint8)
    for bad in (np.array([0, 0, 2, 2]), np.array([0.0, 0.0, 1.0, 1.0])):
        with pytest.raises(ValueError, match="^info_mask must be 0 or 1"):
            decode_bec_rows(y, bad, fv)
        with pytest.raises(ValueError, match="^info_mask must be 0 or 1"):
            undetermined_bec_rows(y, bad)
    # an integer mask of 0s and 1s reads as the bool mask does
    mask = np.array([0, 0, 1, 1])
    assert_matches_bec_reference(y, mask, fv)
    for got, want in zip(decode_bec_rows(y, mask, fv), decode_bec_rows(y, mask.astype(bool), fv)):
        assert np.array_equal(got, want)
    assert np.array_equal(undetermined_bec_rows(y, mask), undetermined_bec_rows(y, mask.astype(bool)))
