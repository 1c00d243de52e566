import itertools

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from nestedpolar import sc
from nestedpolar.channels import RngStream, bec_sample_rows, bsc_llr_magnitude, bsc_sample_rows
from nestedpolar.construction import bec_reliability, select_info_set
from nestedpolar.polar import CodeParams, PolarCodeSpec, transform_rows
from nestedpolar.sc import (
    ERASED,
    LLR_CAP,
    decode_bec_rows,
    decode_llr_rows,
    genie_bec_rows,
    genie_llr_rows,
    undetermined_bec_rows,
)

from oracles import (
    bec_sc_reference,
    bitrev,
    genie_erased_bits,
    genie_llr_walk,
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


def llr_decode(spec, llr):
    return decode_llr_rows(llr, spec.info_mask, np.zeros(spec.N, dtype=np.uint8))


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


def test_llr_all_strong_zero_codeword():
    spec = PolarCodeSpec(CodeParams(3), [3, 5, 6, 7])
    u_hat, ties = llr_decode(spec, np.full((1, 8), LLR_CAP))
    assert np.array_equal(u_hat[0, spec.info_set], np.zeros(4))
    assert ties[0] == 0


def test_llr_agrees_with_bec_decoder():
    n, N = 6, 64
    info = select_info_set(bec_reliability(n, 0.25), 32)
    spec = PolarCodeSpec(CodeParams(n), info)
    _, y = sample_bec_trials(spec, 0.25, 42, 1000)
    hard, undet = bec_decode(spec, y)
    y = y[undet == 0]
    llr = np.where(y == ERASED, 0.0, (1.0 - 2.0 * y) * LLR_CAP)
    soft, _ = llr_decode(spec, llr)
    assert np.array_equal(soft[:, info], hard[undet == 0][:, info])
    assert len(y) > 500


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 3), nbatch=st.integers(1, 8), data=st.data())
def test_llr_matches_sequential_ml_reference(n, nbatch, data):
    # a random information set, frozen values per row, and LLRs rounded to 3
    # decimals: exact ties, which integer LLRs make often, can fall either
    # way in the check combine
    N = 1 << n
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=N, max_size=N), label="mask"))
    fv = np.array(data.draw(st.lists(st.lists(st.integers(0, 1), min_size=N, max_size=N),
                                     min_size=nbatch, max_size=nbatch), label="frozen"), dtype=np.uint8)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    llrs = np.round(rng.normal(0, 2, (nbatch, N)), 3)
    u_hat, _ = decode_llr_rows(llrs, mask, fv)
    assert np.array_equal(u_hat, [sequential_ml_decode(l, mask, f) for l, f in zip(llrs, fv)])


def test_genie_bec_rows_match_recoverability_oracle():
    patterns = np.array(list(itertools.product([False, True], repeat=8)))
    u = np.random.default_rng(4).integers(0, 2, patterns.shape, dtype=np.uint8)
    y = np.where(patterns, np.int8(ERASED), transform_rows(u).astype(np.int8))
    expected = np.array([genie_erased_bits(p) for p in patterns])
    assert np.array_equal(genie_bec_rows(y), expected)


def test_genie_bec_rows_match_recoverability_oracle_random_patterns():
    rng = np.random.default_rng(5)
    # batches of 63 to 129 rows straddle the 64-row words of the erasure planes
    for n, count in ((1, 4), (2, 6), (3, 6), (4, 8), (5, 8), (6, 4),
                     (1, 63), (2, 64), (3, 65), (3, 129), (7, 65), (8, 20), (9, 6), (10, 3)):
        N = 1 << n
        erased = rng.random((count, N)) < rng.random((count, 1))
        u = rng.integers(0, 2, (count, N), dtype=np.uint8)
        y = np.where(erased, np.int8(ERASED), transform_rows(u).astype(np.int8))
        expected = np.array([genie_erased_bits(p) for p in erased])
        assert np.array_equal(genie_bec_rows(y), expected)


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
            assert np.array_equal(genie_bec_rows(y)[:, mask].sum(axis=1), undet)
            counts = undetermined_bec_rows(y, mask)
            assert counts.dtype == np.int64 and np.array_equal(counts, undet)


def test_empty_batches():
    N = 16
    y = np.zeros((0, N), dtype=np.int8)
    u_hat, undet = decode_bec_rows(y, np.ones(N, dtype=bool), np.zeros(N, dtype=np.uint8))
    assert u_hat.shape == (0, N) and u_hat.dtype == np.uint8
    assert undet.shape == (0,) and undet.dtype == np.int64
    flags = genie_bec_rows(y)
    assert flags.shape == (0, N) and flags.dtype == bool
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
            genie_bec_rows(y)
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


def count_check_nodes(monkeypatch, y, mask):
    # count the check combines of whatever the erasure decoder hands the walk
    walk = sc._sc_walk
    calls = []

    def counting_walk(msgs, f, g, leaf, node=None):
        def counting(a, b):
            calls.append(a.shape[0])
            return f(a, b)

        return walk(msgs, counting, g, leaf, node)

    monkeypatch.setattr(sc, "_sc_walk", counting_walk)
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


def test_genie_llr_rows_match_sequential_ml_reference():
    # genie SC at bit i is the ML decision of bit-channel i given the true
    # past: sequential ML with only bit i unfrozen and the true bits frozen
    rng = np.random.default_rng(21)
    llr = np.round(rng.normal(0, 2, (64, 4)), 3)
    llr[rng.random(llr.shape) < 0.25] = 0.0  # exact ties
    u = rng.integers(0, 2, llr.shape, dtype=np.uint8)
    ml = np.array([
        [sequential_ml_decode(llr[r], np.arange(4) == i, u[r])[i] for i in range(4)]
        for r in range(llr.shape[0])
    ])
    assert np.array_equal(genie_llr_rows(llr, u), ml != u)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 8),
    nbatch=st.integers(0, 600),
    p=st.sampled_from([0.0, 0.5, None]),
    per_row=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_genie_llr_rows_match_tree_walk(n, nbatch, p, per_row, seed):
    # BSC LLRs take two values +-L (+-0.0 at p = 1/2), so the genie's top
    # levels run on codes into a table of distinct values; how many levels
    # depends on N and the batch size.  Its flags must equal the walk's bit
    # for bit, and so must those of continuous LLRs, which take the float
    # levels from the root.
    rng = np.random.default_rng(seed)
    N = 1 << n
    crossover = rng.uniform(0.0, 0.5) if p is None else p
    u = rng.integers(0, 2, (nbatch, N) if per_row else N, dtype=np.uint8)
    llr = bsc_sample_rows(transform_rows(np.broadcast_to(u, (nbatch, N))), crossover, rng)
    assert set(np.abs(llr).ravel()) <= {bsc_llr_magnitude(crossover)}
    assert np.array_equal(genie_llr_rows(llr, u), genie_llr_walk(llr, u))
    llr = rng.normal(0.0, 2.0, (nbatch, N))
    assert np.array_equal(genie_llr_rows(llr, u), genie_llr_walk(llr, u))


def test_genie_llr_rows_edge_cases():
    # an empty batch has no LLR to scan
    flags = genie_llr_rows(np.zeros((0, 8)), np.zeros(8, dtype=np.uint8))
    assert flags.shape == (0, 8) and flags.dtype == bool
    # N = 1: the leaf is the channel, and -0.0 decides 0
    llr = np.array([[-1.0], [2.0], [0.0], [-0.0]])
    assert genie_llr_rows(llr, np.array([[1], [1], [0], [1]])).ravel().tolist() == [False, True, False, True]
    assert genie_llr_rows(llr[:2], np.array([0])).ravel().tolist() == [True, False]
    # a non-finite LLR is rejected on the two-valued path too
    for bad in (np.full((3, 4), np.inf), np.array([[-np.inf, np.inf]] * 2), np.full((2, 2), np.nan)):
        with pytest.raises(ValueError, match="^LLR values must be finite"):
            genie_llr_rows(bad, np.zeros(bad.shape[1], dtype=np.uint8))
    # the caller's array is left alone, whatever its layout
    rng = np.random.default_rng(12)
    u = rng.integers(0, 2, (300, 64), dtype=np.uint8)
    for llr in (bsc_sample_rows(transform_rows(u), 0.11, rng), rng.normal(0, 2, (300, 64))):
        for arr in (llr, np.asfortranarray(llr)):
            before = arr.copy()
            assert np.array_equal(genie_llr_rows(arr, u), genie_llr_walk(before, u))
            assert np.array_equal(arr, before) and np.array_equal(np.signbit(arr), np.signbit(before))


def test_llr_tie_decides_zero():
    spec = PolarCodeSpec(CodeParams(2), np.arange(4))
    u_hat, ties = llr_decode(spec, np.zeros((1, 4)))
    assert np.array_equal(u_hat[0], np.zeros(4))
    assert ties[0] == 4


def test_llr_inputs_must_be_finite_and_are_clamped():
    mask, fv = np.ones(4, dtype=bool), np.zeros(4, dtype=np.uint8)
    with pytest.raises(ValueError, match="finite"):
        decode_llr_rows(np.array([[np.inf, 1.0, 1.0, 1.0]]), mask, fv)
    with pytest.raises(ValueError, match="finite"):
        decode_llr_rows(np.array([[1.0, 1.0], [np.nan, 1.0]]), mask[:2], fv[:2])
    # the genie uses LLRs unclamped, but not unchecked
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            genie_llr_rows(np.array([[1.0, 1.0], [1.0, bad]]), fv[:2])
    # Beyond the cap only the sign counts.  Unclamped, unequal magnitudes
    # break the ties the cap makes, and +-1e308 overflows the combines.
    rng = np.random.default_rng(9)
    signs = rng.choice([-1.0, 1.0], size=(32, 8))
    mags = np.concatenate([np.full((2, 8), 1e300), np.full((2, 8), 1e308),
                           10.0 ** rng.uniform(2, 300, (28, 8))])
    spec = PolarCodeSpec(CodeParams(3), [3, 5, 6, 7])
    huge = signs * mags
    got = llr_decode(spec, huge)
    capped = llr_decode(spec, signs * LLR_CAP)
    for g, c in zip(got, capped):
        assert np.array_equal(g, c)
    assert np.array_equal(huge, signs * mags)  # the caller's array is left alone


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
    with pytest.raises(ValueError, match="^llr must"):
        decode_llr_rows(np.zeros(8), mask, fv)
    # a non-power-of-two length, and an information mask of the wrong length
    with pytest.raises(ValueError, match="^y must .* power of two"):
        decode_bec_rows(np.zeros((1, 6), dtype=np.int8), np.ones(6, dtype=bool), np.zeros(6, dtype=np.uint8))
    with pytest.raises(ValueError, match="^info_mask must"):
        decode_bec_rows(np.zeros((1, 8), dtype=np.int8), np.ones(4, dtype=bool), fv)
    with pytest.raises(ValueError, match="^info_mask must"):
        undetermined_bec_rows(np.zeros((2, 8), dtype=np.int8), np.ones((2, 8), dtype=bool))
    with pytest.raises(ValueError, match="^y must .* power of two"):
        undetermined_bec_rows(np.zeros(8, dtype=np.int8), mask)
    with pytest.raises(ValueError, match="^info_mask must"):
        decode_llr_rows(np.zeros((3, 8)), np.ones((3, 8), dtype=bool), fv)
    with pytest.raises(ValueError, match="^frozen_values must"):
        decode_llr_rows(np.zeros((2, 8)), mask, np.zeros((3, 8), dtype=np.uint8))
    # one word of true bits serves every row; the genie's true bits must
    # cover the words, not run past them
    rng = np.random.default_rng(10)
    u = rng.integers(0, 2, 8, dtype=np.uint8)
    llr = rng.normal(0, 2, (3, 8))
    assert np.array_equal(genie_llr_rows(llr, u), genie_llr_rows(llr, np.tile(u, (3, 1))))
    with pytest.raises(ValueError, match="^u_true must"):
        genie_llr_rows(np.zeros((3, 8)), np.zeros((2, 8), dtype=np.uint8))
    # true bits are 0 or 1, of an integer or bool dtype
    for bad in (np.array([2, 0, 0, 0]), np.array([[0, 1, 0, 0], [0, 0, -1, 0]]), np.zeros(4)):
        with pytest.raises(ValueError, match="^u_true must be 0 or 1"):
            genie_llr_rows(np.ones((2, 4)), bad)
    assert not genie_llr_rows(np.ones((2, 4)), np.zeros(4, dtype=bool)).any()
    with pytest.raises(ValueError, match="^y must"):
        genie_bec_rows(np.zeros((3, 6), dtype=np.int8))
    # frozen values are 0 or 1, of an integer or bool dtype: a 2 at a
    # frozen position, in one word or in one row of many, is rejected
    two = fv.copy()
    two[0] = 2
    per_row = np.zeros((2, 8), dtype=np.int8)
    per_row[1, 3] = -1
    for decode, words in ((decode_bec_rows, np.zeros((2, 8), dtype=np.int8)), (decode_llr_rows, np.zeros((2, 8)))):
        for bad in (two, per_row, np.full(8, 0.5)):
            with pytest.raises(ValueError, match="^frozen_values must be 0 or 1"):
                decode(words, mask, bad)
        assert decode(words, mask, np.ones(8, dtype=bool))[0][:, :7].all()
