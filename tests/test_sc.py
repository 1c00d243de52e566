import itertools

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from nestedpolar import sc
from nestedpolar.channels import RngStream, bec_sample
from nestedpolar.construction import bec_reliability, select_info_set
from nestedpolar.gf2 import BitVector
from nestedpolar.polar import CodeParams, PolarCodeSpec, encode, polar_transform, transform_rows
from nestedpolar.sc import (
    ERASED,
    LLR_CAP,
    ReceivedWord,
    decode_bec_rows,
    decode_llr_rows,
    genie_bec_rows,
    genie_llr_rows,
    sc_decode_bec,
    sc_decode_llr,
)

from oracles import bec_sc_reference, bitrev, genie_erased_bits, sequential_ml_decode


def random_spec(n, k, rng):
    info = np.sort(rng.choice(1 << n, size=k, replace=False))
    return PolarCodeSpec.zero_frozen(CodeParams(n), info)


def test_received_word_validation():
    with pytest.raises(ValueError):
        ReceivedWord.from_symbols([0, 1, 3])
    with pytest.raises(ValueError):
        ReceivedWord.from_llrs([0.0, np.inf])
    w = ReceivedWord.from_symbols([0, 1, ERASED])
    assert np.array_equal(w.erased_mask(), [False, False, True])


def test_noiseless_round_trip_inverts():
    rng = np.random.default_rng(0)
    for n in (2, 4, 6):
        spec = random_spec(n, (1 << n) // 2, rng)
        msg = BitVector(rng.integers(0, 2, spec.info_len, dtype=np.uint8))
        x = encode(spec, msg)
        res = sc_decode_bec(spec, ReceivedWord.from_symbols(x.bits.astype(np.int8)))
        assert res.undetermined_count == 0
        assert res.info_bits == msg
        assert polar_transform(res.u_hat) == x


def test_all_erased_returns_zero_guesses():
    spec = PolarCodeSpec.zero_frozen(CodeParams(3), [3, 5, 6, 7])
    y = ReceivedWord.from_symbols(np.full(8, ERASED, dtype=np.int8))
    res = sc_decode_bec(spec, y)
    assert res.undetermined_count == 4
    assert np.array_equal(res.info_bits.bits, np.zeros(4))


def test_frozen_positions_always_output_frozen_values():
    rng = np.random.default_rng(8)
    frozen = np.array([1, 0, 1, 1, 0, 0, 0, 0], dtype=np.uint8)
    spec = PolarCodeSpec(CodeParams(3), [5, 6, 7], frozen)
    for _ in range(20):
        y = rng.choice(np.array([0, 1, ERASED], dtype=np.int8), size=8)
        res = sc_decode_bec(spec, ReceivedWord.from_symbols(y))
        assert np.array_equal(res.u_hat.bits[:5], frozen[:5])


def test_bec_consistency_when_fully_determined():
    # whenever nothing stayed undetermined the re-encoded word must match
    # every unerased received symbol
    info = select_info_set(bec_reliability(4, 0.3), 6)
    spec = PolarCodeSpec.zero_frozen(CodeParams(4), info)
    hits = 0
    for t in range(200):
        g = RngStream(50, t).generator()
        msg = BitVector(g.integers(0, 2, 6, dtype=np.uint8))
        x = encode(spec, msg)
        y = bec_sample(x, 0.3, g)
        res = sc_decode_bec(spec, y)
        if res.undetermined_count == 0:
            hits += 1
            re_encoded = polar_transform(res.u_hat)
            keep = ~y.erased_mask()
            assert np.array_equal(re_encoded.bits[keep], y.values[keep])
    assert hits > 20


def test_block_error_rate_within_union_bound():
    n, eps, trials = 3, 0.25, 10_000
    profile = bec_reliability(n, eps)
    info = select_info_set(profile, 4)
    spec = PolarCodeSpec.zero_frozen(CodeParams(n), info)
    bound = profile.z[info].sum()
    errors = 0
    for t in range(trials):
        g = RngStream(77, t).generator()
        msg = BitVector(g.integers(0, 2, 4, dtype=np.uint8))
        y = bec_sample(encode(spec, msg), eps, g)
        if sc_decode_bec(spec, y).info_bits != msg:
            errors += 1
    sigma = np.sqrt(bound * (1 - bound) / trials)
    assert errors / trials <= bound + 3 * sigma


def test_llr_all_strong_zero_codeword():
    spec = PolarCodeSpec.zero_frozen(CodeParams(3), [3, 5, 6, 7])
    res = sc_decode_llr(spec, ReceivedWord.from_llrs(np.full(8, LLR_CAP)))
    assert np.array_equal(res.info_bits.bits, np.zeros(4))
    assert res.undetermined_count == 0


def test_llr_agrees_with_bec_decoder():
    n, N = 6, 64
    info = select_info_set(bec_reliability(n, 0.25), 32)
    spec = PolarCodeSpec.zero_frozen(CodeParams(n), info)
    checked = 0
    for t in range(1000):
        g = RngStream(42, t).generator()
        msg = BitVector(g.integers(0, 2, 32, dtype=np.uint8))
        y = bec_sample(encode(spec, msg), 0.25, g)
        hard = sc_decode_bec(spec, y)
        if hard.undetermined_count:
            continue
        checked += 1
        llr = np.where(y.values == ERASED, 0.0, (1.0 - 2.0 * y.values) * LLR_CAP)
        soft = sc_decode_llr(spec, ReceivedWord.from_llrs(llr))
        assert soft.info_bits == hard.info_bits
    assert checked > 500


def test_llr_matches_sequential_ml_reference():
    rng = np.random.default_rng(13)
    for trial in range(40):
        k = int(rng.integers(1, 5))
        info = np.sort(rng.choice(4, size=k, replace=False))
        frozen = np.zeros(4, dtype=np.uint8)
        for i in np.setdiff1d(np.arange(4), info):
            frozen[i] = rng.integers(0, 2)
        spec = PolarCodeSpec(CodeParams(2), info, frozen)
        llrs = np.round(rng.normal(0, 2, 4), 3)  # keep magnitudes moderate
        got = sc_decode_llr(spec, ReceivedWord.from_llrs(llrs))
        expected = sequential_ml_decode(llrs, spec.info_mask, spec.frozen_template)
        assert np.array_equal(got.u_hat.bits, expected)
    # whole batches with per-row frozen values; LLRs are rounded to 3
    # decimals, because exact ties among integer LLRs can fall either way
    for n in (1, 2, 3):
        N = 1 << n
        for _ in range(4):
            mask = rng.random(N) < rng.random()
            fv = rng.integers(0, 2, (12, N), dtype=np.uint8)
            llrs = np.round(rng.normal(0, 2, (12, N)), 3)
            u_hat, _ = decode_llr_rows(llrs, mask, fv)
            expected = [sequential_ml_decode(l, mask, f) for l, f in zip(llrs, fv)]
            assert np.array_equal(u_hat, expected)


def test_genie_bec_rows_match_recoverability_oracle():
    patterns = np.array(list(itertools.product([False, True], repeat=8)))
    u = np.random.default_rng(4).integers(0, 2, patterns.shape, dtype=np.uint8)
    y = np.where(patterns, np.int8(ERASED), transform_rows(u).astype(np.int8))
    expected = np.array([genie_erased_bits(p) for p in patterns])
    assert np.array_equal(genie_bec_rows(y, u), expected)


def test_genie_bec_rows_match_recoverability_oracle_random_patterns():
    rng = np.random.default_rng(5)
    # batches of 63 to 129 rows straddle the 64-row words of the erasure planes
    for n, count in ((1, 4), (2, 6), (3, 6), (4, 8), (5, 8), (6, 4),
                     (1, 63), (2, 64), (3, 65), (3, 129)):
        N = 1 << n
        erased = rng.random((count, N)) < rng.random((count, 1))
        u = rng.integers(0, 2, (count, N), dtype=np.uint8)
        y = np.where(erased, np.int8(ERASED), transform_rows(u).astype(np.int8))
        expected = np.array([genie_erased_bits(p) for p in erased])
        assert np.array_equal(genie_bec_rows(y, u), expected)


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


def test_llr_tie_decides_zero():
    spec = PolarCodeSpec.zero_frozen(CodeParams(2), np.arange(4))
    res = sc_decode_llr(spec, ReceivedWord.from_llrs(np.zeros(4)))
    assert np.array_equal(res.u_hat.bits, np.zeros(4))
    assert res.undetermined_count == 4


def test_decoders_are_deterministic():
    spec = PolarCodeSpec.zero_frozen(CodeParams(4), np.arange(0, 16, 2))
    y = ReceivedWord.from_symbols(
        np.resize(np.array([0, 1, ERASED], dtype=np.int8), 16)
    )
    a = sc_decode_bec(spec, y)
    b = sc_decode_bec(spec, y)
    assert a.u_hat == b.u_hat and a.undetermined_count == b.undetermined_count


def test_word_length_checked():
    spec = PolarCodeSpec.zero_frozen(CodeParams(3), [7])
    with pytest.raises(ValueError):
        sc_decode_bec(spec, ReceivedWord.from_symbols([0, 1]))
    with pytest.raises(ValueError):
        sc_decode_llr(spec, ReceivedWord.from_symbols([0] * 8))
