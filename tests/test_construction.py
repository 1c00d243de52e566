import tracemalloc
from unittest import mock

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from nestedpolar import construction, sc
from nestedpolar.channels import RngStream, bec_sample_rows
from nestedpolar.construction import (
    BSC,
    ReliabilityProfile,
    bec_reliability,
    mc_reliability,
    select_info_set,
    select_secure_subset,
)
from nestedpolar.polar import CodeParams, transform_rows
from nestedpolar.sc import undetermined_bec_rows

from oracles import exhaustive_bec_bitchannel_z, mc_reliability_whole_chunks


def test_bec_reliability_base_cases():
    assert np.array_equal(bec_reliability(0, 0.3).z, [0.3])
    assert np.allclose(bec_reliability(1, 0.5).z, [0.75, 0.25], atol=1e-15)
    assert bec_reliability(2, 0.0).z.sum() == 0.0
    assert bec_reliability(2, 1.0).z.sum() == 4.0


def test_bec_reliability_matches_exhaustive_enumeration():
    for eps in (0.25, 0.5):
        oracle = exhaustive_bec_bitchannel_z(3, eps)
        assert np.allclose(bec_reliability(3, eps).z, oracle, atol=1e-12)


def test_bec_reliability_validates():
    with pytest.raises(ValueError, match="^erasure_prob must be in"):
        bec_reliability(3, 1.5)
    # a bool is not a probability, nor is a string
    for bad in (True, False, "0.5", None):
        with pytest.raises(ValueError, match="^erasure_prob must be a real number"):
            bec_reliability(3, bad)
    assert np.array_equal(bec_reliability(3, 1).z, bec_reliability(3, 1.0).z)
    with pytest.raises(ValueError, match="^n must be in"):
        bec_reliability(-1, 0.5)


def test_bec_reliability_checks_n_before_the_recursion():
    # n = 22 would build 2^22 values (tens of MB) before the check
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^n must be in"):
            bec_reliability(22, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_bsc_construction_builds_no_float_llr_batch():
    # one 3906-row chunk at n=10 (18.6 MB): no (batch, N) float64 array is
    # built, and the flips and the genie's passes over its codes go a block
    # at a time.  The chunk holds its inputs u (4 MB); each of its two
    # 1953-row genie batches holds y, the true bits and the flags (2 MB
    # each) and the uint16 codes (4 MB)
    mc_reliability(BSC(0.11), 10, 3906, 2)  # warm-up: imports and caches
    tracemalloc.start()
    try:
        mc_reliability(BSC(0.11), 10, 3906, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20


def test_n10_genie_batches_run_five_code_levels(monkeypatch):
    # the batch of half an n=10 chunk still runs the genie's levels 0-4 on
    # codes; a smaller one would move level 4 to the float path, about 10%
    # slower
    real = sc._genie_code_level
    levels = []

    def counting(codes, x, table, d):
        levels.append((codes.shape[1], d))
        return real(codes, x, table, d)

    monkeypatch.setattr(sc, "_genie_code_level", counting)
    chunk = construction._CHUNK_POSITIONS // 1024
    batch = construction._genie_batch_rows(chunk)
    mc_reliability(BSC(0.11), 10, chunk, 1)
    assert levels == [(rows, d) for rows in (batch, chunk - batch) for d in range(5)]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 6),
    trials=st.integers(1, 200),
    chunk_rows=st.integers(1, 70),
    batch_rows=st.integers(1, 80),
    p=st.sampled_from([0.0, 0.5, None]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=4, trials=150, chunk_rows=64, batch_rows=1, p=None, seed=3)
def test_batched_construction_equals_whole_chunks(n, trials, chunk_rows, batch_rows, p, seed):
    # genie batches down to one row, uneven last batches and runs over many
    # chunks: z must equal that of one genie call per chunk bit for bit
    N = 1 << n
    crossover = np.random.default_rng(seed).uniform(0.0, 0.5) if p is None else p
    with (mock.patch.object(construction, "_CHUNK_POSITIONS", chunk_rows * N),
          mock.patch.object(construction, "_genie_batch_rows", lambda chunk: batch_rows)):
        z = mc_reliability(BSC(crossover), n, trials, seed).z
    assert np.array_equal(z, mc_reliability_whole_chunks(crossover, n, trials, seed, chunk_rows * N))


def test_batched_construction_spans_default_chunks():
    # the default chunks and batches, one row past a chunk at n=10 and at
    # n=3
    for n, trials in ((10, 3907), (3, 500_001)):
        z = mc_reliability(BSC(0.11), n, trials, 4).z
        assert np.array_equal(z, mc_reliability_whole_chunks(0.11, n, trials, 4))


def test_mean_preservation():
    for n in range(1, 13):
        for eps in (0.1, 0.25, 0.5):
            assert abs(bec_reliability(n, eps).z.mean() - eps) <= 1e-12


def test_degradation_monotonicity():
    for n in range(1, 13):
        z_m = bec_reliability(n, 0.25).z
        z_w = bec_reliability(n, 0.5).z
        assert np.all(z_w >= z_m - 1e-12)


def test_polarization_trend():
    fractions = [(bec_reliability(n, 0.5).z < 0.01).mean() for n in (6, 8, 10, 12)]
    assert np.all(np.diff(fractions) >= 0)
    assert fractions[-1] > 0.40


def test_select_info_set_basics():
    profile = bec_reliability(1, 0.5)
    assert select_info_set(profile, 0).size == 0
    assert np.array_equal(select_info_set(profile, 1), [1])
    with pytest.raises(ValueError):
        select_info_set(profile, 3)
    for k in (True, 1.5, 2.0, "1", None):
        with pytest.raises(ValueError, match="^k must be an integer"):
            select_info_set(profile, k)


def test_select_info_set_matches_oracle_order():
    oracle = exhaustive_bec_bitchannel_z(3, 0.5)
    profile = bec_reliability(3, 0.5)
    for k in range(9):
        expected = np.sort(np.argsort(oracle, kind="stable")[:k])
        assert np.array_equal(select_info_set(profile, k), expected)


def test_select_info_set_tie_break_toward_smaller_index():
    profile = bec_reliability(3, 0.0)  # all-zero z: pure tie
    assert np.array_equal(select_info_set(profile, 3), [0, 1, 2])


def test_select_secure_subset():
    main = bec_reliability(3, 0.25)
    wire = bec_reliability(3, 0.5)
    info = select_info_set(main, 5)
    assert select_secure_subset(info, wire, 0).size == 0
    assert np.array_equal(select_secure_subset(info, wire, 5), info)
    chosen = select_secure_subset(info, wire, 3)
    # hand selection from the exhaustive oracle values
    oracle = exhaustive_bec_bitchannel_z(3, 0.5)
    expected = np.sort(info[np.argsort(oracle[info], kind="stable")[:3]])
    assert np.array_equal(chosen, expected)
    with pytest.raises(ValueError):
        select_secure_subset(info, wire, 6)
    for b in (True, 1.5, 2.0, "1", None):
        with pytest.raises(ValueError, match="^b must be an integer"):
            select_secure_subset(info, wire, b)
    with pytest.raises(ValueError, match="^b must be at least 0"):
        select_secure_subset(info, wire, -1)


def test_profile_rejects_values_outside_unit_interval():
    # NaN fails every comparison, so it must fail the range check too
    for bad in ([np.nan, 0.1], [0.1, np.nan], [-0.1, 0.5], [0.5, 1.5], [np.inf, 0.0]):
        with pytest.raises(ValueError, match=r"^profile values must lie in \[0, 1\]"):
            ReliabilityProfile(CodeParams(1), np.array(bad), exact=False)
    assert ReliabilityProfile(CodeParams(1), [1.0, 0.0], exact=False).order.tolist() == [1, 0]


def test_selection_reads_stable_order_under_heavy_ties():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(0, 8))
        N = 1 << n
        z = rng.integers(0, 5, N) / 4  # quarter grid: many exact ties
        profile = ReliabilityProfile(CodeParams(n), z, exact=False)
        assert np.array_equal(profile.order, np.argsort(z, kind="stable"))
        with pytest.raises(ValueError):
            profile.order[0] = 0
        info = np.flatnonzero(rng.random(N) < 0.6)
        b = int(rng.integers(0, info.size + 1))
        expected = np.sort(info[np.argsort(z[info], kind="stable")[:b]])
        assert np.array_equal(select_secure_subset(info, profile, b), expected)
        k = int(rng.integers(0, N + 1))
        assert np.array_equal(select_info_set(profile, k), np.sort(np.argsort(z, kind="stable")[:k]))


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        BSC(-0.1)
    with pytest.raises(ValueError):
        BSC(0.6)
    for bad in (False, True, "0.1", None):
        with pytest.raises(ValueError, match="^crossover probability must be a real number"):
            BSC(bad)
    assert BSC(0).crossover_prob == 0 and BSC(np.float32(0.25)).crossover_prob == 0.25
    # the Monte-Carlo sizes are integers, numpy's included
    for bad in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="^trials must be an integer"):
            mc_reliability(BSC(0.11), 3, bad, 0)
        with pytest.raises(ValueError, match="^n must be an integer"):
            mc_reliability(BSC(0.11), bad, 2, 0)
    # so is the seed, a 64-bit unsigned integer, checked before any draw
    for bad in (1.5, True, -1, 2**64):
        with pytest.raises(ValueError, match="^seed must be"):
            mc_reliability(BSC(0.11), 3, 2, bad)
    assert mc_reliability(BSC(0.11), np.int64(3), np.int32(2), 0).z.shape == (8,)


def test_mc_reliability_bec_tracks_exact_recursion():
    # The genie erasure frequency is the Monte-Carlo estimate of the exact
    # BEC recursion's z, one erased-message indicator per bit-channel.
    rng = RngStream(1, 0).generator()
    u = rng.integers(0, 2, size=(100_000, 16), dtype=np.uint8)
    y = bec_sample_rows(transform_rows(u), 0.5, rng)
    freq = np.array([undetermined_bec_rows(y, np.arange(16) == i).mean() for i in range(16)])
    assert np.all(np.abs(freq - bec_reliability(4, 0.5).z) < 0.02)


def test_mc_reliability_noiseless_bsc():
    est = mc_reliability(BSC(0.0), 5, trials=500, seed=0)
    assert not est.exact
    assert est.z.sum() == 0.0


def test_mc_reliability_deterministic():
    a = mc_reliability(BSC(0.11), 5, trials=4000, seed=9)
    b = mc_reliability(BSC(0.11), 5, trials=4000, seed=9)
    assert np.array_equal(a.z, b.z)


@pytest.mark.slow
def test_mc_reliability_bsc_capacity_band():
    # capacity of BSC(0.11) is about one half, so roughly half the
    # bit-channels should look clean at n=10
    est = mc_reliability(BSC(0.11), 10, trials=100_000, seed=2)
    frac = (est.z < 0.01).mean()
    assert 0.3 < frac < 0.6
