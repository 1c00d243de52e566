import itertools

import numpy as np
import pytest

from nestedpolar import wiretap
from nestedpolar.channels import RngStream, bec_sample
from nestedpolar.construction import bec_reliability, select_info_set, select_secure_subset
from nestedpolar.gf2 import BitVector, rank
from nestedpolar.polar import CodeParams, generator_matrix
from nestedpolar.sc import ERASED, ReceivedWord
from nestedpolar.wiretap import (
    NestedCodeSpec,
    WiretapConfig,
    alice_encode,
    bob_decode,
    build_wiretap_code,
    equivocation_bruteforce,
    equivocation_rank,
    parity_checks,
    run_wiretap_experiment,
)

from oracles import (
    exhaustive_bec_bitchannel_z,
    naive_rank,
    naive_vec_mat_mul,
    reference_generator,
)


def toy_code(ka=5, kb=3):
    info = select_info_set(bec_reliability(3, 0.25), ka)
    secure = select_secure_subset(info, bec_reliability(3, 0.5), kb)
    return NestedCodeSpec(CodeParams(3), info, secure)


def random_code(rng, n, ka, kb):
    """Nested code with a uniformly drawn A of size ka and B ⊂ A of size kb."""
    info = np.sort(rng.choice(1 << n, ka, replace=False))
    secure = np.sort(rng.choice(info, kb, replace=False))
    return NestedCodeSpec(CodeParams(n), info, secure)


def test_nested_spec_validation():
    with pytest.raises(ValueError):
        NestedCodeSpec(CodeParams(2), [0, 1], [2])
    code = NestedCodeSpec(CodeParams(2), [1, 2, 3], [3])
    assert np.array_equal(code.message_set, [1, 2])
    assert code.randomization_len == 1


def test_config_validation():
    with pytest.raises(ValueError):
        WiretapConfig(e_m=0.5, e_w=0.25, rate=0.1, n=3, trials=1, seed=0)
    with pytest.raises(ValueError):
        WiretapConfig(e_m=0.1, e_w=0.2, rate=1.0, n=3, trials=1, seed=0)


def test_build_degenerate_zero_rate():
    cfg = WiretapConfig(e_m=0.25, e_w=0.25, rate=0.0, n=4, trials=1, seed=0)
    code = build_wiretap_code(cfg)
    assert code.message_len == 0


def test_build_design_point_sizes():
    cfg = WiretapConfig(e_m=0.25, e_w=0.5, rate=0.25, n=10, trials=1, seed=0)
    code = build_wiretap_code(cfg)
    assert code.randomization_len == 512
    assert code.info_set.size == 768


def test_build_infeasible():
    # rate above the main-channel capacity makes |B| negative
    with pytest.raises(ValueError):
        build_wiretap_code(WiretapConfig(e_m=0.5, e_w=0.5, rate=0.75, n=3, trials=1, seed=0))


def test_build_matches_oracle_selection():
    cfg = WiretapConfig(e_m=0.25, e_w=0.5, rate=0.25, n=3, trials=1, seed=0)
    code = build_wiretap_code(cfg)
    z_main = exhaustive_bec_bitchannel_z(3, 0.25)
    z_wire = exhaustive_bec_bitchannel_z(3, 0.5)
    info = np.sort(np.argsort(z_main, kind="stable")[:6])
    secure = np.sort(info[np.argsort(z_wire[info], kind="stable")[:4]])
    assert np.array_equal(code.info_set, info)
    assert np.array_equal(code.secure_set, secure)


def test_alice_encode_zero_and_linearity():
    code = toy_code()
    z = alice_encode(code, BitVector([0, 0]), BitVector([0, 0, 0]))
    assert np.array_equal(z.bits, np.zeros(8))
    rng = np.random.default_rng(14)
    for _ in range(20):
        s1, s2 = (BitVector(rng.integers(0, 2, 2, dtype=np.uint8)) for _ in range(2))
        t1, t2 = (BitVector(rng.integers(0, 2, 3, dtype=np.uint8)) for _ in range(2))
        lhs = alice_encode(code, s1 ^ s2, t1 ^ t2)
        rhs = alice_encode(code, s1, t1) ^ alice_encode(code, s2, t2)
        assert lhs == rhs


def test_alice_encode_fixed_message_spans_a_coset():
    code = toy_code()
    g = generator_matrix(3).entries
    g_b = g[code.secure_set]
    g_msg = g[code.message_set]
    s = np.array([1, 0], dtype=np.uint8)
    base = naive_vec_mat_mul(s, g_msg)
    explicit = {
        (base ^ naive_vec_mat_mul(np.array(t, dtype=np.uint8), g_b)).astype(np.uint8).tobytes()
        for t in itertools.product([0, 1], repeat=3)
    }
    encoded = {
        alice_encode(code, BitVector(s), BitVector(t)).bits.tobytes()
        for t in itertools.product([0, 1], repeat=3)
    }
    assert encoded == explicit


def test_alice_encode_length_checks():
    code = toy_code()
    with pytest.raises(ValueError):
        alice_encode(code, BitVector([1]), BitVector([0, 0, 0]))
    with pytest.raises(ValueError):
        alice_encode(code, BitVector([1, 0]), BitVector([0]))


def test_bob_decodes_noiseless():
    code = toy_code()
    rng = np.random.default_rng(15)
    for _ in range(20):
        s = BitVector(rng.integers(0, 2, 2, dtype=np.uint8))
        t = BitVector(rng.integers(0, 2, 3, dtype=np.uint8))
        x = alice_encode(code, s, t)
        assert bob_decode(code, ReceivedWord.from_symbols(x.bits.astype(np.int8))) == s


def test_bob_all_erased_guesses():
    code = toy_code()
    y = ReceivedWord.from_symbols(np.full(8, ERASED, dtype=np.int8))
    rng = np.random.default_rng(16)
    errors = sum(
        bob_decode(code, y) != BitVector(rng.integers(0, 2, 2, dtype=np.uint8))
        for _ in range(400)
    )
    # random guess of 2 bits is right 1/4 of the time
    assert abs(errors / 400 - 0.75) < 0.08


def test_bob_error_rate_within_union_bound():
    cfg = WiretapConfig(e_m=0.25, e_w=0.5, rate=0.25, n=6, trials=1, seed=0)
    code = build_wiretap_code(cfg)
    profile = bec_reliability(6, 0.25)
    bound = min(1.0, profile.z[code.info_set].sum())
    trials, errors = 400, 0
    for t in range(trials):
        g = RngStream(31, t).generator()
        s = BitVector(g.integers(0, 2, code.message_len, dtype=np.uint8))
        tt = BitVector(g.integers(0, 2, code.randomization_len, dtype=np.uint8))
        y = bec_sample(alice_encode(code, s, tt), 0.25, g)
        errors += bob_decode(code, y) != s
    sigma = np.sqrt(bound * (1 - bound) / trials) if bound < 1 else 0.0
    assert errors / trials <= bound + 3 * sigma


def test_parity_checks_trivial():
    full = NestedCodeSpec(CodeParams(2), np.arange(4), np.arange(4))
    h, h_s = parity_checks(full)
    assert h.rows == 0 and h_s.rows == 0
    empty_sub = NestedCodeSpec(CodeParams(2), np.arange(4), [])
    h, h_s = parity_checks(empty_sub)
    assert h.rows == 0
    assert h_s.rows == 4 and rank(h_s) == 4


def test_parity_checks_orthogonality_and_cosets():
    code = toy_code()
    h, h_s = parity_checks(code)
    assert rank(h) == 8 - code.info_set.size
    assert rank(h_s) == 8 - code.randomization_len
    g = generator_matrix(3).entries
    syndromes = set()
    for s in itertools.product([0, 1], repeat=2):
        sync = None
        for t in itertools.product([0, 1], repeat=3):
            x = alice_encode(code, BitVector(s), BitVector(t)).bits
            assert not naive_vec_mat_mul(x, h.entries.T).any()
            z = tuple(naive_vec_mat_mul(x, h_s.entries.T))
            if sync is None:
                sync = z
            assert z == sync  # one syndrome per coset
        syndromes.add(sync)
    assert len(syndromes) == 4  # distinct messages land in distinct cosets

    # random nested codes beyond N=8, against the Kronecker-power generator
    rng = np.random.default_rng(19)
    for n in range(1, 8):
        N = 1 << n
        g = reference_generator(n).astype(np.int64)
        codes = [NestedCodeSpec(CodeParams(n), np.arange(N), [])]
        for _ in range(6):
            ka = int(rng.integers(0, N + 1))
            codes.append(random_code(rng, n, ka, int(rng.integers(0, ka + 1))))
        for code in codes:
            h, h_s = parity_checks(code)
            assert h.cols == h_s.cols == N
            assert not (g[code.info_set] @ h.entries.T.astype(np.int64) % 2).any()
            assert not (g[code.secure_set] @ h_s.entries.T.astype(np.int64) % 2).any()
            assert naive_rank(h.entries) == N - code.info_set.size
            assert naive_rank(h_s.entries) == N - code.randomization_len


def test_equivocation_rank_trivial():
    code = toy_code()
    h, h_s = parity_checks(code)
    assert equivocation_rank(h, h_s, []) == 0
    assert equivocation_rank(h, h_s, np.arange(8)) == code.message_len


def test_equivocation_rank_matches_bruteforce():
    code = toy_code()
    h, h_s = parity_checks(code)
    for pattern in range(256):
        erased = [i for i in range(8) if (pattern >> i) & 1]
        by_rank = equivocation_rank(h, h_s, erased)
        brute = equivocation_bruteforce(code, erased)
        assert brute == by_rank  # the oracle's entropies are exact integers here

    # random codes at N=16 with |A| <= 12, random erasure patterns
    rng = np.random.default_rng(20)
    for _ in range(8):
        ka = int(rng.integers(1, 13))
        code = random_code(rng, 4, ka, int(rng.integers(0, ka + 1)))
        h, h_s = parity_checks(code)
        for _ in range(6):
            erased = np.nonzero(rng.random(16) < rng.random())[0]
            assert equivocation_bruteforce(code, erased) == equivocation_rank(h, h_s, erased)


def test_equivocation_monotone_in_erasures():
    code = toy_code(6, 2)
    h, h_s = parity_checks(code)
    rng = np.random.default_rng(18)
    for _ in range(50):
        order = rng.permutation(8)
        prev = 0
        for k in range(9):
            erased = np.sort(order[:k])
            cur = equivocation_rank(h, h_s, erased)
            assert 0 <= cur <= code.message_len
            assert cur >= prev
            prev = cur


def test_bruteforce_edges_and_guard():
    code = toy_code()
    assert equivocation_bruteforce(code, []) == 0.0
    assert equivocation_bruteforce(code, np.arange(8)) == code.message_len
    big = NestedCodeSpec(CodeParams(5), np.arange(32), np.arange(16))
    with pytest.raises(ValueError):
        equivocation_bruteforce(big, [0])


@pytest.mark.parametrize(
    "sweep, message",
    [([], "nonempty 1-D"), ([[0.3, 0.4]], "nonempty 1-D"), ([0.3, 1.5], r"\[0, 1\]")],
    ids=["empty", "2-D", "outside"],
)
def test_experiment_rejects_bad_sweep_before_design(monkeypatch, sweep, message):
    def design_step(*args):
        raise AssertionError("design step ran before the sweep was checked")

    monkeypatch.setattr(wiretap, "build_wiretap_code", design_step)
    monkeypatch.setattr(wiretap, "parity_checks", design_step)
    cfg = WiretapConfig(e_m=0.25, e_w=0.5, rate=0.25, n=4, trials=1, seed=0)
    with pytest.raises(ValueError, match=message):
        run_wiretap_experiment(cfg, sweep)


def test_experiment_edge_points():
    cfg = WiretapConfig(e_m=0.25, e_w=0.5, rate=0.25, n=5, trials=30, seed=4)
    reports = run_wiretap_experiment(cfg, [0.0, 1.0])
    assert reports[0].mean_equivocation_rate == 0.0
    full = reports[1]
    assert full.mean_equivocation_rate == (full.info_size - full.secure_size) / full.block_length


def test_experiment_monotone_and_bounded():
    cfg = WiretapConfig(e_m=0.25, e_w=0.5, rate=0.25, n=6, trials=40, seed=5)
    points = [0.3, 0.35, 0.4, 0.45, 0.5]
    reports = run_wiretap_experiment(cfg, points)
    eq = np.stack([r.equivocations for r in reports], axis=1)
    assert np.all(np.diff(eq, axis=1) >= 0)  # common random numbers: per-trial monotone
    for r in reports:
        assert 0 <= r.mean_equivocation_rate <= (r.info_size - r.secure_size) / r.block_length + 1e-12
        assert r.upper_bound == min(cfg.rate, r.e_w - cfg.e_m)


def test_experiment_report_order_follows_input():
    cfg = WiretapConfig(e_m=0.25, e_w=0.5, rate=0.25, n=4, trials=10, seed=7)
    reports = run_wiretap_experiment(cfg, [0.5, 0.3])
    assert [r.e_w for r in reports] == [0.5, 0.3]


def test_low_rate_regime_equivocation_saturates_near_rate():
    # rate below the capacity gap: |B| exceeds what the eavesdropper could
    # ever resolve, the encoder is unchanged, and the equivocation rate
    # plateaus near the rate itself
    cfg = WiretapConfig(e_m=0.25, e_w=0.75, rate=0.25, n=8, trials=200, seed=8)
    code = build_wiretap_code(cfg)
    assert code.randomization_len > 256 * (1 - cfg.e_w)
    (report,) = run_wiretap_experiment(cfg, [0.75])
    assert report.upper_bound == cfg.rate
    assert report.mean_equivocation_rate >= 0.85 * cfg.rate
