import itertools

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from nestedpolar import polar, wiretap
from nestedpolar.channels import RngStream, bec_sample_rows
from nestedpolar.construction import bec_reliability, select_info_set, select_secure_subset
from nestedpolar.gf2 import BitMatrix, null_space_basis, pack_columns
from nestedpolar.polar import CodeParams, generator_matrix, transform_rows
from nestedpolar.sc import ERASED, decode_bec_rows
from nestedpolar.wiretap import (
    NestedCodeSpec,
    WiretapConfig,
    build_wiretap_code,
    equivocation_rank,
    parity_checks,
    run_wiretap_experiment,
)

import oracles
from oracles import (
    bitrev,
    equivocation_bruteforce,
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
    # a bool is not an erasure rate; the error names the key
    with pytest.raises(ValueError, match="^e_m must be a real number"):
        WiretapConfig(e_m=False, e_w=0.2, rate=0.1, n=3, trials=1, seed=0)
    with pytest.raises(ValueError, match="^e_w must be a real number"):
        WiretapConfig(e_m=0.1, e_w=True, rate=0.1, n=3, trials=1, seed=0)
    with pytest.raises(ValueError, match="^rate must be a real number"):
        WiretapConfig(e_m=0.1, e_w=0.2, rate=False, n=3, trials=1, seed=0)
    for bad in (True, 2.5, 2.0):
        with pytest.raises(ValueError, match="^trials must be an integer"):
            WiretapConfig(e_m=0.1, e_w=0.2, rate=0.1, n=3, trials=bad, seed=0)
    with pytest.raises(ValueError, match="^n must be an integer"):
        WiretapConfig(e_m=0.1, e_w=0.2, rate=0.1, n=3.0, trials=1, seed=0)
    # the seed is a 64-bit unsigned integer, checked before the design step
    for bad in (1.5, True, -1, 2**64):
        with pytest.raises(ValueError, match="^seed must be"):
            WiretapConfig(e_m=0.1, e_w=0.2, rate=0.1, n=3, trials=1, seed=bad)
    assert WiretapConfig(e_m=0.1, e_w=0.2, rate=0.1, n=3, trials=1, seed=np.uint64(2**64 - 1)).seed == 2**64 - 1
    assert WiretapConfig(e_m=0.1, e_w=0.2, rate=0.1, n=np.int64(3), trials=np.int32(2), seed=0).sizes == (6, 7)


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


def coset_codewords(code, s, t):
    """Codewords carrying the rows of s on A\\B and those of t on B."""
    s, t = np.atleast_2d(s, t)
    u = np.zeros((len(s), code.N), dtype=np.uint8)
    u[:, code.message_set] = s
    u[:, code.secure_set] = t
    return transform_rows(u)


def bob_messages(code, y):
    """Bob's message estimates: SC over A with zeros frozen, then restricted to A\\B."""
    bob = code.bob_spec()
    return decode_bec_rows(y, bob.info_mask, np.zeros(code.N, dtype=np.uint8))[0][:, code.message_set]


def test_alice_encode_zero_and_linearity():
    code = toy_code()
    z = coset_codewords(code, [0, 0], [0, 0, 0])
    assert np.array_equal(z, np.zeros((1, 8)))
    rng = np.random.default_rng(14)
    for _ in range(20):
        s1, s2 = (rng.integers(0, 2, 2, dtype=np.uint8) for _ in range(2))
        t1, t2 = (rng.integers(0, 2, 3, dtype=np.uint8) for _ in range(2))
        lhs = coset_codewords(code, s1 ^ s2, t1 ^ t2)
        rhs = coset_codewords(code, s1, t1) ^ coset_codewords(code, s2, t2)
        assert np.array_equal(lhs, rhs)


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
    t_all = list(itertools.product([0, 1], repeat=3))
    encoded = {row.tobytes() for row in coset_codewords(code, np.tile(s, (len(t_all), 1)), t_all)}
    assert encoded == explicit


def test_bob_decodes_noiseless():
    code = toy_code()
    rng = np.random.default_rng(15)
    s, t = [], []
    for _ in range(20):
        s.append(rng.integers(0, 2, 2, dtype=np.uint8))
        t.append(rng.integers(0, 2, 3, dtype=np.uint8))
    x = coset_codewords(code, s, t)
    assert np.array_equal(bob_messages(code, x.astype(np.int8)), s)


def test_bob_all_erased_guesses():
    code = toy_code()
    y = np.full((400, 8), ERASED, dtype=np.int8)
    rng = np.random.default_rng(16)
    guesses = np.array([rng.integers(0, 2, 2, dtype=np.uint8) for _ in range(400)])
    errors = np.any(bob_messages(code, y) != guesses, axis=1).sum()
    # random guess of 2 bits is right 1/4 of the time
    assert abs(errors / 400 - 0.75) < 0.08


def test_bob_error_rate_within_union_bound():
    cfg = WiretapConfig(e_m=0.25, e_w=0.5, rate=0.25, n=6, trials=1, seed=0)
    code = build_wiretap_code(cfg)
    profile = bec_reliability(6, 0.25)
    bound = min(1.0, profile.z[code.info_set].sum())
    trials = 400
    # each trial draws s, then t, then the erasures from its own substream
    rngs = [RngStream(31, t).generator() for t in range(trials)]
    s = np.array([g.integers(0, 2, code.message_len, dtype=np.uint8) for g in rngs])
    tt = np.array([g.integers(0, 2, code.randomization_len, dtype=np.uint8) for g in rngs])
    x = coset_codewords(code, s, tt)
    y = np.array([bec_sample_rows(row, 0.25, g) for row, g in zip(x, rngs)])
    errors = np.any(bob_messages(code, y) != s, axis=1).sum()
    sigma = np.sqrt(bound * (1 - bound) / trials) if bound < 1 else 0.0
    assert errors / trials <= bound + 3 * sigma


def test_parity_checks_trivial():
    full = NestedCodeSpec(CodeParams(2), np.arange(4), np.arange(4))
    h, h_s = parity_checks(full)
    assert h.rows == 0 and h_s.rows == 0
    empty_sub = NestedCodeSpec(CodeParams(2), np.arange(4), [])
    h, h_s = parity_checks(empty_sub)
    assert h.rows == 0
    assert h_s.rows == 4 and naive_rank(h_s.entries) == 4


def test_parity_checks_orthogonality_and_cosets():
    code = toy_code()
    h, h_s = parity_checks(code)
    assert naive_rank(h.entries) == 8 - code.info_set.size
    assert naive_rank(h_s.entries) == 8 - code.randomization_len
    g = generator_matrix(3).entries
    syndromes = set()
    for s in itertools.product([0, 1], repeat=2):
        sync = None
        for t in itertools.product([0, 1], repeat=3):
            x = coset_codewords(code, s, t)[0]
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


def test_parity_checks_are_generator_columns_in_bit_reversed_order(monkeypatch):
    # G G = I: the checks are the columns of G outside A (or B), one row
    # each, in ascending order of the bit-reversed free position.
    rng = np.random.default_rng(21)
    for n in range(1, 8):
        N = 1 << n
        g = reference_generator(n)
        for _ in range(6):
            ka = int(rng.integers(0, N + 1))
            code = random_code(rng, n, ka, int(rng.integers(0, ka + 1)))
            for h, kept in zip(parity_checks(code), (code.info_set, code.secure_set)):
                free = sorted(set(range(N)) - set(kept.tolist()), key=lambda j: bitrev(j, n))
                assert np.array_equal(h.entries, g[:, free].T)

    # The design step never falls back to a null-space elimination.
    def elimination(*args):
        raise AssertionError("parity_checks ran a null-space elimination")

    monkeypatch.setattr(wiretap, "null_space_basis", elimination)
    code = build_wiretap_code(WiretapConfig(e_m=0.25, e_w=0.5, rate=0.25, n=10, trials=1, seed=0))
    h, h_s = parity_checks(code)
    assert (h.rows, h_s.rows) == (256, 512)


def _xor_steps(columns, width, pivot_bit) -> int:
    """XOR steps of an elimination that stops at full rank, under a pivot rule."""
    pivots, steps = {}, 0
    for v in columns:
        if len(pivots) == width:
            break
        while v:
            p = pivots.get(pivot_bit(v))
            if p is None:
                pivots[pivot_bit(v)] = v
                break
            v ^= p
            steps += 1
    return steps


def test_row_order_keeps_fig1_elimination_short():
    # One seeded fig1 trial at n=10: the columns erased at e_w = 0.5, in draw order.
    cfg = WiretapConfig(e_m=0.25, e_w=0.5, rate=0.25, n=10, trials=1, seed=3)
    code = build_wiretap_code(cfg)
    draws = RngStream(cfg.seed, 0).generator().random(code.N)
    joined = [j for j in np.argsort(draws, kind="stable").tolist() if draws[j] < 0.5]
    g = generator_matrix(cfg.n)
    highest = lambda v: v.bit_length() - 1  # noqa: E731
    lowest = lambda v: (v & -v).bit_length() - 1  # noqa: E731
    counts = np.zeros(3, dtype=np.int64)
    for h, rows in zip(parity_checks(code), (code.info_set, code.secure_set)):
        returned = pack_columns(h)
        unreversed = pack_columns(null_space_basis(BitMatrix(g.entries[rows])))
        counts += [
            _xor_steps([returned[j] for j in joined], h.rows, highest),
            _xor_steps([unreversed[j] for j in joined], h.rows, lowest),
            _xor_steps([unreversed[j] for j in joined], h.rows, highest),
        ]
    fast, lowest_unreversed, highest_unreversed = counts
    assert fast <= lowest_unreversed
    # The order matters: the highest-bit rule on unreversed rows does far more work.
    assert 2 * fast < highest_unreversed


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


@st.composite
def nested_codes_and_erasures(draw):
    """A random nested code A ⊇ B at n <= 4 and a random erased position set."""
    n = draw(st.integers(0, 4))
    positions = list(range(1 << n))
    info = draw(st.lists(st.sampled_from(positions), unique=True))
    secure = draw(st.lists(st.sampled_from(info), unique=True)) if info else []
    erased = draw(st.lists(st.sampled_from(positions), unique=True))
    code = NestedCodeSpec(CodeParams(n), sorted(info), sorted(secure))
    return code, sorted(erased)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(nested_codes_and_erasures())
def test_equivocation_rank_on_closed_form_checks_matches_bruteforce(case):
    code, erased = case
    assert equivocation_rank(*parity_checks(code), erased) == equivocation_bruteforce(code, erased)


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


def test_bruteforce_oracle_encodes_without_the_package(monkeypatch):
    code = toy_code(6, 2)
    h, h_s = parity_checks(code)
    patterns = [[i for i in range(8) if (p >> i) & 1] for p in range(256)]
    expected = [equivocation_rank(h, h_s, erased) for erased in patterns]

    def no_transform(rows):
        raise AssertionError("the oracle encoded with the package's transform")

    monkeypatch.setattr(polar, "transform_rows", no_transform)
    monkeypatch.setattr(oracles, "transform_rows", no_transform)
    assert [equivocation_bruteforce(code, erased) for erased in patterns] == expected


def test_bruteforce_edges_and_guard():
    code = toy_code()
    assert equivocation_bruteforce(code, []) == 0.0
    assert equivocation_bruteforce(code, np.arange(8)) == code.message_len
    big = NestedCodeSpec(CodeParams(5), np.arange(32), np.arange(16))
    with pytest.raises(ValueError):
        equivocation_bruteforce(big, [0])


@pytest.mark.parametrize(
    "sweep, message",
    [
        ([], "nonempty 1-D"),
        ([[0.3, 0.4]], "nonempty 1-D"),
        ([0.3, 1.5], r"\[0, 1\]"),
        ([float("nan"), 1.0], r"\[0, 1\]"),
    ],
    ids=["empty", "2-D", "outside", "nan"],
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
