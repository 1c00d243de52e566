from collections import Counter
from fractions import Fraction
import hashlib
from pathlib import Path
import re
import tracemalloc

import numpy as np
import pytest

from nestedpolar import relay
from nestedpolar.construction import bec_reliability
from nestedpolar.relay import (
    RelayChannelSpec,
    build_relay_scheme,
    calibrate_margin,
    simulate_relay,
)
from nestedpolar.sc import undetermined_bec_rows
from nestedpolar.wiretap import NestedCodeSpec

from oracles import calibrate_margin_by_scan, relay_designer_by_sets


def test_channel_spec_cascade():
    spec = RelayChannelSpec(e_sr=0.1, e_deg=4 / 9, e_rd=0.5)
    assert abs(spec.e_sd - 0.5) < 1e-15
    assert spec.c_sr == 0.9
    with pytest.raises(ValueError):
        RelayChannelSpec(1.2, 0.0, 0.0)
    # a bool is not an erasure rate; the error names the link, not the
    # reliability recursion it would reach
    for args, name in (((True, 0.0, 0.0), "e_sr"), ((0.1, False, 0.5), "e_deg"), ((0.1, 0.2, "0.5"), "e_rd")):
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            RelayChannelSpec(*args)


def test_build_noiseless_full_rate():
    spec = RelayChannelSpec(0.0, 0.0, 0.0)
    scheme = build_relay_scheme(spec, 5, 4, 1.0)
    assert scheme.regime == 1
    assert scheme.source_code.info_set.size == 32
    assert scheme.source_code.message_len == 0  # B == A: no relay load
    assert scheme.achieved_rate == Fraction(4 * 32, 32 * 5)


def test_build_regime1_reference_sizes():
    spec = RelayChannelSpec(e_sr=0.1, e_deg=4 / 9, e_rd=0.5)
    scheme = build_relay_scheme(spec, 10, 8, 0.8)
    assert scheme.regime == 1
    assert scheme.source_code.info_set.size == 737
    assert scheme.source_code.message_len <= 410


def test_build_regime2_sizes():
    # C_SR = 0.95 > C_SD + C_RD = 0.5
    spec = RelayChannelSpec(e_sr=0.05, e_deg=0.65 / 0.95, e_rd=0.8)
    assert abs(spec.e_sd - 0.7) < 1e-12
    scheme = build_relay_scheme(spec, 8, 4, 0.9)
    assert scheme.regime == 2
    assert scheme.source_code.info_set.size == round(0.9 * 256 * 0.5)
    assert np.all(np.isin(scheme.source_code.secure_set, scheme.source_code.info_set))


def test_build_nesting_and_rd_size():
    spec = RelayChannelSpec(0.1, 4 / 9, 0.5)
    scheme = build_relay_scheme(spec, 7, 3, 0.7)
    code = scheme.source_code
    assert np.all(np.isin(code.secure_set, code.info_set))
    assert scheme.rd_code.info_len == code.message_len


def test_build_infeasible_coset():
    # SR much better than SD: rounding plus imperfect nesting push the
    # leftover coset past the RD budget at this margin
    spec = RelayChannelSpec(e_sr=0.3, e_deg=(0.7 - 0.3) / 0.7, e_rd=0.6)
    assert spec.c_sr <= spec.c_sd + spec.c_rd
    with pytest.raises(ValueError, match="^infeasible at margin 1.0: coset size "):
        build_relay_scheme(spec, 7, 4, 1.0)


def test_build_margin_validated(monkeypatch):
    spec = RelayChannelSpec(0.1, 4 / 9, 0.5)
    with pytest.raises(ValueError):
        build_relay_scheme(spec, 6, 3, 0.0)
    # a bool is not a margin or a target, nor is a string
    for bad in (True, "0.5"):
        with pytest.raises(ValueError, match="^margin must be a real number"):
            build_relay_scheme(spec, 6, 3, bad)
    for bad in (False, True, "0.01"):
        with pytest.raises(ValueError, match="^target must be a real number"):
            calibrate_margin(spec, 6, 3, bad)
    # a NaN or negative target is refused before any scheme is designed
    calls = []
    monkeypatch.setattr(relay, "bec_reliability", lambda *args: calls.append(args))
    for bad in (float("nan"), -1e-3, -np.inf):
        with pytest.raises(ValueError, match="^target must be at least 0"):
            calibrate_margin(spec, 6, 3, bad)
    # and so is a bad block count, at either entry point
    for bad in (2.5, 0, True):
        with pytest.raises(ValueError, match="^blocks must be"):
            build_relay_scheme(spec, 6, bad, 0.5)
        with pytest.raises(ValueError, match="^blocks must be"):
            calibrate_margin(spec, 6, bad, 1e-3)
    assert calls == []
    monkeypatch.undo()
    # sizes and counts are integers, numpy's included
    for bad in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="^blocks must be an integer"):
            build_relay_scheme(spec, 6, bad, 0.5)
        with pytest.raises(ValueError, match="^n must be an integer"):
            build_relay_scheme(spec, bad, 2, 0.5)
    scheme = build_relay_scheme(spec, np.int64(6), np.int32(2), 0.5)
    for bad in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="^trials must be an integer"):
            simulate_relay(scheme, spec, bad, 0)
    for bad in (1.5, True, -1, 2**64):
        with pytest.raises(ValueError, match="^seed must be"):
            simulate_relay(scheme, spec, 2, bad)
    assert simulate_relay(scheme, spec, np.int64(2), 0).dest_errors.shape == (2, 2)


def test_calibrate_margin_meets_target():
    spec = RelayChannelSpec(0.1, 4 / 9, 0.5)
    scheme = calibrate_margin(spec, 9, 8, target=0.01)
    assert max(scheme.stage_bounds) <= 0.01
    again = calibrate_margin(spec, 9, 8, target=0.01)
    assert again.margin == scheme.margin
    with pytest.raises(ValueError, match="^n must be"):
        calibrate_margin(spec, 21, 8, target=0.01)
    with pytest.raises(ValueError, match="^blocks"):
        calibrate_margin(spec, 10, 0, target=0.01)


def test_calibrate_margin_builds_profiles_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return bec_reliability(*args)

    def counted_scheme(*args):
        schemes.append(args)
        return NestedCodeSpec(*args)

    schemes = []
    monkeypatch.setattr(relay, "bec_reliability", counted)
    monkeypatch.setattr(relay, "NestedCodeSpec", counted_scheme)
    scheme = calibrate_margin(RelayChannelSpec(0.1, 4 / 9, 0.5), 13, 4, 1e-3)
    assert len(calls) == 3  # one profile per link, not three per margin tried
    assert len(schemes) == 1  # a scheme is built only for the margin returned
    assert scheme.margin == 0.74
    assert scheme.regime == 1
    assert scheme.source_code.info_set.size == 5456
    assert scheme.source_code.secure_set.size == 3031
    assert scheme.rd_code.info_len == 2425


def _same_scheme(a, b) -> bool:
    return (
        (a.margin, a.regime, a.blocks, a.stage_bounds) == (b.margin, b.regime, b.blocks, b.stage_bounds)
        and np.array_equal(a.source_code.info_set, b.source_code.info_set)
        and np.array_equal(a.source_code.secure_set, b.source_code.secure_set)
        and np.array_equal(a.rd_code.info_set, b.rd_code.info_set)
    )


def _calibrated(calibrate, *args):
    try:
        return calibrate(*args)
    except ValueError as err:
        return str(err)


def test_calibrate_margin_matches_full_scan():
    # Seeded random specs against designing every margin in turn.  Erasure
    # rates of 0 and 1 are drawn too, and a third of the specs leave RD no
    # slack; targets are 0, at least 1, in between, and exactly a scheme's
    # largest stage bound (and the float below it).  Each spec's design at
    # margin 1 and at one random grid margin is pinned to the oracle's too.
    rng = np.random.default_rng(28)
    margin_rng = np.random.default_rng(29)
    seen = Counter()
    for case in range(320):
        e_sr, e_deg, e_rd = (float(rng.choice([0.0, 1.0, rng.random()], p=[0.1, 0.1, 0.8])) for _ in range(3))
        if case % 3 == 0:  # C_RD = C_SR - C_SD, where rounding and imperfect nesting overfill RD
            e_sr, e_deg = rng.random(2).tolist()
            e_rd = min(1.0, e_sr + (1.0 - e_sr) * (1.0 - e_deg))
        spec = RelayChannelSpec(e_sr, e_deg, e_rd)
        n, blocks = int(rng.integers(2, 11)), int(rng.integers(1, 4))
        if case % 4 < 3:
            targets = [(0.0, float(rng.uniform(1, 2)), float(10 ** rng.uniform(-8, 0)))[case % 4]]
        else:
            scheme = _calibrated(calibrate_margin_by_scan, spec, n, blocks, float(10 ** rng.uniform(-6, 0)))
            if isinstance(scheme, str):
                targets = [0.5]
            else:
                bound = max(scheme.stage_bounds)
                targets = [bound, float(np.nextafter(bound, 0.0))]
                seen["exact bound"] += 1
        for target in targets:
            expected = _calibrated(calibrate_margin_by_scan, spec, n, blocks, target)
            got = _calibrated(calibrate_margin, spec, n, blocks, target)
            if isinstance(expected, str):
                assert got == expected
                seen["no margin fits"] += 1
            else:
                assert _same_scheme(got, expected), (spec, n, blocks, target)
                seen[f"regime {expected.regime}"] += 1
                seen["target 0" if target == 0 else "target >= 1" if target >= 1 else "other"] += 1
        _, design = relay_designer_by_sets(spec, n, blocks)
        grid_margin = round(1.0 - 0.005 * int(margin_rng.integers(200)), 12)
        for margin, label in ((1.0, "infeasible at margin 1"), (grid_margin, "infeasible at a grid margin")):
            expected = _calibrated(design, margin)
            got = _calibrated(build_relay_scheme, spec, n, blocks, margin)
            if isinstance(expected, str):
                assert got == expected
                seen[label] += 1
            else:
                assert _same_scheme(got, expected), (spec, n, blocks, margin)
    assert min(seen.values()) >= 10, seen


def test_relay_n13_erasure_patterns_pinned(monkeypatch):
    # The benchmark's relay-n13 run at its seed 1: every erasure pattern
    # the SR, RD and SD stages draw, 12 arrays of 200 x 8192, hashed in
    # call order.  Its report arrays are all zero at most seeds, so a
    # sampler or seeding change would leave them, and the digest, as they
    # are; this pin moves with any one erasure.
    h = hashlib.sha256()

    def hashed(sampler):
        def draw(*args):
            out = sampler(*args)
            h.update(np.ascontiguousarray(out))
            return out
        return draw

    for name in ("bec_sample_rows", "cascade_rows"):
        monkeypatch.setattr(relay, name, hashed(getattr(relay, name)))
    seed = int.from_bytes(hashlib.sha256(b"relay-n13:1").digest()[:4], "little")
    spec = RelayChannelSpec(0.1, 4 / 9, 0.5)
    simulate_relay(calibrate_margin(spec, 13, 4, 1e-3), spec, 200, seed)
    assert h.hexdigest() == "f96fa4cd6d8e4f7f235d70d74bf67167140181640dc4d2ae70b6a2d682ddcbcb"


def test_simulate_relay_memory():
    # One batched draw per stage, and the SR patterns freed after the
    # cascade: 1.27 MB of tracemalloc peak here, 1.42 MB when each trial's
    # patterns were drawn alone, stacked, and kept through the block.
    spec = RelayChannelSpec(0.1, 4 / 9, 0.5)
    scheme = build_relay_scheme(spec, 10, 2, 0.7)
    simulate_relay(scheme, spec, 2, 1)
    tracemalloc.start()
    try:
        simulate_relay(scheme, spec, 200, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.35e6


def _readme_table(heading: str) -> list[list[str]]:
    """Cells of the data rows of the first table under ``heading`` in README.md."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split(heading, 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in re.split(r"(?<!\\)\|", row)[1:-1]] for row in rows[2:]]


def test_rate_grows_toward_capacity_with_n():
    # README's relay point, 8 blocks: one shared margin sizes every stage,
    # and only the SD bound comes near the target
    spec = RelayChannelSpec(0.1, 4 / 9, 0.5)
    capacity = min(spec.c_sr, spec.c_sd + spec.c_rd)
    rows, ratios = [], []
    for n in range(8, 17):
        scheme = calibrate_margin(spec, n, 8, 1e-3)
        sr, sd, rd = scheme.stage_bounds
        assert max(sr, sd, rd) <= 1e-3 and sr <= 1e-11 and rd <= 1e-5
        code = scheme.source_code
        ratios.append(float(scheme.achieved_rate) / capacity)
        rows.append([str(n), f"{scheme.margin:g}", str(code.info_set.size), str(code.secure_set.size),
                     str(scheme.achieved_rate), f"{ratios[-1]:.4f}", f"{sr:.2e}", f"{sd:.2e}", f"{rd:.2e}"])
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert round(ratios[0], 4) == 0.4167 and round(ratios[-1], 4) == 0.7422 < 8 / 9
    assert _readme_table("### Relay rate against capacity") == rows


def test_simulate_noiseless_is_error_free():
    spec = RelayChannelSpec(0.0, 0.0, 0.0)
    scheme = build_relay_scheme(spec, 6, 4, 1.0)
    report = simulate_relay(scheme, spec, trials=8, seed=123)
    assert report.overall_error_rate == 0.0
    assert not report.relay_errors.any()
    assert not report.rd_errors.any()
    assert not report.dest_errors.any()
    assert report.undetermined.shape == (8, 4, 3)
    assert report.undetermined.dtype == np.int64
    assert not report.undetermined.any()
    assert report.achieved_rate == Fraction(4 * 64, 64 * 5)


def test_simulate_rd_fully_erased():
    base = RelayChannelSpec(0.1, 4 / 9, 0.5)
    scheme = build_relay_scheme(base, 6, 2, 0.6)
    assert scheme.source_code.message_len > 0
    dead_rd = RelayChannelSpec(0.1, 4 / 9, 1.0)
    report = simulate_relay(scheme, dead_rd, trials=40, seed=3)
    assert report.dest_errors.mean() > 0.95
    # every RD decision is made on an erased message
    assert np.all(report.undetermined[:, :, 1] == scheme.source_code.message_len)


def test_simulate_physical_degradedness():
    # re-derive the SD word from the same draws the simulator uses: when
    # both copies are unerased they must agree, and the SD erasure rate
    # must match the cascade closed form
    from nestedpolar.channels import bec_sample_rows, cascade_rows, RngStream
    from nestedpolar.sc import ERASED

    rng_pairs = [(RngStream(5, 2 * i).generator(), RngStream(5, 2 * i + 1).generator()) for i in range(200)]
    x = np.zeros((1, 512), dtype=np.uint8)
    erased = 0
    for g_sr, g_deg in rng_pairs:
        y1 = bec_sample_rows(x, 0.1, g_sr)
        yp = cascade_rows(y1, 4 / 9, g_deg)
        both = (y1[0] != ERASED) & (yp[0] != ERASED)
        assert np.array_equal(y1[0][both], yp[0][both])
        assert np.all(yp[0][y1[0] == ERASED] == ERASED)
        erased += (yp[0] == ERASED).sum()
    assert abs(erased / (512 * 200) - 0.5) < 0.01


def test_simulate_rate_accounting_exact():
    spec = RelayChannelSpec(0.1, 4 / 9, 0.5)
    scheme = build_relay_scheme(spec, 6, 5, 0.6)
    report = simulate_relay(scheme, spec, trials=5, seed=1)
    a = scheme.source_code.info_set.size
    assert report.achieved_rate == Fraction(5 * a, 64 * 6)


def test_simulate_deterministic():
    spec = RelayChannelSpec(0.1, 4 / 9, 0.5)
    scheme = build_relay_scheme(spec, 5, 3, 0.6)
    a = simulate_relay(scheme, spec, trials=12, seed=77)
    b = simulate_relay(scheme, spec, trials=12, seed=77)
    assert np.array_equal(a.dest_errors, b.dest_errors)
    assert np.array_equal(a.relay_errors, b.relay_errors)


def test_simulate_monotone_in_erasure_probability():
    # same seed stream per stage: raising one link's erasure rate can only
    # add erasures, so per-stage error counts never decrease
    base = RelayChannelSpec(0.1, 4 / 9, 0.4)
    scheme = build_relay_scheme(base, 6, 3, 0.55)
    r1 = simulate_relay(scheme, base, trials=60, seed=9)
    worse_rd = RelayChannelSpec(0.1, 4 / 9, 0.7)
    r2 = simulate_relay(scheme, worse_rd, trials=60, seed=9)
    assert r2.rd_errors.sum() >= r1.rd_errors.sum()
    assert np.array_equal(r1.relay_errors, r2.relay_errors)  # SR untouched
    worse_sr = RelayChannelSpec(0.25, 4 / 9, 0.4)
    r3 = simulate_relay(scheme, worse_sr, trials=60, seed=9)
    assert r3.relay_errors.sum() >= r1.relay_errors.sum()


# Error-rich runs: every stage of each has rows whose decode is in doubt.
# (design spec, run spec, n, blocks, margin, trials, seed)
ERROR_RICH = {
    "regime1": (RelayChannelSpec(0.1, 4 / 9, 0.5), None, 7, 3, 0.9, 40, 11),
    "regime2": (RelayChannelSpec(0.05, 0.65 / 0.95, 0.8), RelayChannelSpec(0.35, 0.5, 0.7), 8, 4, 0.95, 40, 12),
    # SR and RD worse than designed: relay errors propagate into the coset
    "propagate": (RelayChannelSpec(0.1, 4 / 9, 0.5), RelayChannelSpec(0.3, 4 / 9, 0.6), 8, 3, 0.7, 40, 13),
    "n10_8blocks": (RelayChannelSpec(0.1, 4 / 9, 0.5), None, 10, 8, 0.9, 24, 14),
}

# SHA-256 of each report array, from a simulator that SC-walked every row
# of every stage.
ERROR_RICH_PINS = {
    "regime1": {
        "relay_errors": "6486ee6dc32dc54f6efedc5c42e942fcd7ae38d34bf8451af090f261468bf987",
        "rd_errors": "ae3db714421e33a057b9111c1f068c8eba39703491910f670c29835896ec9562",
        "dest_errors": "4c9551fe03720b1aa97ff7528f2a0241482e5367b079a9ec9b237dd61aab9571",
        "undetermined": "22a24b40f13d403ff17fa66ebb2ae8ca9ee2a4d25d2e0a98a5f853cfd0976785",
    },
    "regime2": {
        "relay_errors": "01b66a2ff6096b01390b967928b7e74899a42eed6f5a86b46ae58a464a7c3d8a",
        "rd_errors": "1ea63a8874f0eef0a7c86b1daf9bc3da949f133b446ebcd25a2cd2094ba46128",
        "dest_errors": "f9899afd990a858380f32f96e6c523ccb3a5f67064c9358c24ab5bc5cc0daef8",
        "undetermined": "7bac7562fb2f360afbfcdb9f4ed54d619b186671c6cc265199122faef295c0d8",
    },
    "propagate": {
        "relay_errors": "f9ab5833bb0b48ffd7c64afca27a8c8f2f9af1473b20601afde2f10af829abcf",
        "rd_errors": "526f6335b698da953a16b82e33619afcf05af1127559de4e9eda10245f00929d",
        "dest_errors": "0ee3a3b0a0c4d33570d7ff0cbd9cdfc480fde48baaa547b7e123b1ec124816f6",
        "undetermined": "852dd4e747c0855b96700727677881f46d1adaec4973db2580039e9dc15dd995",
    },
    "n10_8blocks": {
        "relay_errors": "b46ddd1b2e17792944fd3394f73bf4cab83e1dbf1e859e84e7f09b4a6885edd6",
        "rd_errors": "dfab3abe8d3d11ca2a603ca932bd30f423407f674d10ed444a67e22386e06f38",
        "dest_errors": "00cae002a790e2dc961d0cbbf1095a54624201f621bec7925f1b8e00758f3f71",
        "undetermined": "10d8b3aa03741adec138eecf79ae2b725a7b98de27bc64466552a221ff01cf29",
    },
}


@pytest.mark.parametrize("name", sorted(ERROR_RICH))
def test_error_rich_runs_match_full_sc_walks(monkeypatch, name):
    design, run, n, blocks, margin, trials, seed = ERROR_RICH[name]
    scheme = build_relay_scheme(design, n, blocks, margin)
    code = scheme.source_code
    sd_mask = np.zeros(code.N, dtype=bool)
    sd_mask[code.secure_set] = True
    stages = {code.bob_spec().info_mask.tobytes(): 0, scheme.rd_code.info_mask.tobytes(): 1,
              sd_mask.tobytes(): 2}
    walked = []  # (stage, rows) per decode call
    decode = relay.decode_bec_rows

    def checked_decode(y, info_mask, frozen_values):
        u_hat, undet = decode(y, info_mask, frozen_values)
        # the decoder returns the genie's counts, so this holds by
        # construction; tests/test_sc.py pins the counts themselves
        assert np.array_equal(undet, undetermined_bec_rows(y, info_mask))
        walked.append((stages[info_mask.tobytes()], y.shape[0]))
        return u_hat, undet

    monkeypatch.setattr(relay, "decode_bec_rows", checked_decode)
    report = simulate_relay(scheme, run or design, trials, seed)
    for field, pin in ERROR_RICH_PINS[name].items():
        assert hashlib.sha256(getattr(report, field).tobytes()).hexdigest() == pin, field
    # one call per stage and block, on exactly the rows with an erased
    # information decision
    in_doubt = report.undetermined > 0
    assert walked == [(stage, int(in_doubt[:, k, stage].sum())) for k in range(blocks) for stage in range(3)]
    assert in_doubt.any(axis=(0, 1)).all()  # rows in doubt in every stage



@pytest.mark.parametrize("name", sorted(ERROR_RICH))
def test_error_rich_runs_encode_only_rows_in_doubt(monkeypatch, name):
    design, run, n, blocks, margin, trials, seed = ERROR_RICH[name]
    scheme = build_relay_scheme(design, n, blocks, margin)
    encoded = []  # rows per transform call: SR, RD, SD stage of each block
    transform = relay.transform_rows

    def counted(rows):
        encoded.append(rows.shape[0])
        return transform(rows)

    monkeypatch.setattr(relay, "transform_rows", counted)
    report = simulate_relay(scheme, run or design, trials, seed)
    in_doubt = report.undetermined > 0
    assert encoded == [int(in_doubt[:, k, stage].sum()) for k in range(blocks) for stage in range(3)]
    # some rows are not in doubt, so a full-batch encode fails the line above
    assert sum(encoded) < 3 * blocks * trials
