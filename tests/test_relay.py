from fractions import Fraction

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


def test_channel_spec_cascade():
    spec = RelayChannelSpec(e_sr=0.1, e_deg=4 / 9, e_rd=0.5)
    assert abs(spec.e_sd - 0.5) < 1e-15
    assert spec.c_sr == 0.9
    with pytest.raises(ValueError):
        RelayChannelSpec(1.2, 0.0, 0.0)


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
    with pytest.raises(ValueError):
        build_relay_scheme(spec, 7, 4, 1.0)


def test_build_margin_validated():
    spec = RelayChannelSpec(0.1, 4 / 9, 0.5)
    with pytest.raises(ValueError):
        build_relay_scheme(spec, 6, 3, 0.0)


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

    monkeypatch.setattr(relay, "bec_reliability", counted)
    scheme = calibrate_margin(RelayChannelSpec(0.1, 4 / 9, 0.5), 13, 4, 1e-3)
    assert len(calls) == 3  # one profile per link, not three per margin tried
    assert scheme.margin == 0.74
    assert scheme.regime == 1
    assert scheme.source_code.info_set.size == 5456
    assert scheme.source_code.secure_set.size == 3031
    assert scheme.rd_code.info_len == 2425


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
