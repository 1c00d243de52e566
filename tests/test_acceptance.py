"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The heavy Monte-Carlo criteria (4, 5, 7) take a
few minutes together.
"""
from fractions import Fraction

import numpy as np
import pytest

from nestedpolar.channels import RngStream, bec_sample_rows
from nestedpolar.cli import main
from nestedpolar.construction import bec_reliability, select_info_set, select_secure_subset
from nestedpolar.polar import CodeParams, PolarCodeSpec, generator_matrix, transform_rows
from nestedpolar.relay import RelayChannelSpec, build_relay_scheme, calibrate_margin, simulate_relay
from nestedpolar.sc import decode_bec_rows
from nestedpolar.wiretap import (
    NestedCodeSpec,
    WiretapConfig,
    build_wiretap_code,
    equivocation_rank,
    parity_checks,
    run_wiretap_experiment,
)

from oracles import equivocation_bruteforce, equivocation_envelope


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[{criterion}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def test_criterion_1_equivocation_oracle_equivalence():
    """Rank formula equals brute force on all 256 patterns, two code shapes."""
    mismatches = 0
    for ka, kb in ((5, 3), (6, 2)):
        info = select_info_set(bec_reliability(3, 0.25), ka)
        secure = select_secure_subset(info, bec_reliability(3, 0.5), kb)
        code = NestedCodeSpec(CodeParams(3), info, secure)
        h, h_s = parity_checks(code)
        for pattern in range(256):
            erased = [i for i in range(8) if (pattern >> i) & 1]
            by_rank = equivocation_rank(h, h_s, erased)
            brute = equivocation_bruteforce(code, erased)
            if brute != by_rank:
                mismatches += 1
    report("criterion 1: equivocation by rank vs brute force", mismatches == 0,
           f"{mismatches} mismatches over 512 pattern checks")


def test_criterion_2_mean_preservation():
    worst = max(
        abs(bec_reliability(n, eps).z.mean() - eps)
        for n in range(1, 13)
        for eps in (0.1, 0.25, 0.5)
    )
    report("criterion 2: erasure-recursion mean preservation", worst <= 1e-12,
           f"worst deviation {worst:.3e}")


def test_criterion_3_degradation_monotonicity():
    z_m = bec_reliability(10, 0.25).z
    z_w = bec_reliability(10, 0.5).z
    margin = float((z_w - z_m).min())
    report("criterion 3: degraded-channel dominance at n=10", margin >= -1e-12,
           f"min(z_w - z_m) = {margin:.3e}")


def _sc_block_error_rate(n: int, eps: float, info: np.ndarray, trials: int, seed: int) -> float:
    spec = PolarCodeSpec(CodeParams(n), info)
    N = 1 << n
    errors = 0
    chunk = max(1, 2_000_000 // N)
    done = 0
    while done < trials:
        size = min(chunk, trials - done)
        rng = RngStream(seed, done).generator()
        msgs = rng.integers(0, 2, (size, info.size), dtype=np.uint8)
        u = np.zeros((size, N), dtype=np.uint8)
        u[:, info] = msgs
        y = bec_sample_rows(transform_rows(u), eps, rng)
        uhat, _ = decode_bec_rows(y, spec.info_mask, np.zeros(N, dtype=np.uint8))
        errors += int(np.any(uhat[:, info] != msgs, axis=1).sum())
        done += size
    return errors / trials


def test_criterion_4_block_error_bound():
    """SC block error rate stays under the summed-parameter bound."""
    trials = 10_000
    details = []
    ok = True
    for n in (6, 10):
        profile = bec_reliability(n, 0.25)
        ordered = np.sort(profile.z)
        k = int(np.searchsorted(np.cumsum(ordered), 0.05, side="right"))
        info = select_info_set(profile, k)
        bound = float(profile.z[info].sum())
        assert bound <= 0.05
        bler = _sc_block_error_rate(n, 0.25, info, trials, seed=404 + n)
        sigma = float(np.sqrt(bound * (1 - bound) / trials))
        details.append(f"n={n}: bler={bler:.4f} <= {bound:.4f}+3*{sigma:.4f}")
        ok = ok and bler <= bound + 3 * sigma
    report("criterion 4: union bound respected", ok, "; ".join(details))


FIG1_CFG = WiretapConfig(e_m=0.25, e_w=0.5, rate=0.25, n=10, trials=1000, seed=20260810)
FIG1_POINTS = [round(0.26 + 0.02 * k, 10) for k in range(13)]


@pytest.fixture(scope="module")
def fig1_sweep():
    """The fig1 sweep with Bob's erasure rate e_m as a hidden last point.

    The points share one draw per position, so the extra point leaves the
    others unchanged and gives Bob's residual H(S|Y) for every trial.
    """
    return run_wiretap_experiment(FIG1_CFG, [*FIG1_POINTS, FIG1_CFG.e_m])


@pytest.fixture(scope="module")
def fig1_reports(fig1_sweep):
    return fig1_sweep[:-1]


def test_criterion_5a_fig1_monotone(fig1_reports):
    eq = np.stack([r.equivocations for r in fig1_reports], axis=1)
    ok = bool(np.all(np.diff(eq, axis=1) >= 0))
    report("criterion 5a: equivocation curve monotone under common draws", ok)


def test_criterion_5b_fig1_within_upper_bound(fig1_reports):
    """Measured curve must not exceed min(R, e_w - e_m) beyond 1e-3.

    Known to fail at the smallest sweep points: with |A| = N * C_M the
    legitimate receiver's code sits exactly at capacity, so at N = 1024
    the exact equivocation genuinely exceeds the asymptotic converse near
    e_w = e_m.  The check is kept faithful rather than loosened; the
    printed excesses document the finite-length gap.
    """
    excesses = [
        (r.e_w, r.mean_equivocation_rate - r.upper_bound) for r in fig1_reports
    ]
    worst = max(e for _, e in excesses)
    detail = ", ".join(f"e_w={w:.2f}: excess={e:+.4f}" for w, e in excesses if e > 0)
    report("criterion 5b: curve within bound + 1e-3", worst <= 1e-3,
           detail or f"max excess {worst:+.4f}")


def test_criterion_5b_excess_within_bob_residual(fig1_sweep):
    """The finite-length form of 5b, which explains its failure.

    Each erased column moves each rank by at most one, so per trial
    eq(E_w) <= eq(E_m) + |E_w \\ E_m|, where eq(E_m) is Bob's residual
    H(S|Y).  The code runs Bob at capacity (|A| = N (1 - e_m)), so that
    residual is positive at finite N, and the mean excess over
    min(R, e_w - e_m) is bounded by Bob's mean rate, not by zero.
    """
    *reports, bob = fig1_sweep
    N, e_m = bob.block_length, FIG1_CFG.e_m
    draws = np.stack([
        RngStream(FIG1_CFG.seed, t).generator().random(N) for t in range(FIG1_CFG.trials)
    ])
    invariant_ok = all(
        np.all(r.equivocations <= bob.equivocations + ((draws >= e_m) & (draws < r.e_w)).sum(axis=1))
        for r in reports
    )
    bob_rates = bob.equivocations / N
    limit = bob.mean_equivocation_rate + 3 * np.std(bob_rates, ddof=1) / np.sqrt(bob_rates.size)
    worst = max(r.mean_equivocation_rate - r.upper_bound for r in reports)
    report("criterion 5b explained: excess within Bob's residual", invariant_ok and worst <= limit,
           f"per-trial invariant {'holds' if invariant_ok else 'FAILS'}; worst excess {worst:+.5f} "
           f"<= Bob's rate {bob.mean_equivocation_rate:.5f} + 3 standard errors = {limit:.5f}")


def test_criterion_5b_within_certified_envelope(fig1_reports):
    """5b's bound made finite-length: each point's mean lies within 3
    standard errors of its certified envelope, whose upper end adds a bound
    on Bob's residual to min(R, e_w - e_m)."""
    code = build_wiretap_code(FIG1_CFG)
    details, ok = [], True
    for r in fig1_reports:
        lower, upper = equivocation_envelope(code, FIG1_CFG.e_m, r.e_w)
        stderr = np.std(r.equivocations / r.block_length, ddof=1) / np.sqrt(r.trials)
        inside = lower - 3 * stderr <= r.mean_equivocation_rate <= upper + 3 * stderr
        ok = ok and inside
        details.append(f"e_w={r.e_w:.2f}: {r.mean_equivocation_rate:.5f} in [{lower:.5f}, {upper:.5f}]"
                       f" +- 3*{stderr:.5f}{'' if inside else ' OUTSIDE'}")
    report("criterion 5b certified: curve within its finite-length envelope", ok, "; ".join(details))


def test_criterion_5c_fig1_close_to_bound_at_design_point(fig1_reports):
    at_half = [r for r in fig1_reports if abs(r.e_w - 0.5) < 1e-9][0]
    ok = at_half.mean_equivocation_rate >= 0.9 * 0.25
    rates = at_half.equivocations / at_half.block_length
    stderr = np.std(rates, ddof=1) / np.sqrt(rates.size)
    report("criterion 5c: design-point equivocation near the bound", ok,
           f"rate {at_half.mean_equivocation_rate:.4f} vs floor {0.9 * 0.25}, "
           f"{(at_half.mean_equivocation_rate - 0.9 * 0.25) / stderr:+.1f} standard errors away")


def test_criterion_6_transform_correctness():
    rng = np.random.default_rng(606)
    ok = True
    for n in range(0, 7):
        g = generator_matrix(n).entries.astype(np.int64)
        for _ in range(100):
            u = rng.integers(0, 2, (1, 1 << n), dtype=np.uint8)
            if not np.array_equal(transform_rows(u), u @ g % 2):
                ok = False
    for n in range(0, 11):
        u = rng.integers(0, 2, (1, 1 << n), dtype=np.uint8)
        if not np.array_equal(transform_rows(transform_rows(u)), u):
            ok = False
    report("criterion 6: butterfly equals generator product and inverts", ok)


def test_criterion_7_relay_end_to_end():
    spec = RelayChannelSpec(e_sr=0.1, e_deg=4 / 9, e_rd=0.5)
    assert abs(spec.e_sd - 0.5) < 1e-15
    target = 0.001  # well inside the stated <= 0.01 stage budget

    scheme13 = calibrate_margin(spec, 13, 8, target)
    assert max(scheme13.stage_bounds) <= 0.01
    run = simulate_relay(scheme13, spec, trials=200, seed=713)
    a13 = scheme13.source_code.info_set.size
    rate_ok = run.achieved_rate == Fraction(8 * a13, 8192 * 9)

    noiseless_spec = RelayChannelSpec(0.0, 0.0, 0.0)
    noiseless = simulate_relay(
        build_relay_scheme(noiseless_spec, 13, 8, 1.0), noiseless_spec, trials=3, seed=1
    )

    scheme9 = calibrate_margin(spec, 9, 8, target)
    trend_ok = float(scheme13.achieved_rate) > float(scheme9.achieved_rate)

    ok = (
        run.overall_error_rate <= 0.05
        and rate_ok
        and noiseless.overall_error_rate == 0.0
        and not noiseless.relay_errors.any()
        and trend_ok
    )
    report(
        "criterion 7: relay pipeline",
        ok,
        f"error rate {run.overall_error_rate:.4f} <= 0.05, rate {run.achieved_rate} "
        f"(float {float(run.achieved_rate):.4f}) vs n=9 rate {float(scheme9.achieved_rate):.4f}, "
        f"stage bounds {tuple(round(b, 6) for b in scheme13.stage_bounds)}",
    )


def test_criterion_8_csv_determinism(tmp_path):
    def body(path):
        return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]

    commands = {
        "construct": ["construct", "--set", "n=6", "--set", "erasure_prob=0.25", "--seed", "3"],
        "wiretap": ["wiretap-sweep", "--trials", "30", "--seed", "9", "--set", "n=6"],
        "fig1": ["fig1", "--trials", "5", "--seed", "4"],
        "relay": ["relay-sim", "--trials", "4", "--seed", "6", "--set", "n=6",
                  "--set", "blocks=3", "--set", "margin=0.55"],
    }
    ok = True
    for name, args in commands.items():
        p1 = tmp_path / f"{name}1.csv"
        p2 = tmp_path / f"{name}2.csv"
        assert main(args + ["--out", str(p1)]) == 0
        assert main(args + ["--out", str(p2)]) == 0
        if body(p1) != body(p2):
            ok = False
    report("criterion 8: reruns byte-identical", ok)
