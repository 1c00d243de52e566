"""The three benchmark workloads: inputs from a seed, the timed pipeline,
output checks and the determinism digest.

Each pipeline is what the matching CLI command runs, minus writing the CSV:

* ``fig1``              -- ``nestedpolar fig1``: the wiretap equivocation sweep.
* ``relay-n13``         -- ``nestedpolar relay-sim`` at n=13 with a calibrated margin.
* ``bsc-construct-n10`` -- ``nestedpolar construct --set channel=bsc`` at n=10.

Pipelines call only the package's stable entry points, looked up on their
modules at call time so that the tracer's wrappers are the ones called.
"""
from __future__ import annotations

from fractions import Fraction
import hashlib
import importlib
import json

import numpy as np

WORKLOADS = ("fig1", "relay-n13", "bsc-construct-n10")

# The fig1 preset's sweep, 0.26 .. 0.50 in steps of 0.02 (as the CLI builds it).
FIG1_POINTS = [round(0.26 + 0.02 * i, 10) for i in range(13)]

# Full sizes are the ROADMAP baselines, except that the relay runs 4 blocks
# instead of 8 so that four repetitions fit into one run.  Its cost scales
# with blocks, and SC decoding stays the dominant layer (about 85%).
# Smoke sizes exercise the same code paths in well under a second.
SIZES = {
    "full": {
        "fig1": {"n": 10, "trials": 1000},
        "relay-n13": {"n": 13, "blocks": 4, "trials": 200},
        # At n=10 about 0.375 of the bit-channels come out clean.
        "bsc-construct-n10": {"n": 10, "trials": 10_000, "clean_band": [0.3, 0.6]},
    },
    "smoke": {
        "fig1": {"n": 6, "trials": 4},
        "relay-n13": {"n": 6, "blocks": 2, "trials": 4},
        # Polarization is weaker at n=6: about 0.25 come out clean.
        "bsc-construct-n10": {"n": 6, "trials": 200, "clean_band": [0.1, 0.5]},
    },
}

# Trials of the fig1 sweep whose equivocations are recomputed independently.
FIG1_RECHECK_TRIALS = 2


def make_config(workload: str, seed: int, smoke: bool = False) -> dict:
    """The program's inputs for one workload, a pure function of the seed."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    cfg = {"workload": workload, "program_seed": int.from_bytes(digest[:4], "little")}
    cfg.update(SIZES["smoke" if smoke else "full"][workload])
    if workload == "fig1":
        cfg.update(rate=0.25, e_m=0.25, design_e_w=0.5, points=FIG1_POINTS)
    elif workload == "relay-n13":
        cfg.update(e_sr=0.1, e_deg=4.0 / 9.0, e_rd=0.5, target=1e-3)
    else:
        cfg.update(crossover_prob=0.11)
    return cfg


def design_entry_points(workload: str) -> list[str]:
    """Calls, as ``module.name``, whose wall time is the workload's design step."""
    return {
        "fig1": ["wiretap.build_wiretap_code", "wiretap.parity_checks"],
        "relay-n13": ["relay.calibrate_margin"],
        "bsc-construct-n10": [],
    }[workload]


def _mod(name: str):
    return importlib.import_module(f"nestedpolar.{name}")


def _wiretap_config(cfg: dict):
    return _mod("wiretap").WiretapConfig(
        e_m=cfg["e_m"], e_w=cfg["design_e_w"], rate=cfg["rate"], n=cfg["n"],
        trials=cfg["trials"], seed=cfg["program_seed"],
    )


def run_pipeline(cfg: dict):
    """Run one workload's pipeline with default arguments; returns its result."""
    workload = cfg["workload"]
    if workload == "fig1":
        return _mod("wiretap").run_wiretap_experiment(_wiretap_config(cfg), cfg["points"])
    if workload == "relay-n13":
        relay = _mod("relay")
        spec = relay.RelayChannelSpec(cfg["e_sr"], cfg["e_deg"], cfg["e_rd"])
        scheme = relay.calibrate_margin(spec, cfg["n"], cfg["blocks"], cfg["target"])
        return scheme, relay.simulate_relay(scheme, spec, cfg["trials"], cfg["program_seed"])
    construction = _mod("construction")
    return construction.mc_reliability(
        construction.BSC(cfg["crossover_prob"]), cfg["n"], cfg["trials"], cfg["program_seed"]
    )


# ---------------------------------------------------------------------------
# determinism digest


def result_digest(cfg: dict, result) -> str:
    """SHA-256 over everything the matching CSV body holds."""
    h = hashlib.sha256()
    workload = cfg["workload"]
    if workload == "fig1":
        eq = np.stack([r.equivocations for r in result], axis=1)
        h.update(eq.astype("<i8").tobytes())
        scalars = [
            (r.e_w, r.mean_equivocation_rate, r.upper_bound, r.trials, r.info_size,
             r.secure_size, r.block_length, r.seed)
            for r in result
        ]
    elif workload == "relay-n13":
        scheme, report = result
        for arr in (report.relay_errors, report.rd_errors, report.dest_errors):
            h.update(np.asarray(arr, dtype=np.uint8).tobytes())
        scalars = [
            scheme.regime, scheme.margin, int(scheme.source_code.info_set.size),
            int(scheme.source_code.randomization_len), list(scheme.stage_bounds),
            str(report.achieved_rate), report.overall_error_rate,
        ]
    else:
        h.update(np.asarray(result.z, dtype="<f8").tobytes())
        scalars = [bool(result.exact)]
    h.update(json.dumps(scalars).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# output checks (run after the timed region)


class Checks:
    """Tally of output checks: each element checked counts as one attempt."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok) -> None:
        ok = np.asarray(ok, dtype=bool)
        bad = int(ok.size - np.count_nonzero(ok))
        self.attempted += int(ok.size)
        self.failed += bad
        if bad:
            self.failures.append(f"{name}: {bad} of {ok.size} failed")

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "failures": self.failures}


def check_result(cfg: dict, result, checks: Checks) -> None:
    workload = cfg["workload"]
    if workload == "fig1":
        _check_fig1(cfg, result, checks)
    elif workload == "relay-n13":
        _check_relay(cfg, result, checks)
    else:
        _check_bsc(cfg, result, checks)


def _check_fig1(cfg: dict, reports, checks: Checks) -> None:
    wiretap = _mod("wiretap")
    points = np.array([r.e_w for r in reports])
    eq = np.stack([r.equivocations for r in reports], axis=1)[:, np.argsort(points, kind="stable")]
    message_bits = reports[0].info_size - reports[0].secure_size
    checks.check("fig1 equivocation nondecreasing in e_w", np.all(np.diff(eq, axis=1) >= 0, axis=1))
    checks.check("fig1 equivocation within [0, |A\\B|]", np.all((eq >= 0) & (eq <= message_bits), axis=1))

    # Independent recomputation: fresh design, non-incremental ranks, the
    # same per-trial draws (erase iff draw < e_w).
    code = wiretap.build_wiretap_code(_wiretap_config(cfg))
    h, h_s = wiretap.parity_checks(code)
    rng_stream = _mod("channels").RngStream
    same = []
    for t in range(min(FIG1_RECHECK_TRIALS, cfg["trials"])):
        draws = rng_stream(cfg["program_seed"], t).generator().random(code.N)
        for r in reports:
            erased = np.nonzero(draws < r.e_w)[0]
            same.append(wiretap.equivocation_rank(h, h_s, erased) == r.equivocations[t])
    checks.check("fig1 incremental rank equals equivocation_rank", same)


def _check_relay(cfg: dict, result, checks: Checks) -> None:
    scheme, report = result
    relay_err = np.asarray(report.relay_errors, dtype=bool)
    rd = np.asarray(report.rd_errors, dtype=bool)
    dest = np.asarray(report.dest_errors, dtype=bool)
    checks.check("relay rd_error implies dest_error", ~rd | dest)
    checks.check("relay overall_error_rate is mean(dest_errors)", report.overall_error_rate == dest.mean())
    code = scheme.source_code
    expected = Fraction(cfg["blocks"] * int(code.info_set.size), code.N * (cfg["blocks"] + 1))
    checks.check("relay achieved_rate is blocks*|A|/(N*(blocks+1))", report.achieved_rate == expected)
    checks.check("relay stage bounds within target", np.array(scheme.stage_bounds) <= cfg["target"])
    # Each stage's union bound is at most the target, so every error rate is
    # at most 3x the target in expectation; 10x is out of reach of chance at
    # the full size and catches a broken decoder.
    rates = [relay_err.mean(), rd.mean(), dest.mean()]
    checks.check("relay error rates within 10x target", np.array(rates) <= 10 * cfg["target"])


def _check_bsc(cfg: dict, profile, checks: Checks) -> None:
    z = np.asarray(profile.z)
    checks.check("bsc z within [0, 1]", (z >= 0.0) & (z <= 1.0))
    checks.check("bsc profile is not exact", profile.exact is False)
    lo, hi = cfg["clean_band"]
    clean = float(np.mean(z < 0.01))
    checks.check(f"bsc clean fraction {clean} within ({lo}, {hi})", lo < clean < hi)
