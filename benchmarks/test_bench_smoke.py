"""Smoke tests of the benchmark itself, at toy sizes (n=6, a few trials).

    python -m pytest benchmarks -q
"""
from __future__ import annotations

import json
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(REPO, "--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "all repetitions agree" in proc.stdout


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_config_is_a_function_of_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_config(workload, 3) == workloads.make_config(workload, 3)
        assert workloads.make_config(workload, 3) != workloads.make_config(workload, 4)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, "--workload", "fig1", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_trace_target_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tracing, "SPAN_TARGETS",
                        tracing.SPAN_TARGETS + [("sc.no_such_decoder", "sc.no_such_decoder")])
    cfg = workloads.make_config("relay-n13", 2, smoke=True)
    checks = workloads.Checks()
    with tracing.Tracer() as tracer:
        result = workloads.run_pipeline(cfg)
    workloads.check_result(cfg, result, checks)
    tracer.check(checks)
    metrics = tracer.metrics()
    assert tracer.missing == ["sc.no_such_decoder"]
    assert metrics["trace.missing"] == 1
    assert metrics["sc.decode_bec_rows.calls"] == 3 * cfg["blocks"]
    assert metrics["sc.decode_bec_rows.stage_sd.calls"] == cfg["blocks"]
    assert checks.failed == 0 and checks.attempted > 0


def test_tracer_restores_the_package():
    import nestedpolar.relay as relay
    import nestedpolar.wiretap as wiretap

    before = (relay.decode_bec_rows, wiretap.IncrementalRank, relay.calibrate_margin)
    with tracing.Tracer():
        assert relay.decode_bec_rows is not before[0]
    assert (relay.decode_bec_rows, wiretap.IncrementalRank, relay.calibrate_margin) == before


def test_fig1_trace_counts_rank_work():
    from nestedpolar.channels import RngStream

    cfg = workloads.make_config("fig1", 2, smoke=True)
    with tracing.Tracer() as tracer:
        workloads.run_pipeline(cfg)
    m = tracer.metrics()
    # Both accumulators see every column erased at the largest swept e_w.
    joined = sum(
        int((RngStream(cfg["program_seed"], t).generator().random(1 << cfg["n"]) < max(cfg["points"])).sum())
        for t in range(cfg["trials"])
    )
    assert m["gf2.IncrementalRank.add.calls"] == 2 * joined
    assert 0 < m["gf2.IncrementalRank.add.useful_frac"] <= 1
    assert m["gf2.IncrementalRank.add.after_full_rank"] <= m["gf2.IncrementalRank.add.calls"]
    assert m["gf2.pack_columns.mean_weight"] > 0
    assert m["sc.decode_bec_rows.calls"] == 0
    assert m["channels.RngStream.generator.calls"] == cfg["trials"]
