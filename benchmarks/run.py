"""Benchmark of the nestedpolar pipelines, run from the root of a checkout.

    python3 benchmarks/run.py --workload fig1 --seed 1 --seconds 40 --trace 0

Each repetition runs the workload's pipeline once in a fresh single-threaded
interpreter (``rep.py``), one at a time, until ``--seconds`` are used up.
With ``--trace 0`` the last line of output holds the end-to-end metrics
(medians over the repetitions); with ``--trace 1`` untraced and traced
repetitions alternate and the per-layer metrics come from the traced ones.
Throughput and set-up are taken in CPU seconds of the repetition's process:
on a shared host the wall time of a single-threaded run also counts the
time the host gives the virtual CPU to others, and that varies from minute
to minute.  Wall-clock throughput is reported per layer, next to the CPU
utilisation.
Every repetition's outputs are checked after its timed region, and all
repetitions of one seed must give one result digest.  A results file with
the environment record, every repetition and the spans is written under
``benchmarks/results/``.  ``--smoke`` runs toy sizes for the benchmark's own
tests.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
from pathlib import Path
import platform
from statistics import median
import subprocess
import sys
from time import perf_counter

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
MIN_REPS = 2  # untraced repetitions per run, so the digest is compared at least once
TIME_LIMIT_S = 170.0  # the whole run ends before this, whatever --seconds says

END_TO_END_UNITS = {"trials_per_cpu_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(cmd: list[str], timeout: float) -> str:
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=max(timeout, 1.0), env=_child_env()
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"repetition exited with code {proc.returncode}")
    return proc.stdout


def _load_average() -> float | None:
    try:
        return os.getloadavg()[0]
    except OSError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (root / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def _source_digest(root: Path) -> str:
    """SHA-256 over the package sources, identifying the code measured."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_1min_start": _load_average(),
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
    }


def run_reps(cfg: dict, seconds: float, trace: bool) -> list[dict]:
    """Alternate fresh-process repetitions until ``seconds`` are used up."""
    start = perf_counter()
    # Warm-up: compile bytecode and load the files, outside any repetition.
    _run_child([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import nestedpolar"],
               TIME_LIMIT_S)
    records: list[dict] = []
    took: dict[bool, list[float]] = {False: [], True: []}
    while True:
        traced = trace and len(records) % 2 == 1
        t0 = perf_counter()
        out = _run_child(
            [sys.executable, str(HERE / "rep.py"), "--config", json.dumps(cfg),
             "--trace", str(int(traced))],
            TIME_LIMIT_S - (t0 - start),
        )
        took[traced].append(perf_counter() - t0)
        records.append(json.loads(out.strip().splitlines()[-1]))

        enough = len(took[True]) >= 1 if trace else len(took[False]) >= MIN_REPS
        next_traced = trace and len(records) % 2 == 1
        estimate = median(took[next_traced] or took[not next_traced])
        elapsed = perf_counter() - start
        if elapsed + estimate > TIME_LIMIT_S or (enough and elapsed + estimate > seconds):
            return records


def end_to_end(records: list[dict]) -> dict[str, float]:
    plain = [r for r in records if not r["traced"]]
    return {
        "trials_per_cpu_s": median(r["trials"] / r["cpu_s"] for r in plain),
        "setup_s": median(r["import_cpu_s"] + r["design_cpu_s"] for r in plain),
        "peak_rss_mb": median(r["rss_mb"] for r in plain),
    }


def per_layer(records: list[dict]) -> dict[str, float]:
    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    m = {
        name: median(r["layers"][name] for r in traced)
        for name, _ in tracing.PER_LAYER
        if name not in tracing.RUNNER_METRICS
    }
    m["setup.import_s"] = median(r["import_cpu_s"] for r in plain)
    m["setup.design_s"] = median(r["design_cpu_s"] for r in plain)
    m["proc.cpu_s"] = median(r["cpu_s"] for r in plain)
    m["proc.cpu_util"] = median(r["cpu_s"] / r["wall_s"] for r in plain)
    m["proc.trials_per_wall_s"] = median(r["trials"] / r["wall_s"] for r in plain)
    plain_wall = median(r["wall_s"] for r in plain)
    m["trace.overhead_frac"] = median(r["wall_s"] for r in traced) / plain_wall - 1.0
    for name in tracing.SHARES:
        m[f"{name}.share"] = m[f"{name}.busy_s"] / plain_wall
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the benchmark's tests")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "nestedpolar" / "__init__.py").is_file():
        print("error: run from the root of a nestedpolar checkout (no src/nestedpolar here)",
              file=sys.stderr)
        return 2

    env = _environment(root)
    cfg = workloads.make_config(args.workload, args.seed, smoke=args.smoke)
    try:
        records = run_reps(cfg, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_1min_end"] = _load_average()

    digests = [r["digest"] for r in records]
    attempted = sum(r["checks"]["attempted"] for r in records) + len(records) - 1
    failed = sum(r["checks"]["failed"] for r in records) + sum(d != digests[0] for d in digests[1:])
    if args.trace:
        units = dict(tracing.PER_LAYER)
        values = per_layer(records)
    else:
        units = END_TO_END_UNITS
        values = end_to_end(records)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    missing = sorted({name for r in records for name in r.get("missing", [])})

    results = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "config": cfg, "environment": env, "digest": digests[0], "digests_agree": len(set(digests)) == 1,
        "missing": missing, "attempted": attempted, "failed": failed, "metrics": metrics,
        "repetitions": records,
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    suffix = "_smoke" if args.smoke else ""
    out_path = out_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}{suffix}.json"
    out_path.write_text(json.dumps(results, indent=1) + "\n")

    print(f"environment: {json.dumps(env)}")
    print(f"repetitions: {len(records)} ({sum(r['traced'] for r in records)} traced)")
    print(f"digest: {digests[0]} ({'all repetitions agree' if results['digests_agree'] else 'MISMATCH'})")
    for r in records:
        for failure in r["checks"]["failures"]:
            print(f"check failed: {failure}")
    if missing:
        print(f"missing trace targets: {', '.join(missing)}")
    print(f"results: {out_path.relative_to(root)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
