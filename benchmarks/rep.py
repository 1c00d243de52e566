"""One repetition of a workload in a fresh interpreter; prints one JSON record.

Run by ``run.py`` from the root of a checkout:

    python3 benchmarks/rep.py --config '<json from workloads.make_config>' --trace 0

The package is imported from ``src/`` of the current directory.  Only the
pipeline is timed; output checks, the digest and the trace checks run after.
Times are taken both as wall time and as CPU time of this process (all its
threads, plus any children it has waited for).  CPU time leaves out the time
a shared host gives the virtual CPU to others (steal), which wall time counts.
"""
from __future__ import annotations

import argparse
from contextlib import ExitStack
import json
from pathlib import Path
import resource
import sys
from time import perf_counter, process_time


def _cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def _time_design(exit_stack: ExitStack, paths: list[str], spent: list[float]) -> None:
    """Wrap the design entry points so their CPU time is taken at the call boundary."""
    for path in paths:
        module_name, attr = path.split(".")
        module = sys.modules[f"nestedpolar.{module_name}"]
        original = getattr(module, attr, None)
        if original is None:
            continue

        def timed(*args, _fn=original, **kwargs):
            c0 = _cpu_s()
            try:
                return _fn(*args, **kwargs)
            finally:
                spent.append(_cpu_s() - c0)

        setattr(module, attr, timed)
        exit_stack.callback(setattr, module, attr, original)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True, help="workload config as JSON")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    cfg = json.loads(args.config)

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    c0 = _cpu_s()
    import nestedpolar
    import_cpu_s = _cpu_s() - c0
    if Path(nestedpolar.__file__).resolve().parent != (src / "nestedpolar").resolve():
        raise SystemExit(f"imported nestedpolar from {nestedpolar.__file__}, not from {src}")
    # Imported only now, so that the package's own import of numpy is timed.
    import tracing
    import workloads

    design: list[float] = []
    tracer = tracing.Tracer() if args.trace else None
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer)
        _time_design(stack, workloads.design_entry_points(cfg["workload"]), design)
        cpu0 = _cpu_s()
        t0 = perf_counter()
        result = workloads.run_pipeline(cfg)
        wall_s = perf_counter() - t0
        cpu_s = _cpu_s() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = workloads.Checks()
    workloads.check_result(cfg, result, checks)
    record = {
        "traced": bool(args.trace),
        "import_cpu_s": import_cpu_s,
        "design_cpu_s": sum(design),
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "rss_mb": rss_mb,
        "trials": cfg["trials"],
        "digest": workloads.result_digest(cfg, result),
    }
    if tracer is not None:
        tracer.check(checks)
        record["layers"] = tracer.metrics()
        record["missing"] = tracer.missing
        record["pack_columns_mean_weight_per_call"] = [w / c for w, c in tracer.pack_weights if c]
        record["spans"] = [
            {"name": name, "parent": parent, "start": start - t0, "end": end - t0}
            for name, parent, start, end in tracer.spans
        ]
    record["checks"] = checks.as_dict()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
