"""Per-layer tracing by wrapping the names the pipelines call across modules.

A wrapper is installed on the *calling* module's attribute (for example
``nestedpolar.relay.decode_bec_rows``), because the package binds those
names at import time.  Low-frequency calls become spans (name, parent,
start, end); high-frequency leaf calls (``IncrementalRank.add``, RNG stream
set-up, channel sampling) become counters charged to the enclosing span.
A span's self time is its duration minus the time its wrapped children
cover.  A target that no longer exists is listed in ``missing`` and
skipped, so refactors of the package do not break the traced run.
"""
from __future__ import annotations

import importlib
from time import perf_counter

import numpy as np

# (attribute path under nestedpolar, reported layer name)
SPAN_TARGETS = [
    ("wiretap.run_wiretap_experiment", "wiretap.run_wiretap_experiment"),
    ("wiretap.build_wiretap_code", "wiretap.build_wiretap_code"),
    ("wiretap.parity_checks", "wiretap.parity_checks"),
    ("wiretap.generator_matrix", "polar.generator_matrix"),
    ("wiretap.null_space_basis", "gf2.null_space_basis"),
    ("wiretap.pack_columns", "gf2.pack_columns"),
    ("wiretap.bec_reliability", "construction.bec_reliability"),
    ("relay.calibrate_margin", "relay.calibrate_margin"),
    ("relay.build_relay_scheme", "relay.build_relay_scheme"),
    ("relay.bec_reliability", "construction.bec_reliability"),
    ("relay.simulate_relay", "relay.simulate_relay"),
    ("relay.decode_bec_rows", "sc.decode_bec_rows"),
    ("relay.transform_rows", "polar.transform_rows"),
    ("construction.mc_reliability", "construction.mc_reliability"),
    ("construction.genie_llr_rows", "sc.genie_llr_rows"),
    ("construction.transform_rows", "polar.transform_rows"),
]

# Leaf calls made thousands of times: counted, not recorded one span each.
COUNTER_TARGETS = [
    ("channels.RngStream.generator", "channels.RngStream.generator"),
    ("relay.bec_sample_rows", "channels.bec_sample_rows"),
    ("relay.cascade_rows", "channels.cascade_rows"),
]

RANK_TARGET = ("wiretap.IncrementalRank", "gf2.IncrementalRank.add")

# Relay decoder stages, told apart by the info mask each call passes.
STAGES = ("stage_sr", "stage_rd", "stage_sd")

# Every per-layer metric, with its unit.  The traced repetitions fill most;
# the runner fills RUNNER_METRICS, which need the untraced repetitions.  A
# share is a layer's traced busy time over the untraced pipeline wall time:
# the wrappers' own cost falls mostly outside the busy intervals, so the
# traced wall would understate the share.
PER_LAYER = [
    ("gf2.IncrementalRank.add.calls", "count"),
    ("gf2.IncrementalRank.add.busy_s", "s"),
    ("gf2.IncrementalRank.add.useful_frac", "frac"),
    ("gf2.IncrementalRank.add.after_full_rank", "count"),
    ("gf2.IncrementalRank.add.share", "frac"),
    ("gf2.pack_columns.mean_weight", "bits"),
    ("gf2.null_space_basis.busy_s", "s"),
    ("polar.generator_matrix.busy_s", "s"),
    ("wiretap.parity_checks.busy_s", "s"),
    ("wiretap.build_wiretap_code.busy_s", "s"),
    ("wiretap.run_wiretap_experiment.self_s", "s"),
    *[
        (f"sc.decode_bec_rows{part}.{field}", unit)
        for part in ("", *(f".{s}" for s in STAGES))
        for field, unit in (("calls", "count"), ("rows", "rows"), ("busy_s", "s"),
                            ("undetermined", "count"))
    ],
    ("sc.decode_bec_rows.share", "frac"),
    ("sc.genie_llr_rows.calls", "count"),
    ("sc.genie_llr_rows.rows", "rows"),
    ("sc.genie_llr_rows.busy_s", "s"),
    ("sc.genie_llr_rows.share", "frac"),
    ("polar.transform_rows.calls", "count"),
    ("polar.transform_rows.rows", "rows"),
    ("polar.transform_rows.busy_s", "s"),
    ("channels.RngStream.generator.calls", "count"),
    ("channels.RngStream.generator.busy_s", "s"),
    ("channels.bec_sample_rows.calls", "count"),
    ("channels.bec_sample_rows.busy_s", "s"),
    ("channels.cascade_rows.calls", "count"),
    ("channels.cascade_rows.busy_s", "s"),
    ("relay.calibrate_margin.busy_s", "s"),
    ("relay.build_relay_scheme.calls", "count"),
    ("construction.bec_reliability.calls", "count"),
    ("construction.bec_reliability.busy_s", "s"),
    ("relay.simulate_relay.self_s", "s"),
    ("construction.mc_reliability.self_s", "s"),
    ("trace.missing", "count"),
    ("setup.import_s", "s"),
    ("setup.design_s", "s"),
    ("proc.cpu_s", "s"),
    ("proc.cpu_util", "frac"),
    ("proc.trials_per_wall_s", "1/s"),
    ("trace.overhead_frac", "frac"),
]
SHARES = ("gf2.IncrementalRank.add", "sc.decode_bec_rows", "sc.genie_llr_rows")
RUNNER_METRICS = {"setup.import_s", "setup.design_s", "proc.cpu_s", "proc.cpu_util",
                  "proc.trials_per_wall_s", "trace.overhead_frac",
                  *(f"{name}.share" for name in SHARES)}


class Stat:
    __slots__ = ("calls", "busy", "self_", "rows", "undetermined")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_ = 0.0
        self.rows = 0
        self.undetermined = 0


def _resolve(path: str):
    """(owner object, attribute name, current value) for a dotted path under nestedpolar.

    Raises ImportError or AttributeError when the name is gone.
    """
    parts = path.split(".")
    owner = importlib.import_module(f"nestedpolar.{parts[0]}")
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Installs the wrappers, collects spans and counters, then restores."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple[str, int, float, float]] = []  # name, parent span, start, end
        self.missing: list[str] = []
        self.rank = [0, 0.0, 0, 0]  # calls, busy, useful, after full row rank
        self.pack_weights: list[tuple[int, int]] = []  # (total popcount, columns) per call
        self.stage_masks: dict[bytes, str] = {}
        self.decoded: list[tuple] = []  # (stage, y, u_hat, undetermined) for the re-encode check
        self._col_rows: dict[int, int] = {}  # id(packed column) -> rows of its matrix
        self._keep: list = []  # keeps packed columns alive so their ids stay unique
        self._stack: list[list] = [[-1, 0.0]]  # frames: [span index, child time]
        self._undo: list[tuple] = []
        self._observers = {
            "gf2.pack_columns": self._observe_pack,
            "relay.calibrate_margin": self._observe_scheme,
            "sc.decode_bec_rows": self._observe_decode,
            "sc.genie_llr_rows": self._observe_rows,
            "polar.transform_rows": self._observe_rows,
        }

    # -- installation -------------------------------------------------------

    def __enter__(self):
        for path, name in SPAN_TARGETS:
            self._patch(path, name, self._span_wrapper)
        for path, name in COUNTER_TARGETS:
            self._patch(path, name, self._counter_wrapper)
        self._patch(*RANK_TARGET, self._rank_wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, path: str, name: str, make) -> None:
        try:
            owner, attr, original = _resolve(path)
        except (ImportError, AttributeError):
            self.missing.append(path)
            return
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original, name))

    def _stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, name):
        stat = self._stat(name)
        stack, spans = self._stack, self.spans
        observe = self._observers.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [len(spans), 0.0]
            spans.append(None)  # reserve the index so children can name it as parent
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                stat.calls += 1
                stat.busy += t1 - t0
                stat.self_ += t1 - t0 - frame[1]
                spans[frame[0]] = (name, parent[0], t0, t1)
                parent[1] += t1 - t0
            if observe is not None:
                observe(name, args, result, t1 - t0)
                parent[1] += perf_counter() - t1  # observer time stays out of the parent's self time
            return result

        return traced

    def _counter_wrapper(self, fn, name):
        stat = self._stat(name)
        stack = self._stack

        def counted(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            stat.calls += 1
            stat.busy += dt
            stat.self_ += dt
            stack[-1][1] += dt
            return result

        return counted

    def _rank_wrapper(self, base, name):
        base_add = base.add
        c, col_rows, stack = self.rank, self._col_rows, self._stack

        def add(acc, v):
            full = acc.rank == col_rows.get(id(v))
            t0 = perf_counter()
            ok = base_add(acc, v)
            dt = perf_counter() - t0
            c[0] += 1
            c[1] += dt
            c[2] += ok
            c[3] += full
            stack[-1][1] += dt
            return ok

        return type(base.__name__, (base,), {"__slots__": (), "add": add})

    # -- observers (outside the wrapped call's own timing) --------------------

    def _observe_rows(self, name, args, result, dt) -> None:
        self._stat(name).rows += args[0].shape[0]

    def _observe_pack(self, name, args, result, dt) -> None:
        rows = args[0].rows
        self._keep.append(result)
        for v in result:
            self._col_rows[id(v)] = rows
        self.pack_weights.append((sum(v.bit_count() for v in result), len(result)))

    def _observe_scheme(self, name, args, scheme, dt) -> None:
        try:
            code = scheme.source_code
            sd_mask = np.zeros(code.N, dtype=bool)
            sd_mask[code.secure_set] = True
            masks = {
                "stage_sr": code.bob_spec().info_mask,
                "stage_rd": scheme.rd_code.info_mask,
                "stage_sd": sd_mask,
            }
        except AttributeError:
            return
        self.stage_masks = {np.asarray(m, dtype=bool).tobytes(): s for s, m in masks.items()}

    def _observe_decode(self, name, args, result, dt) -> None:
        y, info_mask = args[0], args[1]
        u_hat, undet = result
        stage = self.stage_masks.get(np.asarray(info_mask, dtype=bool).tobytes())
        stats = [self._stat(name)]
        if stage:
            stage_stat = self._stat(f"{name}.{stage}")
            stage_stat.calls += 1
            stage_stat.busy += dt
            stats.append(stage_stat)
        for st in stats:
            st.rows += y.shape[0]
            st.undetermined += int(np.sum(undet))
        if stage in ("stage_sr", "stage_rd"):
            self.decoded.append((stage, y, u_hat, undet))

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics taken from one traced repetition."""
        empty = Stat()
        m: dict[str, float] = {}

        def stat(name: str) -> Stat:
            return self.stats.get(name, empty)

        calls, busy, useful, full = self.rank
        add = "gf2.IncrementalRank.add"
        m[f"{add}.calls"] = calls
        m[f"{add}.busy_s"] = busy
        m[f"{add}.useful_frac"] = useful / calls if calls else 0.0
        m[f"{add}.after_full_rank"] = full
        columns = sum(c for _, c in self.pack_weights)
        m["gf2.pack_columns.mean_weight"] = (
            sum(w for w, _ in self.pack_weights) / columns if columns else 0.0
        )
        for name in ("gf2.null_space_basis", "polar.generator_matrix", "wiretap.parity_checks",
                     "wiretap.build_wiretap_code", "relay.calibrate_margin",
                     "construction.bec_reliability"):
            m[f"{name}.busy_s"] = stat(name).busy
        for name in ("wiretap.run_wiretap_experiment", "relay.simulate_relay",
                     "construction.mc_reliability"):
            m[f"{name}.self_s"] = stat(name).self_
        for name in ("sc.decode_bec_rows", *(f"sc.decode_bec_rows.{s}" for s in STAGES),
                     "sc.genie_llr_rows", "polar.transform_rows"):
            st = stat(name)
            m[f"{name}.calls"] = st.calls
            m[f"{name}.rows"] = st.rows
            m[f"{name}.busy_s"] = st.busy
            if name.startswith("sc.decode_bec_rows"):
                m[f"{name}.undetermined"] = st.undetermined
        for name in ("channels.RngStream.generator", "channels.bec_sample_rows",
                     "channels.cascade_rows"):
            m[f"{name}.calls"] = stat(name).calls
            m[f"{name}.busy_s"] = stat(name).busy
        m["relay.build_relay_scheme.calls"] = stat("relay.build_relay_scheme").calls
        m["construction.bec_reliability.calls"] = stat("construction.bec_reliability").calls
        m["trace.missing"] = len(self.missing)
        return m

    def check(self, checks) -> None:
        """Trace consistency, and the re-encode check on the relay's decodes."""
        # One nanosecond absorbs the rounding of the float subtractions.
        checks.check("trace self times >= 0", [st.self_ >= -1e-9 for st in self.stats.values()])
        transform_rows = importlib.import_module("nestedpolar.polar").transform_rows
        for stage, y, u_hat, undet in self.decoded:
            done = np.asarray(undet) == 0
            x = transform_rows(np.ascontiguousarray(u_hat[done])).astype(np.int8)
            yd = y[done]
            checks.check(
                f"{stage}: fully determined rows re-encode to y on unerased positions",
                np.all((x == yd) | (yd < 0), axis=1),
            )
