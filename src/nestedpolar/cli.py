"""Batch experiment driver.

Commands: ``construct`` (reliability profile to CSV), ``wiretap-sweep``
(equivocation vs. eavesdropper erasure rate), ``fig1`` (the wiretap sweep
at the canonical design point N=1024, rate 0.25, main erasure 0.25,
design eavesdropper erasure 0.5) and ``relay-sim`` (block-Markov
decode-and-forward run).

Configuration comes from plain-text key=value files, overridden on the
command line.  Every artifact is a CSV whose non-comment body is a pure
function of the configuration and seed; the only volatile line is the
"generated:" comment.  Sweep commands also emit a standalone matplotlib
plot script so the core keeps zero graphics dependencies.
"""
from __future__ import annotations

import argparse
import errno
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .channels import GENERATOR_NAME
from .construction import BSC, bec_reliability, mc_reliability
from .polar import CodeParams
from .relay import RelayChannelSpec, build_relay_scheme, calibrate_margin, simulate_relay
from .wiretap import WiretapConfig, run_wiretap_experiment

__all__ = ["ConfigError", "main"]

# Longest e_w sweep a wiretap command will build.
MAX_SWEEP_POINTS = 10_000
# Most result cells (trials x sweep points, or trials x blocks) a run will hold.
MAX_RESULT_CELLS = 10_000_000
# Most codeword cells (trials x N) a relay-sim block decodes at once; its
# working arrays take about 20 bytes per cell.
MAX_WORD_CELLS = 10_000_000
# Most cells of the N x N generator a wiretap design step builds (n <= 14);
# its peak memory is about 3 bytes per cell.
MAX_GENERATOR_CELLS = 1 << 28

# key -> (converter, default); None default means required.  fig1 takes
# every other key from the wiretap-sweep defaults.
_SCHEMAS: dict[str, dict] = {
    "construct": {
        "n": (int, None),
        "channel": (str, "bec"),
        "erasure_prob": (float, 0.5),
        "crossover_prob": (float, 0.11),
        "trials": (int, 100_000),
        "seed": (int, 0),
    },
    "wiretap-sweep": {
        "n": (int, 10),
        "rate": (float, 0.25),
        "e_m": (float, 0.25),
        "design_e_w": (float, 0.5),
        "ew_start": (float, 0.26),
        "ew_stop": (float, 0.50),
        "ew_step": (float, 0.02),
        "trials": (int, 1000),
        "seed": (int, 0),
    },
    "fig1": {
        "trials": (int, 1000),
        "seed": (int, 0),
    },
    "relay-sim": {
        "n": (int, 10),
        "e_sr": (float, 0.1),
        "e_deg": (float, 4.0 / 9.0),
        "e_rd": (float, 0.5),
        "blocks": (int, 8),
        "margin": (float, 0.0),  # 0 means "calibrate to target"
        "target": (float, 0.001),
        "trials": (int, 200),
        "seed": (int, 0),
    },
}


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key."""


def _parse_config_file(path: Path) -> dict[str, str]:
    raw: dict[str, str] = {}
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config: line {lineno} is not key=value: {line!r}")
        key, _, value = line.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def _typed_params(command: str, raw: dict[str, str]) -> dict:
    schema = _SCHEMAS[command]
    params = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"{key}: unknown key for command {command!r}")
        conv = schema[key][0]
        try:
            params[key] = conv(value)
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse {value!r} as {conv.__name__}") from exc
    for key, (_, default) in schema.items():
        if key not in params:
            if default is None:
                raise ConfigError(f"{key}: required key missing for command {command!r}")
            params[key] = default
    return params


def _require(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{key}: {message}")


def _require_n(n: int) -> None:
    try:
        CodeParams(n)
    except ValueError as exc:
        raise ConfigError(f"n: {exc}") from exc


def _header_lines(command: str, params: dict) -> list[str]:
    items = " ".join(f"{k}={v}" for k, v in sorted(params.items()))  # str(float) is its repr
    return [
        f"# nestedpolar {__version__} schema={command}-v1",
        f"# config: command={command} {items}",
        f"# rng: {GENERATOR_NAME}",
        f"# generated: {datetime.now(timezone.utc).isoformat()}",
    ]


def _write_artifacts(files: list[tuple[Path, str]]) -> None:
    """Write all artifacts, or none: temp files are renamed only at the end,
    and only once no target is a directory, which a rename cannot replace."""
    temps = []
    try:
        for path, content in files:
            tmp = path.with_name(path.name + ".tmp")
            temps.append((tmp, path))  # before the write, which can fail halfway
            tmp.write_text(content)
        for tmp, path in temps:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for tmp, path in temps:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in temps:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
        raise


# ---------------------------------------------------------------------------
# commands: each validates its parameters, runs, and returns the
# (path, text) artifacts to write, the CSV at ``out`` first


def _run_construct(command: str, p: dict, out: Path) -> list[tuple[Path, str]]:
    _require_n(p["n"])
    _require(p["channel"] in ("bec", "bsc"), "channel", "must be 'bec' or 'bsc'")
    if p["channel"] == "bec":
        _require(0.0 <= p["erasure_prob"] <= 1.0, "erasure_prob", "must be in [0, 1]")
        profile = bec_reliability(p["n"], p["erasure_prob"])
    else:
        _require(0.0 <= p["crossover_prob"] <= 0.5, "crossover_prob", "must be in [0, 1/2]")
        _require(p["trials"] >= 1, "trials", "must be positive")
        profile = mc_reliability(BSC(p["crossover_prob"]), p["n"], p["trials"], p["seed"])
    lines = _header_lines(command, p)
    lines.append("index,z,exact")
    flag = "true" if profile.exact else "false"
    for i, z in enumerate(profile.z):
        lines.append(f"{i},{float(z)!r},{flag}")
    return [(out, "\n".join(lines) + "\n")]


def _sweep_points(start: float, stop: float, step: float) -> list[float]:
    count = np.floor((stop - start) / step + 1e-9) + 1
    _require(count <= MAX_SWEEP_POINTS, "ew_step",
             f"sweep would have {count:.3g} points, more than {MAX_SWEEP_POINTS}")
    return [round(start + i * step, 10) for i in range(int(count))]


def _plot_script(csv_name: str) -> str:
    return f'''"""Plot equivocation rate and its upper bound from {csv_name}."""
import matplotlib.pyplot as plt

with open("{csv_name}") as f:
    rows = [ln.strip().split(",") for ln in f if ln.strip() and not ln.startswith("#")]
columns = {{name: [float(r[i]) for r in rows[1:]] for i, name in enumerate(rows[0])}}

plt.figure(figsize=(6, 4))
plt.plot(columns["e_w"], columns["mean_equivocation_rate"], "o-", label="equivocation rate")
plt.plot(columns["e_w"], columns["upper_bound"], "k--", label="upper bound")
plt.xlabel("eavesdropper erasure probability")
plt.ylabel("equivocation rate (bits/use)")
plt.legend()
plt.grid(True, alpha=0.3)
plt.tight_layout()
out = "{csv_name}".replace(".csv", "") + ".png"
plt.savefig(out, dpi=150)
print("saved", out)
'''


def _stderr_of_rate(r) -> float:
    """Monte-Carlo standard error of ``r.mean_equivocation_rate`` (nan for one trial)."""
    if r.trials < 2:
        return float("nan")
    return float(np.std(r.equivocations, ddof=1) / np.sqrt(r.trials) / r.block_length)


def _run_wiretap(command: str, params: dict, out: Path) -> list[tuple[Path, str]]:
    p = {key: default for key, (_, default) in _SCHEMAS["wiretap-sweep"].items()}
    p.update(params)
    _require_n(p["n"])
    _require(4 ** p["n"] <= MAX_GENERATOR_CELLS, "n",
             f"the design step's N x N generator would exceed {MAX_GENERATOR_CELLS} cells")
    _require(0.0 <= p["design_e_w"] <= 1.0, "design_e_w", "need 0 <= design_e_w <= 1")
    _require(0.0 <= p["e_m"] <= p["design_e_w"], "e_m", "need 0 <= e_m <= design_e_w")
    _require(0.0 <= p["rate"] < 1.0, "rate", "must be in [0, 1)")
    _require(p["trials"] >= 1, "trials", "must be positive")
    _require(0.0 < p["ew_step"] < np.inf, "ew_step", "must be positive and finite")
    _require(0.0 <= p["ew_stop"] <= 1.0, "ew_stop", "need 0 <= ew_stop <= 1")
    _require(0.0 <= p["ew_start"] <= p["ew_stop"], "ew_start", "need 0 <= ew_start <= ew_stop")
    points = _sweep_points(p["ew_start"], p["ew_stop"], p["ew_step"])
    _require(all(0.0 <= x <= 1.0 for x in points), "ew_stop", "sweep leaves [0, 1]")
    _require(p["trials"] * len(points) <= MAX_RESULT_CELLS, "trials",
             f"{p['trials']} trials x {len(points)} sweep points exceed {MAX_RESULT_CELLS} result cells")
    try:
        wcfg = WiretapConfig(
            e_m=p["e_m"], e_w=p["design_e_w"], rate=p["rate"], n=p["n"],
            trials=p["trials"], seed=p["seed"],
        )
    except ValueError as exc:  # every field but the code sizes is checked above
        raise ConfigError(f"rate: {exc}") from exc
    reports = run_wiretap_experiment(wcfg, points)
    lines = _header_lines(command, p)
    stderrs = ",".join(repr(_stderr_of_rate(r)) for r in reports)
    lines.append(f"# stats: mean_equivocation_rate_stderr={stderrs}")
    lines.append("e_w,mean_equivocation_rate,upper_bound,trials,info_size,secure_size,block_length,seed")
    for r in reports:
        lines.append(
            f"{r.e_w!r},{r.mean_equivocation_rate!r},{r.upper_bound!r},"
            f"{r.trials},{r.info_size},{r.secure_size},{r.block_length},{r.seed}"
        )
    return [
        (out, "\n".join(lines) + "\n"),
        (out.with_name(out.stem + "_plot.py"), _plot_script(out.name)),
    ]


def _run_relay(command: str, p: dict, out: Path) -> list[tuple[Path, str]]:
    _require_n(p["n"])
    for key in ("e_sr", "e_deg", "e_rd"):
        _require(0.0 <= p[key] <= 1.0, key, "must be in [0, 1]")
    _require(1 <= p["blocks"] <= MAX_RESULT_CELLS, "blocks", f"must be in [1, {MAX_RESULT_CELLS}]")
    _require(p["trials"] >= 1, "trials", "must be positive")
    _require(p["trials"] * p["blocks"] <= MAX_RESULT_CELLS, "trials",
             f"{p['trials']} trials x {p['blocks']} blocks exceed {MAX_RESULT_CELLS} result cells")
    _require(p["trials"] << p["n"] <= MAX_WORD_CELLS, "trials",
             f"{p['trials']} trials x N={1 << p['n']} exceed {MAX_WORD_CELLS} codeword cells")
    _require(p["margin"] == 0.0 or 0.0 < p["margin"] <= 1.0, "margin", "must be in (0, 1] (or 0 to calibrate)")
    _require(p["target"] > 0.0, "target", "must be positive")
    spec = RelayChannelSpec(p["e_sr"], p["e_deg"], p["e_rd"])
    calibrate = p["margin"] == 0.0
    try:
        if calibrate:
            scheme = calibrate_margin(spec, p["n"], p["blocks"], p["target"])
        else:
            scheme = build_relay_scheme(spec, p["n"], p["blocks"], p["margin"])
    except ValueError as exc:  # no margin meets the target, or this margin does not fit
        raise ConfigError(f"{'target' if calibrate else 'margin'}: {exc}") from exc
    report = simulate_relay(scheme, spec, p["trials"], p["seed"])
    lines = _header_lines(command, p)
    lines.append(
        f"# scheme: regime={scheme.regime} margin={scheme.margin!r} "
        f"info_size={scheme.source_code.info_set.size} "
        f"secure_size={scheme.source_code.randomization_len} "
        f"stage_bounds={scheme.stage_bounds[0]!r},{scheme.stage_bounds[1]!r},{scheme.stage_bounds[2]!r}"
    )
    sr, rd, sd = report.undetermined.sum(axis=(0, 1)).tolist()
    lines.append(f"# stats: undetermined_sr={sr} undetermined_rd={rd} undetermined_sd={sd}")
    lines.append("trial,block,relay_error,rd_error,dest_error")
    for t in range(report.trials):
        for k in range(scheme.blocks):
            lines.append(
                f"{t},{k},{int(report.relay_errors[t, k])},"
                f"{int(report.rd_errors[t, k])},{int(report.dest_errors[t, k])}"
            )
    lines.append(
        f"summary,achieved_rate,{report.achieved_rate},"
        f"overall_error_rate,{report.overall_error_rate!r}"
    )
    return [(out, "\n".join(lines) + "\n")]


# ---------------------------------------------------------------------------
# entry point

_RUNNERS = {
    "construct": _run_construct,
    "wiretap-sweep": _run_wiretap,
    "relay-sim": _run_relay,
    "fig1": _run_wiretap,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestedpolar",
        description="Nested polar coding experiments on erasure wiretap and relay channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", type=Path, default=None, help="key=value config file")
        p.add_argument("--seed", type=int, default=None, help="master PRNG seed")
        p.add_argument("--trials", type=int, default=None, help="Monte-Carlo trials")
        p.add_argument("--out", type=Path, default=None, help="output CSV path")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override any config key (repeatable)",
        )
    return parser


def _assemble_params(args: argparse.Namespace) -> dict:
    raw: dict[str, str] = {}
    if args.config is not None:
        raw.update(_parse_config_file(args.config))
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set: expected KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()
    for key in ("seed", "trials"):
        value = getattr(args, key)
        if value is not None:
            raw[key] = str(value)
    return _typed_params(args.command, raw)


def main(argv=None) -> int:
    """Run one command; returns the exit status, 2 for a bad configuration."""
    args = _build_parser().parse_args(argv)
    out = args.out or Path(f"{args.command}.csv")
    try:
        params = _assemble_params(args)
        _require(0 <= params["seed"] < 2**64, "seed", f"must be in [0, 2**64), got {params['seed']}")
        _require(out.parent.is_dir(), "out", f"{str(out.parent)!r} is not a directory")
        files = _RUNNERS[args.command](args.command, params, out)
        _write_artifacts(files)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # only the write touches files; it removed its temp files
        print(f"error: out: cannot write {out}: {exc}", file=sys.stderr)
        return 2
    print("wrote " + " and ".join(str(path) for path, _ in files))
    return 0


if __name__ == "__main__":
    sys.exit(main())
