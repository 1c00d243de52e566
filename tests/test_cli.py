import argparse
import hashlib
from pathlib import Path
import re
import subprocess
import sys

import numpy as np
import pytest

from nestedpolar import __version__
from nestedpolar.cli import _build_parser, main
from nestedpolar.wiretap import WiretapConfig, run_wiretap_experiment

README = Path(__file__).resolve().parents[1] / "README.md"

# One small run per command.
SMALL_RUNS = {
    "construct": ["construct", "--set", "n=2"],
    "wiretap-sweep": ["wiretap-sweep", "--trials", "2", "--set", "n=4", "--set", "ew_start=0.3",
                      "--set", "ew_stop=0.4", "--set", "ew_step=0.1"],
    "relay-sim": ["relay-sim", "--trials", "2", "--set", "n=4", "--set", "blocks=2", "--set", "margin=0.5"],
    "fig1": ["fig1", "--trials", "1"],
}


def body_lines(path):
    """CSV body: everything that is not a comment line."""
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


def test_construct_bec_csv(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["construct", "--set", "n=3", "--set", "erasure_prob=0.5", "--out", str(out)])
    assert rc == 0
    rows = body_lines(out)
    assert rows[0] == "index,z,exact"
    values = [float(r.split(",")[1]) for r in rows[1:]]
    assert len(values) == 8
    assert abs(np.mean(values) - 0.5) < 1e-12
    assert all(r.endswith("true") for r in rows[1:])


def test_construct_requires_n(tmp_path):
    rc = main(["construct", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert not (tmp_path / "x.csv").exists()


def test_unknown_key_rejected(tmp_path):
    rc = main(["construct", "--set", "n=3", "--set", "bogus=1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert not (tmp_path / "x.csv").exists()


def test_bad_value_rejected(tmp_path):
    rc = main(["construct", "--set", "n=three", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


@pytest.mark.parametrize("args, key", [
    (["construct", "--set", "n=-1"], "n"),
    (["construct", "--set", "n=21"], "n"),
    (["wiretap-sweep", "--set", "n=21"], "n"),
    (["wiretap-sweep", "--set", "rate=0.9"], "rate"),
    (["relay-sim", "--set", "n=-1"], "n"),
    (["relay-sim", "--set", "n=21"], "n"),
    (["fig1", "--seed", "-1"], "seed"),
    (["wiretap-sweep", "--seed", "18446744073709551616"], "seed"),
    (["relay-sim", "--set", "margin=0.5", "--seed", "-1"], "seed"),
    (["construct", "--set", "n=4", "--set", "channel=bsc", "--seed", "-1"], "seed"),
    (["wiretap-sweep", "--set", "ew_step=1e-12"], "ew_step"),
    (["wiretap-sweep", "--set", "ew_stop=inf"], "ew_stop"),
    (["wiretap-sweep", "--set", "ew_start=-1"], "ew_start"),
    (["wiretap-sweep", "--trials", "1000000000000"], "trials"),
    (["fig1", "--trials", "1000000000000"], "trials"),
    (["relay-sim", "--set", "n=2", "--set", "margin=1", "--set", "blocks=1000000000", "--trials", "2"], "blocks"),
    (["relay-sim", "--set", "n=2", "--set", "margin=1", "--set", "blocks=2", "--trials", "100000000"], "trials"),
    (["relay-sim", "--set", "n=13", "--set", "blocks=1", "--trials", "10000000"], "trials"),
    (["relay-sim", "--set", "n=10", "--set", "e_sr=0.6", "--set", "e_deg=0.5", "--set", "e_rd=0.9",
      "--set", "target=1e-300", "--trials", "2"], "target"),
    (["wiretap-sweep", "--set", "ew_stop=nan"], "ew_stop"),
    (["wiretap-sweep", "--set", "design_e_w=nan"], "design_e_w"),
    (["wiretap-sweep", "--set", "design_e_w=2"], "design_e_w"),
])
def test_bad_size_rejected(tmp_path, capsys, args, key):
    out = tmp_path / "x.csv"
    assert main(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert not out.exists()


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nn = 3\nerasure_prob = 0.5\n")
    out = tmp_path / "c.csv"
    rc = main(["construct", "--config", str(cfg), "--set", "erasure_prob=0.25", "--out", str(out)])
    assert rc == 0
    values = [float(r.split(",")[1]) for r in body_lines(out)[1:]]
    assert abs(np.mean(values) - 0.25) < 1e-12  # override wins


def test_config_file_syntax_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n 3\n")
    rc = main(["construct", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_wiretap_sweep_small(tmp_path):
    out = tmp_path / "w.csv"
    rc = main([
        "wiretap-sweep", "--out", str(out), "--trials", "25", "--seed", "11",
        "--set", "n=6", "--set", "ew_start=0.3", "--set", "ew_stop=0.5", "--set", "ew_step=0.1",
    ])
    assert rc == 0
    rows = body_lines(out)
    assert rows[0].startswith("e_w,mean_equivocation_rate,upper_bound")
    assert len(rows) == 1 + 3
    rates = [float(r.split(",")[1]) for r in rows[1:]]
    assert rates == sorted(rates)
    assert (tmp_path / "w_plot.py").exists()


def test_sweep_stats_give_one_standard_error_per_point(tmp_path):
    out = tmp_path / "w.csv"
    args = ["--trials", "25", "--seed", "11", "--set", "n=6", "--set", "ew_start=0.3",
            "--set", "ew_stop=0.5", "--set", "ew_step=0.1"]
    assert main(["wiretap-sweep", "--out", str(out)] + args) == 0
    stats = [ln for ln in out.read_text().splitlines() if ln.startswith("# stats:")]
    assert len(stats) == 1
    match = re.fullmatch(r"# stats: mean_equivocation_rate_stderr=(\S+)", stats[0])
    values = [float(v) for v in match.group(1).split(",")]
    cfg = WiretapConfig(e_m=0.25, e_w=0.5, rate=0.25, n=6, trials=25, seed=11)
    reports = run_wiretap_experiment(cfg, [0.3, 0.4, 0.5])
    assert len(values) == len(body_lines(out)) - 1 == len(reports)
    for value, r in zip(values, reports):
        eq = r.equivocations / r.block_length
        assert value == pytest.approx(np.std(eq, ddof=1) / np.sqrt(len(eq)), rel=1e-12)


def test_fig1_shape(tmp_path):
    out = tmp_path / "fig1.csv"
    rc = main(["fig1", "--trials", "10", "--seed", "7", "--out", str(out)])
    assert rc == 0
    rows = body_lines(out)
    assert len(rows) == 1 + 13  # header plus the 13 sweep points
    ews = [float(r.split(",")[0]) for r in rows[1:]]
    assert ews[0] == 0.26 and ews[-1] == 0.5
    rates = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(b >= a for a, b in zip(rates, rates[1:]))  # common random numbers
    sizes = {tuple(r.split(",")[4:7]) for r in rows[1:]}
    assert sizes == {("768", "512", "1024")}


def test_emitted_plot_script_runs(tmp_path):
    pytest.importorskip("matplotlib")
    out = tmp_path / "sweep.csv"
    rc = main(["wiretap-sweep", "--out", str(out), "--trials", "5", "--set", "n=4",
               "--set", "ew_start=0.3", "--set", "ew_stop=0.5", "--set", "ew_step=0.1"])
    assert rc == 0
    script = tmp_path / "sweep_plot.py"
    proc = subprocess.run(
        [sys.executable, script.name], cwd=tmp_path, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sweep.png").exists()


def test_relay_sim_csv(tmp_path):
    out = tmp_path / "r.csv"
    rc = main([
        "relay-sim", "--out", str(out), "--trials", "4", "--seed", "5",
        "--set", "n=6", "--set", "blocks=3", "--set", "margin=0.55",
    ])
    assert rc == 0
    rows = body_lines(out)
    assert rows[0] == "trial,block,relay_error,rd_error,dest_error"
    assert len(rows) == 1 + 4 * 3 + 1
    assert rows[-1].startswith("summary,achieved_rate,")
    assert "overall_error_rate" in rows[-1]
    stats = [ln for ln in out.read_text().splitlines() if ln.startswith("# stats:")]
    assert len(stats) == 1
    assert re.fullmatch(r"# stats: undetermined_sr=\d+ undetermined_rd=\d+ undetermined_sd=\d+", stats[0])


def _subcommands():
    (action,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return set(action.choices)


def test_selftest_is_not_a_command():
    with pytest.raises(SystemExit) as exc:
        main(["selftest"])
    assert exc.value.code == 2


def test_header_names_schema(tmp_path):
    assert set(SMALL_RUNS) == _subcommands()
    for command, args in SMALL_RUNS.items():
        out = tmp_path / f"{command}.csv"
        assert main(args + ["--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == f"# nestedpolar {__version__} schema={command}-v1"


def test_fig1_is_wiretap_sweep_at_its_defaults(tmp_path):
    bodies = []
    for command in ("fig1", "wiretap-sweep"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--trials", "5", "--seed", "4", "--out", str(out)]) == 0
        bodies.append(body_lines(out))
    assert bodies[0] == bodies[1]


def test_readme_lists_exactly_the_subcommands():
    text = README.read_text()
    section = text.split("## Command-line driver", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"^nestedpolar (\S+)", section, flags=re.M)) == _subcommands()


def test_reruns_are_byte_identical(tmp_path):
    # Each output's SHA-256 without its "# generated:" line, recorded with
    # numpy 2.4.6.  The relay hash covers the "# stats: undetermined_*" line,
    # so it moves with any change to decoding or to the RNG streams, even on
    # a run without errors.
    for name, (args, digest) in {
        "a": (["construct", "--set", "n=4", "--set", "erasure_prob=0.3"],
              "2ee871317471a1bc7b2a5ec1bf87eed772dd11a68e1452b9ac828135b9f4f3cf"),
        "b": (["wiretap-sweep", "--trials", "10", "--seed", "3", "--set", "n=5",
               "--set", "ew_start=0.3", "--set", "ew_stop=0.4", "--set", "ew_step=0.05"],
              "dfea88695f0d30c5f15249b1d4b1d7c596fd22a534163a007759efe6aa66b2ec"),
        "c": (["relay-sim", "--trials", "3", "--seed", "8", "--set", "n=5",
               "--set", "blocks=2", "--set", "margin=0.5"],
              "d58d670dc75ed0a5572cc7f76cf687b95667bb4ed15e7cea5a7c6d2ca9247a74"),
        "d": (["fig1", "--trials", "5", "--seed", "4"],
              "9630b89fff97d3f0f8215b947995305c490505929a2c584cb97eef2884a741d4"),
    }.items():
        first = tmp_path / f"{name}1.csv"
        second = tmp_path / f"{name}2.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert body_lines(first) == body_lines(second)
        kept = [ln for ln in first.read_text().splitlines(keepends=True)
                if not ln.startswith("# generated:")]
        assert hashlib.sha256("".join(kept).encode()).hexdigest() == digest, name
