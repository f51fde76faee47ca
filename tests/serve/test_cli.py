"""The serving CLI: table output, byte-identical JSON, usage errors."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.serve.cli import build_parser, main

FAST_ARGS = [
    "--workload", "alexnet",
    "--rate", "40",
    "--horizon-s", "0.2",
    "--policy", "dynamic",
    "--slo-ms", "50",
    "--seed", "0",
    "--schemes", "BP",
]


def test_parser_covers_the_documented_flags():
    args = build_parser().parse_args(FAST_ARGS)
    assert args.workload == "alexnet"
    assert args.rate == 40.0
    assert args.slo_ms == 50.0


def test_cli_prints_table_and_writes_json(tmp_path, capsys):
    out = tmp_path / "metrics.json"
    assert main(FAST_ARGS + ["--json", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "scheme" in printed and "p99 ms" in printed and "mJ/req" in printed
    document = json.loads(out.read_text())
    assert document["config"]["workload"] == "alexnet"
    assert set(document["schemes"]) == {"BP"}
    summary = document["schemes"]["BP"]["summary"]
    assert summary["arrivals"] == document["requests"]


def test_same_seed_json_is_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    main(FAST_ARGS + ["--json", str(first)])
    main(FAST_ARGS + ["--json", str(second)])
    assert first.read_bytes() == second.read_bytes()


def test_multi_scheme_comparison(tmp_path, capsys):
    args = FAST_ARGS[:-2] + ["--schemes", "BP,UR"]
    args += ["--ebt", "6", "--rate", "10", "--json", str(tmp_path / "m.json")]
    assert main(args) == 0
    document = json.loads((tmp_path / "m.json").read_text())
    assert set(document["schemes"]) == {"BP", "UR"}
    # The HUB rate array pays latency for its bandwidth savings.
    bp = document["schemes"]["BP"]["summary"]
    ur = document["schemes"]["UR"]["summary"]
    assert ur["p99_latency_s"] > bp["p99_latency_s"]
    capsys.readouterr()


def test_bad_arguments_are_usage_errors():
    with pytest.raises(SystemExit):
        main(["--workload", "alexnet", "--rate", "10", "--schemes", "XX"])
    with pytest.raises(SystemExit):
        main(["--workload", "alexnet", "--rate", "10", "--slo-ms", "-5"])
    with pytest.raises(SystemExit):
        main(["--workload", "alexnet", "--rate", "10", "--schemes", "BP,BP"])


@pytest.mark.parametrize(
    "argv,field",
    [
        (["--workload", "alexnet", "--rate", "nan"], "rate_per_s"),
        (["--workload", "alexnet", "--rate", "inf"], "rate_per_s"),
        (["--workload", "alexnet", "--rate", "inf", "--horizon-s", "0.01"], "rate_per_s"),
        (["--workload", "alexnet", "--rate", "10", "--horizon-s", "nan"], "horizon_s"),
        (["--workload", "alexnet", "--rate", "10", "--arrivals", "uniform", "--horizon-s", "inf"], "horizon_s"),
    ],
)
def test_non_finite_numbers_exit_2_naming_the_field(argv, field):
    # NaN slips past ``x <= 0`` guards and inf past ``x > 0``; either
    # used to hang the arrival generator or yield an empty "success".
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.serve", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert field in proc.stderr and "must be finite" in proc.stderr


HOSTILE_BASE = ["--workload", "alexnet", "--rate", "200", "--horizon-s", "0.05"]


@pytest.mark.parametrize(
    "flags,field",
    [
        (["--max-batch", "0"], "max_batch"),
        (["--queue-capacity", "0"], "queue_capacity"),
        (["--slo-ms", "nan"], "slo_ms"),
        (["--slo-ms", "inf"], "slo_ms"),
        (["--slo-ms", "-5"], "slo_ms"),
        (["--max-wait-ms", "nan"], "max_wait_ms"),
        (["--max-wait-ms", "-1"], "max_wait_ms"),
        (["--power-cap-w", "nan"], "power_cap_w"),
        (["--power-cap-w", "0"], "power_cap_w"),
        (["--act-frac", "nan"], "act_frac"),
        (["--act-frac", "1.5"], "act_frac"),
        (["--battery-j", "nan"], "battery_j"),
        (["--battery-j", "0"], "battery_j"),
        (["--bits", "0"], "bits"),
        (["--ebt", "0"], "ebt"),
    ],
)
def test_hostile_numbers_exit_2_naming_the_flag(flags, field):
    # Each used to die with a bare ValueError traceback (exit 1) or, for
    # NaN, to exit 0 and print a table.
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.serve", *HOSTILE_BASE, *flags],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr and field in proc.stderr
