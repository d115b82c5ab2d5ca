"""End-to-end CLI behavior, run in process through main() (one test runs a
memory-capped child process)."""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys

import pytest

from threeway.cli import main

from helpers import (
    dataset_csv,
    interval_config,
    point_config,
    uniform_config,
    write_run_files,
)


def test_run_writes_all_outputs(tmp_path, capsys):
    config_path = write_run_files(str(tmp_path), uniform_config())
    out = tmp_path / "results"
    assert main(["run", "--config", config_path, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "wrote thresholds.csv" in captured.out
    for name in ("thresholds.csv", "regions.csv", "summary.txt"):
        assert (out / name).is_file()


def test_run_is_byte_identical_across_invocations(tmp_path):
    config_path = write_run_files(str(tmp_path), uniform_config())
    for sub in ("a", "b"):
        assert main(["run", "--config", config_path, "--out", str(tmp_path / sub)]) == 0
    for name in ("thresholds.csv", "regions.csv", "summary.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_run_strict_stops_on_degenerate_t(tmp_path, capsys):
    config_path = write_run_files(str(tmp_path), uniform_config())
    code = main(
        ["run", "--config", config_path, "--out", str(tmp_path / "out"), "--strict"]
    )
    assert code == 2
    assert "strict mode stop" in capsys.readouterr().err


def test_run_honors_strict_ordering_from_config(tmp_path, capsys):
    config = uniform_config()
    config["strict_ordering"] = True
    config_path = write_run_files(str(tmp_path), config)
    assert main(["run", "--config", config_path, "--out", str(tmp_path / "out")]) == 2
    assert "strict mode stop" in capsys.readouterr().err


def test_run_rejects_bad_config(tmp_path, capsys):
    config = uniform_config()
    config["typo_field"] = 1
    config_path = write_run_files(str(tmp_path), config)
    assert main(["run", "--config", config_path, "--out", str(tmp_path / "out")]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_reports_missing_dataset(tmp_path, capsys):
    config_path = write_run_files(str(tmp_path), uniform_config())
    os.remove(tmp_path / "data.csv")
    assert main(["run", "--config", config_path, "--out", str(tmp_path / "out")]) == 1
    assert "cannot read dataset" in capsys.readouterr().err


def test_thresholds_prints_point_json(tmp_path, capsys):
    config_path = write_run_files(str(tmp_path), uniform_config())
    assert main(["thresholds", "--config", config_path, "--t", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == "point"
    assert payload["t"] == 1.0
    assert payload["alpha"] == 0.6666666666666666
    assert payload["beta"] == 0.5333333333333333
    assert payload["degenerate"] is False


def test_thresholds_flags_degenerate_t(tmp_path, capsys):
    config_path = write_run_files(str(tmp_path), uniform_config())
    assert main(["thresholds", "--config", config_path, "--t", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degenerate"] is True


def test_thresholds_prints_band_json(tmp_path, capsys):
    config_path = write_run_files(str(tmp_path), interval_config("band"))
    assert main(["thresholds", "--config", config_path, "--t", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == "band"
    assert payload["alpha_lo"] == 0.2
    assert payload["alpha_hi"] == 1.0
    assert payload["beta_lo"] == 1 / 13
    assert payload["beta_hi"] == 1.0


def test_thresholds_fails_with_exit_2(tmp_path, capsys):
    config_path = write_run_files(
        str(tmp_path), point_config(["t", "1", "5", "0", "1", "5"])
    )
    assert main(["thresholds", "--config", config_path, "--t", "3"]) == 2
    assert "failure at t=3.0" in capsys.readouterr().err


def test_thresholds_rejects_non_finite_t(tmp_path, capsys):
    config_path = write_run_files(str(tmp_path), uniform_config())
    assert main(["thresholds", "--config", config_path, "--t", "inf"]) == 1
    assert "must be finite" in capsys.readouterr().err


def test_validate_accepts_good_config(tmp_path, capsys):
    config_path = write_run_files(str(tmp_path), uniform_config())
    assert main(["validate", "--config", config_path]) == 0
    assert capsys.readouterr().out.strip() == "config ok"


def test_validate_rejects_reversed_grid(tmp_path, capsys):
    config = uniform_config()
    config["time_grid"] = {"start": 5, "stop": 1, "step": 1}
    config_path = write_run_files(str(tmp_path), config)
    assert main(["validate", "--config", config_path]) == 1
    assert "config error" in capsys.readouterr().err


def test_validate_reports_endpoint_ordering_violation(tmp_path, capsys):
    config_path = write_run_files(
        str(tmp_path), point_config(["t", "1", "5", "0", "1", "5"])
    )
    assert main(["validate", "--config", config_path]) == 1
    err = capsys.readouterr().err
    assert "central(pp) <= central(bp)" in err


def test_validate_reports_endpoint_evaluation_failure(tmp_path, capsys):
    config = point_config(["0", "6", "13", "0", "8", "20+1/(t-2)"])
    config["time_grid"] = {"start": 0, "stop": 2, "step": 1}
    config_path = write_run_files(str(tmp_path), config)
    assert main(["validate", "--config", config_path]) == 1
    assert "evaluation failure at t=2.0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "pn,code,stream,expected",
    [
        ("20", 0, "stdout", "config ok"),
        (
            "20+1/(t-1000000000000)",
            1,
            "stderr",
            "config error: evaluation failure at t=1000000000000.0: ",
        ),
    ],
    ids=["ok", "failing-stop"],
)
def test_validate_huge_grid_reads_only_its_endpoints(tmp_path, pn, code, stream, expected):
    # a child process with capped memory and time, so building the
    # 10**12 grid points would fail this test instead of the machine
    config = point_config(["0", "6", "13", "0", "8", pn])
    config["time_grid"] = {"start": 0, "stop": 1e12, "step": 1}
    config_path = write_run_files(str(tmp_path), config)
    limit = 1 << 30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "threeway.cli", "validate", "--config", config_path],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=cap_memory,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert getattr(proc, stream).startswith(expected)


def test_validate_single_point_grid(tmp_path, capsys):
    config = uniform_config()
    config["time_grid"] = {"start": 1, "stop": 1, "step": 1}
    config_path = write_run_files(str(tmp_path), config)
    assert main(["validate", "--config", config_path]) == 0
    assert "config ok" in capsys.readouterr().out


def _config_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("config error: "), err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "expression,match",
    [
        ("1e400", "out of range"),
        ("(" * 300 + "t" + ")" * 300, "nesting deeper than"),
        ("-" * 3000 + "t", "nesting deeper than"),
        ("+".join(["t"] * 3000), "nesting deeper than"),
    ],
    ids=["non-finite-literal", "deep-parentheses", "unary-minus-chain", "long-sum"],
)
def test_bad_expression_is_a_config_error(tmp_path, capsys, expression, match):
    config = point_config(["0", "6", "13", "0", "8", "20"])
    config["loss_matrix"]["bp"]["point"]["value"] = expression
    config_path = write_run_files(str(tmp_path), config)
    assert main(["validate", "--config", config_path]) == 1
    assert match in _config_error(capsys)


@pytest.mark.parametrize("command", ["validate", "run"])
def test_grid_overflow_is_a_config_error(tmp_path, capsys, command):
    config = uniform_config()
    config["time_grid"] = {"start": -1e308, "stop": 1e308, "step": 1}
    config_path = write_run_files(str(tmp_path), config)
    argv = [command, "--config", config_path]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "time_grid" in _config_error(capsys)


def _non_utf8_dataset(tmp_path):
    config_path = write_run_files(str(tmp_path), uniform_config())
    with open(tmp_path / "data.csv", "ab") as handle:
        handle.write(b"o99,\xff,yes\n")
    return config_path, str(tmp_path / "out")


def _oversized_csv_field(tmp_path):
    config_path = write_run_files(str(tmp_path), uniform_config())
    with open(tmp_path / "data.csv", "a", encoding="utf-8") as handle:
        handle.write("o99," + "x" * 200_000 + ",yes\n")
    return config_path, str(tmp_path / "out")


def _non_utf8_config(tmp_path):
    config_path = write_run_files(str(tmp_path), uniform_config())
    with open(config_path, "rb") as handle:
        text = handle.read()
    with open(config_path, "wb") as handle:
        handle.write(text.replace(b'"yes"', b'"y\xe9s"'))
    return config_path, str(tmp_path / "out")


def _nested_json_config(tmp_path):
    config_path = write_run_files(str(tmp_path), uniform_config())
    with open(config_path, "w", encoding="utf-8") as handle:
        handle.write("[" * 100_000 + "]" * 100_000)
    return config_path, str(tmp_path / "out")


def _out_is_a_file(tmp_path):
    config_path = write_run_files(str(tmp_path), uniform_config())
    out = tmp_path / "taken"
    out.write_text("not a directory\n", encoding="utf-8")
    return config_path, str(out)


@pytest.mark.parametrize(
    "setup,match",
    [
        (_non_utf8_dataset, "cannot read dataset"),
        (_oversized_csv_field, "cannot read dataset"),
        (_non_utf8_config, "cannot read config"),
        (_nested_json_config, "nests too deeply"),
        (_out_is_a_file, "cannot write outputs"),
    ],
    ids=[
        "non-utf8-dataset",
        "oversized-csv-field",
        "non-utf8-config",
        "nested-json",
        "out-is-a-file",
    ],
)
def test_unreadable_input_or_unwritable_output_is_a_config_error(
    tmp_path, capsys, setup, match
):
    config_path, out = setup(tmp_path)
    assert main(["run", "--config", config_path, "--out", out]) == 1
    assert match in _config_error(capsys)


@pytest.mark.parametrize(
    "prefix,newline", [("\ufeff", "\n"), ("", "\r\n")], ids=["bom", "crlf"]
)
def test_dataset_with_bom_or_crlf_runs_like_plain(tmp_path, prefix, newline):
    config_path = write_run_files(str(tmp_path), uniform_config())
    run = ["run", "--config", config_path, "--out"]
    assert main(run + [str(tmp_path / "plain")]) == 0
    text = prefix + dataset_csv().replace("\n", newline)
    (tmp_path / "data.csv").write_bytes(text.encode("utf-8"))
    assert main(run + [str(tmp_path / "variant")]) == 0
    for name in ("thresholds.csv", "regions.csv", "summary.txt"):
        assert (tmp_path / "variant" / name).read_bytes() == (
            tmp_path / "plain" / name
        ).read_bytes()
