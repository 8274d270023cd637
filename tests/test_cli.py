"""Tests for the command-line front end: arguments, config, output formats."""

import csv
import json
import math
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellwigner.chsh import chsh_sampled
from bellwigner.cli import _COMMANDS, _SETTINGS, ENV_SEED, UsageError, load_config, main
from bellwigner.states import bell_wigner_state


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_chsh_exact_subcommand(capsys):
    status, out, err = run_cli(capsys, "chsh-exact")
    assert status == 0 and err == ""
    doc = json.loads(out)
    assert doc["s_value"] == pytest.approx(2.828427, abs=1e-6)
    assert doc["mode"] == "exact"


def test_classical_bound_subcommand(capsys):
    status, out, _ = run_cli(capsys, "classical-bound")
    assert status == 0
    assert json.loads(out) == {"classical_max": 2}


def test_grw_prob_subcommand(capsys):
    status, out, _ = run_cli(capsys, "grw-prob", "--n", "100", "--t", "1e3", "--rate", "1e-16")
    assert status == 0
    doc = json.loads(out)
    assert set(doc) == {"linear", "exact"}
    assert doc["linear"] == pytest.approx(1e-11, rel=1e-6)
    assert doc["exact"] == pytest.approx(1e-11, rel=1e-9)
    assert doc["exact"] < doc["linear"]


@pytest.mark.parametrize("flag", ["--rate", "--t"])
def test_grw_prob_prints_no_negative_zero(capsys, flag):
    # -0.0 passes the non-negative check, and min(1.0, -0.0) and -expm1(0.0) keep its sign
    status, out, _ = run_cli(capsys, "grw-prob", flag, "-0.0")
    assert status == 0
    assert out == '{\n  "linear": 0.0,\n  "exact": 0.0\n}\n'
    status, out, _ = run_cli(capsys, "grw-prob", flag, "-0.0", "--format", "csv")
    assert status == 0
    assert out == "linear,exact\n0.0,0.0\n"


def test_grw_sim_subcommand(capsys):
    status, out, _ = run_cli(capsys, "grw-sim", "--n", "1e25", "--t", "1e-9",
                             "--rate", "1e-16", "--trials", "20000", "--seed", "3")
    assert status == 0
    doc = json.loads(out)
    assert doc["collapsed_fraction"] == pytest.approx(1 - math.exp(-1), abs=0.02)


def test_chsh_sample_matches_library(capsys):
    status, out, _ = run_cli(capsys, "chsh-sample", "--shots", "1000", "--seed", "42")
    assert status == 0
    doc = json.loads(out)
    report = chsh_sampled(bell_wigner_state(), 1000, 42)
    assert doc["s_value"] == report.s_value
    assert doc["sigma_violation"] == report.sigma_violation
    assert doc["sigma_violation"] > 5


def test_stdout_is_byte_identical_across_reruns(capsys):
    for argv in (
        ["chsh-sample", "--shots", "200", "--seed", "9"],
        ["grw-sim", "--trials", "5000", "--seed", "11"],
        ["agreement", "--scale", "macro"],
    ):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


ROUND_TRIP_ARGS = {
    "chsh-exact": [],
    "chsh-sample": ["--shots", "50", "--seed", "1"],
    "classical-bound": [],
    "distribution": ["--setting", "01"],
    "verify-algebra": [],
    "grw-prob": [],
    "grw-sim": ["--trials", "100"],
    "branches": [],
    "agreement": [],
    "dump-state": [],
    "dump-observable": ["A1"],
}


@pytest.mark.parametrize("subcommand", _COMMANDS)
def test_json_round_trip_is_byte_identical(capsys, subcommand):
    status, out, _ = run_cli(capsys, subcommand, *ROUND_TRIP_ARGS[subcommand])
    assert status == 0
    reemitted = json.dumps(json.loads(out), indent=2) + "\n"
    assert reemitted == out


@pytest.mark.parametrize("subcommand", _COMMANDS)
def test_csv_renders_for_every_subcommand(capsys, subcommand):
    args = ROUND_TRIP_ARGS[subcommand] + ["--format", "csv"]
    status, out, _ = run_cli(capsys, subcommand, *args)
    assert status == 0
    rows = list(csv.reader(out.splitlines()))
    assert len(rows) >= 2  # header plus at least one data row
    _, second, _ = run_cli(capsys, subcommand, *args)
    assert second == out


def test_distribution_setting_and_sum(capsys):
    status, out, _ = run_cli(capsys, "distribution", "--setting", "11")
    doc = json.loads(out)
    assert doc["setting"] == "11"
    assert len(doc["outcomes"]) == 9
    total = sum(cell["joint_probability"] for cell in doc["outcomes"])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_verify_algebra_subcommand(capsys):
    status, out, _ = run_cli(capsys, "verify-algebra")
    assert status == 0
    assert json.loads(out)["all_passed"] is True


def test_branches_subcommand(capsys):
    status, out, _ = run_cli(capsys, "branches")
    doc = json.loads(out)
    assert [b["label"] for b in doc["branches"]] == ["F_h", "F_v"]
    assert [b["weight"] for b in doc["branches"]] == [pytest.approx(0.5), pytest.approx(0.5)]


def test_agreement_subcommand_macro(capsys):
    status, out, _ = run_cli(capsys, "agreement", "--scale", "macro")
    doc = json.loads(out)
    assert doc["mode"] == "macro"
    assert doc["all_equal"] is True
    for report in doc["backends"].values():
        assert report["s_value"] == pytest.approx(math.sqrt(2) / 2, abs=1e-9)


def test_agreement_sampled_flag(capsys):
    status, out, _ = run_cli(capsys, "agreement", "--sampled", "--shots", "2000", "--seed", "5")
    doc = json.loads(out)
    for report in doc["backends"].values():
        assert report["mode"] == "sampled"
        assert report["sigma_violation"] > 5


def test_dump_state_document(capsys):
    status, out, _ = run_cli(capsys, "dump-state")
    doc = json.loads(out)
    assert doc["layout"] == ["photon_a", "friend_a", "photon_b", "friend_b"]
    assert len(doc["amplitudes"]) == 16
    status, out, _ = run_cli(capsys, "dump-state", "plus-photon")
    assert json.loads(out)["layout"] == ["photon"]


def test_dump_observable_document(capsys):
    status, out, _ = run_cli(capsys, "dump-observable", "B1")
    doc = json.loads(out)
    assert doc["label"] == "B1" and doc["side"] == "bob"
    assert [line["value"] for line in doc["spectrum"]] == [1.0, -1.0, 0.0]


def test_csv_chsh_exact(capsys):
    status, out, _ = run_cli(capsys, "chsh-exact", "--format", "csv")
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["A1B1", "A1B0", "A0B1", "A0B0", "S"]
    values = [float(cell) for cell in rows[1]]
    assert values[4] == pytest.approx(2 * math.sqrt(2), abs=1e-9)


def test_csv_distribution(capsys):
    status, out, _ = run_cli(capsys, "distribution", "--setting", "00", "--format", "csv")
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["a_value", "b_value", "joint_probability"]
    total = sum(float(row[2]) for row in rows[1:])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_csv_grw_sim_handles_missing_mean(capsys):
    status, out, _ = run_cli(capsys, "grw-sim", "--trials", "100")
    doc = json.loads(out)
    assert doc["mean_collapse_time_s"] is None
    status, out, _ = run_cli(capsys, "grw-sim", "--trials", "100", "--format", "csv")
    rows = list(csv.reader(out.splitlines()))
    assert rows[1][1] == ""


def test_config_file_applies_and_flags_override(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": 7, "shots": 500}))
    status, out, _ = run_cli(capsys, "chsh-sample", "--config", str(config))
    doc = json.loads(out)
    expected = chsh_sampled(bell_wigner_state(), 500, 7)
    assert doc["shots_per_setting"] == 500
    assert doc["s_value"] == expected.s_value

    status, out, _ = run_cli(capsys, "chsh-sample", "--config", str(config), "--shots", "100")
    assert json.loads(out)["shots_per_setting"] == 100


def test_config_rejects_unknown_key(capsys, tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"shotz": 500}))
    status, out, err = run_cli(capsys, "chsh-sample", "--config", str(config))
    assert status == 2
    assert "shotz" in err


def test_config_rejects_type_mismatch(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"shots": "many"}))
    with pytest.raises(UsageError, match="shots"):
        load_config(str(config))
    config.write_text(json.dumps({"seed": True}))
    with pytest.raises(UsageError, match="seed"):
        load_config(str(config))
    config.write_text("[1, 2]")
    with pytest.raises(UsageError, match="object"):
        load_config(str(config))
    config.write_text("{not json")
    with pytest.raises(UsageError, match="not valid JSON"):
        load_config(str(config))


def test_empty_config_uses_defaults(capsys, tmp_path):
    config = tmp_path / "empty.json"
    config.write_text("{}")
    status, out, _ = run_cli(capsys, "chsh-sample", "--config", str(config))
    assert json.loads(out)["shots_per_setting"] == 10_000


def test_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv(ENV_SEED, "42")
    _, out, _ = run_cli(capsys, "chsh-sample", "--shots", "1000")
    expected = chsh_sampled(bell_wigner_state(), 1000, 42)
    assert json.loads(out)["s_value"] == expected.s_value

    # explicit flag wins over the environment
    monkeypatch.setenv(ENV_SEED, "42")
    _, out, _ = run_cli(capsys, "chsh-sample", "--shots", "1000", "--seed", "7")
    expected = chsh_sampled(bell_wigner_state(), 1000, 7)
    assert json.loads(out)["s_value"] == expected.s_value


def test_env_seed_rejects_garbage(capsys, monkeypatch):
    monkeypatch.setenv(ENV_SEED, "not-a-seed")
    status, _, err = run_cli(capsys, "chsh-exact")
    assert status == 2
    assert ENV_SEED in err


def test_unknown_subcommand_and_flag(capsys):
    status, _, err = run_cli(capsys, "not-a-command")
    assert status == 2 and "usage" in err
    status, _, err = run_cli(capsys, "chsh-exact", "--bogus")
    assert status == 2


def test_invalid_seed_values(capsys):
    status, _, _ = run_cli(capsys, "chsh-sample", "--seed", "-1")
    assert status == 2
    status, _, _ = run_cli(capsys, "chsh-sample", "--seed", str(2 ** 64))
    assert status == 2


def test_invalid_shots_value(capsys):
    status, _, err = run_cli(capsys, "chsh-sample", "--shots", "1")
    assert status == 2
    assert "at least 2" in err


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    status, out, _ = run_cli(capsys, "chsh-exact", "--out", str(target))
    assert status == 0
    assert out == ""
    assert json.loads(target.read_text())["s_value"] == pytest.approx(2.828427, abs=1e-6)


def test_out_write_failure_is_internal_error(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "report.json"
    status, _, err = run_cli(capsys, "chsh-exact", "--out", str(target))
    assert status == 1
    assert "cannot write" in err


def test_agreement_respects_scale_buckets(capsys):
    # explicit particle count incompatible with the requested scale is a
    # usage error
    status, _, err = run_cli(capsys, "agreement", "--scale", "micro", "--n", "1e25")
    assert status == 2
    assert "microscopic" in err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_chsh_sample_with_zero_standard_error_is_strict(capsys):
    # two shots that draw one outcome product per setting give SE = 0
    status, out, _ = run_cli(capsys, "chsh-sample", "--shots", "2", "--seed", "4")
    assert status == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["standard_error"] == 0.0
    assert doc["sigma_violation"] is None

    status, out, _ = run_cli(capsys, "chsh-sample", "--shots", "2", "--seed", "4",
                             "--format", "csv")
    assert status == 0
    header, row = list(csv.reader(out.splitlines()))
    assert row[header.index("sigma_violation")] == ""

    # runs that once printed "sigma_violation": Infinity or died of a MemoryError
    for argv in (["--shots", "2", "--seed", "3"], ["--shots", "100000000000", "--seed", "1"]):
        status, out, err = run_cli(capsys, "chsh-sample", *argv)
        assert (status, err) == (0, "")
        json.loads(out, parse_constant=_reject_constant)


def test_non_finite_json_value_is_usage_error(capsys, monkeypatch):
    import bellwigner.cli as cli

    # saved for monkeypatch to restore, then replaced through _command like every handler
    monkeypatch.setitem(cli._COMMANDS, "classical-bound", cli._COMMANDS["classical-bound"])
    cli._command("classical-bound", cli._one_row)(lambda cfg: ({"x": math.inf}, 0))
    status, out, err = run_cli(capsys, "classical-bound")
    assert status == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_range_error_names_its_source(capsys, monkeypatch, tmp_path, seed):
    status, _, err = run_cli(capsys, "chsh-exact", "--seed", str(seed))
    assert status == 2 and "argument --seed" in err and "unsigned 64-bit" in err

    config = tmp_path / "seed.json"
    config.write_text(json.dumps({"seed": seed}))
    status, _, err = run_cli(capsys, "chsh-exact", "--config", str(config))
    assert status == 2 and "config key 'seed'" in err and "unsigned 64-bit" in err

    monkeypatch.setenv(ENV_SEED, str(seed))
    status, _, err = run_cli(capsys, "chsh-exact")
    assert status == 2 and ENV_SEED in err and "unsigned 64-bit" in err


def _error_text(call, *args) -> str:
    """The message of the error ``call(*args)`` raises; its wording is Python's own."""
    try:
        call(*args)
    except (ValueError, RecursionError) as exc:
        return str(exc)
    raise AssertionError(f"{call!r} raised nothing")


DEEP_CONFIG = "[" * 200_000
LONG_INT_CONFIG = '{"seed": ' + "1" * 5000 + "}"
HUGE_FLOAT_CONFIG = '{"n": 1' + "0" * 400 + "}"
CONFIG = "error: config '{dir}/config.json'"

# (argv, config file text or bytes or None, BELLWIGNER_SEED or None, exit
# status, exact last stderr line); "{dir}" stands for a per-test temporary
# directory
USAGE_ERRORS = {
    "seed_flag": (["chsh-exact", "--seed", "-1"], None, None, 2,
                  "bellwigner chsh-exact: error: argument --seed: "
                  "seed must fit in an unsigned 64-bit integer"),
    "seed_config": (["chsh-exact"], '{"seed": -1}', None, 2,
                    "error: config key 'seed' must fit in an unsigned 64-bit integer"),
    "seed_env": (["chsh-exact"], None, "-1", 2,
                 "error: BELLWIGNER_SEED must fit in an unsigned 64-bit integer"),
    "seed_env_garbage": (["chsh-exact"], None, "x", 2,
                         "error: BELLWIGNER_SEED must be an integer, got 'x'"),
    "one_shot": (["chsh-sample", "--shots", "1"], None, None, 2,
                 "bellwigner chsh-sample: error: argument --shots: "
                 "shots must be at least 2, got 1"),
    "unknown_key": (["chsh-exact"], '{"shotz": 5}', None, 2,
                    "error: unknown config key 'shotz'"),
    "int_type": (["chsh-exact"], '{"shots": "many"}', None, 2,
                 "error: config key 'shots' must be an integer, got 'many'"),
    "float_type": (["chsh-exact"], '{"n": true}', None, 2,
                   "error: config key 'n' must be a number, got True"),
    "str_type": (["chsh-exact"], '{"out": 3}', None, 2,
                 "error: config key 'out' must be a string, got 3"),
    "not_positive": (["chsh-exact"], '{"trials": 0}', None, 2,
                     "error: config key 'trials' must be positive, got 0"),
    "bad_choice": (["chsh-exact"], '{"scale": "meso"}', None, 2,
                   "error: config key 'scale' must be one of ('micro', 'macro'), got 'meso'"),
    "micro_too_big": (["agreement", "--scale", "micro", "--n", "1e25"], None, None, 2,
                      "error: microscopic friend cannot have 1e+25 particles (> 1000000.0)"),
    "unwritable_out": (["chsh-exact", "--out", "{dir}/missing/x.json"], None, None, 1,
                       "error: cannot write '{dir}/missing/x.json': [Errno 2] "
                       "No such file or directory: '{dir}/missing/x.json'"),
    # a path is quoted as repr writes it, so a newline in it stays on one line
    "newline_out_dir": (["chsh-exact", "--out", "{dir}/no\nsuch/x.json"], None, None, 1,
                        "error: cannot write '{dir}/no\\nsuch/x.json': [Errno 2] "
                        "No such file or directory: '{dir}/no\\nsuch/x.json'"),
    # a path is non-empty with no NUL byte; argv cannot carry a NUL, main can
    "empty_out_flag": (["classical-bound", "--out", ""], None, None, 2,
                       "bellwigner classical-bound: error: argument --out: "
                       "out must be a non-empty path with no NUL byte, got ''"),
    "empty_out_config": (["classical-bound"], '{"out": ""}', None, 2,
                         "error: config key 'out' must be a non-empty path with no NUL byte, "
                         "got ''"),
    "nul_out_flag": (["classical-bound", "--out", "a\0b"], None, None, 2,
                     "bellwigner classical-bound: error: argument --out: "
                     "out must be a non-empty path with no NUL byte, got 'a\\x00b'"),
    "nul_out_config": (["classical-bound"], '{"out": "a\\u0000b"}', None, 2,
                       "error: config key 'out' must be a non-empty path with no NUL byte, "
                       "got 'a\\x00b'"),
    # nor a lone surrogate, which the file system cannot encode
    "surrogate_out_flag": (["classical-bound", "--out", "\ud800"], None, None, 2,
                           "bellwigner classical-bound: error: argument --out: "
                           "out must be a path the file system can encode, got '\\ud800'"),
    "surrogate_out_config": (["classical-bound"], '{"out": "\\ud800"}', None, 2,
                             "error: config key 'out' must be a path the file system can "
                             "encode, got '\\ud800'"),
    # flags are never abbreviated: a prefix is an unknown argument
    "flag_prefix": (["chsh-sample", "--sh", "5"], None, None, 2,
                    "bellwigner: error: unrecognized arguments: --sh 5"),
    "ambiguous_flag_prefix": (["chsh-sample", "--se", "1"], None, None, 2,
                              "bellwigner: error: unrecognized arguments: --se 1"),
    # a config is strict JSON: no NaN or Infinity token and no repeated key
    "nan_token": (["classical-bound"], '{"t": NaN}', None, 2,
                  CONFIG + " is not valid JSON: key 't' has the non-standard token NaN"),
    "infinity_token": (["classical-bound"], '{"t": Infinity}', None, 2,
                       CONFIG + " is not valid JSON: key 't' has the non-standard token Infinity"),
    "minus_infinity_token": (["classical-bound"], '{"rate": -Infinity}', None, 2,
                             CONFIG + " is not valid JSON: key 'rate' has the non-standard "
                             "token -Infinity"),
    "repeated_key": (["chsh-exact"], '{"seed": 1, "seed": 2}', None, 2,
                     CONFIG + " is not valid JSON: key 'seed' is given twice"),
    # every read or parse failure is one line that names the file
    "missing_config": (["chsh-exact", "--config", "{dir}/missing.json"], None, None, 2,
                       "error: config '{dir}/missing.json' cannot be read: [Errno 2] "
                       "No such file or directory: '{dir}/missing.json'"),
    "newline_config_path": (["classical-bound", "--config", "{dir}/no\nsuch.json"], None, None, 2,
                            "error: config '{dir}/no\\nsuch.json' cannot be read: [Errno 2] "
                            "No such file or directory: '{dir}/no\\nsuch.json'"),
    "nul_config_path": (["classical-bound", "--config", "a\0b"], None, None, 2,
                        "error: config 'a\\x00b' cannot be read: embedded null byte"),
    "deep_nesting": (["chsh-exact"], DEEP_CONFIG, None, 2,
                     CONFIG + " is not valid JSON: " + _error_text(json.loads, DEEP_CONFIG)),
    "long_integer": (["chsh-exact"], LONG_INT_CONFIG, None, 2,
                     CONFIG + " is not valid JSON: " + _error_text(json.loads, LONG_INT_CONFIG)),
    "not_utf8": (["chsh-exact"], b'{"seed": "\xff"}', None, 2,
                 CONFIG + " is not valid JSON: 'utf-8' codec can't decode byte 0xff "
                 "in position 10: invalid start byte"),
    # a float setting is finite, from a flag or a config, whatever the subcommand
    "nan_flag": (["classical-bound", "--t", "nan"], None, None, 2,
                 "bellwigner classical-bound: error: argument --t: t must be finite, got nan"),
    "inf_flag": (["chsh-exact", "--rate", "inf", "--n", "nan"], None, None, 2,
                 "bellwigner chsh-exact: error: argument --rate: rate must be finite, got inf"),
    "overflow_flag": (["chsh-exact", "--n", "1e400"], None, None, 2,
                      "bellwigner chsh-exact: error: argument --n: n must be finite, got inf"),
    "inf_config": (["classical-bound"], '{"t": 1e999}', None, 2,
                   "error: config key 't' must be finite, got inf"),
    "overflow_config": (["classical-bound"], HUGE_FLOAT_CONFIG, None, 2,
                        "error: config key 'n' must be finite, got inf"),
    # --key=-- gives the value '--' on every Python (3.10-3.12 argparse stores [] for it);
    # --out=-- is the path '--', tested on its own
    "seed_dashes": (["chsh-sample", "--seed=--"], None, None, 2,
                    "bellwigner chsh-sample: error: argument --seed: "
                    "seed must be an integer, got '--'"),
    "shots_dashes": (["chsh-sample", "--shots=--"], None, None, 2,
                     "bellwigner chsh-sample: error: argument --shots: "
                     "shots must be an integer, got '--'"),
    "trials_dashes": (["grw-sim", "--trials=--"], None, None, 2,
                      "bellwigner grw-sim: error: argument --trials: "
                      "trials must be an integer, got '--'"),
    "n_dashes": (["grw-prob", "--n=--"], None, None, 2,
                 "bellwigner grw-prob: error: argument --n: n must be a number, got '--'"),
    "t_dashes": (["grw-prob", "--t=--"], None, None, 2,
                 "bellwigner grw-prob: error: argument --t: t must be a number, got '--'"),
    "rate_dashes": (["grw-sim", "--rate=--"], None, None, 2,
                    "bellwigner grw-sim: error: argument --rate: rate must be a number, got '--'"),
    "setting_dashes": (["distribution", "--setting=--"], None, None, 2,
                       "bellwigner distribution: error: argument --setting: "
                       "setting must be one of ('00', '01', '10', '11'), got '--'"),
    "scale_dashes": (["agreement", "--scale=--"], None, None, 2,
                     "bellwigner agreement: error: argument --scale: "
                     "scale must be one of ('micro', 'macro'), got '--'"),
    "format_dashes": (["dump-state", "--format=--"], None, None, 2,
                      "bellwigner dump-state: error: argument --format: "
                      "format must be one of ('json', 'csv'), got '--'"),
    "config_dashes": (["classical-bound", "--config=--"], None, None, 2,
                      "error: config '--' cannot be read: [Errno 2] "
                      "No such file or directory: '--'"),
    "sampled_dashes": (["agreement", "--sampled=--"], None, None, 2,
                       "bellwigner agreement: error: argument --sampled: "
                       "ignored explicit argument '--'"),
}


@pytest.mark.parametrize("case", USAGE_ERRORS)
def test_usage_error_table(capsys, monkeypatch, tmp_path, case):
    argv, config_text, env_seed, expected_status, last_line = USAGE_ERRORS[case]
    monkeypatch.chdir(tmp_path)  # a relative path such as '--' names nothing there
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    if config_text is not None:
        config = tmp_path / "config.json"
        if isinstance(config_text, bytes):
            config.write_bytes(config_text)
        else:
            config.write_text(config_text)
        argv += ["--config", str(config)]
    if env_seed is None:
        monkeypatch.delenv(ENV_SEED, raising=False)
    else:
        monkeypatch.setenv(ENV_SEED, env_seed)
    status, out, err = run_cli(capsys, *argv)
    assert (status, out) == (expected_status, "")
    assert err.endswith("\n")
    assert err.splitlines()[-1] == last_line.replace("{dir}", str(tmp_path))


def test_dashes_out_flag_is_the_path_dashes(capsys, monkeypatch, tmp_path):
    import bellwigner.cli as cli

    assert cli._resolve(cli.build_parser().parse_args(["chsh-exact", "--out=--"]))["out"] == "--"
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "classical-bound", "--out=--") == (0, "", "")
    assert (tmp_path / "--").read_text() == '{\n  "classical_max": 2\n}\n'


def test_nul_out_is_one_error_line(capsys, tmp_path):
    config = tmp_path / "nul.json"
    config.write_text('{"out": "a\\u0000b"}')
    for argv in (["--out", "a\0b"], ["--config", str(config)]):
        status, out, err = run_cli(capsys, "classical-bound", *argv)
        assert (status, out) == (2, "")
        assert [line for line in err.splitlines() if "error:" in line] == err.splitlines()[-1:]


def test_unusable_paths_are_one_escaped_error_line(capsys, tmp_path):
    config = tmp_path / "surrogate.json"
    config.write_text('{"out": "\\ud800"}')
    for argv in (["--out", "\ud800"], ["--config", str(config)], ["--config", "a\0b"],
                 ["--config", str(tmp_path / "no\nsuch.json")]):
        status, out, err = run_cli(capsys, "classical-bound", *argv)
        assert (status, out) == (2, "")
        assert [line for line in err.splitlines() if "error:" in line] == err.splitlines()[-1:]
        assert err.isascii() and "\0" not in err


# (argv, exact stderr line) of runs that exit 2 in both JSON and CSV
REFUSED_RUNS = {
    "grw_sim_rate_overflow": (
        ["grw-sim", "--n", "1e308", "--rate", "1e308", "--t", "1", "--trials", "10"],
        "error: n_particles * rate_per_particle overflows: 1e+308 * 1e+308"),
    "grw_prob_rate_overflow": (
        ["grw-prob", "--n", "1e308", "--rate", "1e308", "--t", "0"],
        "error: n_particles * rate_per_particle overflows: 1e+308 * 1e+308"),
    "grw_prob_duration_overflow": (
        ["grw-prob", "--n", "1e200", "--t", "1e200", "--rate", "0"],
        "error: n_particles * duration_s overflows: 1e+200 * 1e+200"),
    "shots_cap": (["chsh-sample", "--shots", "9223372036854775808"],
                  "error: shots 9223372036854775808 exceeds the bound of 2**63 - 1 per setting"),
    "agreement_shots_cap": (
        ["agreement", "--sampled", "--shots", "9223372036854775808"],
        "error: shots 9223372036854775808 exceeds the bound of 2**63 - 1 per setting"),
    "trials_cap": (["grw-sim", "--trials", "100000000000"],
                   "error: trials 100000000000 exceeds the cap of 10000000 draws per call"),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", REFUSED_RUNS)
def test_refused_runs_exit_2_with_one_line(capsys, case, fmt):
    argv, line = REFUSED_RUNS[case]
    status, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert (status, out, err) == (2, "", line + "\n")


def test_non_finite_csv_value_is_usage_error(capsys, monkeypatch):
    import bellwigner.cli as cli

    monkeypatch.setattr(cli, "grw_exact_probability", lambda params: math.nan)
    for fmt, name in (("json", "JSON"), ("csv", "CSV")):
        status, out, err = run_cli(capsys, "grw-prob", "--format", fmt)
        assert (status, out) == (2, "")
        assert err == f"error: Out of range float values are not {name} compliant: nan\n"


def _setting_values(key):
    """Valid values of one setting, drawn from its declaration."""
    import bellwigner.cli as cli

    options, kind, _ = cli._SETTINGS[key]
    if "choices" in options:
        return st.sampled_from(options["choices"])
    if kind is int:
        return st.integers({"seed": 0, "shots": 2}.get(key, 1), 2 ** 64 - 1)
    if kind is float:
        return st.integers(-10 ** 6, 10 ** 6) | st.floats(allow_nan=False, allow_infinity=False)
    return st.text("ab/.-_", min_size=1, max_size=8)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_settings_precedence_flag_config_env_default(tmp_path_factory, data):
    import bellwigner.cli as cli

    keys = sorted(cli._SETTINGS)
    flags = {k: data.draw(_setting_values(k)) for k in data.draw(st.sets(st.sampled_from(keys)))}
    configured = {k: data.draw(_setting_values(k))
                  for k in data.draw(st.sets(st.sampled_from(keys)))}
    env_seed = data.draw(st.none() | st.integers(0, 2 ** 64 - 1))

    argv = ["chsh-exact", *(f"--{key}={value}" for key, value in flags.items())]
    if configured or data.draw(st.booleans()):
        config = tmp_path_factory.getbasetemp() / "precedence.json"
        config.write_text(json.dumps(configured))
        argv += ["--config", str(config)]
    with mock.patch.dict(os.environ):
        os.environ.pop(ENV_SEED, None)
        if env_seed is not None:
            os.environ[ENV_SEED] = str(env_seed)
        cfg = cli._resolve(cli.build_parser().parse_args(argv))

    for key, (_, _, default) in cli._SETTINGS.items():
        fallback = env_seed if key == "seed" and env_seed is not None else default
        assert cfg[key] == flags.get(key, configured.get(key, fallback)), key


# values every setting is given, besides its choices and a string that is none of them
BOUNDARY_VALUES = (0, 1, 2, -0.0, -1, 1e308, 1e-320, 2 ** 63, 2 ** 64, math.nan, math.inf)


def _boundary_cases(key):
    """(flag text, config JSON text) of each value ``key`` is tried with, derived
    from its declaration. On the command line a value is text, so a string
    setting's config value is that text; a config spells inf as 1e999 (and nan
    as the ``NaN`` token, which it refuses)."""
    options, kind, _ = _SETTINGS[key]
    choices = options.get("choices", ())
    for value in (*BOUNDARY_VALUES, *choices, "".join(choices) or key):
        text = str(value)
        if kind is str or isinstance(value, str):
            yield text, json.dumps(text)
        else:
            yield text, "1e999" if value == math.inf else json.dumps(value)


def _outcome(capsys, key, argv):
    """repr of the value ``key`` resolves to when ``classical-bound`` runs with
    ``argv``; for a refused run, its exit status, stdout, the number of stderr
    lines that say ``error:`` and whether the last line is one."""
    import bellwigner.cli as cli

    argv = ["classical-bound", *argv]
    status, out, err = run_cli(capsys, *argv)
    if status == 0:
        return repr(cli._resolve(cli.build_parser().parse_args(argv))[key])
    lines = err.splitlines()
    return status, out, sum("error: " in line for line in lines), "error: " in lines[-1]


@pytest.mark.parametrize("key", _SETTINGS)
def test_flag_config_and_env_meet_one_check(capsys, monkeypatch, tmp_path, key):
    monkeypatch.chdir(tmp_path)  # where an accepted --out writes
    monkeypatch.delenv(ENV_SEED, raising=False)
    config = tmp_path / "config.json"
    for text, spelt in _boundary_cases(key):
        config.write_text(f'{{"{key}": {spelt}}}')
        runs = [_outcome(capsys, key, [f"--{key}={text}"]),
                _outcome(capsys, key, ["--config", str(config)])]
        if key == "seed":
            with mock.patch.dict(os.environ, {ENV_SEED: text}):
                runs.append(_outcome(capsys, key, []))
        # every source resolves to one value, or each exits 2 with one error line
        assert set(runs) == {(2, "", 1, True)} or (
            len(set(runs)) == 1 and isinstance(runs[0], str)), (key, text, spelt, runs)
