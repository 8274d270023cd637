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
from bellwigner.cli import ENV_SEED, SUBCOMMANDS, UsageError, load_config, main
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


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_json_round_trip_is_byte_identical(capsys, subcommand):
    status, out, _ = run_cli(capsys, subcommand, *ROUND_TRIP_ARGS[subcommand])
    assert status == 0
    reemitted = json.dumps(json.loads(out), indent=2) + "\n"
    assert reemitted == out


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
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


def test_non_finite_json_value_is_usage_error(capsys, monkeypatch):
    import bellwigner.cli as cli

    monkeypatch.setitem(cli._COMMANDS, "classical-bound", lambda cfg: ({"x": math.inf}, 0))
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


# (argv, config file text or None, BELLWIGNER_SEED or None, exit status,
# exact last stderr line); "{dir}" stands for a per-test temporary directory
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
                 "error: shots_per_setting must be at least 2 (sample variance)"),
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
                       "error: cannot write {dir}/missing/x.json: [Errno 2] "
                       "No such file or directory: '{dir}/missing/x.json'"),
    "empty_out_flag": (["classical-bound", "--out", ""], None, None, 2,
                       "error: out must be a non-empty path"),
    "empty_out_config": (["classical-bound"], '{"out": ""}', None, 2,
                         "error: out must be a non-empty path"),
    # flags are never abbreviated: a prefix is an unknown argument
    "flag_prefix": (["chsh-sample", "--sh", "5"], None, None, 2,
                    "bellwigner: error: unrecognized arguments: --sh 5"),
    "ambiguous_flag_prefix": (["chsh-sample", "--se", "1"], None, None, 2,
                              "bellwigner: error: unrecognized arguments: --se 1"),
}


@pytest.mark.parametrize("case", USAGE_ERRORS)
def test_usage_error_table(capsys, monkeypatch, tmp_path, case):
    argv, config_text, env_seed, expected_status, last_line = USAGE_ERRORS[case]
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    if config_text is not None:
        config = tmp_path / "config.json"
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
        return st.integers(0 if key == "seed" else 1, 2 ** 64 - 1)
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
    assert cfg["explicit"] == set(flags) | set(configured)
