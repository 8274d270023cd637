"""The package's public surface: its export list, its console script, the
cases replayed through the installed script and the process-wide side effect of
importing the CLI."""

import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bellwigner
import replay_console
from test_cli import REFUSED_RUNS, USAGE_ERRORS
from test_golden import golden_cases

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests/golden"
# the benchmark's entry form of one CLI run
ENTRY = "import sys; from bellwigner.cli import main; sys.exit(main())"
LIBRARY_MODULES = ("bellwigner", "bellwigner.chsh", "bellwigner.interpretations",
                   "bellwigner.observables", "bellwigner.states", "bellwigner.linalg")
# prints the freeze count after each import: this process has imported the CLI already
FREEZE_PROBE = f"""
import gc, importlib
for name in {(*LIBRARY_MODULES, "bellwigner.cli")!r}:
    importlib.import_module(name)
    print(name, gc.get_freeze_count())
"""


def run_python(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, cwd=ROOT, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})


def test_all_lists_exactly_the_public_names():
    assert all(hasattr(bellwigner, name) for name in bellwigner.__all__)
    public = {name for name, value in vars(bellwigner).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(bellwigner.__all__) == public


def test_console_script_prints_the_chsh_exact_golden(capsys):
    # Python 3.10 has no tomllib: the script table is read as its one line
    pyproject = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^\[project\.scripts\]\nbellwigner = "([\w.]+):(\w+)"$', pyproject, re.M)
    assert match, "no bellwigner entry in [project.scripts]"
    entry = getattr(importlib.import_module(match[1]), match[2])
    assert entry(["chsh-exact"]) == 0
    assert capsys.readouterr().out.encode() == (ROOT / "tests/golden/chsh_exact.json").read_bytes()


def test_the_console_replay_runs_every_golden_both_ways_and_every_refusal_argv_can_carry():
    cases = list(replay_console.cases())
    goldens = [(case.argv, case.expected, case.out) for case in cases if case.status == 0]
    assert goldens == [run for filename, argv in golden_cases()
                       for run in ((argv, filename, None),
                                   ([*argv, "--out", filename], filename, filename))]
    # a process's argv cannot hold a NUL byte or a lone surrogate: the in-process table
    # tests cover these three
    uncarried = {"nul_out_flag", "nul_config_path", "surrogate_out_flag"}
    refusals = [(case.argv, case.config, case.env_seed, case.status, case.expected)
                for case in cases if case.status != 0]
    assert refusals == [
        *(USAGE_ERRORS[name] for name in USAGE_ERRORS if name not in uncarried),
        *(([*argv, "--format", fmt], None, None, 2, line)
          for argv, line in REFUSED_RUNS.values() for fmt in ("json", "csv")),
    ]


def test_every_golden_file_is_a_golden_case():
    assert sorted(path.name for path in GOLDEN_DIR.iterdir()) \
        == sorted(filename for filename, _ in golden_cases())


def test_only_importing_the_cli_freezes_the_heap():
    proc = run_python("-c", FREEZE_PROBE)
    assert proc.returncode == 0 and proc.stderr == b""
    counts = {name: int(count) for name, count in map(str.split, proc.stdout.decode().splitlines())}
    assert list(counts) == [*LIBRARY_MODULES, "bellwigner.cli"]
    assert all(counts[name] == 0 for name in LIBRARY_MODULES)
    assert counts["bellwigner.cli"] > 0


@pytest.mark.parametrize("argv, out, golden", [
    (["chsh-exact"], None, "chsh_exact.json"),
    (["agreement", "--scale", "macro", "--format", "csv"], "agreement.csv", "agreement_macro.csv"),
])
def test_a_dev_mode_process_exits_cleanly_with_the_golden_bytes(tmp_path, argv, out, golden):
    # dev mode reports unclosed resources and other shutdown faults on stderr
    out_args = ["--out", str(tmp_path / out)] if out else []
    proc = run_python("-X", "dev", "-c", ENTRY, *argv, *out_args)
    assert (proc.returncode, proc.stderr) == (0, b"")
    if out:
        assert proc.stdout == b""
        written = (tmp_path / out).read_bytes()
    else:
        written = proc.stdout
    assert written == (GOLDEN_DIR / golden).read_bytes()
