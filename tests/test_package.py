"""The package's public surface: its export list, its records, its console script,
the cases replayed through the installed script and the process-wide side effect of
importing the CLI."""

import ast
import copy
import importlib
import math
import os
import pickle
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bellwigner
import replay_console
from bellwigner import (FULL_LAYOUT, INSTRUMENT_PARAMS, Branch, ChshReport, FriendScale,
                        GrwParams, Observable, StateVector, agreement_report, bell_wigner_state,
                        chsh_exact, grw_simulate, joint_distribution, make_observable,
                        many_worlds_branches, verify_algebra)
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


# The five result records that check nothing, each built by its public route, with its
# fields in order and its document's keys in order; a check's document is its entry in
# the algebra report's.
RESULT_RECORDS = {
    "JointOutcome": (lambda: joint_distribution(bell_wigner_state(), 0, 0)[0],
                     ("a_value", "b_value", "joint_probability"),
                     ("a_value", "b_value", "joint_probability")),
    "GrwSimResult": (lambda: grw_simulate(GrwParams(1e25, 1e-9), 100, 1),
                     ("collapsed_fraction", "mean_collapse_time_s"),
                     ("collapsed_fraction", "mean_collapse_time_s")),
    "AgreementReport": (lambda: agreement_report(FriendScale.macroscopic()),
                        ("mode", "backends", "all_equal"), ("mode", "backends", "all_equal")),
    "AlgebraCheck": (lambda: verify_algebra().checks[0],
                     ("name", "passed", "residual"), ("name", "passed", "residual")),
    "AlgebraReport": (lambda: verify_algebra(), ("checks",), ("all_passed", "checks")),
}


@pytest.mark.parametrize("name", RESULT_RECORDS)
def test_a_result_record_is_frozen_with_a_field_repr_and_an_ordered_document(name):
    build, fields, keys = RESULT_RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    for attribute in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attribute, None)
    assert repr(record) == f"{name}(" + ", ".join(
        f"{field}={getattr(record, field)!r}" for field in fields) + ")"
    doc = verify_algebra().to_dict()["checks"][0] if name == "AlgebraCheck" else record.to_dict()
    assert type(doc) is dict and tuple(doc) == keys


# The six records that check their fields, each built by keyword from the values of its
# public route, with its fields in order. The first four compare and hash by field; a
# state and an observable compare and hash by identity.
CHECKED_RECORDS = {
    "ChshReport": (lambda: ChshReport(mode="exact", correlators=dict(chsh_exact(
                       bell_wigner_state()).correlators), s_value=2.828427124746189),
                   ("mode", "correlators", "s_value", "shots_per_setting", "standard_error",
                    "sigma_violation")),
    "GrwParams": (lambda: GrwParams(n_particles=1e25, duration_s=1e-9),
                  ("n_particles", "duration_s", "rate_per_particle")),
    "FriendScale": (lambda: FriendScale(kind="macro", grw=INSTRUMENT_PARAMS), ("kind", "grw")),
    "Branch": (lambda: Branch(weight=0.5, state=bell_wigner_state(), label="F_h·F_v"),
               ("weight", "state", "label")),
    "StateVector": (lambda: StateVector(subsystems=FULL_LAYOUT,
                                        amplitudes=bell_wigner_state().amplitudes),
                    ("subsystems", "amplitudes")),
    "Observable": (lambda: Observable(label="A1", matrix=make_observable("A1").matrix,
                                      spectrum=make_observable("A1").spectrum),
                   ("label", "matrix", "spectrum")),
}
BY_IDENTITY = {"StateVector", "Observable"}


def field_repr(record, fields) -> str:
    return f"{type(record).__name__}(" + ", ".join(
        f"{field}={getattr(record, field)!r}" for field in fields) + ")"


@pytest.mark.parametrize("name", CHECKED_RECORDS)
def test_a_checked_record_is_frozen_with_a_field_repr(name):
    build, fields = CHECKED_RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    for attribute in (fields[0], fields[-1], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attribute, None)
    with pytest.raises(AttributeError):
        delattr(record, fields[0])
    assert not hasattr(record, "extra")
    assert repr(record) == field_repr(record, fields)


@pytest.mark.parametrize("name", CHECKED_RECORDS)
def test_a_checked_record_compares_and_hashes_by_field_or_by_identity(name):
    build, fields = CHECKED_RECORDS[name]
    record, twin = build(), build()
    assert record == record and not record != record
    assert record != tuple(getattr(record, field) for field in fields)
    if name in BY_IDENTITY:
        assert record != twin and hash(record) == object.__hash__(record)
    elif name == "ChshReport":  # it holds a dict
        assert record == twin
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert record == twin and hash(record) == hash(twin)


def test_checked_records_take_their_defaults_and_refuse_a_negative_zero():
    report = chsh_exact(bell_wigner_state())
    assert (report.shots_per_setting, report.standard_error, report.sigma_violation) \
        == (None, None, None)
    assert GrwParams(1e2, 1e3) == GrwParams(1e2, 1e3, rate_per_particle=1e-16)
    params = GrwParams(n_particles=1.0, duration_s=-0.0, rate_per_particle=-0.0)
    assert params.duration_s == params.rate_per_particle == 0.0
    assert math.copysign(1.0, params.duration_s) == math.copysign(1.0, params.rate_per_particle) \
        == 1.0


@pytest.mark.parametrize("name", CHECKED_RECORDS)
def test_a_checked_record_survives_a_pickle_and_a_deep_copy(name):
    build, fields = CHECKED_RECORDS[name]
    record = build()
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(clone) is type(record) and repr(clone) == repr(record)
        # a branch's copy holds a new state, and a state compares by identity
        assert (clone == record) is (name not in {*BY_IDENTITY, "Branch"})


def test_a_copied_record_is_rebuilt_through_its_checks():
    # a copy runs __init__: its arrays are read-only again, as the original's are
    for record, array in ((bell_wigner_state(), "amplitudes"), (make_observable("B1"), "matrix"),
                          (many_worlds_branches(bell_wigner_state())[0], "state")):
        for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            value = getattr(clone, array)
            value = value.amplitudes if array == "state" else value
            assert not value.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                value[0] = 0.0


def test_no_module_of_the_package_generates_dataclass_methods_at_import():
    # a @dataclass generates and execs its methods when the module is imported: ~1 ms each,
    # in every CLI run
    offenders = []
    for path in sorted((ROOT / "src/bellwigner").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.ClassDef):
                names = [ast.unparse(decorator) for decorator in node.decorator_list]
            else:
                continue
            offenders += [(path.name, node.lineno, name) for name in names
                          if "dataclass" in name]
    assert offenders == []


# names a module imports and never reads, each for a reason: the package's re-exports, and
# the names that bench/spans.py rebinds in chsh
UNREAD_IMPORTS = {
    "__init__.py": set(bellwigner.__all__),
    "chsh.py": {"expectation", "lift", "lifted_spectrum"},
}


def test_no_module_of_the_package_imports_a_name_it_never_reads():
    for path in sorted((ROOT / "src/bellwigner").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, read = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Name):
                read.add(node.id)
        assert imported - read == UNREAD_IMPORTS.get(path.name, set()), path.name
