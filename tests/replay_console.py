"""Replay every golden and every refused run through the installed console script.

The contract is declared once, in the tests' own tables: ``test_golden``'s
golden cases and ``test_cli``'s ``USAGE_ERRORS`` and ``REFUSED_RUNS``. This
script runs each case as a process through the ``bellwigner`` on PATH, so a
case added to those tables is replayed with no other edit. Each case runs in a
fresh temporary working directory, with its config file there and
``BELLWIGNER_SEED`` unset unless the case sets it.

Run it after ``pip install -e '.[test]'`` with ``python tests/replay_console.py``.
It prints one line per failing case and a count line, and exits 1 if any case
failed. Its name keeps pytest from collecting it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from test_cli import ENV_SEED, REFUSED_RUNS, USAGE_ERRORS
from test_golden import GOLDEN_DIR, golden_cases

TIMEOUT_S = 60


@dataclass(frozen=True)
class Case:
    """One process run: a golden it must print, or a refusal it must report.

    A golden case has status 0 and ``expected`` names its file in tests/golden;
    a refusal has a nonzero status and ``expected`` is its exact last stderr
    line. "{dir}" in ``argv`` and ``expected`` stands for the run's directory.
    """

    name: str
    argv: list[str]
    expected: str
    status: int = 0
    out: str | None = None  # the file a golden run writes through --out, in its directory
    config: str | bytes | None = None
    env_seed: str | None = None


def carried(argv: list[str]) -> bool:
    """Whether a process's argv can hold every argument: no NUL byte, no lone surrogate."""
    try:
        return all(b"\0" not in os.fsencode(arg) for arg in argv)
    except UnicodeEncodeError:
        return False


def cases():
    for filename, argv in golden_cases():
        yield Case(f"golden {filename}", argv, filename)
        yield Case(f"golden {filename} --out", [*argv, "--out", filename], filename, out=filename)
    for name, (argv, config, env_seed, status, line) in USAGE_ERRORS.items():
        if carried(argv):
            yield Case(f"USAGE_ERRORS {name}", argv, line, status, config=config,
                       env_seed=env_seed)
    for name, (argv, line) in REFUSED_RUNS.items():
        for fmt in ("json", "csv"):
            yield Case(f"REFUSED_RUNS {name} {fmt}", [*argv, "--format", fmt], line, 2)


def golden_problems(case: Case, proc: subprocess.CompletedProcess, workdir: Path) -> list[str]:
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit {proc.returncode}, expected 0")
    if proc.stderr:
        last = proc.stderr.decode(errors="backslashreplace").splitlines()[-1:]
        problems.append(f"stderr is not empty, its last line {last}")
    if case.out is None:
        written = proc.stdout
    else:
        if proc.stdout:
            problems.append("stdout is not empty")
        path = workdir / case.out
        written = path.read_bytes() if path.is_file() else None
    if written is None:
        problems.append(f"wrote no {case.out}")
    elif written != (GOLDEN_DIR / case.expected).read_bytes():
        problems.append(f"{'stdout' if case.out is None else case.out} differs from the golden")
    return problems


def refusal_problems(case: Case, proc: subprocess.CompletedProcess, workdir: Path) -> list[str]:
    expected = case.expected.replace("{dir}", str(workdir))
    err = proc.stderr.decode(errors="backslashreplace")
    lines = err.splitlines()
    errors = [line for line in lines if "error: " in line]
    problems = []
    if proc.returncode != case.status:
        problems.append(f"exit {proc.returncode}, expected {case.status}")
    if proc.stdout:
        problems.append("stdout is not empty")
    if lines[-1:] != [expected]:
        last = lines[-1] if lines else None
        problems.append(f"last stderr line {last!r}, expected {expected!r}")
    if len(errors) != 1:
        problems.append(f"{len(errors)} stderr lines hold 'error: ', expected 1")
    if "Traceback" in err:
        problems.append("stderr holds a traceback")
    # argparse prints its usage before its error line; every other refusal is that line alone
    if expected.startswith("error: ") and err != expected + "\n":
        problems.append("stderr is not the error line alone")
    return problems


def replay(script: str, case: Case) -> list[str]:
    """The ways one run of ``case`` through ``script`` breaks its contract."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [arg.replace("{dir}", tmp) for arg in case.argv]
        if case.config is not None:
            config = Path(tmp, "config.json")
            config.write_bytes(case.config if isinstance(case.config, bytes)
                               else case.config.encode())
            argv += ["--config", str(config)]
        env = {key: value for key, value in os.environ.items() if key != ENV_SEED}
        if case.env_seed is not None:
            env[ENV_SEED] = case.env_seed
        try:
            proc = subprocess.run([script, *argv], cwd=tmp, env=env, capture_output=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return [f"no exit within {TIMEOUT_S} s"]
        check = golden_problems if case.status == 0 else refusal_problems
        return check(case, proc, Path(tmp))


def main() -> int:
    script = shutil.which("bellwigner")
    if script is None:
        sys.exit("replay_console: no bellwigner script on PATH; install the package first")
    start = time.perf_counter()
    failed = total = 0
    for case in cases():
        total += 1
        problems = replay(script, case)
        if problems:
            failed += 1
            print(f"FAIL {case.name}: {'; '.join(problems)}")
    print(f"{script}: {total - failed} of {total} cases passed, {failed} failed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
