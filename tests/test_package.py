"""The package's public surface: its export list and its console script."""

import importlib
import re
import types
from pathlib import Path

import bellwigner

ROOT = Path(__file__).resolve().parents[1]


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
