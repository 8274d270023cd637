"""No test module outside three names a private object of the engine's modules.

A test that reads ``_cells`` or ``_gram`` must be rewritten whenever they change,
though it checks the same contract. So every check that a public route can reach
goes through that route, and what only a private object can show lives in
``test_internals.py``. ``test_cli.py`` builds its tables from the CLI's own
``_SETTINGS`` and ``_COMMANDS``, and ``test_bench_sites.py`` pins the names the
benchmark's tracer rebinds; both are exempt too.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
GUARDED = {f"bellwigner.{name}"
           for name in ("chsh", "interpretations", "observables", "states", "linalg")}
EXEMPT = {"test_internals.py", "test_cli.py", "test_bench_sites.py"}


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str) -> list[str]:
    """``module.name`` for each non-dunder ``_`` name of a guarded module that the source
    imports, reads as an attribute, or hands by name to a call such as ``getattr`` or
    ``monkeypatch.setattr``."""
    tree = ast.parse(source)
    aliases = {}  # local name -> the guarded module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((alias.asname, alias.name) for alias in node.names
                           if alias.asname and alias.name in GUARDED)
        elif isinstance(node, ast.ImportFrom) and node.module:
            aliases.update((alias.asname or alias.name, f"{node.module}.{alias.name}")
                           for alias in node.names if f"{node.module}.{alias.name}" in GUARDED)

    def dotted(node) -> str | None:
        if isinstance(node, ast.Name):
            return aliases.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            owner = dotted(node.value)
            return owner and f"{owner}.{node.attr}"
        return None

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in GUARDED:
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if is_private(alias.name)]
        elif isinstance(node, ast.Attribute) and is_private(node.attr):
            if dotted(node.value) in GUARDED:
                found.append(f"{dotted(node.value)}.{node.attr}")
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            owner, name = dotted(node.args[0]), node.args[1]
            if (owner in GUARDED and isinstance(name, ast.Constant)
                    and isinstance(name.value, str) and is_private(name.value)):
                found.append(f"{owner}.{name.value}")
    return found


@pytest.mark.parametrize("source, expected", [
    ("import bellwigner.chsh as chsh\nchsh._cells()", ["bellwigner.chsh._cells"]),
    ("from bellwigner import chsh\nchsh._gram(s)", ["bellwigner.chsh._gram"]),
    ("import bellwigner.chsh\nbellwigner.chsh._table(s)", ["bellwigner.chsh._table"]),
    ("from bellwigner.interpretations import Branch, _ENSEMBLE_BUILDERS",
     ["bellwigner.interpretations._ENSEMBLE_BUILDERS"]),
    ("def f(monkeypatch):\n    import bellwigner.states as s\n    monkeypatch.setattr(s, '_x', 1)",
     ["bellwigner.states._x"]),
    ("import bellwigner.linalg as linalg\ngetattr(linalg, '_y')", ["bellwigner.linalg._y"]),
    # dunders, public names and the CLI's tables are not guarded
    ("import bellwigner.chsh as chsh\nchsh.__name__, chsh.chsh_exact", []),
    ("import bellwigner.cli as cli\ncli._SETTINGS", []),
    ("from bellwigner.observables import lift\nlift._cache", []),
], ids=["alias", "from_package", "dotted", "import_from", "setattr", "getattr", "public",
        "cli", "function_attribute"])
def test_the_guard_finds_each_way_of_naming_a_private_object(source, expected):
    assert private_reads(source) == expected


def test_no_test_module_outside_three_names_a_private_object_of_the_engine():
    modules = sorted(TESTS.glob("*.py"))
    assert EXEMPT <= {path.name for path in modules}
    offenders = {path.name: private_reads(path.read_text(encoding="utf-8"))
                 for path in modules if path.name not in EXEMPT}
    assert {name: reads for name, reads in offenders.items() if reads} == {}
