"""The benchmark's tracer rebinds package names from outside (bench/spans.py).

Every name it rebinds must exist and be looked up at call time, and its
restore must put back the original objects. A refactor that removes or
freezes one of these names fails here, not only in a benchmark run.
"""

import contextlib
import io
from pathlib import Path

import bellwigner.chsh as chsh
import bellwigner.cli as cli
import bellwigner.interpretations as interpretations
import bellwigner.linalg as linalg
import bellwigner.observables as observables
import bellwigner.states as states

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
MODULES = (chsh, interpretations, linalg, observables, states, cli)
ARGV = ["agreement", "--scale", "macro"]


def _bindings() -> dict:
    """Every module global, dispatch entry and class attribute a tracer may rebind."""
    found = {(module.__name__, name): value
             for module in MODULES for name, value in vars(module).items()}
    found.update((("_ENSEMBLE_BUILDERS", name), builder)
                 for name, builder in interpretations._ENSEMBLE_BUILDERS.items())
    found.update((("StateVector", name), value) for name, value in vars(states.StateVector).items())
    return found


def _run(main) -> tuple[int, bytes]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(ARGV)
    return status, buffer.getvalue().encode()


def test_tracer_wraps_and_restores_every_site(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    from spans import Tracer

    before = _bindings()
    plain = _run(cli.main)

    tracer = Tracer()
    restore = tracer.install(with_cli=True)
    try:
        rebound = [key for key, value in _bindings().items() if value is not before.get(key)]
        traced = _run(cli.main)
    finally:
        restore()

    assert traced == plain and plain[0] == 0
    assert len(rebound) >= 35
    # build_parser, _resolve and _render were each called through their wrappers
    assert tracer.counts["cli.calls"] == 3
    layers = {span[0] for span in tracer.spans}
    assert {"cli", "states", "interpretations.agreement", "interpretations.ensemble"} <= layers
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []
