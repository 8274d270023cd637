"""In-memory span tracing of the package's layers, installed from outside.

Each patch site rebinds one name that a caller looks up at call time (a
module global, a class attribute or a dispatch-table entry) to a wrapper
that records a span ``(layer, start_ns, end_ns, parent)``. Nothing under
``src/`` changes. Spans stay in memory until the run writes them out.

A layer's self time is the duration of its spans minus the part of each
span that its child spans cover. The benchmark's own top-level call is the
root span, layer ``op``; its self time is the unattributed time.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field

ROOT = "op"
LAYERS = (
    "import", "cli", "states", "linalg", "observables",
    "chsh.exact", "chsh.joint", "chsh.sample", "chsh.report",
    "interpretations.ensemble", "interpretations.agreement", "interpretations.grw",
)
# Layers whose calls are counted when entered from another layer.
CALL_COUNTED = ("states", "linalg", "observables")
# Sample bytes per drawn shot: a float64 uniform, an int64 cell index and
# a float64 outcome product (computed from array sizes, not measured).
_BYTES_PER_SHOT = 8 + 8 + 8


@dataclass
class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    joint_keys: set = field(default_factory=set)
    _stack: list = field(default_factory=list)

    def span(self, layer: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, result)`` counts."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts recorded at layer boundaries ---------------------------------

    def _joint_built(self, args, result):
        state, i, j = args[:3]
        self.counts["chsh.tables_built"] += 1
        self.joint_keys.add((state.amplitudes.tobytes(), i, j))

    def _samples_drawn(self, args, result):
        shots = args[2]
        self.counts["chsh.samples_drawn"] += shots
        self.counts["chsh.sample_bytes_computed"] += shots * _BYTES_PER_SHOT

    def _trials_drawn(self, args, result):
        self.counts["interpretations.grw.trials_drawn"] += args[1]

    def _expectation(self, args, result):
        self.counts["linalg.expectations"] += 1

    # -- installation ---------------------------------------------------------

    def install(self, with_cli: bool = False):
        """Rebind every patch site; return a function that restores them."""
        import bellwigner.chsh as chsh
        import bellwigner.interpretations as interp
        import bellwigner.linalg as linalg
        import bellwigner.observables as observables
        import bellwigner.states as states

        sites = [
            # states: validation of every StateVector, and named builders
            (states.StateVector, "__post_init__", "states", None),
            (states, "bell_wigner_state", "states", None),
            (interp, "bell_wigner_state", "states", None),
            # linalg as chsh and observables see it
            (chsh, "expectation", "linalg", self._expectation),
            (observables, "kron", "linalg", None),
            (observables, "frobenius_norm", "linalg", None),
            (observables, "commutator_norm", "linalg", None),
            # observables as chsh and top-level callers see them
            (chsh, "alice_observable", "observables", None),
            (chsh, "bob_observable", "observables", None),
            (chsh, "lift", "observables", None),
            (chsh, "lifted_spectrum", "observables", None),
            (observables, "verify_algebra", "observables", None),
            # chsh engine; interpretations calls it through the module too
            (chsh, "chsh_exact", "chsh.exact", None),
            (chsh, "joint_distribution", "chsh.joint", self._joint_built),
            (chsh, "chsh_sampled", "chsh.sample", None),
            (chsh, "sample_setting_products", "chsh.sample", None),
            (chsh, "sample_products", "chsh.sample", self._samples_drawn),
            (chsh, "report_from_setting_products", "chsh.report", None),
            # interpretations
            (interp, "agreement_report", "interpretations.agreement", None),
            (interp, "grw_simulate", "interpretations.grw", self._trials_drawn),
        ]
        sites += [
            (interp._ENSEMBLE_BUILDERS, name, "interpretations.ensemble", None)
            for name in interp._ENSEMBLE_BUILDERS
        ]
        if with_cli:
            import bellwigner.cli as cli

            sites += [
                (cli, "build_parser", "cli", self._cli_stage),
                (cli, "_resolve", "cli", self._cli_stage),
                (cli, "_render", "cli", self._cli_stage),
                (cli, "bell_wigner_state", "states", None),
                (cli, "basis_labels", "states", None),
                (cli, "chsh_exact", "chsh.exact", None),
                (cli, "chsh_sampled", "chsh.sample", None),
                (cli, "joint_distribution", "chsh.joint", self._joint_built),
                (cli, "verify_algebra", "observables", None),
                (cli, "agreement_report", "interpretations.agreement", None),
                (cli, "grw_simulate", "interpretations.grw", self._trials_drawn),
            ]

        saved = []
        for owner, name, layer, after in sites:
            original = _get(owner, name)
            saved.append((owner, name, original))
            _set(owner, name, self.span(layer, original, after))
        saved.append((linalg, "is_hermitian", linalg.is_hermitian))
        linalg.is_hermitian = self.counter("linalg.hermitian_checks", linalg.is_hermitian)

        def restore():
            for owner, name, original in reversed(saved):
                _set(owner, name, original)

        return restore

    def _cli_stage(self, args, result):
        self.counts["cli.calls"] += 1

    # -- aggregation ------------------------------------------------------------

    def self_times_ns(self) -> Counter:
        """Self time per layer (``op`` = unattributed), in nanoseconds."""
        covered = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = Counter()
        for (layer, start, end, _), child_ns in zip(self.spans, covered):
            totals[layer] += end - start - child_ns
        return totals

    def nesting_errors(self) -> list[str]:
        """Spans that leave their parent, or whose children cover more than they do."""
        spans = self.spans
        covered = [0] * len(spans)
        errors = []
        for index, (layer, start, end, parent) in enumerate(spans):
            if not start <= end:
                errors.append(f"span {index} ({layer}) ends before it starts")
            if parent >= 0:
                _, p_start, p_end, _ = spans[parent]
                if not p_start <= start <= end <= p_end:
                    errors.append(f"span {index} ({layer}) leaves its parent {parent}")
                covered[parent] += end - start
        for index, ((layer, start, end, _), child_ns) in enumerate(zip(spans, covered)):
            if child_ns > end - start:
                errors.append(f"span {index} ({layer}) has negative self time")
        return errors

    def layer_calls(self) -> Counter:
        """Spans of each counted layer whose parent span is in another layer."""
        calls = Counter()
        spans = self.spans
        for layer, _, _, parent in spans:
            if layer in CALL_COUNTED and (parent < 0 or spans[parent][0] != layer):
                calls[layer] += 1
        return calls

    def write(self, path) -> None:
        """Write a header line, then one ``[name, start_ns, end_ns, parent]`` line per span."""
        with open(path, "w") as out:
            out.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent"]}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _get(owner, name):
    return owner[name] if isinstance(owner, dict) else getattr(owner, name)


def _set(owner, name, value) -> None:
    if isinstance(owner, dict):
        owner[name] = value
    else:
        setattr(owner, name, value)
