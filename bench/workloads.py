"""The benchmark's workloads: rounds of top-level calls and their checks.

A workload is a closed loop driven by one client: each call starts when the
previous one (and its correctness check) has finished. Calls come in
rounds; round ``r`` of seed ``s`` draws its inputs from
``numpy.random.default_rng([s, r])``, so the same seed gives the same calls.
Every round of a workload has the same mix of calls, so counts per round
repeat exactly.

The package is called through module attributes looked up at call time
(``chsh.chsh_exact``, not a captured ``chsh_exact``), so the trace's
rebinding sees every call.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from reference import CheckFailed, require
from spans import ROOT, Tracer

import bellwigner.chsh as chsh
import bellwigner.interpretations as interp
import bellwigner.observables as observables
import bellwigner.states as states

WARMUP_ROUND = 2**31  # inputs of the warm-up call, never a timed round
BACKENDS = ("pilot_wave", "grw", "many_worlds")
ALGEBRA_CHECKS = 22
CLI_TIMEOUT_S = 60
GRW_N = 1e25
GRW_RATE = 1e-16


@dataclass
class Op:
    """One top-level call: ``call()`` is timed, ``check(result)`` is not."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    work: int
    argv: list[str] | None = None  # CLI arguments, for the CLI workload


def _u63(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


# -- document checks, shared by the in-process and CLI workloads --------------

def check_chsh_exact_doc(doc: dict, amps) -> None:
    require(doc["mode"] == "exact", f"mode {doc['mode']!r}")
    ref.check_exact_correlators(doc["correlators"], doc["s_value"], ref.correlators(amps))
    require(doc["standard_error"] is None and doc["sigma_violation"] is None,
            "exact report carries sampling fields")


def check_outcomes(outcomes: list[dict], amps, i: int, j: int) -> None:
    cells = [(c["a_value"], c["b_value"], c["joint_probability"]) for c in outcomes]
    ref.check_joint_table(cells, amps, i, j)


def check_algebra_doc(doc: dict) -> None:
    checks = doc["checks"]
    require(doc["all_passed"] is True and len(checks) == ALGEBRA_CHECKS
            and all(c["passed"] is True for c in checks),
            f"algebra report: all_passed={doc['all_passed']}, {len(checks)} checks")


def check_agreement_doc(doc: dict, macro: bool, shots: int | None) -> None:
    bw = ref.bell_wigner_amplitudes()
    exact = ref.dephased_correlators(bw) if macro else ref.correlators(bw)
    require(doc["mode"] == ("macro" if macro else "micro"), f"mode {doc['mode']!r}")
    require(tuple(doc["backends"]) == BACKENDS, f"backends {tuple(doc['backends'])}")
    for report in doc["backends"].values():
        if shots is None:
            require(report["mode"] == "exact", f"backend mode {report['mode']!r}")
            ref.check_exact_correlators(report["correlators"], report["s_value"], exact)
        else:
            ref.check_sampled(report, ref.s_value(exact), shots)
    require(doc["all_equal"] is True, "backends disagree")


def check_grw_doc(doc: dict, duration_s: float, trials: int) -> None:
    ref.check_grw(doc["collapsed_fraction"], doc["mean_collapse_time_s"],
                  GRW_N * GRW_RATE, duration_s, trials)


def check_state_doc(doc: dict) -> None:
    require(doc["layout"] == list(states.FULL_LAYOUT), f"layout {doc['layout']}")
    amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    require(np.max(np.abs(amps - ref.bell_wigner_amplitudes())) <= 1e-15,
            "Bell-Wigner amplitudes differ from the reference")


def _bw_exact_s() -> float:
    return ref.s_value(ref.correlators(ref.bell_wigner_amplitudes()))


# -- in-process workloads -------------------------------------------------------

class InProcess:
    """Workloads that call the package's functions in this process."""

    def __init__(self, seed: int):
        self.seed = seed

    def traced_round(self, ops: list[Op], tracer: Tracer) -> list:
        """Run ``ops`` with every layer wrapped; each op is one root span."""
        results = []
        restore = tracer.install()
        try:
            for op in ops:
                try:
                    results.append(tracer.span(ROOT, op.call)())
                except Exception as exc:  # counted as a failed call
                    results.append(exc)
        finally:
            restore()
        return results


class ManySmall(InProcess):
    """Thousands of small calls: per-call overhead dominates.

    One round is the in-process call mix of the acceptance suite's sweeps
    (tests/test_acceptance.py): the property suite's probes, each with
    ``chsh_exact`` and two passes of ``joint_distribution`` over the four
    settings (completeness, then no-signalling marginals); the Tsirelson
    ceiling over 1000 random states; the >5 sigma gate, ``chsh_sampled`` at
    10^3 shots over 100 seeds; exact agreement at both scales; and one
    ``verify_algebra``. That is 1157 calls: 87% ``chsh_exact``, 8.6%
    ``chsh_sampled``, 4.1% ``joint_distribution``.
    """

    REFERENCE = "small_ops"
    PROBES = 6
    TABLE_PASSES = 2
    CEILING_STATES = 1000
    SAMPLED_SEEDS = 100
    SHOTS = 1000

    def round_ops(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        ops = []
        for _ in range(self.PROBES):
            amps = ref.random_amplitudes(rng)
            ops.append(_exact_op(amps))
            for _ in range(self.TABLE_PASSES):
                for i, j in ref.SETTING_PAIRS:
                    ops.append(Op("joint_distribution", _joint_call(amps, i, j),
                                  _joint_check(amps, i, j), 1))
        ops += [_exact_op(ref.random_amplitudes(rng)) for _ in range(self.CEILING_STATES)]
        exact_s = _bw_exact_s()
        ops += [Op("chsh_sampled", _sampled_call(self.SHOTS, _u63(rng)),
                   _sampled_check(exact_s, self.SHOTS), 1)
                for _ in range(self.SAMPLED_SEEDS)]
        for macro in (False, True):
            ops.append(Op("agreement_report", _agreement_call(macro, None),
                          _agreement_check(macro, None), 1))
        ops.append(Op("verify_algebra", lambda: observables.verify_algebra(),
                      lambda result: check_algebra_doc(result.to_dict()), 1))
        return ops


class FewLarge(InProcess):
    """A few large calls: per-shot draws and O(shots) arrays dominate.

    Work is counted in samples: one shot of every setting pair, or one
    collapse trial.
    """

    REFERENCE = "array_pass"
    SHOTS = 10**6
    TRIALS = 10**6

    def round_ops(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        duration_s = float(rng.uniform(0.3e-9, 2.0e-9))
        return [
            Op("chsh_sampled", _sampled_call(self.SHOTS, _u63(rng)),
               _sampled_check(_bw_exact_s(), self.SHOTS), self.SHOTS),
            Op("agreement_report", _agreement_call(True, (self.SHOTS, _u63(rng))),
               _agreement_check(True, self.SHOTS), len(BACKENDS) * self.SHOTS),
            Op("grw_simulate", _grw_call(duration_s, self.TRIALS, _u63(rng)),
               lambda result: check_grw_doc(result.to_dict(), duration_s, self.TRIALS),
               self.TRIALS),
        ]


def _exact_op(amps) -> Op:
    return Op("chsh_exact",
              lambda: chsh.chsh_exact(states.StateVector(states.FULL_LAYOUT, amps)),
              lambda result: check_chsh_exact_doc(result.to_dict(), amps), 1)


def _joint_call(amps, i, j):
    return lambda: chsh.joint_distribution(states.StateVector(states.FULL_LAYOUT, amps), i, j)


def _joint_check(amps, i, j):
    return lambda result: check_outcomes([c.to_dict() for c in result], amps, i, j)


def _sampled_call(shots, seed):
    return lambda: chsh.chsh_sampled(states.bell_wigner_state(), shots, seed)


def _sampled_check(exact_s, shots):
    return lambda result: ref.check_sampled(result.to_dict(), exact_s, shots)


def _scale(macro: bool):
    return interp.FriendScale.macroscopic() if macro else interp.FriendScale.microscopic()


def _agreement_call(macro, sampled):
    if sampled is None:
        return lambda: interp.agreement_report(_scale(macro))
    shots, seed = sampled
    return lambda: interp.agreement_report(_scale(macro), shots, seed, sampled=True)


def _agreement_check(macro, shots):
    return lambda result: check_agreement_doc(result.to_dict(), macro, shots)


def _grw_call(duration_s, trials, seed):
    return lambda: interp.grw_simulate(interp.GrwParams(GRW_N, duration_s, GRW_RATE),
                                       trials, seed)


# -- the CLI workload -------------------------------------------------------------

_ENTRY = "import sys; from bellwigner.cli import main; sys.exit(main())"


def strict_json(text: str):
    """Parse JSON, rejecting the non-standard NaN and Infinity constants."""
    def reject(constant):
        raise CheckFailed(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def _same_cell(cell: str, expected) -> bool:
    if expected is None:
        return cell == ""
    if isinstance(expected, str):
        return cell == expected
    return float(cell) == expected


def check_csv(text: str, rows: list[list]) -> None:
    got = list(csv.reader(io.StringIO(text)))
    require(len(got) == len(rows), f"CSV has {len(got)} rows, expected {len(rows)}")
    for got_row, row in zip(got, rows):
        require(len(got_row) == len(row) and all(map(_same_cell, got_row, row)),
                f"CSV row {got_row} != {row}")


def _csv_rows(kind: str, doc: dict) -> list[list]:
    if kind == "distribution":
        return [["a_value", "b_value", "joint_probability"]] + [
            [c["a_value"], c["b_value"], c["joint_probability"]] for c in doc["outcomes"]]
    if kind == "agreement":
        keys = list(ref.CORRELATOR_KEYS.values())
        return [["backend"] + keys + ["S"]] + [
            [name] + [report["correlators"][k] for k in keys] + [report["s_value"]]
            for name, report in doc["backends"].items()]
    if kind == "grw-sim":
        return [["collapsed_fraction", "mean_collapse_time_s"],
                [doc["collapsed_fraction"], doc["mean_collapse_time_s"]]]
    raise ValueError(f"no CSV rows for {kind!r}")


@dataclass
class CliCall:
    """One invocation: its arguments and the in-process document it must match."""

    argv: list[str]
    fmt: str
    expected: Callable[[], dict]
    check_doc: Callable[[dict], None]

    def check(self, proc: subprocess.CompletedProcess) -> None:
        require(proc.returncode == 0, f"{self.argv}: exit {proc.returncode}: {proc.stderr!r}")
        require(proc.stderr == b"", f"{self.argv}: stderr {proc.stderr!r}")
        text = proc.stdout.decode()
        expected = json.loads(json.dumps(self.expected()))
        if self.fmt == "json":
            doc = strict_json(text)
            require(doc == expected, f"{self.argv}: stdout differs from the in-process result")
            self.check_doc(doc)
        else:
            check_csv(text, _csv_rows(self.argv[0], expected))
            self.check_doc(expected)


class CliCold:
    """One fresh ``bellwigner`` process per call: start-up and import dominate."""

    REFERENCE = "small_ops"
    SAMPLE_SHOTS = 1000
    GRW_TRIALS = 10_000

    def __init__(self, seed: int, root: Path, spans_dir: Path):
        self.seed = seed
        self.spans_dir = spans_dir
        self.entry = [sys.executable, "-c", _ENTRY]
        self.traced_entry = [sys.executable, str(root / "bench" / "cli_traced.py")]
        bw = states.bell_wigner_state
        self.fixed = [
            CliCall(["chsh-exact"], "json", lambda: chsh.chsh_exact(bw()).to_dict(),
                    lambda doc: check_chsh_exact_doc(doc, ref.bell_wigner_amplitudes())),
            *[self._distribution(i, j, fmt) for (i, j), fmt in zip(
                ((0, 0), (0, 1), (1, 0), (1, 1)), ("json", "csv", "json", "csv"))],
            CliCall(["verify-algebra"], "json",
                    lambda: observables.verify_algebra().to_dict(), check_algebra_doc),
            self._agreement(False, "json"),
            self._agreement(True, "csv"),
        ]
        self.dump_state = CliCall(["dump-state"], "json",
                                  lambda: bw().to_dict(), check_state_doc)

    @staticmethod
    def _distribution(i, j, fmt) -> CliCall:
        def expected():
            table = chsh.joint_distribution(states.bell_wigner_state(), i, j)
            return {"setting": f"{i}{j}", "outcomes": [c.to_dict() for c in table]}

        def check_doc(doc):
            require(doc["setting"] == f"{i}{j}", f"setting {doc['setting']!r}")
            check_outcomes(doc["outcomes"], ref.bell_wigner_amplitudes(), i, j)

        return CliCall(["distribution", "--setting", f"{i}{j}", "--format", fmt], fmt,
                       expected, check_doc)

    @staticmethod
    def _agreement(macro, fmt) -> CliCall:
        scale = "macro" if macro else "micro"
        return CliCall(["agreement", "--scale", scale, "--format", fmt], fmt,
                       lambda: interp.agreement_report(_scale(macro)).to_dict(),
                       lambda doc: check_agreement_doc(doc, macro, None))

    def calls(self, r: int) -> list[CliCall]:
        rng = np.random.default_rng([self.seed, r])
        sample_seed, grw_seed = _u63(rng), _u63(rng)
        duration_s = float(rng.uniform(0.3e-9, 2.0e-9))
        shots, trials = self.SAMPLE_SHOTS, self.GRW_TRIALS
        exact_s = _bw_exact_s()
        seeded = [
            CliCall(["chsh-sample", "--shots", str(shots), "--seed", str(sample_seed)], "json",
                    lambda: chsh.chsh_sampled(states.bell_wigner_state(), shots,
                                              sample_seed).to_dict(),
                    lambda doc: ref.check_sampled(doc, exact_s, shots)),
            CliCall(["grw-sim", "--n", repr(GRW_N), "--t", repr(duration_s), "--trials",
                     str(trials), "--seed", str(grw_seed), "--format", "csv"], "csv",
                    lambda: _grw_call(duration_s, trials, grw_seed)().to_dict(),
                    lambda doc: check_grw_doc(doc, duration_s, trials)),
        ]
        return self.fixed + seeded + [self.dump_state]

    def round_ops(self, r: int) -> list[Op]:
        return [
            Op(call.argv[0], functools.partial(subprocess.run, self.entry + call.argv,
                                               capture_output=True, timeout=CLI_TIMEOUT_S),
               call.check, 1, call.argv)
            for call in self.calls(r)
        ]

    def traced_round(self, ops: list[Op], tracer: Tracer) -> list:
        """Run each invocation under ``cli_traced.py`` and merge its spans.

        The invocation is the root span. Its first child, ``import``, runs
        from the spawn to the launcher's first statement: interpreter start.
        Child timestamps share this process's monotonic clock.
        """
        results = []
        for op in ops:
            path = self.spans_dir / f"cli-{os.getpid()}-{len(tracer.spans)}.json"
            start = time.perf_counter_ns()
            proc = subprocess.run(self.traced_entry + [str(path)] + op.argv,
                                  capture_output=True, timeout=CLI_TIMEOUT_S)
            end = time.perf_counter_ns()
            results.append(proc)
            try:
                child = json.loads(path.read_text())
                path.unlink()
            except (OSError, ValueError) as exc:
                results[-1] = CheckFailed(f"no spans from {op.argv}: {exc}")
                continue
            root = len(tracer.spans)
            tracer.spans.append((ROOT, start, end, -1))
            tracer.spans.append(("import", start, child["t0_ns"], root))
            offset = len(tracer.spans)
            for layer, s, e, parent in child["spans"]:
                tracer.spans.append((layer, s, e, root if parent < 0 else parent + offset))
            tracer.counts.update(child["counts"])
        return results


def make(name: str, seed: int, root: Path, spans_dir: Path):
    if name == "many_small":
        return ManySmall(seed)
    if name == "few_large":
        return FewLarge(seed)
    if name == "cli_cold":
        return CliCold(seed, root, spans_dir)
    raise ValueError(f"unknown workload {name!r}")
