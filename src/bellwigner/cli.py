"""Command-line front end: one subcommand per computation, JSON/CSV output.

stdout carries exactly one serialized document; diagnostics go to stderr.
Exit codes: 0 success, 1 internal check failure (a failed algebra identity,
or an output file that cannot be written), 2 usage error. Two invocations
with identical argv, config and environment produce byte-identical stdout.

Settings precedence: command-line flag > config file > BELLWIGNER_SEED
environment variable (seed only) > built-in default.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .chsh import chsh_exact, chsh_sampled, classical_max, joint_distribution
from .interpretations import (
    FriendScale,
    GrwParams,
    agreement_report,
    grw_exact_probability,
    grw_linear_probability,
    grw_simulate,
    many_worlds_branches,
)
from .observables import make_observable, verify_algebra
from .states import (
    basis_labels,
    bell_wigner_state,
    correlate_friend,
    entangled_pair,
    plus_photon,
)

ENV_SEED = "BELLWIGNER_SEED"

SUBCOMMANDS = (
    "chsh-exact", "chsh-sample", "classical-bound", "distribution",
    "verify-algebra", "grw-prob", "grw-sim", "branches", "agreement",
    "dump-state", "dump-observable",
)

_DEFAULTS = {
    "seed": 0,
    "shots": 10_000,
    "trials": 1_000_000,
    "n": 1e2,
    "t": 1e3,
    "rate": 1e-16,
    "setting": "00",
    "scale": "micro",
    "format": "json",
    "out": None,
}

_SETTING_CHOICES = ("00", "01", "10", "11")
_SCALE_CHOICES = ("micro", "macro")
_FORMAT_CHOICES = ("json", "csv")
_STATE_NAMES = ("plus-photon", "correlated", "entangled-pair", "bell-wigner")
_OBSERVABLE_LABELS = ("A0", "A1", "B0", "B1")

# config-file key groups and the choice lists used to validate them
_INT_KEYS = {"seed", "shots", "trials"}
_FLOAT_KEYS = {"n", "t", "rate"}
_STR_KEYS = {"setting": _SETTING_CHOICES, "scale": _SCALE_CHOICES,
             "format": _FORMAT_CHOICES, "out": None}


class UsageError(Exception):
    """Invalid arguments or configuration; maps to exit status 2."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings of one invocation."""

    subcommand: str
    seed: int
    shots: int
    trials: int
    n_particles: float
    duration_s: float
    rate_per_particle: float
    setting: str
    scale: str
    output_format: str
    output_path: str | None
    explicit: frozenset[str]
    state_name: str = "bell-wigner"
    observable_label: str = "A0"
    sampled: bool = False


def _check_seed(value: int, source: str, error: type[Exception] = UsageError) -> int:
    """Return ``value`` if it fits in an unsigned 64-bit integer, else raise
    ``error`` naming ``source`` (the flag, config key or environment variable)."""
    if not 0 <= value < 2 ** 64:
        raise error(f"{source} must fit in an unsigned 64-bit integer")
    return value


def _u64(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return _check_seed(value, "seed", argparse.ArgumentTypeError)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError("value must be a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_u64, default=None, help="RNG seed (unsigned 64-bit)")
    common.add_argument("--shots", type=_positive_int, default=None,
                        help="measurement shots per setting pair")
    common.add_argument("--trials", type=_positive_int, default=None,
                        help="Monte Carlo trials for collapse simulation")
    common.add_argument("--n", type=float, default=None, help="particle count")
    common.add_argument("--t", type=float, default=None, help="measurement duration in seconds")
    common.add_argument("--rate", type=float, default=None,
                        help="per-particle localization rate in 1/s")
    common.add_argument("--setting", choices=_SETTING_CHOICES, default=None,
                        help="setting pair: first digit Alice, second Bob")
    common.add_argument("--scale", choices=_SCALE_CHOICES, default=None,
                        help="friend scale: micro (atom) or macro (instrument)")
    common.add_argument("--format", choices=_FORMAT_CHOICES, default=None,
                        help="output format (default json)")
    common.add_argument("--out", default=None, help="write the document to this path")
    common.add_argument("--config", default=None, help="JSON config file with default settings")

    parser = argparse.ArgumentParser(
        prog="bellwigner",
        description="Desk-scale simulator of the extended Wigner's-friend CHSH experiment.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    helps = {
        "chsh-exact": "exact correlators and S value of the four-photon state",
        "chsh-sample": "seeded Monte Carlo CHSH run with significance report",
        "classical-bound": "exhaustive classical maximum of the CHSH combination",
        "distribution": "joint outcome table of one setting pair",
        "verify-algebra": "check every algebraic identity of the observables",
        "grw-prob": "linear and Poisson localization probabilities",
        "grw-sim": "Monte Carlo first-collapse simulation",
        "branches": "many-worlds branches of the photon-friend state",
        "agreement": "CHSH predictions of the three interpretation backends",
        "dump-state": "emit a named state vector as JSON",
        "dump-observable": "emit an observable's matrix and spectrum",
    }
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name, parents=[common], help=helps[name])
        if name == "agreement":
            sp.add_argument("--sampled", action="store_true",
                            help="report seeded Monte Carlo runs instead of exact values")
        if name == "dump-state":
            sp.add_argument("name", nargs="?", default="bell-wigner", choices=_STATE_NAMES)
        if name == "dump-observable":
            sp.add_argument("label", nargs="?", default="A0", choices=_OBSERVABLE_LABELS)
    return parser


def load_config(path: str) -> dict:
    """Read a flat JSON object of scalar settings, rejecting unknown keys."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise UsageError(f"config {path} must be a JSON object")
    out: dict = {}
    for key, value in doc.items():
        if key in _INT_KEYS:
            if isinstance(value, bool) or not isinstance(value, int):
                raise UsageError(f"config key {key!r} must be an integer, got {value!r}")
            if key == "seed":
                _check_seed(value, "config key 'seed'")
            elif value < 1:
                raise UsageError(f"config key {key!r} must be positive, got {value!r}")
            out[key] = value
        elif key in _FLOAT_KEYS:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise UsageError(f"config key {key!r} must be a number, got {value!r}")
            out[key] = float(value)
        elif key in _STR_KEYS:
            if not isinstance(value, str):
                raise UsageError(f"config key {key!r} must be a string, got {value!r}")
            choices = _STR_KEYS[key]
            if choices is not None and value not in choices:
                raise UsageError(f"config key {key!r} must be one of {choices}, got {value!r}")
            out[key] = value
        else:
            raise UsageError(f"unknown config key {key!r}")
    return out


def _resolve(args: argparse.Namespace) -> RunConfig:
    settings = dict(_DEFAULTS)
    explicit: set[str] = set()

    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        try:
            value = int(env_seed)
        except ValueError:
            raise UsageError(f"{ENV_SEED} must be an integer, got {env_seed!r}")
        settings["seed"] = _check_seed(value, ENV_SEED)

    if args.config is not None:
        loaded = load_config(args.config)
        settings.update(loaded)
        explicit.update(loaded)

    for key in _DEFAULTS:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
            explicit.add(key)

    return RunConfig(
        subcommand=args.subcommand,
        seed=settings["seed"],
        shots=settings["shots"],
        trials=settings["trials"],
        n_particles=settings["n"],
        duration_s=settings["t"],
        rate_per_particle=settings["rate"],
        setting=settings["setting"],
        scale=settings["scale"],
        output_format=settings["format"],
        output_path=settings["out"],
        explicit=frozenset(explicit),
        state_name=getattr(args, "name", "bell-wigner"),
        observable_label=getattr(args, "label", "A0"),
        sampled=getattr(args, "sampled", False),
    )


def _grw_params(cfg: RunConfig) -> GrwParams:
    return GrwParams(cfg.n_particles, cfg.duration_s, cfg.rate_per_particle)


def _friend_scale(cfg: RunConfig) -> FriendScale:
    """Scale for the agreement run: canonical parameters unless overridden."""
    base = FriendScale.microscopic() if cfg.scale == "micro" else FriendScale.macroscopic()
    if not ({"n", "t", "rate"} & cfg.explicit):
        return base
    params = GrwParams(
        cfg.n_particles if "n" in cfg.explicit else base.grw.n_particles,
        cfg.duration_s if "t" in cfg.explicit else base.grw.duration_s,
        cfg.rate_per_particle if "rate" in cfg.explicit else base.grw.rate_per_particle,
    )
    return FriendScale(base.kind, params)


def _cmd_chsh_exact(cfg: RunConfig):
    return chsh_exact(bell_wigner_state()).to_dict(), 0


def _cmd_chsh_sample(cfg: RunConfig):
    return chsh_sampled(bell_wigner_state(), cfg.shots, cfg.seed).to_dict(), 0


def _cmd_classical_bound(cfg: RunConfig):
    return {"classical_max": classical_max()}, 0


def _cmd_distribution(cfg: RunConfig):
    i, j = int(cfg.setting[0]), int(cfg.setting[1])
    outcomes = joint_distribution(bell_wigner_state(), i, j)
    return {"setting": cfg.setting, "outcomes": [cell.to_dict() for cell in outcomes]}, 0


def _cmd_verify_algebra(cfg: RunConfig):
    report = verify_algebra()
    return report.to_dict(), 0 if report.all_passed else 1


def _cmd_grw_prob(cfg: RunConfig):
    params = _grw_params(cfg)
    return {"linear": grw_linear_probability(params), "exact": grw_exact_probability(params)}, 0


def _cmd_grw_sim(cfg: RunConfig):
    return grw_simulate(_grw_params(cfg), cfg.trials, cfg.seed).to_dict(), 0


def _cmd_branches(cfg: RunConfig):
    state = correlate_friend(plus_photon(), "aligned")
    return {"branches": [b.to_dict() for b in many_worlds_branches(state)]}, 0


def _cmd_agreement(cfg: RunConfig):
    report = agreement_report(_friend_scale(cfg), cfg.shots, cfg.seed, sampled=cfg.sampled)
    return report.to_dict(), 0


def _cmd_dump_state(cfg: RunConfig):
    builders = {
        "plus-photon": plus_photon,
        "correlated": lambda: correlate_friend(plus_photon(), "aligned"),
        "entangled-pair": entangled_pair,
        "bell-wigner": bell_wigner_state,
    }
    return builders[cfg.state_name]().to_dict(), 0


def _cmd_dump_observable(cfg: RunConfig):
    return make_observable(cfg.observable_label).to_dict(), 0


_COMMANDS = {
    "chsh-exact": _cmd_chsh_exact,
    "chsh-sample": _cmd_chsh_sample,
    "classical-bound": _cmd_classical_bound,
    "distribution": _cmd_distribution,
    "verify-algebra": _cmd_verify_algebra,
    "grw-prob": _cmd_grw_prob,
    "grw-sim": _cmd_grw_sim,
    "branches": _cmd_branches,
    "agreement": _cmd_agreement,
    "dump-state": _cmd_dump_state,
    "dump-observable": _cmd_dump_observable,
}


def _csv_text(rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in rows:
        writer.writerow(["" if cell is None else cell for cell in row])
    return buffer.getvalue()


def _chsh_rows(doc: dict) -> tuple[list, list]:
    header = ["A1B1", "A1B0", "A0B1", "A0B0", "S"]
    row = [doc["correlators"][k] for k in ("A1B1", "A1B0", "A0B1", "A0B0")] + [doc["s_value"]]
    if doc["mode"] == "sampled":
        header += ["shots_per_setting", "standard_error", "sigma_violation"]
        row += [doc["shots_per_setting"], doc["standard_error"], doc["sigma_violation"]]
    return header, row


def _render_csv(subcommand: str, doc: dict) -> str:
    if subcommand in ("chsh-exact", "chsh-sample"):
        header, row = _chsh_rows(doc)
        return _csv_text([header, row])
    if subcommand == "classical-bound":
        return _csv_text([["classical_max"], [doc["classical_max"]]])
    if subcommand == "distribution":
        rows = [["a_value", "b_value", "joint_probability"]]
        rows += [[c["a_value"], c["b_value"], c["joint_probability"]] for c in doc["outcomes"]]
        return _csv_text(rows)
    if subcommand == "verify-algebra":
        rows = [["name", "passed", "residual"]]
        rows += [[c["name"], c["passed"], c["residual"]] for c in doc["checks"]]
        return _csv_text(rows)
    if subcommand == "grw-prob":
        return _csv_text([["linear", "exact"], [doc["linear"], doc["exact"]]])
    if subcommand == "grw-sim":
        return _csv_text([
            ["collapsed_fraction", "mean_collapse_time_s"],
            [doc["collapsed_fraction"], doc["mean_collapse_time_s"]],
        ])
    if subcommand == "branches":
        rows = [["label", "weight"]]
        rows += [[b["label"], b["weight"]] for b in doc["branches"]]
        return _csv_text(rows)
    if subcommand == "agreement":
        first = next(iter(doc["backends"].values()))
        header, _ = _chsh_rows(first)
        rows = [["backend"] + header]
        for name, report in doc["backends"].items():
            _, row = _chsh_rows(report)
            rows.append([name] + row)
        return _csv_text(rows)
    if subcommand == "dump-state":
        layout = tuple(doc["layout"])
        rows = [["index", "basis", "re", "im"]]
        for index, (re, im) in enumerate(doc["amplitudes"]):
            rows.append([index, ";".join(basis_labels(layout, index)), re, im])
        return _csv_text(rows)
    if subcommand == "dump-observable":
        rows = [["row", "col", "re", "im"]]
        for r, matrix_row in enumerate(doc["matrix"]):
            for c, (re, im) in enumerate(matrix_row):
                rows.append([r, c, re, im])
        return _csv_text(rows)
    raise ValueError(f"no CSV rendering for {subcommand!r}")


def _render(subcommand: str, doc: dict, output_format: str) -> str:
    if output_format == "json":
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    return _render_csv(subcommand, doc)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2

    try:
        cfg = _resolve(args)
        document, status = _COMMANDS[cfg.subcommand](cfg)
        text = _render(cfg.subcommand, document, cfg.output_format)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if cfg.output_path:
        try:
            Path(cfg.output_path).write_text(text)
        except OSError as exc:
            print(f"error: cannot write {cfg.output_path}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return status


# spec name for the entry point: run(argv) -> exit status
run = main


if __name__ == "__main__":
    sys.exit(main())
