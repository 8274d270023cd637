"""Command-line front end: one subcommand per computation, JSON/CSV output.

stdout carries exactly one serialized document; diagnostics go to stderr.
Exit codes: 0 success, 1 internal check failure (a failed algebra identity,
or an output file that cannot be written), 2 usage error. Two invocations
with identical argv, config and environment produce byte-identical stdout.

Settings precedence: command-line flag > config file > BELLWIGNER_SEED
environment variable (seed only) > built-in default.

Each setting is declared once, in ``_SETTINGS``: its flag options, the JSON
type a config file must give and its default. The parser, the config loader
and the resolver all read that table, and config keys are the flag names.
Whatever its source (flag, config or environment), a value meets one check,
``_check``: the seed fits in u64, another integer is positive, a number is
finite, a choice is one of its choices and a path (``out``) is non-empty with
no NUL byte, and the file system can encode it. Its ``UsageError`` is also
what argparse reports for a bad flag. ``--key=--`` gives the value ``--`` on
every Python, as argparse does from 3.13.
Importing it calls ``gc.freeze()``, so shutdown's collections skip the import-time heap.
The GRW settings n, t and rate default to the ``--scale`` preset,
``ATOM_PARAMS`` or ``INSTRUMENT_PARAMS``.
Each subcommand is declared once, by ``_command``, which adds its handler to
``_COMMANDS`` with its help (the handler's docstring), its CSV table and any
argument of its own.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import io
import json
import math
import os
import sys
from pathlib import Path

from .chsh import chsh_exact, chsh_sampled, classical_max, joint_distribution
from .interpretations import (
    ATOM_PARAMS,
    INSTRUMENT_PARAMS,
    MACROSCOPIC,
    MICROSCOPIC,
    FriendScale,
    GrwParams,
    agreement_report,
    grw_exact_probability,
    grw_linear_probability,
    grw_simulate,
    many_worlds_branches,
)
from .observables import OBSERVABLE_LABELS, make_observable, verify_algebra
from .states import basis_labels, bell_wigner_state, correlate_friend, entangled_pair, plus_photon
# the import-time heap lives until exit: frozen, shutdown's collections skip it
gc.freeze()

ENV_SEED = "BELLWIGNER_SEED"


class UsageError(argparse.ArgumentTypeError):
    """Invalid arguments or configuration; maps to exit status 2."""


# key (= flag name = config key) -> (argparse options, JSON type, default).
# A flag, config or BELLWIGNER_SEED value is read as the JSON type and then
# meets ``_check``, whatever its source. n, t and rate have no default here:
# ``_grw_params`` takes the ones not given from the ``--scale`` preset.
_SETTINGS = {
    "seed": ({"help": "RNG seed (unsigned 64-bit)"}, int, 0),
    "shots": ({"help": "measurement shots per setting pair"}, int, 10_000),
    "trials": ({"help": "Monte Carlo trials for collapse simulation"}, int, 1_000_000),
    "n": ({"help": "particle count"}, float, None),
    "t": ({"help": "measurement duration in seconds"}, float, None),
    "rate": ({"help": "per-particle localization rate in 1/s"}, float, None),
    "setting": ({"choices": ("00", "01", "10", "11"),
                 "help": "setting pair: first digit Alice, second Bob"}, str, "00"),
    "scale": ({"choices": (MICROSCOPIC, MACROSCOPIC),
               "help": "friend scale: micro (atom) or macro (instrument)"}, str, MICROSCOPIC),
    "format": ({"choices": ("json", "csv"), "help": "output format (default json)"},
               str, "json"),
    "out": ({"help": "write the document to this path"}, str, None),
}

# JSON type -> (its name in error messages, the Python types a config value may have)
_JSON_TYPES = {int: ("an integer", int), float: ("a number", (int, float)), str: ("a string", str)}


def _check(key: str, value, source: str):
    """Return ``value`` if it is valid for setting ``key``, else raise ``UsageError``
    naming ``source`` (the setting, config key or environment variable): the
    seed fits in u64, shots are at least 2 (a sample variance needs two), any
    other int is positive, a float is finite, a value with choices is one of
    them, and a string without choices, a path, is non-empty with no NUL byte
    and one the file system can encode."""
    options, kind, _ = _SETTINGS[key]
    choices = options.get("choices")
    if key == "seed":
        if not 0 <= value < 2 ** 64:
            raise UsageError(f"{source} must fit in an unsigned 64-bit integer")
    elif kind is int and value < 1:
        raise UsageError(f"{source} must be positive, got {value!r}")
    elif key == "shots" and value < 2:
        raise UsageError(f"{source} must be at least 2, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise UsageError(f"{source} must be finite, got {value!r}")
    if choices is not None and value not in choices:
        raise UsageError(f"{source} must be one of {choices}, got {value!r}")
    if kind is str and choices is None:
        if value == "" or "\0" in value:
            raise UsageError(f"{source} must be a non-empty path with no NUL byte, got {value!r}")
        try:
            os.fsencode(value)
        except UnicodeEncodeError:  # a lone surrogate
            raise UsageError(f"{source} must be a path the file system can encode, "
                             f"got {value!r}")
    return value


def _parse(key: str, text: str, source: str):
    """Setting ``key`` given as ``text`` (a flag or the environment), read as its
    JSON type and then checked."""
    kind = _SETTINGS[key][1]
    try:
        value = kind(text)
    except ValueError:
        raise UsageError(f"{source} must be {_JSON_TYPES[kind][0]}, got {text!r}")
    return _check(key, value, source)


class _Store(argparse.Action):
    """Store a flag's value. Python 3.10-3.12 argparse stores [] for ``--key=--`` and
    never calls the flag's type; read it as the text ``--``, as Python 3.13 does."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values == []:
            try:
                values = self.type("--") if self.type else "--"
            except argparse.ArgumentTypeError as exc:
                raise argparse.ArgumentError(self, str(exc))
        setattr(namespace, self.dest, values)


_COMMANDS: dict = {}


def _command(name: str, rows, *arguments):
    """Declare subcommand ``name``: the decorated ``handler(cfg) -> (doc, status)``
    gives its help as docstring, ``rows(doc)`` its CSV table, and ``arguments``
    its own ``(flag, argparse options)`` pairs."""
    def register(handler):
        handler.rows = rows
        handler.arguments = arguments
        _COMMANDS[name] = handler
        return handler
    return register


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for key, (options, _, _) in _SETTINGS.items():
        flag_type = functools.partial(_parse, key, source=key)
        common.add_argument(f"--{key}", action=_Store, type=flag_type, **options)
    common.add_argument("--config", action=_Store, help="JSON config file with default settings")

    parser = argparse.ArgumentParser(
        prog="bellwigner",
        description="Desk-scale simulator of the extended Wigner's-friend CHSH experiment.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, handler in _COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=handler.__doc__, allow_abbrev=False)
        for flag, options in handler.arguments:
            sp.add_argument(flag, **options)
    return parser


class _Token(str):
    """NaN, Infinity or -Infinity: ``json.loads`` reads them, strict JSON has none."""


def _strict_object(pairs: list) -> dict:
    """``object_pairs_hook`` of a config file: a repeated key or a ``_Token`` value is refused."""
    doc: dict = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} is given twice")
        if isinstance(value, _Token):
            raise ValueError(f"key {key!r} has the non-standard token {value}")
        doc[key] = value
    return doc


def load_config(path: str) -> dict:
    """Read a flat JSON object of scalar settings, rejecting unknown keys."""
    try:
        data = Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte or a lone surrogate
        raise UsageError(f"config {path!r} cannot be read: {exc}")
    try:
        doc = json.loads(data.decode("utf-8"), parse_constant=_Token,
                         object_pairs_hook=_strict_object)
    except (ValueError, RecursionError) as exc:  # also non-UTF-8, deep nesting, 4301+ digits
        raise UsageError(f"config {path!r} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise UsageError(f"config {path!r} must be a JSON object")
    out: dict = {}
    for key, value in doc.items():
        if key not in _SETTINGS:
            raise UsageError(f"unknown config key {key!r}")
        kind = _SETTINGS[key][1]
        type_name, accepted = _JSON_TYPES[kind]
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise UsageError(f"config key {key!r} must be {type_name}, got {value!r}")
        try:
            value = kind(value)
        except OverflowError:  # an integer past the float range, as float("1e400") reads it
            value = math.inf if value > 0 else -math.inf
        out[key] = _check(key, value, f"config key {key!r}")
    return out


def _resolve(args: argparse.Namespace) -> dict:
    """Settings under their flag names, plus the rest of the parsed namespace
    (``subcommand``, ``config`` and the arguments ``_command`` declared for the
    subcommand)."""
    cfg = {key: default for key, (_, _, default) in _SETTINGS.items()}
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        cfg["seed"] = _parse("seed", env_seed, ENV_SEED)
    given = load_config(args.config) if args.config is not None else {}
    given.update((key, getattr(args, key)) for key in _SETTINGS if getattr(args, key) is not None)
    cfg.update(given)
    cfg.update((key, value) for key, value in vars(args).items() if key not in _SETTINGS)
    return cfg


def _grw_params(cfg: dict) -> GrwParams:
    """The ``--scale`` preset, with any n, t or rate that a flag or the config gave."""
    preset = ATOM_PARAMS if cfg["scale"] == MICROSCOPIC else INSTRUMENT_PARAMS
    defaults = {"n": preset.n_particles, "t": preset.duration_s, "rate": preset.rate_per_particle}
    return GrwParams(*(value if cfg[key] is None else cfg[key] for key, value in defaults.items()))


def _csv_text(rows) -> str:
    """CSV of ``rows``; None is an empty cell, and a non-finite float is refused
    (as ``json.dumps(allow_nan=False)`` refuses it)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in rows:
        for cell in row:
            if isinstance(cell, float) and not math.isfinite(cell):
                raise ValueError(f"Out of range float values are not CSV compliant: {cell!r}")
        writer.writerow(["" if cell is None else cell for cell in row])
    return buffer.getvalue()


def _one_row(doc: dict) -> list[list]:
    """A flat document as a header of its keys and one row of its values."""
    return [list(doc), list(doc.values())]


def _table(records: list[dict], *fields: str) -> list[list]:
    """A header of ``fields``, then those fields of each record."""
    return [list(fields)] + [[record[field] for field in fields] for record in records]


def _chsh_rows(doc: dict) -> tuple[list, list]:
    header = [*doc["correlators"], "S"]
    row = [*doc["correlators"].values(), doc["s_value"]]
    if doc["mode"] == "sampled":
        header += ["shots_per_setting", "standard_error", "sigma_violation"]
        row += [doc["shots_per_setting"], doc["standard_error"], doc["sigma_violation"]]
    return header, row


def _agreement_rows(doc: dict) -> list[list]:
    rows = []
    for name, report in doc["backends"].items():
        header, row = _chsh_rows(report)
        rows.append([name] + row)
    return [["backend"] + header] + rows


def _state_rows(doc: dict) -> list[list]:
    layout = tuple(doc["layout"])
    return [["index", "basis", "re", "im"]] + [
        [index, ";".join(basis_labels(layout, index)), re, im]
        for index, (re, im) in enumerate(doc["amplitudes"])
    ]


def _matrix_rows(doc: dict) -> list[list]:
    return [["row", "col", "re", "im"]] + [
        [r, c, re, im]
        for r, matrix_row in enumerate(doc["matrix"])
        for c, (re, im) in enumerate(matrix_row)
    ]


_STATES = {
    "plus-photon": plus_photon,
    "correlated": lambda: correlate_friend(plus_photon()),
    "entangled-pair": entangled_pair,
    # looked up at call time, so a rebinding of this module's name is seen
    "bell-wigner": lambda: bell_wigner_state(),
}


@_command("chsh-exact", _chsh_rows)
def _cmd_chsh_exact(cfg: dict):
    """exact correlators and S value of the four-photon state"""
    return chsh_exact(bell_wigner_state()).to_dict(), 0


@_command("chsh-sample", _chsh_rows)
def _cmd_chsh_sample(cfg: dict):
    """seeded Monte Carlo CHSH run with significance report"""
    return chsh_sampled(bell_wigner_state(), cfg["shots"], cfg["seed"]).to_dict(), 0


@_command("classical-bound", _one_row)
def _cmd_classical_bound(cfg: dict):
    """exhaustive classical maximum of the CHSH combination"""
    return {"classical_max": classical_max()}, 0


@_command("distribution",
          lambda doc: _table(doc["outcomes"], "a_value", "b_value", "joint_probability"))
def _cmd_distribution(cfg: dict):
    """joint outcome table of one setting pair"""
    setting = cfg["setting"]
    outcomes = joint_distribution(bell_wigner_state(), int(setting[0]), int(setting[1]))
    return {"setting": setting, "outcomes": [cell.to_dict() for cell in outcomes]}, 0


@_command("verify-algebra", lambda doc: _table(doc["checks"], "name", "passed", "residual"))
def _cmd_verify_algebra(cfg: dict):
    """check every algebraic identity of the observables"""
    report = verify_algebra()
    return report.to_dict(), 0 if report.all_passed else 1


@_command("grw-prob", _one_row)
def _cmd_grw_prob(cfg: dict):
    """linear and Poisson localization probabilities"""
    params = _grw_params(cfg)
    return {"linear": grw_linear_probability(params), "exact": grw_exact_probability(params)}, 0


@_command("grw-sim", _one_row)
def _cmd_grw_sim(cfg: dict):
    """Monte Carlo first-collapse simulation"""
    return grw_simulate(_grw_params(cfg), cfg["trials"], cfg["seed"]).to_dict(), 0


@_command("branches", lambda doc: _table(doc["branches"], "label", "weight"))
def _cmd_branches(cfg: dict):
    """many-worlds branches of the photon-friend state"""
    return {"branches": [b.to_dict() for b in many_worlds_branches(_STATES["correlated"]())]}, 0


@_command("agreement", _agreement_rows,
          ("--sampled", {"action": "store_true",
                         "help": "report seeded Monte Carlo runs instead of exact values"}))
def _cmd_agreement(cfg: dict):
    """CHSH predictions of the three interpretation backends"""
    report = agreement_report(FriendScale(cfg["scale"], _grw_params(cfg)), cfg["shots"],
                              cfg["seed"], sampled=cfg["sampled"])
    return report.to_dict(), 0


@_command("dump-state", _state_rows,
          ("name", {"nargs": "?", "default": "bell-wigner", "choices": tuple(_STATES)}))
def _cmd_dump_state(cfg: dict):
    """emit a named state vector as JSON"""
    return _STATES[cfg["name"]]().to_dict(), 0


@_command("dump-observable", _matrix_rows,
          ("label", {"nargs": "?", "default": "A0", "choices": OBSERVABLE_LABELS}))
def _cmd_dump_observable(cfg: dict):
    """emit an observable's matrix and spectrum"""
    return make_observable(cfg["label"]).to_dict(), 0


def _render(subcommand: str, doc: dict, output_format: str) -> str:
    if output_format == "json":
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    return _csv_text(_COMMANDS[subcommand].rows(doc))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2

    try:
        cfg = _resolve(args)
        document, status = _COMMANDS[cfg["subcommand"]](cfg)
        text = _render(cfg["subcommand"], document, cfg["format"])
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if cfg["out"] is not None:
        try:
            Path(cfg["out"]).write_text(text)
        except OSError as exc:
            print(f"error: cannot write {cfg['out']!r}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
