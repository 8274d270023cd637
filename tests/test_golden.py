"""Byte-exact stdout of pinned CLI invocations, compared with tests/golden/.

Regenerate (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

import pytest

from bellwigner.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

SAMPLED = ("--sampled", "--shots", "1000", "--seed", "11")
CASES = {
    "agreement_micro": ("agreement", "--scale", "micro"),
    "agreement_macro": ("agreement", "--scale", "macro"),
    "agreement_micro_sampled": ("agreement", "--scale", "micro", *SAMPLED),
    "agreement_macro_sampled": ("agreement", "--scale", "macro", *SAMPLED),
    # the GRW rule disagrees with the scale-bucket rule of the other backends
    "agreement_micro_long": ("agreement", "--scale", "micro", "--n", "1e6", "--t", "1e12"),
    "agreement_macro_short": ("agreement", "--scale", "macro", "--t", "1e-12"),
    "branches": ("branches",),
    "chsh_exact": ("chsh-exact",),
    "chsh_sample": ("chsh-sample", "--shots", "1000", "--seed", "42"),
    # two shots that draw one outcome product per setting: SE = 0
    "chsh_sample_zero_se": ("chsh-sample", "--shots", "2", "--seed", "4"),
    "classical_bound": ("classical-bound",),
    **{f"distribution_{s}": ("distribution", "--setting", s) for s in ("00", "01", "10", "11")},
    "verify_algebra": ("verify-algebra",),
    "grw_prob": ("grw-prob", "--n", "100", "--t", "1e3", "--rate", "1e-16"),
    "grw_sim": ("grw-sim", "--n", "1e25", "--t", "1e-9", "--trials", "10000", "--seed", "7"),
    # default parameters: no trial collapses, so the mean time is null
    "grw_sim_null_mean": ("grw-sim", "--trials", "100"),
    **{f"dump_state_{name.replace('-', '_')}": ("dump-state", name)
       for name in ("plus-photon", "correlated", "entangled-pair", "bell-wigner")},
    **{f"dump_observable_{label}": ("dump-observable", label)
       for label in ("A0", "A1", "B0", "B1")},
    # more trials than one block of the streamed GRW kernel (listed last, so
    # the cases above keep their test ids)
    "grw_sim_blocks": (
        "grw-sim", "--n", "1e25", "--t", "1e-9", "--trials", "100000", "--seed", "7"
    ),
}


def golden_cases():
    for name, argv in CASES.items():
        for fmt in ("json", "csv"):
            yield f"{name}.{fmt}", [*argv, "--format", fmt]


def run_stdout(argv: list[str]) -> tuple[int, bytes]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(argv)
    return status, buffer.getvalue().encode()


@pytest.mark.parametrize("filename, argv", list(golden_cases()))
def test_stdout_matches_golden(filename, argv):
    status, out = run_stdout(argv)
    assert status == 0
    assert out == (GOLDEN_DIR / filename).read_bytes()
    # parsing and re-emitting the document gives the same bytes
    if filename.endswith(".json"):
        again = json.dumps(json.loads(out), indent=2, allow_nan=False) + "\n"
    else:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(csv.reader(io.StringIO(out.decode())))
        again = buffer.getvalue()
    assert again.encode() == out


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for filename, argv in golden_cases():
        status, out = run_stdout(argv)
        if status != 0:
            sys.exit(f"{filename}: bellwigner {' '.join(argv)} exited {status}")
        (GOLDEN_DIR / filename).write_bytes(out)
