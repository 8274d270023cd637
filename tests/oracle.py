"""Reference checks for the tests, written with numpy alone.

Nothing here imports the package, so a test that uses these helpers checks
the package against an independent statement of the basis rule: big-endian
index over the subsystems, with h and F_h read as 0 and v and F_v as 1.
"""

import numpy as np

_BIT = {"h": 0, "v": 1, "F_h": 0, "F_v": 1}


def ket_index(*labels: str) -> int:
    """Big-endian basis index of one label per subsystem."""
    value = 0
    for label in labels:
        value = 2 * value + _BIT[label]
    return value


def ket(*labels: str) -> np.ndarray:
    """Product basis ket with one label per subsystem."""
    amps = np.zeros(2 ** len(labels), dtype=complex)
    amps[ket_index(*labels)] = 1.0
    return amps


def is_projector(m) -> bool:
    """True iff ||m@m - m||_F <= 1e-12 and ||m - m^dagger||_F <= 1e-12."""
    m = np.asarray(m, dtype=complex)
    return bool(np.linalg.norm(m @ m - m) <= 1e-12 and np.linalg.norm(m - m.conj().T) <= 1e-12)


def checks_by_name(report) -> dict:
    """The checks of an algebra report, keyed by their names."""
    return {check.name: check for check in report.checks}
