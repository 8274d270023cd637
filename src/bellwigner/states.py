"""State constructors over the package's fixed basis layout.

Basis convention (authoritative for the whole package, used by every module):

* subsystem order of the full space: ``photon_a, friend_a, photon_b, friend_b``;
* per-subsystem encoding: photon ``h -> 0``, ``v -> 1``; friend ``F_h -> 0``,
  ``F_v -> 1``;
* index rule: big-endian, i.e. ``photon_a`` is the most significant bit of the
  16-dimensional basis index::

      index = 8*photon_a + 4*friend_a + 2*photon_b + friend_b

Smaller spaces apply the same rule to their own subsystem tuple, e.g. a
``(photon, friend)`` side indexes as ``2*photon + friend``. Keeping this in
one place is what protects the lifted 16x16 operators from the classic
tensor-factor transposition bug.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .linalg import DEFAULT_TOL, Record

PHOTON_LABELS = ("h", "v")
FRIEND_LABELS = ("F_h", "F_v")
FULL_LAYOUT = ("photon_a", "friend_a", "photon_b", "friend_b")


def labels_for(subsystem: str) -> tuple[str, str]:
    """Basis labels of one subsystem, resolved from its name prefix."""
    if subsystem.startswith("photon"):
        return PHOTON_LABELS
    if subsystem.startswith("friend"):
        return FRIEND_LABELS
    raise ValueError(f"unknown subsystem {subsystem!r}")


def basis_index(subsystems: tuple[str, ...], labels: tuple[str, ...]) -> int:
    """Big-endian basis index of a product label tuple."""
    if len(labels) != len(subsystems):
        raise ValueError(f"expected {len(subsystems)} labels, got {len(labels)}")
    index = 0
    for subsystem, label in zip(subsystems, labels):
        choices = labels_for(subsystem)
        if label not in choices:
            raise ValueError(f"label {label!r} is not valid for {subsystem}")
        index = 2 * index + choices.index(label)
    return index


def basis_labels(subsystems: tuple[str, ...], index: int) -> tuple[str, ...]:
    """Inverse of :func:`basis_index`."""
    dim = 2 ** len(subsystems)
    if not 0 <= index < dim:
        raise ValueError(f"index {index} out of range for dim {dim}")
    out = []
    for position, subsystem in enumerate(subsystems):
        bit = (index >> (len(subsystems) - 1 - position)) & 1
        out.append(labels_for(subsystem)[bit])
    return tuple(out)


class StateVector(Record):
    """Normalized complex amplitudes over a labeled tensor-product basis, compared by identity."""

    __slots__ = ("subsystems", "amplitudes")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, subsystems: tuple[str, ...], amplitudes: np.ndarray):
        object.__setattr__(self, "subsystems", subsystems)  # not Record's loop: ~1 us less a state
        object.__setattr__(self, "amplitudes", amplitudes)
        self.__post_init__()  # the checks, looked up here: the benchmark's tracer rebinds it

    def __post_init__(self):
        subsystems = tuple(self.subsystems)
        for name in subsystems:
            labels_for(name)  # raises on unknown subsystem
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.shape[0] != 2 ** len(subsystems):
            raise ValueError(
                f"amplitude count {amps.shape} does not match subsystems {subsystems}"
            )
        if amps.shape[0] not in (2, 4, 16):
            raise ValueError(f"unsupported dimension {amps.shape[0]}")
        norm = math.hypot(*amps.view(float).tolist())  # no BLAS, and no square to overflow
        if not math.isfinite(norm) and not np.isfinite(amps).all():  # inf may be an overflow
            raise ValueError("amplitudes must be finite")
        if abs(norm - 1.0) > DEFAULT_TOL:
            raise ValueError(f"state norm {norm!r} is not 1 within {DEFAULT_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "subsystems", subsystems)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def to_dict(self) -> dict:
        """JSON document: {"layout": [...], "amplitudes": [[re, im], ...]}."""
        return {
            "layout": list(self.subsystems),
            "amplitudes": [[z.real, z.imag] for z in self.amplitudes],
        }


def plus_photon() -> StateVector:
    """Equal superposition (|h> + |v>)/sqrt(2) of one photon."""
    r = 1.0 / math.sqrt(2.0)
    return StateVector(("photon",), np.array([r, r], dtype=complex))


def correlate_friend(photon: StateVector) -> StateVector:
    """Correlate a friend's memory with a photon's polarization.

    Maps a|h> + b|v> to a|h,F_h> + b|v,F_v>, an isometry from the 2-dim
    photon space into the 4-dim pair space.
    """
    if photon.dim != 2 or not photon.subsystems[0].startswith("photon"):
        raise ValueError("correlate_friend expects a single-photon state")
    suffix = photon.subsystems[0][len("photon"):]
    subsystems = (photon.subsystems[0], "friend" + suffix)
    aligned = [basis_index(subsystems, labels) for labels in zip(PHOTON_LABELS, FRIEND_LABELS)]
    amps = np.zeros(4, dtype=complex)
    amps[aligned] = photon.amplitudes
    return StateVector(subsystems, amps)


def entangled_pair() -> StateVector:
    """Polarization singlet (|h>_a|v>_b - |v>_a|h>_b)/sqrt(2)."""
    subsystems = ("photon_a", "photon_b")
    r = 1.0 / math.sqrt(2.0)
    amps = np.zeros(4, dtype=complex)
    amps[basis_index(subsystems, ("h", "v"))] = r
    amps[basis_index(subsystems, ("v", "h"))] = -r
    return StateVector(subsystems, amps)


@functools.cache
def bell_wigner_state() -> StateVector:
    """The four-photon state measured in the extended Wigner's-friend test.

    Four product kets carry all the weight: amplitude cos(pi/8)/sqrt(2) on
    |h,F_v>_a|v,F_h>_b and |v,F_h>_a|h,F_v>_b, amplitude sin(pi/8)/sqrt(2)
    on |h,F_v>_a|h,F_v>_b and -sin(pi/8)/sqrt(2) on |v,F_h>_a|v,F_h>_b.
    The remaining 12 amplitudes are exactly zero. The trig factors are
    computed at run time from pi, never hard-coded decimals. Built once per
    process and cached: every call returns the same frozen, read-only state.
    """
    c = math.cos(math.pi / 8.0) / math.sqrt(2.0)
    s = math.sin(math.pi / 8.0) / math.sqrt(2.0)
    amps = np.zeros(16, dtype=complex)
    amps[basis_index(FULL_LAYOUT, ("h", "F_v", "v", "F_h"))] = c
    amps[basis_index(FULL_LAYOUT, ("v", "F_h", "h", "F_v"))] = c
    amps[basis_index(FULL_LAYOUT, ("h", "F_v", "h", "F_v"))] = s
    amps[basis_index(FULL_LAYOUT, ("v", "F_h", "v", "F_h"))] = -s
    return StateVector(FULL_LAYOUT, amps)
