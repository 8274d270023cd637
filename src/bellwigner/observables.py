"""The four CHSH observables with analytic spectral decompositions.

Each side (Alice, Bob) measures on its own photon-friend pair. Setting 0
reads out the friend's record (friend basis, outcomes +-1); setting 1 probes
the coherence between the two correlated photon-friend kets (outcomes +1,
-1 and 0, the 0 eigenspace being the rank-2 complement). Spectra are written
down in closed form, so no eigensolver is involved anywhere.
"""

from __future__ import annotations

import functools
import numbers
from typing import NamedTuple

import numpy as np

from .linalg import Record, as_real, commutator_norm, frobenius_norm, kron, product
from .states import basis_index

ALICE = "alice"
BOB = "bob"
OBSERVABLE_LABELS = ("A0", "A1", "B0", "B1")

_SIDE_SUBSYSTEMS = ("photon", "friend")
_I2 = np.eye(2)
_I4 = np.eye(4)


class Observable(Record):
    """A 4x4 real symmetric observable together with its outcome spectrum.

    ``label`` is one of OBSERVABLE_LABELS, and its first letter names the
    side: A for Alice, B for Bob. ``spectrum`` is a tuple of (outcome value,
    projector) pairs; the matrix must equal the value-weighted projector sum.
    Construction stores the matrix and projectors as float64, refusing a
    nonzero imaginary part, and checks only the label and shapes: the algebraic
    properties are what :func:`verify_algebra` checks of the four built-ins. It
    compares and hashes by identity.
    """

    __slots__ = ("label", "matrix", "spectrum")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, label: str, matrix: np.ndarray, spectrum: tuple):
        if label not in OBSERVABLE_LABELS:
            raise ValueError(f"unknown observable label {label!r}")
        matrix = as_real(matrix)
        if matrix.shape != (4, 4):
            raise ValueError(f"observable matrix must be 4x4, got {matrix.shape}")
        matrix.setflags(write=False)
        spectrum = tuple((float(value), as_real(projector)) for value, projector in spectrum)
        for _, p in spectrum:
            if p.shape != (4, 4):
                raise ValueError(f"spectral projector must be 4x4, got {p.shape}")
            p.setflags(write=False)
        super().__init__(label, matrix, spectrum)

    @property
    def side(self) -> str:
        return ALICE if self.label[0] == "A" else BOB

    def to_dict(self) -> dict:
        def entries(m):
            return [[[x, 0.0] for x in row] for row in m]

        return {
            "label": self.label,
            "side": self.side,
            "matrix": entries(self.matrix),
            "spectrum": [
                {"value": value, "projector": entries(projector)}
                for value, projector in self.spectrum
            ],
        }


def _side_ket(photon: str, friend: str) -> np.ndarray:
    ket = np.zeros(4)
    ket[basis_index(_SIDE_SUBSYSTEMS, (photon, friend))] = 1.0
    return ket


def _friend_readout(label: str) -> Observable:
    """Setting-0 observable: friend record F_v counts +1, F_h counts -1."""
    p_fv = kron(_I2, np.diag([0.0, 1.0]))
    p_fh = kron(_I2, np.diag([1.0, 0.0]))
    return Observable(label, p_fv - p_fh, ((+1.0, p_fv), (-1.0, p_fh)))


def _coherence_probe(label: str) -> Observable:
    """Setting-1 observable built from (|h,F_v> +- |v,F_h>)/sqrt(2), every entry exactly
    0, +-1/2 or 1: P+- = 1/2 (k1 +- k2)(k1 +- k2)^T and P0 = I - the correlated support."""
    k1, k2 = _side_ket("h", "F_v"), _side_ket("v", "F_h")
    p_plus = 0.5 * np.outer(k1 + k2, k1 + k2)
    p_minus = 0.5 * np.outer(k1 - k2, k1 - k2)
    p_zero = _I4 - _correlated_support()
    return Observable(
        label, p_plus - p_minus,
        ((+1.0, p_plus), (-1.0, p_minus), (0.0, p_zero)),
    )


@functools.cache
def make_observable(label: str) -> Observable:
    """The observable named ``label``, one of OBSERVABLE_LABELS, built once."""
    if label not in OBSERVABLE_LABELS:
        raise ValueError(f"unknown observable label {label!r}")
    build = _friend_readout if label[1] == "0" else _coherence_probe
    return build(label)


def alice_observable(setting: int) -> Observable:
    return make_observable(f"A{check_setting(setting)}")


def bob_observable(setting: int) -> Observable:
    return make_observable(f"B{check_setting(setting)}")


def check_setting(setting: int) -> int:
    # a bool or float equal to 0 or 1 is refused: cached tables are keyed by equality
    if isinstance(setting, numbers.Integral) and type(setting) is not bool and setting in (0, 1):
        return int(setting)
    raise ValueError(f"setting must be 0 or 1, got {setting!r}")


def _embed(side: str, m: np.ndarray) -> np.ndarray:
    """Embed a 4x4 operator of ``side`` in the full 16-dim space.

    Alice acts on the leading (photon_a, friend_a) factors, Bob on the
    trailing ones, matching the big-endian layout of :mod:`.states`.
    """
    return kron(m, _I4) if side == ALICE else kron(_I4, m)


def lift(obs: Observable) -> np.ndarray:
    """Embed a side observable in the full 16-dim space."""
    return _embed(obs.side, obs.matrix)


def lifted_spectrum(obs: Observable) -> tuple[tuple[float, np.ndarray], ...]:
    """The spectrum of :func:`lift`: projectors embed the same way."""
    return tuple((value, _embed(obs.side, p)) for value, p in obs.spectrum)


class AlgebraCheck(NamedTuple):
    """One identity of :func:`verify_algebra`: its name, verdict and residual."""

    name: str
    passed: bool
    residual: float


class AlgebraReport(NamedTuple):
    """Every check of :func:`verify_algebra`, in order, and whether all of them passed."""

    checks: tuple[AlgebraCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        return {"all_passed": self.all_passed, "checks": [check._asdict() for check in self.checks]}


_EXPECTED_SPECTRA = {
    "0": ((+1.0, 2), (-1.0, 2)),
    "1": ((+1.0, 1), (-1.0, 1), (0.0, 2)),
}


def _correlated_support() -> np.ndarray:
    """|h,F_v><h,F_v| + |v,F_h><v,F_h|, the square of a setting-1 observable."""
    k1 = _side_ket("h", "F_v")
    k2 = _side_ket("v", "F_h")
    return np.outer(k1, k1) + np.outer(k2, k2)


def verify_algebra() -> AlgebraReport:
    """Run every algebraic identity the four built-in observables must satisfy.

    Failures are report entries, not exceptions. Both intra-side commutator norms
    must exceed 0.5; each is twice the 4x4 factors', as [X (x) I4, Y (x) I4] =
    [X, Y] (x) I4 and ||Z (x) I4|| = 2 ||Z||. Every other check holds only at
    residual 0.0 (``product`` is exact on entries 0, +-1/2, 1): setting-0 squares
    are the identity, setting-1 squares the correlated-support projector, the four
    inter-side commutators vanish, and each spectrum reconstructs its matrix, has
    the expected values and ranks, and is orthogonal projectors summing to the identity.
    """
    a0, a1, b0, b1 = map(make_observable, OBSERVABLE_LABELS)
    support = _correlated_support()
    checks: list[AlgebraCheck] = []

    def add(name: str, residual: float, passed: bool | None = None):
        checks.append(AlgebraCheck(name, residual == 0.0 if passed is None else passed, residual))

    for obs, target, name in (
        (a0, _I4, "A0_squared_identity"),
        (b0, _I4, "B0_squared_identity"),
        (a1, support, "A1_squared_support"),
        (b1, support, "B1_squared_support"),
    ):
        add(name, frobenius_norm(product(obs.matrix, obs.matrix) - target))

    for alice_obs in (a0, a1):
        for bob_obs in (b0, b1):
            add(f"commute_{alice_obs.label}_{bob_obs.label}",
                commutator_norm(lift(alice_obs), lift(bob_obs)))

    for first, second in ((a0, a1), (b0, b1)):
        r = 2.0 * commutator_norm(first.matrix, second.matrix)
        add(f"noncommute_{first.label}_{second.label}", r, r > 0.5)

    for obs in (a0, a1, b0, b1):
        values, projectors = zip(*obs.spectrum)
        add(f"spectrum_reconstruction_{obs.label}",
            frobenius_norm(sum(value * p for value, p in obs.spectrum) - obs.matrix))

        expected = _EXPECTED_SPECTRA[obs.label[1]]
        if values != tuple(v for v, _ in expected):
            add(f"spectrum_values_{obs.label}", 1.0, False)
        else:
            add(f"spectrum_values_{obs.label}", max(
                float(abs(np.trace(p) - rank)) for p, (_, rank) in zip(projectors, expected)))

        worst = frobenius_norm(sum(projectors) - _I4)
        for i, p in enumerate(projectors):
            worst = max(worst, frobenius_norm(product(p, p) - p), frobenius_norm(p - p.T),
                        *(frobenius_norm(product(p, q)) for q in projectors[i + 1:]))
        add(f"spectrum_projectors_{obs.label}", worst)

    return AlgebraReport(tuple(checks))
