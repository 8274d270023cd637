"""The four CHSH observables with analytic spectral decompositions.

Each side (Alice, Bob) measures on its own photon-friend pair. Setting 0
reads out the friend's record (friend basis, outcomes +-1); setting 1 probes
the coherence between the two correlated photon-friend kets (outcomes +1,
-1 and 0, the 0 eigenspace being the rank-2 complement). Spectra are written
down in closed form, so no eigensolver is involved anywhere.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import as_real, commutator_norm, frobenius_norm, kron, product
from .states import basis_index

ALICE = "alice"
BOB = "bob"
OBSERVABLE_LABELS = ("A0", "A1", "B0", "B1")

_SIDE_SUBSYSTEMS = ("photon", "friend")
_I2 = np.eye(2)
_I4 = np.eye(4)


@dataclass(frozen=True, eq=False)
class Observable:
    """A 4x4 real symmetric observable together with its outcome spectrum.

    ``label`` is one of OBSERVABLE_LABELS, and its first letter names the
    side: A for Alice, B for Bob. ``spectrum`` is a tuple of (outcome value,
    projector) pairs; the matrix must equal the value-weighted projector sum.
    Construction stores the matrix and projectors as float64, refusing a
    nonzero imaginary part, and checks the label and shapes: algebraic
    properties are the business of :func:`verify_algebra`, which has to be
    able to inspect deliberately broken instances.
    """

    label: str
    matrix: np.ndarray
    spectrum: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        if self.label not in OBSERVABLE_LABELS:
            raise ValueError(f"unknown observable label {self.label!r}")
        matrix = as_real(self.matrix)
        if matrix.shape != (4, 4):
            raise ValueError(f"observable matrix must be 4x4, got {matrix.shape}")
        matrix.setflags(write=False)
        spectrum = []
        for value, projector in self.spectrum:
            p = as_real(projector)
            if p.shape != (4, 4):
                raise ValueError(f"spectral projector must be 4x4, got {p.shape}")
            p.setflags(write=False)
            spectrum.append((float(value), p))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "spectrum", tuple(spectrum))

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


@dataclass(frozen=True)
class AlgebraCheck:
    name: str
    passed: bool
    residual: float


@dataclass(frozen=True)
class AlgebraReport:
    checks: tuple[AlgebraCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "residual": c.residual}
                for c in self.checks
            ],
        }


_EXPECTED_SPECTRA = {
    "0": ((+1.0, 2), (-1.0, 2)),
    "1": ((+1.0, 1), (-1.0, 1), (0.0, 2)),
}


def _correlated_support() -> np.ndarray:
    """|h,F_v><h,F_v| + |v,F_h><v,F_h|, the square of a setting-1 observable."""
    k1 = _side_ket("h", "F_v")
    k2 = _side_ket("v", "F_h")
    return np.outer(k1, k1) + np.outer(k2, k2)


def verify_algebra(
    a0: Observable | None = None,
    a1: Observable | None = None,
    b0: Observable | None = None,
    b1: Observable | None = None,
) -> AlgebraReport:
    """Run every algebraic identity the observables must satisfy.

    Failures are report entries, so corrupted observables can be fed in as
    negative controls; a check reading a non-finite entry fails at residual nan,
    and one whose product or norm overflows at inf, with no exception or warning.
    Both intra-side commutator norms must exceed 0.5; each is twice the 4x4 factors',
    as [X (x) I4, Y (x) I4] = [X, Y] (x) I4 and ||Z (x) I4|| = 2 ||Z||. Every other check holds
    only at residual 0.0 (``product`` is exact on entries 0, +-1/2, 1):
    setting-0 squares are the identity, setting-1 squares the correlated-support
    projector, the four inter-side commutators vanish, and each spectrum
    reconstructs its matrix, has the expected values and ranks, and is
    orthogonal projectors summing to the identity.
    """
    a0 = a0 or make_observable("A0")
    a1 = a1 or make_observable("A1")
    b0 = b0 or make_observable("B0")
    b1 = b1 or make_observable("B1")
    support = _correlated_support()
    checks: list[AlgebraCheck] = []

    def norm(m) -> float:  # a product of finite entries may overflow: frobenius_norm refuses it
        return frobenius_norm(m) if np.isfinite(m).all() else math.inf

    def add(name: str, inputs, residual, passes=lambda r: r == 0.0):
        with np.errstate(over="ignore", invalid="ignore"):  # a large entry overflows
            r = float(residual()) if all(np.isfinite(m).all() for m in inputs) else math.nan
        checks.append(AlgebraCheck(name, math.isfinite(r) and bool(passes(r)), r))

    for obs, target, name in (
        (a0, _I4, "A0_squared_identity"),
        (b0, _I4, "B0_squared_identity"),
        (a1, support, "A1_squared_support"),
        (b1, support, "B1_squared_support"),
    ):
        add(name, [obs.matrix], lambda: norm(product(obs.matrix, obs.matrix) - target))

    for alice_obs in (a0, a1):
        for bob_obs in (b0, b1):
            add(f"commute_{alice_obs.label}_{bob_obs.label}", [alice_obs.matrix, bob_obs.matrix],
                lambda: commutator_norm(lift(alice_obs), lift(bob_obs)))

    for first, second in ((a0, a1), (b0, b1)):
        add(f"noncommute_{first.label}_{second.label}", [first.matrix, second.matrix],
            lambda: 2.0 * commutator_norm(first.matrix, second.matrix), lambda r: r > 0.5)

    for obs in (a0, a1, b0, b1):
        values = tuple(value for value, _ in obs.spectrum)
        projectors = [p for _, p in obs.spectrum]
        add(f"spectrum_reconstruction_{obs.label}", [obs.matrix, values, *projectors],
            lambda: norm(sum(value * p for value, p in obs.spectrum) - obs.matrix))

        expected = _EXPECTED_SPECTRA[obs.label[1]]
        if values != tuple(v for v, _ in expected):
            checks.append(AlgebraCheck(f"spectrum_values_{obs.label}", False, 1.0))
        else:
            add(f"spectrum_values_{obs.label}", projectors, lambda: max(
                abs(np.trace(p) - rank) for p, (_, rank) in zip(projectors, expected)))

        def projector_residual():
            worst = 0.0
            for i, p in enumerate(projectors):
                worst = max(worst, norm(product(p, p) - p))
                worst = max(worst, norm(p - p.T))
                for q in projectors[i + 1:]:
                    worst = max(worst, norm(product(p, q)))
            return max(worst, norm(sum(projectors) - _I4))
        add(f"spectrum_projectors_{obs.label}", projectors, projector_residual)

    return AlgebraReport(tuple(checks))
