"""Independent reference values for the benchmark's correctness checks.

A 16-dim state is handled as its 4x4 Alice x Bob amplitude matrix
``Psi[a, b] = amplitude[4*a + b]``, where a side index is
``2*photon + friend``. Then

* a correlator is ``<A (x) B> = Re tr(Psi^H A Psi B^T)``;
* a joint probability is ``P(a, b) = ||Pa Psi Pb^T||_F^2``.

The side observables and their spectra are written out here from their
definitions, so these checks share nothing with the package under test
except the basis convention.
"""

from __future__ import annotations

import math

import numpy as np

SETTING_PAIRS = ((1, 1), (1, 0), (0, 1), (0, 0))
CORRELATOR_KEYS = {(1, 1): "A1B1", (1, 0): "A1B0", (0, 1): "A0B1", (0, 0): "A0B0"}
EXACT_TOL = 1e-12
# A sampled value may sit this many of its own standard errors from the
# exact value before the check fails (two-sided 6 sigma: ~2e-9 per check).
K_SIGMA = 6.0

_R = 1.0 / math.sqrt(2.0)
_EYE = np.eye(4, dtype=complex)


def _projector(ket) -> np.ndarray:
    ket = np.asarray(ket, dtype=complex)
    return np.outer(ket, ket.conj())


# Side basis order: |h,F_h>, |h,F_v>, |v,F_h>, |v,F_v>.
_P_FV = np.diag([0.0, 1.0, 0.0, 1.0]).astype(complex)
_P_FH = np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)
_P_PLUS = _projector([0.0, _R, _R, 0.0])
_P_MINUS = _projector([0.0, _R, -_R, 0.0])
SPECTRA = {
    0: ((1.0, _P_FV), (-1.0, _P_FH)),
    1: ((1.0, _P_PLUS), (-1.0, _P_MINUS), (0.0, _EYE - _P_PLUS - _P_MINUS)),
}
OBSERVABLES = {s: sum(value * p for value, p in SPECTRA[s]) for s in (0, 1)}


def bell_wigner_amplitudes() -> np.ndarray:
    """The four-photon state, indexed 8*photon_a + 4*friend_a + 2*photon_b + friend_b."""
    c = math.cos(math.pi / 8.0) / math.sqrt(2.0)
    s = math.sin(math.pi / 8.0) / math.sqrt(2.0)
    amps = np.zeros(16, dtype=complex)
    amps[0b0110] = c   # h,F_v ; v,F_h
    amps[0b1001] = c   # v,F_h ; h,F_v
    amps[0b0101] = s   # h,F_v ; h,F_v
    amps[0b1010] = -s  # v,F_h ; v,F_h
    return amps


def correlators(amps) -> dict[tuple[int, int], float]:
    """Quadratic-form correlators; an unnormalized input carries its weight."""
    psi = np.asarray(amps, dtype=complex).reshape(4, 4)
    return {
        (i, j): float(np.trace(psi.conj().T @ OBSERVABLES[i] @ psi @ OBSERVABLES[j].T).real)
        for i, j in SETTING_PAIRS
    }


def s_value(corr: dict[tuple[int, int], float]) -> float:
    return corr[(1, 1)] + corr[(1, 0)] + corr[(0, 1)] - corr[(0, 0)]


def dephased_correlators(amps) -> dict[tuple[int, int], float]:
    """Correlators after dephasing both friends: the friend-record branches add."""
    amps = np.asarray(amps, dtype=complex)
    index = np.arange(16)
    total = {pair: 0.0 for pair in SETTING_PAIRS}
    for friend_a in (0, 1):
        for friend_b in (0, 1):
            keep = (((index >> 2) & 1) == friend_a) & ((index & 1) == friend_b)
            for pair, value in correlators(np.where(keep, amps, 0.0)).items():
                total[pair] += value
    return total


def joint_table(amps, i: int, j: int) -> list[tuple[float, float, float]]:
    """(a_value, b_value, probability) cells, Alice's outcomes outermost."""
    psi = np.asarray(amps, dtype=complex).reshape(4, 4)
    return [
        (a_value, b_value, float(np.linalg.norm(pa @ psi @ pb.T) ** 2))
        for a_value, pa in SPECTRA[i]
        for b_value, pb in SPECTRA[j]
    ]


def random_amplitudes(rng: np.random.Generator) -> np.ndarray:
    """A normalized complex Gaussian 16-vector (Haar-random pure state)."""
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    return amps / np.linalg.norm(amps)


def grw_probability(total_rate: float, duration_s: float) -> float:
    return -math.expm1(-total_rate * duration_s)


class CheckFailed(Exception):
    """A program output disagrees with its reference value."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_exact_correlators(doc_corr: dict[str, float], s: float, ref: dict) -> None:
    for pair, key in CORRELATOR_KEYS.items():
        require(abs(doc_corr[key] - ref[pair]) <= EXACT_TOL,
                f"{key}: {doc_corr[key]!r} != reference {ref[pair]!r}")
    require(abs(s - s_value(ref)) <= EXACT_TOL, f"S {s!r} != reference {s_value(ref)!r}")


def check_joint_table(cells: list[tuple[float, float, float]], amps, i: int, j: int) -> None:
    ref = joint_table(amps, i, j)
    require(len(cells) == len(ref), f"table {i}{j} has {len(cells)} cells, expected {len(ref)}")
    for (a, b, p), (ra, rb, rp) in zip(cells, ref):
        require((a, b) == (ra, rb), f"table {i}{j}: cell ({a}, {b}) != ({ra}, {rb})")
        require(abs(p - rp) <= EXACT_TOL, f"table {i}{j}: P({a},{b}) = {p!r} != {rp!r}")


def check_sampled(doc: dict, exact_s: float, shots: int) -> None:
    """A sampled CHSH document against the exact S of the sampled ensemble."""
    require(doc["mode"] == "sampled" and doc["shots_per_setting"] == shots,
            f"sampled report mode/shots wrong: {doc['mode']}, {doc['shots_per_setting']}")
    se = doc["standard_error"]
    s = doc["s_value"]
    require(math.isfinite(se) and se > 0.0, f"standard error {se!r} is not finite and positive")
    require(abs(s - exact_s) <= K_SIGMA * se,
            f"sampled S {s!r} is more than {K_SIGMA} SE ({se!r}) from exact {exact_s!r}")
    sigma = doc["sigma_violation"]
    require(math.isfinite(sigma) and abs(sigma - (s - 2.0) / se) <= 1e-9 * max(1.0, abs(sigma)),
            f"sigma_violation {sigma!r} != (S - 2) / SE")


def check_grw(fraction: float, mean_time, total_rate: float, duration_s: float,
              trials: int) -> None:
    """Collapse fraction within K_SIGMA binomial sigmas of 1 - exp(-rate*t)."""
    p = grw_probability(total_rate, duration_s)
    sigma = math.sqrt(max(p * (1.0 - p), 1.0 / trials) / trials)
    require(abs(fraction - p) <= K_SIGMA * sigma,
            f"collapse fraction {fraction!r} vs probability {p!r} (sigma {sigma!r})")
    count = round(fraction * trials)
    if count == 0:
        require(mean_time is None, "mean collapse time given for zero collapses")
        return
    # first-collapse times conditioned on t <= duration: truncated exponential
    lam_t = total_rate * duration_s
    expected = duration_s * (1.0 / lam_t - math.exp(-lam_t) / -math.expm1(-lam_t))
    require(0.0 < mean_time <= duration_s
            and abs(mean_time - expected) <= K_SIGMA * duration_s / math.sqrt(count),
            f"mean collapse time {mean_time!r} vs expected {expected!r}")
