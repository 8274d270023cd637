"""CHSH engine: exact correlators, classical bound, seeded Monte Carlo runs.

The quantity of interest is S = <A1B1> + <A1B0> + <A0B1> - <A0B0>. Joint
measurement of one Alice setting with one Bob setting uses the Kronecker
products Pa (x) Pb of the sides' spectral projectors, legitimate because the
sides act on disjoint factors and commute; no sequential collapse is involved.

The engine takes a 16-dim state over ``states.FULL_LAYOUT`` or an ensemble,
a sequence of branches with ``weight`` and such a ``state``, such as
``interpretations.Branch``; a bare state is the ensemble of itself with
weight 1. A state was checked (finite, normalized) when it was built, so
the engine checks only its layout and refuses any other subsystem order,
such as the friends in the photon slots. An ensemble's correlators and
outcome tables are the Born-weighted averages of its branches'.

The outcome cells of a setting pair, the products Pa (x) Pb of the 4x4 side
projectors, are checked once and cached as one read-only real (K, 256) stack:
each is finite, Hermitian and real, and they sum to the identity. For a real
symmetric cell C, <psi|C|psi> = sum(C * G) over the 256 entries of the state's
G = Re(psi psi^H) = x x^T + y y^T (x, y = Re psi, Im psi), and an ensemble's G
is the Born-weighted sum of its branches'. A joint table is that sum for every
cell at once: float64 products and sums, with no BLAS call and no fused
multiply-add. An exact correlator is the sum of a table's cells times their
outcome products a*b, so an ensemble's exact correlators are those of its
Born-weighted G, the mixture the sampler draws from, and exact correlators,
joint tables and sampled outputs have the same bits on every CPU. Nothing here
calls ``linalg.expectation``, the tests' BLAS reference route.

Sampling draws the outcome-cell counts of each setting pair (i, j) at once,
so time and memory do not grow with the shot count, from a generator seeded
by hashing (seed, i, j): the four settings can be sampled in any order,
serially or in parallel, and reproduce identical reports bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# nothing here calls expectation, lift or lifted_spectrum: bench/spans.py rebinds them here
from .linalg import DEFAULT_TOL, expectation, frobenius_norm, is_hermitian, kron
from .observables import alice_observable, bob_observable, check_setting, lift, lifted_spectrum
from .states import FULL_LAYOUT, StateVector

SETTING_PAIRS = ((1, 1), (1, 0), (0, 1), (0, 0))


def s_from_correlators(correlators: dict[tuple[int, int], float]) -> float:
    """S = <A1B1> + <A1B0> + <A0B1> - <A0B0>."""
    return (
        correlators[(1, 1)] + correlators[(1, 0)]
        + correlators[(0, 1)] - correlators[(0, 0)]
    )


@dataclass(frozen=True)
class JointOutcome:
    """One cell of the joint outcome table of a commuting setting pair."""

    a_value: float
    b_value: float
    joint_probability: float

    def to_dict(self) -> dict:
        return {
            "a_value": self.a_value,
            "b_value": self.b_value,
            "joint_probability": self.joint_probability,
        }


@dataclass(frozen=True)
class ChshReport:
    """Four correlators and the S value, exact or sampled.

    ``shots_per_setting``, ``standard_error`` and ``sigma_violation`` are
    None in exact mode; ``sigma_violation`` is also None when the standard
    error is 0. The stored ``s_value`` always recomputes from the
    correlators within 1e-12, and exact-mode correlators cannot exceed 1 in
    magnitude beyond rounding.
    """

    mode: str
    correlators: dict[tuple[int, int], float]
    s_value: float
    shots_per_setting: int | None = None
    standard_error: float | None = None
    sigma_violation: float | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"unknown report mode {self.mode!r}")
        if set(self.correlators) != set(SETTING_PAIRS):
            raise ValueError("correlator map must cover all four setting pairs")
        if abs(s_from_correlators(self.correlators) - self.s_value) > DEFAULT_TOL:
            raise ValueError("s_value does not recompute from the stored correlators")
        if self.mode == "exact":
            worst = max(abs(v) for v in self.correlators.values())
            if worst > 1.0 + DEFAULT_TOL:
                raise ValueError(f"exact correlator magnitude {worst} exceeds 1")

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "correlators": {f"A{i}B{j}": self.correlators[(i, j)] for i, j in SETTING_PAIRS},
            "s_value": self.s_value,
            "shots_per_setting": self.shots_per_setting,
            "standard_error": self.standard_error,
            "sigma_violation": self.sigma_violation,
        }


def _require_full_state(state: StateVector) -> np.ndarray:
    if state.subsystems != FULL_LAYOUT:
        raise ValueError(
            f"CHSH engine needs the 16-dim state over {FULL_LAYOUT}, got {state.subsystems}")
    return state.amplitudes


def _born_sum(state: StateVector | Sequence, value):
    """Born-weighted sum of ``value(branch.state)`` over an ensemble.

    A bare state is the ensemble of itself with weight 1, whose sum is
    ``value(state)`` bit for bit; an ensemble's weights must be non-negative
    and sum to 1 within 1e-12. The sum starts from the first term, not from
    0.0, which would turn a -0.0 into 0.0.
    """
    if isinstance(state, StateVector):
        return value(state)
    if any(branch.weight < 0.0 for branch in state):
        raise ValueError("ensemble weights must be non-negative")
    total = math.fsum(branch.weight for branch in state)
    if not abs(total - 1.0) <= DEFAULT_TOL:  # written so that a nan total fails
        raise ValueError(f"ensemble weights sum to {total!r}, not 1")
    terms = [branch.weight * value(branch.state) for branch in state]
    return sum(terms[1:], terms[0])


@functools.cache
def _outcome_cells(i: int, j: int) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Setting (i, j)'s cells in one order: (a_value, b_value) pairs, the read-only
    real (K, 256) stack of the products Pa (x) Pb of the 4x4 side projectors (each
    entry one product, no sum), flattened, and the read-only outcome products a*b.

    Each cell must be finite, Hermitian and real (imaginary part exactly 0), and
    the cells must sum to the identity; raises ValueError otherwise, and nothing
    is cached.
    """
    outcomes, cells = [], []
    for a_value, pa in alice_observable(i).spectrum:
        for b_value, pb in bob_observable(j).spectrum:
            cell = kron(pa, pb)
            if not is_hermitian(cell):
                raise ValueError(f"outcome cell ({a_value}, {b_value}) of setting ({i}, {j}) "
                                 "is not Hermitian")
            if cell.imag.any():
                raise ValueError(f"outcome cell ({a_value}, {b_value}) of setting ({i}, {j}) "
                                 "is not real")
            outcomes.append((a_value, b_value))
            cells.append(cell.real.reshape(256))
    stack = np.array(cells)
    residual = frobenius_norm(stack.sum(axis=0).reshape(16, 16) - np.eye(16))
    if residual > DEFAULT_TOL:
        raise ValueError(f"outcome cells of setting ({i}, {j}) sum to the identity "
                         f"only within {residual:.3e}")
    products = np.array([a_value * b_value for a_value, b_value in outcomes])
    for array in (stack, products):
        array.setflags(write=False)
    return tuple(outcomes), stack, products


def _gram(state: StateVector) -> np.ndarray:
    """G = x x^T + y y^T of a state (x, y = Re psi, Im psi), flattened to 256 entries."""
    psi = _require_full_state(state)
    x, y = psi.real, psi.imag
    return (x[:, None] * x + y[:, None] * y).reshape(256)


def _table(gram: np.ndarray, i: int, j: int) -> np.ndarray:
    """sum(C * G) for each cell C of setting (i, j): the joint probabilities of the
    state or ensemble whose G is ``gram``. Not ``stack @ gram``, a BLAS dgemv whose
    summation order and fused multiply-adds depend on the CPU."""
    _, stack, _ = _outcome_cells(check_setting(i), check_setting(j))
    return (stack * gram).sum(axis=1)


def chsh_exact(state: StateVector | Sequence) -> ChshReport:
    """Exact quantum correlators and S value of a 16-dim state or an ensemble: each
    correlator is sum(a*b * P(a, b)) over the joint table of its Born-weighted G."""
    gram = _born_sum(state, _gram)
    correlators = {(i, j): float((_outcome_cells(i, j)[2] * _table(gram, i, j)).sum())
                   for i, j in SETTING_PAIRS}
    return ChshReport("exact", correlators, s_from_correlators(correlators))


def joint_distribution(state: StateVector, i: int, j: int) -> list[JointOutcome]:
    """Full joint outcome table for setting pair (i, j), zero cells included."""
    table = _table(_gram(state), i, j).tolist()
    return [JointOutcome(*outcome, p) for outcome, p in zip(_outcome_cells(i, j)[0], table)]


def sample_products(
    probabilities: np.ndarray,
    products: np.ndarray,
    shots: int,
    stream_key: tuple[int, ...],
) -> tuple[float, float]:
    """Mean and ddof=1 variance of `shots` outcome products drawn from one setting's table.

    One multinomial draw gives every cell's count, in table order, and the
    statistics follow from the counts; no per-shot array is built. The
    generator is seeded from the full ``stream_key`` tuple, so every setting
    (and caller) owns an independent, reproducible stream.
    """
    probs = np.clip(np.asarray(probabilities, dtype=float), 0.0, None)
    total = probs.sum()
    if total <= 0.0:
        raise ValueError("outcome probabilities sum to zero")
    counts = np.random.default_rng(stream_key).multinomial(shots, probs / total)
    values = np.asarray(products, dtype=float)
    # elementwise products and a sum: a BLAS dot's order depends on the CPU
    mean = float((counts * values).sum()) / shots
    # sum n (x - m)^2 rather than sum n x^2 - N m^2, which cancels
    return mean, float((counts * (values - mean) ** 2).sum()) / (shots - 1)


def _setting_products(gram: np.ndarray, i: int, j: int, shots: int, seed: int
                      ) -> tuple[float, float]:
    table = _table(gram, i, j)
    return sample_products(table, _outcome_cells(i, j)[2], shots, (seed, i, j))


def sample_setting_products(
    state: StateVector | Sequence, i: int, j: int, shots: int, seed: int
) -> tuple[float, float]:
    """Mean and ddof=1 variance of the products a*b of `shots` joint outcomes of setting
    (i, j), drawn from the mixture table of an ensemble: the table of its Born-weighted G."""
    return _setting_products(_born_sum(state, _gram), i, j, shots, seed)


def report_from_setting_products(
    setting_stats: dict[tuple[int, int], tuple[float, float]], shots: int
) -> ChshReport:
    """Assemble a sampled report from per-setting (mean, variance) pairs.

    The standard error combines per-setting sample variances in quadrature:
    SE = sqrt(sum_ij var_ij / shots); sigma_violation = (S - 2) / SE, or
    None when SE is 0 (every setting drew a single outcome product).
    """
    correlators = {pair: setting_stats[pair][0] for pair in SETTING_PAIRS}
    s_value = s_from_correlators(correlators)
    standard_error = math.sqrt(sum(setting_stats[pair][1] for pair in SETTING_PAIRS) / shots)
    sigma = (s_value - 2.0) / standard_error if standard_error > 0.0 else None
    return ChshReport(
        "sampled", correlators, s_value,
        shots_per_setting=shots, standard_error=standard_error, sigma_violation=sigma,
    )


def chsh_sampled(state: StateVector | Sequence, shots_per_setting: int, seed: int) -> ChshReport:
    """Monte Carlo CHSH run on a state or an ensemble: seeded, reproducible bit for bit."""
    # floats raise TypeError; numpy integers become an int that JSON can serialize
    shots_per_setting = operator.index(shots_per_setting)
    if shots_per_setting < 2:
        raise ValueError("shots_per_setting must be at least 2 (sample variance)")
    if shots_per_setting > 2 ** 63 - 1:  # outcome counts are int64
        raise ValueError(f"shots {shots_per_setting} exceeds the bound of 2**63 - 1 per setting")
    gram = _born_sum(state, _gram)
    setting_stats = {
        (i, j): _setting_products(gram, i, j, shots_per_setting, seed) for i, j in SETTING_PAIRS
    }
    return report_from_setting_products(setting_stats, shots_per_setting)


def classical_assignments() -> list[tuple[int, int, int, int, int]]:
    """All simultaneous value assignments (a0, a1, b0, b1) and their CHSH value:
    +-1 for the friend readouts a0 and b0, +-1 or 0 for the coherence probes."""
    return [
        (a0, a1, b0, b1, a1 * b1 + a1 * b0 + a0 * b1 - a0 * b0)
        for a0, a1, b0, b1 in itertools.product((-1, 1), (-1, 0, 1), (-1, 1), (-1, 0, 1))
    ]


def classical_max() -> int:
    """Exhaustive maximum of the CHSH combination over all 36 assignments."""
    return max(value for *_, value in classical_assignments())
