"""CHSH engine: exact correlators, classical bound, seeded Monte Carlo runs.

The quantity of interest is S = <A1B1> + <A1B0> + <A0B1> - <A0B0>. Joint
measurement of one Alice setting with one Bob setting uses the Kronecker
products Pa (x) Pb of the sides' spectral projectors, legitimate because the
sides act on disjoint factors and commute; no sequential collapse is involved.

The engine takes a 16-dim state over ``states.FULL_LAYOUT`` or an ensemble,
a sequence of branches with ``weight`` and such a ``state``, such as
``interpretations.Branch`` (not a tuple, which would read as an ensemble); a bare
state is the ensemble of itself with weight 1. A state was checked (finite,
normalized) when it was built, so the engine checks only its layout and refuses any
other subsystem order, such as the friends in the photon slots. An ensemble's
correlators and joint tables, lists of ``JointOutcome`` NamedTuples, are the
Born-weighted averages of its branches'.

The outcome cells of the four setting pairs, the products Pa (x) Pb of the 4x4
side projectors, are checked once and cached as one read-only real (25, 36)
stack in SETTING_PAIRS order, with the slice of each setting's rows: each cell
is finite and Hermitian (real, as its projectors are), and each setting's
cells sum to the identity.
Its columns are the 36 of the 256 entries that are nonzero in some cell. For a
real symmetric cell C, <psi|C|psi> = sum(C * G) over those 36 entries of the
state's G = Re(psi psi^H) = x x^T + y y^T (x, y = Re psi, Im psi), read with one
gather of the interleaved (x, y) amplitudes at a cached (2, 2, 36) index, and an
ensemble's G is the Born-weighted sum of its branches'. Each call reduces the
whole stack once, float64 products and numpy row sums with no BLAS call and no
fused multiply-add, to one (25,) table of joint probabilities, which reports,
joint tables and samples slice. A setting's exact correlator, sum(a*b * P(a, b)),
and its sampled mean and variance are ``math.fsum`` of a few Python floats,
correctly rounded in any order, CPU or Python. So an ensemble's tables and exact
correlators are those of the mixture the sampler draws from. Nothing here calls
``linalg.expectation``.

Sampling draws each setting pair's outcome-cell counts at once, so time and memory do not
grow with the shot count, from a generator seeded by hashing (seed, i, j): settings sampled
in any order, serially or in parallel, give identical reports bit for bit. Every sampled
route draws through ``sample_products``, the one gate of shots, seeds and tables.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

# nothing here calls expectation, lift or lifted_spectrum: bench/spans.py rebinds them here
from .linalg import DEFAULT_TOL, expectation, frobenius_norm, is_hermitian, kron
from .observables import alice_observable, bob_observable, check_setting, lift, lifted_spectrum
from .states import FULL_LAYOUT, StateVector

SETTING_PAIRS = ((1, 1), (1, 0), (0, 1), (0, 0))
_PAIR_SET = frozenset(SETTING_PAIRS)


def s_from_correlators(correlators: dict[tuple[int, int], float]) -> float:
    """S = <A1B1> + <A1B0> + <A0B1> - <A0B0>."""
    return (
        correlators[(1, 1)] + correlators[(1, 0)]
        + correlators[(0, 1)] - correlators[(0, 0)]
    )


class JointOutcome(NamedTuple):
    """One cell of a commuting setting pair's joint outcome table; its document is its fields."""

    a_value: float
    b_value: float
    joint_probability: float

    def to_dict(self) -> dict:
        return self._asdict()


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
        if self.correlators.keys() != _PAIR_SET:
            raise ValueError("correlator map must cover all four setting pairs")
        if not abs(s_from_correlators(self.correlators) - self.s_value) <= DEFAULT_TOL:  # nan fails
            raise ValueError("s_value does not recompute from the stored correlators")
        if self.mode == "exact":
            worst = max(map(abs, self.correlators.values()))
            if not worst <= 1.0 + DEFAULT_TOL:
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


@functools.cache
def _cells() -> tuple[tuple, np.ndarray, np.ndarray, MappingProxyType, np.ndarray]:
    """All four setting pairs' cells in SETTING_PAIRS order: (a_value, b_value) pairs,
    the read-only real (25, 36) stack of the products Pa (x) Pb of the 4x4 side
    projectors (each entry one product, no sum) at the 36 entries nonzero in some
    cell, the read-only outcome products a*b, a read-only map from each pair (i, j) to
    the slice of its rows, and the read-only (2, 2, 36) gather index [[2r, 2r+1], [2c, 2c+1]]
    of those entries' (r, c) into a 16-dim state's amplitudes viewed as interleaved (x, y).

    Each cell, real because its projectors are, must be finite and Hermitian, and each
    pair's cells must sum to the identity; raises ValueError otherwise, caching nothing.
    """
    outcomes, cells, rows = [], [], {}
    for i, j in SETTING_PAIRS:
        first = len(cells)
        for a_value, pa in alice_observable(i).spectrum:
            for b_value, pb in bob_observable(j).spectrum:
                cell = kron(pa, pb)
                if not is_hermitian(cell):
                    raise ValueError(f"outcome cell ({a_value}, {b_value}) of setting ({i}, {j}) "
                                     "is not Hermitian")
                outcomes.append((a_value, b_value))
                cells.append(cell.reshape(256))
        rows[i, j] = slice(first, len(cells))
        residual = frobenius_norm(np.sum(cells[first:], axis=0).reshape(16, 16) - np.eye(16))
        if residual > DEFAULT_TOL:
            raise ValueError(f"outcome cells of setting ({i}, {j}) sum to the identity "
                             f"only within {residual:.3e}")
    columns = np.flatnonzero(np.any(cells, axis=0))
    stack = np.array([cell[columns] for cell in cells])  # C order: each row sums pairwise
    products = np.array([a_value * b_value for a_value, b_value in outcomes])
    gather = 2 * np.array(np.divmod(columns, 16))[:, None] + [[0], [1]]  # [[2r, 2r+1], [2c, 2c+1]]
    for array in (stack, products, gather):
        array.setflags(write=False)
    return tuple(outcomes), stack, products, MappingProxyType(rows), gather


def _gram(state: StateVector | Sequence) -> np.ndarray:
    """Born-weighted G = x x^T + y y^T (x, y = Re psi, Im psi) of a state or an ensemble at
    the cell stack's 36 (row, column) pairs: a state's entry x[r]*x[c] + y[r]*y[c], the bits
    of G's (r, c) entry, read with one gather of its interleaved (x, y) at ``_cells()[4]``.

    A state must be over FULL_LAYOUT. A bare state is the ensemble of itself with weight 1,
    whose G is the state's bit for bit; an ensemble's weights must be non-negative and sum
    to 1 within 1e-12. The sum starts from the first term, not from 0.0, which would turn
    a -0.0 into 0.0. Raises ValueError otherwise.
    """
    if isinstance(state, StateVector):
        if state.subsystems != FULL_LAYOUT:
            raise ValueError(f"CHSH engine needs the 16-dim state over {FULL_LAYOUT}, "
                             f"got {state.subsystems}")
        pairs = state.amplitudes.view(float)[_cells()[4]]  # [[x[r], y[r]], [x[c], y[c]]]
        products = pairs[0] * pairs[1]  # x[r]*x[c] and y[r]*y[c], the same IEEE products
        return products[0] + products[1]
    if any(branch.weight < 0.0 for branch in state):
        raise ValueError("ensemble weights must be non-negative")
    total = math.fsum(branch.weight for branch in state)
    if not abs(total - 1.0) <= DEFAULT_TOL:  # written so that a nan total fails
        raise ValueError(f"ensemble weights sum to {total!r}, not 1")
    terms = [branch.weight * _gram(branch.state) for branch in state]
    return sum(terms[1:], terms[0])


def _table(state: StateVector | Sequence) -> np.ndarray:
    """sum(C * G) for each of the 25 cached cells C: the joint probabilities of a state or
    an ensemble, a setting's at its rows of ``_cells()``. Not ``stack @ gram``, a BLAS
    dgemv whose summation order and fused multiply-adds depend on the CPU."""
    return (_cells()[1] * _gram(state)).sum(axis=1)


def chsh_exact(state: StateVector | Sequence) -> ChshReport:
    """Exact quantum correlators and S value of a 16-dim state or an ensemble: each
    correlator is sum(a*b * P(a, b)) over the joint table of its Born-weighted G."""
    _, _, products, rows, _ = _cells()
    weighted = (products * _table(state)).tolist()
    correlators = {pair: math.fsum(weighted[rows[pair]]) for pair in SETTING_PAIRS}
    return ChshReport("exact", correlators, s_from_correlators(correlators))


def joint_distribution(state: StateVector | Sequence, i: int, j: int) -> list[JointOutcome]:
    """Full joint outcome table of a state or an ensemble for setting pair (i, j)."""
    outcomes, _, _, rows, _ = _cells()
    table = _table(state)
    cells = rows[check_setting(i), check_setting(j)]
    return [JointOutcome(*outcome, p) for outcome, p in zip(outcomes[cells], table[cells].tolist())]


def check_integer(value) -> int:
    """``operator.index(value)``, the rule of every count and seed, refusing a bool too."""
    if isinstance(value, bool):
        raise TypeError("'bool' object cannot be interpreted as an integer")
    return operator.index(value)


def sample_products(
    probabilities: np.ndarray,
    products: np.ndarray,
    shots: int,
    stream_key: tuple[int, ...],
) -> tuple[float, float]:
    """Mean and ddof=1 variance of `shots` outcome products drawn from one setting's table.

    The one gate of every sampled route: `shots` and each `stream_key` entry are read with
    ``check_integer``, `shots` must be 2..2**63 - 1, and the arrays 1-D of one length with
    finite products. One multinomial draw gives every cell's count, in table order, and the
    statistics follow from the counts, with no per-shot array; the key seeds one stream.
    """
    shots, stream_key = check_integer(shots), tuple(map(check_integer, stream_key))
    if shots < 2:
        raise ValueError("shots_per_setting must be at least 2 (sample variance)")
    if shots > 2 ** 63 - 1:  # outcome counts are int64
        raise ValueError(f"shots {shots} exceeds the bound of 2**63 - 1 per setting")
    probs = np.maximum(probabilities, 0.0)  # np.clip with no upper bound, in a third the time
    values = np.asarray(products, dtype=float)
    if probs.ndim != 1 or values.shape != probs.shape:  # zip would cut the longer one
        raise ValueError("probabilities and products must be 1-D of one length, "
                         f"got shapes {probs.shape} and {values.shape}")
    values = values.tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError("outcome products must be finite")
    total = probs.sum()
    if not 0.0 < total < math.inf:  # also refuses nan
        raise ValueError(f"outcome probabilities sum to {total}, not a positive finite number")
    counts = np.random.default_rng(stream_key).multinomial(shots, probs / total).tolist()
    # fsum: correctly rounded on any CPU or Python. n (x - m)^2 does not cancel as
    # n x^2 - N m^2 does; a product, not ** 2, which calls C pow
    mean = math.fsum([n * x for n, x in zip(counts, values)]) / shots
    squares = [n * ((x - mean) * (x - mean)) for n, x in zip(counts, values)]
    return mean, math.fsum(squares) / (shots - 1)


def sample_setting_products(
    state: StateVector | Sequence, i: int, j: int, shots: int, seed: int
) -> tuple[float, float]:
    """Mean and ddof=1 variance of the products a*b of `shots` joint outcomes of setting
    (i, j), drawn through the one gate, ``sample_products``, from ``joint_distribution``."""
    a_values, b_values, probabilities = np.array(joint_distribution(state, i, j)).T
    return sample_products(probabilities, a_values * b_values, shots, (seed, i, j))


def report_from_setting_products(
    setting_stats: dict[tuple[int, int], tuple[float, float]], shots: int
) -> ChshReport:
    """Assemble a sampled report from per-setting (mean, variance) pairs.

    The standard error combines per-setting sample variances in quadrature: SE = sqrt(sum_ij
    var_ij / shots); sigma_violation = (S - 2) / SE, or None when SE is 0 (one product each).
    """
    shots = check_integer(shots)  # a numpy integer becomes an int that JSON can serialize
    correlators = {pair: setting_stats[pair][0] for pair in SETTING_PAIRS}
    s_value = s_from_correlators(correlators)
    variances = functools.reduce(operator.add, (setting_stats[p][1] for p in SETTING_PAIRS))
    standard_error = math.sqrt(variances / shots)  # sum() compensates from Python 3.12 on
    sigma = (s_value - 2.0) / standard_error if standard_error > 0.0 else None
    return ChshReport(
        "sampled", correlators, s_value,
        shots_per_setting=shots, standard_error=standard_error, sigma_violation=sigma,
    )


def chsh_sampled(state: StateVector | Sequence, shots_per_setting: int, seed: int) -> ChshReport:
    """Monte Carlo CHSH run on a state or an ensemble, seeded and reproducible bit for bit;
    ``sample_products``, the one gate, checks shots and seed after a bad layout is refused."""
    _, _, products, rows, _ = _cells()
    table = _table(state)
    setting_stats = {(i, j): sample_products(table[rows[i, j]], products[rows[i, j]],
                                             shots_per_setting, (seed, i, j))
                     for i, j in SETTING_PAIRS}
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
