"""Interpretation backends: spontaneous localization, pilot wave, many worlds.

All three treat a photon-scale friend as fully quantum (the correlated state
is kept intact) and a macroscopic instrument-scale friend as effectively
classical (one correlated term survives). Each backend has its own rule for
when that verdict applies:

* spontaneous localization: a Poisson collapse process at total rate
  n_particles * rate_per_particle makes localization likely within the
  measurement duration;
* pilot wave: the particle configuration of a macroscopic instrument
  concentrates in one support region, so the other term is dynamically
  irrelevant (effective, not fundamental, collapse);
* many worlds: splitting is tied to macroscopic systems; every branch is
  kept, each world governed by one term.

What the verdict does is the same for all three: one map,
``many_worlds_branches``, dephases the state in the friends' record basis; it
takes any state with a friend subsystem. This module only chooses each
backend's ensemble (the branches, or the untouched state); the CHSH engine
averages its statistics over the branches.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import chsh as chsh_engine
from .chsh import ChshReport, check_integer
from .linalg import DEFAULT_TOL
from .states import FRIEND_LABELS, StateVector, bell_wigner_state

MICROSCOPIC = "micro"
MACROSCOPIC = "macro"

MICRO_MAX_PARTICLES = 1e6
MACRO_MIN_PARTICLES = 1e20
MIN_TOTAL_RATE = 1e-30
BRANCH_WEIGHT_FLOOR = 1e-15


@dataclass(frozen=True)
class GrwParams:
    """Spontaneous-localization parameters: particle count, duration, rate.

    The default per-particle rate is the conventional 1e-16 per second.
    """

    n_particles: float
    duration_s: float
    rate_per_particle: float = 1e-16

    def __post_init__(self):
        for name in ("n_particles", "duration_s", "rate_per_particle"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
            if value == 0.0:  # -0.0 passes the check; keep it out of the probabilities
                object.__setattr__(self, name, 0.0)
        if self.n_particles < 1.0:
            raise ValueError("n_particles must be at least 1")
        # the probabilities multiply these products; an overflow to inf would
        # turn into nan (inf * 0) or a collapse time of 0
        for left, right in (("n_particles", "rate_per_particle"), ("n_particles", "duration_s")):
            x, y = getattr(self, left), getattr(self, right)
            if not math.isfinite(x * y):
                raise ValueError(f"{left} * {right} overflows: {x!r} * {y!r}")

    @property
    def total_rate(self) -> float:
        return self.n_particles * self.rate_per_particle


# Worked parameter sets, the presets of the two friend scales: an atom of ~100
# particles and an instrument of ~1e25 particles, each observed for 1e3 s.
ATOM_PARAMS = GrwParams(n_particles=1e2, duration_s=1e3)
INSTRUMENT_PARAMS = GrwParams(n_particles=1e25, duration_s=1e3)


def grw_linear_probability(params: GrwParams) -> float:
    """First-order localization probability n*T*rate, clamped to 1."""
    return min(1.0, params.n_particles * params.duration_s * params.rate_per_particle)


def grw_exact_probability(params: GrwParams) -> float:
    """Poisson refinement 1 - exp(-n*rate*T) of the linear estimate."""
    return -math.expm1(-params.total_rate * params.duration_s)


class GrwSimResult(NamedTuple):
    """A collapse simulation's collapsed fraction and mean collapse time (None: no collapse)."""

    collapsed_fraction: float
    mean_collapse_time_s: float | None

    def to_dict(self) -> dict:
        return self._asdict()


# Most trials per grw_simulate call; the collapse times take 8 B per collapsed
# trial, so at 10^7 trials they reserve at most 80 MB (76 MiB).
MAX_DRAWS = 10 ** 7


def grw_simulate(params: GrwParams, trials: int, seed: int) -> GrwSimResult:
    """Monte Carlo first-collapse times from a Poisson process at rate n*rate.

    A trial collapses if its first collapse falls within the duration T, with
    probability p = 1 - exp(-n*rate*T), so the collapsed count is one draw of
    Binomial(trials, p) from the seeded stream. Given the count, the collapse
    times are i.i.d. exponentials truncated at T, drawn by inversion: for
    uniforms u in [0, 1), t = -log1p(-(1 - u) * p) / (n*rate), clamped at T.
    Only collapsed trials cost a draw; memory is their times, 8 B each.
    """
    trials, seed = check_integer(trials), check_integer(seed)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if trials > MAX_DRAWS:
        raise ValueError(f"trials {trials} exceeds the cap of {MAX_DRAWS} draws per call")
    rate = params.total_rate
    if rate < MIN_TOTAL_RATE:
        raise ValueError(f"total rate {rate!r} /s is below {MIN_TOTAL_RATE} (underflow risk)")
    p = grw_exact_probability(params)
    rng = np.random.default_rng(seed)
    count = int(rng.binomial(trials, p))
    if not count:
        return GrwSimResult(0.0, None)
    t = rng.random(count)
    # v = 1 - u lies in (0, 1], so t > 0; at u == 0 and p rounded to 1.0,
    # log1p(-1) is -inf and the clamp makes t = T
    np.subtract(1.0, t, out=t)
    np.multiply(t, -p, out=t)
    with np.errstate(divide="ignore"):
        np.log1p(t, out=t)
    np.divide(t, -rate, out=t)
    np.minimum(t, params.duration_s, out=t)
    return GrwSimResult(count / trials, float(t.mean()))


@dataclass(frozen=True)
class Branch:
    """A normalized branch and its Born weight; not a tuple, which ``chsh`` reads as an ensemble."""

    weight: float
    state: StateVector
    label: str

    def to_dict(self) -> dict:
        return {"label": self.label, "weight": self.weight, "state": self.state.to_dict()}


def many_worlds_branches(state: StateVector) -> list[Branch]:
    """Dephase a state in its friends' record basis: one branch per record.

    Takes any state with at least one friend subsystem, such as a (photon,
    friend) pair or the 16-dim Bell-Wigner state, and refuses one with none.
    Records run over every friend subsystem in ``itertools.product`` order,
    and a branch is labeled by its friends' labels joined with "·". Cross
    terms between different friend records vanish in the resulting
    ensemble. Branches of weight at most 1e-15 are dropped; sqrt-weight
    recombination of the returned branches reproduces the input, and branch
    states keep their phases.
    """
    friends = [k for k, name in enumerate(state.subsystems) if name.startswith("friend")]
    if not friends:
        raise ValueError(f"expected a state with a friend subsystem, got {state.subsystems}")
    # the big-endian layout of ``states`` makes axis k of the reshaped vector
    # subsystem k, so fixing every friend axis selects one record's block
    amps = state.amplitudes.reshape((2,) * len(state.subsystems))
    # the same amplitudes as (re, im) pairs on one more axis, for the weights
    parts = amps[..., None].view(float)
    axes = [(0, 1) if k in friends else (slice(None),) for k in range(amps.ndim)]
    branches = []
    for where in itertools.product(*axes):
        # squares and a sum over the record's block: a BLAS vdot's order depends on the CPU
        weight = float((parts[where] ** 2).sum())
        if weight <= BRANCH_WEIGHT_FLOOR:
            continue
        component = np.zeros(amps.shape, dtype=complex)
        component[where] = amps[where]
        branch = StateVector(state.subsystems, component.reshape(-1) / math.sqrt(weight))
        label = "·".join(FRIEND_LABELS[where[k]] for k in friends)
        branches.append(Branch(weight, branch, label))
    return branches


@functools.cache
def _bell_wigner_branches() -> tuple[Branch, ...]:
    """The friend-record branches of ``bell_wigner_state()``, built once per process."""
    return tuple(many_worlds_branches(bell_wigner_state()))


@dataclass(frozen=True)
class FriendScale:
    """Whether the friend is an atom-scale (MICROSCOPIC, "micro") or an
    instrument-scale (MACROSCOPIC, "macro") system, with its GRW parameters."""

    kind: str
    grw: GrwParams

    def __post_init__(self):
        if self.kind not in (MICROSCOPIC, MACROSCOPIC):
            raise ValueError(f"unknown scale kind {self.kind!r}")
        if self.kind == MICROSCOPIC and self.grw.n_particles > MICRO_MAX_PARTICLES:
            raise ValueError(
                f"microscopic friend cannot have {self.grw.n_particles!r} particles"
                f" (> {MICRO_MAX_PARTICLES})"
            )
        if self.kind == MACROSCOPIC and self.grw.n_particles < MACRO_MIN_PARTICLES:
            raise ValueError(
                f"macroscopic friend cannot have {self.grw.n_particles!r} particles"
                f" (< {MACRO_MIN_PARTICLES})"
            )

    @classmethod
    def microscopic(cls) -> "FriendScale":
        return cls(MICROSCOPIC, ATOM_PARAMS)

    @classmethod
    def macroscopic(cls) -> "FriendScale":
        return cls(MACROSCOPIC, INSTRUMENT_PARAMS)


def _friends_macroscopic(scale: FriendScale) -> bool:
    """Pilot wave and many worlds: dephase iff the friends are macroscopic."""
    return scale.kind == MACROSCOPIC


def _collapse_likely(scale: FriendScale) -> bool:
    """Spontaneous localization: collapse iff it is likely within the run."""
    return grw_exact_probability(scale.grw) >= 0.5


# Each backend's dephasing rule; bench/spans.py wraps these entries as the
# interpretations.ensemble layer and tests/test_bench_sites.py looks them up.
_ENSEMBLE_BUILDERS = {
    "pilot_wave": _friends_macroscopic,
    "grw": _collapse_likely,
    "many_worlds": _friends_macroscopic,
}


class AgreementReport(NamedTuple):
    """CHSH predictions of the three backends side by side; its document holds theirs by name."""

    mode: str
    backends: dict[str, ChshReport]
    all_equal: bool

    def to_dict(self) -> dict:
        backends = {name: report.to_dict() for name, report in self.backends.items()}
        return {**self._asdict(), "backends": backends}  # the key keeps its place


def agreement_report(
    scale: FriendScale,
    shots: int = 10_000,
    seed: int = 0,
    sampled: bool = False,
) -> AgreementReport:
    """Run the four-photon CHSH experiment under each backend and compare.

    With microscopic friends every backend keeps the state intact and
    reports the unitary prediction S = 2*sqrt(2). With macroscopic friends
    each backend dephases the friends before the coherence measurements and
    S drops to sqrt(2)/2, below the classical bound. Reports are exact by
    default; ``sampled=True`` swaps in seeded Monte Carlo reports drawn from
    each backend's ensemble on shared per-setting streams.

    Backends differ only in whether their rule dephases the friends at
    ``scale``. The engine runs once per decision, on the friend-record
    branches if the rule holds and on the bare state otherwise, both built
    once per process and cached; backends with the same decision share one
    report, the one each would have computed on its own.
    """
    state = bell_wigner_state()
    reports: dict[str, ChshReport] = {}
    computed: dict[bool, ChshReport] = {}
    for name, dephases in _ENSEMBLE_BUILDERS.items():
        decision = dephases(scale)
        if decision not in computed:
            ensemble = _bell_wigner_branches() if decision else state
            computed[decision] = (chsh_engine.chsh_sampled(ensemble, shots, seed) if sampled
                                  else chsh_engine.chsh_exact(ensemble))
        reports[name] = computed[decision]
    s_values = [report.s_value for report in reports.values()]
    all_equal = max(s_values) - min(s_values) <= DEFAULT_TOL
    return AgreementReport(scale.kind, reports, all_equal)
