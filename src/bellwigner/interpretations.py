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

What the verdict does is the same for all three: one map dephases the state
in the friends' record basis. This module only chooses each backend's
ensemble (the branches, or the untouched state); the CHSH engine averages
its statistics over the branches. A single collapse run instead draws one
correlated term by a seeded Born selection.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import chsh as chsh_engine
from .chsh import ChshReport
from .states import FRIEND_LABELS, StateVector, basis_labels, bell_wigner_state

MICROSCOPIC = "microscopic"
MACROSCOPIC = "macroscopic"
BACKENDS = ("pilot_wave", "grw", "many_worlds")

MICRO_MAX_PARTICLES = 1e6
MACRO_MIN_PARTICLES = 1e20
MIN_TOTAL_RATE = 1e-30
SUPPORT_LEAKAGE_TOL = 1e-9
BRANCH_WEIGHT_FLOOR = 1e-15
AGREEMENT_TOL = 1e-12


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


# Worked parameter sets: an atom of ~100 particles observed for 1e3 s, and an
# instrument of ~1e25 particles resolved on nanosecond scale.
ATOM_PARAMS = GrwParams(n_particles=1e2, duration_s=1e3)
INSTRUMENT_PARAMS = GrwParams(n_particles=1e25, duration_s=1e3)


def grw_linear_probability(params: GrwParams) -> float:
    """First-order localization probability n*T*rate, clamped to 1."""
    return min(1.0, params.n_particles * params.duration_s * params.rate_per_particle)


def grw_exact_probability(params: GrwParams) -> float:
    """Poisson refinement 1 - exp(-n*rate*T) of the linear estimate."""
    return -math.expm1(-params.total_rate * params.duration_s)


@dataclass(frozen=True)
class GrwSimResult:
    collapsed_fraction: float
    mean_collapse_time_s: float | None

    def to_dict(self) -> dict:
        return {
            "collapsed_fraction": self.collapsed_fraction,
            "mean_collapse_time_s": self.mean_collapse_time_s,
        }


# Most trials per grw_simulate call; at 10^7 its collapse times reserve 80 MB (76 MiB).
MAX_DRAWS = 10 ** 7
# Trials per pass of grw_simulate: 2^15 float64 draws (256 KiB) stay in cache
# while they are transformed and filtered.
_GRW_BLOCK = 1 << 15


def grw_simulate(params: GrwParams, trials: int, seed: int) -> GrwSimResult:
    """Monte Carlo first-collapse times from a Poisson process at rate n*rate.

    Trial ``i`` consumes the i-th variate of the seeded stream, so block
    generation (e.g. with PCG64.advance) reproduces the serial run exactly.
    At most ``MAX_DRAWS`` trials are drawn in one call. Only one block of
    ``_GRW_BLOCK`` draws and 8 B per collapsed trial are written to memory.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if trials > MAX_DRAWS:
        raise ValueError(f"trials {trials} exceeds the cap of {MAX_DRAWS} draws per call")
    rate = params.total_rate
    if rate < MIN_TOTAL_RATE:
        raise ValueError(f"total rate {rate!r} /s is below {MIN_TOTAL_RATE} (underflow risk)")
    rng = np.random.default_rng(seed)
    block = np.empty(min(trials, _GRW_BLOCK))
    times = np.empty(trials)
    count = 0
    for start in range(0, trials, _GRW_BLOCK):
        t = block[:trials - start]
        rng.random(out=t)
        # t = -log1p(-u) / rate; dividing by -rate rounds exactly as negating
        np.log1p(np.negative(t, out=t), out=t)
        np.divide(t, -rate, out=t)
        # A continuous first-collapse time is strictly positive; the measure-zero
        # draw u == 0 maps to t == 0 and is excluded so duration 0 never collapses.
        collapsed = (t > 0.0) & (t <= params.duration_s)
        kept = int(np.count_nonzero(collapsed))
        np.compress(collapsed, t, out=times[count:count + kept])
        count += kept
    # the collapsed times in trial order, so the pairwise sum matches one pass
    mean_time = float(times[:count].mean()) if count else None
    return GrwSimResult(count / trials, mean_time)


@dataclass(frozen=True)
class Branch:
    """One normalized component of a superposition with its Born weight."""

    weight: float
    state: StateVector
    label: str

    def to_dict(self) -> dict:
        return {"label": self.label, "weight": self.weight, "state": self.state.to_dict()}


def _require_pair_state(state: StateVector) -> StateVector:
    if state.dim != 4 or not (
        state.subsystems[0].startswith("photon") and state.subsystems[1].startswith("friend")
    ):
        raise ValueError("expected a 4-dim (photon, friend) state")
    return state


def _born_select_term(state: StateVector, seed: int) -> Branch:
    """Pick one correlated term with its Born weight; keep the term's phase.

    Accepts either correlation convention: support on {|h,F_h>, |v,F_v>} or
    on {|h,F_v>, |v,F_h>}, with at most 1e-9 of norm leaking outside the
    chosen pair.
    """
    amps = state.amplitudes
    # on the photon x friend grid the aligned pair is the diagonal and the
    # anti-aligned pair its complement
    for correlated in (np.eye(2, dtype=bool), ~np.eye(2, dtype=bool)):
        if np.linalg.norm(amps.reshape(2, 2)[~correlated]) <= SUPPORT_LEAKAGE_TOL:
            break
    else:
        raise ValueError("state has non-negligible support outside a correlated ket pair")
    pair = np.flatnonzero(correlated)
    # scalar abs: numpy's vectorized abs can round the last bit differently
    weights = np.array([abs(amps[k]) ** 2 for k in pair])
    weights /= weights.sum()
    pick = 0 if np.random.default_rng(seed).random() < weights[0] else 1
    index = pair[pick]
    branch_amps = np.zeros(4, dtype=complex)
    branch_amps[index] = amps[index] / abs(amps[index])
    label = "·".join(basis_labels(state.subsystems, index))
    return Branch(weights[pick], StateVector(state.subsystems, branch_amps), label)


def grw_collapse_state(state: StateVector, seed: int) -> Branch:
    """Spontaneous localization of a correlated photon-friend state.

    One correlated term survives, selected with its Born weight by the
    seeded generator; the returned branch is normalized and records the
    selection weight.
    """
    return _born_select_term(_require_pair_state(state), seed)


def _friend_branches(state: StateVector) -> list[Branch]:
    """Dephase a state in its friends' record basis: one branch per record.

    Records run over every friend subsystem in ``itertools.product`` order,
    and a branch is labeled by its friends' labels joined with "·". Cross
    terms between different friend records vanish in the resulting
    ensemble. Branches of weight at most 1e-15 are dropped.
    """
    friends = [k for k, name in enumerate(state.subsystems) if name.startswith("friend")]
    # the big-endian layout of ``states`` makes axis k of the reshaped vector
    # subsystem k, so fixing every friend axis selects one record's block
    amps = state.amplitudes.reshape((2,) * len(state.subsystems))
    axes = [(0, 1) if k in friends else (slice(None),) for k in range(amps.ndim)]
    branches = []
    for where in itertools.product(*axes):
        component = np.zeros(amps.shape, dtype=complex)
        component[where] = amps[where]
        weight = float(np.vdot(component, component).real)
        if weight <= BRANCH_WEIGHT_FLOOR:
            continue
        branch = StateVector(state.subsystems, component.reshape(-1) / math.sqrt(weight))
        label = "·".join(FRIEND_LABELS[where[k]] for k in friends)
        branches.append(Branch(weight, branch, label))
    return branches


def many_worlds_branches(state: StateVector) -> list[Branch]:
    """Decompose a (photon, friend) state into friend-outcome branches.

    Both branches are kept whenever their weight exceeds the 1e-15 numerical
    floor; sqrt-weight recombination of the returned branches reproduces the
    input. Branch states keep their phases.
    """
    return _friend_branches(_require_pair_state(state))


@dataclass(frozen=True)
class FriendScale:
    """Whether the friend is an atom-scale or instrument-scale system."""

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
    def microscopic(cls, grw: GrwParams = ATOM_PARAMS) -> "FriendScale":
        return cls(MICROSCOPIC, grw)

    @classmethod
    def macroscopic(cls, grw: GrwParams = INSTRUMENT_PARAMS) -> "FriendScale":
        return cls(MACROSCOPIC, grw)


@dataclass(frozen=True)
class PilotWaveOutcome:
    """Either the untouched state (kept) or one effective branch (collapsed)."""

    kept: StateVector | None = None
    collapsed: Branch | None = None

    def __post_init__(self):
        if (self.kept is None) == (self.collapsed is None):
            raise ValueError("exactly one of kept/collapsed must be set")


def pilot_wave_effective_state(
    state: StateVector, scale: FriendScale, seed: int
) -> PilotWaveOutcome:
    """Pilot-wave verdict on a correlated photon-friend state.

    An atom's support regions can keep overlapping in configuration space,
    so the full state is returned untouched. An instrument's configuration
    concentrates in one region; the result is one Born-weighted branch,
    statistically identical to spontaneous-localization collapse.
    """
    _require_pair_state(state)
    if scale.kind == MICROSCOPIC:
        return PilotWaveOutcome(kept=state)
    return PilotWaveOutcome(collapsed=_born_select_term(state, seed))


def _friends_macroscopic(scale: FriendScale) -> bool:
    """Pilot wave and many worlds: dephase iff the friends are macroscopic."""
    return scale.kind == MACROSCOPIC


def _collapse_likely(scale: FriendScale) -> bool:
    """Spontaneous localization: collapse iff it is likely within the run."""
    return grw_exact_probability(scale.grw) >= 0.5


def _ensemble(dephases, state: StateVector, scale: FriendScale) -> list[Branch]:
    """The friend-record branches if the rule ``dephases(scale)`` holds, else the state."""
    if dephases(scale):
        return _friend_branches(state)
    return [Branch(1.0, state, "unitary")]


_ENSEMBLE_BUILDERS = {
    "pilot_wave": functools.partial(_ensemble, _friends_macroscopic),
    "grw": functools.partial(_ensemble, _collapse_likely),
    "many_worlds": functools.partial(_ensemble, _friends_macroscopic),
}


@dataclass(frozen=True)
class AgreementReport:
    """CHSH predictions of the three backends side by side."""

    mode: str
    backends: dict[str, ChshReport]
    all_equal: bool

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "backends": {name: report.to_dict() for name, report in self.backends.items()},
            "all_equal": self.all_equal,
        }


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
    each backend's ensemble (shared per-setting streams, so agreeing
    ensembles yield bit-identical samples).
    """
    state = bell_wigner_state()
    mode = "micro" if scale.kind == MICROSCOPIC else "macro"
    reports: dict[str, ChshReport] = {}
    for name in BACKENDS:
        ensemble = _ENSEMBLE_BUILDERS[name](state, scale)
        if sampled:
            reports[name] = chsh_engine.chsh_sampled(ensemble, shots, seed)
        else:
            reports[name] = chsh_engine.chsh_exact(ensemble)
    s_values = [report.s_value for report in reports.values()]
    all_equal = max(s_values) - min(s_values) <= AGREEMENT_TOL
    return AgreementReport(mode, reports, all_equal)
