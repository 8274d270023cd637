"""Tests for the interpretation backends and the agreement report."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellwigner.chsh import SETTING_PAIRS, chsh_exact, chsh_sampled, joint_distribution
from bellwigner.interpretations import (
    ATOM_PARAMS,
    INSTRUMENT_PARAMS,
    MAX_DRAWS,
    FriendScale,
    GrwParams,
    GrwSimResult,
    agreement_report,
    grw_exact_probability,
    grw_linear_probability,
    grw_simulate,
    many_worlds_branches,
)
from bellwigner.states import (
    FULL_LAYOUT,
    StateVector,
    basis_labels,
    bell_wigner_state,
    correlate_friend,
    entangled_pair,
    plus_photon,
)

from oracle import ket
from test_chsh_properties import full_states

PAIR = ("photon", "friend")


def correlated_state(alpha, beta, mapping="aligned"):
    amps = np.zeros(4, dtype=complex)
    if mapping == "aligned":
        amps[0], amps[3] = alpha, beta
    else:
        amps[1], amps[2] = alpha, beta
    return StateVector(PAIR, amps)


def test_grw_linear_probability_atom():
    value = grw_linear_probability(ATOM_PARAMS)
    assert value == pytest.approx(1e-11, rel=1e-6)


def test_grw_linear_probability_clamps_for_instrument():
    params = GrwParams(1e25, 1e-9, 1e-16)
    assert grw_linear_probability(params) == 1.0


def test_grw_linear_probability_zero_duration():
    assert grw_linear_probability(GrwParams(100, 0.0, 1e-16)) == 0.0


def test_grw_exact_probability_matches_series_for_atom():
    linear = grw_linear_probability(ATOM_PARAMS)
    exact = grw_exact_probability(ATOM_PARAMS)
    assert exact == pytest.approx(linear, rel=1e-10)
    assert exact < linear


def test_grw_exact_probability_for_instantaneous_instrument():
    params = GrwParams(1e25, 1e-9, 1e-16)
    assert grw_exact_probability(params) == pytest.approx(1 - math.exp(-1), abs=1e-12)


def test_grw_exact_probability_zero_duration():
    assert grw_exact_probability(GrwParams(100, 0.0, 1e-16)) == 0.0


def test_linear_and_exact_agree_in_series_regime():
    # relative error measured against the linear value, for which the x/2
    # series bound holds; measured error is x/2 - x^2/6 + rounding, so the
    # strict bound needs x^2/6 to dominate the double-precision noise
    # (x >= 1e-6); below that a 4-eps rounding floor is allowed
    rounding_floor = 4 * np.finfo(float).eps
    checked = strict = 0
    for n in (1.0, 1e2, 1e6, 1e12):
        for duration in (1e-3, 1.0, 1e3):
            for rate in (1e-20, 1e-16, 1e-12):
                x = n * duration * rate
                if not 0 < x < 1e-3:
                    continue
                params = GrwParams(n, duration, rate)
                linear = grw_linear_probability(params)
                exact = grw_exact_probability(params)
                relative_error = abs(linear - exact) / linear
                assert relative_error < x / 2 + rounding_floor
                if x >= 1e-6:
                    assert relative_error < x / 2
                    strict += 1
                checked += 1
    assert checked > 10 and strict >= 2


def test_grw_params_validation():
    with pytest.raises(ValueError, match="n_particles"):
        GrwParams(0.5, 1.0, 1e-16)
    with pytest.raises(ValueError, match="duration_s"):
        GrwParams(100, -1.0, 1e-16)
    with pytest.raises(ValueError, match="finite"):
        GrwParams(math.inf, 1.0, 1e-16)


def test_grw_simulate_matches_poisson_probability():
    params = GrwParams(1e25, 1e-9, 1e-16)
    trials = 1_000_000
    result = grw_simulate(params, trials, seed=5)
    p = grw_exact_probability(params)
    margin = 3 * math.sqrt(p * (1 - p) / trials)
    assert abs(result.collapsed_fraction - p) <= margin
    assert result.mean_collapse_time_s is not None
    assert 0 < result.mean_collapse_time_s < params.duration_s


def test_grw_simulate_zero_duration():
    result = grw_simulate(GrwParams(1e25, 0.0, 1e-16), 1000, seed=1)
    assert result.collapsed_fraction == 0.0
    assert result.mean_collapse_time_s is None


def test_grw_simulate_is_deterministic():
    params = GrwParams(1e25, 1e-9, 1e-16)
    assert grw_simulate(params, 10_000, seed=9) == grw_simulate(params, 10_000, seed=9)


def test_grw_simulate_rejects_bad_inputs():
    with pytest.raises(ValueError, match="trials"):
        grw_simulate(ATOM_PARAMS, 0, seed=0)
    with pytest.raises(ValueError, match="underflow"):
        grw_simulate(GrwParams(1.0, 1.0, 1e-40), 10, seed=0)


def test_many_worlds_branches_of_correlated_state():
    branches = many_worlds_branches(correlate_friend(plus_photon()))
    assert [b.label for b in branches] == ["F_h", "F_v"]
    for branch, labels in zip(branches, (("h", "F_h"), ("v", "F_v"))):
        assert branch.weight == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(branch.state.amplitudes, ket(*labels), atol=1e-12)


def test_many_worlds_single_branch_for_product_state():
    branches = many_worlds_branches(StateVector(PAIR, ket("h", "F_h")))
    assert len(branches) == 1
    assert branches[0].weight == pytest.approx(1.0, abs=1e-12)
    assert branches[0].label == "F_h"


def test_many_worlds_recombination():
    rng = np.random.default_rng(41)
    for _ in range(100):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        z /= np.linalg.norm(z)
        state = correlated_state(z[0], z[1])
        branches = many_worlds_branches(state)
        recombined = sum(
            math.sqrt(b.weight) * b.state.amplitudes for b in branches
        )
        assert np.linalg.norm(recombined - state.amplitudes) <= 1e-12
        for b in branches:
            index = int(np.argmax(np.abs(b.state.amplitudes)))
            assert b.weight == pytest.approx(abs(state.amplitudes[index]) ** 2, abs=1e-12)


@pytest.mark.parametrize("state", [plus_photon(), entangled_pair()],
                         ids=["plus_photon", "entangled_pair"])
def test_many_worlds_branches_refuses_a_state_without_a_friend(state):
    with pytest.raises(ValueError, match="expected a state with a friend subsystem"):
        many_worlds_branches(state)


def test_many_worlds_branches_of_the_bell_wigner_state_are_the_macroscopic_ensemble():
    branches = many_worlds_branches(bell_wigner_state())
    assert [b.label for b in branches] == ["F_h·F_h", "F_h·F_v", "F_v·F_h", "F_v·F_v"]
    exact = agreement_report(FriendScale.macroscopic())
    sampled = agreement_report(FriendScale.macroscopic(), shots=1000, seed=11, sampled=True)
    for name in exact.backends:
        # repr round-trips every float, so equal reprs mean equal bits
        assert repr(exact.backends[name]) == repr(chsh_exact(branches)), name
        assert repr(sampled.backends[name]) == repr(chsh_sampled(branches, 1000, 11)), name


def test_many_worlds_drops_null_branch():
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0
    amps[3] = 1e-9  # weight 1e-18, below the numerical floor
    state = StateVector(PAIR, amps / np.linalg.norm(amps))
    assert [b.label for b in many_worlds_branches(state)] == ["F_h"]


def test_branch_ensembles_preserve_friend_distribution():
    # the Born-weighted branch ensemble reproduces the friend-basis
    # statistics of the input state: collapse never changes single-setting
    # statistics
    rng = np.random.default_rng(53)
    for _ in range(50):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        z /= np.linalg.norm(z)
        state = correlated_state(z[0], z[1])
        friend_probability = {
            "F_h": abs(state.amplitudes[0]) ** 2 + abs(state.amplitudes[2]) ** 2,
            "F_v": abs(state.amplitudes[1]) ** 2 + abs(state.amplitudes[3]) ** 2,
        }
        ensemble = many_worlds_branches(state)
        # the collapse backends realize the same ensemble: each branch is the
        # selection outcome whose probability equals the branch weight
        selection_weights = {b.label: b.weight for b in ensemble}
        assert sum(selection_weights.values()) == pytest.approx(1.0, abs=1e-12)
        for label in ("F_h", "F_v"):
            indices = (0, 2) if label == "F_h" else (1, 3)
            total = 0.0
            for branch in ensemble:
                weight_in = sum(abs(branch.state.amplitudes[k]) ** 2 for k in indices)
                total += branch.weight * weight_in
            assert total == pytest.approx(friend_probability[label], abs=1e-12)


def test_friend_scale_bucket_validation():
    with pytest.raises(ValueError, match="microscopic friend cannot have"):
        FriendScale("micro", INSTRUMENT_PARAMS)
    with pytest.raises(ValueError, match="macroscopic friend cannot have"):
        FriendScale("macro", ATOM_PARAMS)
    with pytest.raises(ValueError, match="kind"):
        FriendScale("mesoscopic", ATOM_PARAMS)


def macro_ensemble_oracle():
    """Born-weighted average of chsh_exact over the four collapsed branches."""
    state = bell_wigner_state()
    amps = state.amplitudes
    correlators = {pair: 0.0 for pair in SETTING_PAIRS}
    for index in np.nonzero(np.abs(amps) > 1e-15)[0]:
        weight = abs(amps[index]) ** 2
        ket = np.zeros(16, dtype=complex)
        ket[index] = 1.0
        branch_report = chsh_exact(StateVector(FULL_LAYOUT, ket))
        for pair in SETTING_PAIRS:
            correlators[pair] += weight * branch_report.correlators[pair]
    return correlators


def test_agreement_microscopic():
    report = agreement_report(FriendScale.microscopic())
    assert report.mode == "micro"
    assert set(report.backends) == {"pilot_wave", "grw", "many_worlds"}
    s_values = [r.s_value for r in report.backends.values()]
    assert max(s_values) - min(s_values) <= 1e-12
    unitary = chsh_exact(bell_wigner_state()).s_value
    for s in s_values:
        assert s == pytest.approx(unitary, abs=1e-12)
        assert s == pytest.approx(2 * math.sqrt(2), abs=1e-9)
    assert report.all_equal


def test_agreement_macroscopic():
    report = agreement_report(FriendScale.macroscopic())
    assert report.mode == "macro"
    oracle = macro_ensemble_oracle()
    s_values = [r.s_value for r in report.backends.values()]
    assert max(s_values) - min(s_values) <= 1e-12
    for backend_report in report.backends.values():
        for pair in SETTING_PAIRS:
            assert backend_report.correlators[pair] == pytest.approx(oracle[pair], abs=1e-12)
        assert backend_report.s_value == pytest.approx(math.sqrt(2) / 2, abs=1e-9)
        assert backend_report.s_value <= 2.0
    assert report.all_equal


def test_agreement_sampled_microscopic():
    report = agreement_report(FriendScale.microscopic(), shots=10_000, seed=2, sampled=True)
    reports = list(report.backends.values())
    for backend_report in reports:
        assert backend_report.mode == "sampled"
        assert backend_report.sigma_violation > 5
    # agreeing ensembles under shared streams give bit-identical samples
    assert reports[0] == reports[1] == reports[2]
    assert report.all_equal
    rerun = agreement_report(FriendScale.microscopic(), shots=10_000, seed=2, sampled=True)
    assert rerun == report


def test_agreement_document_shape():
    doc = agreement_report(FriendScale.macroscopic()).to_dict()
    assert list(doc) == ["mode", "backends", "all_equal"]
    assert list(doc["backends"]) == ["pilot_wave", "grw", "many_worlds"]
    assert doc["all_equal"] is True


# (scale, distinct backend decisions, branch builds): at the presets all three
# backends agree; a long micro run and a short macro run make GRW disagree with
# the other two. The friend-record branches are built at most once per process.
AGREEMENT_SCALES = {
    "micro": (FriendScale.microscopic(), 1, 0),
    "macro": (FriendScale.macroscopic(), 1, 1),
    "micro_long": (FriendScale("micro", GrwParams(1e6, 1e12)), 2, 1),
    "macro_short": (FriendScale("macro", GrwParams(1e25, 1e-12)), 2, 1),
}


def test_branch_document():
    branch = many_worlds_branches(correlate_friend(plus_photon()))[0]
    doc = branch.to_dict()
    assert doc["label"] == "F_h"
    assert doc["weight"] == pytest.approx(0.5)
    assert doc["state"]["layout"] == ["photon", "friend"]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(full_states())
def test_friend_branches_dephase_without_changing_friend_records(state):
    branches = many_worlds_branches(state)
    assert sum(b.weight for b in branches) == pytest.approx(1.0, abs=1e-12)
    recombined = sum(math.sqrt(b.weight) * b.state.amplitudes for b in branches)
    assert np.linalg.norm(recombined - state.amplitudes) <= 1e-12
    for branch in branches:
        for index in np.flatnonzero(branch.state.amplitudes):
            _, friend_a, _, friend_b = basis_labels(FULL_LAYOUT, index)
            assert branch.label == f"{friend_a}·{friend_b}"

    # setting (0, 0) reads both friends' records, which dephasing leaves alone
    own = [cell.joint_probability for cell in joint_distribution(state, 0, 0)]
    mixture = np.zeros(len(own))
    for branch in branches:
        table = joint_distribution(branch.state, 0, 0)
        mixture += branch.weight * np.array([cell.joint_probability for cell in table])
    assert np.allclose(mixture, own, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n, duration, rate, product", [
    # n * rate overflows: the simulated first-collapse times would all be 0
    (1e308, 1.0, 1e308, "n_particles * rate_per_particle"),
    # n * rate overflows and duration 0 would give inf * 0 = nan
    (1e308, 0.0, 1e308, "n_particles * rate_per_particle"),
    # n * duration overflows and rate 0 would give a linear estimate of nan
    (1e200, 1e200, 0.0, "n_particles * duration_s"),
])
def test_grw_params_reject_overflowing_products(n, duration, rate, product):
    with pytest.raises(ValueError, match=product.replace("*", r"\*")):
        GrwParams(n, duration, rate)


def test_grw_params_accept_finite_products_at_the_edge():
    # n * duration and n * rate are finite; the triple product overflows to inf
    params = GrwParams(1e154, 1e154, 1e-100)
    assert grw_linear_probability(params) == 1.0
    assert grw_exact_probability(params) == 1.0
    assert grw_simulate(params, 10, seed=0).collapsed_fraction == 1.0


def test_grw_simulate_caps_draws_per_call():
    with pytest.raises(ValueError, match=f"trials {MAX_DRAWS + 1} exceeds the cap of {MAX_DRAWS}"):
        grw_simulate(ATOM_PARAMS, MAX_DRAWS + 1, seed=0)


@st.composite
def grw_runs(draw):
    """(params, trials, seed), the collapse probability often at an edge of float range."""
    trials = draw(st.integers(1, 1 << 17))
    seed = draw(st.integers(0, 2 ** 64 - 1))
    n, rate = draw(st.floats(1.0, 1e25)), draw(st.floats(1e-20, 1e-12))
    # mean collapses per run, n * rate * duration: at 1e-308 the collapse
    # probability 1 - exp(-n * rate * duration) is subnormal, and at 40 it rounds to 1.0
    mean_collapses = draw(st.sampled_from((0.0, 1e-308, 1e-3, 40.0, 1e12)) | st.floats(0.3, 2.0))
    return GrwParams(n, mean_collapses / (n * rate), rate), trials, seed


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(run=grw_runs())
@example(run=(ATOM_PARAMS, 65537, 7))
# 1 - exp(-rate * duration) subnormal, then rounding to 1.0, at a total rate of 1e9 /s
@example(run=(GrwParams(1e25, 1e-317, 1e-16), 65537, 7))
@example(run=(GrwParams(1e25, 40e-9, 1e-16), 65537, 7))
def test_grw_simulate_reports_a_count_and_a_mean_within_the_duration(run):
    params, trials, seed = run
    result = grw_simulate(params, trials, seed)
    assert repr(grw_simulate(params, trials, seed)) == repr(result)
    # the fraction is count / trials for an integer count
    count = round(result.collapsed_fraction * trials)
    assert 0 <= count <= trials and count / trials == result.collapsed_fraction
    if count == 0:
        assert result.mean_collapse_time_s is None
    else:
        assert 0.0 < result.mean_collapse_time_s <= params.duration_s


class ZeroDraws:
    """A generator stub: every trial collapses and every uniform is 0."""

    def binomial(self, n, p):
        return n

    def random(self, size):
        return np.zeros(size)


def test_grw_simulate_clamps_a_zero_draw_at_p_one_to_the_duration(monkeypatch):
    # u == 0 gives -log1p(-1 * p) = inf when p rounds to 1.0; the time is the duration
    params = GrwParams(1e25, 1.0, 1e-16)
    assert grw_exact_probability(params) == 1.0
    monkeypatch.setattr(np.random, "default_rng", lambda seed: ZeroDraws())
    assert repr(grw_simulate(params, 4, seed=0)) == repr(GrwSimResult(1.0, 1.0))


def test_grw_simulate_reads_its_trial_count_as_an_integer():
    params = GrwParams(1e25, 1e-9, 1e-16)
    result = grw_simulate(params, np.int64(1000), 3)
    assert repr(result) == repr(grw_simulate(params, 1000, 3))
    assert type(result.collapsed_fraction) is float
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        grw_simulate(params, 1000.0, 3)


def test_grw_simulate_reads_its_seed_as_an_integer():
    params = GrwParams(1e25, 1e-9, 1e-16)
    for seed, numpy_seed in ((7, np.int64(7)), (2 ** 64 - 1, np.uint64(2 ** 64 - 1))):
        result = grw_simulate(params, 1000, seed)
        assert repr(grw_simulate(params, 1000, numpy_seed)) == repr(result)
    # None would draw from the operating system's entropy: no longer reproducible
    for bad in (None, 1.5):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            grw_simulate(params, 1000, bad)


def grw_peak_bytes(params, trials):
    """The result of one grw_simulate call and the peak of what it allocated."""
    grw_simulate(params, 10, seed=2)  # what numpy imports lazily is loaded first
    tracemalloc.start()
    try:
        result = grw_simulate(params, trials, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_grw_simulate_memory_is_the_times_plus_one_block():
    # every trial collapses; numpy reports its buffers to tracemalloc. Beyond
    # the 8 B per collapsed trial of the times, a few small objects remain.
    result, peak = grw_peak_bytes(GrwParams(1e25, 1e-6, 1e-16), 10 ** 6)
    assert result.collapsed_fraction == 1.0
    assert peak <= 8 * 10 ** 6 + 64 * 2 ** 10


def test_grw_simulate_memory_at_the_atom_preset_meets_the_same_bound():
    # no trial collapses, so no time is drawn or stored
    result, peak = grw_peak_bytes(ATOM_PARAMS, 10 ** 6)
    assert result.collapsed_fraction == 0.0
    assert peak <= 64 * 2 ** 10
