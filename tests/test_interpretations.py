"""Tests for the interpretation backends and the agreement report."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bellwigner.chsh import SETTING_PAIRS, chsh_exact, joint_distribution
from bellwigner.interpretations import (
    _ENSEMBLE_BUILDERS,
    _GRW_BLOCK,
    ATOM_PARAMS,
    INSTRUMENT_PARAMS,
    MAX_DRAWS,
    FriendScale,
    GrwParams,
    GrwSimResult,
    _friend_branches,
    agreement_report,
    grw_collapse_state,
    grw_exact_probability,
    grw_linear_probability,
    grw_simulate,
    many_worlds_branches,
    pilot_wave_effective_state,
)
from bellwigner.states import (
    FULL_LAYOUT,
    StateVector,
    basis_labels,
    basis_state,
    bell_wigner_state,
    correlate_friend,
    plus_photon,
)

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


def test_grw_simulate_block_generation_matches_serial():
    # trial i consumes the i-th variate, so advancing the bit generator
    # reproduces any block of the serial stream (the parallel contract)
    serial = np.random.default_rng(13).random(1000)
    bg = np.random.PCG64(13)
    bg.advance(600)
    block = np.random.Generator(bg).random(400)
    assert np.array_equal(serial[600:], block)


def test_grw_simulate_rejects_bad_inputs():
    with pytest.raises(ValueError, match="trials"):
        grw_simulate(ATOM_PARAMS, 0, seed=0)
    with pytest.raises(ValueError, match="underflow"):
        grw_simulate(GrwParams(1.0, 1.0, 1e-40), 10, seed=0)


def test_grw_collapse_born_statistics():
    state = correlate_friend(plus_photon(), "aligned")
    counts = {"h·F_h": 0, "v·F_v": 0}
    n_seeds = 10_000
    for seed in range(n_seeds):
        branch = grw_collapse_state(state, seed)
        assert branch.weight == pytest.approx(0.5, abs=1e-12)
        counts[branch.label] += 1
    sigma = math.sqrt(n_seeds * 0.5 * 0.5)
    assert abs(counts["h·F_h"] - n_seeds / 2) <= 3 * sigma


def test_grw_collapse_biased_weights():
    state = correlated_state(math.sqrt(0.9), math.sqrt(0.1))
    n_seeds = 10_000
    hits = sum(grw_collapse_state(state, seed).label == "h·F_h" for seed in range(n_seeds))
    sigma = math.sqrt(n_seeds * 0.9 * 0.1)
    assert abs(hits - 0.9 * n_seeds) <= 3 * sigma


def test_grw_collapse_already_collapsed():
    ket = basis_state(PAIR, ("h", "F_h"))
    branch = grw_collapse_state(ket, seed=0)
    assert branch.weight == 1.0
    assert branch.label == "h·F_h"
    assert np.array_equal(branch.state.amplitudes, ket.amplitudes)


def test_grw_collapse_accepts_anti_aligned_support():
    state = correlate_friend(plus_photon(), "anti_aligned")
    branch = grw_collapse_state(state, seed=4)
    assert branch.label in ("h·F_v", "v·F_h")


def test_grw_collapse_rejects_leaky_support():
    amps = np.array([0.7, 0.1, 0.0, 0.0], dtype=complex)
    state = StateVector(PAIR, amps / np.linalg.norm(amps))
    with pytest.raises(ValueError, match="support"):
        grw_collapse_state(state, seed=0)


def test_many_worlds_branches_of_correlated_state():
    branches = many_worlds_branches(correlate_friend(plus_photon(), "aligned"))
    assert [b.label for b in branches] == ["F_h", "F_v"]
    for branch, ket in zip(branches, (("h", "F_h"), ("v", "F_v"))):
        assert branch.weight == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(branch.state.amplitudes,
                           basis_state(PAIR, ket).amplitudes, atol=1e-12)


def test_many_worlds_single_branch_for_product_state():
    branches = many_worlds_branches(basis_state(PAIR, ("h", "F_h")))
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


def test_pilot_wave_keeps_microscopic_state():
    state = correlate_friend(plus_photon(), "aligned")
    outcome = pilot_wave_effective_state(state, FriendScale.microscopic(), seed=0)
    assert outcome.collapsed is None
    assert outcome.kept is state  # untouched, bitwise identical


def test_pilot_wave_collapses_macroscopic_state():
    state = correlate_friend(plus_photon(), "aligned")
    n_seeds = 10_000
    hits = 0
    for seed in range(n_seeds):
        outcome = pilot_wave_effective_state(state, FriendScale.macroscopic(), seed)
        assert outcome.kept is None
        hits += outcome.collapsed.label == "h·F_h"
    sigma = math.sqrt(n_seeds * 0.25)
    assert abs(hits - n_seeds / 2) <= 3 * sigma


def test_pilot_wave_matches_grw_selection_per_seed():
    state = correlated_state(math.sqrt(0.7), math.sqrt(0.3))
    for seed in range(50):
        pw = pilot_wave_effective_state(state, FriendScale.macroscopic(), seed)
        assert pw.collapsed == grw_collapse_state(state, seed)


def test_pilot_wave_on_collapsed_input():
    ket = basis_state(PAIR, ("h", "F_h"))
    outcome = pilot_wave_effective_state(ket, FriendScale.macroscopic(), seed=3)
    assert outcome.collapsed.weight == 1.0


def test_friend_scale_bucket_validation():
    with pytest.raises(ValueError, match="microscopic"):
        FriendScale("microscopic", INSTRUMENT_PARAMS)
    with pytest.raises(ValueError, match="macroscopic"):
        FriendScale("macroscopic", ATOM_PARAMS)
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


def test_branch_document():
    branch = many_worlds_branches(correlate_friend(plus_photon(), "aligned"))[0]
    doc = branch.to_dict()
    assert doc["label"] == "F_h"
    assert doc["weight"] == pytest.approx(0.5)
    assert doc["state"]["layout"] == ["photon", "friend"]


unit_floats = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)


@st.composite
def full_states(draw):
    parts = np.array(draw(st.lists(unit_floats, min_size=32, max_size=32)))
    amps = parts[:16] + 1j * parts[16:]
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    return StateVector(FULL_LAYOUT, amps / norm)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(full_states())
def test_friend_branches_dephase_without_changing_friend_records(state):
    branches = _friend_branches(state)
    assert sum(b.weight for b in branches) == pytest.approx(1.0, abs=1e-12)
    recombined = sum(math.sqrt(b.weight) * b.state.amplitudes for b in branches)
    assert np.linalg.norm(recombined - state.amplitudes) <= 1e-12
    for branch in branches:
        for index in np.flatnonzero(branch.state.amplitudes):
            _, friend_a, _, friend_b = basis_labels(FULL_LAYOUT, index)
            assert branch.label == f"{friend_a}·{friend_b}"

    # setting (0, 0) reads both friends' records, which dephasing leaves alone
    own = [cell.joint_probability for cell in joint_distribution(state, 0, 0)]
    for name, build in _ENSEMBLE_BUILDERS.items():
        mixture = np.zeros(len(own))
        for branch in build(state, FriendScale.macroscopic()):
            table = joint_distribution(branch.state, 0, 0)
            mixture += branch.weight * np.array([cell.joint_probability for cell in table])
        assert np.allclose(mixture, own, rtol=0.0, atol=1e-12), name


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


def one_shot_grw(params, trials, seed):
    """Reference: grw_simulate's formula over all trials in one pass."""
    times = -np.log1p(-np.random.default_rng(seed).random(trials)) / params.total_rate
    collapsed = (times > 0.0) & (times <= params.duration_s)
    count = int(np.count_nonzero(collapsed))
    mean_time = float(times[collapsed].mean()) if count else None
    return GrwSimResult(count / trials, mean_time)


BLOCK_EDGES = (1, _GRW_BLOCK - 1, _GRW_BLOCK, _GRW_BLOCK + 1, 2 * _GRW_BLOCK + 1)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    trials=st.sampled_from(BLOCK_EDGES) | st.integers(1, 4 * _GRW_BLOCK),
    # total rate 1e9 /s: the mean first-collapse time is 1 ns
    duration=st.sampled_from((0.0, 1e-12, 1e3)) | st.floats(0.3e-9, 2e-9),
    seed=st.integers(0, 2 ** 64 - 1),
)
def test_grw_simulate_in_blocks_matches_one_pass_bit_for_bit(trials, duration, seed):
    params = GrwParams(1e25, duration, 1e-16)
    expected = one_shot_grw(params, trials, seed)
    assert repr(grw_simulate(params, trials, seed)) == repr(expected)


def test_grw_simulate_memory_is_the_times_plus_one_block():
    # every trial collapses, so every time is kept; numpy reports its
    # buffers to tracemalloc
    params, trials = GrwParams(1e25, 1e-6, 1e-16), 10 ** 6
    grw_simulate(params, 10, seed=2)  # what numpy imports lazily is loaded first
    tracemalloc.start()
    try:
        result = grw_simulate(params, trials, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.collapsed_fraction == 1.0
    assert peak <= 8 * trials + 2 * 2 ** 20
