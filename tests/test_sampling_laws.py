"""Every Monte Carlo output against the closed form of the law it samples.

Each statistic is gated at 6 of its own sampling sigmas over fixed seeds, so
a correct sampler fails with p ~ 2e-9 and the tests never flake, while a
wrong scale (an SE off by 2x, an untruncated or mis-scaled collapse time)
fails outright.
"""

import math

import numpy as np
import pytest

from bellwigner.chsh import SETTING_PAIRS, chsh_exact, chsh_sampled, joint_distribution
from bellwigner.interpretations import (
    ATOM_PARAMS,
    INSTRUMENT_PARAMS,
    Branch,
    GrwParams,
    _friend_branches,
    agreement_report,
    grw_exact_probability,
    grw_simulate,
)
from bellwigner.states import bell_wigner_state

from oracle import binomial_sigma, truncated_exponential_moments, z_scores_within
from test_interpretations import AGREEMENT_SCALES

K_SIGMA = 6.0
GRW_TRIALS = 100_000
GRW_SEEDS = range(3)
# a total rate of 1e9 /s, the benchmark's, at the listed numbers of mean collapses per run
GRW_CASES = {
    **{f"rate_t_{x:g}": GrwParams(1e25, x * 1e-9, 1e-16) for x in (1e-3, 0.3, 1.0, 2.0, 40.0)},
    "atom": ATOM_PARAMS,
    "instrument": INSTRUMENT_PARAMS,
}


@pytest.mark.parametrize("case", GRW_CASES)
def test_grw_fraction_and_mean_time_follow_their_closed_forms(case):
    params = GRW_CASES[case]
    p = grw_exact_probability(params)
    mean, variance = truncated_exponential_moments(params.total_rate, params.duration_s)
    for seed in GRW_SEEDS:
        result = grw_simulate(params, GRW_TRIALS, seed)
        # sigma 0 at p = 1.0 (the instrument) demands every trial
        assert abs(result.collapsed_fraction - p) <= K_SIGMA * binomial_sigma(p, GRW_TRIALS)
        count = round(result.collapsed_fraction * GRW_TRIALS)
        if count == 0:  # the atom preset: p = 1e-11
            assert result.mean_collapse_time_s is None
            continue
        assert abs(result.mean_collapse_time_s - mean) <= K_SIGMA * math.sqrt(variance / count)


CHSH_SHOTS = 1000
# (state or ensemble, seeds): the unitary state, and the friend-dephased ensemble
# of the macroscopic backends, whose four branches make each run four times dearer;
# even 80 z-scores put an SE off by 2x (log variance +-1.39) outside the gate (+-0.95)
CHSH_CASES = {
    "bell_wigner": (bell_wigner_state(), range(160)),
    "dephased": (_friend_branches(bell_wigner_state()), range(80)),
}


def product_variances(state) -> dict:
    """Exact variance of the outcome product a*b of each setting, from its table."""
    ensemble = state if isinstance(state, list) else [Branch(1.0, state, "unitary")]
    variances = {}
    for pair in SETTING_PAIRS:
        first = second = 0.0
        for branch in ensemble:
            for cell in joint_distribution(branch.state, *pair):
                product = cell.a_value * cell.b_value
                first += branch.weight * cell.joint_probability * product
                second += branch.weight * cell.joint_probability * product ** 2
        variances[pair] = second - first ** 2
    return variances


@pytest.mark.parametrize("case", CHSH_CASES)
def test_chsh_sampled_s_and_its_standard_error_follow_the_exact_law(case):
    state, seeds = CHSH_CASES[case]
    exact = chsh_exact(state)
    reports = [chsh_sampled(state, CHSH_SHOTS, seed) for seed in seeds]
    z = np.array([(r.s_value - exact.s_value) / r.standard_error for r in reports])
    assert z_scores_within(z)
    # the gate has the power to see an SE off by 2x either way
    assert not z_scores_within(z / 2) and not z_scores_within(z * 2)

    # each setting's mean over all seeds against its exact correlator
    variances = product_variances(state)
    for pair in SETTING_PAIRS:
        means = [r.correlators[pair] for r in reports]
        sigma = math.sqrt(variances[pair] / (CHSH_SHOTS * len(means)))
        assert abs(np.mean(means) - exact.correlators[pair]) <= K_SIGMA * sigma, pair


@pytest.mark.parametrize("case", AGREEMENT_SCALES)
def test_sampled_agreement_gives_each_backend_its_exact_s(case):
    scale, _, _ = AGREEMENT_SCALES[case]
    exact = agreement_report(scale).backends
    for seed in range(2):
        sampled = agreement_report(scale, CHSH_SHOTS, seed, sampled=True).backends
        for name, report in sampled.items():
            gap = abs(report.s_value - exact[name].s_value)
            assert gap <= K_SIGMA * report.standard_error, name
