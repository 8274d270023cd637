"""Properties of the CHSH engine over random 16-dim states and ensembles.

An ensemble is a list of ``Branch`` items whose positive weights sum to 1;
a bare state is the ensemble of itself with weight 1. The engine's mixture
table of an ensemble is its Born-weighted sum of branch tables.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bellwigner.chsh import (
    SETTING_PAIRS,
    chsh_exact,
    chsh_sampled,
    joint_distribution,
    sample_products,
    sample_setting_products,
)
from bellwigner.interpretations import Branch, many_worlds_branches
from bellwigner.states import FULL_LAYOUT, StateVector, bell_wigner_state

PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)
unit_floats = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)


@st.composite
def full_states(draw):
    parts = np.array(draw(st.lists(unit_floats, min_size=32, max_size=32)))
    amps = parts[:16] + 1j * parts[16:]
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    return StateVector(FULL_LAYOUT, amps / norm)


@st.composite
def ensembles(draw):
    states = draw(st.lists(full_states(), min_size=2, max_size=4))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=len(states), max_size=len(states)))
    return [Branch(w / math.fsum(raw), s, f"b{k}") for k, (w, s) in enumerate(zip(raw, states))]


def table(state: StateVector, i: int, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a values, b values, probabilities) of one state's joint table."""
    cells = joint_distribution(state, i, j)
    return tuple(np.array([getattr(c, f) for c in cells])
                 for f in ("a_value", "b_value", "joint_probability"))


def mixture(source, i: int, j: int) -> np.ndarray:
    """The engine's outcome probabilities of setting (i, j) for a state or an ensemble."""
    return np.array([cell.joint_probability for cell in joint_distribution(source, i, j)])


def check_tables_and_correlators(source):
    # outcome values label the cells and do not depend on the state
    any_state = source if isinstance(source, StateVector) else source[0].state
    report = chsh_exact(source)
    marginals = {}
    for i, j in SETTING_PAIRS:
        a, b, _ = table(any_state, i, j)
        p = mixture(source, i, j)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert p.min() >= -1e-15
        assert abs(report.correlators[(i, j)] - np.sum(a * b * p)) <= 1e-12
        marginals[("A", i, j)] = [p[a == v].sum() for v in np.unique(a)]
        marginals[("B", j, i)] = [p[b == v].sum() for v in np.unique(b)]
    # no signalling: one side's marginal ignores the other side's setting
    for side in ("A", "B"):
        for own in (0, 1):
            assert np.allclose(marginals[(side, own, 0)], marginals[(side, own, 1)],
                               rtol=0.0, atol=1e-12)


@PROPERTY
@given(full_states())
def test_state_tables_are_distributions_without_signalling(state):
    check_tables_and_correlators(state)


@PROPERTY
@given(ensembles())
def test_ensemble_tables_are_distributions_without_signalling(ensemble):
    check_tables_and_correlators(ensemble)


@PROPERTY
@given(ensembles())
def test_ensemble_is_the_born_average_of_its_branches(ensemble):
    report = chsh_exact(ensemble)
    for pair in SETTING_PAIRS:
        average = sum(b.weight * chsh_exact(b.state).correlators[pair] for b in ensemble)
        assert abs(report.correlators[pair] - average) <= 1e-12
        average = sum(b.weight * table(b.state, *pair)[2] for b in ensemble)
        assert np.allclose(mixture(ensemble, *pair), average, rtol=0.0, atol=1e-12)


@PROPERTY
@given(full_states(), st.integers(0, 2 ** 32))
def test_one_branch_of_weight_one_is_the_bare_state_bit_for_bit(state, seed):
    one = [Branch(1.0, state, "unitary")]
    assert repr(chsh_exact(one)) == repr(chsh_exact(state))
    assert repr(chsh_sampled(one, 50, seed)) == repr(chsh_sampled(state, 50, seed))
    for i, j in SETTING_PAIRS:
        drawn = sample_setting_products(state, i, j, 50, seed)
        assert repr(sample_setting_products(one, i, j, 50, seed)) == repr(drawn)
        # the draws come from the setting's own table and stream
        a, b, p = table(state, i, j)
        assert repr(sample_products(p, a * b, 50, (seed, i, j))) == repr(drawn)


@st.composite
def outcome_tables(draw):
    """(unnormalized probabilities, outcome products) of a random table."""
    size = draw(st.integers(1, 9))
    probabilities = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
    assume(probabilities.sum() > 0.0)
    products = draw(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0]), min_size=size,
                             max_size=size))
    return probabilities, np.array(products)


@PROPERTY
@given(outcome_tables(), st.integers(2, 200), st.integers(0, 2 ** 32),
       st.sampled_from(SETTING_PAIRS))
def test_counts_give_the_statistics_of_the_shots_they_count(outcome_table, shots, seed, pair):
    p, products = outcome_table
    key = (seed, *pair)
    counts = np.random.default_rng(key).multinomial(shots, p / p.sum())
    shots_drawn = np.repeat(products, counts)
    mean, variance = sample_products(p, products, shots, key)
    # the exact mean of the counted products, correctly rounded; a zero mean is 0.0
    exact_mean = Fraction(sum(int(n) * int(x) for n, x in zip(counts, products)), shots)
    assert repr(mean) == repr(float(exact_mean))
    assert abs(mean - np.mean(shots_drawn)) <= 1e-12
    assert abs(variance - np.var(shots_drawn, ddof=1)) <= 1e-12


@pytest.mark.parametrize("total", [0.5, 2.0, math.nan])
def test_exact_and_sampled_reject_weights_that_do_not_sum_to_one(total):
    ensemble = [Branch(total, bell_wigner_state(), "scaled")]
    with pytest.raises(ValueError, match=f"ensemble weights sum to {total!r}, not 1"):
        chsh_exact(ensemble)
    with pytest.raises(ValueError, match=f"ensemble weights sum to {total!r}, not 1"):
        chsh_sampled(ensemble, 1000, seed=1)


def test_exact_and_sampled_reject_negative_weights():
    # the weights sum to 1, but a sampled table would be clipped and renormalized
    ensemble = [Branch(weight, branch.state, branch.label)
                for weight, branch in zip((1.5, -0.5), many_worlds_branches(bell_wigner_state()))]
    with pytest.raises(ValueError, match="non-negative"):
        chsh_exact(ensemble)
    with pytest.raises(ValueError, match="non-negative"):
        chsh_sampled(ensemble, 1000, seed=1)
