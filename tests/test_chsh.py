"""Tests for the CHSH engine: exact values, classical bound, sampling."""

import itertools
import math
import re
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import bellwigner.chsh as chsh
from bellwigner.chsh import (
    SETTING_PAIRS,
    ChshReport,
    chsh_exact,
    chsh_sampled,
    classical_assignments,
    classical_max,
    joint_distribution,
    report_from_setting_products,
    s_from_correlators,
    sample_products,
    sample_setting_products,
)
from bellwigner.interpretations import Branch, _friend_branches
from bellwigner.linalg import expectation
from bellwigner.observables import (
    Observable,
    alice_observable,
    bob_observable,
    lift,
    lifted_spectrum,
)
from bellwigner.states import FULL_LAYOUT, StateVector, bell_wigner_state
from oracle import ket

SQRT_HALF = math.sqrt(2) / 2
TSIRELSON = 2 * math.sqrt(2)


def effective_two_qubit_correlators():
    """Independent oracle: the state restricted to its correlated subspace.

    On the span of {|h,F_v>, |v,F_h>} per side, setting 0 acts as sigma_z
    and setting 1 as sigma_x; the reduced state is a plain two-qubit vector,
    so 4x4 arithmetic reproduces the four correlators.
    """
    c = math.cos(math.pi / 8)
    s = math.sin(math.pi / 8)
    reduced = np.array([s, c, c, -s], dtype=complex) / math.sqrt(2)
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    paulis = {0: sz, 1: sx}
    return {
        (i, j): float(np.vdot(reduced, np.kron(paulis[i], paulis[j]) @ reduced).real)
        for i in (0, 1)
        for j in (0, 1)
    }


def random_full_state(rng):
    z = rng.normal(size=16) + 1j * rng.normal(size=16)
    return StateVector(FULL_LAYOUT, z / np.linalg.norm(z))


def test_exact_correlators_match_reduction_oracle():
    report = chsh_exact(bell_wigner_state())
    oracle = effective_two_qubit_correlators()
    for pair in SETTING_PAIRS:
        assert report.correlators[pair] == pytest.approx(oracle[pair], abs=1e-12)
    expected = {(1, 1): SQRT_HALF, (1, 0): SQRT_HALF, (0, 1): SQRT_HALF, (0, 0): -SQRT_HALF}
    for pair, value in expected.items():
        assert report.correlators[pair] == pytest.approx(value, abs=1e-9)
    assert report.s_value == pytest.approx(2 * math.sqrt(2), abs=1e-9)
    assert report.mode == "exact"


def ulps_from(value, exact):
    """|value - exact| in units of the float spacing at ``value``; ``exact`` is a Decimal."""
    return abs(Decimal(value) - exact) / Decimal(math.ulp(value))


def test_bell_wigner_outputs_lie_within_a_few_ulps_of_their_closed_forms():
    # 1/sqrt(2) to 28 digits: 1/math.sqrt(2) rounds to the float below the nearest one
    half = Decimal(2).sqrt() / 2
    signs = {(1, 1): 1, (1, 0): 1, (0, 1): 1, (0, 0): -1}
    state = bell_wigner_state()
    report = chsh_exact(state)
    for pair, sign in signs.items():
        assert ulps_from(report.correlators[pair], sign * half) <= 3
        for cell in joint_distribution(state, *pair):
            if cell.a_value == 0.0 or cell.b_value == 0.0:
                # the state lies on each side's correlated support
                assert cell.joint_probability == 0.0
            else:
                closed = (1 + int(cell.a_value * cell.b_value) * sign * half) / 4
                assert ulps_from(cell.joint_probability, closed) <= 4
    assert ulps_from(report.s_value, 4 * half) <= 3


def test_exact_on_product_state():
    state = StateVector(FULL_LAYOUT, ket("h", "F_v", "h", "F_v"))
    report = chsh_exact(state)
    assert report.correlators[(0, 0)] == pytest.approx(1.0, abs=1e-12)
    assert report.correlators[(1, 1)] == pytest.approx(0.0, abs=1e-12)
    assert report.s_value == pytest.approx(-1.0, abs=1e-12)
    assert abs(report.s_value) <= 2.0


def test_report_consistency_invariant():
    report = chsh_exact(bell_wigner_state())
    assert s_from_correlators(report.correlators) == pytest.approx(report.s_value, abs=1e-12)
    with pytest.raises(ValueError, match="recompute"):
        ChshReport("exact", dict(report.correlators), report.s_value + 1e-6)
    inflated = {pair: 1.5 for pair in SETTING_PAIRS}
    with pytest.raises(ValueError, match="exceeds 1"):
        ChshReport("exact", inflated, s_from_correlators(inflated))


def test_report_document_keys():
    doc = chsh_exact(bell_wigner_state()).to_dict()
    assert list(doc) == ["mode", "correlators", "s_value", "shots_per_setting",
                         "standard_error", "sigma_violation"]
    assert list(doc["correlators"]) == ["A1B1", "A1B0", "A0B1", "A0B0"]
    assert doc["shots_per_setting"] is None


def test_exact_rejects_wrong_dimension():
    with pytest.raises(ValueError, match="16-dim"):
        chsh_exact(StateVector(("photon", "friend"), ket("h", "F_h")))


# the four-photon amplitudes with each side's friend in its photon's slot
PERMUTED = StateVector(("friend_a", "photon_a", "friend_b", "photon_b"),
                       bell_wigner_state().amplitudes)


@pytest.mark.parametrize("run", [
    chsh_exact,
    lambda state: chsh_sampled(state, 100, seed=0),
    lambda state: joint_distribution(state, 1, 1),
    lambda state: chsh_exact([Branch(0.5, bell_wigner_state(), "kept"),
                              Branch(0.5, state, "permuted")]),
    # the layout is checked before the setting
    lambda state: joint_distribution(state, 2, 0),
    lambda state: sample_setting_products(state, 0, 2, 10, 1),
], ids=["exact", "sampled", "joint", "ensemble", "joint_bad_setting", "sample_bad_setting"])
def test_engine_rejects_a_permuted_layout(run):
    with pytest.raises(ValueError, match=re.escape(str(FULL_LAYOUT))):
        run(PERMUTED)


def test_classical_max_is_two():
    assert classical_max() == 2
    # independent enumeration oracle
    oracle = max(
        a1 * b1 + a1 * b0 + a0 * b1 - a0 * b0
        for a0, a1, b0, b1 in itertools.product((-1, 1), (-1, 0, 1), (-1, 1), (-1, 0, 1))
    )
    assert oracle == 2


def test_classical_assignment_table():
    table = classical_assignments()
    assert len(table) == 36
    maximizers = [row for row in table if row[4] == classical_max()]
    assert len(maximizers) >= 1
    assert all(row[4] == 2 for row in maximizers)
    assert max(row[4] for row in table) == 2


def test_classical_max_with_null_coherence_outcomes():
    # Regression pin: forcing the coherence probes to outcome 0 leaves only
    # -a0*b0, whose enumerated maximum is 1.
    table = [row for row in classical_assignments() if row[1] == row[3] == 0]
    assert len(table) == 4
    assert max(row[4] for row in table) == 1
    oracle = max(-a0 * b0 for a0, b0 in itertools.product((-1, 1), repeat=2))
    assert oracle == 1


def test_setting_must_be_the_int_0_or_1():
    state = bell_wigner_state()
    table = joint_distribution(state, 1, 0)  # True and 1.0 equal this table's cache key
    for bad in (True, 1.0, np.float64(0.0), np.True_, 2, -1, "1", None):
        message = re.escape(f"setting must be 0 or 1, got {bad!r}")
        for call in (lambda: joint_distribution(state, bad, 0),
                     lambda: joint_distribution(state, 0, bad),
                     lambda: sample_setting_products(state, bad, 0, 10, 1),
                     lambda: alice_observable(bad),
                     lambda: bob_observable(bad)):
            with pytest.raises(ValueError, match=message):
                call()
    assert joint_distribution(state, np.int64(1), np.uint8(0)) == table


@pytest.mark.parametrize("pair", SETTING_PAIRS)
def test_joint_distribution_completeness(pair):
    outcomes = joint_distribution(bell_wigner_state(), *pair)
    expected_cells = {(0, 0): 4, (0, 1): 6, (1, 0): 6, (1, 1): 9}
    assert len(outcomes) == expected_cells[pair]
    total = sum(cell.joint_probability for cell in outcomes)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_joint_distribution_matches_exact_correlators():
    state = bell_wigner_state()
    report = chsh_exact(state)
    for pair in SETTING_PAIRS:
        outcomes = joint_distribution(state, *pair)
        correlator = sum(c.a_value * c.b_value * c.joint_probability for c in outcomes)
        assert correlator == pytest.approx(report.correlators[pair], abs=1e-12)


def test_joint_distribution_pinned_cell():
    outcomes = joint_distribution(bell_wigner_state(), 0, 0)
    cell = next(c for c in outcomes if c.a_value == 1.0 and c.b_value == 1.0)
    assert cell.joint_probability == pytest.approx(math.sin(math.pi / 8) ** 2 / 2, abs=1e-12)
    assert cell.joint_probability == pytest.approx(0.07322, abs=5e-6)


def test_joint_distribution_includes_zero_cells():
    state = StateVector(FULL_LAYOUT, ket("h", "F_h", "h", "F_h"))
    outcomes = joint_distribution(state, 1, 1)
    assert len(outcomes) == 9
    zero_cells = [c for c in outcomes if c.joint_probability == pytest.approx(0.0, abs=1e-12)]
    assert len(zero_cells) == 8  # everything except (0, 0)


def test_no_signalling_marginals():
    rng = np.random.default_rng(29)
    states = [bell_wigner_state()] + [random_full_state(rng) for _ in range(10)]
    for state in states:
        for i in (0, 1):
            marginals = []
            for j in (0, 1):
                outcomes = joint_distribution(state, i, j)
                marginal = {}
                for cell in outcomes:
                    marginal[cell.a_value] = marginal.get(cell.a_value, 0.0) + cell.joint_probability
                marginals.append(marginal)
            for a_value in marginals[0]:
                assert marginals[0][a_value] == pytest.approx(
                    marginals[1].get(a_value, 0.0), abs=1e-12
                )


def test_sampled_close_to_exact_at_large_shots():
    state = bell_wigner_state()
    report = chsh_sampled(state, 100_000, seed=8)
    assert report.s_value == pytest.approx(2 * math.sqrt(2), abs=4 * report.standard_error)


def test_sampled_violation_at_seed_42():
    report = chsh_sampled(bell_wigner_state(), 1000, seed=42)
    assert report.sigma_violation > 5
    assert report.shots_per_setting == 1000
    assert report.standard_error > 0


def test_sampled_is_deterministic():
    first = chsh_sampled(bell_wigner_state(), 500, seed=123)
    second = chsh_sampled(bell_wigner_state(), 500, seed=123)
    assert first == second


def test_sampled_correlators_converge():
    state = bell_wigner_state()
    exact = chsh_exact(state)
    shots = 1_000_000
    for pair in SETTING_PAIRS:
        mean, variance = sample_setting_products(state, *pair, shots, seed=31)
        per_setting_se = math.sqrt(variance / shots)
        assert abs(mean - exact.correlators[pair]) <= 5 * per_setting_se


def test_tsirelson_ceiling_over_random_states():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        report = chsh_exact(random_full_state(rng))
        assert abs(report.s_value) <= TSIRELSON + 1e-9


def test_parallel_sampling_reproduces_serial():
    state = bell_wigner_state()
    shots, seed = 2000, 77
    serial = chsh_sampled(state, shots, seed)

    def worker(pair):
        return pair, sample_setting_products(state, *pair, shots, seed)

    with ThreadPoolExecutor(max_workers=4) as pool:
        chunks = dict(pool.map(worker, reversed(SETTING_PAIRS)))
    parallel = report_from_setting_products(chunks, shots)
    assert parallel == serial


def test_sampled_rejects_too_few_shots():
    with pytest.raises(ValueError, match="at least 2"):
        chsh_sampled(bell_wigner_state(), 1, seed=0)


def test_sampled_shots_bound_is_int64():
    # counts, not shots, are drawn: the largest int64 shot count is one draw per setting
    report = chsh_sampled(bell_wigner_state(), 2 ** 63 - 1, seed=0)
    assert 0.0 < report.standard_error < 1e-9
    assert abs(report.s_value - TSIRELSON) <= 6 * report.standard_error
    with pytest.raises(ValueError, match=r"shots 9223372036854775808 exceeds the bound of 2\*\*63 - 1"):
        chsh_sampled(bell_wigner_state(), 2 ** 63, seed=0)


def test_sampled_shot_count_must_be_an_integer():
    for shots in (2.5, 1000.0):
        with pytest.raises(TypeError):
            chsh_sampled(bell_wigner_state(), shots, seed=0)
    report = chsh_sampled(bell_wigner_state(), np.int64(1000), seed=0)
    assert report == chsh_sampled(bell_wigner_state(), 1000, seed=0)
    assert type(report.shots_per_setting) is int


def test_sample_variance_from_counts_does_not_cancel():
    # one outcome in 10^13 at 2**62 shots: sum n x^2 - N m^2 keeps ~4 digits
    probabilities, products = np.array([1 - 1e-13, 1e-13]), np.array([1.0, -1.0])
    shots, key = 2 ** 62, (0, 1, 1)
    rare = int(np.random.default_rng(key).multinomial(shots, probabilities)[1])
    mean, variance = sample_products(probabilities, products, shots, key)
    assert mean == pytest.approx(1 - 2 * rare / shots, rel=0.0, abs=1e-15)
    exact = Fraction(4 * rare * (shots - rare), shots * (shots - 1))
    assert abs(variance / exact - 1) <= 1e-9


def expectation_table(state, i, j):
    """Setting (i, j)'s joint probabilities, one ``linalg.expectation`` of Pa@Pb per cell."""
    return [expectation(state.amplitudes, pa @ pb)
            for _, pa in lifted_spectrum(alice_observable(i))
            for _, pb in lifted_spectrum(bob_observable(j))]


def test_tables_are_within_1e_15_of_the_per_cell_expectation_route():
    # the Gram reduction sums in another order than BLAS, so the last bits may differ
    rng = np.random.default_rng(41)
    states = [bell_wigner_state()] + [random_full_state(rng) for _ in range(20)]
    ensemble = _friend_branches(states[1])
    assert len(ensemble) == 4
    for source in states + [ensemble]:
        branches = [Branch(1.0, source, "")] if isinstance(source, StateVector) else source
        for i, j in SETTING_PAIRS:
            for branch in branches:
                table = [cell.joint_probability for cell in joint_distribution(branch.state, i, j)]
                assert np.abs(np.subtract(table, expectation_table(branch.state, i, j))).max() \
                    <= 1e-15
            # the Born-weighted sum of the per-cell tables
            route = sum(branch.weight * np.array(expectation_table(branch.state, i, j))
                        for branch in branches)
            mixture = chsh._table(chsh._born_sum(source, chsh._gram), i, j)
            assert np.abs(mixture - route).max() <= 1e-15
            # the exact correlator against the Born-weighted BLAS route
            reference = sum(branch.weight * expectation(
                branch.state.amplitudes, lift(alice_observable(i)) @ lift(bob_observable(j)))
                for branch in branches)
            assert abs(chsh_exact(source).correlators[(i, j)] - reference) <= 1e-15
            # the sampler draws from that mixture table on the setting's own stream
            products = [a * b for a, _ in lifted_spectrum(alice_observable(i))
                        for b, _ in lifted_spectrum(bob_observable(j))]
            expected = sample_products(mixture, products, 1000, (9, i, j))
            sampled = sample_setting_products(source, i, j, 1000, 9)
            assert [v.hex() for v in sampled] == [v.hex() for v in expected]


@pytest.mark.parametrize("pair", SETTING_PAIRS)
def test_cached_outcome_cells_are_read_only(pair):
    _, stack, products = chsh._outcome_cells(*pair)
    for array in (stack, *stack, products):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_cached_outcome_cells_equal_the_products_of_the_lifted_projectors():
    # the reference route: a 16x16 BLAS product Pa@Pb of the lifted projectors
    count = 0
    for i, j in SETTING_PAIRS:
        _, stack, _ = chsh._outcome_cells(i, j)
        lifted = [pa @ pb for _, pa in lifted_spectrum(alice_observable(i))
                  for _, pb in lifted_spectrum(bob_observable(j))]
        assert len(lifted) == len(stack)
        for cell, reference in zip(stack, lifted):
            assert np.array_equal(cell.reshape(16, 16), reference)
            count += 1
    assert count == 25


OFF_DIAGONAL = np.zeros((4, 4), dtype=complex)
OFF_DIAGONAL[0, 1] = 0.5
# Hermitian and imaginary, on Alice's factors only, so it commutes with Bob's cells
IMAGINARY = np.zeros((4, 4), dtype=complex)
IMAGINARY[0, 1], IMAGINARY[1, 0] = 0.5j, -0.5j

# Alice's 4x4 side spectrum edited so that exactly one build-time check fails
BROKEN_SPECTRA = {
    # the cells still sum to the identity, but the cells of two projectors are not Hermitian
    "not Hermitian": lambda s: (
        (s[0][0], s[0][1] + OFF_DIAGONAL), (s[1][0], s[1][1] - OFF_DIAGONAL), *s[2:]),
    "matrix entries must be finite": lambda s: ((s[0][0], np.full((4, 4), np.nan)), *s[1:]),
    # the cells still sum to the identity and are Hermitian, but two are complex
    "not real": lambda s: (
        (s[0][0], s[0][1] + IMAGINARY), (s[1][0], s[1][1] - IMAGINARY), *s[2:]),
    # Hermitian cells that miss half of one projector
    "sum to the identity": lambda s: ((s[0][0], 0.5 * s[0][1]), *s[1:]),
}


@pytest.fixture
def fresh_cells():
    """An empty cell cache, emptied again after the test."""
    chsh._outcome_cells.cache_clear()
    yield
    chsh._outcome_cells.cache_clear()


@pytest.mark.parametrize("message", BROKEN_SPECTRA)
def test_outcome_cells_are_checked_when_built(monkeypatch, fresh_cells, message):
    original = chsh.alice_observable
    edit = BROKEN_SPECTRA[message]

    def broken(setting):
        obs = original(setting)
        return Observable(obs.label, obs.matrix, edit(obs.spectrum))

    monkeypatch.setattr(chsh, "alice_observable", broken)
    for pair in SETTING_PAIRS:
        with pytest.raises(ValueError, match=message):
            chsh._outcome_cells(*pair)
        with pytest.raises(ValueError, match=message):
            joint_distribution(bell_wigner_state(), *pair)
    assert chsh._outcome_cells.cache_info().currsize == 0
