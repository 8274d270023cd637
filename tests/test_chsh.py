"""Tests for the CHSH engine: exact values, classical bound, sampling."""

import itertools
import json
import math
import re
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction
from types import MappingProxyType

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
from bellwigner.interpretations import ATOM_PARAMS, Branch, grw_simulate, many_worlds_branches
from bellwigner.linalg import expectation
from bellwigner.observables import alice_observable, bob_observable, lift, lifted_spectrum
from bellwigner.states import FULL_LAYOUT, StateVector, bell_wigner_state
from oracle import SETTINGS, joint_cells, joint_table, joint_terms, ket

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


def bell_wigner_branches():
    """The four friend-record branches of the Bell–Wigner state."""
    return many_worlds_branches(bell_wigner_state())


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


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_report_refuses_a_nan_s_value(mode):
    with pytest.raises(ValueError, match="recompute"):
        ChshReport(mode, {pair: 0.5 for pair in SETTING_PAIRS}, float("nan"))


@pytest.mark.parametrize("nan_pairs", [SETTING_PAIRS, SETTING_PAIRS[-1:]])
def test_report_refuses_a_nan_exact_correlator(nan_pairs):
    correlators = {pair: float("nan") if pair in nan_pairs else 0.5 for pair in SETTING_PAIRS}
    with pytest.raises(ValueError, match="recompute|exceeds 1"):
        ChshReport("exact", correlators, s_from_correlators(correlators))


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_report_correlator_map_must_hold_exactly_the_four_setting_pairs(mode):
    four = {pair: 0.5 for pair in SETTING_PAIRS}
    s_value = s_from_correlators(four)
    missing = dict(four)
    del missing[(0, 0)]
    for keys in (missing, {**four, (2, 2): 0.5}, {}):
        with pytest.raises(ValueError, match="cover all four setting pairs"):
            ChshReport(mode, keys, s_value)
    # any mapping with the four pairs builds, in any order, read-only or not
    for correlators in (MappingProxyType(four), dict(reversed(four.items()))):
        report = ChshReport(mode, correlators, s_value)
        assert report.correlators is correlators and report.s_value == s_value


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


def test_joint_distribution_of_an_ensemble_is_the_mixture_table_the_sampler_draws_from(
        monkeypatch):
    rng = np.random.default_rng(53)
    mixed = [Branch(0.25, random_full_state(rng), "a"), Branch(0.75, random_full_state(rng), "b")]
    drawn = {}

    def recording(probabilities, products, shots, stream_key):
        drawn[stream_key[1:]] = probabilities
        return sample_products(probabilities, products, shots, stream_key)

    monkeypatch.setattr(chsh, "sample_products", recording)
    for ensemble in (bell_wigner_branches(), mixed):
        report = chsh_exact(ensemble)
        chsh_sampled(ensemble, 1000, 3)
        for i, j in SETTING_PAIRS:
            cells = joint_distribution(ensemble, i, j)
            probabilities = [cell.joint_probability.hex() for cell in cells]
            assert probabilities == [p.hex() for p in drawn[i, j].tolist()]
            terms = [cell.a_value * cell.b_value * cell.joint_probability for cell in cells]
            assert math.fsum(terms).hex() == report.correlators[(i, j)].hex()
        for bad in ((True, 0), (0, 1.0), (2, 0)):
            with pytest.raises(ValueError, match="setting must be 0 or 1"):
                joint_distribution(ensemble, *bad)
    for weights in ((0.5, 0.6), (-0.25, 1.25)):
        branches = [Branch(w, b.state, b.label) for w, b in zip(weights, mixed)]
        with pytest.raises(ValueError, match="ensemble weights"):
            joint_distribution(branches, 1, 1)


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


def sampled_routes():
    """The three public sampled routes, each a function of (shots, seed) on one state."""
    state = bell_wigner_state()
    cells = joint_distribution(state, 1, 1)
    probabilities = np.array([cell.joint_probability for cell in cells])
    products = np.array([cell.a_value * cell.b_value for cell in cells])
    return {
        "chsh_sampled": lambda shots, seed: chsh_sampled(state, shots, seed),
        "sample_setting_products":
            lambda shots, seed: sample_setting_products(state, 1, 1, shots, seed),
        "sample_products":
            lambda shots, seed: sample_products(probabilities, products, shots, (seed, 1, 1)),
    }


def refusals(route_args):
    """The (type, message) that each route raises on its arguments."""
    refused = {}
    for name, route in sampled_routes().items():
        with pytest.raises(Exception) as caught:
            route(*route_args)
        refused[name] = (caught.type, str(caught.value))
    return refused


def test_sampled_seed_must_be_an_integer():
    # every sampled route reads its seed through the one gate in sample_products
    for name, route in sampled_routes().items():
        for seed, numpy_seed in ((7, np.int64(7)), (2 ** 64 - 1, np.uint64(2 ** 64 - 1))):
            assert repr(route(100, numpy_seed)) == repr(route(100, seed)), name
    for bad in (None, 1.5, True):
        refused = refusals((100, bad))
        assert len(set(refused.values())) == 1, refused
        kind, message = refused["sample_products"]
        assert kind is TypeError and "cannot be interpreted as an integer" in message


@pytest.mark.parametrize("route", [
    lambda: chsh_sampled(bell_wigner_state(), 100, -1),
    lambda: sample_products(np.array([0.5, 0.5]), np.array([1.0, -1.0]), 10, (-1,)),
    lambda: sample_products(np.array([0.5, 0.5]), np.array([1.0, -1.0]), 10, (5, 0, -1)),
    lambda: grw_simulate(ATOM_PARAMS, 10, -1),
], ids=["chsh_sampled", "sample_products", "sample_products_key_entry", "grw_simulate"])
def test_a_negative_seed_is_refused_at_the_call(route):
    # not by numpy's "expected non-negative integer" from inside its generator
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        route()


@pytest.mark.parametrize("shots, kind, message", [
    (0, ValueError, r"shots_per_setting must be at least 2 \(sample variance\)"),
    (1, ValueError, r"shots_per_setting must be at least 2 \(sample variance\)"),
    (10.5, TypeError, "cannot be interpreted as an integer"),
    (2 ** 63, ValueError, r"shots 9223372036854775808 exceeds the bound of 2\*\*63 - 1"),
    (True, TypeError, "^'bool' object cannot be interpreted as an integer$"),
], ids=["zero", "one", "fraction", "over_int64", "bool"])
def test_every_sampled_route_refuses_the_same_shot_counts(shots, kind, message):
    refused = refusals((shots, 5))
    assert len(set(refused.values())) == 1, refused
    assert refused["sample_products"][0] is kind
    assert re.search(message, refused["sample_products"][1])


def test_a_report_of_numpy_shots_serializes_to_json():
    stats = {pair: sample_setting_products(bell_wigner_state(), *pair, 1000, 3)
             for pair in SETTING_PAIRS}
    report = report_from_setting_products(stats, np.int64(1000))
    assert type(report.shots_per_setting) is int
    assert json.loads(json.dumps(report.to_dict()))["shots_per_setting"] == 1000
    assert report == report_from_setting_products(stats, 1000)
    # the same rule as the gate's: True would read as one shot
    with pytest.raises(TypeError, match="^'bool' object cannot be interpreted as an integer$"):
        report_from_setting_products(stats, True)


def edited_stats(pair, mean=None, variance=None):
    """Seed 3's four (mean, variance) pairs at 1000 shots, with one pair's entry replaced."""
    stats = {p: sample_setting_products(bell_wigner_state(), *p, 1000, 3) for p in SETTING_PAIRS}
    old_mean, old_variance = stats[pair]
    stats[pair] = (old_mean if mean is None else mean,
                   old_variance if variance is None else variance)
    return stats


VARIANCES, NEGATIVE = "setting variances ", "must be finite and non-negative"


@pytest.mark.parametrize("stats, shots, message", [
    (edited_stats((1, 1)), 0, r"^shots_per_setting must be at least 2 \(sample variance\)$"),
    (edited_stats((1, 1)), 1, r"^shots_per_setting must be at least 2 \(sample variance\)$"),
    (edited_stats((1, 1)), 2 ** 63, r"^shots 9223372036854775808 exceeds the bound"),
    # the four variances still sum to a positive number
    (edited_stats((1, 0), variance=-0.25), 1000, rf"^{VARIANCES}\[.*, -0\.25, .*\] {NEGATIVE}$"),
    (edited_stats((0, 0), variance=-4.0), 1000, rf"^{VARIANCES}\[.*, -4\.0\] {NEGATIVE}$"),
    (edited_stats((0, 1), variance=math.nan), 1000, rf"^{VARIANCES}\[.*, nan, .*\] {NEGATIVE}$"),
    (edited_stats((0, 1), variance=math.inf), 1000, rf"^{VARIANCES}\[.*, inf, .*\] {NEGATIVE}$"),
    ({p: (0.5, 0.75) for p in SETTING_PAIRS if p != (1, 0)}, 1000,
     "^setting statistics must cover exactly the four setting pairs$"),
    ({**{p: (0.5, 0.75) for p in SETTING_PAIRS}, (2, 2): (0.5, 0.75)}, 1000,
     "^setting statistics must cover exactly the four setting pairs$"),
    (edited_stats((1, 1), mean=5.0), 1000, "^sampled correlator magnitude 5.0 exceeds 1$"),
], ids=["zero_shots", "one_shot", "over_int64", "negative_variance", "negative_total",
        "nan_variance", "inf_variance", "missing_pair", "extra_pair", "mean_above_one"])
def test_a_sampled_report_refuses_what_no_draw_can_give(stats, shots, message):
    with pytest.raises(ValueError, match=message):
        report_from_setting_products(stats, shots)


def test_the_shot_gate_has_one_message_for_a_report_and_a_draw():
    stats = edited_stats((1, 1))
    for shots in (1, 2 ** 63, 2.5, True):
        with pytest.raises((TypeError, ValueError)) as report:
            report_from_setting_products(stats, shots)
        assert refusals((shots, 5))["sample_products"] == (report.type, str(report.value))


def test_a_sampled_correlator_lies_within_one_as_an_exact_one_does():
    for mode in ("exact", "sampled"):
        inflated = {pair: 1.5 for pair in SETTING_PAIRS}
        with pytest.raises(ValueError, match=f"^{mode} correlator magnitude 1.5 exceeds 1$"):
            ChshReport(mode, inflated, s_from_correlators(inflated))
    # a draw's mean of products in {-1, 0, 1} is at most 1: every shot reads +1
    certain = {pair: (1.0, 0.0) for pair in SETTING_PAIRS}
    assert report_from_setting_products(certain, 2).s_value == 2.0


def test_sample_variance_from_counts_does_not_cancel():
    # one outcome in 10^13 at 2**62 shots: sum n x^2 - N m^2 keeps ~4 digits
    probabilities, products = np.array([1 - 1e-13, 1e-13]), np.array([1.0, -1.0])
    shots, key = 2 ** 62, (0, 1, 1)
    rare = int(np.random.default_rng(key).multinomial(shots, probabilities)[1])
    mean, variance = sample_products(probabilities, products, shots, key)
    assert mean == pytest.approx(1 - 2 * rare / shots, rel=0.0, abs=1e-15)
    exact = Fraction(4 * rare * (shots - rare), shots * (shots - 1))
    assert abs(variance / exact - 1) <= 1e-9


@pytest.mark.parametrize("probabilities, total", [
    ([0.0, 0.0], "0.0"),
    ([-0.5, -0.25], "0.0"),  # the floor at 0 leaves nothing to draw
    ([math.inf, 1.0], "inf"),
    ([math.nan, 1.0], "nan"),
    # each entry is finite, the sum is not: p / inf would put every draw in the last cell
    ([1e308, 1e308], "inf"),
], ids=["zero", "negative", "inf", "nan", "overflow"])
def test_sample_products_refuses_a_sum_that_is_not_positive_and_finite(probabilities, total):
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=f"sum to {total}, not a positive finite number$"):
        sample_products(np.array(probabilities), np.array([1.0, -1.0]), 10, (0,))


@pytest.mark.parametrize("probabilities, products, message", [
    ([0.5, 0.5], [1.0], r"got shapes \(2,\) and \(1,\)"),
    ([0.5, 0.5], [1.0, -1.0, 1.0], r"got shapes \(2,\) and \(3,\)"),
    ([[0.5, 0.5]], [[1.0, -1.0]], r"got shapes \(1, 2\) and \(1, 2\)"),
    ([0.5, 0.5], [1.0, math.nan], "outcome products must be finite"),
    ([0.5, 0.5], [math.inf, -1.0], "outcome products must be finite"),
], ids=["short", "long", "two_dim", "nan", "inf"])
def test_sample_products_refuses_a_table_that_is_not_one_finite_row(probabilities, products,
                                                                    message):
    # zipping counts with products would cut the longer, and a nan product gives (nan, nan)
    with pytest.raises(ValueError, match=message):
        sample_products(np.array(probabilities), np.array(products), 1000, (0,))


def test_a_bool_is_no_entry_of_a_stream_key():
    probabilities, products = np.array([0.5, 0.5]), np.array([1.0, -1.0])
    for key in ((True,), (0, False, 1), (0, 1, True)):
        with pytest.raises(TypeError, match="^'bool' object cannot be interpreted as an integer$"):
            sample_products(probabilities, products, 1000, key)


def test_sample_products_floor_has_the_bits_of_clip():
    # np.maximum(p, 0.0) is the ufunc np.clip calls when its upper bound is None: a table's
    # rounding negatives, signed zeros and subnormals keep the same bits either way
    table = np.array([-0.0, 0.0, -1e-17, -5e-324, 5e-324, 0.25, 1.0])
    clipped = np.clip(np.asarray(table, dtype=float), 0.0, None)
    floored = np.maximum(table, 0.0)
    assert [x.hex() for x in floored.tolist()] == [x.hex() for x in clipped.tolist()]


def test_a_sum_with_no_nonzero_term_is_positive_zero():
    # math.fsum gives 0.0, as numpy's sums do, where a sum started from its first term
    # would keep the -0.0 of 0 * -1.0 and 1000 * -0.0
    mean, variance = sample_products(np.array([0.0, 1.0]), np.array([-1.0, -0.0]), 1000, (0, 1, 1))
    assert (repr(mean), repr(variance)) == ("0.0", "0.0")
    state = StateVector(FULL_LAYOUT, np.eye(16)[0])  # |h, F_h, h, F_h>
    terms = [cell.a_value * cell.b_value * cell.joint_probability
             for cell in joint_distribution(state, 1, 1)]
    assert len(terms) == 9 and not any(terms)
    assert any(math.copysign(1.0, term) < 0.0 for term in terms)
    assert repr(chsh_exact(state).correlators[(1, 1)]) == "0.0"


def compensated_sum(values):
    """Built-in sum() of floats from Python 3.12 on: Neumaier's compensated summation."""
    total = compensation = 0.0
    for x in values:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


@pytest.mark.parametrize("source, seed", [(bell_wigner_state, 42), (bell_wigner_branches, 11)])
def test_the_standard_error_adds_the_four_variances_left_to_right(source, seed):
    # the variances of `chsh-sample --shots 1000 --seed 42` and of `agreement --scale macro
    # --sampled --shots 1000 --seed 11`, whose compensated sum rounds the other way: the
    # golden standard errors hold on every Python only if the sum is left to right
    report = chsh_sampled(source(), 1000, seed)
    var_11, var_10, var_01, var_00 = (sample_setting_products(source(), *pair, 1000, seed)[1]
                                      for pair in SETTING_PAIRS)
    left_to_right = var_11 + var_10 + var_01 + var_00
    assert compensated_sum([var_11, var_10, var_01, var_00]) != left_to_right
    assert report.standard_error == math.sqrt(left_to_right / 1000)


def expectation_table(state, i, j):
    """Setting (i, j)'s joint probabilities, one ``linalg.expectation`` of Pa@Pb per cell."""
    return [expectation(state.amplitudes, pa @ pb)
            for _, pa in lifted_spectrum(alice_observable(i))
            for _, pb in lifted_spectrum(bob_observable(j))]


def test_tables_are_within_1e_15_of_the_per_cell_expectation_route():
    # the Gram reduction sums in another order than BLAS, so the last bits may differ
    rng = np.random.default_rng(41)
    states = [bell_wigner_state()] + [random_full_state(rng) for _ in range(20)]
    ensemble = many_worlds_branches(states[1])
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
            mixture = np.array([cell.joint_probability
                                for cell in joint_distribution(source, i, j)])
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


def test_one_reduction_of_the_stack_gives_the_per_setting_tables_and_reports_bit_for_bit():
    # the 21 states of the test above, then 1000 more
    rng, more = np.random.default_rng(41), np.random.default_rng(43)
    states = [bell_wigner_state()] + [random_full_state(rng) for _ in range(20)]
    states += [random_full_state(more) for _ in range(1000)]
    sources = states + [many_worlds_branches(states[1])]
    assert SETTING_PAIRS == SETTINGS
    for n, source in enumerate(sources):
        exact = chsh_exact(source)
        sampled = chsh_sampled(source, 1000, n)
        for i, j in SETTING_PAIRS:
            # the reference reduces the setting's own cells alone, not one table of all 25
            alone = joint_table(source, i, j, narrow=True)
            table = [cell.joint_probability for cell in joint_distribution(source, i, j)]
            assert np.array(table).tobytes() == alone.tobytes()
            # its correlator is one correctly rounded sum of the terms a*b * P(a, b); a
            # numpy sum of the same terms groups them in its own order
            terms = joint_terms(source, i, j, narrow=True)
            assert exact.correlators[(i, j)].hex() == math.fsum(terms).hex()
            assert abs(exact.correlators[(i, j)] - float(np.sum(terms))) <= 2.3e-16
        serial = {pair: sample_setting_products(source, *pair, 1000, n) for pair in SETTING_PAIRS}
        # repr round-trips every float, so equal reprs mean equal bits
        assert repr(sampled) == repr(report_from_setting_products(serial, 1000))


def test_cached_outcome_cells_equal_the_products_of_the_lifted_projectors():
    # the oracle's cells, stated from kets, against the reference route: a 16x16 BLAS
    # product Pa@Pb of the lifted projectors. A basis ket's joint table is the diagonal of
    # the cells; the test above pins the engine's tables to the oracle's bit for bit.
    count = 0
    for i, j in SETTING_PAIRS:
        outcomes, stack = joint_cells(i, j)
        lifted = [((a, b), pa @ pb) for a, pa in lifted_spectrum(alice_observable(i))
                  for b, pb in lifted_spectrum(bob_observable(j))]
        assert len(lifted) == len(stack)
        for outcome, cell, (value, reference) in zip(outcomes, stack, lifted):
            assert outcome == value
            assert np.array_equal(cell.reshape(16, 16), reference)
            count += 1
        for n in range(16):
            cells = joint_distribution(StateVector(FULL_LAYOUT, np.eye(16)[n]), i, j)
            assert [(c.a_value, c.b_value, c.joint_probability) for c in cells] == \
                [(*value, reference[n, n]) for value, reference in lifted]
    assert count == 25


def test_random_state_outputs_stay_within_2_3e_16_of_the_256_entry_route():
    # the reference keeps all 256 entries of G and of each cell: summing the 36 nonzero
    # ones groups the terms differently, so only the last bits may move
    rng = np.random.default_rng(47)
    for _ in range(500):
        state = random_full_state(rng)
        exact = chsh_exact(state)
        for i, j in SETTING_PAIRS:
            narrowed = [cell.joint_probability for cell in joint_distribution(state, i, j)]
            assert np.abs(np.subtract(narrowed, joint_table(state, i, j))).max() <= 2.3e-16
            reference = np.sum(joint_terms(state, i, j))
            assert abs(exact.correlators[(i, j)] - reference) <= 2.3e-16
