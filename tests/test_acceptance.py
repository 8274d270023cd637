"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``criterion N ... PASS/FAIL`` line (visible with
``pytest -s tests/test_acceptance.py`` or in the captured output of a
failure). CLI-level criteria run the real entry point in-process.
"""

import itertools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

from bellwigner.chsh import (
    SETTING_PAIRS,
    chsh_exact,
    chsh_sampled,
    classical_max,
    joint_distribution,
    report_from_setting_products,
    sample_setting_products,
)
from bellwigner.cli import main
from bellwigner.interpretations import (
    FriendScale,
    GrwParams,
    agreement_report,
    grw_exact_probability,
    grw_linear_probability,
    grw_simulate,
)
from bellwigner.observables import verify_algebra
from bellwigner.states import (
    FULL_LAYOUT,
    StateVector,
    bell_wigner_state,
    correlate_friend,
    entangled_pair,
    plus_photon,
)
from oracle import checks_by_name

SQRT_HALF = math.sqrt(2) / 2
TSIRELSON = 2 * math.sqrt(2)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    print(f"criterion {number} ({description}): PASS")


def run_cli_json(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    assert status == 0
    return json.loads(out)


def test_criterion_1_tsirelson_reproduction(capsys):
    with criterion(1, "Tsirelson reproduction"):
        start = time.perf_counter()
        doc = run_cli_json(capsys, "chsh-exact")
        elapsed = time.perf_counter() - start

        # independent oracle: two-qubit effective-subspace computation
        c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
        reduced = np.array([s, c, c, -s], dtype=complex) / math.sqrt(2)
        sz = np.diag([1.0, -1.0]).astype(complex)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        paulis = {0: sz, 1: sx}
        oracle = {
            (i, j): float(np.vdot(reduced, np.kron(paulis[i], paulis[j]) @ reduced).real)
            for i, j in SETTING_PAIRS
        }

        keys = {(1, 1): "A1B1", (1, 0): "A1B0", (0, 1): "A0B1", (0, 0): "A0B0"}
        signs = {(1, 1): 1, (1, 0): 1, (0, 1): 1, (0, 0): -1}
        for pair in SETTING_PAIRS:
            value = doc["correlators"][keys[pair]]
            assert value == pytest.approx(oracle[pair], abs=1e-9)
            assert value == pytest.approx(signs[pair] * SQRT_HALF, abs=1e-9)
        assert doc["s_value"] == pytest.approx(TSIRELSON, abs=1e-9)
        assert elapsed < 1.0


def test_criterion_2_statistical_violation(capsys):
    with criterion(2, "5-sigma violation at desk scale"):
        start = time.perf_counter()
        doc = run_cli_json(capsys, "chsh-sample", "--shots", "1000", "--seed", "42")
        assert doc["sigma_violation"] > 5

        state = bell_wigner_state()
        violations = sum(
            chsh_sampled(state, 1000, seed).sigma_violation > 5 for seed in range(100)
        )
        elapsed = time.perf_counter() - start
        assert violations >= 99
        assert elapsed < 5.0


def test_criterion_3_classical_bound(capsys):
    with criterion(3, "classical bound by enumeration"):
        doc = run_cli_json(capsys, "classical-bound")
        assert doc == {"classical_max": 2}

        assignments = list(itertools.product((-1, 1), (-1, 0, 1), (-1, 1), (-1, 0, 1)))
        assert len(assignments) == 36
        assert max(a1 * b1 + a1 * b0 + a0 * b1 - a0 * b0
                   for a0, a1, b0, b1 in assignments) == 2

        start = time.perf_counter()
        value = classical_max()
        elapsed = time.perf_counter() - start
        assert value == 2
        assert elapsed < 1e-3


def test_criterion_4_algebraic_identities(capsys):
    with criterion(4, "algebraic identities"):
        doc = run_cli_json(capsys, "verify-algebra")
        assert doc["all_passed"] is True

        checks = checks_by_name(verify_algebra())
        assert checks["A0_squared_identity"].residual <= 1e-12
        assert checks["B0_squared_identity"].residual <= 1e-12
        assert checks["A1_squared_support"].residual <= 1e-12
        assert checks["B1_squared_support"].residual <= 1e-12
        for alice in ("A0", "A1"):
            for bob in ("B0", "B1"):
                assert checks[f"commute_{alice}_{bob}"].residual == 0.0
        assert checks["noncommute_A0_A1"].residual > 0.5
        assert checks["noncommute_B0_B1"].residual > 0.5
        for label in ("A0", "A1", "B0", "B1"):
            assert checks[f"spectrum_values_{label}"].passed
            assert checks[f"spectrum_projectors_{label}"].passed


def test_criterion_5_grw_numbers(capsys):
    with criterion(5, "localization probability estimates"):
        doc = run_cli_json(capsys, "grw-prob", "--n", "100", "--t", "1e3", "--rate", "1e-16")
        assert doc["linear"] == pytest.approx(1e-11, rel=1e-6)

        atom = GrwParams(100, 1e3, 1e-16)
        assert grw_linear_probability(atom) == pytest.approx(1e-11, rel=1e-6)

        instrument = GrwParams(1e25, 1e-9, 1e-16)
        assert grw_linear_probability(instrument) == 1.0
        assert grw_exact_probability(instrument) == pytest.approx(1 - math.exp(-1), abs=1e-12)

        doc = run_cli_json(capsys, "grw-prob", "--n", "1e25", "--t", "1e-9", "--rate", "1e-16")
        assert doc["linear"] == 1.0
        assert doc["exact"] == pytest.approx(1 - math.exp(-1), abs=1e-12)


def test_criterion_6_grw_monte_carlo(capsys):
    with criterion(6, "collapse Monte Carlo consistency"):
        trials = 1_000_000
        start = time.perf_counter()
        doc = run_cli_json(capsys, "grw-sim", "--trials", str(trials), "--seed", "6")
        atom = GrwParams(100, 1e3, 1e-16)
        p_atom = grw_exact_probability(atom)
        margin = 3 * math.sqrt(p_atom * (1 - p_atom) / trials)
        assert abs(doc["collapsed_fraction"] - p_atom) <= margin

        instrument = GrwParams(1e25, 1e-9, 1e-16)
        result = grw_simulate(instrument, trials, seed=6)
        p_instrument = grw_exact_probability(instrument)
        margin = 3 * math.sqrt(p_instrument * (1 - p_instrument) / trials)
        elapsed = time.perf_counter() - start
        assert abs(result.collapsed_fraction - p_instrument) <= margin
        assert elapsed < 10.0


def test_criterion_7_interpretation_agreement(capsys):
    with criterion(7, "interpretation agreement"):
        doc = run_cli_json(capsys, "agreement", "--scale", "micro")
        micro_s = [report["s_value"] for report in doc["backends"].values()]
        assert len(micro_s) == 3
        assert max(micro_s) - min(micro_s) <= 1e-12
        for s in micro_s:
            assert s == pytest.approx(TSIRELSON, abs=1e-9)

        # oracle: Born-weighted ensemble average of chsh_exact over the
        # collapsed product branches of the four-photon state
        state = bell_wigner_state()
        oracle = {pair: 0.0 for pair in SETTING_PAIRS}
        for index in np.nonzero(np.abs(state.amplitudes) > 1e-15)[0]:
            weight = abs(state.amplitudes[index]) ** 2
            ket = np.zeros(16, dtype=complex)
            ket[index] = 1.0
            branch = chsh_exact(StateVector(FULL_LAYOUT, ket))
            for pair in SETTING_PAIRS:
                oracle[pair] += weight * branch.correlators[pair]
        oracle_s = (oracle[(1, 1)] + oracle[(1, 0)] + oracle[(0, 1)] - oracle[(0, 0)])

        doc = run_cli_json(capsys, "agreement", "--scale", "macro")
        macro_s = [report["s_value"] for report in doc["backends"].values()]
        assert max(macro_s) - min(macro_s) <= 1e-12
        for s in macro_s:
            assert s == pytest.approx(oracle_s, abs=1e-12)
            assert s == pytest.approx(SQRT_HALF, abs=1e-9)
            assert s <= 2.0

        library = agreement_report(FriendScale.macroscopic())
        assert library.all_equal


def test_criterion_8_property_suites():
    with criterion(8, "property suites"):
        # normalization of all state constructors
        for state in (plus_photon(), correlate_friend(plus_photon()),
                      entangled_pair(), bell_wigner_state()):
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12

        rng = np.random.default_rng(808)

        def random_state():
            z = rng.normal(size=16) + 1j * rng.normal(size=16)
            return StateVector(FULL_LAYOUT, z / np.linalg.norm(z))

        # joint-distribution completeness, correlator agreement, no-signalling
        probes = [bell_wigner_state()] + [random_state() for _ in range(5)]
        for state in probes:
            exact = chsh_exact(state)
            for i, j in SETTING_PAIRS:
                table = joint_distribution(state, i, j)
                assert sum(c.joint_probability for c in table) == pytest.approx(1.0, abs=1e-12)
                correlator = sum(c.a_value * c.b_value * c.joint_probability for c in table)
                assert correlator == pytest.approx(exact.correlators[(i, j)], abs=1e-12)
            for i in (0, 1):
                marginals = []
                for j in (0, 1):
                    marginal = {}
                    for cell in joint_distribution(state, i, j):
                        marginal[cell.a_value] = (
                            marginal.get(cell.a_value, 0.0) + cell.joint_probability
                        )
                    marginals.append(marginal)
                for a_value, probability in marginals[0].items():
                    assert probability == pytest.approx(
                        marginals[1].get(a_value, 0.0), abs=1e-12
                    )

        # Tsirelson ceiling over 1000 random states
        for _ in range(1000):
            assert abs(chsh_exact(random_state()).s_value) <= TSIRELSON + 1e-9

        # bit-identical reruns under fixed seeds, including parallel execution
        state = bell_wigner_state()
        serial = chsh_sampled(state, 1000, seed=99)
        assert chsh_sampled(state, 1000, seed=99) == serial

        def worker(pair):
            return pair, sample_setting_products(state, *pair, 1000, 99)

        with ThreadPoolExecutor(max_workers=4) as pool:
            chunks = dict(pool.map(worker, reversed(SETTING_PAIRS)))
        assert report_from_setting_products(chunks, 1000) == serial

        sim = grw_simulate(GrwParams(1e25, 1e-9, 1e-16), 100_000, seed=12)
        assert grw_simulate(GrwParams(1e25, 1e-9, 1e-16), 100_000, seed=12) == sim
