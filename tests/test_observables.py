"""Tests for the CHSH observables, their spectra, lifting, and the algebra checks."""

import math

import numpy as np
import pytest

from bellwigner.linalg import commutator_norm, expectation
from bellwigner.observables import (
    Observable,
    lift,
    lifted_spectrum,
    make_observable,
    verify_algebra,
)
from oracle import checks_by_name, is_projector, ket

I4 = np.eye(4, dtype=complex)


def test_a0_reads_friend_record():
    a0 = make_observable("A0")
    assert expectation(ket("h", "F_v"), a0.matrix) == pytest.approx(1.0, abs=1e-12)
    assert expectation(ket("h", "F_h"), a0.matrix) == pytest.approx(-1.0, abs=1e-12)
    assert expectation(ket("v", "F_v"), a0.matrix) == pytest.approx(1.0, abs=1e-12)


def test_a0_squared_is_identity_exactly():
    a0 = make_observable("A0")
    assert np.array_equal(a0.matrix @ a0.matrix, I4)


def test_a1_eigenvectors():
    a1 = make_observable("A1")
    phi_plus = (ket("h", "F_v") + ket("v", "F_h")) / math.sqrt(2)
    assert expectation(phi_plus, a1.matrix) == pytest.approx(1.0, abs=1e-12)
    phi_minus = (ket("h", "F_v") - ket("v", "F_h")) / math.sqrt(2)
    assert expectation(phi_minus, a1.matrix) == pytest.approx(-1.0, abs=1e-12)
    # |h,F_h> is orthogonal to both, so it sits in the kernel
    assert expectation(ket("h", "F_h"), a1.matrix) == pytest.approx(0.0, abs=1e-12)


def test_a1_squared_is_correlated_support():
    a1 = make_observable("A1")
    support = np.outer(ket("h", "F_v"), ket("h", "F_v").conj()) + np.outer(
        ket("v", "F_h"), ket("v", "F_h").conj()
    )
    assert np.linalg.norm(a1.matrix @ a1.matrix - support) <= 1e-12
    assert not is_projector(a1.matrix)
    assert is_projector(a1.matrix @ a1.matrix)


def test_bob_observables_mirror_alice():
    assert np.array_equal(make_observable("B0").matrix, make_observable("A0").matrix)
    assert np.array_equal(make_observable("B1").matrix, make_observable("A1").matrix)
    assert make_observable("B0").side == "bob" and make_observable("A0").side == "alice"


@pytest.mark.parametrize("label,values,ranks", [
    ("A0", (1.0, -1.0), (2, 2)),
    ("B0", (1.0, -1.0), (2, 2)),
    ("A1", (1.0, -1.0, 0.0), (1, 1, 2)),
    ("B1", (1.0, -1.0, 0.0), (1, 1, 2)),
])
def test_spectra_structure(label, values, ranks):
    obs = make_observable(label)
    assert tuple(v for v, _ in obs.spectrum) == values
    for (_, projector), rank in zip(obs.spectrum, ranks):
        assert is_projector(projector)
        assert np.trace(projector).real == pytest.approx(rank, abs=1e-12)
    reconstruction = sum(v * p for v, p in obs.spectrum)
    assert np.linalg.norm(reconstruction - obs.matrix) <= 1e-12
    completeness = sum(p for _, p in obs.spectrum)
    assert np.linalg.norm(completeness - I4) <= 1e-12


def test_lift_orientation():
    # Alice acts on the leading pair, Bob on the trailing pair
    full_ket = ket("h", "F_v", "v", "F_h")
    assert np.allclose(lift(make_observable("A0")) @ full_ket, full_ket, atol=1e-12)
    assert np.allclose(lift(make_observable("B0")) @ full_ket, -full_ket, atol=1e-12)
    assert np.array_equal(lift(make_observable("A0")), np.kron(make_observable("A0").matrix, I4))
    assert np.array_equal(lift(make_observable("B0")), np.kron(I4, make_observable("B0").matrix))


def test_lifted_sides_commute_exactly():
    for alice in (make_observable("A0"), make_observable("A1")):
        for bob in (make_observable("B0"), make_observable("B1")):
            assert commutator_norm(lift(alice), lift(bob)) == 0.0


def test_lifted_a1_is_traceless():
    assert np.trace(lift(make_observable("A1"))) == pytest.approx(0.0, abs=1e-12)


def test_lifted_spectrum_embeds_projectors():
    for value, projector in lifted_spectrum(make_observable("A1")):
        assert projector.shape == (16, 16)
        assert is_projector(projector)
    values = [v for v, _ in lifted_spectrum(make_observable("B1"))]
    assert values == [1.0, -1.0, 0.0]


def test_make_observable_rejects_unknown_label():
    with pytest.raises(ValueError, match="unknown observable label"):
        make_observable("C0")


def test_observable_refuses_a_label_outside_the_four():
    # verify_algebra reads the setting from the label, so a bad one must not get that far
    with pytest.raises(ValueError, match="unknown observable label 'A2'"):
        Observable("A2", I4, ((1.0, I4),))


def test_observable_side_is_the_first_letter_of_its_label():
    assert Observable("B1", I4, ((1.0, I4),)).side == "bob"
    assert Observable("A1", I4, ((1.0, I4),)).side == "alice"


def test_verify_algebra_passes_on_builtins():
    report = verify_algebra()
    assert report.all_passed
    checks = checks_by_name(report)
    identities = [name for name in checks if not name.startswith("noncommute_")]
    assert len(identities) == 20
    for name in identities:
        assert checks[name].residual == 0.0, name
    assert checks["noncommute_A0_A1"].residual > 0.5
    assert checks["noncommute_B0_B1"].residual > 0.5


def test_verify_algebra_flags_a_projector_one_ulp_off():
    good = make_observable("A1")
    (value, p_plus), *rest = good.spectrum
    moved = np.array(p_plus)
    row, col = np.argwhere(moved.real == 0.5)[0]
    moved[row, col] = np.nextafter(0.5, 1.0)
    report = verify_algebra(a1=Observable("A1", good.matrix, ((value, moved), *rest)))
    check = checks_by_name(report)["spectrum_projectors_A1"]
    assert not check.passed
    assert 0.0 < check.residual < 1e-15


def test_verify_algebra_flags_corrupted_a1():
    good = make_observable("A1")
    corrupted_matrix = np.array(good.matrix)
    corrupted_matrix[1, 2] = -corrupted_matrix[1, 2]
    corrupted = Observable("A1", corrupted_matrix, good.spectrum)
    report = verify_algebra(a1=corrupted)
    assert not report.all_passed
    assert not checks_by_name(report)["A1_squared_support"].passed


def test_verify_algebra_flags_identity_observables():
    identity = Observable("A0", I4, ((1.0, I4),))
    identity_b = Observable("B0", I4, ((1.0, I4),))
    report = verify_algebra(a0=identity, b0=identity_b)
    checks = checks_by_name(report)
    assert checks["commute_A0_B0"].passed  # trivially zero
    assert not checks["noncommute_A0_A1"].passed
    assert not report.all_passed


def test_report_document_shape():
    doc = verify_algebra().to_dict()
    assert doc["all_passed"] is True
    assert {"name", "passed", "residual"} == set(doc["checks"][0])
    assert len(doc["checks"]) == 22
