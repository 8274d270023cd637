"""Tests for the CHSH observables, their spectra, lifting, and the algebra checks."""

import inspect
import math

import numpy as np
import pytest

from bellwigner import observables
from bellwigner.linalg import commutator_norm, expectation
from bellwigner.observables import (
    OBSERVABLE_LABELS,
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


def verify_with(monkeypatch, *broken: Observable):
    """``verify_algebra`` with each built-in named by a ``broken`` observable's label
    swapped for it: the report of a negative control, built by the public builder."""
    built = {label: make_observable(label) for label in OBSERVABLE_LABELS}
    built.update((obs.label, obs) for obs in broken)
    monkeypatch.setattr(observables, "make_observable", built.__getitem__)
    return verify_algebra()


def test_verify_algebra_takes_no_observable():
    # it checks the package's four observables and nothing else
    assert not inspect.signature(verify_algebra).parameters


def test_verify_algebra_flags_a_projector_one_ulp_off(monkeypatch):
    good = make_observable("A1")
    (value, p_plus), *rest = good.spectrum
    moved = np.array(p_plus)
    row, col = np.argwhere(moved.real == 0.5)[0]
    moved[row, col] = np.nextafter(0.5, 1.0)
    report = verify_with(monkeypatch, Observable("A1", good.matrix, ((value, moved), *rest)))
    checks = checks_by_name(report)
    assert {name: check.residual for name, check in checks.items() if not check.passed} == {
        "spectrum_reconstruction_A1": 1.1102230246251565e-16,
        "spectrum_projectors_A1": 7.850462293418876e-17,
    }


def test_verify_algebra_flags_corrupted_a1(monkeypatch):
    good = make_observable("A1")
    corrupted_matrix = np.array(good.matrix)
    corrupted_matrix[1, 2] = -corrupted_matrix[1, 2]
    corrupted = Observable("A1", corrupted_matrix, good.spectrum)
    report = verify_with(monkeypatch, corrupted)
    assert not report.all_passed
    assert not checks_by_name(report)["A1_squared_support"].passed


def test_verify_algebra_flags_identity_observables(monkeypatch):
    identity = Observable("A0", I4, ((1.0, I4),))
    identity_b = Observable("B0", I4, ((1.0, I4),))
    report = verify_with(monkeypatch, identity, identity_b)
    checks = checks_by_name(report)
    assert checks["commute_A0_B0"].passed  # trivially zero
    assert {name: check.residual for name, check in checks.items() if not check.passed} == {
        "noncommute_A0_A1": 0.0, "noncommute_B0_B1": 0.0,
        "spectrum_values_A0": 1.0, "spectrum_values_B0": 1.0,
    }
    assert not report.all_passed


A0 = make_observable("A0")
(_, A0_FV), (_, A0_FH) = A0.spectrum
A1 = make_observable("A1")
# maps |h,F_h> to |h,F_v>: P_fv + N and P_fh - N are still complementary orthogonal idempotents
NILPOTENT = np.zeros((4, 4))
NILPOTENT[1, 0] = 1.0
RANK_ONE = np.diag([1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("broken, failing", [
    # idempotent, orthogonal, summing to I4 and squaring to I4, but not symmetric
    (Observable("A0", A0.matrix + 2 * NILPOTENT,
                ((1.0, A0_FV + NILPOTENT), (-1.0, A0_FH - NILPOTENT))),
     {"spectrum_projectors_A0": math.sqrt(2)}),
    # the zero-outcome projector left out: the other two no longer sum to I4
    (Observable("A1", A1.matrix, A1.spectrum[:2]),
     {"spectrum_values_A1": 1.0, "spectrum_projectors_A1": math.sqrt(2)}),
    # P_fv doubled, not idempotent: (2 P_fv)^2 - 2 P_fv = 2 P_fv is the largest projector residual
    (Observable("A0", A0.matrix, ((1.0, 2 * A0_FV), (-1.0, A0_FH))),
     {"spectrum_reconstruction_A0": math.sqrt(2), "spectrum_values_A0": 2.0,
      "spectrum_projectors_A0": 2 * math.sqrt(2)}),
    # the second projector of rank 1, not 2
    (Observable("A0", A0_FV - RANK_ONE, ((1.0, A0_FV), (-1.0, RANK_ONE))),
     {"A0_squared_identity": 1.0, "spectrum_values_A0": 1.0, "spectrum_projectors_A0": 1.0}),
], ids=["oblique", "missing_zero_projector", "doubled_projector", "rank_one_projector"])
def test_verify_algebra_flags_each_broken_spectral_property(monkeypatch, broken, failing):
    checks = checks_by_name(verify_with(monkeypatch, broken))
    assert {name: check.residual for name, check in checks.items() if not check.passed} == failing


def test_report_document_shape():
    doc = verify_algebra().to_dict()
    assert doc["all_passed"] is True
    assert {"name", "passed", "residual"} == set(doc["checks"][0])
    assert len(doc["checks"]) == 22


@pytest.mark.parametrize("given", [np.array, np.ndarray.tolist], ids=["ndarray", "list"])
@pytest.mark.parametrize("where", ["matrix", "projector"])
def test_observable_refuses_an_operator_that_is_not_real(given, where):
    # a ValueError, never a TypeError or a ComplexWarning (the suite turns warnings into errors)
    imaginary = np.array(I4)
    imaginary[0, 1], imaginary[1, 0] = 0.5j, -0.5j  # Hermitian, but not real
    matrix, projector = (imaginary, I4) if where == "matrix" else (I4, imaginary)
    with pytest.raises(ValueError, match="not real"):
        Observable("A0", given(matrix), ((1.0, given(projector)),))


def test_observable_stores_a_copy_as_float64_when_every_imaginary_part_is_zero():
    real = np.eye(4)
    obs = Observable("A0", I4, ((1.0, I4.tolist()), (0.0, real)))
    for array in (obs.matrix, *(p for _, p in obs.spectrum)):
        assert array.dtype == np.float64 and not array.flags.writeable
        assert np.array_equal(array, real)
    assert real.flags.writeable  # the caller's array is copied, not frozen


def test_every_operator_the_package_builds_is_float64():
    operators = []
    for label in OBSERVABLE_LABELS:
        obs = make_observable(label)
        operators += [obs.matrix, lift(obs)]
        operators += [p for _, p in obs.spectrum] + [p for _, p in lifted_spectrum(obs)]
    assert len(operators) == 4 * 2 + 2 * (2 + 2 + 3 + 3)
    assert all(operator.dtype == np.float64 for operator in operators)


def noncommute_residuals(monkeypatch, x, y):
    """(residual, lifted norm) of both noncommute checks, with x and y as each side's
    settings 0 and 1: verify_algebra's residual next to the 16x16 commutator norm."""
    a0, a1, b0, b1 = (Observable(label, m, ((1.0, I4),))
                      for label, m in zip(OBSERVABLE_LABELS, (x, y, x, y)))
    checks = checks_by_name(verify_with(monkeypatch, a0, a1, b0, b1))
    return [(checks[f"noncommute_{f.label}_{s.label}"].residual, commutator_norm(lift(f), lift(s)))
            for f, s in ((a0, a1), (b0, b1))]


def test_noncommute_residual_is_the_lifted_commutator_norm(monkeypatch):
    # ||[X (x) I4, Y (x) I4]|| = 2 ||[X, Y]||, bit for bit where every sum of squares is
    # exact: the built-ins (entries 0, +-1/2, 1) and integer entries
    builtins = [make_observable(label).matrix for label in ("A0", "A1")]
    assert noncommute_residuals(monkeypatch, *builtins) == [(5.656854249492381,) * 2] * 2
    rng = np.random.default_rng(13)
    for _ in range(10):
        x, y = (m + m.T for m in rng.integers(-4, 5, size=(2, 4, 4)).astype(float))
        for residual, lifted in noncommute_residuals(monkeypatch, x, y):
            assert residual == lifted
    # Gaussian entries: the 4x4 and 16x16 norms sum their squares in different orders
    for _ in range(10):
        x, y = (m + m.T for m in rng.normal(size=(2, 4, 4)))
        for residual, lifted in noncommute_residuals(monkeypatch, x, y):
            assert abs(residual - lifted) <= 2 * np.spacing(lifted)
