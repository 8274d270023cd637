"""Tests for the CHSH observables, their spectra, lifting, and the algebra checks."""

import math

import numpy as np
import pytest

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


def test_verify_algebra_flags_a_projector_one_ulp_off():
    good = make_observable("A1")
    (value, p_plus), *rest = good.spectrum
    moved = np.array(p_plus)
    row, col = np.argwhere(moved.real == 0.5)[0]
    moved[row, col] = np.nextafter(0.5, 1.0)
    report = verify_algebra(a1=Observable("A1", good.matrix, ((value, moved), *rest)))
    checks = checks_by_name(report)
    assert {name: check.residual for name, check in checks.items() if not check.passed} == {
        "spectrum_reconstruction_A1": 1.1102230246251565e-16,
        "spectrum_projectors_A1": 7.850462293418876e-17,
    }


A1 = make_observable("A1")
INF_MATRIX = np.array(A1.matrix)
INF_MATRIX[1, 2] = np.inf
LARGE_MATRIX = np.array(A1.matrix)
LARGE_MATRIX[1, 2] = 1e200
OVERFLOW_MATRIX = np.array(A1.matrix)
OVERFLOW_MATRIX[1, 2] = OVERFLOW_MATRIX[2, 1] = 1e200


def large(label, *entries):
    """The built-in observable ``label`` with each of ``entries`` of its matrix set to 1e200."""
    obs = make_observable(label)
    matrix = np.array(obs.matrix)
    for entry in entries:
        matrix[entry] = 1e200
    return Observable(label, matrix, obs.spectrum)


@pytest.mark.parametrize("broken,failing,residual", [
    # checks that read A1's spectrum
    ({"a1": Observable("A1", A1.matrix, ((1.0, np.full((4, 4), np.nan)), *A1.spectrum[1:]))},
     {"spectrum_reconstruction_A1", "spectrum_values_A1", "spectrum_projectors_A1"}, math.nan),
    # checks that read A1's matrix; inf * 0 in a product would warn
    ({"a1": Observable("A1", INF_MATRIX, A1.spectrum)},
     {"A1_squared_support", "commute_A1_B0", "commute_A1_B1", "noncommute_A0_A1",
      "spectrum_reconstruction_A1"}, math.nan),
    # a finite entry whose square overflows in a norm: those norms read inf, and the
    # inter-side commutators, exactly 0.0, still pass
    ({"a1": Observable("A1", LARGE_MATRIX, A1.spectrum)},
     {"A1_squared_support", "noncommute_A0_A1", "spectrum_reconstruction_A1"}, math.inf),
    # two finite entries whose product overflows in A1 @ A1: that square reads inf too
    ({"a1": Observable("A1", OVERFLOW_MATRIX, A1.spectrum)},
     {"A1_squared_support", "noncommute_A0_A1", "spectrum_reconstruction_A1"}, math.inf),
    # both products of a commutator overflow, and inf - inf is nan: the commutator reads inf
    ({"a1": large("A1", (1, 2), (2, 1)), "b1": large("B1", (1, 2), (2, 1))},
     {"A1_squared_support", "B1_squared_support", "commute_A1_B1", "noncommute_A0_A1",
      "noncommute_B0_B1", "spectrum_reconstruction_A1", "spectrum_reconstruction_B1"}, math.inf),
    ({"a0": large("A0", (0, 0)), "b0": large("B0", (0, 0))},
     {"A0_squared_identity", "B0_squared_identity", "commute_A0_B0",
      "spectrum_reconstruction_A0", "spectrum_reconstruction_B0"}, math.inf),
    ({"a0": large("A0", (0, 1), (1, 0)), "a1": large("A1", (0, 1), (1, 0))},
     {"A0_squared_identity", "A1_squared_support", "noncommute_A0_A1",
      "spectrum_reconstruction_A0", "spectrum_reconstruction_A1"}, math.inf),
], ids=["nan_projector", "inf_matrix", "large_entry", "overflowed_product",
        "overflowed_A1_B1_commutator", "overflowed_A0_B0_commutator",
        "overflowed_A0_A1_commutator"])
def test_verify_algebra_reports_a_non_finite_entry(broken, failing, residual):
    # no exception, and no warning: the suite turns warnings into errors
    checks = checks_by_name(verify_algebra(**broken))
    assert {name for name, check in checks.items() if not check.passed} == failing
    for name in failing:
        assert repr(checks[name].residual) == repr(residual)
    assert len(checks) == 22


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
    assert {name: check.residual for name, check in checks.items() if not check.passed} == {
        "noncommute_A0_A1": 0.0, "noncommute_B0_B1": 0.0,
        "spectrum_values_A0": 1.0, "spectrum_values_B0": 1.0,
    }
    assert not report.all_passed


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


def noncommute_residuals(x, y):
    """(residual, lifted norm) of both noncommute checks, with x and y as each side's
    settings 0 and 1: verify_algebra's residual next to the 16x16 commutator norm."""
    a0, a1, b0, b1 = (Observable(label, m, ((1.0, I4),))
                      for label, m in zip(OBSERVABLE_LABELS, (x, y, x, y)))
    checks = checks_by_name(verify_algebra(a0, a1, b0, b1))
    return [(checks[f"noncommute_{f.label}_{s.label}"].residual, commutator_norm(lift(f), lift(s)))
            for f, s in ((a0, a1), (b0, b1))]


def test_noncommute_residual_is_the_lifted_commutator_norm():
    # ||[X (x) I4, Y (x) I4]|| = 2 ||[X, Y]||, bit for bit where every sum of squares is
    # exact: the built-ins (entries 0, +-1/2, 1) and integer entries
    builtins = [make_observable(label).matrix for label in ("A0", "A1")]
    assert noncommute_residuals(*builtins) == [(5.656854249492381, 5.656854249492381)] * 2
    rng = np.random.default_rng(13)
    for _ in range(10):
        x, y = (m + m.T for m in rng.integers(-4, 5, size=(2, 4, 4)).astype(float))
        for residual, lifted in noncommute_residuals(x, y):
            assert residual == lifted
    # Gaussian entries: the 4x4 and 16x16 norms sum their squares in different orders
    for _ in range(10):
        x, y = (m + m.T for m in rng.normal(size=(2, 4, 4)))
        for residual, lifted in noncommute_residuals(x, y):
            assert abs(residual - lifted) <= 2 * np.spacing(lifted)
