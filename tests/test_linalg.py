"""Tests for the dense real linear algebra helpers."""

import math

import numpy as np
import pytest

from bellwigner.linalg import (
    as_matrix,
    commutator_norm,
    expectation,
    frobenius_norm,
    is_hermitian,
    kron,
)

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


def kron_oracle(a, b):
    """Brute-force Kronecker product via the index definition."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb))
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def test_kron_identity():
    assert np.array_equal(kron(I2, I2), I4)


def test_kron_diagonal():
    d = np.diag([1.0, -1.0]).astype(complex)
    assert np.array_equal(kron(d, I2), np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))


def test_kron_matches_index_oracle():
    # each entry of a real kron is one rounded product, so the match is exact
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2))
        assert np.array_equal(kron(a, b), kron_oracle(a, b))


def test_kron_associative_on_integer_matrices():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b, c = (rng.integers(-3, 4, size=(2, 2)).astype(complex) for _ in range(3))
        assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))


def test_expectation_eigenvector():
    assert expectation(np.array([1.0, 0.0]), np.diag([1.0, -1.0])) == 1.0


def test_expectation_symmetric_superposition():
    r = 1 / math.sqrt(2)
    assert abs(expectation(np.array([r, r]), np.diag([1.0, -1.0]))) <= 1e-12


def test_expectation_on_four_photon_state():
    # Hand-built copies of the 16-dim state and the lifted setting-0 product,
    # kept independent of the states/observables modules on purpose.
    c = math.cos(math.pi / 8) / math.sqrt(2)
    s = math.sin(math.pi / 8) / math.sqrt(2)
    psi = np.zeros(16, dtype=complex)
    psi[6], psi[9], psi[5], psi[10] = c, c, s, -s
    side = np.diag([-1.0, 1.0, -1.0, 1.0]).astype(complex)
    product = np.kron(side, I4) @ np.kron(I4, side)
    assert expectation(psi, product) == pytest.approx(-math.sqrt(2) / 2, abs=1e-12)


def test_expectation_identity_is_one():
    rng = np.random.default_rng(23)
    for dim in (2, 4, 16):
        z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        z /= np.linalg.norm(z)
        assert expectation(z, np.eye(dim)) == pytest.approx(1.0, abs=1e-12)


def test_expectation_real_for_random_hermitian():
    # a real symmetric operator on a complex state
    rng = np.random.default_rng(37)
    for _ in range(50):
        r = rng.normal(size=(4, 4))
        h = r + r.T
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        z /= np.linalg.norm(z)
        value = expectation(z, h)
        assert isinstance(value, float)
        assert abs(np.vdot(z, h @ z).imag) <= 1e-12


def test_expectation_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        expectation(np.array([1.0, 0.0]), I4)


def test_expectation_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        expectation(np.array([1.0, 0.0]), m)


def test_commutator_self_is_zero():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(4, 4))
    assert commutator_norm(m, m) == 0.0


def test_commutator_of_disjoint_factors_exactly_zero():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = rng.normal(size=(4, 4))
        n = rng.normal(size=(4, 4))
        assert commutator_norm(kron(m, I4), kron(I4, n)) == 0.0


def test_commutator_positive_for_noncommuting_pair():
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert commutator_norm(sz, sx) > 0.5


def test_commutator_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        commutator_norm(I2, I4)


def test_structure_predicates():
    assert is_hermitian(np.diag([1.0, -1.0]))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rejects_nonfinite_entries():
    bad = np.array([[np.nan, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        frobenius_norm(bad)


def test_as_matrix_refuses_a_nonzero_imaginary_part_and_accepts_a_zero_one():
    with pytest.raises(ValueError, match="not real"):
        as_matrix(np.array([[1.0, 1e-300j], [0.0, 1.0]]))
    accepted = as_matrix(np.array([[1.0, -0.5], [-0.5, 0.0]], dtype=complex))
    assert accepted.dtype == np.float64
    assert np.array_equal(accepted, [[1.0, -0.5], [-0.5, 0.0]])
