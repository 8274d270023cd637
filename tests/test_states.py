"""Tests for the state constructors and the fixed basis layout."""

import math
import re
import warnings

import numpy as np
import pytest

from bellwigner.linalg import expectation
from bellwigner.states import (
    FULL_LAYOUT,
    StateVector,
    basis_index,
    basis_labels,
    bell_wigner_state,
    correlate_friend,
    entangled_pair,
    plus_photon,
)
from oracle import ket, ket_index

SQRT_HALF = 1 / math.sqrt(2)


def random_photon(rng):
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    return StateVector(("photon",), z / np.linalg.norm(z))


def test_layout_round_trip():
    for index in range(16):
        labels = basis_labels(FULL_LAYOUT, index)
        assert basis_index(FULL_LAYOUT, labels) == index


def test_layout_is_big_endian():
    # photon_a is the most significant bit of the composite index
    assert basis_index(FULL_LAYOUT, ("v", "F_h", "h", "F_h")) == 8
    assert basis_index(FULL_LAYOUT, ("h", "F_h", "h", "F_v")) == 1


def test_plus_photon_amplitudes():
    state = plus_photon()
    assert np.allclose(state.amplitudes, [SQRT_HALF, SQRT_HALF], atol=1e-12, rtol=0)
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)
    assert expectation(state.amplitudes, np.diag([1.0, -1.0])) == pytest.approx(0.0, abs=1e-12)


def test_correlate_friend_aligned_on_plus():
    state = correlate_friend(plus_photon())
    amps = state.amplitudes
    assert state.subsystems == ("photon", "friend")
    assert amps[ket_index("h", "F_h")] == pytest.approx(SQRT_HALF, abs=1e-12)
    assert amps[ket_index("v", "F_v")] == pytest.approx(SQRT_HALF, abs=1e-12)
    assert amps[ket_index("h", "F_v")] == 0 and amps[ket_index("v", "F_h")] == 0


def test_correlate_friend_on_basis_state():
    h = StateVector(("photon",), ket("h"))
    state = correlate_friend(h)
    assert np.array_equal(state.amplitudes, ket("h", "F_h"))


def test_correlate_friend_is_isometry():
    rng = np.random.default_rng(17)
    for _ in range(100):
        a, b = random_photon(rng), random_photon(rng)
        lifted = np.vdot(correlate_friend(a).amplitudes, correlate_friend(b).amplitudes)
        assert abs(lifted - np.vdot(a.amplitudes, b.amplitudes)) <= 1e-12


def test_correlate_friend_rejects_wrong_dim():
    with pytest.raises(ValueError):
        correlate_friend(entangled_pair())


def test_entangled_pair_amplitudes():
    state = entangled_pair()
    assert np.allclose(state.amplitudes, [0.0, SQRT_HALF, -SQRT_HALF, 0.0], atol=1e-12, rtol=0)
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_entangled_pair_is_antisymmetric_singlet():
    # swap(a, b) maps index 2i+j -> 2j+i; the singlet is its -1 eigenvector
    swap = np.zeros((4, 4), dtype=complex)
    for i in (0, 1):
        for j in (0, 1):
            swap[2 * j + i, 2 * i + j] = 1.0
    assert expectation(entangled_pair().amplitudes, swap) == pytest.approx(-1.0, abs=1e-12)


def test_bell_wigner_amplitudes():
    amps = bell_wigner_state().amplitudes
    c = math.cos(math.pi / 8) / math.sqrt(2)
    s = math.sin(math.pi / 8) / math.sqrt(2)
    assert amps[ket_index("h", "F_v", "v", "F_h")] == pytest.approx(c, abs=1e-12)
    assert amps[ket_index("h", "F_v", "v", "F_h")] == pytest.approx(0.65328, abs=5e-6)
    assert amps[ket_index("v", "F_h", "h", "F_v")] == pytest.approx(c, abs=1e-12)
    assert amps[ket_index("h", "F_v", "h", "F_v")] == pytest.approx(s, abs=1e-12)
    assert amps[ket_index("v", "F_h", "v", "F_h")] == pytest.approx(-s, abs=1e-12)
    assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)


def test_bell_wigner_support_counts():
    # Four product terms carry the state; the other 12 amplitudes are exact zeros.
    amps = bell_wigner_state().amplitudes
    assert int(np.sum(np.abs(amps) > 1e-15)) == 4
    assert int(np.sum(amps == 0)) == 12


def test_bell_wigner_lives_in_correlated_subspace():
    state = bell_wigner_state()
    projector = np.zeros((16, 16), dtype=complex)
    for labels_a in (("h", "F_v"), ("v", "F_h")):
        for labels_b in (("h", "F_v"), ("v", "F_h")):
            basis_ket = ket(*labels_a, *labels_b)
            projector += np.outer(basis_ket, basis_ket.conj())
    assert np.linalg.norm(projector @ state.amplitudes - state.amplitudes) <= 1e-12


def test_constructor_norms():
    for state in (plus_photon(), correlate_friend(plus_photon()),
                  entangled_pair(), bell_wigner_state()):
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12


def test_state_vector_validation():
    with pytest.raises(ValueError, match="norm"):
        StateVector(("photon",), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="amplitude count"):
        StateVector(("photon",), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="unknown subsystem"):
        StateVector(("detector",), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="finite"):
        StateVector(("photon",), np.array([np.inf, 0.0]))


def test_a_finite_amplitude_whose_square_overflows_is_one_norm_error():
    # 1e200 is finite and its square overflows: one ValueError, and no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^state norm 1e\+200 is not 1 within 1e-12$"):
            StateVector(("photon",), [1e200, 0])


@pytest.mark.parametrize("amplitudes", [
    [math.nan, 1.0], [-math.inf, 0.0], [math.nan, math.inf], [complex(1.0, math.nan), 0.0],
])
def test_non_finite_amplitudes_are_refused_whatever_their_norm(amplitudes):
    # the norm is nan or inf, and only then are the amplitudes scanned
    with pytest.raises(ValueError, match=r"^amplitudes must be finite$"):
        StateVector(("photon",), amplitudes)


@pytest.mark.parametrize("amplitudes, norm", [
    ([1e308, 1e308], "1.4142135623730951e+308"), ([1.5e308, 1.5e308], "inf"),
])
def test_finite_amplitudes_of_a_huge_norm_are_one_norm_error(amplitudes, norm):
    # finite amplitudes whose norm is finite or overflows to inf: a norm error either way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = rf"^state norm {re.escape(norm)} is not 1 within 1e-12$"
        with pytest.raises(ValueError, match=message):
            StateVector(("photon",), amplitudes)


def test_amplitudes_are_read_only():
    state = plus_photon()
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_serialization_document():
    doc = bell_wigner_state().to_dict()
    assert doc["layout"] == list(FULL_LAYOUT)
    assert len(doc["amplitudes"]) == 16
    restored = np.array([re + 1j * im for re, im in doc["amplitudes"]])
    assert np.array_equal(restored, bell_wigner_state().amplitudes)
