"""Dense complex linear algebra for small Hilbert spaces (dims 2, 4, 16).

Everything works on plain ``complex128`` numpy arrays. Storage is dense and
there is no eigensolver: every spectral decomposition in this package is
written down analytically. ``DEFAULT_TOL``, the absolute 1e-12, is the
package's one tolerance; only the branch-weight floor, the projector-rank
tolerance and the GRW rate floor differ from it. All functions are pure;
nothing here mutates its arguments. A state is checked once, when its
``StateVector`` is built; ``expectation`` trusts it and checks the operator.
No package code calls ``expectation``: its BLAS calls (zgemv, zdotc) may round
differently from one CPU to another, and it is the tests' reference route (the
bench rebinds ``chsh.expectation``). ``commutator_norm``'s two matrix
products make no BLAS call and no fused multiply-add: they are float64
products and sums of real and imaginary parts, so they have the same bits on
every CPU. Joint tables and exact correlators are not computed here: ``chsh``
reduces them from real cell stacks.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-12


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite, non-empty complex 2-D array, raising ValueError otherwise."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim={a.ndim}")
    if 0 in a.shape:
        raise ValueError("matrix must be non-empty")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def frobenius_norm(m) -> float:
    return float(np.linalg.norm(as_matrix(m)))


def kron(a, b) -> np.ndarray:
    """Kronecker product: entry (i*rb+k, j*cb+l) = a[i,j] * b[k,l]."""
    return np.kron(as_matrix(a), as_matrix(b))


def is_hermitian(m) -> bool:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        return False
    return frobenius_norm(a - a.conj().T) <= DEFAULT_TOL


def expectation(psi, m) -> float:
    """Real expectation value <psi| m |psi> of a Hermitian matrix.

    ``psi`` must be a finite, normalized 1-D array, such as the amplitudes
    of a ``StateVector``, which checked both when it was built; it is not
    checked again here. Raises ValueError on dimension mismatch or a
    non-finite or non-Hermitian matrix. The imaginary residue of the
    quadratic form is required to stay below 1e-12. No package code calls it:
    it is the tests' BLAS reference route, and the bench rebinds ``chsh.expectation``.
    """
    a = as_matrix(m)
    dim = len(psi)
    if a.shape != (dim, dim):
        raise ValueError(f"dimension mismatch: state dim {dim}, matrix {a.shape}")
    if not is_hermitian(a):
        raise ValueError("expectation requires a Hermitian matrix")
    value = np.vdot(psi, a @ psi)
    if abs(value.imag) > DEFAULT_TOL:
        raise ValueError(f"imaginary residue {value.imag:.3e} exceeds tolerance")
    return float(value.real)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b from float64 products and sums of the real and imaginary parts.

    Not ``a @ b``: BLAS zgemm, and numpy's SIMD complex multiply too, may fuse a
    multiply-add or reorder a sum depending on the CPU.
    """
    ar, ai = a.real[:, :, None], a.imag[:, :, None]
    br, bi = b.real, b.imag
    out = np.empty(a.shape, dtype=complex)
    out.real = (ar * br - ai * bi).sum(axis=1)
    out.imag = (ar * bi + ai * br).sum(axis=1)
    return out


def commutator_norm(m, n) -> float:
    """Frobenius norm of m@n - n@m.

    For operators lifted from disjoint tensor factors each entry of either
    product is one product of a factor entry per side, and float64 products
    and sums commute, so the products are bitwise equal and the result is
    exactly 0.0, not merely small, on every CPU.
    """
    a = as_matrix(m)
    b = as_matrix(n)
    if a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ValueError(f"commutator needs equal square matrices, got {a.shape} and {b.shape}")
    return frobenius_norm(_product(a, b) - _product(b, a))
