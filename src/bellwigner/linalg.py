"""Dense complex linear algebra for small Hilbert spaces (dims 2, 4, 16).

Everything works on plain ``complex128`` numpy arrays. Storage is dense and
there is no eigensolver: every spectral decomposition in this package is
written down analytically. ``DEFAULT_TOL``, the absolute 1e-12, is the
package's one tolerance; only the branch-weight floor, the projector-rank
tolerance and the GRW rate floor differ from it. All functions are pure;
nothing here mutates its arguments. A state is checked once, when its
``StateVector`` is built; ``expectation`` trusts it and checks the operator.
It serves ``chsh_exact``'s four products. A joint table is one stacked product
of cells checked when built, whose Hermitian check bounds its imaginary residue.
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
    quadratic form is required to stay below 1e-12.
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


def commutator_norm(m, n) -> float:
    """Frobenius norm of m@n - n@m.

    For operators lifted from disjoint tensor factors the products are
    bitwise equal, so the result is exactly 0.0, not merely small.
    """
    a = as_matrix(m)
    b = as_matrix(n)
    if a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ValueError(f"commutator needs equal square matrices, got {a.shape} and {b.shape}")
    return frobenius_norm(a @ b - b @ a)
