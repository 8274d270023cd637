"""Dense real linear algebra for small Hilbert spaces (dims 2, 4, 16).

Operators are real ``float64`` arrays (``as_real`` refuses a nonzero imaginary
part); states stay complex. Storage is dense and there is no eigensolver:
every spectral decomposition in this package is written down analytically.
``DEFAULT_TOL``, the absolute 1e-12, is the package's one tolerance; only the
branch-weight floor and the GRW rate floor differ from it. All functions are
pure; nothing here mutates its arguments. A state is checked once, when its
``StateVector`` is built; ``expectation`` trusts it and checks the operator. No
package code calls ``expectation``: its BLAS calls (zgemv, zdotc) may round
differently from one CPU to another, and it is the tests' reference route (the
bench rebinds ``chsh.expectation``). Every other matrix product in the package
is ``product`` and every operator norm ``frobenius_norm``: float64 products and
ufunc sums, with no BLAS call and no fused multiply-add, so the same bits on
every CPU. Joint tables and exact correlators are not computed here: ``chsh``
reduces them from real cell stacks.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_TOL = 1e-12


def as_real(m) -> np.ndarray:
    """A float64 copy of ``m``, refusing a nonzero imaginary part; finiteness is not checked."""
    a = np.asarray(m)
    if np.iscomplexobj(a) and a.imag.any():
        raise ValueError("operator is not real: an entry has a nonzero imaginary part")
    return np.array(a.real, dtype=float)


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite, non-empty real 2-D array, raising ValueError otherwise."""
    a = as_real(m)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim={a.ndim}")
    if 0 in a.shape:
        raise ValueError("matrix must be non-empty")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def frobenius_norm(m) -> float:
    a = as_matrix(m)
    return float(np.sqrt((a * a).sum()))


def kron(a, b) -> np.ndarray:
    """Kronecker product: entry (i*rb+k, j*cb+l) = a[i,j] * b[k,l]."""
    return np.kron(as_matrix(a), as_matrix(b))


def is_hermitian(m) -> bool:
    a = as_matrix(m)
    return a.shape[0] == a.shape[1] and frobenius_norm(a - a.T) <= DEFAULT_TOL


def expectation(psi, m) -> float:
    """Real expectation value <psi| m |psi> of a real symmetric matrix.

    ``psi`` must be a finite, normalized 1-D array, such as the amplitudes
    of a ``StateVector``, which checked both when it was built; it is not
    checked again here. Raises ValueError on dimension mismatch or a
    non-finite, non-real or non-symmetric matrix. The imaginary residue of the
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


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b from float64 products and a numpy sum, exact on entries 0, +-1/2, 1.

    Not ``a @ b``: BLAS dgemm may fuse a multiply-add or reorder a sum by CPU."""
    return (a[:, :, None] * b).sum(axis=1)


def commutator_norm(m, n) -> float:
    """Frobenius norm of m@n - n@m; inf, with no warning, when a product or the norm overflows.

    For operators lifted from disjoint tensor factors each entry of either
    product is one product of a factor entry per side, and float64 products
    and sums commute, so the products are bitwise equal and the result is
    exactly 0.0, not merely small, on every CPU.
    """
    a, b = as_matrix(m), as_matrix(n)
    if a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ValueError(f"commutator needs equal square matrices, got {a.shape} and {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # both products may overflow: inf - inf is nan
        diff = product(a, b) - product(b, a)
        return frobenius_norm(diff) if np.isfinite(diff).all() else math.inf
