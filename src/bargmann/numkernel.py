"""Dense complex matrix kernel: chained trace products and Hermitian spectra.

Matrices are plain ``numpy`` arrays of ``complex128`` (row-major).  Every entry
point checks raw arrays' shape and finiteness, and :func:`hermitian_eig` also
their Hermiticity.  States are checked once, by ``states.validate_state``; the
word path then multiplies them unscanned through :func:`chain_product_trace`'s
product loop.  Dimensions of a few hundred are the intended operating range.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .exceptions import HermiticityError, NumericError, ShapeError

__all__ = [
    "HERM_TOL",
    "as_complex_matrix",
    "as_hermitian_matrix",
    "chain_product_trace",
    "hermitian_eig",
]

# Largest entrywise |A - A†| tolerated: about ten times double-precision
# accumulation error at the target dimensions (d <= a few hundred).
HERM_TOL = 1e-12


def as_complex_matrix(a: "np.ndarray | Iterable") -> np.ndarray:
    """Coerce input to a square complex128 matrix, rejecting NaN/Inf entries.

    Parameters
    ----------
    a : array_like
        Square matrix data.

    Returns
    -------
    np.ndarray
        A ``(d, d)`` complex array (a copy only if coercion required one).
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ShapeError("matrix dimension must be positive")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ShapeError("matrix entries must be finite (no NaN/Inf)")
    return m


def as_hermitian_matrix(a: "np.ndarray | Iterable") -> np.ndarray:
    """:func:`as_complex_matrix`, require ``max |A - A†| <= HERM_TOL`` entrywise,
    and return the exactly Hermitian part ``(A + A†)/2``."""
    m = as_complex_matrix(a)
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > HERM_TOL:
        raise HermiticityError(
            f"matrix is not Hermitian: max |A - A†| = {dev:.3e} > {HERM_TOL:.3e}"
        )
    return (m + m.conj().T) / 2.0


def chain_product_trace(matrices: Sequence[np.ndarray]) -> complex:
    """Trace of the ordered product ``M1 @ M2 @ ... @ Mk``.

    The product accumulates left-to-right with no reordering, so the result
    is reproducible bit-for-bit for a fixed input order.

    Parameters
    ----------
    matrices : sequence of array_like
        One or more square matrices of identical dimension.

    Returns
    -------
    complex
        ``tr(M1 M2 ... Mk)``.
    """
    return _product_trace([as_complex_matrix(m) for m in matrices])


def _product_trace(ms: Sequence[np.ndarray]) -> complex:
    """:func:`chain_product_trace` of square, finite matrices, not scanned."""
    if not ms:
        raise ValueError("chain_product_trace requires at least one matrix")
    acc = ms[0]
    for i, m in enumerate(ms[1:], start=2):
        if m.shape[0] != acc.shape[0]:
            raise ShapeError(
                f"matrix {i} has dimension {m.shape[0]}, expected {acc.shape[0]}"
            )
        acc = acc @ m
    value = complex(np.trace(acc))
    if not (np.isfinite(value.real) and np.isfinite(value.imag)):
        raise NumericError("trace of chained product is not finite")
    return value


def hermitian_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian part of a matrix and its spectrum.

    Parameters
    ----------
    a : array_like
        Square matrix; must satisfy ``max |A - A†| <= HERM_TOL`` entrywise.

    Returns
    -------
    (np.ndarray, np.ndarray)
        The Hermitian part ``(A + A†)/2`` and its real eigenvalues, ascending.
    """
    sym = as_hermitian_matrix(a)
    try:
        w = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"Hermitian eigensolver failed to converge: {exc}") from exc
    return sym, w
