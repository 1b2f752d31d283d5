"""Dense complex matrix kernel: chained trace products and Hermitian spectra.

Matrices are plain ``numpy`` arrays of ``complex128`` (row-major).  Every entry
point checks raw arrays' shape and finiteness, and :func:`hermitian_eig` also
their Hermiticity.  States are checked once, by ``states.validate_state``; the
word path then multiplies them unscanned through :func:`chain_product_trace`'s
product loop.  Dimensions of a few hundred are the intended operating range.
"""

from __future__ import annotations

import math
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

# Largest entrywise |A - A†| per unit of entry size (see as_hermitian_matrix):
# about ten times double-precision accumulation error at d <= a few hundred.
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
    """:func:`as_complex_matrix`, require ``max |A - A†| <= HERM_TOL max(1, a)``
    entrywise, and return the exactly Hermitian part ``(A + A†)/2``.

    The bound scales as rounding does: an entry of U diag(w) U† is a d-term
    sum off by up to about d eps lambda_max.  ``a``, the largest |Re A_ij| or
    |Im A_ij|, is within sqrt(2) of max |A_ij|, cannot overflow, and is read
    only past ``HERM_TOL``; at unit trace |A_ij| <= lambda_max <= 1, so the
    bound there is ``HERM_TOL``.  Entries past half the double range can
    overflow the check, which then raises :class:`NumericError`."""
    m = as_complex_matrix(a)
    with np.errstate(over="ignore", invalid="ignore"):
        sym = (m + m.conj().T) / 2.0
        # max |A - A†|/2; not finite wherever sym overflows.
        half_dev = float(np.max(np.abs(m - sym)))
    if not math.isfinite(half_dev):
        raise NumericError("entries past half the double range overflow (A ± A†)/2")
    if 2 * half_dev > HERM_TOL:
        bound = HERM_TOL * max(1.0, float(np.max(np.abs(m.real))), float(np.max(np.abs(m.imag))))
        if 2 * half_dev > bound:
            raise HermiticityError(
                f"matrix is not Hermitian: max |A - A†| = {2 * half_dev:.3e} > {bound:.3e}"
            )
    return sym


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
        Square matrix, Hermitian to ``HERM_TOL`` as :func:`as_hermitian_matrix` checks.

    Returns
    -------
    (np.ndarray, np.ndarray)
        The Hermitian part ``(A + A†)/2`` and its real eigenvalues, ascending;
        a spectrum past the double range raises :class:`NumericError`.
    """
    sym = as_hermitian_matrix(a)
    try:
        w = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"Hermitian eigensolver failed to converge: {exc}") from exc
    # LAPACK rescales a large finite matrix's sorted spectrum, so an overflow
    # lands at its ends.
    if not (math.isfinite(w[0]) and math.isfinite(w[-1])):
        raise NumericError("spectrum overflows the double range")
    return sym, w
