"""Dense complex matrix kernel: chained trace products and Hermitian spectra.

Matrices are plain ``numpy`` arrays of ``complex128`` (row-major).  Every entry
point checks raw arrays' shape and finiteness, and :func:`hermitian_eig` also
their Hermiticity.  States are checked once, by ``states.validate_state``.
Every product trace is read on the stack rescaled by exact powers of two
(:func:`_binary_scaled`) and scaled back once (:func:`_unscaled`).  Dimensions
of a few hundred are the intended operating range.
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
    is reproducible bit-for-bit for a fixed input order.  It is read as
    :func:`_word_trace` reads it, right at any mix of scales if in range.

    Parameters
    ----------
    matrices : sequence of array_like
        One or more square matrices of identical dimension.

    Returns
    -------
    complex
        ``tr(M1 M2 ... Mk)``.
    """
    ms = [as_complex_matrix(m) for m in matrices]
    if not ms:
        raise ValueError("chain_product_trace requires at least one matrix")
    for i, m in enumerate(ms[1:], start=2):
        if m.shape != ms[0].shape:
            raise ShapeError(f"matrix {i} has dimension {m.shape[0]}, expected {ms[0].shape[0]}")
    return _word_trace(np.array(ms), list(range(len(ms))))


def _binary_scaled(x: np.ndarray) -> tuple:
    """``(y, e, n2)`` for a stack ``x`` of finite complex matrices, (n, d, d):
    y_i = 2^-e_i x_i, e_i from ``frexp`` of the largest |Re| or |Im| entry of
    x_i, which y_i holds in [1/2, 1) (e_i = 0 for x_i = 0), and n2_i =
    ||y_i||_F^2 in [1/4, 2 d^2) unless x_i = 0.  The y_i round as the x_i do in
    range, and a quantity of degree m in x_i is 2^(m e_i) times its value on
    y_i: the one range strategy of every product trace."""
    f = x.view(float)
    e = np.frexp(np.maximum(f.max(axis=(1, 2)), -f.min(axis=(1, 2))))[1]
    y = np.ldexp(f, -e[:, None, None]).view(complex)
    return y, e, np.sum(np.abs(y) ** 2, axis=(1, 2))


def _unscaled(values, exp, what: str) -> np.ndarray:
    """``values`` times 2^``exp`` by ``np.ldexp``: exact where normal, rounded once
    below the double range; a non-finite result raises :class:`NumericError`."""
    with np.errstate(over="ignore"):
        out = np.ldexp(values, exp)
    if not np.isfinite(out).all():
        raise NumericError(f"{what} is not finite")
    return out


def _word_trace(x: np.ndarray, word: list) -> complex:
    """tr(x[i1] ... x[im]) for 0-based indices ``word`` into the stack ``x``: the
    product of the binary-scaled factors times 2^(e_i1 + ... + e_im).  Each
    partial product but the last is rescaled, exactly, by the power of two of
    its largest |Re| or |Im| entry, so no length of word leaves the range."""
    y, e, _ = _binary_scaled(x)
    acc, exp = y[word[0]], int(e[word].sum())
    for i in word[1:-1]:
        f = (acc @ y[i]).view(float)
        k = math.frexp(np.abs(f).max())[1]
        acc, exp = np.ldexp(f, -k).view(complex), exp + k
    value = complex(np.trace(acc @ y[word[-1]] if len(word) > 1 else acc))
    return complex(*_unscaled((value.real, value.imag), exp, "trace of chained product"))


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
