"""Validated positive operators, Bloch-vector maps, and random ensembles.

States are wrapped in :class:`PositiveOperator`, which records the trace, a
normalization flag, and the spectrum found by :func:`validate_state`, the one
place a state is checked.  Unnormalized (trace != 1) operators are accepted;
only a strictly positive trace and positive semidefiniteness are mandatory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .exceptions import NormalizationError, NumericError, PositivityError, ShapeError, TraceError
from .numkernel import HERM_TOL, as_hermitian_matrix, hermitian_eig

__all__ = [
    "HERM_TOL",
    "PSD_TOL",
    "NORM_TOL",
    "GAP_TOL",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "PositiveOperator",
    "BlochVector",
    "validate_state",
    "require_normalized",
    "as_matrix",
    "purity",
    "overlap",
    "pure_state",
    "maximally_mixed",
    "embed",
    "traceless_hermitian_basis",
    "bloch_map",
    "qubit_from_bloch",
    "haar_unitary",
    "random_state",
    "commuting_set",
    "ENSEMBLES",
]

# Tolerances: roughly an order of magnitude above double-precision
# accumulation error at the target dimensions (d <= a few hundred).
PSD_TOL = 1e-10
NORM_TOL = 1e-9
# Eigengap at or below which perfbench accepts a reduced-mode refusal.  No
# decision in this package reads it: reduced mode is decided by its
# certificate alone (criteria.reduced_set_coherence).
GAP_TOL = 1e-8

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class PositiveOperator:
    """A validated Hermitian positive-semidefinite matrix, possibly unnormalized.

    Attributes
    ----------
    matrix : np.ndarray
        The certified ``(d, d)`` matrix: the Hermitian part ``(A + A†)/2``
        of the input ``A``, whose spectrum is ``eigenvalues``.
    trace : float
        Real trace (strictly positive).
    normalized : bool
        Whether ``|trace - 1| <= NORM_TOL`` held at validation; operations
        that need unit trace check it with :func:`require_normalized`.
    psd_slack : float
        Smallest eigenvalue found at validation (>= -PSD_TOL max(1, spectral radius)).
    eigenvalues : np.ndarray
        Ascending spectrum found at validation.
    """

    matrix: np.ndarray
    trace: float
    normalized: bool
    psd_slack: float
    eigenvalues: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


def validate_state(matrix: np.ndarray) -> PositiveOperator:
    """Validate a matrix as a (possibly unnormalized) quantum state.

    Hermiticity is checked to ``HERM_TOL`` per unit of entry size
    (:func:`~bargmann.numkernel.as_hermitian_matrix`), eigenvalues below
    ``-PSD_TOL max(1, r)``, r the spectral radius, raise :class:`PositivityError`,
    and the state is flagged ``normalized`` when ``|trace - 1| <= NORM_TOL``.
    ``eigvalsh`` is backward stable, so by Weyl's inequality each eigenvalue
    is off by at most about d eps r: the bound scales as rounding does, and
    at unit trace (r <= 1) it is ``PSD_TOL``.

    Parameters
    ----------
    matrix : array_like
        Square complex matrix.

    Returns
    -------
    PositiveOperator
    """
    m, w = hermitian_eig(matrix)
    lo = float(w[0])
    bound = PSD_TOL * max(1.0, -lo, float(w[-1]))  # w ascends: r = max(-w[0], w[-1])
    if lo < -bound:
        raise PositivityError(f"state has negative eigenvalue {lo:.6e} (tolerance {bound:.1e})")
    with np.errstate(over="ignore"):
        tr = float(np.trace(m).real)
    if not math.isfinite(tr):
        raise NumericError(f"state trace overflows the double range: {tr}")
    if tr <= 0:
        raise TraceError(f"state trace must be positive, got {tr:.6e}")
    return PositiveOperator(
        matrix=m,
        trace=tr,
        normalized=bool(abs(tr - 1.0) <= NORM_TOL),
        psd_slack=lo,
        eigenvalues=w,
    )


def require_normalized(
    states: Sequence[PositiveOperator], reason: str, labels: "Iterable[int] | None" = None
) -> None:
    """Raise :class:`NormalizationError`, naming the first state (1-based) whose
    trace is not 1 to ``NORM_TOL``, or which is a raw array and so has no
    certified trace, and ``reason``.

    ``labels`` are the 1-based labels to check, in order; default all."""
    for i in range(1, len(states) + 1) if labels is None else labels:
        s = states[i - 1]
        if not isinstance(s, PositiveOperator):
            raise NormalizationError(f"state {i} is a raw array, not a validated state; {reason}")
        if not s.normalized:
            raise NormalizationError(f"state {i} has trace {s.trace!r}; {reason}")


def as_matrix(op: "PositiveOperator | np.ndarray") -> np.ndarray:
    """Matrix of a :class:`PositiveOperator` as it is, or the Hermitian part
    of a raw array checked to be square, finite and Hermitian to ``HERM_TOL``."""
    if isinstance(op, PositiveOperator):
        return op.matrix
    return as_hermitian_matrix(op)


def _stacked(states: "Sequence[PositiveOperator | np.ndarray]") -> np.ndarray:
    """The states' matrices as one (n, d, d) stack: at least one state, each
    raw array checked once, all of one dimension."""
    if len(states) == 0:
        raise ValueError("need at least one state")
    mats = [as_matrix(s) for s in states]
    if len({m.shape for m in mats}) > 1:
        raise ShapeError(f"dimension mismatch: {[m.shape[0] for m in mats]}")
    return np.array(mats)


def purity(rho: PositiveOperator) -> float:
    """``tr(rho^2)``; 1 exactly for normalized pure states; NumericError past the double range."""
    with np.errstate(over="ignore"):
        value = float(np.sum(np.abs(as_matrix(rho)) ** 2))
    if not math.isfinite(value):
        raise NumericError("purity is not finite")
    return value


def overlap(rho: PositiveOperator, sigma: PositiveOperator) -> float:
    """Overlap ``tr(rho sigma)`` (real for Hermitian inputs); NumericError past the double range."""
    a, b = as_matrix(rho), as_matrix(sigma)
    if a.shape != b.shape:
        raise ShapeError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    # sum conj(b_ij) a_ij = tr(b† a) = tr(a b) for Hermitian b, in O(d^2).
    value = float(np.vdot(b, a).real)  # nan, and no warning, past the double range
    if not math.isfinite(value):
        raise NumericError("overlap is not finite")
    return value


def pure_state(vector: Sequence[complex]) -> PositiveOperator:
    """Projector ``|v><v| / <v|v>`` onto the given (unnormalized) ket."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise ValueError("cannot build a projector from the zero vector")
    v = v / nrm
    return validate_state(np.outer(v, v.conj()))


def maximally_mixed(dim: int) -> PositiveOperator:
    """The state ``I/d``."""
    return validate_state(np.eye(dim, dtype=complex) / dim)


def embed(rho: PositiveOperator, dim: int) -> PositiveOperator:
    """Zero-pad a state (or a Hermitian raw array) into a larger Hilbert space.

    Needed e.g. to compare qubit collections against dimension-dependent
    criteria formulated in a bigger space.
    """
    m = as_matrix(rho)
    if dim < len(m):
        raise ShapeError(f"cannot embed dimension {len(m)} into smaller dimension {dim}")
    return validate_state(np.pad(m, (0, dim - len(m))))


# --------------------------------------------------------------------------
# Bloch vectors
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BlochVector:
    """Real coefficient vector of a state in a traceless Hermitian basis.

    ``pauli`` convention (qubits only): rho = (tr rho I + <r, P>)/2 with
    P = (X, Y, Z), so r has length 3 and |r| <= 1 for normalized states.

    ``orthonormal`` convention (any d): r_a = tr(rho T_a) over the
    orthonormal traceless basis of :func:`traceless_hermitian_basis`,
    giving length d^2 - 1 and the identity
    ``tr(rho_i rho_j) = tr rho_i tr rho_j / d + <r_i, r_j>``, which is
    ``1/d + <r_i, r_j>`` for normalized states;
    :func:`~bargmann.criteria.gram_bloch` builds the Bloch Gram from it.
    """

    dim: int
    components: np.ndarray
    convention: str


def _traceless_coefficients(x: np.ndarray) -> np.ndarray:
    """Coefficients tr(T_a X) over the last two axes of a matrix or a stack.

    In the order of :func:`traceless_hermitian_basis`, with j < k row-major:
    (X_jk + X_kj)/sqrt(2), then i(X_jk - X_kj)/sqrt(2), then for
    l = 1..d-1 (sum_{m<l} X_mm - l X_ll)/sqrt(l(l+1)), from one ``cumsum``.
    O(d^2) time and memory per matrix.
    """
    j, k = np.triu_indices(x.shape[-1], 1)
    upper, lower, s = x[..., j, k], x[..., k, j], 1 / np.sqrt(2)
    diag = np.diagonal(x, axis1=-2, axis2=-1)
    l = np.arange(1, x.shape[-1])
    levels = (np.cumsum(diag, axis=-1)[..., :-1] - l * diag[..., 1:]) * (1 / np.sqrt(l * (l + 1)))
    return np.concatenate([(upper + lower) * s, 1j * (upper - lower) * s, levels], axis=-1)


def traceless_hermitian_basis(dim: int) -> np.ndarray:
    """Orthonormal traceless Hermitian basis of the d x d matrices.

    Enumeration order (fixed, relied upon by serialized Bloch vectors):

    1. symmetric pairs  (|j><k| + |k><j|)/sqrt(2)   for j < k, row-major;
    2. antisymmetric    -i(|j><k| - |k><j|)/sqrt(2) for j < k, same order;
    3. diagonal         (sum_{m<l} |m><m| - l |l><l|)/sqrt(l(l+1))
                        for l = 1..d-1.

    Normalization is ``tr(T_a T_b) = delta_ab`` (not the tr = 2 delta
    convention), so Gram matrices of these coefficients reproduce
    ``tr(rho_i rho_j) - 1/d`` directly.  No Bloch map builds it: entry
    (j, i) of T_a is tr(T_a E_ij), the coefficient of the matrix unit E_ij.

    Returns
    -------
    np.ndarray
        Array of shape ``(d^2 - 1, d, d)``.
    """
    if dim < 1:
        raise ShapeError("dimension must be positive")
    units = np.eye(dim * dim).reshape(dim, dim, dim, dim)
    return _traceless_coefficients(units).transpose(2, 1, 0)


def bloch_map(rho: PositiveOperator, convention: str = "pauli") -> BlochVector:
    """Bloch vector of a state under the given convention.

    ``pauli`` requires dimension 2 and returns (tr rho X, tr rho Y, tr rho Z)
    = (2 Re rho_01, -2 Im rho_01, rho_00 - rho_11); ``orthonormal`` works in
    any dimension.  Both read the entries in closed form, in O(d^2) time and
    memory; no basis is built.
    """
    m = as_matrix(rho)
    d = m.shape[0]
    if convention == "pauli":
        if d != 2:
            raise ShapeError(f"pauli convention requires dimension 2, got {d}")
        r = np.array([2 * m[0, 1].real, -2 * m[0, 1].imag, (m[0, 0] - m[1, 1]).real])
        return BlochVector(dim=2, components=r, convention="pauli")
    if convention == "orthonormal":
        r = _traceless_coefficients(m).real
        return BlochVector(dim=d, components=r, convention="orthonormal")
    raise ValueError(f"unknown Bloch convention {convention!r}")


def _pauli_vector(r: "BlochVector | Sequence[float]") -> np.ndarray:
    """The 3-vector of a pauli :class:`BlochVector` or of a 3-sequence."""
    if isinstance(r, BlochVector):
        if r.convention != "pauli":
            raise ValueError(f"requires pauli Bloch vectors, got the {r.convention} convention")
        r = r.components
    v = np.asarray(r, dtype=float).reshape(-1)
    if v.shape != (3,):
        raise ShapeError(f"expected a 3-vector, got shape {v.shape}")
    return v


def qubit_from_bloch(r: "BlochVector | Sequence[float]") -> PositiveOperator:
    """Qubit state (I + <r, P>)/2 from a pauli :class:`BlochVector` or its 3
    components; inverse of ``bloch_map(rho, "pauli")`` for unit-trace rho."""
    vec = _pauli_vector(r)
    nrm = float(np.linalg.norm(vec))
    if nrm > 1 + 1e-12:
        raise PositivityError(f"Bloch vector norm {nrm:.12f} exceeds 1")
    m = 0.5 * (
        np.eye(2, dtype=complex)
        + vec[0] * PAULI_X
        + vec[1] * PAULI_Y
        + vec[2] * PAULI_Z
    )
    # |r| <= 1 + 1e-12 keeps both eigenvalues (1 -+ |r|)/2 above about -5e-13,
    # well inside PSD_TOL.
    return validate_state(m)


# --------------------------------------------------------------------------
# Random ensembles (all deterministic given the generator)
# --------------------------------------------------------------------------

ENSEMBLES = ("ginibre_mixed", "haar_pure", "random_diagonal")


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix with phase fix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    return q * phases.conj()


def random_state(dim: int, ensemble: str, rng: np.random.Generator) -> PositiveOperator:
    """Draw a normalized random state.

    Ensembles
    ---------
    ginibre_mixed
        ``G G† / tr(G G†)`` with G a ``dim x dim`` standard complex Gaussian
        matrix; full rank with probability 1.
    haar_pure
        Projector onto a normalized Gaussian vector (Haar-distributed).
    random_diagonal
        Diagonal state with a flat-Dirichlet spectrum.
    """
    if dim < 1:
        raise ShapeError("dimension must be positive")
    if ensemble == "ginibre_mixed":
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = g @ g.conj().T
        m /= np.trace(m).real
    elif ensemble == "haar_pure":
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        m = np.outer(v, v.conj())
    elif ensemble == "random_diagonal":
        m = np.diag(rng.dirichlet(np.ones(dim))).astype(complex)
    else:
        raise ValueError(f"unknown ensemble {ensemble!r}; expected one of {ENSEMBLES}")
    return validate_state(m)


def commuting_set(dim: int, n: int, rng: np.random.Generator) -> list[PositiveOperator]:
    """Draw n normalized states that are diagonal in one Haar-random basis.

    All pairwise commutators vanish (up to rounding), so the collection is
    set incoherent by construction.
    """
    if dim < 1 or n < 1:
        raise ShapeError("dimension and count must be positive")
    u = haar_unitary(dim, rng)
    out = []
    for _ in range(n):
        spectrum = rng.dirichlet(np.ones(dim))
        m = (u * spectrum) @ u.conj().T
        out.append(validate_state(m))
    return out
