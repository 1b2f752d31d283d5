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
        Smallest eigenvalue found at validation (>= -PSD_TOL).
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

    Hermiticity is checked to ``HERM_TOL`` entrywise, eigenvalues below
    ``-PSD_TOL`` raise :class:`PositivityError`, and the state is flagged
    ``normalized`` when ``|trace - 1| <= NORM_TOL``.

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
    if lo < -PSD_TOL:
        raise PositivityError(
            f"state has negative eigenvalue {lo:.6e} (tolerance {PSD_TOL:.1e})"
        )
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
    trace is not 1 to ``NORM_TOL``, and ``reason``.

    ``labels`` are the 1-based labels to check, in order; default all."""
    for i in range(1, len(states) + 1) if labels is None else labels:
        s = states[i - 1]
        if not s.normalized:
            raise NormalizationError(f"state {i} has trace {s.trace!r}; {reason}")


def as_matrix(op: "PositiveOperator | np.ndarray") -> np.ndarray:
    """Matrix of a :class:`PositiveOperator` as it is, or the Hermitian part
    of a raw array checked to be square, finite and Hermitian to ``HERM_TOL``."""
    if isinstance(op, PositiveOperator):
        return op.matrix
    return as_hermitian_matrix(op)


def purity(rho: PositiveOperator) -> float:
    """``tr(rho^2)``; equals 1 exactly for normalized pure states."""
    m = as_matrix(rho)
    return float(np.sum(np.abs(m) ** 2))


def overlap(rho: PositiveOperator, sigma: PositiveOperator) -> float:
    """Two-state overlap ``tr(rho sigma)`` (real for Hermitian inputs)."""
    a, b = as_matrix(rho), as_matrix(sigma)
    if a.shape != b.shape:
        raise ShapeError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    # sum conj(b_ij) a_ij = tr(b† a) = tr(a b) for Hermitian b, in O(d^2).
    return float(np.vdot(b, a).real)


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
    """Embed a state into a larger Hilbert space by zero-padding.

    Needed e.g. to compare qubit collections against dimension-dependent
    criteria formulated in a bigger space.
    """
    d0 = rho.dim
    if dim < d0:
        raise ShapeError(f"cannot embed dimension {d0} into smaller dimension {dim}")
    out = np.zeros((dim, dim), dtype=complex)
    out[:d0, :d0] = rho.matrix
    return validate_state(out)


# --------------------------------------------------------------------------
# Bloch vectors
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BlochVector:
    """Real coefficient vector of a state in a traceless Hermitian basis.

    ``pauli`` convention (qubits only): rho = (I + <r, P>)/2 with
    P = (X, Y, Z), so r has length 3 and |r| <= 1 for normalized states.

    ``orthonormal`` convention (any d): r_a = tr(rho T_a) over the
    orthonormal traceless basis of :func:`traceless_hermitian_basis`,
    giving length d^2 - 1 and the identity
    ``tr(rho_i rho_j) = 1/d + <r_i, r_j>`` for normalized states.
    """

    dim: int
    components: np.ndarray
    convention: str


def traceless_hermitian_basis(dim: int) -> np.ndarray:
    """Orthonormal traceless Hermitian basis of the d x d matrices.

    Enumeration order (fixed, relied upon by serialized Bloch vectors):

    1. symmetric pairs  (|j><k| + |k><j|)/sqrt(2)   for j < k, row-major;
    2. antisymmetric    -i(|j><k| - |k><j|)/sqrt(2) for j < k, same order;
    3. diagonal         (sum_{m<=l} |m><m| - l |l><l|)/sqrt(l(l+1))
                        for l = 1..d-1.

    Normalization is ``tr(T_a T_b) = delta_ab`` (not the tr = 2 delta
    convention), so Gram matrices of these coefficients reproduce
    ``tr(rho_i rho_j) - 1/d`` directly.

    Returns
    -------
    np.ndarray
        Array of shape ``(d^2 - 1, d, d)``.
    """
    if dim < 1:
        raise ShapeError("dimension must be positive")
    basis = np.zeros((dim * dim - 1, dim, dim), dtype=complex)
    idx = 0
    for j in range(dim):
        for k in range(j + 1, dim):
            basis[idx, j, k] = 1 / np.sqrt(2)
            basis[idx, k, j] = 1 / np.sqrt(2)
            idx += 1
    for j in range(dim):
        for k in range(j + 1, dim):
            basis[idx, j, k] = -1j / np.sqrt(2)
            basis[idx, k, j] = 1j / np.sqrt(2)
            idx += 1
    for level in range(1, dim):
        scale = 1 / np.sqrt(level * (level + 1))
        for m in range(level):
            basis[idx, m, m] = scale
        basis[idx, level, level] = -level * scale
        idx += 1
    return basis


def bloch_map(rho: PositiveOperator, convention: str = "pauli") -> BlochVector:
    """Bloch vector of a state under the given convention.

    ``pauli`` requires dimension 2 and returns (tr rho X, tr rho Y, tr rho Z);
    ``orthonormal`` works in any dimension.
    """
    m = as_matrix(rho)
    d = m.shape[0]
    if convention == "pauli":
        if d != 2:
            raise ShapeError(f"pauli convention requires dimension 2, got {d}")
        r = np.array(
            [
                np.trace(m @ PAULI_X).real,
                np.trace(m @ PAULI_Y).real,
                np.trace(m @ PAULI_Z).real,
            ]
        )
        return BlochVector(dim=2, components=r, convention="pauli")
    if convention == "orthonormal":
        basis = traceless_hermitian_basis(d)
        r = np.einsum("aij,ji->a", basis, m).real
        return BlochVector(dim=d, components=r, convention="orthonormal")
    raise ValueError(f"unknown Bloch convention {convention!r}")


def qubit_from_bloch(r: Sequence[float]) -> PositiveOperator:
    """Qubit state (I + <r, P>)/2 from a pauli Bloch vector; inverse of bloch_map."""
    vec = np.asarray(r, dtype=float).reshape(-1)
    if vec.shape != (3,):
        raise ShapeError(f"pauli Bloch vector must have 3 components, got {vec.shape}")
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
