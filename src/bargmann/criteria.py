"""Commutativity and set-coherence criteria built from multivariate traces.

The central test: two positive (or merely Hermitian) operators commute if
and only if tr(A^2 B^2) = tr(ABAB).  The difference of the two traces equals
half the squared Hilbert-Schmidt norm of the commutator [A, B], so it is
nonnegative and vanishes exactly at commutativity; it is computed directly
as 1/2 ||AB - BA||_F^2, so it stays >= 0 in floating point.  Raw arrays must
be Hermitian to ``states.HERM_TOL``.  A collection of states is *set
incoherent* (jointly diagonalizable) iff every pair passes.

The remaining criteria here are one-sided or dimension-specific companions:
overlap-polytope facets on three states, Gram-matrix rank of Bloch vectors
(from the overlaps tr(rho_i rho_j) and traces alone), qubit polynomial
reductions, and an imaginarity witness bound.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateReferenceError,
    NumericError,
    NumericInconsistencyError,
    ShapeError,
)
from .invariants import bargmann_invariant
from .states import BlochVector, PositiveOperator, as_matrix, purity

__all__ = [
    "COMMUTE_TOL",
    "FACET_TOL",
    "IM_ERROR_TOL",
    "SET_INCOHERENT",
    "SET_COHERENT",
    "PairGap",
    "CoherenceReport",
    "QubitCriterionResult",
    "GramRankReport",
    "FacetReport",
    "ImaginarityWitness",
    "commutator_gap",
    "set_coherence_decide",
    "reduced_set_coherence",
    "qubit_delta1122",
    "qubit_delta1212",
    "qubit_criterion",
    "qubit_fourth_order",
    "gram_bloch",
    "gram_rank_criterion",
    "c3_facet_check",
    "winc_membership",
    "imaginarity_witness",
]

# Gap threshold is meaningful on an absolute scale: the gap equals half the
# squared Hilbert-Schmidt norm of the commutator, and states have trace <= 1.
COMMUTE_TOL = 1e-10
FACET_TOL = 1e-9
# tr(ABAB) is real for Hermitian A, B; an imaginary part above IM_ERROR_TOL
# ||A||_F^2 ||B||_F^2 (>= ||AB||_F^2 >= |tr(ABAB)|) is not rounding.
IM_ERROR_TOL = 1e-8

SET_INCOHERENT = "set_incoherent"
SET_COHERENT = "set_coherent"

# JSON form of a report field: scalars pass through, tuples and arrays become
# lists, complex numbers {"re", "im"}.
_TO_JSON = {
    tuple: list,
    np.ndarray: np.ndarray.tolist,
    complex: lambda z: {"re": z.real, "im": z.imag},
}


def _json_value(value):
    convert = _TO_JSON.get(type(value))
    return value if convert is None else convert(value)


class _Report:
    """``to_dict``: a dataclass's fields in declaration order, as JSON values.

    Subclasses override ``to_dict`` only for a key they omit or rename.
    ``EstimateResult`` (a complex as ``re``/``im``, the word as text) and
    ``GapEstimate`` (two estimates nested under new keys) write their own.
    """

    def to_dict(self) -> dict:
        return {k: _json_value(v) for k, v in vars(self).items()}


@dataclass(frozen=True)
class PairGap(_Report):
    """Fourth-order invariant gap of one pair of operators.

    ``gap = 1/2 ||AB - BA||_F^2`` is computed directly, so ``gap >= 0``
    always; it equals ``delta_llkk - delta_lklk`` in exact arithmetic and is
    0 exactly when the pair commutes.  ``indices`` are 1-based state labels.
    """

    indices: tuple[int, int]
    delta_llkk: float
    delta_lklk: float
    gap: float
    commutes: bool


@dataclass(frozen=True)
class CoherenceReport(_Report):
    """Pairwise gap table and overall verdict for a state collection.

    ``mode`` is ``"full"`` (all n(n-1)/2 pairs) or ``"reduced"`` (only the
    n-1 pairs against one reference, recorded in ``reference``).
    ``invariant_count`` counts the fourth-order invariants evaluated (two per
    pair).
    """

    n: int
    pairs: tuple[PairGap, ...]
    verdict: str
    mode: str
    invariant_count: int
    reference: int | None = None

    def to_dict(self) -> dict:
        out = {**super().to_dict(), "pairs": [p.to_dict() for p in self.pairs]}
        if self.reference is None:
            del out["reference"]
        return out


def commutator_gap(
    op1: "PositiveOperator | np.ndarray",
    op2: "PositiveOperator | np.ndarray",
    tol: float = COMMUTE_TOL,
    indices: tuple[int, int] = (1, 2),
) -> PairGap:
    """Decide commutativity of a pair from two fourth-order traces.

    One product M = AB gives ``delta_llkk = tr(A^2 B^2) = ||M||_F^2``,
    ``delta_lklk = tr(ABAB) = sum_ij M_ij M_ji`` and
    ``gap = 1/2 ||M - M†||_F^2``; the pair commutes iff the two traces agree,
    i.e. iff the gap vanishes.  Positivity of the inputs is not required: the
    identity holds for arbitrary Hermitian operators.  |Im tr(ABAB)| above
    ``IM_ERROR_TOL ||A||_F^2 ||B||_F^2`` raises :class:`NumericInconsistencyError`;
    a non-finite tr(A^2 B^2) or gap (overflow) raises :class:`NumericError`.

    Parameters
    ----------
    op1, op2 : PositiveOperator or array_like
        Hermitian operators of equal dimension; raw arrays must be Hermitian
        to ``states.HERM_TOL`` (else :class:`HermiticityError`).
    tol : float
        Gap at or below this threshold counts as commuting.
    indices : tuple of int
        1-based labels recorded in the result.
    """
    a, b = as_matrix(op1), as_matrix(op2)
    if a.shape != b.shape:
        raise ShapeError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    m = a @ b
    m_h = m.conj().T  # = BA
    c = m - m_h
    gap = 0.5 * float(np.vdot(c, c).real)
    llkk = float(np.vdot(m, m).real)
    if not (math.isfinite(llkk) and math.isfinite(gap)):
        raise NumericError(
            f"pair invariants are not finite: tr(A^2 B^2) = {llkk}, gap = {gap}"
        )
    lklk = complex(np.vdot(m_h, m))  # vdot conjugates m_h back: sum_ij M_ji M_ij
    # Rounding in M scales with ||A||_F ||B||_F even where M cancels (orthogonal
    # A, B); as llkk <= ||A||_F^2 ||B||_F^2, the norms are needed only past llkk.
    im = abs(lklk.imag)
    if im > IM_ERROR_TOL * llkk and im > IM_ERROR_TOL * np.vdot(a, a).real * np.vdot(b, b).real:
        raise NumericInconsistencyError(
            f"tr(ABAB) should be real, found imaginary part {lklk.imag:.3e}"
        )
    return PairGap(
        indices=(int(indices[0]), int(indices[1])),
        delta_llkk=llkk,
        delta_lklk=lklk.real,
        gap=gap,
        commutes=bool(gap <= tol),
    )


def _decide(states, index_pairs, tol, mode, reference) -> CoherenceReport:
    """Gap of every 1-based (l, k) pair, the verdict and the report."""
    pairs = tuple(
        commutator_gap(states[l - 1], states[k - 1], tol=tol, indices=(l, k))
        for l, k in index_pairs
    )
    verdict = SET_INCOHERENT if all(p.commutes for p in pairs) else SET_COHERENT
    return CoherenceReport(
        n=len(states),
        pairs=pairs,
        verdict=verdict,
        mode=mode,
        reference=reference,
        invariant_count=2 * len(pairs),
    )


def set_coherence_decide(
    states: list[PositiveOperator], tol: float = COMMUTE_TOL
) -> CoherenceReport:
    """Full pairwise decision: set incoherent iff every pair commutes."""
    n = len(states)
    if n < 1:
        raise ValueError("need at least one state")
    return _decide(states, itertools.combinations(range(1, n + 1), 2), tol, "full", None)


def reduced_set_coherence(
    states: list[PositiveOperator], ref_index: int, tol: float = COMMUTE_TOL
) -> CoherenceReport:
    """Reduced decision: only the n-1 pairs against one reference state.

    When the reference has no repeated eigenvalues, commuting with it forces
    all states onto its eigenbasis, so the n-1 pairs against it decide the
    whole collection with 2(n-1) invariants instead of n(n-1).

    A set_coherent verdict is certified by its non-commuting pair.  A
    set_incoherent verdict is certified by the reference's minimum adjacent
    eigenvalue gap delta.  In its eigenbasis R = diag(r),
    ||[R, X]||_F^2 = sum_ij (r_i - r_j)^2 |X_ij|^2 >= delta^2 ||offdiag X||_F^2,
    so ||offdiag X||_F^2 <= 2 gap(R, X) / delta^2.  On an all-commuting set
    of two or more states, :class:`DegenerateReferenceError` is raised when
    delta = 0 or 2 (largest gap) / delta^2 > ``tol``.  A dimension-1
    reference has delta = inf, hence bound 0.

    Parameters
    ----------
    states : list of PositiveOperator
    ref_index : int
        1-based label of the reference state.
    tol : float
        Pair-gap commutativity threshold, and the bound the certificate must meet.
    """
    n = len(states)
    if not 1 <= ref_index <= n:
        raise ValueError(f"reference index {ref_index} out of range for {n} states")
    pairs = [(ref_index, k) for k in range(1, n + 1) if k != ref_index]
    report = _decide(states, pairs, tol, "reduced", ref_index)
    if report.verdict == SET_INCOHERENT and n > 1:
        w = states[ref_index - 1].eigenvalues
        delta = float(np.min(np.diff(w))) if w.shape[0] > 1 else math.inf
        max_gap = max((p.gap for p in report.pairs), default=0.0)
        # Python floats overflow to inf rather than raise, so a tiny delta is safe.
        bound = 2 * max_gap / delta / delta if delta > 0 else math.inf
        if bound > tol:
            raise DegenerateReferenceError(
                f"reference state {ref_index} is too near degenerate to certify the verdict: "
                f"min adjacent gap {delta:.3e}, off-diagonal bound {bound:.3e} > tol {tol:.1e}"
            )
    return report


# --------------------------------------------------------------------------
# Qubit reductions: everything collapses to polynomials in two-state overlaps
# --------------------------------------------------------------------------

def _warn_qubit_ranges(d11: float, d22: float, d12: float) -> None:
    # Estimated overlaps may fall slightly outside; warn, never raise.
    if not (0.5 - 1e-9 <= d11 <= 1 + 1e-9 and 0.5 - 1e-9 <= d22 <= 1 + 1e-9):
        warnings.warn(
            f"purities ({d11}, {d22}) outside the normalized qubit range [1/2, 1]",
            stacklevel=3,
        )
    if not -1e-9 <= d12 <= 1 + 1e-9:
        warnings.warn(
            f"overlap {d12} outside the normalized qubit range [0, 1]",
            stacklevel=3,
        )


def qubit_delta1122(d11: float, d22: float, d12: float) -> float:
    """tr(rho1^2 rho2^2) for normalized qubits, from purities and overlap."""
    _warn_qubit_ranges(d11, d22, d12)
    return d12 + 0.5 * (d11 * d22 - 1.0)


def qubit_delta1212(d11: float, d22: float, d12: float) -> float:
    """tr(rho1 rho2 rho1 rho2) for normalized qubits, from purities and overlap."""
    _warn_qubit_ranges(d11, d22, d12)
    return d12 * d12 + 0.5 * (d11 + d22 - d11 * d22 - 1.0)


@dataclass(frozen=True)
class QubitCriterionResult(_Report):
    """Residual of the qubit overlap equality and the commuting verdict."""

    residual: float
    commutes: bool


def qubit_criterion(
    d11: float, d22: float, d12: float, tol: float = COMMUTE_TOL
) -> QubitCriterionResult:
    """Commutativity test for a normalized qubit pair from second-order data.

    The pair commutes iff ``(d12 - 1/2)^2 = (d11 - 1/2)(d22 - 1/2)``; the
    residual returned is the absolute difference of the two sides, which for
    qubits coincides with the fourth-order gap.
    """
    residual = abs((d12 - 0.5) ** 2 - (d11 - 0.5) * (d22 - 0.5))
    return QubitCriterionResult(residual=residual, commutes=bool(residual <= tol))


def _vec3(r: "BlochVector | np.ndarray") -> np.ndarray:
    if isinstance(r, BlochVector):
        if r.convention != "pauli":
            raise ValueError("qubit_fourth_order requires pauli Bloch vectors")
        return np.asarray(r.components, dtype=float)
    v = np.asarray(r, dtype=float).reshape(-1)
    if v.shape != (3,):
        raise ShapeError(f"expected a 3-vector, got shape {v.shape}")
    return v


def qubit_fourth_order(
    r1: "BlochVector | np.ndarray",
    r2: "BlochVector | np.ndarray",
    r3: "BlochVector | np.ndarray",
    r4: "BlochVector | np.ndarray",
) -> complex:
    """Fourth-order invariant tr(rho1 rho2 rho3 rho4) of four qubits.

    Closed form in the pauli Bloch vectors: the real part combines the three
    pairings of the four vectors, the imaginary part is the determinant of
    (r1+r2, r2+r3, r3+r4); both divided by 8.  The determinant's orientation
    fixes the sign of the imaginary part and is validated against direct
    traces in the test suite.
    """
    v1, v2, v3, v4 = _vec3(r1), _vec3(r2), _vec3(r3), _vec3(r4)
    a0 = (
        (1.0 + v1 @ v2) * (1.0 + v3 @ v4)
        - (1.0 - v1 @ v3) * (1.0 - v2 @ v4)
        + (1.0 + v1 @ v4) * (1.0 + v2 @ v3)
    )
    b0 = float(np.linalg.det(np.column_stack([v1 + v2, v2 + v3, v3 + v4])))
    return complex(a0 / 8.0, b0 / 8.0)


# --------------------------------------------------------------------------
# Gram matrix of Bloch vectors
# --------------------------------------------------------------------------

def gram_bloch(states: list[PositiveOperator], convention: str) -> np.ndarray:
    """Gram matrix G_ij = <r_i, r_j> of the states' Bloch vectors, from overlaps.

    ``G = c (Z - t t^T / d)`` with Z_ij = tr(rho_i rho_j) and t_i = tr rho_i:
    c = 1 for ``orthonormal``, as {I/sqrt(d), T_a} is an orthonormal basis;
    c = 2 for ``pauli``, as rho = (tr rho I + <r, P>)/2.  No Bloch vector is
    built: O(n^2 d^2) time and O(n d^2) memory in any dimension.  A
    non-finite entry (overflow) raises :class:`NumericError`.
    """
    mats = [as_matrix(s) for s in states]
    if len({m.shape for m in mats}) > 1:
        raise ShapeError(f"dimension mismatch: {[m.shape[0] for m in mats]}")
    x = np.stack(mats)
    n, d = x.shape[:2]
    c = {"pauli": 2.0, "orthonormal": 1.0}.get(convention)
    if c is None:
        raise ValueError(f"unknown Bloch convention {convention!r}")
    if convention == "pauli" and d != 2:
        raise ShapeError(f"pauli convention requires dimension 2, got {d}")
    t = np.trace(x, axis1=1, axis2=2).real
    v = x.reshape(n, -1).view(np.float64)  # v_i . v_j = Re tr(rho_i rho_j†)
    gram = c * (v @ v.T - np.outer(t, t) / d)
    if not np.all(np.isfinite(gram)):
        raise NumericError("Bloch Gram matrix is not finite")
    return gram


@dataclass(frozen=True)
class GramRankReport(_Report):
    """Numerical rank of the Bloch Gram matrix against the d-1 bound.

    ``gram`` is c (Z - t t^T / d), Z_ij = tr(rho_i rho_j), t_i = tr rho_i (see
    :func:`gram_bloch`): overlaps and traces suffice, in any dimension d.
    Rank <= d-1 is necessary for joint diagonalizability in dimension d, and
    also sufficient for qubits (where rank <= 1 means collinear Bloch
    vectors).  ``verdict`` is None when the test is inconclusive (condition
    passed, d > 2).  ``gram`` is the matrix the rank was taken of.
    """

    dimension: int
    convention: str
    rank: int
    eigenvalues: np.ndarray
    bound: int
    condition_ok: bool
    sufficient: bool
    verdict: str | None
    gram: np.ndarray


def gram_rank_criterion(
    states: list[PositiveOperator],
    tol: float = FACET_TOL,
    convention: "str | None" = None,
) -> GramRankReport:
    """Rank test on the Gram matrix of Bloch vectors.

    Numerical rank counts eigenvalues above ``tol`` times the largest one.
    For qubits the verdict is conclusive either way; for d > 2 a violation
    proves set coherence while a pass proves nothing.  The rank (hence the
    verdict) does not depend on the convention, which only rescales the
    Gram matrix.
    """
    if not states:
        raise ValueError("need at least one state")
    d = states[0].dim
    if convention is None:
        convention = "pauli" if d == 2 else "orthonormal"
    g = gram_bloch(states, convention=convention)
    w = np.linalg.eigvalsh(g)
    top = float(w[-1])
    rank = int(np.sum(w > tol * top)) if top > 0 else 0
    bound = max(d - 1, 0)
    condition_ok = rank <= bound
    sufficient = d <= 2
    if not condition_ok:
        verdict = SET_COHERENT
    elif sufficient:
        verdict = SET_INCOHERENT
    else:
        verdict = None
    return GramRankReport(
        dimension=d,
        convention=convention,
        rank=rank,
        eigenvalues=w,
        bound=bound,
        condition_ok=condition_ok,
        sufficient=sufficient,
        verdict=verdict,
        gram=g,
    )


# --------------------------------------------------------------------------
# Overlap-polytope membership
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FacetReport(_Report):
    """Membership data for the three-state overlap polytope.

    Jointly diagonalizable normalized triples have overlaps in [0, 1]
    satisfying all three cyclic facet inequalities of the form
    ``z_12 + z_13 - z_23 <= 1``; ``facet_slacks`` stores 1 minus each
    signed combination.
    """

    point: tuple[float, float, float]
    facet_slacks: tuple[float, float, float]
    box_ok: bool
    member: bool


def c3_facet_check(
    z12: float, z13: float, z23: float, tol: float = FACET_TOL
) -> FacetReport:
    """Check a triple of pairwise overlaps against the three-cycle facets."""
    slacks = (
        1.0 - (+z12 + z13 - z23),
        1.0 - (+z12 - z13 + z23),
        1.0 - (-z12 + z13 + z23),
    )
    box_ok = all(-tol <= z <= 1.0 + tol for z in (z12, z13, z23))
    member = box_ok and min(slacks) >= -tol
    return FacetReport(
        point=(float(z12), float(z13), float(z23)),
        facet_slacks=tuple(float(s) for s in slacks),
        box_ok=bool(box_ok),
        member=bool(member),
    )


def winc_membership(
    z1122: float, z1212: float, tol: float = COMMUTE_TOL, normalized: bool = True
) -> bool:
    """Membership in the pair polytope {(z, z) : z in [0, 1]} (or its cone).

    With ``normalized=False`` the box constraint is dropped and only
    nonnegativity plus the equality remain, which characterizes commuting
    pairs of arbitrary unnormalized positive operators.  A NaN is never a member.
    """
    upper = 1 + tol if normalized else math.inf
    return bool(
        abs(z1122 - z1212) <= tol and -tol <= z1122 <= upper and -tol <= z1212 <= upper
    )


# --------------------------------------------------------------------------
# Imaginarity witness
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ImaginarityWitness(_Report):
    """Cauchy-Schwarz bound on the imaginary part of a third-order invariant.

    ``2 |Im tr(rho_l rho_k rho_s)| <= ||rho_l||_2 * ||[rho_k, rho_s]||_2``,
    where the commutator norm is obtained from the pair gap.  A nonzero
    ``im_delta`` witnesses set imaginarity (no basis makes all three real).
    """

    lhs: float
    rhs: float
    satisfied: bool
    im_delta: float


def imaginarity_witness(
    rho_l: PositiveOperator, rho_k: PositiveOperator, rho_s: PositiveOperator
) -> ImaginarityWitness:
    """Evaluate the imaginarity bound for an ordered state triple."""
    im_delta = bargmann_invariant([rho_l, rho_k, rho_s], (1, 2, 3)).imag
    # ||[rho_k, rho_s]||_F^2 = 2 gap >= 0 by construction.
    pair = commutator_gap(rho_k, rho_s)
    rhs = float(np.sqrt(purity(rho_l)) * np.sqrt(2.0 * pair.gap))
    lhs = 2.0 * abs(float(im_delta))
    return ImaginarityWitness(
        lhs=lhs,
        rhs=rhs,
        satisfied=bool(lhs <= rhs + 1e-10),
        im_delta=float(im_delta),
    )
