"""Commutativity and set-coherence criteria built from multivariate traces.

The central test: two positive (or merely Hermitian) operators commute if
and only if tr(A^2 B^2) = tr(ABAB).  The difference of the two traces equals
half the squared Hilbert-Schmidt norm of the commutator [A, B], so it is
nonnegative and vanishes exactly at commutativity; it is computed directly
as 1/2 ||AB - BA||_F^2, so it stays >= 0 in floating point.  Raw arrays must
be Hermitian to ``states.HERM_TOL``.  A collection of states is *set
incoherent* (jointly diagonalizable) iff every pair passes.

Range: the pair kernel, the Bloch Gram and the imaginarity witness compute
their traces on the states rescaled by exact powers of two
(``numkernel._binary_scaled``) and scale each back once, by its degree in each
state.  ``tol`` is still compared with the scaled-back gap: an absolute test.

The remaining criteria here are one-sided or dimension-specific companions:
overlap-polytope facets on three states, Gram-matrix rank of Bloch vectors
(from the overlaps tr(rho_i rho_j) and traces alone), qubit polynomial
reductions, and an imaginarity witness bound.
"""

from __future__ import annotations

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
from .io import _Table
from .numkernel import _binary_scaled, _unscaled
from .states import BlochVector, PositiveOperator, _pauli_vector, _stacked

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
# ||A||_F^2 ||B||_F^2 (>= ||AB||_F^2 >= |tr(ABAB)|) is not rounding.  The test
# reads the binary-scaled pair, whose squared norms lie in [1/4, 2 d^2), so its
# bound never underflows to a spurious failure.
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

    Subclasses override ``to_dict`` for a key they omit, rename or store apart.
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


class _PairsField:
    """``CoherenceReport.pairs``: set to the pair table, an ``io._Table`` of
    :class:`PairGap`'s fields, or to PairGaps; read as PairGaps, built once."""

    def __get__(self, report, owner=None):
        if report is None:  # so that the field has no default
            raise AttributeError("pairs")
        if "_pairs" not in report.__dict__:
            report.__dict__["_pairs"] = tuple(map(PairGap, *report._table.columns.values()))
        return report.__dict__["_pairs"]

    def __set__(self, report, table):
        if type(table) is not _Table:  # PairGaps, as dataclasses.replace passes them
            table = _Table({k: [vars(p)[k] for p in table] for k in PairGap.__dataclass_fields__})
        report.__dict__["_table"] = table


@dataclass(frozen=True)
class CoherenceReport(_Report):
    """Pairwise gap table and overall verdict for a state collection.

    ``mode`` is ``"full"`` (all n(n-1)/2 pairs) or ``"reduced"`` (only the
    n-1 pairs against one reference, recorded in ``reference``).
    ``invariant_count`` counts the fourth-order invariants evaluated (two per
    pair).  ``pairs`` is held as the kernel's columns and becomes PairGaps on
    its first read (:class:`_PairsField`); :meth:`_payload` builds none.
    """

    n: int
    pairs: tuple[PairGap, ...] = _PairsField()
    verdict: str
    mode: str
    invariant_count: int
    reference: int | None = None

    def _payload(self) -> dict:
        """:meth:`to_dict` with the pair table as columns, for ``io.ArrayEncoder``."""
        out = {"n": self.n, "pairs": self._table, "verdict": self.verdict, "mode": self.mode,
               "invariant_count": self.invariant_count}
        return out if self.reference is None else {**out, "reference": self.reference}

    def to_dict(self) -> dict:
        return {**self._payload(), "pairs": [p.to_dict() for p in self.pairs]}


# Bytes of one chunk's product stack M = A B, (k, d, d) complex.  From the
# layer timings: a chunk is about ten numpy calls, some 20 µs of fixed cost at
# any d, while a d=4 product inside a batch costs under 1 µs, so a chunk
# should hold a few hundred small products.  It makes five such stacks: the
# gathered A and B, freed once M is formed, then M, conj(M) and C = M - M†.
# So at most three, 192 KiB, are live at once, within a 256 KiB L2 cache.
# That is 256 pairs at d=4, 64 at d=8, 4 at d=32 and one at d >= 64, where
# one product (16 d^2 bytes) fills the budget and its matmul (about 50 µs at
# d=64) outweighs the fixed cost, so large d costs what one pair at a time did.
_CHUNK_BYTES = 64 * 1024


def _pair_gaps(x, li, ki) -> tuple[list, list, list]:
    """Lists tr(A^2 B^2), Re tr(ABAB) and gap of each pair (A, B) = (x[l], x[k])
    of the stack ``x``, (n, d, d), for l, k zipped from the 0-based index
    lists or arrays ``li`` and ``ki``; errors name the pair (l + 1, k + 1).
    No :class:`PairGap` is built.

    It runs on the stack y of :func:`~bargmann.numkernel._binary_scaled`: each
    column has degree (2, 2), so it is scaled back by 2^(2(e_l + e_k)) with
    ``np.ldexp``, exactly where the result is normal, to its subnormal or 0
    below the double range, and to inf, which raises, past it.

    Each chunk of at most ``_CHUNK_BYTES // (16 d^2)`` pairs gathers its A and
    B stacks ``y[li[s:t]]`` and ``y[ki[s:t]]``, so one chunk can hold the pairs
    of several anchors (left operands).
    Each M = A B gives ``delta_llkk = tr(A^2 B^2) = ||M||_F^2``,
    the gap ``1/2 ||C||_F^2`` with C = M - M† = [A, B], and
    ``delta_lklk = tr(ABAB) = <M†, M> = ||M||_F^2 - <C, M>``: one batched
    product, then one row-wise dot product per column, all over contiguous
    stacks.  The first failing pair raises: :class:`NumericError` on a
    non-finite tr(A^2 B^2) or gap (overflow), :class:`NumericInconsistencyError`
    on |Im tr(ABAB)| above ``IM_ERROR_TOL ||A||_F^2 ||B||_F^2``, tested on the
    scaled pair and printed scaled back.
    """
    y, e, n2 = _binary_scaled(x)
    size = max(1, _CHUNK_BYTES // (16 * x[0].size))
    columns = ([], [], [])
    for s in range(0, len(li), size):
        ls, ks = li[s:s + size], ki[s:s + size]
        m = y[ls] @ y[ks]
        c = m - m.conj().swapaxes(1, 2)
        m, c = m.reshape(len(ks), -1), c.reshape(len(ks), -1)
        mf, cf = m.view(float), c.view(float)
        llkk = np.vecdot(mf, mf)
        gap = 0.5 * np.vecdot(cf, cf)
        lklk = llkk - np.vecdot(c, m)  # vecdot conjugates its first argument
        real = np.abs(lklk.imag) <= IM_ERROR_TOL * n2[ls] * n2[ks]
        with np.errstate(over="ignore"):
            llkk, re, gap, im = np.ldexp((llkk, lklk.real, gap, lklk.imag), 2 * (e[ls] + e[ks]))
        finite = np.isfinite(llkk) & np.isfinite(gap)
        if not (finite & real).all():
            j = int(np.argmin(finite & real))
            l, k = ls[j] + 1, ks[j] + 1
            if not finite[j]:
                raise NumericError(f"pair invariants are not finite: tr(A^2 B^2) = {llkk[j]}, "
                                   f"gap = {gap[j]} for pair ({l}, {k})")
            raise NumericInconsistencyError(f"tr(ABAB) should be real, found imaginary "
                                            f"part {im[j]:.3e} for pair ({l}, {k})")
        for column, chunk in zip(columns, (llkk, re, gap)):
            column += chunk.tolist()
    return columns


def commutator_gap(
    op1: "PositiveOperator | np.ndarray",
    op2: "PositiveOperator | np.ndarray",
    tol: float = COMMUTE_TOL,
) -> PairGap:
    """Decide commutativity of a pair from two fourth-order traces.

    The pair kernel of :func:`set_coherence_decide`, with no set report; the
    pair is labelled (1, 2).  One product M = AB gives ``delta_llkk =
    tr(A^2 B^2) = ||M||_F^2``, ``delta_lklk = tr(ABAB)`` and ``gap =
    1/2 ||M - M†||_F^2``; the pair commutes iff the two traces agree, i.e.
    iff the gap vanishes.  Positivity of the inputs is not required: the
    identity holds for arbitrary Hermitian operators.  |Im tr(ABAB)| above
    ``IM_ERROR_TOL ||A||_F^2 ||B||_F^2`` raises
    :class:`NumericInconsistencyError`; a non-finite tr(A^2 B^2) or gap
    (overflow) raises :class:`NumericError`.

    Parameters
    ----------
    op1, op2 : PositiveOperator or array_like
        Hermitian operators of equal dimension; raw arrays must be Hermitian
        to ``states.HERM_TOL`` (else :class:`HermiticityError`).
    tol : float
        Gap at or below this threshold counts as commuting.
    """
    (llkk,), (re,), (gap,) = _pair_gaps(_stacked([op1, op2]), [0], [1])
    return PairGap((1, 2), llkk, re, gap, gap <= tol)


def _decide(x: np.ndarray, tol, reference) -> CoherenceReport:
    """Gaps of the pairs the mode needs, the verdict and the report, for the
    stack ``x`` of :func:`_stacked`.

    With ``reference`` None (full mode) the pairs are all (l, k), l < k, in
    row-major order (``np.triu_indices``); else (reduced mode) they pair the
    state labelled ``reference`` (1-based) with every other, in order.  All of
    them go through one :func:`_pair_gaps` call as two index arrays, so its
    chunks fill across anchors (left operands); ``commutes`` is ``gap <= tol``.
    """
    n = len(x)
    if reference is None:
        li, ki = np.triu_indices(n, 1)
    else:
        li, ki = np.full(n - 1, reference - 1), np.delete(np.arange(n), reference - 1)
    columns = _pair_gaps(x, li, ki)
    commutes = [g <= tol for g in columns[2]]
    indices = list(zip((li + 1).tolist(), (ki + 1).tolist()))
    table = _Table(dict(zip(PairGap.__dataclass_fields__, (indices, *columns, commutes))))
    return CoherenceReport(n, table, SET_INCOHERENT if all(commutes) else SET_COHERENT,
                           "full" if reference is None else "reduced", 2 * len(commutes), reference)


def set_coherence_decide(
    states: list[PositiveOperator], tol: float = COMMUTE_TOL
) -> CoherenceReport:
    """Full pairwise decision: set incoherent iff every pair commutes."""
    return _decide(_stacked(states), tol, None)


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
    states : list of PositiveOperator or Hermitian array_like
        A raw reference's spectrum, if the certificate needs it, is taken
        from its Hermitian part.
    ref_index : int
        1-based label of the reference state.
    tol : float
        Pair-gap commutativity threshold, and the bound the certificate must meet.
    """
    n = len(states)
    if not 1 <= ref_index <= n:
        raise ValueError(f"reference index {ref_index} out of range for {n} states")
    x = _stacked(states)
    report = _decide(x, tol, ref_index)
    if report.verdict == SET_INCOHERENT and n > 1:
        ref = states[ref_index - 1]
        w = ref.eigenvalues if isinstance(ref, PositiveOperator) else \
            np.linalg.eigvalsh(x[ref_index - 1])
        delta = float(np.min(np.diff(w))) if w.shape[0] > 1 else math.inf
        max_gap = max(report._table.columns["gap"], default=0.0)
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
    v1, v2, v3, v4 = map(_pauli_vector, (r1, r2, r3, r4))
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
    built: O(n^2 d^2) time and O(n d^2) memory in any dimension.  Entry (i, j)
    is read on the binary-scaled stack, times 2^(e_i + e_j); overflow raises
    :class:`NumericError`.
    """
    return _gram_of(_stacked(states), convention)


def _gram_of(x: np.ndarray, convention: str) -> np.ndarray:
    """:func:`gram_bloch` of the stack ``x`` of matrices."""
    n, d = x.shape[:2]
    c = {"pauli": 2.0, "orthonormal": 1.0}.get(convention)
    if c is None:
        raise ValueError(f"unknown Bloch convention {convention!r}")
    if convention == "pauli" and d != 2:
        raise ShapeError(f"pauli convention requires dimension 2, got {d}")
    y, e, _ = _binary_scaled(x)
    t = np.trace(y, axis1=1, axis2=2).real
    v = y.reshape(n, -1).view(np.float64)  # v_i . v_j = Re tr(y_i y_j†)
    return _unscaled(c * (v @ v.T - np.outer(t, t) / d), np.add.outer(e, e), "Bloch Gram matrix")


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
    x = _stacked(states)
    d = x.shape[1]
    if convention is None:
        convention = "pauli" if d == 2 else "orthonormal"
    g = _gram_of(x, convention)
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
    """Evaluate the imaginarity bound for an ordered state triple.

    The trio y_i = 2^-e_i rho_i and its norms ||y_i||_F come from
    :func:`~bargmann.numkernel._binary_scaled`, as in the pair kernel, and lhs,
    rhs and im_delta are scaled back by 2^E, E = e_l + e_k + e_s: both sides
    of the bound scale by that power of two, exactly.
    The gap of (k, s) is the kernel's on the scaled trio (scaled back by 2^0),
    so an unscaled tr(rho_k^2 rho_s^2) past the double range, which no output
    holds, is no error.  A result past the range raises :class:`NumericError`;
    one below it rounds, once, to a subnormal or 0.

    ``satisfied`` is lhs <= rhs + 1e-10 on the scaled trio, hence
    2^-E lhs <= 2^-E rhs + 1e-10 on the given one: a slack relative to the
    operands.  Each side sums products of three entries, so its rounding is
    about d eps ||y_l||_F ||y_k||_F ||y_s||_F, and for states ||y||_F <= tr y
    < d (the largest entry of a positive matrix is on its diagonal), which
    bounds the error of the two sides by about 3 d^4 eps: below 1e-10 up to
    d = 16.
    """
    return _imaginarity(rho_l, rho_k, rho_s)[0]


def _imaginarity(rho_l, rho_k, rho_s) -> tuple[ImaginarityWitness, float]:
    """The witness and |Im tr(rho_l rho_k rho_s)| / prod ||rho||_F, read on the scaled trio."""
    y, e, n2 = _binary_scaled(_stacked([rho_l, rho_k, rho_s]))
    im = float(np.trace(y[0] @ y[1] @ y[2]).imag)
    # ||[y_k, y_s]||_F^2 = 2 gap >= 0 by construction.
    _, _, (gap,) = _pair_gaps(y, [1], [2])
    lhs, rhs = 2.0 * abs(im), math.sqrt(n2[0]) * math.sqrt(2.0 * gap)
    im_delta = float(_unscaled(im, int(e.sum()), "trace of chained product"))
    lhs_e, rhs_e = _unscaled((lhs, rhs), int(e.sum()), "imaginarity bound").tolist()
    return ImaginarityWitness(
        lhs=lhs_e, rhs=rhs_e, satisfied=bool(lhs <= rhs + 1e-10), im_delta=im_delta,
    ), abs(im) / math.prod(map(math.sqrt, n2)) if im else 0.0
