import dataclasses
import json
import math

import numpy as np
import pytest

from bargmann import criteria
from bargmann import io as bio
from bargmann.cli import main
from bargmann.criteria import (
    COMMUTE_TOL,
    SET_COHERENT,
    SET_INCOHERENT,
    c3_facet_check,
    commutator_gap,
    gram_bloch,
    gram_rank_criterion,
    imaginarity_witness,
    qubit_criterion,
    qubit_delta1122,
    qubit_delta1212,
    qubit_fourth_order,
    reduced_set_coherence,
    set_coherence_decide,
    winc_membership,
)
from bargmann.estimator import EstimatorConfig, estimate_gap
from bargmann.exceptions import (
    DegenerateReferenceError,
    HermiticityError,
    NumericError,
    NumericInconsistencyError,
    ShapeError,
)
from bargmann.fixtures import fixture, paper_check
from bargmann.invariants import bargmann_invariant
from bargmann.states import (
    PositiveOperator,
    bloch_map,
    commuting_set,
    haar_unitary,
    maximally_mixed,
    overlap,
    pure_state,
    purity,
    qubit_from_bloch,
    random_state,
    validate_state,
)


def rand_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def rand_qubit(rng, pure=False):
    r = rng.standard_normal(3)
    r /= np.linalg.norm(r)
    if not pure:
        r *= rng.uniform(0, 1)
    return qubit_from_bloch(r)


# --------------------------------------------------------------------------
# commutator gap
# --------------------------------------------------------------------------

def test_commutator_gap_reference_pair():
    pg = commutator_gap(*fixture("emc_rho_pair").states)
    assert pg.gap == pytest.approx(9 / 3200, abs=1e-13)
    assert not pg.commutes

    pg = commutator_gap(*fixture("emc_sigma_pair").states)
    assert pg.gap == pytest.approx(0.0, abs=1e-13)
    assert pg.commutes


def test_commutator_gap_self():
    rho = random_state(4, "ginibre_mixed", np.random.default_rng(1))
    pg = commutator_gap(rho, rho)
    assert pg.gap == pytest.approx(0.0, abs=1e-14)
    assert pg.commutes


def test_commutator_gap_pure_pair():
    pg = commutator_gap(pure_state([1, 0]), pure_state([1, 1]))
    assert pg.delta_llkk == pytest.approx(0.5, abs=1e-14)
    assert pg.delta_lklk == pytest.approx(0.25, abs=1e-14)
    assert pg.gap == pytest.approx(0.25, abs=1e-14)


def test_commutator_gap_accepts_plain_hermitian():
    # arbitrary observables, not positive
    a = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
    b = np.array([[0.0, 1j], [-1j, 3.0]], dtype=complex)
    pg = commutator_gap(a, b)
    comm = a @ b - b @ a
    assert pg.gap == pytest.approx(0.5 * np.linalg.norm(comm) ** 2, rel=1e-12)
    with pytest.raises(ShapeError):
        commutator_gap(a, np.eye(3))
    # a real non-symmetric matrix and its transpose are not Hermitian
    n = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0], [4.0, 0.0, 1.0]])
    with pytest.raises(HermiticityError):
        commutator_gap(n, n.T)
    # a sub-tolerance anti-Hermitian residue is dropped, as for validated
    # states: small operators do not fail the relative bound on Im tr(ABAB),
    # and 1x1 operators commute exactly
    residue = 4e-13j * np.eye(2)
    small = commutator_gap(1e-6 * a + residue, 1e-6 * b)
    assert small.gap == commutator_gap(1e-6 * a, 1e-6 * b).gap
    assert commutator_gap([[1.0 + 4.7e-18j]], [[2.0]]).gap == 0.0


def test_commutator_gap_rejects_non_finite_invariants():
    # a commuting set scaled to trace 1e100 overflows tr(A^2 B^2): an error,
    # not a NaN gap that reads as "does not commute", and no numpy overflow
    # warning ahead of it (pytest turns any RuntimeWarning into an exception)
    rng = np.random.default_rng(1)
    big = [validate_state(1e100 * s.matrix) for s in commuting_set(4, 3, rng)]
    with pytest.raises(NumericError, match="not finite"):
        commutator_gap(big[0], big[1])
    with pytest.raises(NumericError, match="not finite"):
        set_coherence_decide(big)


def test_commutator_gap_is_the_pair_of_set_coherence_decide():
    rng = np.random.default_rng(61)
    for d in (1, 2, 4, 64):
        for ops in ([random_state(d, "ginibre_mixed", rng) for _ in range(2)],
                    commuting_set(d, 2, rng)):
            for pair in (ops, [op.matrix for op in ops]):
                expected = set_coherence_decide(pair).pairs[0]
                got = commutator_gap(*pair)
                for field in dataclasses.fields(expected):
                    assert getattr(got, field.name) == getattr(expected, field.name)
    big = [validate_state(1e100 * s.matrix) for s in commuting_set(4, 2, rng)]
    with pytest.raises(NumericError, match=r"for pair \(1, 2\)$"):
        commutator_gap(*big)


def test_a_single_pair_builds_no_set_report(monkeypatch):
    pair = list(fixture("emc_rho_pair").states)
    expected = set_coherence_decide(pair).pairs[0]
    config = EstimatorConfig(shots_per_setting=100, seed=1)
    expected_estimate = estimate_gap(pair, config).to_dict()
    built = []
    report = criteria.CoherenceReport

    def counting(*args, **kwargs):
        built.append(1)
        return report(*args, **kwargs)

    monkeypatch.setattr(criteria, "CoherenceReport", counting)
    assert commutator_gap(*pair) == expected
    assert estimate_gap(pair, config).to_dict() == expected_estimate
    assert built == []


def test_a_written_coherence_report_builds_no_pair_objects(tmp_path, capsys, monkeypatch):
    # the CLI hands the kernel's columns to the encoder: it builds no PairGap;
    # the library builds the PairGaps on the first read of pairs, once
    rng = np.random.default_rng(20)
    mats = _random_set(rng, 4, 100, "mixed")
    path = tmp_path / "set.json"
    bio.save_state_set(path, [validate_state(m) for m in mats])
    built = []

    class Counting(criteria.PairGap):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(criteria, "PairGap", Counting)
    report = set_coherence_decide(mats)
    assert main(["coherence", str(path)]) == int(report.verdict == SET_COHERENT)
    capsys.readouterr()
    assert built == []
    pairs = report.pairs
    assert len(built) == 4950
    assert report.pairs is pairs and len(built) == 4950  # built once
    index_pairs = [(l, k) for l in range(1, 101) for k in range(l + 1, 101)]
    expected = _reference_pairs(mats, index_pairs)
    assert [p.indices for p in pairs] == index_pairs
    for p, (_, llkk, lklk, gap, scale) in zip(pairs, expected):
        assert abs(p.gap - gap) <= 1e-12 * scale
        assert abs(p.delta_llkk - llkk) <= 1e-12 * scale
        assert abs(p.delta_lklk - lklk) <= 1e-12 * scale
        assert p.commutes == (p.gap <= COMMUTE_TOL)
    # a report made from PairGaps, as dataclasses.replace makes one, holds them as columns
    again = dataclasses.replace(report, mode="reduced")
    assert again.pairs == pairs
    assert again.to_dict() == {**report.to_dict(), "mode": "reduced"}


def test_gap_equals_half_commutator_norm():
    rng = np.random.default_rng(40)
    for _ in range(300):
        d = int(rng.integers(2, 9))
        a, b = rand_hermitian(rng, d), rand_hermitian(rng, d)
        pg = commutator_gap(a, b)
        ref = 0.5 * np.linalg.norm(a @ b - b @ a) ** 2
        assert pg.gap >= -1e-10
        assert pg.gap == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_soundness_and_completeness_at_desk_scale():
    rng = np.random.default_rng(39)
    # commuting constructions are always judged incoherent
    for d, n in ((2, 2), (3, 3), (5, 4)):
        states = commuting_set(d, n, rng)
        assert set_coherence_decide(states).verdict == SET_INCOHERENT
    # pairs with a clearly nonzero commutator are always judged coherent
    found = 0
    while found < 50:
        d = int(rng.integers(2, 6))
        a = random_state(d, "ginibre_mixed", rng)
        b = random_state(d, "ginibre_mixed", rng)
        comm = a.matrix @ b.matrix - b.matrix @ a.matrix
        if np.linalg.norm(comm) ** 2 > 1e-6:
            found += 1
            assert set_coherence_decide([a, b]).verdict == SET_COHERENT


def test_gap_scaling_covariance():
    rng = np.random.default_rng(41)
    for trial in range(30):
        d = int(rng.integers(2, 9))
        a, b = rand_hermitian(rng, d), rand_hermitian(rng, d)
        base = commutator_gap(a, b, tol=0.0)
        for s in (0.5, 2.0, 10.0):
            for t in (0.5, 2.0, 10.0):
                scaled = commutator_gap(s * a, t * b, tol=0.0)
                assert scaled.gap == pytest.approx(
                    s * s * t * t * base.gap, rel=1e-10, abs=1e-12
                )
                assert scaled.commutes == base.commutes
        if trial < 10:
            # under 2^k every column is exactly 2^4k times the unit one, bit
            # for bit, down to its subnormal or 0, for every k where nothing
            # overflows: the kernel scales back once, with no rounding between
            unit = (base.delta_llkk, base.delta_lklk, base.gap)
            for k in range(-300, 250):
                pg = commutator_gap(2.0**k * a, 2.0**k * b, tol=0.0)
                got = (pg.delta_llkk, pg.delta_lklk, pg.gap)
                assert [v.hex() for v in got] == [math.ldexp(v, 4 * k).hex() for v in unit], k


# --------------------------------------------------------------------------
# set decisions
# --------------------------------------------------------------------------

def test_set_coherence_decide():
    rep = set_coherence_decide(list(fixture("emc_sigma_pair").states))
    assert rep.verdict == SET_INCOHERENT
    assert rep.mode == "full"
    assert len(rep.pairs) == 1
    assert rep.invariant_count == 2

    rep = set_coherence_decide(list(fixture("c4_quartet").states))
    assert rep.verdict == SET_COHERENT
    assert len(rep.pairs) == 6
    assert rep.invariant_count == 12
    # the fourth state commutes with rho_2 (its |a> component lies inside
    # rho_2's support and |b> is orthogonal to it) but not with rho_1, rho_3
    noncommuting = {(1, 4), (3, 4)}
    for pg in rep.pairs:
        assert pg.commutes == (pg.indices not in noncommuting)


def test_set_coherence_decide_singleton():
    rep = set_coherence_decide([maximally_mixed(3)])
    assert rep.verdict == SET_INCOHERENT
    assert rep.pairs == ()


def test_reduced_set_coherence_commuting_construction():
    rng = np.random.default_rng(42)
    u = haar_unitary(4, rng)
    spectrum = np.array([1 / 2, 3 / 8, 1 / 8, 0.0])
    ref = validate_state((u * spectrum) @ u.conj().T)
    others = [
        validate_state((u * rng.dirichlet(np.ones(4))) @ u.conj().T) for _ in range(3)
    ]
    rep = reduced_set_coherence([ref] + others, 1)
    assert rep.verdict == SET_INCOHERENT
    assert rep.mode == "reduced"
    assert rep.reference == 1
    assert len(rep.pairs) == 3
    assert rep.invariant_count == 6


def test_reduced_set_coherence_detects_coherence():
    states = list(fixture("emc_rho_pair").states)
    rep = reduced_set_coherence(states, 1)
    assert rep.verdict == SET_COHERENT
    assert rep.pairs[0].gap == pytest.approx(9 / 3200, abs=1e-13)


def test_reduced_set_coherence_degenerate_reference():
    states = [maximally_mixed(3), random_state(3, "ginibre_mixed", np.random.default_rng(2))]
    with pytest.raises(DegenerateReferenceError, match="min adjacent gap"):
        reduced_set_coherence(states, 1)
    with pytest.raises(ValueError):
        reduced_set_coherence(states, 5)


def test_reduced_set_coherence_refuses_an_uncertified_verdict(near_degenerate_trio):
    assert set_coherence_decide(near_degenerate_trio).verdict == SET_COHERENT
    with pytest.raises(DegenerateReferenceError, match="degenerate") as exc:
        reduced_set_coherence(near_degenerate_trio, 1)
    assert "2.000e-08" in str(exc.value)
    # a dimension-1 reference has no gap to bound by (delta = inf): decided at tol 0
    one = [maximally_mixed(1), maximally_mixed(1)]
    assert reduced_set_coherence(one, 1, tol=0.0).verdict == SET_INCOHERENT
    # a lone state has no other state to bound, so even delta = 0 decides
    assert reduced_set_coherence([maximally_mixed(3)], 1).verdict == SET_INCOHERENT


def test_reduced_matches_full_verdict():
    # against every reference, reduced mode reads the full verdict or refuses;
    # it refuses only a set_incoherent verdict, which needs the certificate
    rng = np.random.default_rng(43)
    for trial in range(20):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(2, 5))
        if trial % 2 == 0:
            states = commuting_set(d, n, rng)
        else:
            states = [random_state(d, "ginibre_mixed", rng) for _ in range(n)]
        full = set_coherence_decide(states)
        for ref in range(1, n + 1):
            try:
                reduced = reduced_set_coherence(states, ref)
            except DegenerateReferenceError:
                assert full.verdict == SET_INCOHERENT
                continue
            assert reduced.verdict == full.verdict


def test_reduced_set_coherence_certifies_a_near_degenerate_reference(near_degenerate_commuting):
    # reference eigengap 5e-9: small, but 2 * max gap / delta^2 is far below tol
    delta = np.min(np.diff(near_degenerate_commuting[0].eigenvalues))
    assert delta == pytest.approx(5e-9, rel=1e-6)
    rep = reduced_set_coherence(near_degenerate_commuting, 1)
    assert rep.verdict == SET_INCOHERENT
    assert rep.verdict == set_coherence_decide(near_degenerate_commuting).verdict


def _reference_pairs(mats, pairs):
    """(indices, tr(A^2 B^2), tr(ABAB), 1/2 ||[A, B]||_F^2, scale) per pair,
    one pair at a time; scale is ||A||_F^2 ||B||_F^2."""
    out = []
    for l, k in pairs:
        a, b = mats[l - 1], mats[k - 1]
        comm = a @ b - b @ a
        out.append(((l, k), np.trace(a @ a @ b @ b).real, np.trace(a @ b @ a @ b).real,
                    0.5 * np.vdot(comm, comm).real,
                    np.vdot(a, a).real * np.vdot(b, b).real))
    return out


def _random_set(rng, d, n, kind):
    """n Hermitian PSD matrices at traces from 1e-2 to 1e2: commuting, Ginibre,
    or commuting with one Ginibre state swapped in."""
    if kind == "ginibre":
        mats = [random_state(d, "ginibre_mixed", rng).matrix for _ in range(n)]
    else:
        mats = [s.matrix for s in commuting_set(d, n, rng)]
        if kind == "mixed":
            mats[rng.integers(n)] = random_state(d, "ginibre_mixed", rng).matrix
    return [m * 10.0 ** rng.uniform(-2, 2) for m in mats]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 64])
def test_batched_kernel_matches_a_per_pair_reference(d, monkeypatch):
    rng = np.random.default_rng(100 + d)
    for trial in range(6):
        n = int(rng.integers(2, 31 if d < 64 else 13))
        kind = ("commuting", "ginibre", "mixed")[trial % 3]
        mats = _random_set(rng, d, n, kind)
        for raw in (False, True):
            # the raw arrays are exactly Hermitian, so as_matrix keeps them as they are
            ops = mats if raw else [validate_state(m) for m in mats]
            ref_index = int(rng.integers(1, n + 1))
            for mode in ("full", "reduced"):
                if mode == "full":
                    index_pairs = [(l, k) for l in range(1, n + 1) for k in range(l + 1, n + 1)]
                    report = set_coherence_decide(ops)
                else:
                    index_pairs = [(ref_index, k) for k in range(1, n + 1) if k != ref_index]
                    try:
                        report = reduced_set_coherence(ops, ref_index)
                    except DegenerateReferenceError:
                        continue  # refused for want of a certificate, tested elsewhere
                expected = _reference_pairs(mats, index_pairs)
                assert [p.indices for p in report.pairs] == [e[0] for e in expected]
                for p, (_, llkk, lklk, gap, scale) in zip(report.pairs, expected):
                    assert abs(p.gap - gap) <= 1e-12 * scale
                    assert abs(p.delta_llkk - llkk) <= 1e-12 * scale
                    assert abs(p.delta_lklk - lklk) <= 1e-12 * scale
                    assert p.commutes == (p.gap <= COMMUTE_TOL)
                commuting = d == 1 or kind == "commuting"
                assert report.verdict == (SET_INCOHERENT if commuting else SET_COHERENT)
                assert report.invariant_count == 2 * len(index_pairs)
        # the reports, full and with the first, middle and last reference, are
        # the same field for field at one and three pairs per chunk, where
        # chunks straddle anchors and the reference
        for ref in (None, *sorted({1, (n + 1) // 2, n})):
            reports = []
            for pairs_per_chunk in (None, 1, 3):
                with monkeypatch.context() as m:
                    if pairs_per_chunk:
                        m.setattr(criteria, "_CHUNK_BYTES", pairs_per_chunk * 16 * d * d)
                    try:
                        reports.append(set_coherence_decide(mats) if ref is None
                                       else reduced_set_coherence(mats, ref))
                    except DegenerateReferenceError as exc:
                        reports.append(str(exc))
            if isinstance(reports[0], str):
                assert reports == reports[:1] * 3
            else:
                assert [r.to_dict() for r in reports[1:]] == [reports[0].to_dict()] * 2


def test_kernel_names_the_first_pair_with_an_imaginary_residue(monkeypatch):
    # diag(1, i) skipped validation, so tr(ABAB) with |+><+| is not real; it
    # is state 4 and state 5, so pairs (1, 4) and (1, 5) fail, the third and
    # fourth in pair order
    skipped = PositiveOperator(matrix=np.diag([1.0, 1.0j]), trace=1.0, normalized=False,
                               psd_slack=0.0, eigenvalues=np.ones(2))
    states = [pure_state([1, 1]), pure_state([1, 0]), pure_state([0, 1]), skipped, skipped]
    with pytest.raises(NumericInconsistencyError, match=r"for pair \(1, 4\)$"):
        set_coherence_decide(states)
    with pytest.raises(NumericInconsistencyError, match=r"for pair \(1, 4\)$"):
        reduced_set_coherence(states, 1)
    # with one more anchor in front, the first failing pair (2, 5) is the
    # eighth in full mode; chunks of 1-9 pairs put it first, last or mid-chunk
    # in chunks that span anchors 1 and 2 or 2 and 3, and in reduced mode in
    # chunks that straddle the reference
    states = [pure_state([1, 0]), *states]
    for pairs_per_chunk in range(1, 10):
        monkeypatch.setattr(criteria, "_CHUNK_BYTES", pairs_per_chunk * 64)
        with pytest.raises(NumericInconsistencyError, match=r"for pair \(2, 5\)$"):
            set_coherence_decide(states)
        with pytest.raises(NumericInconsistencyError, match=r"for pair \(2, 5\)$"):
            reduced_set_coherence(states, 2)
    with pytest.raises(ShapeError, match=r"^dimension mismatch: \[2, 2, 3\]$"):
        set_coherence_decide([pure_state([1, 0]), pure_state([0, 1]), maximally_mixed(3)])


def test_full_decision_fills_each_chunk_across_anchors(monkeypatch):
    # at d=4 a 64 KiB chunk holds 256 pairs: the 4950 pairs of n=100 take
    # ceil(4950/256) = 20 chunks, each gathering its A and its B stack, not
    # one or more chunks per anchor (99); the gathers read the binary-scaled stack
    reads = []
    binary_scaled = criteria._binary_scaled

    class Counting(np.ndarray):
        def __getitem__(self, i):
            if not isinstance(i, (int, np.integer)):
                reads.append(len(np.arange(len(self))[i]))
            return np.asarray(self)[i]

    def counting(x):
        y, e, n2 = binary_scaled(x)
        return y.view(Counting), e, n2

    monkeypatch.setattr(criteria, "_binary_scaled", counting)
    report = set_coherence_decide(_random_set(np.random.default_rng(22), 4, 100, "mixed"))
    assert len(report.pairs) == 4950 == 19 * 256 + 86
    assert reads == [256, 256] * 19 + [86, 86]


@pytest.mark.parametrize(
    "decide",
    [set_coherence_decide, lambda s: gram_bloch(s, "orthonormal"), gram_rank_criterion],
    ids=["set_coherence_decide", "gram_bloch", "gram_rank_criterion"],
)
def test_empty_state_list_is_refused_with_one_message(decide):
    with pytest.raises(ValueError, match="^need at least one state$"):
        decide([])


def test_raw_arrays_are_checked_once_per_state(hermitian_calls):
    rng = np.random.default_rng(7)
    n = 6
    mats = [rand_hermitian(rng, 3) for _ in range(n)]
    set_coherence_decide(mats)
    assert len(hermitian_calls) == n
    hermitian_calls.clear()
    reduced_set_coherence(mats, 2)
    assert len(hermitian_calls) == n
    hermitian_calls.clear()
    gram_rank_criterion(mats)
    assert len(hermitian_calls) == n
    hermitian_calls.clear()
    bargmann_invariant(mats, (1, 1, 2, 2))  # two distinct letters
    assert len(hermitian_calls) == 2
    commuting = [s.matrix for s in commuting_set(4, 5, rng)]
    hermitian_calls.clear()
    # a certified set_incoherent verdict takes the reference's spectrum
    assert reduced_set_coherence(commuting, 1).verdict == SET_INCOHERENT
    assert len(hermitian_calls) == 5
    hermitian_calls.clear()
    imaginarity_witness(*mats[:3])
    assert len(hermitian_calls) == 3
    hermitian_calls.clear()
    commutator_gap(mats[0], mats[1])
    assert len(hermitian_calls) == 2


def test_decisions_do_not_rescan_validated_states(scan_calls):
    states = commuting_set(4, 5, np.random.default_rng(45))
    scan_calls.clear()
    assert set_coherence_decide(states).verdict == SET_INCOHERENT
    assert reduced_set_coherence(states, 1).verdict == SET_INCOHERENT
    assert len(scan_calls) == 0
    bargmann_invariant(states, (1, 2, 1, 2))
    assert len(scan_calls) == 0
    estimate_gap(states[:2], EstimatorConfig(shots_per_setting=100, seed=1))
    assert len(scan_calls) == 0


def test_scaled_commuting_sets_are_incoherent():
    # trace 100: the gap is computed as a norm, not as a difference of two
    # traces of order 1e5, so rounding neither flips the verdict nor makes it
    # negative.  trace 1e4: the rounding residue in Im tr(ABAB) exceeds 1e-8
    # but is judged against ||A||_F^2 ||B||_F^2, not on an absolute scale, so
    # it raises no NumericInconsistencyError
    for trace, dim in ((100.0, 8), (1e4, 8), (1e4, 32)):
        for seed in (0, 1, 2, 3):
            states = [
                validate_state(trace * s.matrix)
                for s in commuting_set(dim, 10, np.random.default_rng(seed))
            ]
            report = set_coherence_decide(states)
            assert report.verdict == SET_INCOHERENT
            assert all(p.gap >= 0.0 for p in report.pairs)


def test_orthogonal_pure_states_commute():
    # AB of orthogonal projectors cancels to rounding noise, whose tr(ABAB)
    # has an imaginary part of the order of ||AB||_F^2 itself; judged against
    # ||A||_F^2 ||B||_F^2 it is rounding, and the pair commutes
    cfg = EstimatorConfig(shots_per_setting=100, seed=1)
    for d in range(2, 9):
        u = haar_unitary(d, np.random.default_rng(60 + d))
        states = [pure_state(u[:, k]) for k in range(d)]
        for k in range(1, d):
            assert commutator_gap(states[0], states[k]).commutes
            estimate_gap([states[0], states[k]], cfg)
        assert set_coherence_decide(states).verdict == SET_INCOHERENT
    # a non-Hermitian matrix that skipped validation still raises
    skipped = PositiveOperator(
        matrix=np.diag([1.0, 1.0j]),
        trace=1.0,
        normalized=False,
        psd_slack=0.0,
        eigenvalues=np.ones(2),
    )
    with pytest.raises(NumericInconsistencyError):
        commutator_gap(skipped, pure_state([1, 1]))


# --------------------------------------------------------------------------
# qubit reductions
# --------------------------------------------------------------------------

def test_qubit_delta_polynomials_fixed_points():
    assert qubit_delta1122(1.0, 1.0, 0.5) == pytest.approx(0.5)
    assert qubit_delta1212(1.0, 1.0, 0.5) == pytest.approx(0.25)
    assert qubit_delta1122(0.5, 0.5, 0.5) == pytest.approx(1 / 8)
    assert qubit_delta1212(0.5, 0.5, 0.5) == pytest.approx(1 / 8)


def test_qubit_delta_polynomials_match_traces():
    rng = np.random.default_rng(44)
    for _ in range(200):
        a, b = rand_qubit(rng), rand_qubit(rng)
        d11, d22, d12 = purity(a), purity(b), overlap(a, b)
        assert qubit_delta1122(d11, d22, d12) == pytest.approx(
            bargmann_invariant([a, b], (1, 1, 2, 2)).real, abs=1e-10
        )
        assert qubit_delta1212(d11, d22, d12) == pytest.approx(
            bargmann_invariant([a, b], (1, 2, 1, 2)).real, abs=1e-10
        )


def test_qubit_delta_out_of_range_warns():
    with pytest.warns(UserWarning):
        qubit_delta1122(0.2, 1.0, 0.5)
    with pytest.warns(UserWarning):
        qubit_delta1212(1.0, 1.0, 1.4)


def test_qubit_criterion_examples():
    res = qubit_criterion(0.5, 0.83, 0.5)
    assert res.residual == pytest.approx(0.0, abs=1e-14)
    assert res.commutes

    res = qubit_criterion(1.0, 1.0, 0.5)
    assert res.residual == pytest.approx(0.25)
    assert not res.commutes

    res = qubit_criterion(1.0, 1.0, 1.0)
    assert res.residual == pytest.approx(0.0, abs=1e-14)
    assert res.commutes


def test_qubit_criterion_matches_gap_verdict():
    rng = np.random.default_rng(45)
    for trial in range(300):
        if trial % 3 == 0:
            # collinear Bloch vectors commute
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            a = qubit_from_bloch(axis * rng.uniform(0, 1))
            b = qubit_from_bloch(axis * rng.uniform(-1, 1))
        else:
            a, b = rand_qubit(rng), rand_qubit(rng)
        pg = commutator_gap(a, b)
        res = qubit_criterion(purity(a), purity(b), overlap(a, b))
        assert res.commutes == pg.commutes
        assert res.residual == pytest.approx(pg.gap, abs=1e-10)


def test_qubit_fourth_order_examples():
    r_pure = np.array([0.0, 0.0, 1.0])
    assert qubit_fourth_order(r_pure, r_pure, r_pure, r_pure) == pytest.approx(1.0)

    rng = np.random.default_rng(46)
    ra, rb = rng.standard_normal(3), rng.standard_normal(3)
    ra *= rng.uniform(0, 1) / np.linalg.norm(ra)
    rb *= rng.uniform(0, 1) / np.linalg.norm(rb)
    a, b = qubit_from_bloch(ra), qubit_from_bloch(rb)
    d11, d22, d12 = purity(a), purity(b), overlap(a, b)
    val = qubit_fourth_order(ra, ra, rb, rb)
    assert val.imag == pytest.approx(0.0, abs=1e-12)
    assert val.real == pytest.approx(qubit_delta1122(d11, d22, d12), abs=1e-12)


def test_qubit_fourth_order_matches_traces():
    rng = np.random.default_rng(47)
    for _ in range(200):
        vecs = []
        for _ in range(4):
            r = rng.standard_normal(3)
            r *= rng.uniform(0, 1) / np.linalg.norm(r)
            vecs.append(r)
        states = [qubit_from_bloch(r) for r in vecs]
        direct = bargmann_invariant(states, (1, 2, 3, 4))
        closed = qubit_fourth_order(*vecs)
        assert closed == pytest.approx(direct, abs=1e-10)


def test_qubit_fourth_order_accepts_bloch_vectors():
    states = list(fixture("mub_trio").states)
    vecs = [bloch_map(s, "pauli") for s in states] + [
        bloch_map(maximally_mixed(2), "pauli")
    ]
    # appending the maximally mixed state halves the third-order invariant
    val = qubit_fourth_order(*vecs)
    assert 2 * val == pytest.approx(0.25 + 0.25j, abs=1e-12)
    with pytest.raises(ValueError, match="requires pauli Bloch vectors"):
        qubit_fourth_order(bloch_map(states[0], "orthonormal"), *vecs[1:])
    with pytest.raises(ShapeError, match="expected a 3-vector"):
        qubit_fourth_order(np.ones(4), *vecs[1:])


# --------------------------------------------------------------------------
# Gram rank
# --------------------------------------------------------------------------

def test_gram_bloch_examples():
    trio = [pure_state([1, 0])]
    np.testing.assert_allclose(gram_bloch(trio, "pauli"), [[1.0]], atol=1e-14)

    quartet = list(fixture("c4_quartet").states)
    np.testing.assert_allclose(
        gram_bloch(quartet, "orthonormal"), np.eye(4) / 4, atol=1e-13
    )


def test_gram_bloch_rejects_non_finite_entries():
    # qubits at trace 1e160 overflow tr(rho_i rho_j): an error, not a NaN
    # matrix handed on to the eigensolver
    rng = np.random.default_rng(2)
    big = [validate_state(1e160 * random_state(2, "ginibre_mixed", rng).matrix)
           for _ in range(3)]
    for convention in ("pauli", "orthonormal"):
        with pytest.raises(NumericError, match="not finite"):
            gram_bloch(big, convention)
    with pytest.raises(NumericError, match="not finite"):
        gram_rank_criterion(big)


def test_gram_scaling_covariance():
    # entry (i, j) has degree one in each state, so under 2^k every entry is
    # exactly 2^2k times the unit one, bit for bit, down to its subnormal or 0
    rng = np.random.default_rng(2)
    for d, convention in ((2, "pauli"), (3, "orthonormal")):
        mats = [random_state(d, "ginibre_mixed", rng).matrix for _ in range(3)]
        unit = gram_bloch([validate_state(m) for m in mats], convention)
        for k in range(-540, 251):
            got = gram_bloch([validate_state(2.0**k * m) for m in mats], convention)
            expected = [math.ldexp(v, 2 * k).hex() for v in unit.ravel().tolist()]
            assert [v.hex() for v in got.ravel().tolist()] == expected, (d, k)


def test_gram_rank_criterion_trine():
    rep = gram_rank_criterion(list(fixture("trine").states))
    assert rep.convention == "pauli"
    assert rep.rank == 2
    assert rep.bound == 1
    assert not rep.condition_ok
    assert rep.verdict == SET_COHERENT


def test_gram_rank_criterion_quartet():
    rep = gram_rank_criterion(list(fixture("c4_quartet").states))
    assert rep.rank == 4
    assert rep.bound == 3
    assert not rep.condition_ok
    assert rep.verdict == SET_COHERENT
    assert not rep.sufficient


def test_gram_rank_criterion_collinear():
    # mixtures of |0><0| and I/2 have collinear Bloch vectors
    states = [
        validate_state(t * pure_state([1, 0]).matrix + (1 - t) * np.eye(2) / 2)
        for t in (0.9, 0.5, 0.1)
    ]
    rep = gram_rank_criterion(states)
    assert rep.rank == 1
    assert rep.condition_ok
    assert rep.verdict == SET_INCOHERENT


def test_gram_bloch_matches_bloch_vectors():
    # G = c (Z - t t^T / d) equals the Gram of the bloch_map vectors, also
    # for traces other than 1
    rng = np.random.default_rng(49)
    for d in (2, 3, 5, 8, 64, 256):
        conventions = ("pauli", "orthonormal") if d == 2 else ("orthonormal",)
        states = [random_state(d, "ginibre_mixed", rng) for _ in range(3)]
        states += commuting_set(d, 2, rng) + [pure_state(rng.standard_normal(d))]
        states = [
            validate_state(scale * s.matrix)
            for s, scale in zip(states, (1.0, 0.3, 2.5, 1.0, 7.0, 0.05))
        ]
        for convention in conventions:
            r = np.array([bloch_map(s, convention).components for s in states])
            np.testing.assert_allclose(
                gram_bloch(states, convention), r @ r.T, rtol=0, atol=1e-12
            )
    with pytest.raises(ShapeError):
        gram_bloch([maximally_mixed(3)], "pauli")
    with pytest.raises(ValueError):
        gram_bloch([maximally_mixed(2)], "no_such_convention")
    # mixed dimensions are a typed error, not numpy's from stacking
    mixed = [maximally_mixed(2), maximally_mixed(3), maximally_mixed(2)]
    with pytest.raises(ShapeError, match=r"dimension mismatch: \[2, 3, 2\]"):
        gram_bloch(mixed, "orthonormal")
    with pytest.raises(ShapeError, match="dimension mismatch"):
        gram_rank_criterion(mixed)


def test_gram_rank_criterion_takes_raw_arrays():
    rng = np.random.default_rng(62)
    for d in (2, 3):
        states = [random_state(d, "ginibre_mixed", rng) for _ in range(3)]
        raw = gram_rank_criterion([s.matrix for s in states]).to_dict()
        assert json.dumps(raw) == json.dumps(gram_rank_criterion(states).to_dict())
    mixed = [maximally_mixed(2).matrix, maximally_mixed(3).matrix, maximally_mixed(2).matrix]
    with pytest.raises(ShapeError, match=r"dimension mismatch: \[2, 3, 2\]"):
        gram_rank_criterion(mixed)


def test_gram_rank_criterion_builds_no_bloch_vector(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Bloch basis built")

    monkeypatch.setattr("bargmann.states.bloch_map", refuse)
    monkeypatch.setattr("bargmann.states.traceless_hermitian_basis", refuse)
    rng = np.random.default_rng(50)
    states = commuting_set(64, 3, rng) + [random_state(64, "ginibre_mixed", rng)]
    rep = gram_rank_criterion(states)
    assert rep.dimension == 64
    assert rep.rank == 4
    assert rep.condition_ok
    assert rep.verdict is None


def test_gram_rank_report_carries_its_matrix():
    quartet = list(fixture("c4_quartet").states)
    rep = gram_rank_criterion(quartet)
    np.testing.assert_array_equal(rep.gram, gram_bloch(quartet, rep.convention))
    payload = rep.to_dict()
    assert list(payload)[-1] == "gram"
    assert payload["gram"] == rep.gram.tolist()


def test_imaginarity_ratio_is_read_on_the_rescaled_trio(ginibre_trio):
    # Im tr(rho1 rho2 rho3) of the trio at 1e-150 is about 5e-452, below the
    # smallest subnormal, so im_delta reads 0; its ratio to the product of the
    # Frobenius norms, read on the trio rescaled by powers of two, does not
    ratios = []
    for scale in (1.0, 1e-100, 1e-150):
        trio = ginibre_trio((scale,) * 3)
        witness, ratio = criteria._imaginarity(*trio)
        assert witness == imaginarity_witness(*trio)
        ratios.append(ratio)
    assert witness.im_delta == 0.0
    assert ratios == pytest.approx([0.0810805752216924] * 3, rel=1e-12)
    assert criteria._imaginarity(np.zeros((2, 2)), *trio[1:])[1] == 0.0


def test_field_reports_serialize_their_fields_in_order():
    quartet = list(fixture("c4_quartet").states)
    reports = [
        commutator_gap(quartet[0], quartet[1]),
        qubit_criterion(1.0, 1.0, 0.5),
        gram_rank_criterion(quartet),
        c3_facet_check(0.25, 0.25, 0.25),
        imaginarity_witness(*fixture("mub_trio").states),
        set_coherence_decide(quartet),
        reduced_set_coherence(list(fixture("emc_rho_pair").states), 1),
        *paper_check(["mub_trio"]).entries,
    ]
    for rep in reports:
        payload = rep.to_dict()
        names = [f.name for f in dataclasses.fields(rep)]
        if getattr(rep, "reference", 0) is None:  # an unset reference is left out
            names.remove("reference")
        assert list(payload) == [{"passed": "pass"}.get(k, k) for k in names]
        # tuples and arrays arrive as lists, so the payload survives a round trip
        assert json.loads(json.dumps(payload, allow_nan=False)) == payload


def test_gram_rank_consistent_with_gaps_for_qubits():
    rng = np.random.default_rng(48)
    for trial in range(50):
        if trial % 2 == 0:
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            states = [qubit_from_bloch(axis * rng.uniform(-1, 1)) for _ in range(3)]
        else:
            states = [rand_qubit(rng) for _ in range(3)]
        rank_incoherent = gram_rank_criterion(states).verdict == SET_INCOHERENT
        gap_incoherent = set_coherence_decide(states).verdict == SET_INCOHERENT
        assert rank_incoherent == gap_incoherent


def test_gram_rank_inconclusive_when_passing_in_high_dim():
    rng = np.random.default_rng(49)
    states = commuting_set(3, 2, rng)
    rep = gram_rank_criterion(states)
    assert rep.condition_ok
    assert rep.verdict is None


# --------------------------------------------------------------------------
# polytope membership
# --------------------------------------------------------------------------

def test_c3_facet_check_trine():
    rep = c3_facet_check(3 / 4, 3 / 4, 1 / 4)
    assert rep.facet_slacks[0] == pytest.approx(-0.25)
    assert rep.box_ok
    assert not rep.member


def test_c3_facet_check_members():
    rep = c3_facet_check(0.5, 0.5, 0.5)
    assert rep.member
    rep = c3_facet_check(0.0, 0.0, 0.0)
    assert rep.member
    assert rep.facet_slacks == (1.0, 1.0, 1.0)
    assert not c3_facet_check(1.2, 0.5, 0.5).member  # box violation


def test_winc_membership():
    assert winc_membership(0.3, 0.3)
    rho_pair = fixture("emc_rho_pair").states
    z1122 = bargmann_invariant(list(rho_pair), (1, 1, 2, 2)).real
    z1212 = bargmann_invariant(list(rho_pair), (1, 2, 1, 2)).real
    assert not winc_membership(z1122, z1212)
    assert not winc_membership(1.5, 1.5)
    assert winc_membership(1.5, 1.5, normalized=False)
    assert not winc_membership(-0.2, -0.2, normalized=False)
    nan = float("nan")
    for point in ((nan, 0.3), (0.3, nan), (nan, nan)):
        assert not winc_membership(*point)
        assert not winc_membership(*point, normalized=False)


# --------------------------------------------------------------------------
# imaginarity witness
# --------------------------------------------------------------------------

def test_imaginarity_witness_mub_trio():
    wit = imaginarity_witness(*fixture("mub_trio").states)
    assert wit.im_delta == pytest.approx(0.25, abs=1e-12)
    assert wit.lhs == pytest.approx(0.5, abs=1e-12)
    assert wit.rhs == pytest.approx(np.sqrt(0.5), abs=1e-10)
    assert wit.satisfied


def test_imaginarity_witness_commuting_triple():
    states = commuting_set(4, 3, np.random.default_rng(50))
    wit = imaginarity_witness(*states)
    assert wit.lhs == pytest.approx(0.0, abs=1e-10)
    assert wit.satisfied


@pytest.mark.parametrize("scales", [(1e160, 1e-100, 1e-100), (1e-100,) * 3, (1e-170, 1.0, 1.0),
                                    (1e-200, 1e100, 1e100)])
def test_imaginarity_witness_is_scale_free(scales, ginibre_trio):
    # each side scales by the product of the scales; unscaled, these overflow
    # to rhs = nan, or underflow to rhs = 0 and pass on the slack.  At
    # (1e-200, 1e100, 1e100) tr(rho_2^2 rho_3^2), about 1e400, is past the
    # double range, but no output holds it
    unit = imaginarity_witness(*ginibre_trio((1.0, 1.0, 1.0)))
    wit = imaginarity_witness(*ginibre_trio(scales))
    c = math.prod(scales)
    assert wit.satisfied
    assert wit.rhs > wit.lhs > 0
    for name in ("lhs", "rhs", "im_delta"):
        assert getattr(wit, name) == pytest.approx(c * getattr(unit, name), rel=1e-12, abs=0)


def test_imaginarity_witness_slack_is_relative_to_the_operands():
    # a commuting qubit trio at trace 1e8: both sides are rounding, some 1e-18
    # of the operands' scale 1e24, and lhs exceeds rhs, which an absolute
    # slack of 1e-10 read as a violation
    trio = [validate_state(1e8 * s.matrix) for s in commuting_set(2, 3, np.random.default_rng(0))]
    wit = imaginarity_witness(*trio)
    assert wit.rhs < wit.lhs < 1e-17 * 1e24
    assert wit.satisfied


def test_imaginarity_witness_past_the_double_range_raises(ginibre_trio):
    with pytest.raises(NumericError, match="trace of chained product is not finite"):
        imaginarity_witness(*ginibre_trio((1e300,) * 3))


def test_imaginarity_bound_past_the_double_range_is_named():
    # a real trio has Im tr(rho_l rho_k rho_s) = 0 exactly, which scales back
    # in range; at trace 1e110 its rhs, of degree three, does not
    rng = np.random.default_rng(0)
    trio = []
    for _ in range(3):
        g = rng.normal(size=(2, 2))
        trio.append(validate_state(1e110 * (g @ g.T) / np.trace(g @ g.T)))
    with pytest.raises(NumericError, match="^imaginarity bound is not finite$"):
        imaginarity_witness(*trio)


def test_imaginarity_witness_random_sweep():
    rng = np.random.default_rng(51)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        states = [random_state(d, "ginibre_mixed", rng) for _ in range(3)]
        wit = imaginarity_witness(*states)
        assert wit.lhs <= wit.rhs + 1e-10


# --------------------------------------------------------------------------
# incomparability of the one-sided criteria
# --------------------------------------------------------------------------

def test_incomparability_mub_trio():
    # detected by imaginarity only: facets pass, Gram rank bound passes in C^4
    from bargmann.states import embed

    states = list(fixture("mub_trio").states)
    assert abs(bargmann_invariant(states, (1, 2, 3)).imag) > 0.2
    z = [overlap(states[0], states[1]), overlap(states[0], states[2]), overlap(states[1], states[2])]
    assert c3_facet_check(*z).member
    embedded = [embed(s, 4) for s in states]
    rep = gram_rank_criterion(embedded)
    assert rep.rank == 3
    assert rep.condition_ok


def test_incomparability_trine():
    # detected by facets only: all third-order invariants real nonnegative
    states = list(fixture("trine").states)
    for word in ((1, 2, 3), (1, 3, 2), (1, 1, 2), (2, 3, 3)):
        val = bargmann_invariant(states, word)
        assert abs(val.imag) <= 1e-10
        assert val.real >= -1e-10
    z = [overlap(states[0], states[1]), overlap(states[0], states[2]), overlap(states[1], states[2])]
    assert not c3_facet_check(*z).member
    from bargmann.states import embed

    embedded = [embed(s, 4) for s in states]
    assert gram_rank_criterion(embedded).condition_ok


def test_incomparability_quartet():
    # detected by the Gram rank bound only
    states = list(fixture("c4_quartet").states)
    for word, expected in (((1, 2, 3), 1 / 8), ((1, 2, 4), 1 / 16), ((1, 2, 3, 4), 1 / 32)):
        val = bargmann_invariant(states, word)
        assert abs(val.imag) <= 1e-10
        assert val.real == pytest.approx(expected, abs=1e-13)
    z = [overlap(states[0], states[1]), overlap(states[0], states[2]), overlap(states[1], states[2])]
    assert c3_facet_check(*z).member
    assert not gram_rank_criterion(states).condition_ok
