import dataclasses
import json

import numpy as np
import pytest

from bargmann.criteria import (
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
    # not a NaN gap that reads as "does not commute"
    rng = np.random.default_rng(1)
    big = [validate_state(1e100 * s.matrix) for s in commuting_set(4, 3, rng)]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="not finite"):
            commutator_gap(big[0], big[1])
        with pytest.raises(NumericError, match="not finite"):
            set_coherence_decide(big)


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
    for _ in range(30):
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
    with np.errstate(over="ignore", invalid="ignore"):
        for convention in ("pauli", "orthonormal"):
            with pytest.raises(NumericError, match="not finite"):
                gram_bloch(big, convention)
        with pytest.raises(NumericError, match="not finite"):
            gram_rank_criterion(big)


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
    for d in (2, 3, 5, 8):
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
