import numpy as np
import pytest

from bargmann.criteria import commutator_gap
from bargmann.exceptions import (
    HermiticityError,
    NumericError,
    PositivityError,
    ShapeError,
    TraceError,
)
from bargmann.states import (
    ENSEMBLES,
    bloch_map,
    commuting_set,
    embed,
    haar_unitary,
    maximally_mixed,
    overlap,
    pure_state,
    purity,
    qubit_from_bloch,
    random_state,
    traceless_hermitian_basis,
    validate_state,
)


def test_validate_state_accepts_normalized():
    op = validate_state(np.eye(2, dtype=complex) / 2)
    assert op.normalized
    assert op.trace == pytest.approx(1.0)
    assert op.psd_slack >= -1e-10

    op = validate_state(np.diag([1 / 2, 3 / 8, 1 / 8, 0]).astype(complex))
    assert op.normalized
    assert op.dim == 4


def test_validate_state_accepts_unnormalized():
    op = validate_state(np.eye(3, dtype=complex))
    assert not op.normalized
    assert op.trace == pytest.approx(3.0)


def test_validate_state_rejections():
    with pytest.raises(PositivityError):
        validate_state(np.diag([1.0, -0.01]).astype(complex))
    with pytest.raises(HermiticityError):
        validate_state(np.array([[1, 1], [0, 1]], dtype=complex))
    with pytest.raises(TraceError):
        validate_state(np.zeros((2, 2), dtype=complex))


def test_validate_state_scans_once(scan_calls):
    validate_state(np.diag([0.5, 0.3, 0.2]).astype(complex))
    assert len(scan_calls) == 1


def test_validate_state_needs_no_eigenvectors(monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("validate_state asked for eigenvectors")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    op = validate_state(np.diag([0.5, 0.3, 0.2]).astype(complex))
    assert op.normalized
    np.testing.assert_allclose(op.eigenvalues, [0.2, 0.3, 0.5], atol=1e-15)


def test_validate_state_stores_hermitian_part():
    # a sub-tolerance anti-Hermitian residue is not kept: the stored matrix is
    # exactly the Hermitian part whose spectrum was taken
    base = np.array([[0.5, 0.1 - 0.2j], [0.1 + 0.2j, 0.5]])
    residue = np.array([[3e-13j, 2e-13], [-2e-13, -1e-13j]])
    a = base + residue
    op = validate_state(a)
    np.testing.assert_array_equal(op.matrix, (a + a.conj().T) / 2)
    np.testing.assert_array_equal(op.matrix, op.matrix.conj().T)
    dim1 = validate_state(np.array([[1.0 + 4.7e-18j]]))
    assert dim1.matrix[0, 0] == 1.0
    assert dim1.matrix[0, 0].imag == 0.0


def test_purity():
    assert purity(pure_state([1, 1j])) == pytest.approx(1.0, abs=1e-12)
    assert purity(maximally_mixed(2)) == pytest.approx(0.5)
    emc = validate_state(np.diag([1 / 2, 3 / 8, 1 / 8, 0]).astype(complex))
    assert purity(emc) == pytest.approx(13 / 32, abs=1e-14)


def test_bloch_map_pauli():
    np.testing.assert_allclose(
        bloch_map(pure_state([1, 0]), "pauli").components, [0, 0, 1], atol=1e-14
    )
    np.testing.assert_allclose(
        bloch_map(pure_state([1, 1]), "pauli").components, [1, 0, 0], atol=1e-14
    )
    with pytest.raises(ShapeError):
        bloch_map(maximally_mixed(3), "pauli")
    with pytest.raises(ValueError):
        bloch_map(maximally_mixed(2), "no_such_convention")


def test_bloch_map_orthonormal_maximally_mixed():
    for d in (2, 3, 5):
        r = bloch_map(maximally_mixed(d), "orthonormal")
        assert r.components.shape == (d * d - 1,)
        np.testing.assert_allclose(r.components, 0.0, atol=1e-14)


def test_traceless_basis_is_orthonormal():
    for d in (2, 3, 4):
        basis = traceless_hermitian_basis(d)
        assert basis.shape == (d * d - 1, d, d)
        for a in range(basis.shape[0]):
            assert abs(np.trace(basis[a])) < 1e-14
            assert np.max(np.abs(basis[a] - basis[a].conj().T)) < 1e-14
        gram = np.einsum("aij,bji->ab", basis, basis)
        np.testing.assert_allclose(gram, np.eye(d * d - 1), atol=1e-13)


def test_qubit_from_bloch():
    np.testing.assert_allclose(
        qubit_from_bloch((0, 0, 0)).matrix, np.eye(2) / 2, atol=1e-14
    )
    trine2 = qubit_from_bloch((0.5, np.sqrt(3) / 2, 0.0))
    assert purity(trine2) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(PositivityError):
        qubit_from_bloch((1.0, 0.5, 0.0))
    with pytest.raises(ShapeError):
        qubit_from_bloch((1.0, 0.0))
    # up to the norm cap |r| <= 1 + 1e-12, validation at PSD_TOL passes with
    # no extra slack; beyond it the norm check raises
    for r in ((1.0, 0.0, 0.0), (0.0, 0.6, -0.8), (0.0, 0.0, -(1 + 1e-12))):
        assert qubit_from_bloch(r).psd_slack > -1e-12
    for r in ((1 + 1e-11, 0.0, 0.0), (0.0, -(1 + 1e-11), 0.0)):
        with pytest.raises(PositivityError):
            qubit_from_bloch(r)


def test_bloch_round_trip():
    rng = np.random.default_rng(21)
    for _ in range(50):
        r = rng.standard_normal(3)
        r *= rng.uniform(0, 1) / np.linalg.norm(r)
        rho = qubit_from_bloch(r)
        np.testing.assert_allclose(bloch_map(rho, "pauli").components, r, atol=1e-12)
        again = qubit_from_bloch(bloch_map(rho, "pauli").components)
        np.testing.assert_allclose(again.matrix, rho.matrix, atol=1e-12)


def test_overlap_identities():
    rng = np.random.default_rng(22)
    # qubit pauli identity: tr(rho sigma) = (1 + <r, s>)/2
    for _ in range(50):
        a = random_state(2, "ginibre_mixed", rng)
        b = random_state(2, "ginibre_mixed", rng)
        ra = bloch_map(a, "pauli").components
        rb = bloch_map(b, "pauli").components
        assert overlap(a, b) == pytest.approx((1 + ra @ rb) / 2, abs=1e-12)
    # orthonormal identity in general dimension: tr(rho sigma) - 1/d = <r, s>
    for d in (2, 3, 4, 5):
        for _ in range(20):
            a = random_state(d, "ginibre_mixed", rng)
            b = random_state(d, "ginibre_mixed", rng)
            ra = bloch_map(a, "orthonormal").components
            rb = bloch_map(b, "orthonormal").components
            assert overlap(a, b) - 1 / d == pytest.approx(ra @ rb, abs=1e-12)


def test_pauli_norm_bound():
    rng = np.random.default_rng(23)
    for _ in range(100):
        rho = random_state(2, "ginibre_mixed", rng)
        assert np.linalg.norm(bloch_map(rho, "pauli").components) <= 1 + 1e-10


@pytest.mark.parametrize(
    "matrix, message",
    [
        (np.diag([1e308, 1e308]), "half the double range"),
        (np.full((4, 4), 8.9e307) - np.diag([8.9e307] * 4), "spectrum"),
        (np.diag([8.9e307] * 3), "trace"),
    ],
    ids=["hermitian-part", "spectrum", "trace"],
)
def test_validate_state_refuses_what_overflows(matrix, message):
    # finite entries whose (A + A†)/2, eigenvalues or trace pass the double
    # range: a typed error, and no numpy warning (pytest makes one an error)
    with pytest.raises(NumericError, match=message):
        validate_state(matrix)


def test_random_state_properties():
    rng = np.random.default_rng(24)
    for ensemble in ENSEMBLES:
        trace_errs = []
        for _ in range(100):
            op = random_state(4, ensemble, rng)
            trace_errs.append(abs(op.trace - 1.0))
            assert op.psd_slack >= -1e-10
        assert np.mean(trace_errs) <= 1e-12
    for _ in range(20):
        assert purity(random_state(3, "haar_pure", rng)) == pytest.approx(1.0, abs=1e-12)
    # ginibre draws are full rank
    for _ in range(20):
        op = random_state(5, "ginibre_mixed", rng)
        assert np.linalg.eigvalsh(op.matrix)[0] > 0
    with pytest.raises(ValueError):
        random_state(3, "bogus", rng)


def test_random_state_dim1_and_determinism():
    op = random_state(1, "ginibre_mixed", np.random.default_rng(0))
    np.testing.assert_allclose(op.matrix, [[1.0]], atol=1e-15)
    a = random_state(4, "ginibre_mixed", np.random.default_rng(99))
    b = random_state(4, "ginibre_mixed", np.random.default_rng(99))
    assert np.array_equal(a.matrix, b.matrix)


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(25)
    for d in (2, 3, 6):
        u = haar_unitary(d, rng)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-12)


def test_commuting_set():
    rng = np.random.default_rng(26)
    sts = commuting_set(4, 3, rng)
    assert len(sts) == 3
    for i in range(3):
        for j in range(i + 1, 3):
            assert commutator_gap(sts[i], sts[j]).gap <= 1e-12
    singleton = commuting_set(3, 1, np.random.default_rng(0))
    assert len(singleton) == 1
    a = commuting_set(3, 2, np.random.default_rng(77))
    b = commuting_set(3, 2, np.random.default_rng(77))
    for x, y in zip(a, b):
        assert np.array_equal(x.matrix, y.matrix)


def test_embed():
    plus = pure_state([1, 1])
    big = embed(plus, 4)
    assert big.dim == 4
    assert big.normalized
    assert overlap(big, big) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(big.matrix[:2, :2], plus.matrix, atol=1e-15)
    np.testing.assert_allclose(big.matrix[2:, :], 0.0, atol=1e-15)
    with pytest.raises(ShapeError):
        embed(big, 2)
