import tracemalloc

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
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
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


def _rank32_commuting(trace, n, rng):
    """n rank-32 d=64 states of one trace, built as (U diag) U† in one Haar basis."""
    u = haar_unitary(64, rng)
    spectra = np.zeros((n, 64))
    spectra[:, :32] = trace * rng.dirichlet(np.ones(32), size=n)
    return [(u * w) @ u.conj().T for w in spectra]


@pytest.mark.parametrize("trace", [1e6, 1e8])
def test_validate_state_bounds_scale_with_the_operand(trace):
    # rounding in (U diag) U† grows with the trace: at 1e6 it exceeds an
    # absolute HERM_TOL, at 1e8 the smallest eigenvalue drops below -PSD_TOL
    mats = _rank32_commuting(trace, 5, np.random.default_rng(0))
    for m in mats:
        assert validate_state(m).trace == pytest.approx(trace)
    m = validate_state(mats[0]).matrix
    skew = np.zeros((64, 64))
    skew[0, 1], skew[1, 0] = 1.0, -1.0
    with pytest.raises(HermiticityError):
        validate_state(m + 1e-6 * np.max(np.abs(m)) * skew)
    w, v = np.linalg.eigh(m)
    w[0] = -1e-6 * w[-1]
    with pytest.raises(PositivityError):
        validate_state((v * w) @ v.conj().T)


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
    for d in (1, 2, 3, 5):
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
    assert traceless_hermitian_basis(1).shape == (0, 1, 1)
    with pytest.raises(ShapeError):
        traceless_hermitian_basis(0)
    # the enumeration order is pinned, not only orthonormality
    np.testing.assert_allclose(
        traceless_hermitian_basis(2), np.array([PAULI_X, PAULI_Y, PAULI_Z]) / np.sqrt(2),
        rtol=0, atol=1e-15,
    )
    t3 = traceless_hermitian_basis(3)
    # symmetric (0, 1), antisymmetric (0, 1), diagonal levels 1 and 2
    literal = {
        0: np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]) / np.sqrt(2),
        3: np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]) / np.sqrt(2),
        6: np.diag([1, -1, 0]) / np.sqrt(2),
        7: np.diag([1, 1, -2]) / np.sqrt(6),
    }
    for a, t in literal.items():
        np.testing.assert_allclose(t3[a], t, rtol=0, atol=1e-15)
    # the pauli vector is the orthonormal one scaled by sqrt(2), in order
    rng = np.random.default_rng(24)
    for _ in range(10):
        rho = random_state(2, "ginibre_mixed", rng)
        np.testing.assert_allclose(
            bloch_map(rho, "pauli").components,
            np.sqrt(2) * bloch_map(rho, "orthonormal").components,
            rtol=0, atol=1e-15,
        )


def test_qubit_from_bloch():
    np.testing.assert_allclose(
        qubit_from_bloch((0, 0, 0)).matrix, np.eye(2) / 2, atol=1e-14
    )
    trine2 = qubit_from_bloch((0.5, np.sqrt(3) / 2, 0.0))
    assert purity(trine2) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(PositivityError):
        qubit_from_bloch((1.0, 0.5, 0.0))
    with pytest.raises(ShapeError, match="expected a 3-vector"):
        qubit_from_bloch((1.0, 0.0))
    # up to the norm cap |r| <= 1 + 1e-12, validation at PSD_TOL passes with
    # no extra slack; beyond it the norm check raises
    for r in ((1.0, 0.0, 0.0), (0.0, 0.6, -0.8), (0.0, 0.0, -(1 + 1e-12))):
        assert qubit_from_bloch(r).psd_slack > -1e-12
    for r in ((1 + 1e-11, 0.0, 0.0), (0.0, -(1 + 1e-11), 0.0)):
        with pytest.raises(PositivityError):
            qubit_from_bloch(r)


def test_qubit_from_bloch_inverts_bloch_map():
    rng = np.random.default_rng(23)
    for ensemble in ("ginibre_mixed", "haar_pure"):
        for _ in range(20):
            rho = random_state(2, ensemble, rng)
            again = qubit_from_bloch(bloch_map(rho, "pauli"))
            np.testing.assert_allclose(again.matrix, rho.matrix, rtol=0, atol=1e-14)
    with pytest.raises(ValueError, match="requires pauli Bloch vectors"):
        qubit_from_bloch(bloch_map(rho, "orthonormal"))


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
    # orthonormal identity in general dimension, at traces other than 1:
    # tr(rho sigma) = tr rho tr sigma / d + <r, s>
    for d in (2, 3, 4, 5):
        for _ in range(20):
            ta, tb = 10.0 ** rng.uniform(-2, 2, size=2)
            a = validate_state(ta * random_state(d, "ginibre_mixed", rng).matrix)
            b = validate_state(tb * random_state(d, "ginibre_mixed", rng).matrix)
            ra = bloch_map(a, "orthonormal").components
            rb = bloch_map(b, "orthonormal").components
            assert overlap(a, b) == pytest.approx(
                a.trace * b.trace / d + ra @ rb, rel=0, abs=1e-12 * ta * tb
            )


@pytest.mark.parametrize("d", [48, 256])
def test_bloch_map_builds_no_basis(d):
    # a (d^2 - 1, d, d) basis tensor would take 81 MB at d=48 and 64 GiB at
    # d=256; the closed form needs O(d^2)
    rho = random_state(d, "ginibre_mixed", np.random.default_rng(d))
    tracemalloc.start()
    try:
        r = bloch_map(rho, "orthonormal").components
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.shape == (d * d - 1,)
    assert peak <= 16 * 2**20
    assert np.dot(r, r) == pytest.approx(purity(rho) - 1 / d, rel=1e-12)


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


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: overlap(maximally_mixed(2), maximally_mixed(3)), ShapeError,
         "dimension mismatch: 2 vs 3"),
        (lambda: pure_state([0, 0]), ValueError, "zero vector"),
        (lambda: random_state(0, "ginibre_mixed", np.random.default_rng(0)), ShapeError,
         "dimension must be positive"),
        (lambda: commuting_set(2, 0, np.random.default_rng(0)), ShapeError,
         "dimension and count must be positive"),
    ],
    ids=["overlap-dims", "pure-zero", "random-dim0", "commuting-n0"],
)
def test_bad_arguments_raise_typed_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


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


def test_embed_takes_a_hermitian_raw_array():
    big = embed(np.eye(2) / 2, 3)
    assert big.normalized
    np.testing.assert_array_equal(big.matrix, np.diag([0.5, 0.5, 0.0]))
    with pytest.raises(HermiticityError):
        embed(np.array([[0.5, 0.1], [0.0, 0.5]]), 3)
