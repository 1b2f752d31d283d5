import numpy as np
import pytest

from bargmann.exceptions import HermiticityError, ShapeError
from bargmann.numkernel import (
    as_complex_matrix,
    as_hermitian_matrix,
    chain_product_trace,
    hermitian_eig,
    hs_norm_sq,
)


def rand_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def test_as_complex_matrix_rejects_bad_input():
    with pytest.raises(ShapeError):
        as_complex_matrix(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        as_complex_matrix(np.zeros(4))
    with pytest.raises(ShapeError):
        as_complex_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(ShapeError):
        as_complex_matrix([[np.inf * 1j, 0], [0, 1]])


def test_chain_product_trace_identity():
    for d in (1, 2, 5):
        assert chain_product_trace([np.eye(d)]) == pytest.approx(d)


def test_chain_product_trace_projector_pair():
    # oracle: direct 2x2 multiplication of |0><0| @ |+><+| gives [[.5,.5],[0,0]]
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    pp = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    assert chain_product_trace([p0, pp]) == pytest.approx(0.5, abs=1e-14)


def test_chain_product_trace_reference_pair_overlap():
    rho1 = np.diag([1 / 2, 3 / 8, 1 / 8, 0]).astype(complex)
    flip = np.zeros((4, 4), complex)
    flip[0, 2] = flip[2, 0] = flip[1, 3] = flip[3, 1] = 1.0
    rho2 = np.diag([4 / 15, 1 / 3, 1 / 6, 7 / 30]).astype(complex) + flip / 10
    assert chain_product_trace([rho1, rho2]) == pytest.approx(67 / 240, abs=1e-14)


def test_chain_product_trace_errors():
    with pytest.raises(ValueError):
        chain_product_trace([])
    with pytest.raises(ShapeError):
        chain_product_trace([np.eye(2), np.eye(3)])


def test_chain_product_trace_cyclic_invariance():
    rng = np.random.default_rng(11)
    ms = [rand_hermitian(rng, 4) for _ in range(4)]
    base = chain_product_trace(ms)
    for shift in range(1, 4):
        rotated = ms[shift:] + ms[:shift]
        assert chain_product_trace(rotated) == pytest.approx(base, rel=1e-12)


def test_chain_product_trace_reversal_conjugates():
    rng = np.random.default_rng(12)
    ms = [rand_hermitian(rng, 3) for _ in range(5)]
    forward = chain_product_trace(ms)
    backward = chain_product_trace(ms[::-1])
    assert backward == pytest.approx(np.conj(forward), rel=1e-12)


def test_hs_norm_sq_basics():
    assert hs_norm_sq(np.zeros((3, 3))) == 0.0
    assert hs_norm_sq(np.eye(4)) == pytest.approx(4.0)
    # oracle: sum of squared moduli of entries
    assert hs_norm_sq(np.array([[0, 1], [0, 0]])) == pytest.approx(1.0)


def test_hs_norm_sq_matches_trace_form():
    rng = np.random.default_rng(13)
    for d in (2, 3, 6):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        via_trace = chain_product_trace([a.conj().T, a])
        assert hs_norm_sq(a) == pytest.approx(via_trace.real, rel=1e-12)
        assert abs(via_trace.imag) < 1e-12


def test_hermitian_eig_diagonal():
    sys = hermitian_eig(np.diag([1 / 2, 3 / 8, 1 / 8, 0]).astype(complex))
    np.testing.assert_allclose(sys.eigenvalues, [0, 1 / 8, 3 / 8, 1 / 2], atol=1e-14)


def test_hermitian_eig_pauli_x():
    # characteristic polynomial of X is l^2 - 1
    sys = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
    np.testing.assert_allclose(sys.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_hermitian_eig_degenerate_identity():
    sys = hermitian_eig(np.eye(3, dtype=complex))
    np.testing.assert_allclose(sys.eigenvalues, [1, 1, 1], atol=1e-14)
    v = sys.eigenvectors
    np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-10)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(HermiticityError):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_as_hermitian_matrix():
    m = as_hermitian_matrix([[1, 1j], [-1j, 2]], 1e-12)
    assert m.dtype == np.complex128
    # the check is entrywise against the given tolerance, and what passes is
    # returned as its exactly Hermitian part
    near = np.array([[1, 1e-9], [0, 1]], dtype=complex)
    np.testing.assert_array_equal(
        as_hermitian_matrix(near, 1e-8), (near + near.conj().T) / 2
    )
    with pytest.raises(HermiticityError):
        as_hermitian_matrix(near, 1e-12)
    with pytest.raises(ShapeError):
        as_hermitian_matrix(np.zeros((2, 3)), 1e-12)


def test_hermitian_eig_random_reconstruction():
    rng = np.random.default_rng(14)
    for d in (2, 5, 16):
        for _ in range(5):
            a = rand_hermitian(rng, d)
            sys = hermitian_eig(a)
            assert np.all(np.diff(sys.eigenvalues) >= 0)
            v = sys.eigenvectors
            assert np.max(np.abs(v.conj().T @ v - np.eye(d))) < 1e-10
            assert np.linalg.norm(sys.reconstruct() - a) < 1e-9
