import numpy as np
import pytest

from bargmann.criteria import gram_bloch, gram_rank_criterion
from bargmann.exceptions import HermiticityError, NumericError, ShapeError
from bargmann.invariants import bargmann_invariant
from bargmann.numkernel import (
    HERM_TOL,
    as_complex_matrix,
    as_hermitian_matrix,
    chain_product_trace,
    hermitian_eig,
)
from bargmann.states import overlap, purity


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
    with pytest.raises(ShapeError, match="dimension must be positive"):
        as_complex_matrix(np.zeros((0, 0)))


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


def test_hermitian_eig_diagonal():
    _, w = hermitian_eig(np.diag([1 / 2, 3 / 8, 1 / 8, 0]).astype(complex))
    np.testing.assert_allclose(w, [0, 1 / 8, 3 / 8, 1 / 2], atol=1e-14)


def test_hermitian_eig_pauli_x():
    # characteristic polynomial of X is l^2 - 1
    _, w = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)


def assert_spectrum_moments(w, a):
    """sum w = tr A and sum w^2 = ||A||_F^2, to 1e-10."""
    assert abs(np.sum(w) - np.trace(a).real) < 1e-10
    assert abs(np.sum(w**2) - np.linalg.norm(a) ** 2) < 1e-10


def test_hermitian_eig_degenerate_identity():
    m, w = hermitian_eig(np.eye(3, dtype=complex))
    np.testing.assert_allclose(w, [1, 1, 1], atol=1e-14)
    assert_spectrum_moments(w, m)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(HermiticityError):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_as_hermitian_matrix():
    m = as_hermitian_matrix([[1, 1j], [-1j, 2]])
    assert m.dtype == np.complex128
    # the check is entrywise against HERM_TOL, and what passes is returned as
    # its exactly Hermitian part
    below = np.array([[1, 0.5 * HERM_TOL], [0, 1]], dtype=complex)
    np.testing.assert_array_equal(
        as_hermitian_matrix(below), (below + below.conj().T) / 2
    )
    with pytest.raises(HermiticityError):
        as_hermitian_matrix(np.array([[1, 2 * HERM_TOL], [0, 1]], dtype=complex))
    with pytest.raises(ShapeError):
        as_hermitian_matrix(np.zeros((2, 3)))


def test_hermitian_eig_random_reconstruction():
    rng = np.random.default_rng(14)
    for d in (2, 5, 16):
        for _ in range(5):
            a = rand_hermitian(rng, d)
            m, w = hermitian_eig(a)
            assert np.all(np.diff(w) >= 0)
            assert_spectrum_moments(w, a)
            np.testing.assert_array_equal(m, a)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda ops: bargmann_invariant(ops, (1, 2)), "trace of chained product"),
        (lambda ops: chain_product_trace([op.matrix for op in ops]), "trace of chained product"),
        (lambda ops: gram_bloch(ops, "orthonormal"), "Bloch Gram matrix"),
        (gram_rank_criterion, "Bloch Gram matrix"),
        (lambda ops: purity(ops[0]), "purity"),
        (lambda ops: overlap(*ops), "overlap"),
    ],
    ids=["bargmann_invariant", "chain_product_trace", "gram_bloch", "gram_rank_criterion",
         "purity", "overlap"],
)
def test_products_past_the_double_range_raise_numeric_error(call, message, ginibre_pair):
    # a typed error, with no numpy warning ahead of it (pytest makes one an
    # error): the parent warned, or returned nan for overlap
    with pytest.raises(NumericError, match=f"^{message} is not finite$"):
        call(ginibre_pair((1e200, 1e200)))
