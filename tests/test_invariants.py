import math

import numpy as np
import pytest

from bargmann.exceptions import NumericError, ShapeError, WordError
from bargmann.fixtures import fixture
from bargmann.invariants import (
    BargmannScenario,
    ClassicalRealization,
    bargmann_invariant,
    classical_invariant,
    evaluate_scenario,
    parse_word,
    scenario_catalog,
    word_text,
)
from bargmann.numkernel import chain_product_trace
from bargmann.states import commuting_set, haar_unitary, pure_state, purity, validate_state

EMC_W23_EXPECTED = {
    (1, 1): 13 / 32,
    (1, 1, 1): 23 / 128,
    (2, 2): 137 / 450,
    (2, 2, 2): 31 / 300,
    (1, 2): 67 / 240,
    (1, 1, 2): 223 / 1920,
    (1, 2, 2): 653 / 7200,
}


def test_parse_word():
    assert parse_word("1,2,1,2") == (1, 2, 1, 2)
    assert parse_word(" 3 , 1 ") == (3, 1)
    assert word_text((1, 2, 3)) == "1,2,3"
    with pytest.raises(WordError):
        parse_word("")
    with pytest.raises(WordError):
        parse_word("1,x")
    with pytest.raises(WordError):
        parse_word("0,1")


def test_bargmann_invariant_mub_trio():
    states = list(fixture("mub_trio").states)
    value = bargmann_invariant(states, (1, 2, 3))
    assert value == pytest.approx(0.25 + 0.25j, abs=1e-14)


def test_bargmann_invariant_orthogonal_projectors():
    states = list(fixture("main_sigma_trio").states)
    assert bargmann_invariant(states, (1, 2, 3)) == pytest.approx(0.0, abs=1e-14)


def test_bargmann_invariant_projector_powers():
    psi = pure_state([1, 2j, -1])
    assert bargmann_invariant([psi], (1, 1, 1, 1)) == pytest.approx(1.0, abs=1e-12)


def test_bargmann_invariant_errors():
    states = list(fixture("mub_trio").states)
    with pytest.raises(WordError):
        bargmann_invariant(states, (1, 4))
    with pytest.raises(WordError):
        bargmann_invariant(states, ())
    # letters are integers, never truncated; numpy integers are integers
    with pytest.raises(WordError):
        bargmann_invariant(states, (1.7, 2))
    assert bargmann_invariant(states, (np.int64(1), 2)) == bargmann_invariant(states, (1, 2))
    mixed_dims = [states[0], pure_state([1, 0, 0])]
    with pytest.raises(ShapeError):
        bargmann_invariant(mixed_dims, (1, 2))


@pytest.mark.parametrize("scales", [(1e-160, 1e160), (1e-170, 1e170), (1e-250, 1e250)])
def test_mixed_scale_word_is_the_unit_pairs(scales, ginibre_pair):
    # unscaled, A^2 (about 1e-340 at 1e-170) underflows before B^2 brings the
    # product back: the parent read 0.0, or was off by 2.5e-3 at 1e-160
    unit = bargmann_invariant(ginibre_pair((1.0, 1.0)), (1, 1, 2, 2))
    ops = ginibre_pair(scales)
    a, b = (op.matrix for op in ops)
    for value in (bargmann_invariant(ops, (1, 1, 2, 2)), chain_product_trace([a, a, b, b])):
        assert abs(value - unit) <= 1e-15 * abs(unit)


@pytest.mark.parametrize("vector, length", [([1, 0], 1100), (np.ones(16), 400)],
                         ids=["basis-projector", "uniform-d16"])
def test_long_word_of_a_pure_state_is_one(vector, length):
    # a pure state is its own square, so every power has trace 1.  Each scaled
    # factor holds its largest entry in [1/2, 1), so a product of those factors
    # alone falls to 2^-1100 (0) for the projector and passes 2^1024 at d=16;
    # the running product is rescaled after every factor instead
    psi = pure_state(vector)
    assert bargmann_invariant([psi], (1,) * length) == 1.0
    assert chain_product_trace([psi.matrix] * length) == 1.0


def test_word_scaling_covariance(ginibre_pair):
    # under (2^k1 A, 2^k2 B) a word with m1 letters 1 and m2 letters 2 is
    # exactly 2^(k1 m1 + k2 m2) times its unit value, bit for bit, down to its
    # subnormal or 0; past the double range it is a NumericError
    unit_pair = ginibre_pair((1.0, 1.0))
    words = [(1,), (1, 2), (1, 1, 2, 2), (1, 2, 1, 2), (2, 1, 1), (2, 2, 1, 2, 2)]
    units = {w: bargmann_invariant(unit_pair, w) for w in words}
    for k1 in range(-500, 501, 3):
        for k2 in (-k1, k1 // 2, 500 - abs(k1)):
            ops = ginibre_pair((2.0**k1, 2.0**k2))
            for w, unit in units.items():
                k = k1 * w.count(1) + k2 * w.count(2)
                try:
                    expected = [math.ldexp(unit.real, k).hex(), math.ldexp(unit.imag, k).hex()]
                except OverflowError:
                    with pytest.raises(NumericError, match="trace of chained product is not finite"):
                        bargmann_invariant(ops, w)
                    continue
                got = bargmann_invariant(ops, w)
                assert [got.real.hex(), got.imag.hex()] == expected, (k1, k2, w)


def test_scenario_catalog():
    assert set(scenario_catalog("winc2").words) == {(1, 1, 2, 2), (1, 2, 1, 2)}
    assert set(scenario_catalog("c3").words) == {(1, 2), (1, 3), (2, 3)}
    assert scenario_catalog("w3").words == ((1, 2, 3),)
    assert set(scenario_catalog("w23").words) == set(EMC_W23_EXPECTED)
    with pytest.raises(ValueError):
        scenario_catalog("nope")
    with pytest.raises(WordError):
        BargmannScenario(name="dup", words=((1, 2), (1, 2)))


def test_evaluate_scenario_emc_pairs():
    w23 = scenario_catalog("w23")
    rho_vals = evaluate_scenario(list(fixture("emc_rho_pair").states), w23)
    sigma_vals = evaluate_scenario(list(fixture("emc_sigma_pair").states), w23)
    assert list(rho_vals) == sorted(w23.words)
    for word, expected in EMC_W23_EXPECTED.items():
        assert rho_vals[word] == pytest.approx(expected, abs=1e-13)
        assert sigma_vals[word] == pytest.approx(expected, abs=1e-13)
        assert rho_vals[word] == pytest.approx(sigma_vals[word], abs=1e-13)


def test_evaluate_scenario_single_state_purity():
    rho = validate_state(np.diag([0.7, 0.3]).astype(complex))
    vals = evaluate_scenario([rho], BargmannScenario("purity", ((1, 1),)))
    assert vals[(1, 1)] == pytest.approx(purity(rho), abs=1e-14)


def test_cyclic_and_reversal_symmetries():
    rng = np.random.default_rng(30)
    states = [
        validate_state(g @ g.conj().T / np.trace(g @ g.conj().T).real)
        for g in (
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            for _ in range(3)
        )
    ]
    word = (1, 2, 3, 1, 2)
    base = bargmann_invariant(states, word)
    for shift in range(1, len(word)):
        rotated = word[shift:] + word[:shift]
        assert bargmann_invariant(states, rotated) == pytest.approx(base, rel=1e-12)
    assert bargmann_invariant(states, word[::-1]) == pytest.approx(
        np.conj(base), rel=1e-12
    )


def test_unitary_invariance():
    rng = np.random.default_rng(31)
    for d in (2, 4):
        states = [
            validate_state(g @ g.conj().T / np.trace(g @ g.conj().T).real)
            for g in (
                rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for _ in range(3)
            )
        ]
        u = haar_unitary(d, rng)
        rotated = [validate_state(u @ s.matrix @ u.conj().T) for s in states]
        for word in ((1, 2), (1, 2, 3), (1, 1, 2, 2), (3, 2, 1, 2)):
            assert bargmann_invariant(rotated, word) == pytest.approx(
                bargmann_invariant(states, word), abs=1e-10
            )


def test_classical_invariant_basics():
    # deterministic distributions on distinct outcomes never overlap
    cr = ClassicalRealization(basis_size=3, weights=[[1, 0, 0], [0, 1, 0]])
    assert classical_invariant(cr, (1, 2)) == 0.0
    assert classical_invariant(cr, (1, 2, 1)) == 0.0
    # uniform over two outcomes: sum_l (1/2)^m * 2 = 2^(1-m)
    uniform = ClassicalRealization(basis_size=2, weights=[[0.5, 0.5], [0.5, 0.5]])
    for m in (1, 2, 3, 5):
        word = tuple(1 + (i % 2) for i in range(m))
        assert classical_invariant(uniform, word) == pytest.approx(2.0 ** (1 - m))
    with pytest.raises(WordError):
        classical_invariant(uniform, (1, 3))
    with pytest.raises(ValueError):
        ClassicalRealization(basis_size=2, weights=[[1.0, -0.5]])
    with pytest.raises(ValueError, match=r"must have shape \(n_letters, 3\)"):
        ClassicalRealization(basis_size=3, weights=[[0.5, 0.5]])
    # NaN passes the negativity check and inf does not trip it, so both are refused first
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="weights must be finite"):
            ClassicalRealization(basis_size=2, weights=[[bad, 1.0]])


def test_classical_invariant_matches_commuting_pair():
    rng = np.random.default_rng(32)
    pair = commuting_set(4, 2, rng)
    # common eigenbasis from a generic linear combination
    combo = 0.7 * pair[0].matrix + 0.31 * pair[1].matrix
    basis = np.linalg.eigh(combo)[1]
    weights = np.array(
        [
            [float((basis[:, k].conj() @ s.matrix @ basis[:, k]).real) for k in range(4)]
            for s in pair
        ]
    )
    cr = ClassicalRealization(basis_size=4, weights=weights)
    for word in ((1, 1, 2, 2), (1, 2, 1, 2), (1, 2), (2, 2, 1)):
        assert classical_invariant(cr, word) == pytest.approx(
            bargmann_invariant(pair, word).real, abs=1e-10
        )
        assert abs(bargmann_invariant(pair, word).imag) < 1e-10


def test_commuting_sets_give_unit_interval_invariants():
    rng = np.random.default_rng(33)
    states = commuting_set(3, 3, rng)
    for word in ((1, 2), (1, 2, 3), (1, 1, 2, 2), (3, 1, 2, 3)):
        val = bargmann_invariant(states, word)
        assert abs(val.imag) <= 1e-10
        assert -1e-10 <= val.real <= 1 + 1e-10


def test_sigma_prime_trio_zero_invariant_but_coherent():
    # a vanishing third-order invariant does not certify incoherence
    from bargmann.criteria import SET_COHERENT, set_coherence_decide

    states = list(fixture("main_sigma_prime_trio").states)
    assert bargmann_invariant(states, (1, 2, 3)) == pytest.approx(0.0, abs=1e-14)
    assert set_coherence_decide(states).verdict == SET_COHERENT
