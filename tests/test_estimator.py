import numpy as np
import pytest

from bargmann.estimator import EstimatorConfig, estimate_gap, estimate_invariant
from bargmann.exceptions import NormalizationError
from bargmann.fixtures import fixture
from bargmann.invariants import bargmann_invariant
from bargmann.states import commuting_set, pure_state, random_state, validate_state


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(shots_per_setting=0)
    with pytest.raises(ValueError, match="2\\*\\*63"):
        EstimatorConfig(shots_per_setting=2**63)
    with pytest.raises(ValueError):
        EstimatorConfig(shots_per_setting=10, settings="sideways")
    with pytest.raises(ValueError):
        EstimatorConfig(shots_per_setting=10, seed=-1)


def test_degenerate_bernoulli_is_exact():
    # repeated pure state: Delta = 1, every real-setting shot succeeds
    psi = pure_state([1, 1j])
    cfg = EstimatorConfig(shots_per_setting=1000, seed=5, settings="real_only")
    res = estimate_invariant([psi], (1, 1, 1), cfg)
    assert res.estimate == 1.0 + 0.0j
    # stderr falls back to the clamp at the boundary
    assert res.stderr_re == pytest.approx(1e-3 / np.sqrt(1000))

    both = estimate_invariant(
        [psi], (1, 1, 1), EstimatorConfig(shots_per_setting=1000, seed=5)
    )
    assert both.estimate.real == 1.0
    # imaginary setting sits at p = 1/2, so its estimate is only statistically 0
    assert abs(both.estimate.imag) <= 5 * both.stderr_im


def test_single_shot_components():
    states = list(fixture("mub_trio").states)
    cfg = EstimatorConfig(shots_per_setting=1, seed=123)
    res = estimate_invariant(states, (1, 2, 3), cfg)
    assert res.estimate.real in (-1.0, 1.0)
    assert res.estimate.imag in (-1.0, 1.0)
    assert res.shots_used == 2


def test_determinism():
    states = list(fixture("mub_trio").states)
    cfg = EstimatorConfig(shots_per_setting=5000, seed=99)
    a = estimate_invariant(states, (1, 2, 3), cfg)
    b = estimate_invariant(states, (1, 2, 3), cfg)
    assert a == b


def test_real_only_setting():
    states = list(fixture("mub_trio").states)
    cfg = EstimatorConfig(shots_per_setting=4000, seed=3, settings="real_only")
    res = estimate_invariant(states, (1, 2, 3), cfg)
    assert res.estimate.imag == 0.0
    assert res.stderr_im == 0.0
    assert res.shots_used == 4000


def test_mub_trio_large_shot_recovery():
    states = list(fixture("mub_trio").states)
    cfg = EstimatorConfig(shots_per_setting=10**6, seed=7)
    res = estimate_invariant(states, (1, 2, 3), cfg)
    assert abs(res.estimate.real - 0.25) <= 5e-3
    assert abs(res.estimate.imag - 0.25) <= 5e-3


def test_unnormalized_state_rejected():
    unnorm = validate_state(np.eye(2, dtype=complex))
    with pytest.raises(NormalizationError):
        estimate_invariant([unnorm], (1, 1), EstimatorConfig(shots_per_setting=10))


def test_estimate_result_modulus_bound():
    rng = np.random.default_rng(60)
    states = [random_state(3, "ginibre_mixed", rng) for _ in range(2)]
    for seed in range(20):
        cfg = EstimatorConfig(shots_per_setting=500, seed=seed)
        res = estimate_invariant(states, (1, 2), cfg)
        bound = 1 + 3 * max(res.stderr_re, res.stderr_im)
        assert abs(res.estimate) <= bound


def test_estimate_gap_reference_pair():
    states = list(fixture("emc_rho_pair").states)
    cfg = EstimatorConfig(shots_per_setting=10**7, seed=11)
    est = estimate_gap(states, cfg)
    assert abs(est.gap_estimate - 9 / 3200) <= 5 * est.standard_error
    assert est.est_1122.shots_used == 10**7


def test_estimate_gap_identical_states():
    rho = random_state(3, "ginibre_mixed", np.random.default_rng(61))
    cfg = EstimatorConfig(shots_per_setting=10**5, seed=2)
    est = estimate_gap([rho, rho], cfg)
    assert abs(est.gap_estimate) <= 5 * est.standard_error


def test_estimate_gap_commuting_pair():
    states = commuting_set(4, 2, np.random.default_rng(62))
    cfg = EstimatorConfig(shots_per_setting=10**5, seed=8)
    est = estimate_gap(states, cfg)
    assert abs(est.gap_estimate) <= 5 * est.standard_error
    with pytest.raises(ValueError):
        estimate_gap(states[:1], cfg)


def test_unbiasedness():
    rng = np.random.default_rng(63)
    states = [random_state(3, "ginibre_mixed", rng) for _ in range(2)]
    exact = bargmann_invariant(states, (1, 2, 1))
    shots = 10**4
    samples = [
        estimate_invariant(
            states, (1, 2, 1), EstimatorConfig(shots_per_setting=shots, seed=seed)
        ).estimate
        for seed in range(200)
    ]
    re_vals = np.array([s.real for s in samples])
    im_vals = np.array([s.imag for s in samples])
    for vals, target in ((re_vals, exact.real), (im_vals, exact.imag)):
        sem = np.sqrt((1 - target**2) / shots) / np.sqrt(len(vals))
        assert abs(np.mean(vals) - target) <= 4 * sem


def test_inverse_sqrt_shot_scaling():
    states = list(fixture("mub_trio").states)
    stds = []
    for shots in (10**2, 10**4, 10**6):
        vals = [
            estimate_invariant(
                states, (1, 2, 3), EstimatorConfig(shots_per_setting=shots, seed=seed)
            ).estimate.real
            for seed in range(100)
        ]
        stds.append(np.std(vals))
    for hi, lo in zip(stds, stds[1:]):
        ratio = hi / lo
        assert 5 < ratio < 20  # ~10x per 100x shots
