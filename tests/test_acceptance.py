"""Acceptance suite: every criterion prints one [PASS]/[FAIL] line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the statistical sweeps (criteria 7-10) dominate the runtime.
"""

import itertools
import json

import numpy as np

from bargmann import io as bio
from bargmann.cli import main as cli_main
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
    set_coherence_decide,
)
from bargmann.estimator import EstimatorConfig, estimate_invariant
from bargmann.fixtures import fixture
from bargmann.invariants import bargmann_invariant, scenario_catalog
from bargmann.states import (
    commuting_set,
    embed,
    overlap,
    purity,
    qubit_from_bloch,
    random_state,
)

W23_EXPECTED = {
    (1, 1): 13 / 32,
    (1, 1, 1): 23 / 128,
    (2, 2): 137 / 450,
    (2, 2, 2): 31 / 300,
    (1, 2): 67 / 240,
    (1, 1, 2): 223 / 1920,
    (1, 2, 2): 653 / 7200,
}


def _report(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number}: {description}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def _check(failures, ok, message):
    if not ok:
        failures.append(message)


def rand_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def rand_qubit(rng):
    r = rng.standard_normal(3)
    r *= rng.uniform(0, 1) / np.linalg.norm(r)
    return qubit_from_bloch(r)


def test_criterion_1_reference_pair_gaps():
    failures = []
    gap = commutator_gap(*fixture("emc_rho_pair").states).gap
    _check(failures, abs(gap - 9 / 3200) <= 1e-12, f"rho gap {gap!r} != 9/3200")
    gap0 = commutator_gap(*fixture("emc_sigma_pair").states).gap
    _check(failures, abs(gap0) <= 1e-12, f"sigma gap {gap0!r} != 0")
    _report(1, "noncommuting-pair gap 9/3200, commuting-pair gap 0 (1e-12)", failures)


def test_criterion_2_w23_invariant_matching():
    failures = []
    w23 = scenario_catalog("w23")
    rho_states = list(fixture("emc_rho_pair").states)
    sigma_states = list(fixture("emc_sigma_pair").states)
    for word, expected in W23_EXPECTED.items():
        rho_val = bargmann_invariant(rho_states, word)
        sigma_val = bargmann_invariant(sigma_states, word)
        _check(failures, abs(rho_val - expected) <= 1e-12, f"rho {word}: {rho_val}")
        _check(failures, abs(sigma_val - expected) <= 1e-12, f"sigma {word}: {sigma_val}")
        _check(failures, abs(rho_val - sigma_val) <= 1e-12, f"pair mismatch {word}")
    _check(failures, set(w23.words) == set(W23_EXPECTED), "catalog word set")
    _report(2, "seven 2-/3-letter invariants match on both pairs (1e-12)", failures)


def test_criterion_3_mub_trio():
    failures = []
    states = list(fixture("mub_trio").states)
    val = bargmann_invariant(states, (1, 2, 3))
    _check(failures, abs(val - (0.25 + 0.25j)) <= 1e-12, f"third-order invariant {val}")
    embedded = [embed(s, 4) for s in states]
    eigs = np.linalg.eigvalsh(gram_bloch(embedded, "orthonormal"))
    _check(
        failures,
        np.max(np.abs(eigs - np.array([0.5, 0.5, 1.25]))) <= 1e-10,
        f"embedded Gram eigenvalues {eigs}",
    )
    _report(3, "mub trio invariant (1+i)/4 and embedded Gram spectrum", failures)


def test_criterion_4_trine():
    failures = []
    states = list(fixture("trine").states)
    z12 = overlap(states[0], states[1])
    z13 = overlap(states[0], states[2])
    z23 = overlap(states[1], states[2])
    for got, want, name in ((z12, 0.75, "z12"), (z13, 0.75, "z13"), (z23, 0.25, "z23")):
        _check(failures, abs(got - want) <= 1e-12, f"{name} = {got!r}")
    facet = c3_facet_check(z12, z13, z23)
    _check(failures, abs((z12 + z13 - z23) - 1.25) <= 1e-12, "facet value != 1.25")
    _check(failures, not facet.member, "trine should violate membership")
    for word in itertools.product((1, 2, 3), repeat=3):
        val = bargmann_invariant(states, word)
        _check(failures, abs(val.imag) <= 1e-10, f"Im of {word}: {val.imag}")
        _check(failures, val.real >= -1e-10, f"Re of {word}: {val.real}")
    _report(4, "trine overlaps, facet violation 1.25, real nonneg third orders", failures)


def test_criterion_5_c4_quartet():
    failures = []
    states = list(fixture("c4_quartet").states)
    for i, s in enumerate(states, start=1):
        _check(failures, abs(purity(s) - 0.5) <= 1e-12, f"purity_{i}")
    for i in range(4):
        for j in range(i + 1, 4):
            _check(
                failures,
                abs(overlap(states[i], states[j]) - 0.25) <= 1e-12,
                f"overlap_{i+1}{j+1}",
            )
    triples = {
        (1, 2, 3): 0.125,
        (1, 2, 4): 0.0625,
        (1, 3, 4): 0.0625,
        (2, 3, 4): 0.0625,
        (1, 2, 3, 4): 0.03125,
    }
    for word, expected in triples.items():
        val = bargmann_invariant(states, word)
        _check(failures, abs(val - expected) <= 1e-12, f"delta_{word} = {val}")
    gram = gram_bloch(states, "orthonormal")
    _check(
        failures,
        np.max(np.abs(gram - np.eye(4) / 4)) <= 1e-12,
        "Gram matrix not I/4",
    )
    rank_report = gram_rank_criterion(states)
    _check(failures, rank_report.rank == 4, f"rank {rank_report.rank} != 4")
    verdict = set_coherence_decide(states).verdict
    _check(failures, verdict == SET_COHERENT, f"verdict {verdict}")
    _report(5, "quartet purities/overlaps/invariants, Gram I/4 rank 4, coherent", failures)


def test_criterion_6_main_text_realizations():
    failures = []
    sigma = list(fixture("main_sigma_trio").states)
    sigma_prime = list(fixture("main_sigma_prime_trio").states)
    v1 = bargmann_invariant(sigma, (1, 2, 3))
    v2 = bargmann_invariant(sigma_prime, (1, 2, 3))
    _check(failures, abs(v1) <= 1e-12, f"sigma invariant {v1}")
    _check(failures, abs(v2) <= 1e-12, f"sigma-prime invariant {v2}")
    _check(
        failures,
        set_coherence_decide(sigma).verdict == SET_INCOHERENT,
        "sigma trio should be incoherent",
    )
    _check(
        failures,
        set_coherence_decide(sigma_prime).verdict == SET_COHERENT,
        "sigma-prime trio should be coherent",
    )
    _report(6, "vanishing third-order invariant on both realizations, verdicts split", failures)


def test_criterion_7_hermitian_pair_property_suite():
    failures = []
    rng = np.random.default_rng(2024)
    scales = (0.5, 2.0, 10.0)
    n_pairs = 10**4
    worst_norm_rel = 0.0
    worst_scale_rel = 0.0
    min_gap = np.inf
    for _ in range(n_pairs):
        d = int(rng.integers(2, 9))
        a, b = rand_hermitian(rng, d), rand_hermitian(rng, d)
        pg = commutator_gap(a, b)
        min_gap = min(min_gap, pg.gap)
        ref = 0.5 * np.linalg.norm(a @ b - b @ a) ** 2
        if ref > 0:
            worst_norm_rel = max(worst_norm_rel, abs(pg.gap - ref) / ref)
        for s in scales:
            for t in scales:
                scaled = commutator_gap(s * a, t * b).gap
                target = s * s * t * t * pg.gap
                if target != 0:
                    worst_scale_rel = max(worst_scale_rel, abs(scaled - target) / abs(target))
    _check(failures, min_gap >= -1e-10, f"negative gap {min_gap}")
    _check(failures, worst_norm_rel <= 1e-10, f"norm identity rel err {worst_norm_rel}")
    _check(failures, worst_scale_rel <= 1e-10, f"scaling rel err {worst_scale_rel}")
    _report(
        7,
        f"10^4 Hermitian pairs: gap >= 0, norm identity ({worst_norm_rel:.1e}), "
        f"scaling covariance ({worst_scale_rel:.1e})",
        failures,
    )


def test_criterion_8_qubit_suite():
    failures = []
    rng = np.random.default_rng(2025)
    n_pairs = 10**4
    worst_poly = 0.0
    verdict_mismatches = 0
    for trial in range(n_pairs):
        if trial % 10 == 0:
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            a = qubit_from_bloch(axis * rng.uniform(0, 1))
            b = qubit_from_bloch(axis * rng.uniform(-1, 1))
        else:
            a, b = rand_qubit(rng), rand_qubit(rng)
        d11, d22, d12 = purity(a), purity(b), overlap(a, b)
        t1122 = bargmann_invariant([a, b], (1, 1, 2, 2)).real
        t1212 = bargmann_invariant([a, b], (1, 2, 1, 2)).real
        worst_poly = max(
            worst_poly,
            abs(qubit_delta1122(d11, d22, d12) - t1122),
            abs(qubit_delta1212(d11, d22, d12) - t1212),
        )
        if qubit_criterion(d11, d22, d12).commutes != commutator_gap(a, b).commutes:
            verdict_mismatches += 1
    _check(failures, worst_poly <= 1e-10, f"polynomial vs trace dev {worst_poly}")
    _check(failures, verdict_mismatches == 0, f"{verdict_mismatches} verdict mismatches")

    worst_quad = 0.0
    for _ in range(n_pairs):
        vecs = []
        for _ in range(4):
            r = rng.standard_normal(3)
            r *= rng.uniform(0, 1) / np.linalg.norm(r)
            vecs.append(r)
        states = [qubit_from_bloch(r) for r in vecs]
        direct = bargmann_invariant(states, (1, 2, 3, 4))
        worst_quad = max(worst_quad, abs(qubit_fourth_order(*vecs) - direct))
    _check(failures, worst_quad <= 1e-10, f"fourth-order closed form dev {worst_quad}")
    _report(
        8,
        f"10^4 qubit pairs and quadruples: polynomials ({worst_poly:.1e}), "
        f"verdict agreement, closed form ({worst_quad:.1e})",
        failures,
    )


def test_criterion_9_imaginarity_bound():
    failures = []
    rng = np.random.default_rng(2026)
    worst_slack = np.inf
    for _ in range(10**3):
        d = int(rng.integers(2, 6))
        states = [random_state(d, "ginibre_mixed", rng) for _ in range(3)]
        wit = imaginarity_witness(*states)
        worst_slack = min(worst_slack, wit.rhs - wit.lhs)
    _check(failures, worst_slack >= -1e-10, f"bound violated by {worst_slack}")
    for seed in range(50):
        states = commuting_set(int(rng.integers(2, 6)), 3, np.random.default_rng(seed))
        wit = imaginarity_witness(*states)
        _check(failures, wit.lhs <= 1e-10, f"commuting lhs {wit.lhs}")
    _report(
        9,
        f"imaginarity bound on 10^3 random triples (min slack {worst_slack:.1e}) "
        "and zero lhs on commuting triples",
        failures,
    )


def test_criterion_10_estimator_statistics():
    failures = []
    states = list(fixture("mub_trio").states)
    res = estimate_invariant(
        states, (1, 2, 3), EstimatorConfig(shots_per_setting=10**6, seed=7)
    )
    _check(
        failures,
        abs(res.estimate.real - 0.25) <= 5e-3 and abs(res.estimate.imag - 0.25) <= 5e-3,
        f"10^6-shot estimate {res.estimate} off (0.25, 0.25)",
    )
    shots = 10**4
    reals = np.array(
        [
            estimate_invariant(
                states, (1, 2, 3), EstimatorConfig(shots_per_setting=shots, seed=seed)
            ).estimate.real
            for seed in range(200)
        ]
    )
    theory = np.sqrt((1 - 0.25**2) / shots)
    empirical = float(np.std(reals))
    ratio = empirical / theory
    _check(failures, 1 / 1.5 <= ratio <= 1.5, f"std ratio {ratio} outside factor 1.5")
    _report(
        10,
        f"estimator recovers (0.25, 0.25) at 10^6 shots; std ratio {ratio:.3f}",
        failures,
    )


def test_criterion_11_cli_contract(tmp_path, capsys):
    failures = []
    paths = {}
    for name in ("emc_rho_pair", "emc_sigma_pair", "mub_trio"):
        p = tmp_path / f"{name}.json"
        bio.save_state_set(p, list(fixture(name).states))
        paths[name] = str(p)

    out = tmp_path / "paper_check.json"
    code = cli_main(["paper-check", "--out", str(out)])
    _check(failures, code == 0, f"paper-check exit {code}")
    report = json.loads(out.read_text())
    max_err = max(row["abs_error"] for row in report)
    _check(failures, max_err < 1e-12, f"paper-check max deviation {max_err}")
    _check(failures, all(row["pass"] for row in report), "paper-check row failed")

    code = cli_main(["coherence", paths["emc_sigma_pair"], "--out", str(tmp_path / "a.json")])
    _check(failures, code == 0, f"commuting pair exit {code} != 0")
    code = cli_main(["coherence", paths["emc_rho_pair"], "--out", str(tmp_path / "b.json")])
    _check(failures, code == 1, f"noncommuting pair exit {code} != 1")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = cli_main(["coherence", str(bad)])
    _check(failures, code == 2, f"malformed input exit {code} != 2")
    code = cli_main(["invariant", paths["mub_trio"], "--word", "1,9"])
    _check(failures, code == 2, f"bad word exit {code} != 2")
    capsys.readouterr()  # swallow CLI stdout/stderr so the verdict line stays visible
    _report(
        11,
        f"paper-check exit 0 (max dev {max_err:.1e}) and 0/1/2 exit-code contract",
        failures,
    )
