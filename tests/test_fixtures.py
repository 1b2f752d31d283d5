import numpy as np
import pytest

from bargmann import fixtures as fx
from bargmann.criteria import SET_COHERENT, SET_INCOHERENT, commutator_gap, set_coherence_decide
from bargmann.invariants import evaluate_scenario, scenario_catalog
from bargmann.states import validate_state


def test_fixture_names_and_shapes():
    dims = {
        "mub_trio": (3, 2),
        "main_sigma_trio": (3, 5),
        "main_sigma_prime_trio": (3, 3),
        "trine": (3, 2),
        "c4_quartet": (4, 4),
        "emc_rho_pair": (2, 4),
        "emc_sigma_pair": (2, 4),
    }
    assert set(fx.FIXTURE_NAMES) == set(dims)
    for name, (count, dim) in dims.items():
        fix = fx.fixture(name)
        assert len(fix.states) == count
        assert all(s.dim == dim for s in fix.states)
        assert all(s.normalized for s in fix.states)
        assert fix.source


def test_unknown_fixture(monkeypatch):
    # one message, naming the choices, from fixture() and paper_check alike
    message = r"^unknown fixture 'nonexistent'; expected one of \('mub_trio', "
    with pytest.raises(ValueError, match=message):
        fx.fixture("nonexistent")
    with pytest.raises(ValueError, match=message):
        fx.paper_check(["trine", "nonexistent"])

    def broken():  # a KeyError inside a builder is its own, not an unknown name
        raise KeyError("inner")

    monkeypatch.setitem(fx._BUILDERS, "trine", broken)
    with pytest.raises(KeyError, match="inner"):
        fx.fixture("trine")


def test_emc_pairs_share_invariants_but_differ_in_verdict():
    rho = fx.fixture("emc_rho_pair")
    sigma = fx.fixture("emc_sigma_pair")
    w23 = scenario_catalog("w23")
    rho_vals = evaluate_scenario(list(rho.states), w23)
    sigma_vals = evaluate_scenario(list(sigma.states), w23)
    for word in w23.words:
        assert abs(rho_vals[word] - sigma_vals[word]) <= 1e-12
    assert set_coherence_decide(list(rho.states)).verdict == SET_COHERENT
    assert set_coherence_decide(list(sigma.states)).verdict == SET_INCOHERENT


def test_emc_gap_values():
    assert commutator_gap(*fx.fixture("emc_rho_pair").states).gap == pytest.approx(
        0.0028125, abs=1e-12
    )
    assert commutator_gap(*fx.fixture("emc_sigma_pair").states).gap == pytest.approx(
        0.0, abs=1e-12
    )


def test_paper_check_all_pass():
    report = fx.paper_check()
    assert report.passed
    assert report.max_abs_error < 1e-12
    names = {e.fixture for e in report.entries}
    assert names == set(fx.FIXTURE_NAMES)
    for entry in report.entries:
        assert entry.passed, (entry.fixture, entry.quantity, entry.abs_error)


def _c(re, im=0.0):
    return {"re": re, "im": im}


def _emc_rows(fixture, gap, verdict):
    return [
        (fixture, "gap", gap),
        (fixture, "delta_11", 13 / 32),
        (fixture, "delta_111", 23 / 128),
        (fixture, "delta_22", 137 / 450),
        (fixture, "delta_222", 31 / 300),
        (fixture, "delta_12", 67 / 240),
        (fixture, "delta_112", 223 / 1920),
        (fixture, "delta_122", 653 / 7200),
        (fixture, "verdict", verdict),
    ]


PAPER_CHECK_ROWS = [
    ("mub_trio", "delta_123", _c(0.25, 0.25)),
    ("mub_trio", "overlap_12", 0.5),
    ("mub_trio", "overlap_13", 0.5),
    ("mub_trio", "overlap_23", 0.5),
    ("mub_trio", "gram_eigenvalues_embedded_c4", [0.5, 0.5, 1.25]),
    ("mub_trio", "verdict", "set_coherent"),
    ("main_sigma_trio", "delta_123", _c(0.0)),
    ("main_sigma_trio", "verdict", "set_incoherent"),
    ("main_sigma_prime_trio", "delta_123", _c(0.0)),
    ("main_sigma_prime_trio", "verdict", "set_coherent"),
    ("trine", "overlap_12", 0.75),
    ("trine", "overlap_13", 0.75),
    ("trine", "overlap_23", 0.25),
    ("trine", "facet_value", 1.25),
    ("trine", "facet_member", False),
    ("trine", "delta_123", _c(0.375)),
    ("trine", "verdict", "set_coherent"),
    ("c4_quartet", "purity_1", 0.5),
    ("c4_quartet", "purity_2", 0.5),
    ("c4_quartet", "purity_3", 0.5),
    ("c4_quartet", "purity_4", 0.5),
    ("c4_quartet", "overlap_12", 0.25),
    ("c4_quartet", "overlap_13", 0.25),
    ("c4_quartet", "overlap_14", 0.25),
    ("c4_quartet", "overlap_23", 0.25),
    ("c4_quartet", "overlap_24", 0.25),
    ("c4_quartet", "overlap_34", 0.25),
    ("c4_quartet", "delta_123", _c(0.125)),
    ("c4_quartet", "delta_124", _c(0.0625)),
    ("c4_quartet", "delta_134", _c(0.0625)),
    ("c4_quartet", "delta_234", _c(0.0625)),
    ("c4_quartet", "delta_1234", _c(0.03125)),
    ("c4_quartet", "gram_matrix", (np.eye(4) / 4).tolist()),
    ("c4_quartet", "gram_rank", 4),
    ("c4_quartet", "verdict", "set_coherent"),
    *_emc_rows("emc_rho_pair", 9 / 3200, "set_coherent"),
    *_emc_rows("emc_sigma_pair", 0.0, "set_incoherent"),
]


def test_paper_check_rows():
    # every check, in report order, with its expected value as reported
    rows = [
        (row["fixture"], row["quantity"], row["expected"]) for row in fx.paper_check().to_json()
    ]
    assert rows == PAPER_CHECK_ROWS


def test_paper_check_subset_and_json():
    report = fx.paper_check(["trine"])
    assert report.passed
    payload = report.to_json()
    assert isinstance(payload, list)
    for row in payload:
        assert set(row) == {"fixture", "quantity", "expected", "computed", "abs_error", "pass"}
        assert row["fixture"] == "trine"


def test_paper_check_empty_filter_warns():
    with pytest.warns(UserWarning, match="vacuously"):
        report = fx.paper_check([])
    assert report.passed
    assert report.entries == ()
    assert report.max_abs_error == 0.0


def test_paper_check_fails_a_value_of_the_wrong_shape(monkeypatch):
    base = fx.fixture("trine")
    wrong = fx.Fixture(
        name=base.name,
        states=base.states,
        expected={"pair": fx.Check(lambda s: (0.5, 0.5), (0.5,))},
        source=base.source,
    )
    monkeypatch.setitem(fx._BUILDERS, "trine", lambda: wrong)
    report = fx.paper_check(["trine"])
    assert not report.passed
    assert report.entries[0].abs_error == float("inf")


def test_paper_check_flags_perturbed_fixture(monkeypatch):
    base = fx.fixture("emc_sigma_pair")
    noisy = np.array(base.states[1].matrix, copy=True)
    noisy[0, 0] += 1e-3
    noisy[1, 1] -= 1e-3
    perturbed = fx.Fixture(
        name=base.name,
        states=(base.states[0], validate_state(noisy)),
        expected=base.expected,
        source=base.source,
    )
    monkeypatch.setitem(fx._BUILDERS, "emc_sigma_pair", lambda: perturbed)
    report = fx.paper_check(["emc_sigma_pair"])
    assert not report.passed
    failing = [e.quantity for e in report.entries if not e.passed]
    assert "delta_22" in failing
