import json
import math
import sys

import numpy as np
import pytest

from bargmann import io as bio
from bargmann.cli import _write_report, main
from bargmann.criteria import (
    COMMUTE_TOL,
    SET_INCOHERENT,
    imaginarity_witness,
    qubit_criterion,
    reduced_set_coherence,
    set_coherence_decide,
)
from bargmann.exceptions import DegenerateReferenceError, DocumentError
from bargmann.fixtures import FIXTURE_NAMES, fixture
from bargmann.states import (
    commuting_set,
    maximally_mixed,
    overlap,
    pure_state,
    purity,
    qubit_from_bloch,
    random_state,
    validate_state,
)


@pytest.fixture
def fixture_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.json"
        bio.save_state_set(path, list(fixture(name).states))
        return str(path)

    return write


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_invariant_command(fixture_file, capsys):
    code, payload = run_json(capsys, ["invariant", fixture_file("mub_trio"), "--word", "1,2,3"])
    assert code == 0
    assert payload["word"] == "1,2,3"
    assert payload["re"] == pytest.approx(0.25, abs=1e-12)
    assert payload["im"] == pytest.approx(0.25, abs=1e-12)


def test_invariant_purity_word(fixture_file, capsys):
    path = fixture_file("emc_rho_pair")
    code, payload = run_json(capsys, ["invariant", path, "--word", "1,1"])
    assert code == 0
    assert payload["re"] == pytest.approx(13 / 32, abs=1e-12)


def test_invariant_bad_word_exits_2(fixture_file, capsys):
    code = main(["invariant", fixture_file("mub_trio"), "--word", "1,5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error" in captured.err


def test_coherence_exit_codes(fixture_file, capsys, tmp_path):
    code, payload = run_json(capsys, ["coherence", fixture_file("emc_sigma_pair")])
    assert code == 0
    assert payload["verdict"] == "set_incoherent"
    assert payload["mode"] == "full"
    assert payload["invariant_count"] == 2

    code, payload = run_json(capsys, ["coherence", fixture_file("emc_rho_pair")])
    assert code == 1
    assert payload["verdict"] == "set_coherent"
    assert payload["pairs"][0]["gap"] == pytest.approx(0.0028125, abs=1e-12)

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["coherence", str(bad)]) == 2


def test_coherence_reduced_mode(fixture_file, tmp_path, capsys):
    code, payload = run_json(
        capsys, ["coherence", fixture_file("emc_rho_pair"), "--reference", "1"]
    )
    assert code == 1
    assert payload["mode"] == "reduced"
    assert payload["reference"] == 1

    # a fully degenerate reference (delta = 0) needs no certificate for a
    # non-commuting pair: set_coherent, as in full mode
    argv = ["coherence", fixture_file("c4_quartet"), "--reference", "1"]
    code, payload = run_json(capsys, argv)
    assert (code, payload["verdict"], payload["mode"]) == (1, "set_coherent", "reduced")

    # but cannot certify an all-commuting set: an operational error
    path = tmp_path / "flat.json"
    bio.save_state_set(path, [maximally_mixed(2), qubit_from_bloch((0, 0, 0.4))])
    assert main(["coherence", str(path), "--reference", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "degenerate" in captured.err


@pytest.mark.parametrize("d, n", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (4, 3), (64, 2),
                                  (64, 3), (1, 100), (4, 100)])
def test_coherence_report_is_the_library_report_as_stdlib_text(d, n, tmp_path, capsys):
    # the CLI writes the pair table from the kernel's columns; its text is the
    # stdlib's indent=2 text of the library report, in full mode and with the
    # first, middle and last reference, for commuting, Ginibre and mixed sets
    # at traces 1e-2, 1 and 1e2 (decided at the default tolerance times trace^4)
    rng = np.random.default_rng(1000 * d + n)
    for kind, trace in (("commuting", 1e-2), ("ginibre", 1.0), ("mixed", 1e2)):
        mats = [s.matrix for s in commuting_set(d, n, rng)]
        for i in {"commuting": [], "ginibre": range(n), "mixed": [n // 2]}[kind]:
            mats[i] = random_state(d, "ginibre_mixed", rng).matrix
        ops = [validate_state(trace * m) for m in mats]
        tol = COMMUTE_TOL * trace**4
        path = tmp_path / f"{kind}.json"
        bio.save_state_set(path, ops)
        for reference in (None, *sorted({1, (n + 1) // 2, n})):
            argv = ["coherence", str(path), "--tol", repr(tol)]
            try:
                if reference is None:
                    report = set_coherence_decide(ops, tol)
                else:
                    report = reduced_set_coherence(ops, reference, tol)
                    argv += ["--reference", str(reference)]
            except DegenerateReferenceError:
                expected = ("", 2)
            else:
                expected = (json.dumps({**report.to_dict(), "tol": tol}, indent=2) + "\n",
                            int(report.verdict != SET_INCOHERENT))
            code = main(argv)
            assert (capsys.readouterr().out, code) == expected, (kind, reference)


def test_estimate_command(fixture_file, capsys):
    path = fixture_file("mub_trio")
    code, payload = run_json(
        capsys,
        ["estimate", path, "--word", "1,2,3", "--shots", "1000000", "--seed", "7"],
    )
    assert code == 0
    assert set(payload) == {"word", "re", "im", "stderr_re", "stderr_im", "shots"}
    assert abs(payload["re"] - 0.25) <= 5e-3
    assert abs(payload["im"] - 0.25) <= 5e-3
    assert payload["shots"] == 2 * 10**6

    code, payload = run_json(
        capsys, ["estimate", path, "--word", "1,2,3", "--shots", "1", "--seed", "0"]
    )
    assert code == 0
    assert payload["re"] in (-1.0, 1.0)
    assert payload["im"] in (-1.0, 1.0)

    assert main(["estimate", path, "--word", "1,2,3", "--shots", "0"]) == 2


def test_estimate_checks_only_the_words_states(tmp_path, capsys):
    # the third state of this trio has trace 0.5
    path = str(tmp_path / "trio.json")
    diagonals = ([1.0, 0, 0], [0, 1.0, 0], [0, 0, 0.5])
    bio.save_state_set(path, [validate_state(np.diag(d)) for d in diagonals])
    code, payload = run_json(capsys, ["estimate", path, "--word", "1,2", "--shots", "100"])
    assert code == 0
    assert payload["word"] == "1,2"
    assert main(["estimate", path, "--word", "1,3", "--shots", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: state 3 has trace 0.5; estimation requires normalized states "
        "so expectations stay in [-1, 1]\n"
    )


def test_estimate_gap_command(fixture_file, capsys):
    code, payload = run_json(
        capsys,
        ["estimate-gap", fixture_file("emc_rho_pair"), "--shots", "100000", "--seed", "1"],
    )
    assert code == 0
    assert abs(payload["gap_estimate"] - 0.0028125) <= 5 * payload["standard_error"]


def test_paper_check_command(capsys, tmp_path):
    out = tmp_path / "report.json"
    assert main(["paper-check", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert isinstance(report, list)
    assert all(row["pass"] for row in report)
    assert max(row["abs_error"] for row in report) < 1e-12

    code, report = run_json(capsys, ["paper-check", "--fixtures", "trine"])
    assert code == 0
    assert {row["fixture"] for row in report} == {"trine"}

    assert main(["paper-check", "--fixtures", "unknown_thing"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown fixture 'unknown_thing'; expected one of {FIXTURE_NAMES}\n"

    # an empty filter passes vacuously, with one warning line and no source path
    assert main(["paper-check", "--fixtures", ""]) == 0
    captured = capsys.readouterr()
    assert captured.out == "[]\n"
    assert captured.err == "warning: no fixtures selected; check passes vacuously\n"


def test_random_round_trip(tmp_path, capsys):
    out = tmp_path / "states.json"
    assert main([
        "random", "--dim", "2", "--count", "3",
        "--ensemble", "haar_pure", "--seed", "5", "--out", str(out),
    ]) == 0
    state_set = bio.load_state_set(out)
    assert state_set.dimension == 2
    assert len(state_set.states) == 3
    for s in state_set.states:
        assert purity(s) == pytest.approx(1.0, abs=1e-12)

    # re-read by another command without modification
    code, payload = run_json(capsys, ["coherence", str(out)])
    assert code in (0, 1)

    # repeated seed gives a byte-identical file
    out2 = tmp_path / "states2.json"
    main([
        "random", "--dim", "2", "--count", "3",
        "--ensemble", "haar_pure", "--seed", "5", "--out", str(out2),
    ])
    assert out.read_bytes() == out2.read_bytes()


def test_random_commuting_then_coherence(tmp_path):
    out = tmp_path / "commuting.json"
    assert main([
        "random", "--dim", "4", "--count", "3",
        "--ensemble", "commuting", "--seed", "9", "--out", str(out),
    ]) == 0
    assert main(["coherence", str(out)]) == 0


def test_dim1_states_commute_at_zero_tolerance(tmp_path, capsys):
    # 1x1 states always commute; a stored rounding residue such as 1+4.7e-18j
    # would give them a positive gap
    path = str(tmp_path / "dim1.json")
    argv = ["random", "--dim", "1", "--count", "3", "--ensemble", "haar_pure",
            "--seed", "5", "--out", path]
    assert main(argv) == 0
    code, payload = run_json(capsys, ["coherence", path, "--tol", "0"])
    assert code == 0
    assert payload["verdict"] == "set_incoherent"
    assert all(p["gap"] == 0.0 for p in payload["pairs"])


def test_qubit_check_command(fixture_file, capsys):
    code, payload = run_json(capsys, ["qubit-check", fixture_file("trine")])
    assert code == 1
    assert payload["verdict"] == "set_coherent"
    assert len(payload["pairs"]) == 3
    # wrong dimension is an operational error
    assert main(["qubit-check", fixture_file("c4_quartet")]) == 2


@pytest.mark.parametrize("commuting", [True, False])
def test_qubit_check_report_is_its_records_as_stdlib_text(commuting, tmp_path, capsys):
    # the pair rows go to the encoder as columns; the text is the stdlib's
    # indent=2 text of the same rows as dicts
    rng = np.random.default_rng(9)
    ops = list(commuting_set(2, 5, rng)) if commuting else \
        [random_state(2, "ginibre_mixed", rng) for _ in range(5)]
    path = tmp_path / "qubits.json"
    bio.save_state_set(path, ops)
    pairs = [{"indices": [l + 1, k + 1],
              **qubit_criterion(purity(ops[l]), purity(ops[k]), overlap(ops[l], ops[k])).to_dict()}
             for l in range(5) for k in range(l + 1, 5)]
    verdict = "set_incoherent" if commuting else "set_coherent"
    expected = {"pairs": pairs, "verdict": verdict, "tol": COMMUTE_TOL}
    assert main(["qubit-check", str(path)]) == int(not commuting)
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


def test_qubit_check_reads_each_purity_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "qubits.json"
    bio.save_state_set(path, commuting_set(2, 4, np.random.default_rng(8)))
    calls = []

    def counting(rho):
        calls.append(1)
        return purity(rho)

    monkeypatch.setattr("bargmann.states.purity", counting)
    code, payload = run_json(capsys, ["qubit-check", str(path)])
    assert code == 0
    assert payload["verdict"] == "set_incoherent"
    assert len(payload["pairs"]) == 6 and all(p["commutes"] for p in payload["pairs"])
    assert len(calls) == 4


def test_gram_command(fixture_file, capsys):
    code, payload = run_json(capsys, ["gram", fixture_file("c4_quartet")])
    assert code == 1
    assert payload["rank"] == 4
    assert payload["bound"] == 3
    np.testing.assert_allclose(np.array(payload["gram"]), np.eye(4) / 4, atol=1e-12)

    code, payload = run_json(capsys, ["gram", fixture_file("mub_trio")])
    assert code == 1  # qubit trio with non-collinear Bloch vectors
    assert payload["convention"] == "pauli"


def test_facets_command(fixture_file, capsys, tmp_path):
    code, payload = run_json(capsys, ["facets", fixture_file("trine")])
    assert code == 1
    assert not payload["member"]
    assert payload["facet_slacks"][0] == pytest.approx(-0.25, abs=1e-12)

    code, payload = run_json(capsys, ["facets", fixture_file("mub_trio")])
    assert code == 0
    assert payload["member"]

    # needs exactly three states
    pair = tmp_path / "pair.json"
    bio.save_state_set(pair, list(fixture("emc_rho_pair").states))
    assert main(["facets", str(pair)]) == 2


@pytest.mark.parametrize(
    "command, diagonals",
    [("qubit-check", [(2, 0), (0, 2)]), ("facets", [(1, 1, 0)] * 3)],
    ids=["qubit-check", "facets"],
)
def test_unit_trace_commands_reject_other_traces(command, diagonals, tmp_path, capsys):
    # Each document has trace-2 states; halved, they are valid unit-trace inputs
    # (a commuting qubit pair, a trio inside the overlap polytope).
    def write(name, scale):
        path = tmp_path / f"{name}.json"
        bio.save_state_set(path, [validate_state(scale * np.diag(d)) for d in diagonals])
        return str(path)

    assert main([command, write("unit", 0.5)]) == 0
    capsys.readouterr()
    assert main([command, write("trace2", 1.0)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: state 1 has trace 2.0; {command} requires normalized states\n"


def test_imaginarity_command(fixture_file, capsys):
    code, payload = run_json(capsys, ["imaginarity", fixture_file("mub_trio")])
    assert code == 1
    assert payload["satisfied"]
    assert payload["im_delta"] == pytest.approx(0.25, abs=1e-12)

    code, payload = run_json(capsys, ["imaginarity", fixture_file("main_sigma_trio")])
    assert code == 0
    assert payload["im_delta"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
def test_imaginarity_finding_is_scale_free(scale, tmp_path, capsys):
    # |Im tr(rho1 rho2 rho3)| is measured against the three Frobenius norms:
    # at scale 1e-4 it is 2.5e-13, below an absolute 1e-10
    path = tmp_path / "mub.json"
    bio.save_state_set(path, [validate_state(scale * s.matrix) for s in fixture("mub_trio").states])
    code, payload = run_json(capsys, ["imaginarity", str(path)])
    assert code == 1
    assert payload["im_delta"] == pytest.approx(0.25 * scale**3, rel=1e-12)


def test_imaginarity_real_trio_at_large_trace_is_no_finding(tmp_path, capsys):
    rng = np.random.default_rng(9)
    real = [g @ g.T for g in rng.standard_normal((3, 3, 3))]
    path = tmp_path / "real.json"
    bio.save_state_set(path, [validate_state(1e4 * m / np.trace(m)) for m in real])
    code, payload = run_json(capsys, ["imaginarity", str(path)])
    assert code == 0
    assert payload["im_delta"] == 0.0


@pytest.mark.parametrize("scales", [(1e160, 1e-100, 1e-100), (1e-100,) * 3, (1e-170, 1.0, 1.0),
                                    (1e-150,) * 3, (1e-200, 1e100, 1e100)])
def test_imaginarity_outside_unit_scale_is_a_finite_finding(scales, ginibre_trio, tmp_path, capsys):
    # |Im| is about 0.08 of the norms' product at every scale: no side of the
    # bound may overflow to nan or underflow to 0 where the result does not,
    # and at 1e-150, where Im itself (about 5e-452) reads 0, the finding is
    # read on the trio rescaled by powers of two; at (1e-200, 1e100, 1e100)
    # the unscaled tr(rho_2^2 rho_3^2), about 1e400, is past the double range
    # but is no output, so it is no error
    path = tmp_path / "trio.json"
    bio.save_state_set(path, ginibre_trio(scales))
    code, payload = run_json(capsys, ["imaginarity", str(path)])
    assert code == 1
    assert payload["satisfied"] is True
    assert all(math.isfinite(payload[k]) for k in ("lhs", "rhs", "im_delta"))
    rhs = imaginarity_witness(*ginibre_trio((1.0, 1.0, 1.0))).rhs * math.prod(scales)
    assert payload["rhs"] == pytest.approx(rhs, rel=1e-12, abs=0)


def test_gram_conventions_differ_by_two_and_share_the_rank(fixture_file, capsys):
    path = fixture_file("mub_trio")
    _, pauli = run_json(capsys, ["gram", path, "--convention", "pauli"])
    _, ortho = run_json(capsys, ["gram", path, "--convention", "orthonormal"])
    assert (pauli["convention"], ortho["convention"]) == ("pauli", "orthonormal")
    np.testing.assert_allclose(pauli["gram"], 2 * np.array(ortho["gram"]), rtol=0, atol=1e-15)
    assert pauli["rank"] == ortho["rank"] == 3


def test_estimate_real_only_settings(fixture_file, capsys):
    code, payload = run_json(capsys, [
        "estimate", fixture_file("mub_trio"), "--word", "1,2,3", "--shots", "1000",
        "--settings", "real_only",
    ])
    assert code == 0
    assert payload["shots"] == 1000
    assert payload["im"] == payload["stderr_im"] == 0.0
    assert payload["stderr_re"] > 0


def test_coherence_refuses_a_reduced_verdict_it_cannot_certify(near_degenerate_trio, tmp_path,
                                                              capsys):
    # the reference's eigengap 2e-8 cannot certify set_incoherent
    path = tmp_path / "trio.json"
    bio.save_state_set(path, near_degenerate_trio)
    assert main(["coherence", str(path), "--reference", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "degenerate" in captured.err


def test_coherence_certifies_a_near_degenerate_reference(near_degenerate_commuting, tmp_path,
                                                         capsys):
    # the reference's eigengap 5e-9 is small, but certifies these gaps below 1e-32
    path = tmp_path / "near.json"
    bio.save_state_set(path, near_degenerate_commuting)
    code, payload = run_json(capsys, ["coherence", str(path), "--reference", "1"])
    assert (code, payload["verdict"], payload["mode"]) == (0, "set_incoherent", "reduced")


def _near_collinear_qubits(path):
    # pauli Gram eigenvalues 0.5 and 5e-7: rank 2 unless the cutoff passes 1e-6
    bio.save_state_set(path, [qubit_from_bloch((0, 0, 0.5)), qubit_from_bloch((1e-3, 0, 0.5))])
    return str(path)


@pytest.mark.parametrize(
    "command, document, tol, key, default_value, flipped_value",
    [
        ("qubit-check", "mub_trio", "0.3", "verdict", "set_coherent", "set_incoherent"),
        ("gram", "near_collinear", "1e-3", "rank", 2, 1),
        ("facets", "trine", "0.3", "member", False, True),
        ("imaginarity", "mub_trio", "0.3", "tol", 1e-10, 0.3),
    ],
)
def test_tol_flips_each_finding(command, document, tol, key, default_value, flipped_value,
                                fixture_file, tmp_path, capsys):
    if document == "near_collinear":
        path = _near_collinear_qubits(tmp_path / "qubits.json")
    else:
        path = fixture_file(document)
    code, payload = run_json(capsys, [command, path])
    assert (code, payload[key]) == (1, default_value)
    code, payload = run_json(capsys, [command, path, "--tol", tol])
    assert (code, payload[key]) == (0, flipped_value)


_RANDOM = {
    "commuting": ["--dim", "4", "--count", "3", "--ensemble", "commuting", "--seed", "1"],
    "ginibre_qubits": ["--dim", "2", "--count", "3", "--seed", "4"],
}


@pytest.mark.parametrize(
    "command, document, tol_args",
    [
        ("coherence", "commuting", ["--tol", "nan"]),
        ("coherence", "commuting", ["--tol", "inf"]),
        ("coherence", "commuting", ["--tol=-1e-300"]),
        ("coherence", "commuting", ["--tol", "abc"]),
        ("gram", "ginibre_qubits", ["--tol", "nan"]),
        ("qubit-check", "trine", ["--tol", "nan"]),
        ("facets", "trine", ["--tol", "nan"]),
        ("imaginarity", "mub_trio", ["--tol", "inf"]),
    ],
    ids=["coherence-nan", "coherence-inf", "coherence-negative", "coherence-not-a-number",
         "gram-nan", "qubit-check-nan", "facets-nan", "imaginarity-inf"],
)
def test_tolerances_that_decide_nothing_are_usage_errors(command, document, tol_args,
                                                         fixture_file, tmp_path, capsys):
    if document in _RANDOM:
        path = str(tmp_path / "random.json")
        assert main(["random", *_RANDOM[document], "--out", path]) == 0
    else:
        path = fixture_file(document)
    assert main([command, path, *tol_args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be a finite number >= 0" in captured.err


def test_non_finite_pair_invariants_exit_2(tmp_path, capsys):
    # a commuting set at trace 1e100: tr(A^2 B^2) overflows, so no verdict
    path = tmp_path / "huge.json"
    rng = np.random.default_rng(1)
    bio.save_state_set(path, [validate_state(1e100 * s.matrix) for s in commuting_set(4, 3, rng)])
    assert main(["coherence", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: pair invariants are not finite")
    # and no report carries NaN or Infinity, which are not JSON
    with pytest.raises(ValueError):
        _write_report({"gap": float("nan")}, None)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("reference", [None, 1, 2])
def test_pair_values_below_the_double_range_are_written_not_refused(reference, tmp_path, capsys):
    # a d=4 Ginibre pair (relative gap 0.07) at trace 1e-80: tr(A^2 B^2) is
    # about 4e-322, a subnormal.  Read on the pair rescaled by powers of two,
    # its imaginary residue is no error, and each value is written as its
    # subnormal, as the library reports it
    rng = np.random.default_rng(5)
    ops = [validate_state(1e-80 * random_state(4, "ginibre_mixed", rng).matrix) for _ in range(2)]
    path = tmp_path / "tiny.json"
    bio.save_state_set(path, ops)
    argv = ["coherence", str(path), "--tol", "0"]
    if reference is None:
        report = set_coherence_decide(ops, 0.0)
    else:
        report = reduced_set_coherence(ops, reference, 0.0)
        argv += ["--reference", str(reference)]
    code, payload = run_json(capsys, argv)
    assert (code, payload["verdict"], report.verdict) == (1, "set_coherent", "set_coherent")
    assert payload == {**report.to_dict(), "tol": 0.0}
    pair = payload["pairs"][0]
    assert 0 < pair["gap"] < pair["delta_llkk"] < sys.float_info.min


@pytest.mark.parametrize("scales", [(1e-160, 1e160), (1e-170, 1e170), (1e-250, 1e250)])
def test_invariant_of_a_mixed_scale_pair_is_the_unit_pairs(scales, ginibre_pair, tmp_path, capsys):
    # the parent multiplied the raw pair, so A^2 underflowed: it wrote 0.0, exit 0
    a, b = (op.matrix for op in ginibre_pair((1.0, 1.0)))
    unit = complex(np.trace(a @ a @ b @ b))
    path = tmp_path / "mixed.json"
    bio.save_state_set(path, ginibre_pair(scales))
    code, payload = run_json(capsys, ["invariant", str(path), "--word", "1,1,2,2"])
    assert code == 0
    assert abs(complex(payload["re"], payload["im"]) - unit) <= 1e-15 * abs(unit)


@pytest.mark.parametrize("vector, length", [([1, 0], 1100), (np.ones(16), 400)],
                         ids=["basis-projector", "uniform-d16"])
def test_invariant_of_a_long_word_is_one(vector, length, tmp_path, capsys):
    # every power of a pure state has trace 1, at any length of word, with no
    # numpy warning (pytest makes one an error) and nothing on stderr
    path = tmp_path / "pure.json"
    bio.save_state_set(path, [pure_state(vector)])
    code = main(["invariant", str(path), "--word", ",".join(["1"] * length)])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert (code, payload["re"], payload["im"], captured.err) == (0, 1.0, 0.0, "")


@pytest.mark.parametrize(
    "argv, trace, dim, message",
    [
        (["coherence"], 1e200, 3, "error: pair invariants are not finite"),
        (["imaginarity"], 1e200, 3, "error: trace of chained product is not finite"),
        (["imaginarity"], 1e300, 2, "error: trace of chained product is not finite"),
        (["invariant", "--word", "1,2"], 1e200, 3,
         "error: trace of chained product is not finite"),
        (["gram"], 1e160, 2, "error: Bloch Gram matrix is not finite"),
        # diag(1e308, 1e308) is finite, but its Hermitian part (A + A†)/2 is not
        (["coherence"], None, 2, "error: entries past half the double range"),
    ],
    ids=["coherence", "imaginarity", "imaginarity-qubits", "invariant", "gram", "hermitian-part"],
)
def test_overflow_is_one_error_line(argv, trace, dim, message, tmp_path, capsys):
    # numpy's overflow warnings are not printed ahead of the typed error
    # (pytest turns any RuntimeWarning into an exception)
    path = tmp_path / "huge.json"
    if trace is None:  # written as text: validate_state refuses the matrix
        big = [[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]
        path.write_text(json.dumps({"dimension": dim, "states": [{"label": "a", "matrix": big}]}))
    else:
        rng = np.random.default_rng(3)
        mats = [random_state(dim, "ginibre_mixed", rng).matrix for _ in range(3)]
        bio.save_state_set(path, [validate_state(trace * m) for m in mats])
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_inputs_out_of_range_are_one_error_line(fixture_file, tmp_path, capsys):
    # a shot count past numpy's 64-bit sampler, and JSON nested past the
    # parser's recursion limit, are input errors rather than tracebacks
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    for argv in (
        ["estimate", fixture_file("emc_sigma_pair"), "--word", "1,2", "--shots", str(10**19)],
        ["coherence", str(deep)],
        ["random", "--dim", "0", "--count", "1"],
        ["random", "--dim", "2", "--count", "0", "--ensemble", "commuting"],
        ["random", "--dim", "0", "--count", "0"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    # a count below 1 is named before anything is drawn, in every ensemble
    assert captured.err == "error: --count must be at least 1, got 0\n"


@pytest.mark.parametrize(
    "error",
    [MemoryError("Unable to allocate 64.0 TiB for an array with shape (2097152, 2097152) "
                 "and data type complex128"), MemoryError()],
    ids=["numpy-message", "bare"],
)
def test_out_of_memory_is_one_error_line(error, capsys, monkeypatch):
    # exit 1 is a finding, so running out of memory must not end there
    def exhausted(*args):
        raise error

    monkeypatch.setattr("bargmann.states.random_state", exhausted)
    assert main(["random", "--dim", "2", "--count", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {str(error) or 'MemoryError'}\n"


def test_reports_are_clean_json_on_stdout(fixture_file, capsys):
    # stdout carries exactly one JSON document, stderr stays empty on success
    code = main(["coherence", fixture_file("emc_sigma_pair")])
    captured = capsys.readouterr()
    assert code == 0
    json.loads(captured.out)
    assert captured.err == ""


def test_document_validation(tmp_path, capsys):
    doc = {"dimension": 2, "states": [{"label": "a", "matrix": [[[1, 0]]]}]}
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    assert main(["coherence", str(path)]) == 2

    doc = {
        "dimension": 2,
        "states": [
            {"label": "a", "matrix": bio.matrix_to_json(np.eye(2) / 2)},
            {"label": "a", "matrix": bio.matrix_to_json(np.eye(2) / 2)},
        ],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    assert main(["coherence", str(path)]) == 2

    # a boolean dimension, and an int entry beyond the double range, are input
    # errors rather than escaping exceptions
    for name, doc in [
        ("booldim", {"dimension": True, "states": [{"label": "a", "matrix": [[[1, 0]]]}]}),
        ("huge", {"dimension": 1, "states": [{"label": "a", "matrix": [[[10**400, 0]]]}]}),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["coherence", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


_HALF = validate_state(np.eye(2, dtype=complex) / 2)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: bio.matrix_from_json([[[1, 0], [0, 0]], [[0, 0]]], 2),
         "row 1 must have 2 entries"),
        (lambda: bio.matrix_from_json([[[1, 0], [0, 0, 0]], [[0, 0], [1, 0]]], 2),
         "entry (0, 1) must be a [re, im] pair of numbers"),
        (lambda: bio.matrix_from_json([[[1, 0], [0, 0]], [[0, 0], ["1", 0]]], 2),
         "entry (1, 1) must be a [re, im] pair of numbers"),
        (lambda: bio.state_set_from_document([{"dimension": 1}]),
         "document must be a JSON object"),
        (lambda: bio.state_set_from_document({"dimension": 1, "states": []}),
         "'states' must be a nonempty array"),
        (lambda: bio.state_set_from_document({"dimension": 1, "states": [{"label": "a"}]}),
         "state 0 must be an object with 'label' and 'matrix'"),
        (lambda: bio.state_set_to_document([]), "document needs at least one state"),
        (lambda: bio.state_set_to_document([_HALF, _HALF], labels=["a"]),
         "one label per state required"),
        (lambda: bio.state_set_to_document([_HALF, _HALF], labels=["a", "a"]),
         "labels must be unique"),
        (lambda: bio.state_set_to_document([_HALF, _HALF], labels=[1, "1"]),
         "labels must be unique"),
        (lambda: bio.state_set_to_document([_HALF, maximally_mixed(3)]),
         "state 1 has dimension 3, not 2"),
        (lambda: bio.state_set_to_document([np.eye(2) / 2]),
         "state 0 is a raw array, not a validated state"),
    ],
    ids=["ragged-row", "non-pair-entry", "string-entry", "non-object", "empty-states",
         "no-matrix", "write-no-states", "write-label-count", "write-duplicate-labels",
         "write-labels-equal-as-text", "write-mixed-dimensions", "write-raw-array"],
)
def test_document_error_messages(build, message):
    with pytest.raises(DocumentError) as exc:
        build()
    assert str(exc.value) == message


def test_document_serialization_helpers():
    states = [validate_state(np.eye(2, dtype=complex) / 2)]
    doc = bio.state_set_to_document(states, labels=["mixed"])
    parsed = bio.state_set_from_document(doc)
    assert parsed.labels == ("mixed",)
    np.testing.assert_array_equal(parsed.states[0].matrix, states[0].matrix)


def test_defaults_do_not_leak_between_calls(fixture_file, capsys):
    path = fixture_file("emc_rho_pair")
    code, payload = run_json(capsys, ["coherence", path, "--reference", "1", "--tol", "1e-3"])
    assert payload["mode"] == "reduced"
    assert payload["tol"] == 1e-3

    code, payload = run_json(capsys, ["coherence", path])
    assert payload["mode"] == "full"
    assert payload["tol"] == 1e-10


def test_out_into_missing_directory(fixture_file, capsys, tmp_path):
    out = tmp_path / "missing" / "report.json"
    assert main(["coherence", fixture_file("emc_rho_pair"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    ["invariant", "coherence", "estimate", "estimate-gap", "paper-check", "random",
     "qubit-check", "gram", "facets", "imaginarity"],
)
def test_subcommand_help(command, capsys):
    assert main([command, "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(f"usage: bargmann {command}")
    assert "--out OUT" in captured.out
