"""Batch command-line frontend: one command table driven by one runner.

``COMMANDS`` maps each subcommand name to a :class:`Command`, which holds its
help line, its own arguments, and a compute function
``(args, states) -> (payload, finding)``.  ``build_parser`` turns the table
into the argparse tree, adding the ``file`` positional to every command that
reads a state set and ``--out`` to every command; ``main`` parses with the
parser built once at import.  The runner then loads the state set (for
commands that take ``file``), computes, writes ``payload`` as one JSON report
to stdout (or ``--out``), and maps ``finding`` to the exit code.
Diagnostics go to stderr only.

Exit codes: 0 = negative result / pass, 1 = positive finding (set coherence
detected, membership or bound violated, reference deviation), 2 = usage or
input error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import criteria, estimator, fixtures, io, states
from .exceptions import BargmannError
from .invariants import bargmann_invariant, parse_word, word_text

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_ERROR = 2


def _write_report(payload, out_path: "str | None") -> None:
    text = json.dumps(payload, cls=io.ArrayEncoder, indent=2, allow_nan=False)
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        sys.stdout.write("\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")


@dataclass(frozen=True)
class Command:
    """One subcommand: help line, compute function and own arguments.

    ``compute(args, states)`` returns ``(payload, finding)``; ``states`` is the
    list of validated states read from ``file``, or None when ``reads_file``
    is false.  ``arguments`` are ``(flags, kwargs)`` pairs for
    ``add_argument``, in help order; ``file`` and ``--out`` are not listed.
    """

    help: str
    compute: Callable
    arguments: tuple
    reads_file: bool = True


def _arg(*flags, **kwargs) -> tuple:
    return flags, kwargs


def _tolerance(text: str) -> float:
    """argparse type: a finite float >= 0, as NaN, inf and negatives decide nothing."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number >= 0, got {text!r}")
    return value


def _tol(default: float, what: str = "tolerance") -> tuple:
    return _arg("--tol", type=_tolerance, default=default, help=f"{what} (default {default})")


_SEED = _arg("--seed", type=int, default=0)


def _trio(args, ops) -> list:
    if len(ops) != 3:
        raise BargmannError(f"{args.command} requires exactly 3 states, got {len(ops)}")
    return ops


def _invariant(args, ops):
    word = parse_word(args.word)
    value = bargmann_invariant(ops, word)
    return {"word": word_text(word), "re": value.real, "im": value.imag}, False


def _coherence(args, ops):
    if args.reference is not None:
        report = criteria.reduced_set_coherence(ops, args.reference, tol=args.tol)
    else:
        report = criteria.set_coherence_decide(ops, tol=args.tol)
    return {**report._payload(), "tol": args.tol}, report.verdict != criteria.SET_INCOHERENT


def _estimate(args, ops):
    config = estimator.EstimatorConfig(
        shots_per_setting=args.shots, seed=args.seed, settings=args.settings
    )
    return estimator.estimate_invariant(ops, parse_word(args.word), config).to_dict(), False


def _estimate_gap(args, ops):
    config = estimator.EstimatorConfig(shots_per_setting=args.shots, seed=args.seed)
    return estimator.estimate_gap(ops, config).to_dict(), False


def _paper_check(args, _):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        report = fixtures.paper_check(args.fixtures)
    for w in caught:  # one line each, not the source path and line warn() prints
        print(f"warning: {w.message}", file=sys.stderr)
    return report.to_json(), not report.passed


def _random(args, _):
    if args.count < 1:
        raise BargmannError(f"--count must be at least 1, got {args.count}")
    rng = np.random.default_rng(args.seed)
    if args.ensemble == "commuting":
        drawn = states.commuting_set(args.dim, args.count, rng)
    else:
        drawn = [states.random_state(args.dim, args.ensemble, rng) for _ in range(args.count)]
    return io._document(drawn), False


def _qubit_check(args, ops):
    if ops[0].dim != 2:
        raise BargmannError(f"qubit-check requires dimension 2, got {ops[0].dim}")
    states.require_normalized(ops, f"{args.command} requires normalized states")
    p = [states.purity(s) for s in ops]
    pairs = list(itertools.combinations(range(len(ops)), 2))
    rows = [criteria.qubit_criterion(p[l], p[k], states.overlap(ops[l], ops[k]), args.tol)
            for l, k in pairs]
    table = io._Table({"indices": [[l + 1, k + 1] for l, k in pairs],
                       "residual": [row.residual for row in rows],
                       "commutes": [row.commutes for row in rows]})
    coherent = not all(table.columns["commutes"])
    verdict = criteria.SET_COHERENT if coherent else criteria.SET_INCOHERENT
    return {"pairs": table, "verdict": verdict, "tol": args.tol}, coherent


def _gram(args, ops):
    report = criteria.gram_rank_criterion(ops, tol=args.tol, convention=args.convention)
    return report.to_dict(), report.verdict == criteria.SET_COHERENT


def _facets(args, ops):
    a, b, c = _trio(args, ops)
    states.require_normalized(ops, f"{args.command} requires normalized states")
    report = criteria.c3_facet_check(
        states.overlap(a, b), states.overlap(a, c), states.overlap(b, c), tol=args.tol
    )
    return report.to_dict(), not report.member


def _imaginarity(args, ops):
    # |tr(ABC)| <= ||A||_F ||B||_F ||C||_F, so the finding is scale-free.
    witness, ratio = criteria._imaginarity(*_trio(args, ops))
    return {**witness.to_dict(), "tol": args.tol}, ratio > args.tol


COMMANDS = {
    "invariant": Command("evaluate one invariant tr(rho_l1 ... rho_lm)", _invariant, (
        _arg("--word", required=True, help="comma-separated 1-based labels, e.g. 1,2,3"),
    )),
    "coherence": Command("decide set coherence from pairwise gaps", _coherence, (
        _tol(criteria.COMMUTE_TOL),
        _arg("--reference", type=int, default=None,
             help="1-based label of a non-degenerate reference state (reduced mode)"),
    )),
    "estimate": Command("shot-based estimate of one invariant", _estimate, (
        _arg("--word", required=True),
        _arg("--shots", type=int, required=True, help="shots per measurement setting"),
        _SEED,
        _arg("--settings", choices=estimator.SETTINGS, default="real_and_imag"),
    )),
    "estimate-gap": Command("shot-based estimate of a pair's gap", _estimate_gap, (
        _arg("--shots", type=int, required=True),
        _SEED,
    )),
    "paper-check": Command(
        "verify the built-in fixtures against their reference values", _paper_check, (
            _arg("--fixtures", default=None,
                 type=lambda text: [n.strip() for n in text.split(",") if n.strip()],
                 help=f"comma-separated subset of {', '.join(fixtures.FIXTURE_NAMES)}"),
        ), reads_file=False),
    "random": Command("generate a random state-set document", _random, (
        _arg("--dim", type=int, required=True),
        _arg("--count", type=int, required=True),
        _arg("--ensemble", choices=list(states.ENSEMBLES) + ["commuting"],
             default="ginibre_mixed"),
        _SEED,
    ), reads_file=False),
    "qubit-check": Command("pairwise qubit criterion from overlaps", _qubit_check, (
        _tol(criteria.COMMUTE_TOL),
    )),
    "gram": Command("Bloch Gram matrix rank test", _gram, (
        _tol(criteria.FACET_TOL),
        _arg("--convention", choices=["pauli", "orthonormal"], default=None,
             help="Bloch convention (default: pauli for qubits, else orthonormal)"),
    )),
    "facets": Command("three-state overlap polytope facets", _facets, (
        _tol(criteria.FACET_TOL),
    )),
    "imaginarity": Command("third-order imaginarity witness bound", _imaginarity, (
        _tol(criteria.COMMUTE_TOL, "finding when |Im tr(rho1 rho2 rho3)| > tol times the "
             "product of the three Frobenius norms"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``COMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="bargmann",
        description="Multivariate-trace invariants and set-coherence tests "
        "for collections of positive operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.reads_file:
            p.add_argument("file", help="state-set JSON document")
        for flags, kwargs in command.arguments:
            p.add_argument(*flags, **kwargs)
        p.add_argument("--out", default=None, help="output file (default: stdout)")
    return parser


# Built once per process; parse_args leaves it unchanged, so calls share it.
_PARSER = build_parser()


def main(argv: "list[str] | None" = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return int(code) if isinstance(code, int) else EXIT_ERROR
    command = COMMANDS[args.command]
    try:
        ops = list(io.load_state_set(args.file).states) if command.reads_file else None
        payload, finding = command.compute(args, ops)
        _write_report(payload, args.out)
    except (BargmannError, ValueError, OSError, MemoryError) as exc:
        # a bare MemoryError has no message, so its name stands in
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_FINDING if finding else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
