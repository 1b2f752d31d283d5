"""Built-in reference state collections with their exact expected values.

Each fixture bundles a small state collection with the quantities it is
known to produce (invariants, gaps, overlaps, Gram spectra, verdicts).
Matrices are built from integer-ratio literals evaluated in double
precision, and expected values are kept as exact-fraction strings parsed at
load, so representation error stays at the rounding floor.  The
:func:`paper_check` report re-derives every expectation through the public
library operations and is the package's end-to-end self-test.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .criteria import (
    _Report,
    c3_facet_check,
    commutator_gap,
    gram_bloch,
    gram_rank_criterion,
    set_coherence_decide,
)
from .invariants import bargmann_invariant, scenario_catalog
from .states import (
    PositiveOperator,
    embed,
    overlap,
    pure_state,
    purity,
    qubit_from_bloch,
    validate_state,
)

__all__ = [
    "FIXTURE_NAMES",
    "Fixture",
    "PaperCheckEntry",
    "PaperCheckReport",
    "fixture",
    "paper_check",
]


def _f(text: str) -> float:
    return float(Fraction(text))


def _c(re_text: str, im_text: str) -> complex:
    return complex(_f(re_text), _f(im_text))


class Check(NamedTuple):
    """One fixture quantity: how to compute it from the states, and its value."""

    compute: Callable[[list], object]
    expected: object
    tol: float = 1e-12


@dataclass(frozen=True)
class Fixture:
    """A named state collection plus the values it must reproduce."""

    name: str
    states: tuple[PositiveOperator, ...]
    expected: dict[str, Check]
    source: str


def _expect(*rows) -> dict[str, Check]:
    """``{name: Check}`` from ``((name, compute), expected[, tol])`` rows."""
    return {name: Check(compute, *rest) for (name, compute), *rest in rows}


# Each row helper writes a quantity's name and its computation from the same
# arguments; labels are 1-based, as in the quantity names.
def _delta(*word: int):
    return f"delta_{''.join(map(str, word))}", lambda s: bargmann_invariant(s, word)


def _overlap(l: int, k: int):
    return f"overlap_{l}{k}", lambda s: overlap(s[l - 1], s[k - 1])


def _purity(l: int):
    return f"purity_{l}", lambda s: purity(s[l - 1])


def _c3_overlaps(s) -> tuple[float, float, float]:
    return overlap(s[0], s[1]), overlap(s[0], s[2]), overlap(s[1], s[2])


def _facet_value(s) -> float:
    z12, z13, z23 = _c3_overlaps(s)
    return z12 + z13 - z23


_GAP = "gap", lambda s: commutator_gap(s[0], s[1]).gap
_VERDICT = "verdict", lambda s: set_coherence_decide(s).verdict
_FACET_VALUE = "facet_value", _facet_value
_FACET_MEMBER = "facet_member", lambda s: c3_facet_check(*_c3_overlaps(s)).member
_GRAM_MATRIX = "gram_matrix", lambda s: gram_bloch(s, "orthonormal")
_GRAM_RANK = "gram_rank", lambda s: gram_rank_criterion(s).rank
_GRAM_EIGENVALUES_C4 = "gram_eigenvalues_embedded_c4", lambda s: gram_rank_criterion(
    [embed(rho, 4) for rho in s], convention="orthonormal"
).eigenvalues


def _mub_trio() -> Fixture:
    states = (
        pure_state([1, 0]),
        pure_state([1, 1]),
        pure_state([1, 1j]),
    )
    return Fixture(
        name="mub_trio",
        states=states,
        expected=_expect(
            (_delta(1, 2, 3), _c("1/4", "1/4")),
            (_overlap(1, 2), _f("1/2")),
            (_overlap(1, 3), _f("1/2")),
            (_overlap(2, 3), _f("1/2")),
            (_GRAM_EIGENVALUES_C4, (_f("1/2"), _f("1/2"), _f("5/4")), 1e-10),
            (_VERDICT, "set_coherent"),
        ),
        source="pure qubit trio |0>, |+>, |+i>, one state from each mutually unbiased basis",
    )


def _main_sigma_trio() -> Fixture:
    kets = np.eye(5, dtype=complex)
    states = tuple(pure_state(kets[k]) for k in (0, 2, 4))
    return Fixture(
        name="main_sigma_trio",
        states=states,
        expected=_expect((_delta(1, 2, 3), _c("0", "0")), (_VERDICT, "set_incoherent")),
        source="computational-basis projectors |0>, |2>, |4> in dimension 5",
    )


def _main_sigma_prime_trio() -> Fixture:
    kets = np.eye(3, dtype=complex)
    states = (
        pure_state(kets[0]),
        pure_state((kets[0] + kets[1]) / np.sqrt(2)),
        pure_state(kets[2]),
    )
    return Fixture(
        name="main_sigma_prime_trio",
        states=states,
        expected=_expect((_delta(1, 2, 3), _c("0", "0")), (_VERDICT, "set_coherent")),
        source="projectors |0>, |+>, |2> in dimension 3",
    )


def _trine() -> Fixture:
    half_rt3 = np.sqrt(3) / 2
    states = (
        qubit_from_bloch((1.0, 0.0, 0.0)),
        qubit_from_bloch((0.5, half_rt3, 0.0)),
        qubit_from_bloch((0.5, -half_rt3, 0.0)),
    )
    return Fixture(
        name="trine",
        states=states,
        expected=_expect(
            (_overlap(1, 2), _f("3/4")),
            (_overlap(1, 3), _f("3/4")),
            (_overlap(2, 3), _f("1/4")),
            (_FACET_VALUE, _f("5/4")),
            (_FACET_MEMBER, False),
            (_delta(1, 2, 3), _c("3/8", "0")),
            (_VERDICT, "set_coherent"),
        ),
        source="planar qubit trio: Bloch vectors at 0 and +-60 degrees on a great "
        "circle, so pairwise 60, 60 and 120 degrees apart",
    )


def _c4_quartet() -> Fixture:
    kets = np.eye(4, dtype=complex)
    a = (kets[0] + kets[2]) / np.sqrt(2)
    b = (kets[1] + kets[3]) / np.sqrt(2)

    def rank2(u, v):
        return validate_state(0.5 * (np.outer(u, u.conj()) + np.outer(v, v.conj())))

    states = (
        rank2(kets[0], kets[1]),
        rank2(kets[0], kets[2]),
        rank2(kets[0], kets[3]),
        rank2(a, b),
    )
    return Fixture(
        name="c4_quartet",
        states=states,
        expected=_expect(
            *((_purity(l), _f("1/2")) for l in range(1, 5)),
            *((_overlap(l, k), _f("1/4")) for l, k in itertools.combinations(range(1, 5), 2)),
            (_delta(1, 2, 3), _c("1/8", "0")),
            (_delta(1, 2, 4), _c("1/16", "0")),
            (_delta(1, 3, 4), _c("1/16", "0")),
            (_delta(2, 3, 4), _c("1/16", "0")),
            (_delta(1, 2, 3, 4), _c("1/32", "0")),
            (_GRAM_MATRIX, np.eye(4) / 4),
            (_GRAM_RANK, 4),
            (_VERDICT, "set_coherent"),
        ),
        source="four rank-2 mixed states in dimension 4 with uniform purities and overlaps",
    )


# The seven w23 invariants, in scenario order, on which the two emc pairs agree.
_EMC_W23 = ("13/32", "23/128", "137/450", "31/300", "67/240", "223/1920", "653/7200")


def _emc_expected(gap: str, verdict: str) -> dict[str, Check]:
    words = scenario_catalog("w23").words
    return _expect(
        (_GAP, _f(gap)),
        *((_delta(*word), _f(value)) for word, value in zip(words, _EMC_W23)),
        (_VERDICT, verdict),
    )


def _emc_first_state() -> PositiveOperator:
    return validate_state(np.diag([1 / 2, 3 / 8, 1 / 8, 0]).astype(complex))


def _emc_rho_pair() -> Fixture:
    flip = np.zeros((4, 4), dtype=complex)
    flip[0, 2] = flip[2, 0] = flip[1, 3] = flip[3, 1] = 1.0
    rho2 = np.diag([4 / 15, 1 / 3, 1 / 6, 7 / 30]).astype(complex) + flip / 10
    states = (_emc_first_state(), validate_state(rho2))
    return Fixture(
        name="emc_rho_pair",
        states=states,
        expected=_emc_expected("9/3200", "set_coherent"),
        source="noncommuting dimension-4 pair whose 2- and 3-letter invariants all "
        "match a commuting pair (emc_sigma_pair)",
    )


def _emc_sigma_pair() -> Fixture:
    sigma2 = np.diag([11 / 30, 2 / 15, 11 / 30, 2 / 15]).astype(complex)
    states = (_emc_first_state(), validate_state(sigma2))
    return Fixture(
        name="emc_sigma_pair",
        states=states,
        expected=_emc_expected("0", "set_incoherent"),
        source="commuting diagonal dimension-4 pair matching emc_rho_pair on all "
        "2- and 3-letter invariants",
    )


_BUILDERS = {
    "mub_trio": _mub_trio,
    "main_sigma_trio": _main_sigma_trio,
    "main_sigma_prime_trio": _main_sigma_prime_trio,
    "trine": _trine,
    "c4_quartet": _c4_quartet,
    "emc_rho_pair": _emc_rho_pair,
    "emc_sigma_pair": _emc_sigma_pair,
}

FIXTURE_NAMES = tuple(_BUILDERS)


def fixture(name: str) -> Fixture:
    """Build a fixture by name; see :data:`FIXTURE_NAMES`."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown fixture {name!r}; expected one of {FIXTURE_NAMES}")
    return _BUILDERS[name]()


# --------------------------------------------------------------------------
# Self-check
# --------------------------------------------------------------------------

def _deviation(expected, computed) -> float:
    if isinstance(expected, str) or isinstance(expected, bool):
        return 0.0 if expected == computed else 1.0
    if isinstance(expected, (tuple, list, np.ndarray)):
        e = np.asarray(expected, dtype=float)
        c = np.asarray(computed, dtype=float)
        if e.shape != c.shape:
            return float("inf")
        return float(np.max(np.abs(e - c))) if e.size else 0.0
    return float(abs(complex(expected) - complex(computed)))


@dataclass(frozen=True)
class PaperCheckEntry(_Report):
    """One fixture quantity: expected vs computed; ``passed`` is written ``pass``."""

    fixture: str
    quantity: str
    expected: object
    computed: object
    abs_error: float
    passed: bool

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["pass"] = out.pop("passed")
        return out


@dataclass(frozen=True)
class PaperCheckReport:
    """Aggregate of all fixture checks."""

    entries: tuple[PaperCheckEntry, ...]
    passed: bool
    max_abs_error: float

    def to_json(self) -> list[dict]:
        return [e.to_dict() for e in self.entries]


def paper_check(names: "list[str] | None" = None) -> PaperCheckReport:
    """Re-derive every fixture expectation and report deviations.

    Numeric quantities must match within their check's ``tol``, 1e-12
    absolute (1e-10 for eigenvalue lists); verdicts and flags must match
    exactly.  Failures are recorded in the report rather than raised.
    """
    # Built before any is checked, so an unknown name is refused up front.
    selected = [fixture(name) for name in (FIXTURE_NAMES if names is None else names)]
    if not selected:
        warnings.warn("no fixtures selected; check passes vacuously", stacklevel=2)
    entries = []
    for fix in selected:
        for quantity, (compute, expected, tol) in fix.expected.items():
            computed = compute(list(fix.states))
            err = _deviation(expected, computed)
            entries.append(
                PaperCheckEntry(
                    fixture=fix.name,
                    quantity=quantity,
                    expected=expected,
                    computed=computed,
                    abs_error=err,
                    passed=bool(err <= tol),
                )
            )
    max_err = max((e.abs_error for e in entries), default=0.0)
    return PaperCheckReport(
        entries=tuple(entries),
        passed=all(e.passed for e in entries),
        max_abs_error=max_err,
    )
