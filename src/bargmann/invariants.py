"""Words over state labels and the multivariate-trace invariants they index.

A word (l1, ..., lm) of 1-based labels picks an ordered tuple of states and
induces the invariant tr(rho_l1 ... rho_lm), unchanged under simultaneous
unitary conjugation of all states and under cyclic rotation of the word.
Validated states are trusted: their matrices enter the product unscanned.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import WordError
from .numkernel import _word_trace
from .states import PositiveOperator, _stacked

__all__ = [
    "Word",
    "BargmannScenario",
    "ClassicalRealization",
    "parse_word",
    "word_text",
    "check_word",
    "bargmann_invariant",
    "evaluate_scenario",
    "classical_invariant",
    "scenario_catalog",
    "SCENARIO_NAMES",
]

# Letters are 1-based state labels, mirroring the usual subscript notation
# (Delta_1122 is the word (1, 1, 2, 2)).
Word = tuple[int, ...]


def parse_word(text: str) -> Word:
    """Parse a comma-separated word, e.g. ``"1,2,1,2"`` -> (1, 2, 1, 2)."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise WordError(f"empty word text {text!r}")
    try:
        letters = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise WordError(f"invalid word text {text!r}: {exc}") from exc
    return check_word(letters)


def word_text(word: Word) -> str:
    """Inverse of :func:`parse_word`."""
    return ",".join(str(letter) for letter in word)


def check_word(word: Word, n_states: int | None = None) -> Word:
    """Validate a word: nonempty, integer letters, positive, within the alphabet."""
    try:
        w = tuple(map(operator.index, word))
    except TypeError as exc:
        raise WordError(f"letters must be integers: {exc}") from exc
    if not w:
        raise WordError("word must be nonempty")
    for letter in w:
        if letter < 1:
            raise WordError(f"letters are 1-based, got {letter}")
        if n_states is not None and letter > n_states:
            raise WordError(f"letter {letter} out of range for {n_states} states")
    return w


@dataclass(frozen=True)
class BargmannScenario:
    """A named finite set of words, evaluated together."""

    name: str
    words: tuple[Word, ...]

    def __post_init__(self):
        if len(set(self.words)) != len(self.words):
            raise WordError(f"scenario {self.name!r} has duplicate words")


_CATALOG: dict[str, tuple[Word, ...]] = {
    # the pair scenario whose equality decides commutativity
    "winc2": ((1, 1, 2, 2), (1, 2, 1, 2)),
    # two-state overlaps on the three-cycle
    "c3": ((1, 2), (1, 3), (2, 3)),
    # single third-order invariant
    "w3": ((1, 2, 3),),
    # all 2- and 3-letter words over the alphabet {1, 2}
    "w23": ((1, 1), (1, 1, 1), (2, 2), (2, 2, 2), (1, 2), (1, 1, 2), (1, 2, 2)),
}

SCENARIO_NAMES = tuple(_CATALOG)


def scenario_catalog(name: str) -> BargmannScenario:
    """Fixed scenario by name: one of winc2, c3, w3, w23."""
    if name not in _CATALOG:
        raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}")
    return BargmannScenario(name=name, words=_CATALOG[name])


def bargmann_invariant(states: list[PositiveOperator], word: Word) -> complex:
    """Invariant tr(rho_l1 ... rho_lm) for the given word.

    Letters index into ``states`` 1-based; all states must share a dimension.
    For normalized states the modulus never exceeds 1 (up to rounding).  It is
    read on the binary-scaled states: right at any mix of traces, if in range.
    """
    w = check_word(word, n_states=len(states))
    letters = {k: i for i, k in enumerate(dict.fromkeys(w))}  # each letter once
    return _word_trace(_stacked([states[k - 1] for k in letters]), [letters[k] for k in w])


def evaluate_scenario(
    states: list[PositiveOperator], scenario: BargmannScenario
) -> dict[Word, complex]:
    """Evaluate every word of a scenario; keys in lexicographic word order."""
    return {
        w: bargmann_invariant(states, w) for w in sorted(scenario.words)
    }


@dataclass(frozen=True)
class ClassicalRealization:
    """Per-letter outcome weights of a jointly diagonal (set-incoherent) model.

    ``weights[l - 1, lam]`` is the weight of basis element ``lam`` for letter
    ``l``; rows sum to the letter's trace (1 for normalized states).
    """

    basis_size: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[1] != self.basis_size:
            raise ValueError(
                f"weights must have shape (n_letters, {self.basis_size}), got {w.shape}"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite (no NaN/Inf)")
        if np.min(w) < -1e-12:
            raise ValueError(f"negative weight {np.min(w):.3e}")
        object.__setattr__(self, "weights", w)


def classical_invariant(cr: ClassicalRealization, word: Word) -> float:
    """Sum over basis elements of the product of letter weights.

    This is what any multivariate trace collapses to when all states are
    diagonal in one orthonormal basis; always real and nonnegative.
    """
    w = check_word(word, n_states=cr.weights.shape[0])
    prod = np.ones(cr.basis_size)
    for letter in w:
        prod = prod * cr.weights[letter - 1]
    return float(np.sum(prod))
