"""JSON state-set documents shared between the library and the CLI.

Schema::

    {
      "dimension": d,
      "states": [
        {"label": "...", "matrix": [[[re, im], ...d entries...], ...d rows...]},
        ...
      ]
    }

Numbers are IEEE-754 doubles in decimal text; Python's ``repr`` emits the
shortest round-trip representation, so documents survive re-serialization
bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import DocumentError
from .states import PositiveOperator, validate_state

__all__ = [
    "StateSet",
    "matrix_to_json",
    "matrix_from_json",
    "state_set_to_document",
    "state_set_from_document",
    "load_state_set",
    "save_state_set",
]


@dataclass(frozen=True)
class StateSet:
    """Labeled, validated states of one common dimension."""

    dimension: int
    labels: tuple[str, ...]
    states: tuple[PositiveOperator, ...]


def matrix_to_json(m: np.ndarray) -> list:
    """Nested [re, im] rows for a complex matrix."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def matrix_from_json(rows, dim: int) -> np.ndarray:
    """Parse nested [re, im] rows of JSON numbers (ints, floats, ``true``/``false``)
    back into a ``(dim, dim)`` complex array."""
    if not isinstance(rows, list) or len(rows) != dim:
        raise DocumentError(f"matrix must have {dim} rows")
    try:
        parts = np.array(rows)
    except ValueError:  # ragged nesting
        parts = None
    if parts is None or parts.shape != (dim, dim, 2) or parts.dtype.kind not in "biuf":
        parts = _checked_parts(rows, dim)
    # A trailing [re, im] axis of float64 is the memory layout of complex128.
    return np.asarray(parts, dtype=float).view(complex)[..., 0]


def _checked_parts(rows: list, dim: int) -> np.ndarray:
    """Name the first malformed row or entry, else convert ints beyond 64 bits."""
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise DocumentError(f"row {i} must have {dim} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(x, (int, float)) for x in entry)
            ):
                raise DocumentError(f"entry ({i}, {j}) must be a [re, im] pair of numbers")
    try:
        return np.array(rows, dtype=float)
    except OverflowError as exc:
        raise DocumentError(f"matrix entry out of double range: {exc}") from None


def state_set_to_document(
    states: Sequence[PositiveOperator], labels: "Sequence[str] | None" = None
) -> dict:
    """Serialize states (with optional labels) to the document dict."""
    if not states:
        raise DocumentError("document needs at least one state")
    dim = states[0].dim
    if labels is None:
        labels = [f"state_{i}" for i in range(1, len(states) + 1)]
    if len(labels) != len(states):
        raise DocumentError("one label per state required")
    if len(set(labels)) != len(labels):
        raise DocumentError("labels must be unique")
    return {
        "dimension": dim,
        "states": [
            {"label": str(lab), "matrix": matrix_to_json(s.matrix)}
            for lab, s in zip(labels, states)
        ],
    }


def state_set_from_document(doc: dict) -> StateSet:
    """Parse and validate a document dict into a :class:`StateSet`."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    dim = doc.get("dimension")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise DocumentError("'dimension' must be a positive integer")
    entries = doc.get("states")
    if not isinstance(entries, list) or not entries:
        raise DocumentError("'states' must be a nonempty array")
    labels, states = [], []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "label" not in entry or "matrix" not in entry:
            raise DocumentError(f"state {i} must be an object with 'label' and 'matrix'")
        labels.append(str(entry["label"]))
        states.append(validate_state(matrix_from_json(entry["matrix"], dim)))
    if len(set(labels)) != len(labels):
        raise DocumentError("state labels must be unique")
    return StateSet(dimension=dim, labels=tuple(labels), states=tuple(states))


def load_state_set(path) -> StateSet:
    """Read and validate a document from a JSON file."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"invalid JSON in {path}: {exc}") from exc
    return state_set_from_document(doc)


def save_state_set(
    path, states: Sequence[PositiveOperator], labels: "Sequence[str] | None" = None
) -> None:
    """Write states to a JSON document file."""
    doc = state_set_to_document(states, labels)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
