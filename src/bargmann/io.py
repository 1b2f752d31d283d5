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

Layout contract: documents and CLI reports are written through
:class:`ArrayEncoder`, whose text is byte-identical to
``json.dumps(x, indent=2, allow_nan=False)``.  With ``indent`` set, the
stdlib encodes in pure Python, one scalar at a time, and on a d=256 document
that takes two to three times as long as the C encoder's compact text.  So
each regular numeric nested list (a matrix, a Gram matrix, an eigenvalue
list) is encoded compactly by the C encoder in one call, and only the line
breaks and indents are put back, from its shape.  Every scalar's text still
comes from the value itself, so ints, booleans and float ``repr`` are kept.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring, encode_basestring_ascii
from typing import Sequence

import numpy as np

from .exceptions import DocumentError
from .states import PositiveOperator, validate_state

__all__ = [
    "ArrayEncoder",
    "StateSet",
    "matrix_to_json",
    "matrix_from_json",
    "state_set_to_document",
    "state_set_from_document",
    "load_state_set",
    "save_state_set",
]


# Regular numeric arrays go through this compact C encoder in one call.
_COMPACT = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


class _Fallback(Exception):
    """A value the fast path leaves to ``json.JSONEncoder`` itself."""


def _array_depth(x) -> int:
    """Number of axes of ``x`` if it is a regular nested list of numbers
    with no empty axis, else 0.  Only lists starting with a float or a list
    are probed, so short int lists such as pair indices skip ``np.array``."""
    if not isinstance(x[0], (float, list, tuple)):
        return 0
    try:
        a = np.array(x)
    except (ValueError, TypeError, OverflowError):  # ragged or not numeric
        return 0
    return a.ndim if a.dtype.kind in "biuf" and a.size else 0


class ArrayEncoder(json.JSONEncoder):
    """``json.JSONEncoder`` whose indented text is the stdlib's, byte for byte,
    with each regular numeric nested list encoded by the C encoder.

    Dicts and other lists are walked here.  Anything else the walk does not
    write as ``json`` would (a non-``str`` key, a non-finite float, a value
    needing ``default``) re-encodes the whole object with ``json`` itself, so
    its output or its error is the stdlib's.  Without a positive integer
    ``indent``, with ``sort_keys`` or with a custom item separator, ``encode``
    is the stdlib's.
    """

    def encode(self, o) -> str:
        if not (isinstance(self.indent, int) and self.indent > 0) \
                or self.sort_keys or self.item_separator != ",":
            return super().encode(o)
        self._ind = " " * self.indent
        self._str = encode_basestring_ascii if self.ensure_ascii else encode_basestring
        out: list[str] = []
        try:
            self._emit(o, "\n", out)
        except (_Fallback, ValueError, TypeError, RecursionError):
            return super().encode(o)
        return "".join(out)

    def _emit(self, o, nl: str, out: list) -> None:
        """Append ``o``'s text, with ``nl`` the newline and indent of its line."""
        if isinstance(o, str):
            out.append(self._str(o))
        elif o is None:
            out.append("null")
        elif o is True:
            out.append("true")
        elif o is False:
            out.append("false")
        elif isinstance(o, int):
            out.append(int.__repr__(o))
        elif isinstance(o, float):
            if not math.isfinite(o):
                raise _Fallback
            out.append(float.__repr__(o))
        elif isinstance(o, (list, tuple)):
            if not o:
                out.append("[]")
            elif depth := _array_depth(o):
                out.append(self._array(o, depth, nl))
            else:
                inner = nl + self._ind
                sep = "[" + inner
                for item in o:
                    out.append(sep)
                    self._emit(item, inner, out)
                    sep = "," + inner
                out.append(nl + "]")
        elif isinstance(o, dict):
            if not o:
                out.append("{}")
                return
            inner = nl + self._ind
            sep = "{" + inner
            for key, value in o.items():
                if not isinstance(key, str):
                    raise _Fallback
                out.append(sep + self._str(key) + self.key_separator)
                self._emit(value, inner, out)
                sep = "," + inner
            out.append(nl + "}")
        else:
            raise _Fallback

    def _array(self, x, depth: int, nl: str) -> str:
        """The compact C text of a regular ``depth``-axis array, re-indented.

        Scalars hold no ``[``, ``]`` or ``,``, so the brackets alone carry the
        layout: between two items at axis ``depth - a`` the compact text
        reads ``]`` * a, ``,``, ``[`` * a.
        """
        text = _COMPACT.encode(x)
        line = [nl + self._ind * k for k in range(depth + 1)]  # line[k]: axis k

        def opens(j):  # the brackets opened from axis j down to the scalars
            return "".join(line[k] + "[" for k in range(j, depth)) + line[depth]

        def closes(j):  # the brackets closed from the scalars up to axis j
            return "".join(line[k] + "]" for k in reversed(range(j, depth)))

        body = text[depth:-depth].replace(",", "," + line[depth])
        for a in range(depth - 1, 0, -1):  # longest first: shorter runs sit inside
            body = body.replace("]" * a + "," + line[depth] + "[" * a,
                                closes(depth - a) + "," + opens(depth - a))
        return "[" + opens(1) + body + closes(0)


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
    for i, s in enumerate(states):
        if s.dim != dim:
            raise DocumentError(f"state {i} has dimension {s.dim}, not {dim}")
    if labels is None:
        labels = [f"state_{i}" for i in range(1, len(states) + 1)]
    if len(labels) != len(states):
        raise DocumentError("one label per state required")
    labels = [str(lab) for lab in labels]  # the reader compares labels as text
    if len(set(labels)) != len(labels):
        raise DocumentError("labels must be unique")
    return {
        "dimension": dim,
        "states": [
            {"label": lab, "matrix": matrix_to_json(s.matrix)}
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
        except RecursionError:
            raise DocumentError(f"JSON in {path} is nested too deeply to parse") from None
    return state_set_from_document(doc)


def save_state_set(
    path, states: Sequence[PositiveOperator], labels: "Sequence[str] | None" = None
) -> None:
    """Write states to a JSON document file."""
    text = json.dumps(state_set_to_document(states, labels), cls=ArrayEncoder,
                      indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
