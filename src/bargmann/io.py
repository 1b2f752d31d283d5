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
stdlib encodes in pure Python, one scalar at a time, two to three times
slower on a d=256 document than the C encoder's compact text.  The walk
writes brackets, keys, strings and indentation only; every other value it
meets (a number, ``true``, ``false``, ``null``, ``[]``, ``{}``) comes from
one C-encoder call, split on ``,``.  The text of a JSON scalar holds none of
``,[]{}"``; so where a list's compact text holds no ``"``, ``{`` or ``[]``,
its brackets and commas show its layout, and only line breaks and indents
are put back.  A nested list starting with a float or a list (a matrix, an
eigenvalue list) is one C-encoder call, refused unless all its scalars sit
at one depth.  A record list held as a :class:`_Table` of columns
(``coherence`` writes the pair kernel's, and builds a ``PairGap`` only when a
library caller reads one; ``qubit-check`` writes its pair rows) is one call
per column, refused unless each value is one scalar or one flat list; a
string, dict or matrix column is refused before any call.  A list of dicts
is walked.  A refused table is left to the stdlib, as is all text with
``ensure_ascii=False`` and any error from the C functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
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


# Numeric lists, record columns and the walk's values go through this
# compact C encoder; the text it writes also shows whether a fast path applies.
_COMPACT = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def _scalars_only(text: str) -> bool:
    """Whether compact C text holds no string, no object and no empty list,
    so that every character between two brackets or commas is a scalar's."""
    return '"' not in text and "{" not in text and "[]" not in text


class _Table:
    """A record list held as ``columns``: each key maps to its values in order."""

    def __init__(self, columns: dict):
        self.columns = columns

    def records(self) -> list:
        return [dict(zip(self.columns, row)) for row in zip(*self.columns.values())]


class ArrayEncoder(json.JSONEncoder):
    """``json.JSONEncoder`` whose indented text is the stdlib's, byte for byte,
    with each regular numeric nested list encoded by the C encoder and each
    :class:`_Table` written column by column.

    Other dicts and lists are walked here, which writes their brackets, keys,
    strings and indentation.  Every other value the walk meets is left in
    place and written, all in one C-encoder call, once the walk ends.  Any
    ``ValueError``, ``TypeError`` or ``RecursionError`` from the C functions
    (a non-``str`` key, a non-finite float, a value needing ``default``)
    re-encodes the whole object with ``json`` itself, so its output or its
    error is the stdlib's.  Without a positive integer ``indent``, with
    ``sort_keys``, with ``ensure_ascii=False`` or with a custom item
    separator, ``encode`` is the stdlib's.
    """

    def encode(self, o) -> str:
        if not (isinstance(self.indent, int) and self.indent > 0) or self.sort_keys \
                or not self.ensure_ascii or self.item_separator != ",":
            return super().encode(o)
        self._ind = " " * self.indent
        out: list = []
        try:
            self._emit(o, "\n", out)
            at = [i for i, text in enumerate(out) if type(text) is not str]
            if at:  # no value's text holds a comma
                values = _COMPACT.encode([out[i] for i in at])[1:-1].split(",")
                for i, text in zip(at, values):
                    out[i] = text
        except (ValueError, TypeError, RecursionError):
            return super().encode(o)
        return "".join(out)

    def default(self, o):  # what the stdlib calls for a value it cannot write
        return o.records() if type(o) is _Table else super().default(o)

    def _emit(self, o, nl: str, out: list) -> None:
        """Append ``o``'s text, with ``nl`` the newline and indent of its line;
        a value other than a string, a non-empty list or a non-empty dict is
        appended as it is."""
        if isinstance(o, str):
            out.append(encode_basestring_ascii(o))
        elif isinstance(o, (list, tuple)) and o:
            if text := self._array(o, nl):
                out.append(text)
            else:
                inner = nl + self._ind
                sep = "[" + inner
                for item in o:
                    out.append(sep)
                    self._emit(item, inner, out)
                    sep = "," + inner
                out.append(nl + "]")
        elif type(o) is _Table:  # if refused, a value only the stdlib can write
            out.append(self._columns(o.columns, nl) or o)
        elif isinstance(o, dict) and o:
            inner = nl + self._ind
            sep = "{" + inner
            for key, value in o.items():
                out.append(sep + encode_basestring_ascii(key) + self.key_separator)
                self._emit(value, inner, out)
                sep = "," + inner
            out.append(nl + "}")
        else:
            out.append(o)

    def _columns(self, table: dict, nl: str) -> "str | None":
        """The text of the records of a :class:`_Table`, whose values under each
        key are its column in ``table``; None if there is no record or a
        column is refused.

        A column's C text is split on ``,`` into scalars or on ``],[`` into
        flat lists; every bracket must be one of those values'.  The texts
        are interleaved with the keys into the record layout.
        """
        keys, columns = list(table), list(table.values())
        if not columns or not columns[0] or any(
                isinstance(c[0], (dict, str)) or isinstance(c[0], (list, tuple)) and c[0]
                and isinstance(c[0][0], (list, tuple, dict)) for c in columns):
            return None
        rec = nl + self._ind  # the line of each record's braces
        val = rec + self._ind  # the line of each key
        item = val + self._ind  # the line of each item of a list value
        keys = [encode_basestring_ascii(key) + self.key_separator for key in keys]
        n, step = len(columns[0]), 2 * len(keys)
        parts = [None] * (step * n)
        for j, (key, column) in enumerate(zip(keys, columns)):
            text = _COMPACT.encode(column)
            if text[1] == "[":  # flat lists: "[[" a "],[" b ... "]]"
                start, sep, end = "[" + item, "," + item, val + "]"
                texts = [start + t.replace(",", sep) + end for t in text[2:-2].split("],[")]
                brackets = n + 1
            else:
                texts, brackets = text[1:-1].split(","), 1
            if not _scalars_only(text) or text.count("[") != brackets or len(texts) != n:
                return None
            parts[2 * j::step] = [("," + val if j else rec + "}," + rec + "{" + val) + key] * n
            parts[2 * j + 1::step] = texts
        parts[0] = "[" + rec + "{" + val + keys[0]
        return "".join(parts) + rec + "}" + nl + "]"

    def _array(self, x, nl: str) -> "str | None":
        """The compact C text of a nested list of scalars all at one depth,
        re-indented; None if ``x`` is not one.  Only lists starting with a
        float, a list or a tuple are tried, so short int lists such as pair
        indices are walked.

        The text opens and closes with ``depth`` brackets, and between two
        items at axis ``depth - a`` it reads ``]`` * a, ``,``, ``[`` * a.  A
        bracket outside those runs means scalars at uneven depth.
        """
        if not isinstance(x[0], (float, list, tuple)):
            return None
        text = _COMPACT.encode(x)
        depth = len(text) - len(text.lstrip("["))
        if not _scalars_only(text) or not text.endswith("]" * depth):
            return None
        line = [nl + self._ind * k for k in range(depth + 1)]  # line[k]: axis k

        def opens(j):  # the brackets opened from axis j down to the scalars
            return "".join(line[k] + "[" for k in range(j, depth)) + line[depth]

        def closes(j):  # the brackets closed from the scalars up to axis j
            return "".join(line[k] + "]" for k in reversed(range(j, depth)))

        body = text[depth:-depth].replace(",", "," + line[depth])
        brackets = depth
        for a in range(depth - 1, 0, -1):  # longest first: shorter runs sit inside
            run = "]" * a + "," + line[depth] + "[" * a
            brackets += a * body.count(run)
            body = body.replace(run, closes(depth - a) + "," + opens(depth - a))
        if text.count("[") != brackets:
            return None
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
    for i, s in enumerate(states):
        if not isinstance(s, PositiveOperator):
            raise DocumentError(f"state {i} is a raw array, not a validated state")
        if s.dim != states[0].dim:
            raise DocumentError(f"state {i} has dimension {s.dim}, not {states[0].dim}")
    if labels is None:
        labels = [f"state_{i}" for i in range(1, len(states) + 1)]
    if len(labels) != len(states):
        raise DocumentError("one label per state required")
    labels = [str(lab) for lab in labels]  # the reader compares labels as text
    if len(set(labels)) != len(labels):
        raise DocumentError("labels must be unique")
    return {
        "dimension": states[0].dim,
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
