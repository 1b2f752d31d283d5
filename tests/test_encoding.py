"""``io.ArrayEncoder`` against the stdlib: the same bytes, or the same error."""

import json
import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bargmann import io as bio
from bargmann.criteria import set_coherence_decide
from bargmann.states import random_state


def reference(x) -> str:
    return json.dumps(x, indent=2, allow_nan=False)


def encoded(x) -> str:
    return json.dumps(x, cls=bio.ArrayEncoder, indent=2, allow_nan=False)


class ListSubclass(list):
    pass


class Count(int):
    def __repr__(self):
        return "Count()"


TEXT = st.text(st.sampled_from(list(',[]:"{}\n\\ aé∂😀'))) | st.text(max_size=8)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
NUMBERS = st.one_of(FLOATS, st.integers(), st.booleans())
SCALARS = st.one_of(NUMBERS, st.none(), TEXT)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def regular_arrays(draw, elements=None):
    """A nested list of 1-3 axes, each of length 1-4, of one element type or mixed."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    if elements is None:
        elements = draw(st.sampled_from([FLOATS, st.integers(), st.booleans(), NUMBERS]))

    def fill(axes):
        if not axes:
            return draw(elements)
        return [fill(axes[1:]) for _ in range(axes[0])]

    return fill(shape)


def containers(children):
    keys = TEXT | st.integers() | st.booleans() | st.none() | FLOATS
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(ListSubclass),
        st.dictionaries(TEXT, children, max_size=4),
        st.dictionaries(TEXT, children, max_size=4).map(OrderedDict),
        st.dictionaries(keys, children, max_size=2),
    )


TREES = st.recursive(SCALARS | regular_arrays() | regular_arrays(TEXT), containers, max_leaves=20)


@settings(deadline=None)
@given(TREES)
@example([[]])
@example({"a": [[], []], "b": [[[]]], "c": [1.0, []]})
@example({"x": np.float64(0.5), "n": Count(3), "m": [[np.float64(0.25), Count(1)]]})
@example([True, 1.5, Count(2)])
@example({1: [1.0], None: "a", 2.5: {}, False: [[0.5]]})
@example([{"label": "a,b", "x": 1.0}, {"label": ",", "x": 2.0}])
@example([1, [], 2.5, {}, None, True, ()])
@example({"a": [], "b": -0.0, "c": {}, "d": [[], 1]})
def test_matches_stdlib_byte_for_byte(x):
    assert encoded(x) == reference(x)


@settings(deadline=None)
@given(TREES, regular_arrays(FLOATS), NON_FINITE, st.sampled_from(["array", "value", "key"]),
       st.data())
def test_non_finite_numbers_raise_value_error(x, array, bad, where, data):
    if where == "array":  # one entry of a regular array
        row = array
        while isinstance(row[0], list):
            row = row[data.draw(st.integers(0, len(row) - 1))]
        row[data.draw(st.integers(0, len(row) - 1))] = bad
        tree = {"tree": x, "array": array}
    elif where == "value":
        tree = [x, bad]
    else:
        tree = {bad: x}
    for encode in (reference, encoded):
        with pytest.raises(ValueError):
            encode(tree)


def test_values_that_need_default_follow_the_stdlib():
    tree = {"matrix": [[1.0, 0.5]], "labels": {"b", "a"}}
    for encode in (reference, encoded):
        with pytest.raises(TypeError):
            encode(tree)
    assert json.dumps(tree, cls=bio.ArrayEncoder, indent=2, default=sorted) \
        == json.dumps(tree, indent=2, default=sorted)
    tree = {"é": ["∂", "😀", 1.5, None], "pairs": [{"k": "ü", "v": 2.0}, {"k": "a", "v": 1}]}
    assert json.dumps(tree, cls=bio.ArrayEncoder, indent=2, ensure_ascii=False) \
        == json.dumps(tree, indent=2, ensure_ascii=False)


def test_regular_arrays_take_one_c_encoder_call_each(monkeypatch):
    rng = np.random.default_rng(4)
    doc = bio.state_set_to_document([random_state(3, "ginibre_mixed", rng) for _ in range(2)])
    table = [{"indices": [1, k], "gap": 0.25 * k, "commutes": k % 2 == 0, "note": None,
              "count": k} for k in range(2, 6)]
    columns = {key: [r[key] for r in table] for key in table[0]}
    report = {"pairs": bio._Table(columns), "eigenvalues": [0.25, 0.75],
              "gram": [[1.0, 0.0], [0.0, 1.0]]}
    labelled = {"n": 4, "pairs": [{"label": f"s{r['count']}", **r} for r in table], "tol": 1e-9}
    calls = []

    class Counting(json.JSONEncoder):
        def encode(self, o):
            calls.append(o)
            return super().encode(o)

    def no_fallback(*args, **kwargs):
        raise AssertionError("fell back to the stdlib encoder")

    def calls_of(x, records=None):  # records: x as the stdlib reads it
        calls.clear()
        assert encoded(x) == reference(x if records is None else records)
        return list(calls)

    monkeypatch.setattr(bio, "_COMPACT", Counting(separators=(",", ":"), allow_nan=False))
    monkeypatch.setattr(bio.ArrayEncoder, "iterencode", no_fallback)
    # One call per matrix, passed as it is: the document's matrix column is
    # refused before any call, so no matrix is encoded twice.  Then one last
    # call for the values the walk met, here the dimension alone.
    arrays = [s["matrix"] for s in doc["states"]]
    made = calls_of(doc)
    assert len(made) == len(arrays) + 1 and all(c is a for c, a in zip(made, arrays))
    assert made[-1] == [doc["dimension"]]
    # One call per column of a _Table with no string column, in key order,
    # each column as it is; a report that leaves the walk no value makes no
    # last call.
    made = calls_of(report, {**report, "pairs": table})
    assert made[:-2] == list(columns.values())
    assert all(c is column for c, column in zip(made, columns.values()))
    assert made[-2] is report["eigenvalues"] and made[-1] is report["gram"]
    assert len(made) == len(columns) + 2
    # The same rows as a list of dicts are walked: their values join the
    # last call in document order.
    values = [v for r in table for v in (*r["indices"], r["gap"], r["commutes"], r["note"],
                                         r["count"])]
    made = calls_of({**report, "pairs": table})
    assert made == [report["eigenvalues"], report["gram"], values]
    assert list(map(type, made[-1])) == list(map(type, values))
    # So is a list of dicts with a string column.
    walked = [4, *(v for r in table for v in (*r["indices"], r["gap"], r["commutes"],
                                                 r["note"], r["count"])), 1e-9]
    made = calls_of(labelled)
    assert made == [walked] and list(map(type, made[0])) == list(map(type, walked))


BIG_INTS = st.integers(min_value=2**64) | st.integers(max_value=-2**64)
LEAVES = st.one_of(FLOATS, st.integers(), BIG_INTS, st.booleans(), st.none(),
                   st.integers().map(Count), FLOATS.map(np.float64))


def _sublists(x):
    """Every list in the nest ``x``, ``x`` first."""
    yield x
    for item in x:
        if isinstance(item, list):
            yield from _sublists(item)


@st.composite
def numeric_nests(draw):
    """A nested list of numbers, bools and nulls: regular, or made ragged (an
    item added to or taken from one row) or of mixed depth (a scalar wrapped
    in a list, or a row replaced by a scalar)."""
    x = draw(regular_arrays(LEAVES))
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(list(_sublists(x))))
        i = draw(st.integers(0, len(row) - 1))
        how = draw(st.sampled_from(["add", "drop", "wrap", "flatten"]))
        if how == "add":
            row.append(draw(LEAVES | st.lists(LEAVES, min_size=1, max_size=2)))
        elif how == "drop" and len(row) > 1:
            del row[i]
        elif how == "wrap":
            row[i] = [row[i]]
        elif how == "flatten" and isinstance(row[i], list):
            row[i] = draw(LEAVES)
    return x


@settings(deadline=None)
@given(numeric_nests() | st.recursive(LEAVES, lambda c: st.lists(c, min_size=1, max_size=4),
                                      max_leaves=30))
@example([[1.0, 2.0], [3.0]])
@example([[1.0, [2.0]], [3.0, 4.0]])
@example([[[1.0]], [2.0]])
@example([[1.0], 2.0])
@example([1.0, [2.0]])
@example([[1.0, 2**70], [None, True]])
def test_numeric_nests_match_stdlib_byte_for_byte(x):
    assert encoded(x) == reference(x)


COLUMNS = {"float": FLOATS, "int": st.integers(), "bool": st.booleans(), "str": TEXT,
           "none": st.none(), "mixed": st.one_of(FLOATS, st.integers(), st.booleans()),
           "leaves": LEAVES}


@st.composite
def record_lists(draw):
    """1-60 dicts with the same keys, each key's values of one column kind
    (one scalar type, mixed numbers, int lists of one length, or numeric
    lists of any length), nested in lists and dicts to a random depth."""
    keys = draw(st.lists(TEXT, min_size=1, max_size=5, unique=True))
    count = draw(st.integers(1, 60))
    columns = {}
    for key in keys:
        kind = draw(st.sampled_from([*COLUMNS, "ints", "ragged"]))
        if kind == "ints":
            length = draw(st.integers(1, 4))
            values = st.lists(st.integers(), min_size=length, max_size=length)
        elif kind == "ragged":  # numeric lists of any length, now and then nested
            values = st.lists(LEAVES, max_size=4) | st.lists(LEAVES | st.lists(LEAVES), max_size=2)
        else:
            values = COLUMNS[kind]
        columns[key] = draw(st.lists(values, min_size=count, max_size=count))
    records = [{k: columns[k][i] for k in keys} for i in range(count)]
    for _ in range(draw(st.integers(0, 3))):
        records = draw(st.sampled_from([[records], {"pairs": records}, [1.5, records]]))
    return records


def _perturbed(records, data):
    """``records`` with one record made ragged, reordered, or given a value, a
    depth or a key the column path must not write itself."""
    i = data.draw(st.integers(0, len(records) - 1))
    r = records[i]
    key = data.draw(st.sampled_from(list(r)))
    how = data.draw(st.sampled_from(["ragged", "swap", "bool", "float64", "count", "nan",
                                     "wrap", "key"]))
    if how == "ragged":
        del r[key]
    elif how == "swap":
        r[key] = r.pop(key)  # moves the key to the end
    elif how == "bool":
        r[key] = True if type(r[key]) is int else 1
    elif how == "float64":
        r[key] = np.float64(0.5)
    elif how == "count":
        r[key] = Count(3)
    elif how == "nan":
        r[key] = math.nan
    elif how == "wrap":  # a list among scalars, or a nested list among flat ones
        r[key] = [r[key]]
    else:
        r[data.draw(st.integers() | st.none() | st.booleans())] = r.pop(key)
    return records


def _as_table(tree):
    """``tree`` with its record list held as a ``_Table`` of columns, or None
    if the records' keys differ or are none (no column holds the count)."""
    if isinstance(tree, dict):
        inner = _as_table(tree["pairs"])
        return None if inner is None else {"pairs": inner}
    if not isinstance(tree[0], dict):
        inner = _as_table(tree[-1])
        return None if inner is None else [*tree[:-1], inner]
    keys = tuple(tree[0])
    if not keys or any(tuple(r) != keys for r in tree):
        return None
    return bio._Table({k: [r[k] for r in tree] for k in keys})


@settings(deadline=None)
@given(record_lists(), st.booleans(), st.data())
def test_record_lists_match_stdlib_byte_for_byte(tree, perturb, data):
    # as dicts, and as the columns of a _Table, which the stdlib reads as its records
    if perturb:
        inner = tree
        while not (isinstance(inner, list) and inner and isinstance(inner[0], dict)):
            inner = inner["pairs"] if isinstance(inner, dict) else inner[-1]
        _perturbed(inner, data)
    table = _as_table(tree)
    try:
        expected = reference(tree)
    except (ValueError, TypeError) as exc:
        with pytest.raises(type(exc)):
            encoded(tree)
        if table is not None:
            with pytest.raises(type(exc)):
                encoded(table)
    else:
        assert encoded(tree) == expected
        if table is not None:
            assert encoded(table) == expected


def test_column_tables_fall_back_to_the_stdlib(monkeypatch):
    # the coherence payload holds its pair table as columns; whatever path
    # writes it, the text (or the error) is the stdlib's for its records
    rng = np.random.default_rng(6)
    report = set_coherence_decide([random_state(2, "ginibre_mixed", rng) for _ in range(5)])
    payload = {**report._payload(), "tol": 1e-10}
    expected = reference({**report.to_dict(), "tol": 1e-10})
    assert type(payload["pairs"]) is bio._Table
    assert encoded(payload) == expected
    assert json.dumps(payload, cls=bio.ArrayEncoder, indent=2, ensure_ascii=False) == expected
    assert json.dumps(payload, cls=bio.ArrayEncoder) == json.dumps(report.to_dict() | {"tol": 1e-10})
    for empty in ({"gap": [], "commutes": []}, {}):
        assert encoded({"pairs": bio._Table(empty)}) == reference({"pairs": []})
    with pytest.raises(ValueError):
        encoded({"pairs": bio._Table({"gap": [0.5, math.nan]})})

    class Raising(json.JSONEncoder):
        def encode(self, o):
            raise ValueError("C encoder unavailable")

    monkeypatch.setattr(bio, "_COMPACT", Raising())
    assert encoded(payload) == expected


def test_save_state_set_writes_the_stdlib_text(tmp_path):
    rng = np.random.default_rng(5)
    states = [random_state(4, "ginibre_mixed", rng) for _ in range(3)]
    path = tmp_path / "states.json"
    bio.save_state_set(path, states, labels=["a", "b", "c"])
    doc = bio.state_set_to_document(states, labels=["a", "b", "c"])
    assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=2) + "\n"
