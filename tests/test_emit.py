"""Table emission against the reference emitter.

``tests/emit_reference.py`` keeps the per-cell emitter that ringflow
shipped before all-number tables were formatted in one pass.  For
generated tables (0, 1 or many rows; float, int, bool, str and None cells;
duplicate and non-ASCII column names; metadata of each type) ``emit`` in
both formats and ``table_payload`` must give the same text and payload,
and a NaN or an infinity anywhere must raise the same exception with the
same message.  All-number tables of up to 60 rows are generated on their
own, with and without non-finite cells: all-float ones take the one-pass
path, and ones with an int cell the per-cell rule.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emit_reference as reference
from ringflow import InvalidParameter, NonFiniteResult, ProfileTable, emit
from ringflow.scenario import _json_token, dump_json, table_payload

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)
#: Fewer examples for tables of up to 60 rows, drawn cell by cell.
NUMBER_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

#: Floats at the edges of 6-digit formatting, of the exponents where a
#: JSON number is not its ``"%.6g"`` text (e+06 to e+15, e-308 and below)
#: and of the float range.
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
               -1e308, 1.7976931348623157e308, 999999.5, -999999.5,
               9999995.0, 0.000123456789, 1e-5, 123456.5, 1e16, 999999.4,
               1e6, 9.9999949e15, 9.999995e15, -1e15, 1e-307, 1e-308,
               -1.23456e-310, 4.9406564584124654e-322)
NON_FINITE = (math.nan, math.inf, -math.inf)

floats = st.floats(allow_nan=False, allow_infinity=False) \
    | st.sampled_from(EDGE_FLOATS)
ints = st.integers(-10**18, 10**18) | st.sampled_from((0, -1, 10**6))
texts = st.text(max_size=8) | st.sampled_from(
    ('"quoted"', "back\\slash", "comma,cell", "%s %r %%", "grüße ☃",
     "line\nbreak", "tab\t", ""))
scalars = floats | ints | st.booleans() | texts | st.none()

#: One column's cells: mostly a single type, as tables have them.
CELL_KINDS = {"float": floats, "int": ints, "number": floats | ints,
              "bool": st.booleans(), "str": texts, "none": st.none(),
              "any": scalars}

names = st.sampled_from(("x_m", "t_s", "p_pa", "band", "ß", "名前", "",
                         '"q"', "%s", "a%b")) | st.text(max_size=5)


@st.composite
def tables(draw, max_rows=12):
    width = draw(st.integers(0, 5))
    columns = tuple(draw(st.lists(names, min_size=width, max_size=width)))
    count = draw(st.sampled_from((0, 1, 1, 2)) | st.integers(0, max_rows))
    kinds = [CELL_KINDS[draw(st.sampled_from(sorted(CELL_KINDS)))]
             for _ in columns]
    cells = [draw(st.lists(kind, min_size=count, max_size=count))
             for kind in kinds]
    rows = tuple(zip(*cells)) if cells else ((),) * count
    metadata = draw(st.dictionaries(names, scalars, max_size=5))
    return ProfileTable(axis=draw(st.sampled_from(("space_scan",
                                                   "time_scan"))),
                        columns=columns, rows=rows, metadata=metadata)


@st.composite
def non_finite_tables(draw):
    """A table with one or more NaNs or infinities in cells or metadata."""
    table = draw(tables(max_rows=6))
    rows = [list(row) for row in table.rows]
    metadata = dict(table.metadata)
    cells = [(i, j) for i, row in enumerate(rows) for j in range(len(row))]
    for _ in range(draw(st.integers(1, 3))):
        value = draw(st.sampled_from(NON_FINITE))
        if cells and draw(st.booleans()):
            i, j = draw(st.sampled_from(cells))
            rows[i][j] = value
        else:
            metadata[draw(names)] = value
    return ProfileTable(axis=table.axis, columns=table.columns,
                        rows=tuple(map(tuple, rows)), metadata=metadata)


#: Column names that repeat, or that a %-template would misread.
number_names = st.sampled_from(("x_m", "t_s", "p_pa", "%s", "%%", "a%b",
                                "%(x)s", "")) | names


@st.composite
def number_tables(draw, max_rows=60):
    """Tables whose cells are all floats, or all floats and ints."""
    width = draw(st.integers(1, 4))
    columns = tuple(draw(st.lists(number_names, min_size=width,
                                  max_size=width)))
    cell = draw(st.sampled_from((floats, floats, floats | ints)))
    count = draw(st.integers(0, max_rows))
    rows = tuple(draw(st.lists(st.tuples(*[cell] * width), min_size=count,
                               max_size=count)))
    metadata = draw(st.dictionaries(names, floats | ints | texts,
                                    max_size=3))
    return ProfileTable(axis="space_scan", columns=columns, rows=rows,
                        metadata=metadata)


@st.composite
def non_finite_number_tables(draw):
    """An all-number table with one to three NaNs or infinities."""
    table = draw(number_tables().filter(lambda table: table.rows))
    rows = [list(row) for row in table.rows]
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = \
            draw(st.sampled_from(NON_FINITE))
    return ProfileTable(axis=table.axis, columns=table.columns,
                        rows=tuple(map(tuple, rows)),
                        metadata=table.metadata)


def outcome(call, *args):
    try:
        return "ok", call(*args)
    except Exception as exc:          # compared by class and message
        return type(exc), str(exc)


@SETTINGS
@given(tables())
def test_emit_and_payload_equal_the_reference(table):
    for fmt in ("csv", "json"):
        assert emit(table, fmt) == reference.emit(table, fmt)
    # repr tells 0.0 from -0.0 and keeps the key order.
    assert repr(table_payload(table)) == repr(reference.table_payload(table))


@SETTINGS
@given(non_finite_tables())
def test_non_finite_values_raise_as_the_reference_does(table):
    for fmt in ("csv", "json"):
        assert outcome(emit, table, fmt) \
            == outcome(reference.emit, table, fmt)
    # The payload carries NaN and infinity; only its text refuses them.
    assert repr(table_payload(table)) == repr(reference.table_payload(table))


@NUMBER_SETTINGS
@given(number_tables())
def test_number_tables_equal_the_reference(table):
    for fmt in ("csv", "json"):
        assert emit(table, fmt) == reference.emit(table, fmt)
    assert repr(table_payload(table)) == repr(reference.table_payload(table))


@NUMBER_SETTINGS
@given(non_finite_number_tables())
def test_non_finite_number_cells_raise_as_the_reference_does(table):
    for fmt in ("csv", "json"):
        assert outcome(emit, table, fmt) \
            == outcome(reference.emit, table, fmt)
    assert repr(table_payload(table)) == repr(reference.table_payload(table))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
def test_first_non_finite_value_is_named(fmt, value):
    # Rows in order; within a row column c first in CSV, b in JSON.
    table = ProfileTable(axis="time_scan", columns=("c", "b"),
                         rows=((1.0, 2.0), (value, -value), (3.0, value)),
                         metadata={"scenario": "abc"})
    with pytest.raises(NonFiniteResult) as caught:
        emit(table, fmt)
    assert outcome(emit, table, fmt) == outcome(reference.emit, table, fmt)
    named = value if fmt == "csv" else -value
    assert str(caught.value).endswith(str(named)
                                      if fmt == "csv" else repr(named))


def test_int_beyond_the_floats_after_a_nan_raises_as_the_reference_does():
    # The reference meets the NaN first; so does the per-cell rule, which
    # a table with an int cell takes.
    table = ProfileTable(axis="time_scan", columns=("a", "b"),
                         rows=((1.0, 2), (math.nan, 10**400)), metadata={})
    assert outcome(emit, table, "csv") == outcome(reference.emit, table,
                                                  "csv")
    assert outcome(emit, table, "csv")[0] is NonFiniteResult


def test_nan_in_a_shadowed_duplicate_column_is_not_written_to_json():
    table = ProfileTable(axis="time_scan", columns=("a", "a"),
                         rows=((math.nan, 1.0),), metadata={})
    assert emit(table, "json") == reference.emit(table, "json")
    assert '"a": 1.0' in emit(table, "json")
    with pytest.raises(NonFiniteResult):
        emit(table, "csv")


@pytest.mark.parametrize("call", [
    lambda table: emit(table, "csv"), lambda table: emit(table, "json"),
    table_payload], ids=["csv", "json", "payload"])
def test_ragged_row_raises_invalid_parameter(call):
    table = ProfileTable(axis="time_scan", columns=("x_m", "t_s"),
                         rows=((0.0, 1.0), (1.0, 2.0, 3.0)), metadata={})
    with pytest.raises(InvalidParameter, match="row 1 has 3 cells for 2"):
        call(table)


def test_container_cell_is_laid_out_as_json_lays_it_out():
    table = ProfileTable(axis="time_scan", columns=("x_m", "extra"),
                         rows=((1.0, [1.5, {"b": None, "a": True}]),),
                         metadata={})
    assert emit(table, "json") == reference.emit(table, "json")


#: Mantissas m of the tokens ``"%.6g" % (±m * 10**e)``: ones that round up
#: to the next power of ten, stay just below it, or are the float range's
#: smallest normal and subnormal.
MANTISSAS = (1.0, 1.5, 1.23456789, 7.0, 9.999995, 9.9999949,
             2.2250738585072014, 4.9406564584124654)


def test_json_token_is_repr_of_the_float():
    values = [sign * float(f"{m!r}e{e}") for m in MANTISSAS
              for e in range(-330, 331) for sign in (1.0, -1.0)]
    tokens = {"%.6g" % (v + 0.0) for v in values + [999999.5, -999999.5]
              if math.isfinite(v)}
    for edge in ("100000", "999999", "1e+06", "9.99999e+15", "1e+16",
                 "1e-307", "1e-308", "4.94066e-324", "-1e+06"):
        assert edge in tokens
    assert {t: _json_token(t) for t in tokens} \
        == {t: repr(float(t)) for t in tokens}


json_values = st.recursive(
    st.none() | st.booleans() | ints | st.floats() | texts,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(texts | names, children, max_size=4),
    max_leaves=20)


@NUMBER_SETTINGS
@given(json_values)
def test_dump_json_writes_what_json_writes(value):
    """Text, or exception and message, as json.dumps gives them."""
    assert outcome(dump_json, value) == outcome(reference.dump_json, value)


@pytest.mark.parametrize("value", [object(), {"a": [1.0, {1, 2}]}],
                         ids=["object", "nested set"])
def test_dump_json_refuses_other_types_as_json_does(value):
    assert outcome(dump_json, value) == outcome(reference.dump_json, value)
    assert outcome(dump_json, value)[0] is TypeError
