"""The column parser against the per-cell reference.

``reference_build_table`` and ``reference_infer_kind`` parse cell by cell,
as ``chunkstore._build_table`` and ``chunkstore._infer_column`` did before
numeric columns were parsed a column at a time, with integers held as
int64 plus the missing mask and refused outside int64.  For random columns
both must agree exactly: dtype, missing mask, bit-identical values, and the
same error on the same cell.
"""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dwkit import chunkstore as cs
from dwkit.errors import MalformedValueError


def reference_infer_kind(tokens, missing_tokens):
    present = [cs.strip_quotes(t.strip()) for t in tokens
               if cs.strip_quotes(t.strip()) not in missing_tokens]
    if not present:
        return "text"
    if all(cs._INT_RE.match(t) and -2**63 <= int(t) < 2**63
           for t in present):
        return "integer"
    try:
        for t in present:
            float(t)
        return "real"
    except ValueError:
        return "text"


def reference_build_table(rows, schema, missing_tokens, context=""):
    columns, missing, kinds = {}, {}, {}
    n = len(rows)
    for j, spec in enumerate(schema):
        mask = np.zeros(n, dtype=bool)
        vals = {"integer": np.zeros(n, dtype=np.int64),
                "real": np.full(n, np.nan),
                "text": np.empty(n, dtype=object)}[spec.kind]
        for i, row in enumerate(rows):
            if j >= len(row):
                raise MalformedValueError("<absent>", spec.kind,
                                          f"{context} row {i}: short record")
            try:
                v = cs.parse_value(row[j], spec.kind, missing_tokens)
            except MalformedValueError as exc:
                raise MalformedValueError(
                    row[j], spec.kind,
                    f"{context} column {spec.name!r}") from exc
            if v is None or (isinstance(v, float) and math.isnan(v)):
                mask[i] = True
            else:
                vals[i] = v
        columns[spec.name] = vals
        missing[spec.name] = mask
        kinds[spec.name] = spec.kind
    return cs.DataTable(columns, missing, kinds)


# default, numeric, and padded (never a raw cell's own form) missing tokens
MISSING_SETS = [frozenset({"NA"}), frozenset({"NA", "-999"}),
                frozenset({"NA", "-999", " -1 ", "'x'"})]

FORMATS = [repr, "{:.9g}".format, "{:.3E}".format, "{:.2f}".format]
INTS = st.integers(-10**12, 10**12).map(str)
BIG_INTS = st.integers(2**63 - 2, 2**66).flatmap(
    lambda v: st.sampled_from([str(v), str(-v), str(-v + 1)]))
REALS = st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from(FORMATS)).map(lambda p: p[1](p[0]))
MISSING_CELLS = st.sampled_from(["NA", "-999", " -1 ", "'x'"])
ODD_CELLS = st.one_of(
    st.sampled_from(["", " NA", "'NA'", '"NA"', "nan", "NaN", "inf",
                     "-inf", " 7 ", "\t3", '"5"', "'2.5'", "1_000",
                     "٣", "７", "-0", "+5", "007", "1e", ".",
                     "1.5.5", "abc", "5\n", "\n", "-1", "x"]),
    st.text(alphabet="-+0123456789.eE\n ", max_size=5))


@st.composite
def columns(draw, nrows):
    """One column of cells: mostly one flavour, so the whole-column path
    is taken as often as the per-cell one."""
    main = draw(st.sampled_from([INTS, REALS, st.one_of(INTS, REALS)]))
    cells = st.one_of(main, MISSING_CELLS)
    if draw(st.booleans()):
        cells = st.one_of(cells, BIG_INTS, ODD_CELLS)
    return draw(st.lists(cells, min_size=nrows, max_size=nrows))


def outcome(build, rows, schema, missing_tokens):
    try:
        return build(rows, schema, missing_tokens, context="ctx")
    except MalformedValueError as exc:
        return (type(exc), str(exc), exc.token, exc.kind)


def assert_identical(got, want):
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    assert got.column_names == want.column_names
    assert got.kinds == want.kinds
    for name in want.column_names:
        a, b = got.columns[name], want.columns[name]
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(got.missing[name], want.missing[name])
        if b.dtype == object:
            assert list(a) == list(b)
        else:
            assert a.tobytes() == b.tobytes(), (name, a, b)


@given(st.data())
def test_build_table_equals_per_cell_reference(data):
    missing_tokens = data.draw(st.sampled_from(MISSING_SETS))
    nrows = data.draw(st.integers(0, 12))
    cols = data.draw(st.lists(columns(nrows), min_size=1, max_size=4))
    rows = [[col[i] for col in cols] for i in range(nrows)]
    if nrows and data.draw(st.integers(0, 4)) == 0:
        i = data.draw(st.integers(0, nrows - 1))
        rows[i] = rows[i][:data.draw(st.integers(0, len(cols) - 1))]
    kinds = [data.draw(st.sampled_from(
        [reference_infer_kind(col, missing_tokens), "integer", "real",
         "text"])) for col in cols]
    schema = tuple(cs.ColumnSpec(f"c{j}", k) for j, k in enumerate(kinds))
    assert_identical(
        outcome(cs._build_table, rows, schema, missing_tokens),
        outcome(reference_build_table, rows, schema, missing_tokens))


@given(st.data())
def test_infer_kind_equals_per_cell_reference(data):
    missing_tokens = data.draw(st.sampled_from(MISSING_SETS))
    col = data.draw(columns(data.draw(st.integers(0, 12))))
    kind, values, mask = cs._infer_column(col, missing_tokens)
    assert kind == reference_infer_kind(col, missing_tokens)
    if values is not None:
        # kept for the first read, so they must be what a build gives
        want = reference_build_table([[c] for c in col],
                                     (cs.ColumnSpec("c", kind),),
                                     missing_tokens)
        assert values.dtype == want.columns["c"].dtype
        assert values.tobytes() == want.columns["c"].tobytes()
        np.testing.assert_array_equal(mask, want.missing["c"])


@pytest.mark.parametrize("cells, kind", [
    (["1", "-0", "+5", "007"], "integer"),
    (["1", "NA", "-999"], "integer"),
    (["-0", "NA"], "integer"),                    # NA holds 0 too
    (["1.5", "-0", "1e400", "5."], "real"),
    (["9223372036854775808", "1"], "integer"),    # past int64: inferred real
    (["9007199254740993"], "integer"),            # past 2**53
    (["1", " 2"], "integer"),
    (["٣", "4"], "integer"),
    (["1_000", "2"], "integer"),
    (["nan", "1.5"], "real"),
    (["5\n", "6"], "integer"),
    (["-999\n", "6"], "real"),
])
def test_edge_columns(cells, kind):
    missing_tokens = MISSING_SETS[1]
    schema = (cs.ColumnSpec("c", kind),)
    rows = [[c] for c in cells]
    assert cs._infer_column(cells, missing_tokens)[0] == \
        reference_infer_kind(cells, missing_tokens)
    assert_identical(
        outcome(cs._build_table, rows, schema, missing_tokens),
        outcome(reference_build_table, rows, schema, missing_tokens))


def test_malformed_cell_in_later_chunk_is_named(tmp_path):
    p = tmp_path / "late.csv"
    p.write_text("x,y\n" + "".join(f"{i},{i}.5\n" for i in range(7))
                 + "7,oops\n8,8.5\n")
    ds = cs.open_datastore(str(p), chunk_size=3)
    assert [c.kind for c in ds.schema] == ["integer", "real"]
    index = list(cs.iter_file_chunks(ds, 0))
    for read in (lambda: list(cs.read_chunks(ds)),
                 lambda: [cs.read_chunk(ds, 0, ci, off)
                          for ci, off, _rows in index]):
        with pytest.raises(MalformedValueError) as err:
            read()
        assert err.value.token == "oops"
        assert str(p) in str(err.value)
        assert "chunk 2" in str(err.value)
        assert "column 'y'" in str(err.value)
