"""The column parser against the per-cell reference.

``reference_build_table`` and ``reference_infer_kind`` parse cell by cell,
as ``chunkstore._build_table`` and ``chunkstore._infer_column`` did before
numeric columns were parsed a column at a time, with integers held as
int64 plus the missing mask and refused outside int64.  The reference
builds only the columns asked for, checks every record's width and
refuses an infinite cell of a real column.  For random columns both must
agree exactly: dtype, missing mask, bit-identical values, and the same
error on the same cell or record.
"""
import contextlib
import csv
import io
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dwkit import chunkstore as cs
from dwkit.cli import main
from dwkit.errors import (DwkitError, InfiniteValueError, MalformedValueError,
                          RecordWidthError)


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


def reference_build_table(rows, schema, missing_tokens, context="",
                          columns=None):
    """The columns named in ``columns`` (default: every column with a
    kind) of ``rows``, parsed cell by cell, with every record's width
    checked.  Column by column, a malformed cell of a column built is a
    fault, and so is a short record at its first absent column; after the
    last column, a long record is one.  So the fault raised is the first
    in column order, then row order.  Without such a fault, the first
    infinite cell of a real column, in the same order, is one."""
    table, missing, kinds = {}, {}, {}
    n, ncols = len(rows), len(schema)
    for j, spec in enumerate(schema):
        built = spec.kind is not None and (columns is None
                                           or spec.name in columns)
        mask = np.zeros(n, dtype=bool)
        vals = {"integer": np.zeros(n, dtype=np.int64),
                "real": np.full(n, np.nan),
                "text": np.empty(n, dtype=object),
                None: None}[spec.kind]
        for i, row in enumerate(rows):
            if j >= len(row):
                raise RecordWidthError(f"{context} row {i}", len(row), ncols)
            if not built:
                continue
            try:
                v = cs.parse_value(row[j], spec.kind, missing_tokens)
            except MalformedValueError as exc:
                raise MalformedValueError(
                    row[j], spec.kind,
                    f"{context} row {i} column {spec.name!r}") from exc
            if v is None or (isinstance(v, float) and math.isnan(v)):
                mask[i] = True
            else:
                vals[i] = v
        if built:
            table[spec.name] = vals
            missing[spec.name] = mask
            kinds[spec.name] = spec.kind
    for i, row in enumerate(rows):
        if len(row) > ncols:
            raise RecordWidthError(f"{context} row {i}", len(row), ncols)
    for name, vals in table.items():
        for i, v in enumerate(vals):
            if kinds[name] == "real" and math.isinf(v):
                raise InfiniteValueError(f"{context} row {i}", name)
    return cs.DataTable(table, missing, kinds, nrows=n)


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
        i = data.draw(st.integers(0, nrows - 1))   # a short or long record
        width = data.draw(st.integers(0, len(cols) + 2).filter(
            lambda width: width != len(cols)))
        rows[i] = (rows[i] + ["7", "x"])[:width]
    # a column of kind None is one no read builds
    kinds = [data.draw(st.sampled_from(
        [reference_infer_kind(col, missing_tokens), "integer", "real",
         "text", None])) for col in cols]
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
        # kept for the first read, which joins them into what a build gives
        schema = (cs.ColumnSpec("c", kind),)
        assert_identical(
            failure(lambda: cs._table({0: [(values, mask)]}, schema,
                                      len(col), "ctx")),
            outcome(reference_build_table, [[c] for c in col], schema,
                    missing_tokens))


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
        assert "chunk 2 row 1 column 'y'" in str(err.value)


# --- chunks built a batch at a time ---
# open_datastore infers and keeps chunk 0, and every read builds its
# chunks, in batches of at most _BATCH_RECORDS records and about
# _BATCH_CELLS cells.  With tiny batches, kinds widen across batches, a
# batch may hold only missing cells, and a fault may sit in any batch; the
# result must still be the whole-chunk one.

NARROW = st.one_of(INTS, MISSING_CELLS, st.sampled_from(["-0", "+0", "0"]))
WIDE = st.one_of(REALS, st.sampled_from(["abc", "x", "'NA'", " 7 ",
                                         "1_000", "٣", "-0.0"]))


@st.composite
def widening_column(draw, nrows):
    """A column whose cells draw from a narrow flavour (integers, ``-0``,
    missing) up to a row and from any flavour after it, so its kind often
    widens from one batch to the next."""
    switch = draw(st.integers(0, nrows))
    return [draw(NARROW if i < switch else st.one_of(NARROW, WIDE))
            for i in range(nrows)]


def failure(read):
    """``read()``, or the malformed cell or short record that stops it."""
    try:
        return read()
    except MalformedValueError as exc:
        return (type(exc), str(exc), exc.token, exc.kind)


def expected_chunks(files, header, missing_tokens, chunk_size, keep,
                    columns):
    """(schema, outcomes): the per-cell reference over whole chunks of a
    datastore opened with columns ``keep`` and read with ``columns``, each
    chunk's table, up to and with the first chunk's error.  Only the
    columns kept are inferred, from the cells of the records of the first
    chunk that reach them; the others have kind None."""
    first = next((rows for _, rows in files if rows), [])[:chunk_size]
    schema = tuple(cs.ColumnSpec(name, reference_infer_kind(
        [row[j] for row in first if j < len(row)], missing_tokens)
        if keep is None or name in keep else None)
        for j, name in enumerate(header))
    outcomes = []
    for path, rows in files:
        for ci, start in enumerate(range(0, len(rows), chunk_size)):
            outcomes.append(failure(lambda: reference_build_table(
                rows[start:start + chunk_size], schema, missing_tokens,
                f"{path} chunk {ci}", columns)))
            if isinstance(outcomes[-1], tuple):
                return schema, outcomes
    return schema, outcomes


def write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


@given(st.data())
def test_batched_reads_equal_whole_chunk_reference(tmp_path_factory, data):
    missing_tokens = data.draw(st.sampled_from(MISSING_SETS))
    ncols = data.draw(st.integers(1, 3))
    nrows = data.draw(st.integers(0, 16))
    cols = [data.draw(widening_column(nrows)) for _ in range(ncols)]
    rows = [[col[i] for col in cols] for i in range(nrows)]
    for _ in range(data.draw(st.integers(0, 2)) if nrows else 0):
        i = data.draw(st.integers(0, nrows - 1))   # a short or long record
        width = data.draw(st.integers(0, ncols + 2).filter(
            lambda width: width != ncols))
        rows[i] = (rows[i] + ["7", "x"])[:width]
    header = [f"c{j}" for j in range(ncols)]
    split = data.draw(st.integers(0, nrows))   # either file may be empty
    tmp = tmp_path_factory.mktemp("batches")
    files = [(write_rows(tmp / "a.csv", header, rows[:split]), rows[:split]),
             (write_rows(tmp / "b.csv", header, rows[split:]), rows[split:])]
    paths = [p for p, _ in files]
    chunk_size = data.draw(st.integers(1, 7))
    columns = data.draw(st.sampled_from([None, ["c0"], header[1:]]))
    keep = data.draw(st.sampled_from([None, columns]))
    schema, want = expected_chunks(files, header, missing_tokens, chunk_size,
                                   keep, columns)

    def opened():
        ds = cs.open_datastore(paths, chunk_size=chunk_size,
                               treat_as_missing=missing_tokens, columns=keep)
        assert ds.schema == schema
        return ds

    def chunk_by_chunk(pass_rows):
        ds, out = opened(), []
        for fi in range(len(paths)):
            for ci, offset, rows in cs.iter_file_chunks(ds, fi):
                out.append(failure(lambda: cs.read_chunk(
                    ds, fi, ci, offset, columns,
                    rows if pass_rows else None)))
                if isinstance(out[-1], tuple):
                    return out
        return out

    def all_chunks():
        ds, out = opened(), []
        try:
            for table in cs.read_chunks(ds, columns):
                out.append(table)
        except MalformedValueError as exc:
            out.append((type(exc), str(exc), exc.token, exc.kind))
        return out

    saved = cs._BATCH_RECORDS, cs._BATCH_CELLS
    try:
        # batches bounded by records, or by cells at the header's width
        cs._BATCH_RECORDS = data.draw(st.sampled_from([1, 2, 3]))
        cs._BATCH_CELLS = data.draw(st.sampled_from([1, 4, 65536]))
        for got in (chunk_by_chunk(True), chunk_by_chunk(False),
                    all_chunks()):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert_identical(g, w)
        whole = failure(lambda: cs.read_all(opened(), columns))
        if want and isinstance(want[-1], tuple):
            assert whole == want[-1]
        elif want:
            assert_identical(whole, cs.concat_tables(want))
        else:
            assert whole.nrows == 0
    finally:
        cs._BATCH_RECORDS, cs._BATCH_CELLS = saved


# --- unquoted batches: split into columns, or parsed by np.loadtxt ---
# A batch of unquoted lines is split at its commas and line ends, or, when
# it holds no missing token and its chunk's kinds are known, parsed by
# np.loadtxt.  Whatever the file holds, every read must give what the
# csv.reader path gives: the same schema, bit-identical tables, or the
# same error.

FIELD_LIMIT = 100   # lowered, so that a long field fits in a small file
PLAIN_INTS = st.one_of(st.integers(-10**12, 10**12).map(str),
                       st.sampled_from(["-0", "+0", "+5", "007"]))
PLAIN_REALS = st.one_of(st.sampled_from([
    "-nan", "nan", "-0.0", "inf", "NaN", "-inf", "+Infinity", "1e400",
    "-1e400", "1E5", "2.5e-3", ".5", "5.", "1e-400"]), REALS)
# \x1c, \x85 and \u2028 end a line for str.splitlines, not for csv
PLAIN_TEXT = st.sampled_from(["a", "yes", "no", " b ", "'q'", "x y",
                              "a\x1cb", "\x85", "x\u2028y"])
PADDED = st.tuples(st.sampled_from(["", " ", "\t"]),
                   st.one_of(PLAIN_INTS, PLAIN_REALS),
                   st.sampled_from(["", " ", "\t"])).map("".join)
ODD_PLAIN = st.sampled_from([
    '"a""b"', "x" * (FIELD_LIMIT + 1), "1.0", "\x00", "7\x001", "", "'5'",
    '"5"', '"a,b"', "1" * 30, "1_000", "٣", "abc", "9223372036854775808",
    "0x10", "NAN", "nA", "-9990", "'NA'", " NA "])
# hypothesis favours the first of several choices: reals, whose NaN and
# signed zero need care, and the cells and lines the gate must turn away
FLAVOURS = [PLAIN_REALS, PLAIN_INTS, PLAIN_TEXT]


@st.composite
def plain_file_lines(draw, ncols, nrows, missing):
    """Lines of a plain file, one flavour per column, with a few edits: a
    cell missing, odd, padded or of another flavour (a column that widens
    from there on); a blank or short line, a trailing comma, or both on
    two lines.  LF or CRLF line ends, or both mixed, with or without lone
    CRs; the last line may have none."""
    flavours = [draw(st.sampled_from(FLAVOURS)) for _ in range(ncols)]
    rows = [[draw(flavour) for flavour in flavours] for _ in range(nrows)]
    other = st.one_of(st.sampled_from(missing), ODD_PLAIN, PADDED, *FLAVOURS)
    for _ in range(draw(st.integers(0, 4)) if nrows else 0):
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, ncols - 1))
        rows[i][j] = draw(other)
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2)) if nrows > 1 else 0):
        i = draw(st.integers(0, nrows - 2))
        # the last: as many commas as plain lines, on unequal lines
        lines[i:i + 2] = draw(st.sampled_from([
            ["", lines[i + 1]], [lines[i] + ",", lines[i + 1]],
            [lines[i].rpartition(",")[0], lines[i + 1]],
            [lines[i] + ",", lines[i + 1].rpartition(",")[0]]]))
    ends = draw(st.sampled_from([["\n"], ["\r\n"], ["\n", "\r\n"],
                                 ["\n", "\r\n", "\r"]]))
    lines = [line + draw(st.sampled_from(ends)) for line in lines]
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return lines


def read_every_way(paths, chunk_size, missing, keep, columns):
    """The schema, then the tables and the error that stops each read:
    sequential, chunk by chunk from the rows each chunk is yielded with
    and from its offset, and whole."""
    def opened():
        return cs.open_datastore(paths, chunk_size=chunk_size,
                                 treat_as_missing=missing, columns=keep)

    def until_error(tables):
        out = []
        try:
            for table in tables():
                out.append(table)
        except MalformedValueError as exc:
            out.append((type(exc), str(exc), exc.token, exc.kind))
        except DwkitError as exc:
            out.append((type(exc), str(exc)))
        return out

    def chunk_by_chunk(pass_rows):
        ds = opened()
        for fi in range(len(paths)):
            for ci, offset, rows in cs.iter_file_chunks(ds, fi):
                yield cs.read_chunk(ds, fi, ci, offset, columns,
                                    rows if pass_rows else None)

    try:
        out = [opened().schema]
    except DwkitError as exc:   # a field past the csv limit in chunk 0
        return [(type(exc), str(exc))]
    for tables in (lambda: cs.read_chunks(opened(), columns),
                   lambda: chunk_by_chunk(True),
                   lambda: chunk_by_chunk(False),
                   lambda: [cs.read_all(opened(), columns)]):
        out.append(until_error(tables))
    return out


def assert_same_reads(got, want):
    """Two ``read_every_way`` results agree: schema, tables, errors."""
    assert got[0] == want[0] and len(got) == len(want)
    for reads, wanted in zip(got[1:], want[1:]):
        assert len(reads) == len(wanted)
        for g, w in zip(reads, wanted):
            assert_identical(g, w)


def test_plain_batches_equal_csv_path(monkeypatch, tmp_path_factory):
    taken, split, taken_with_missing = [], [], []
    parse_lines, split_columns = cs._parse_lines, cs._split_columns

    def recording(lines, kinds, js, missing_tokens):
        got = parse_lines(lines, kinds, js, missing_tokens)
        taken.append(got is not None)
        if got is not None:
            text = "".join(lines)
            taken_with_missing.append(any(t in text for t in missing_tokens))
        return got

    def splitting(lines, ncols, js):
        split.append(len(lines))
        return split_columns(lines, ncols, js)

    @given(st.data())
    def plain_equals_csv(data):
        missing = sorted(data.draw(st.sampled_from(MISSING_SETS)))
        ncols = data.draw(st.integers(1, 3))
        nrows = data.draw(st.integers(0, 14))
        lines = data.draw(plain_file_lines(ncols, nrows, missing))
        header = [f"c{j}" for j in range(ncols)]
        split = data.draw(st.sampled_from([nrows, data.draw(
            st.integers(0, nrows))]))
        tmp = tmp_path_factory.mktemp("plain")
        paths = []
        for name, part in (("a.csv", lines[:split]), ("b.csv", lines[split:])):
            if part or name == "a.csv":
                (tmp / name).write_bytes(
                    (",".join(header) + "\n" + "".join(part)).encode())
                paths.append(str(tmp / name))
        chunk_size = data.draw(st.sampled_from([1, 2, 7]))
        keep = data.draw(st.sampled_from([None, ["c0"], header[1:]]))
        columns = data.draw(st.sampled_from([None, ["c0"], header[1:]]))
        if keep is not None and columns != keep:
            columns = None   # no read builds a column that was not kept
        monkeypatch.setattr(cs, "_BATCH_RECORDS",
                            data.draw(st.sampled_from([1, 2, 3])))
        with monkeypatch.context() as m:
            m.setattr(cs, "_parse_lines", recording)
            m.setattr(cs, "_split_columns", splitting)
            fast = read_every_way(paths, chunk_size, missing, keep, columns)
        with monkeypatch.context() as m:
            m.setattr(cs, "_unquoted", lambda *args: False)
            slow = read_every_way(paths, chunk_size, missing, keep, columns)
        assert_same_reads(fast, slow)

    limit = csv.field_size_limit(FIELD_LIMIT)
    try:
        plain_equals_csv()
    finally:
        csv.field_size_limit(limit)
    # some batches were split, and loadtxt parsed some, one with a missing
    # cell among them, and declined others
    assert split and True in taken and False in taken
    assert True in taken_with_missing


def plain_lines_then(odd):
    """Six plain lines of an integer and a text column, then ``odd``."""
    return [f"{i},t{i}\n" for i in range(6)] + odd


def real_lines_then(odd):
    """Six plain lines of a real and a text column, then ``odd``."""
    return [f"{i}.5,t{i}\n" for i in range(6)] + odd


@pytest.mark.parametrize("missing, lines", [
    (("NA",), plain_lines_then(['7,"a""b"\n', "8,t\n"])),     # a quote
    (("NA",), plain_lines_then(["7,a\x00b\n", "8,t\n"])),     # a NUL
    (("NA", "-999"), plain_lines_then(["-999,t\n", "8,t\n"])),
    (("NA",), plain_lines_then(["7," + "x" * 131073 + "\n", "8,t\n"])),
    (("NA",), plain_lines_then(["7,t,extra\n", "8\n"])),      # commas add up
    (("NA",), [f"{i}\n" for i in range(6)] + ["\n", "8\n"]),  # a blank line
    (("NA",), plain_lines_then(["7.0,t\n", "8,t\n"])),        # widens
    (("NA",), plain_lines_then(["7,t\r", "8,t\n"])),          # a lone CR
    (("NA",), [f"{i}\n" for i in range(6)] + ["7\r", "NA\n"]),  # and 1 column
    (("NA",), [f"{i}\n" for i in range(6)] + ["7\n", "\r"]),   # a blank CR
    (("NA",), plain_lines_then(["7,t\n", "8,t"])),             # no line end
    (("NA",), plain_lines_then(["NA,t\n", "8,'NA'\n"])),      # missing
    (("NA",), plain_lines_then(["7,a\x85b\n", "8,\u2028\n"])),
    (("NA",), plain_lines_then(["7,t\n", "x8,t\n"])),         # malformed
    # a missing cell: loadtxt refuses it in an integer column, and turns it
    # into NaN in a real column by its converter, which must call missing
    # only what parse_value calls missing
    (("NA",), plain_lines_then(["NA,t\n", "8,t\n"])),
    (("NA", "-999"), real_lines_then(["-999,t\n", "8.5,t\n"])),
    (("NA",), real_lines_then(["NA,t\n", " NA ,t\n", "'NA',t\n", "nan,t\n",
                               "-nan,t\n", "8.5,t\n"])),
    (("NA",), plain_lines_then(["7,NANCY\n", "8,t\n"])),     # not a cell
    (("NA", ""), real_lines_then([",t\n", "8.5,\n"])),
    (("NA", ""), plain_lines_then([",t\n", "8,\n"])),
    (("NA", "'x'"), real_lines_then(["'x',t\n", "8.5,t\n"])),  # x is not
    (("NA", " X"), real_lines_then([" X,t\n", "8.5,t\n"])),
    (("NA", "X"), real_lines_then([" X,t\n", "8.5,t\n"])),
    # float reads " inf" as infinity, parse_value as missing
    (("NA", "inf"), real_lines_then([" inf,t\n", "inf,t\n"])),
    (("NA", "Infinity"), real_lines_then([" Infinity,t\n", "infinity,t\n"])),
    (("NA", "-inf"), real_lines_then([" -inf,t\n", "-inf,t\n"])),
    # a missing token with a digit that float refuses: the converter calls
    # it missing in a real column, and loadtxt refuses it in an integer one
    (("NA", "N1"), real_lines_then(["N1,t\n", "8.5,N1\n", " N1,t\n",
                                    "9.5,t\n"])),
    (("NA", "N1"), plain_lines_then(["N1,t\n", "8,N1\n"])),
    # float reads " nan" as NaN, which is missing either way
    (("NA", "nan"), real_lines_then([" nan,t\n", "nan,t\n"])),
])
@pytest.mark.parametrize("chunk_size", [4, 100])
@pytest.mark.parametrize("columns", [None, ["c0"]])
def test_plain_gate_declines_to_csv_path(tmp_path, monkeypatch, missing,
                                         lines, chunk_size, columns,
                                         unquoted_verdicts):
    # the odd batch, which the gate turns away to csv.reader or loadtxt
    # to the split, is the second of chunk 1, or the fourth of chunk 0
    ncols = lines[0].count(",") + 1
    p = tmp_path / "gate.csv"
    p.write_text(",".join(f"c{j}" for j in range(ncols)) + "\n"
                 + "".join(lines))
    monkeypatch.setattr(cs, "_BATCH_RECORDS", 2)
    cs.open_datastore(str(p), chunk_size=4, treat_as_missing=missing)
    assert unquoted_verdicts[0] is True
    fast = read_every_way([str(p)], chunk_size, missing, columns, columns)
    monkeypatch.setattr(cs, "_unquoted", lambda *args: False)
    slow = read_every_way([str(p)], chunk_size, missing, columns, columns)
    assert_same_reads(fast, slow)


def test_fast_path_parses_mixed_batch_in_one_loadtxt_call(monkeypatch):
    lines = cs._Lines(["1,2.5,yes\n", "-7,nan,no\r\n", "30,-nan,x y\n",
                       "9223372036854775807,-0.0,NaN\n", "0,1e3,-nan"])
    kinds = ["integer", "real", "text"]
    calls, loadtxt = [], np.loadtxt

    def counting(*args, **kwargs):
        calls.append(kwargs["usecols"])
        return loadtxt(*args, **kwargs)
    monkeypatch.setattr(cs.np, "loadtxt", counting)
    got = cs._parse_lines(lines, kinds, [0, 1, 2], frozenset({"NA"}))
    assert calls == [[0, 1, 2]]
    for j, tokens in enumerate(cs._split_columns(lines, 3, range(3))):
        if kinds[j] == "text":
            assert got[j] == tokens
            continue
        values, mask = cs._parse_column(
            tokens, cs.ColumnSpec(f"c{j}", kinds[j]), {"NA"}, "")
        assert got[j][0].dtype == values.dtype
        assert got[j][0].tobytes() == values.tobytes()
        np.testing.assert_array_equal(got[j][1], mask)


def test_fast_path_never_splits_plain_warehouse_file(tmp_path, monkeypatch):
    # real columns in the warehouse benchmark's format, yes/no flags and
    # an integer column: plain, with no missing cell, so chunk 0 is guessed
    # from its first record and every batch is parsed by loadtxt
    rng = np.random.default_rng(5)
    header = [f"m{j:03d}" for j in range(12)] + ["flag_a", "flag_b", "n"]
    lines = [",".join([f"{v:.9g}" for v in rng.normal(0, 20, 12)]
                      + [str(f) for f in rng.choice(["yes", "no"], 2)]
                      + [str(rng.integers(-10**6, 10**6))]) + "\n"
             for _ in range(5000)]
    p = tmp_path / "wide.csv"
    p.write_text(",".join(header) + "\n" + "".join(lines))

    def read():
        ds = cs.open_datastore(str(p), chunk_size=2000)
        return ds.schema, cs.read_all(ds)

    def never(*args):
        raise AssertionError("a plain batch was split")
    with monkeypatch.context() as m:
        m.setattr(cs, "_split_columns", never)
        schema, fast = read()
    assert [c.kind for c in schema] == ["real"] * 12 + ["text"] * 2 + [
        "integer"]
    monkeypatch.setattr(cs, "_unquoted", lambda *args: False)
    slow_schema, slow = read()
    assert schema == slow_schema
    assert_identical(fast, slow)


def test_fast_path_parses_batch_with_missing_cells_in_one_loadtxt_call(
        monkeypatch):
    # numpy before 2.0 hands converters bytes unless told the encoding, and
    # b"NA" is no missing token: the call would fail and the batch be split
    lines = cs._Lines(["1,NA,yes\n", "-7,nan,NA\r\n", "30,-0.0,'NA'\n",
                       "9223372036854775807,2.5,x y\n", "0,NA,no"])
    kinds = ["integer", "real", "text"]
    calls, loadtxt = [], np.loadtxt

    def counting(*args, **kwargs):
        calls.append(kwargs["usecols"])
        return loadtxt(*args, **kwargs)
    monkeypatch.setattr(cs.np, "loadtxt", counting)
    got = cs._parse_lines(lines, kinds, [0, 1, 2], frozenset({"NA"}))
    assert calls == [[0, 1, 2]]
    assert got is not None
    for j, tokens in enumerate(cs._split_columns(lines, 3, range(3))):
        if kinds[j] == "text":
            assert got[j] == tokens
            continue
        values, mask = cs._parse_column(
            tokens, cs.ColumnSpec(f"c{j}", kinds[j]), {"NA"}, "")
        assert got[j][0].dtype == values.dtype
        assert got[j][0].tobytes() == values.tobytes()
        np.testing.assert_array_equal(got[j][1], mask)
    assert got[1][1].tolist() == [True, True, False, False, True]


def test_fast_path_never_splits_scan_file(tmp_path, monkeypatch):
    # the mapreduce benchmark's columns: integers, a tail number that is
    # sometimes 'NA', and reals with NA cells.  The first record's
    # ExtraTime is NA, so chunk 0's first batch guesses that column from
    # its first cell that is not, and loadtxt parses every batch, missing
    # cells and all
    rng = np.random.default_rng(7)
    header = ["ServerNum", "TailNum", "ActualElapsedTime", "CRSElapsedTime",
              "ExtraTime", "Delay"]
    lines = [",".join([
        str(rng.integers(1000, 9999)),
        "'NA'" if rng.random() < 0.05 else f"N{rng.integers(100, 999)}AB",
        str(rng.integers(1, 460)), str(rng.integers(30, 400)),
        "NA" if i == 0 or rng.random() < 0.7
        else f"{rng.exponential(15.0):.2f}",
        "NA" if rng.random() < 0.1 else f"{rng.normal(12.0, 30.0):.2f}"])
        + "\n" for i in range(5000)]
    p = tmp_path / "scan.csv"
    p.write_text(",".join(header) + "\n" + "".join(lines))
    parsed = []
    parse_lines = cs._parse_lines

    def recording(*args):
        got = parse_lines(*args)
        parsed.append(got is not None)
        return got

    def never(*args):
        raise AssertionError("a scan batch was split")
    with monkeypatch.context() as m:
        m.setattr(cs, "_parse_lines", recording)
        m.setattr(cs, "_split_columns", never)
        ds = cs.open_datastore(str(p), chunk_size=2000)
        assert parsed == [True]
        fast = cs.read_all(ds)
    assert [c.kind for c in ds.schema] == [
        "integer", "text", "integer", "integer", "real", "real"]
    # chunk 0 comes from memory; chunks 1 and 2 take one call each
    assert parsed == [True, True, True]
    monkeypatch.setattr(cs, "_parse_lines", lambda *args: None)
    assert_identical(fast, cs.read_all(cs.open_datastore(str(p),
                                                         chunk_size=2000)))


def test_fast_path_parses_only_the_columns_a_command_uses(tmp_path,
                                                         monkeypatch):
    # a wide plain file: reals, a yes/no flag, and an integer column with
    # NA cells, which loadtxt refuses, so a batch parsing it is split
    rng = np.random.default_rng(3)
    header = [f"m{j:02d}" for j in range(30)] + ["flag", "n"]
    lines = [",".join([f"{v:.9g}" for v in rng.normal(0, 20, 30)]
                      + [str(rng.choice(["yes", "no"])),
                         "NA" if k % 5 == 0 else str(k)]) + "\n"
             for k in range(5000)]
    p = tmp_path / "wide.csv"
    p.write_text(",".join(header) + "\n" + "".join(lines))
    parsed, splits = [], []
    parse_lines, split_columns = cs._parse_lines, cs._split_columns

    def recording(lines, kinds, js, missing_tokens):
        parsed.append([header[j] for j in js])
        return parse_lines(lines, kinds, js, missing_tokens)

    def splitting(*args):
        splits.append(args)
        return split_columns(*args)
    monkeypatch.setattr(cs, "_parse_lines", recording)
    monkeypatch.setattr(cs, "_split_columns", splitting)

    def dwkit(*argv):
        out = tmp_path / f"out{len(os.listdir(tmp_path))}"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--input", str(p), "--out", str(out)]) == 0

    # regress hands loadtxt its response, predictors and --encode columns
    # alone, so the unused NA integer column never declines a batch
    dwkit("regress", "--response", "m00", "--predictors", "m07,m21,flag",
          "--encode", "flag")
    assert parsed and all(names == ["m00", "m07", "m21", "flag"]
                          for names in parsed)
    assert not splits
    # a count parses no column at all
    parsed.clear()
    dwkit("mapreduce", "--op", "count", "--chunk-size", "1000")
    assert all(names == [] for names in parsed) and not splits
    # the NA integer column declines every batch that parses it
    parsed.clear()
    ds = cs.open_datastore(str(p), columns=["n"])
    assert cs.read_all(ds).missing_count("n") == 1000
    assert parsed == [["n"]] * 3 and len(splits) == 3


@pytest.mark.parametrize("lines, kinds, split", [
    # a text guess that _infer_column turns down: the batch is split
    (["nan,a\n", "1.5,b\n", "2.5,c\n", "3.5,d\n", "4.5,e\n"],
     ["real", "text"], True),
    # an integer guess that loadtxt turns down in the same batch
    (["1,a\n", "2.5,b\n", "3,c\n", "4,d\n", "5,e\n"], ["real", "text"], True),
    # a text guess that holds: the numbers after it are text too
    (["abc,1\n", "2,2\n", "3,3\n", "4,4\n", "5,5\n"],
     ["text", "integer"], False),
    # c1 is all missing in the first batch, which is split, and is guessed
    # only in the second; c0's known real is kept there, where its first
    # cell alone would guess integer
    (["1.5,NA\n", "2.5,NA\n", "3.5,NA\n", "3,4\n", "4,5\n", "5,6\n"],
     ["real", "integer"], True),
    # a first record's missing cell: the column is guessed from its first
    # cell that is not missing, real here, and loadtxt takes the NA
    (["NA,a\n", "1.5,b\n", "NA,c\n", "3.5,d\n", "4,e\n"],
     ["real", "text"], False),
    # an integer guess past a missing cell, which loadtxt turns down
    (["NA,a\n", "NA,b\n", "2,c\n", "3.5,d\n", "4,e\n"],
     ["real", "text"], True),
])
@pytest.mark.parametrize("chunk_size", [4, 100])
@pytest.mark.parametrize("columns", [None, ["c0"]])
def test_first_record_guess_equals_csv_path(tmp_path, monkeypatch, lines,
                                            kinds, split, chunk_size,
                                            columns):
    p = tmp_path / "guess.csv"
    p.write_text("c0,c1\n" + "".join(lines))
    monkeypatch.setattr(cs, "_BATCH_RECORDS", 3)
    parsed, splits = [], []
    parse_lines, split_columns = cs._parse_lines, cs._split_columns

    def recording(batch, batch_kinds, *args):
        parsed.append(list(batch_kinds))
        return parse_lines(batch, batch_kinds, *args)

    def splitting(*args):
        splits.append(args)
        return split_columns(*args)
    with monkeypatch.context() as m:
        m.setattr(cs, "_parse_lines", recording)
        m.setattr(cs, "_split_columns", splitting)
        ds = cs.open_datastore(str(p), chunk_size=chunk_size,
                               treat_as_missing=("NA",), columns=columns)
    # only the columns asked for are inferred, so c1, all missing in the
    # first batch, splits it only where it is asked for
    assert [c.kind for c in ds.schema] == [
        kind if columns is None or f"c{j}" in columns else None
        for j, kind in enumerate(kinds)]
    assert bool(splits) == (split and not (columns and lines[0] == "1.5,NA\n"))
    if lines[0] == "1.5,NA\n" and columns is None:
        # the second batch of chunk 0: only the column of no kind guessed
        assert parsed[1] == ["real", "integer"]
    fast = read_every_way([str(p)], chunk_size, ("NA",), columns, columns)
    monkeypatch.setattr(cs, "_unquoted", lambda *args: False)
    slow = read_every_way([str(p)], chunk_size, ("NA",), columns, columns)
    assert_same_reads(fast, slow)


# --- metamorphic relations of the mapreduce command ---
# Each column's cells are of one kind, and the first record has a cell in
# every column, so chunk 0 infers the same kinds at any chunk size.  Then
# the results, exit status and message of ``dwkit mapreduce`` must not
# change with quoting cells or CRLF line ends, nor, but for which fault
# is met first when the input holds an infinite cell, with the chunk size,
# a split into two files or a column of garbage that no op names; and
# each op's value must be its value when asked alone.

META_CELLS = {"integer": PLAIN_INTS, "real": PLAIN_REALS,
              "text": st.sampled_from(["a", "yes", "no", " b ", "x y"])}
# cells no kind but text takes, and numbers past int64 and float64
GARBAGE = st.one_of(ODD_CELLS.filter(lambda cell: "\n" not in cell),
                    st.sampled_from(["oops", '"a,b"', '"x""y"', "1e999",
                                     "9" * 30, "\x00"]))


def run_mapreduce(tmp, files, chunk_size, ops):
    """(exit status, results or None, stderr) of ``dwkit mapreduce`` over
    ``files``, a list of file texts, each written to a file of its own,
    whose path reads ``FILE`` in stderr."""
    paths = []
    for text in files:
        fd, path = tempfile.mkstemp(suffix=".csv", dir=tmp)
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        paths.append(path)
    out = tempfile.mkdtemp(dir=tmp)
    argv = ["mapreduce", "--chunk-size", str(chunk_size), "--out", out]
    for path in paths:
        argv += ["--input", path]
    for op in ops:
        argv += ["--op", op]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    results = None
    if code == 0:
        with open(os.path.join(out, "report.json")) as fh:
            results = json.load(fh)["results"]["results"]
    err = err.getvalue()
    for path in paths:
        err = err.replace(path, "FILE")
    return code, results, err


# where an infinite cell is: its file, chunk, row and column
INFINITE_AT = re.compile(r"FILE chunk \d+ row \d+ column '[^']*' ")


def unlocated(outcome):
    """A ``run_mapreduce`` outcome with the place of an infinite cell cut
    from its message."""
    code, results, err = outcome
    return code, results, INFINITE_AT.sub("", err)


@pytest.mark.filterwarnings("error")
def test_mapreduce_metamorphic_relations(tmp_path_factory, monkeypatch):
    monkeypatch.delenv("DWKIT_OUT", raising=False)

    # each example runs the command up to eleven times: half the examples
    # of the profile keep the test's cost near the other properties'
    @settings(max_examples=settings().max_examples // 2)
    @given(st.data())
    def relations_hold(data):
        kinds = data.draw(st.lists(st.sampled_from(list(META_CELLS)),
                                   min_size=1, max_size=3))
        nrows = data.draw(st.integers(1, 12))
        # a first cell that infers its column's kind on its own
        rows = [[data.draw(META_CELLS[kind].filter(
            lambda cell, kind=kind: reference_infer_kind([cell], ()) == kind))
            for kind in kinds]]
        rows += [[data.draw(st.one_of(st.just("NA"), META_CELLS[kind]))
                  for kind in kinds] for _ in range(nrows - 1)]
        header = [f"c{j}" for j in range(len(kinds))]
        ops = data.draw(st.lists(st.sampled_from(["count"] + [
            f"{reducer}:{name}" for reducer in ("sum", "mean", "max", "min")
            for name in header]), min_size=1, max_size=4, unique=True))
        quoted = data.draw(st.sets(st.tuples(st.integers(0, nrows - 1),
                                             st.integers(0, len(kinds) - 1))))
        split = data.draw(st.integers(0, nrows))

        def text(rows, end="\n", quote=frozenset()):
            return "".join(",".join(f'"{cell}"' if (i, j) in quote else cell
                                    for j, cell in enumerate(row)) + end
                           for i, row in enumerate([header, *rows], -1))

        tmp = tmp_path_factory.mktemp("metamorphic")
        base = run_mapreduce(tmp, [text(rows)], 1000, ops)

        def as_base(got):
            """Chunked another way, a run gives the base's outcome, but for
            where an infinite cell is, as it may meet another first.  Or
            it fails in a chunk's map before it reads the chunk of one:
            then as the base does without its infinite cells."""
            if unlocated(got) == unlocated(base):
                return
            assert INFINITE_AT.search(base[2])
            finite = [["0.5" if kind == "real" and cell != "NA"
                       and math.isinf(float(cell)) else cell
                       for kind, cell in zip(kinds, row)] for row in rows]
            assert got == run_mapreduce(tmp, [text(finite)], 1000, ops)

        # a column no op names is never parsed, whatever its cells hold:
        # an integer first, then garbage, each cell in a chunk of its own
        at = data.draw(st.integers(0, len(kinds)))
        junk = [data.draw(PLAIN_INTS)] + [data.draw(GARBAGE)
                                          for _ in range(nrows - 1)]
        as_base(run_mapreduce(tmp, ["".join(
            ",".join(row[:at] + [cell] + row[at:]) + "\n"
            for row, cell in zip([header, *rows], ["junk", *junk]))],
            1, ops))
        for chunk_size in (1, 2, 7):
            as_base(run_mapreduce(tmp, [text(rows)], chunk_size, ops))
        as_base(run_mapreduce(tmp, [text(rows[:split]), text(rows[split:])],
                              1000, ops))
        for variant in (text(rows, quote=quoted), text(rows, "\r\n")):
            assert run_mapreduce(tmp, [variant], 1000, ops) == base
        code, results, _ = base
        if code == 0:
            for op in ops:
                alone = run_mapreduce(tmp, [text(rows)], 1000, [op])
                assert alone[0] == 0
                assert alone[1][op] == results[op]
    relations_hold()
