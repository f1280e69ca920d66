"""The column parser against the per-cell reference.

``reference_build_table`` and ``reference_infer_kind`` parse cell by cell,
as ``chunkstore._build_table`` and ``chunkstore._infer_column`` did before
numeric columns were parsed a column at a time, with integers held as
int64 plus the missing mask and refused outside int64.  For random columns
both must agree exactly: dtype, missing mask, bit-identical values, and the
same error on the same cell.
"""
import csv
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dwkit import chunkstore as cs
from dwkit.errors import DwkitError, MalformedValueError


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


# --- chunks built a batch at a time ---
# open_datastore infers and keeps chunk 0, and every read builds its
# chunks, in batches of _BATCH_RECORDS records.  With tiny batches, kinds
# widen across batches, a batch may hold only missing cells, and a fault
# may sit in any batch; the result must still be the whole-chunk one.

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


def select(table, columns):
    if columns is None or isinstance(table, tuple):
        return table
    return cs.DataTable({n: table.columns[n] for n in columns},
                        {n: table.missing[n] for n in columns},
                        {n: table.kinds[n] for n in columns},
                        nrows=table.nrows)


def expected_chunks(files, header, missing_tokens, chunk_size):
    """(schema, outcomes): the per-cell reference over whole chunks, each
    chunk's table, up to and with the first chunk's error."""
    first = next((rows for _, rows in files if rows), [])[:chunk_size]
    schema = tuple(cs.ColumnSpec(name, reference_infer_kind(
        [row[j] for row in first if j < len(row)], missing_tokens))
        for j, name in enumerate(header))
    outcomes = []
    for path, rows in files:
        for ci, start in enumerate(range(0, len(rows), chunk_size)):
            outcomes.append(failure(lambda: reference_build_table(
                rows[start:start + chunk_size], schema, missing_tokens,
                f"{path} chunk {ci}")))
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
        i = data.draw(st.integers(0, nrows - 1))   # a short record
        rows[i] = rows[i][:data.draw(st.integers(0, ncols - 1))]
    header = [f"c{j}" for j in range(ncols)]
    split = data.draw(st.integers(0, nrows))   # either file may be empty
    tmp = tmp_path_factory.mktemp("batches")
    files = [(write_rows(tmp / "a.csv", header, rows[:split]), rows[:split]),
             (write_rows(tmp / "b.csv", header, rows[split:]), rows[split:])]
    paths = [p for p, _ in files]
    chunk_size = data.draw(st.integers(1, 7))
    columns = data.draw(st.sampled_from([None, ["c0"], header[1:]]))
    schema, want = expected_chunks(files, header, missing_tokens, chunk_size)
    want = [select(t, columns) for t in want]

    def opened():
        ds = cs.open_datastore(paths, chunk_size=chunk_size,
                               treat_as_missing=missing_tokens)
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

    saved = cs._BATCH_RECORDS
    try:
        cs._BATCH_RECORDS = data.draw(st.sampled_from([1, 2, 3]))
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
        cs._BATCH_RECORDS = saved


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
    taken, split = [], []
    parse_lines, split_columns = cs._parse_lines, cs._split_columns

    def recording(*args):
        got = parse_lines(*args)
        taken.append(got is not None)
        return got

    def splitting(lines, ncols):
        split.append(len(lines))
        return split_columns(lines, ncols)

    @given(st.data())
    def plain_equals_csv(data):
        missing = data.draw(st.sampled_from([("NA",), ("NA", "-999")]))
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
    # some batches were split, and loadtxt parsed some and declined others
    assert split and True in taken and False in taken


def plain_lines_then(odd):
    """Six plain lines of an integer and a text column, then ``odd``."""
    return [f"{i},t{i}\n" for i in range(6)] + odd


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
    for j, tokens in enumerate(cs._split_columns(lines, 3)):
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
    assert [c.kind for c in ds.schema] == kinds
    assert bool(splits) == split
    if "NA" in lines[0]:
        # the second batch of chunk 0: only the column of no kind guessed
        assert parsed[1] == ["real", "integer"]
    fast = read_every_way([str(p)], chunk_size, ("NA",), columns, columns)
    monkeypatch.setattr(cs, "_unquoted", lambda *args: False)
    slow = read_every_way([str(p)], chunk_size, ("NA",), columns, columns)
    assert_same_reads(fast, slow)
