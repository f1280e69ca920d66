import math

import numpy as np
import pytest

from dwkit import chunkstore as cs
from dwkit.errors import (DwkitError, InconsistentHeaderError,
                          MalformedValueError, MissingFileError)
from dwkit.fixtures import server_records_path


@pytest.fixture
def sample_ds():
    return cs.open_datastore(server_records_path(), chunk_size=3)


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")
    return str(path)


class TestOpenAndInference:
    def test_sample_schema(self, sample_ds):
        kinds = {c.name: c.kind for c in sample_ds.schema}
        assert kinds == {"ServerNum": "integer", "TailNum": "text",
                         "ActualElapsedTime": "integer",
                         "CRSElapsedTime": "integer",
                         "ExtraTime": "text", "Delay": "integer"}

    def test_missing_file(self):
        with pytest.raises(MissingFileError):
            cs.open_datastore("/no/such/file.csv")

    def test_empty_data_section(self, tmp_path):
        p = write_csv(tmp_path / "empty.csv", "a,b", [])
        ds = cs.open_datastore(p)
        assert cs.read_all(ds).nrows == 0

    def test_widening_to_real(self, tmp_path):
        p = write_csv(tmp_path / "w.csv", "x", ["1", "2.5"])
        ds = cs.open_datastore(p)
        assert ds.schema[0].kind == "real"

    def test_inconsistent_headers(self, tmp_path):
        p1 = write_csv(tmp_path / "a.csv", "x,y", ["1,2"])
        p2 = write_csv(tmp_path / "b.csv", "x,z", ["1,2"])
        with pytest.raises(InconsistentHeaderError):
            cs.open_datastore([p1, p2])

    def test_type_override_and_extra_missing(self, tmp_path):
        p = write_csv(tmp_path / "m.csv", "x", ["1", "none", "3"])
        ds = cs.open_datastore(p, treat_as_missing=("none",))
        t = cs.read_all(ds)
        assert t.kinds["x"] == "integer"
        assert t.column("x").dtype == np.int64
        assert t.missing["x"].tolist() == [False, True, False]
        assert t.column("x", skip_missing=True).tolist() == [1, 3]


class TestParseValue:
    def test_missing_token_numeric_is_nan(self):
        assert math.isnan(cs.parse_value("NA", "real"))
        assert math.isnan(cs.parse_value("'NA'", "integer"))

    def test_integer(self):
        assert cs.parse_value("155", "integer") == 155
        assert cs.parse_value("-9223372036854775808", "integer") == -2**63
        assert cs.parse_value("9223372036854775807", "integer") == 2**63 - 1

    def test_malformed(self):
        # past int64, and past the digits int() converts
        for token in ("12x", "9223372036854775808", "-9223372036854775809",
                      "7" * 5000):
            with pytest.raises(MalformedValueError):
                cs.parse_value(token, "integer")

    def test_quotes_stripped(self):
        assert cs.parse_value('"hello"', "text") == "hello"


class TestPreviewAndChunks:
    def test_chunk_sizes(self, sample_ds):
        sizes = [len(c) for c in cs.read_chunks(sample_ds)]
        assert sizes == [3, 3, 2]

    def test_single_chunk_when_large(self):
        ds = cs.open_datastore(server_records_path(), chunk_size=100)
        assert [len(c) for c in cs.read_chunks(ds)] == [8]

    def test_chunks_never_span_files(self, tmp_path):
        p1 = write_csv(tmp_path / "a.csv", "x",
                       [str(i) for i in range(5)])
        p2 = write_csv(tmp_path / "b.csv", "x",
                       [str(i) for i in range(3)])
        ds = cs.open_datastore([p1, p2], chunk_size=4)
        assert [len(c) for c in cs.read_chunks(ds)] == [4, 1, 3]

    def test_concat_of_chunks_is_full_table(self, sample_ds):
        whole = cs.read_all(sample_ds)
        parts = cs.concat_tables(list(cs.read_chunks(sample_ds)))
        for name in whole.column_names:
            np.testing.assert_array_equal(
                whole.missing[name], parts.missing[name])
            a, b = whole.column(name), parts.column(name)
            if whole.kinds[name] == "text":
                assert list(a) == list(b)
            else:
                np.testing.assert_array_equal(
                    a[~whole.missing[name]], b[~parts.missing[name]])

    def test_missing_counts_invariant_in_chunk_size(self):
        counts = []
        for size in (1, 3, 8, 100):
            ds = cs.open_datastore(server_records_path(), chunk_size=size)
            t = cs.read_all(ds)
            counts.append({n: t.missing_count(n) for n in t.column_names})
        assert all(c == counts[0] for c in counts)
        assert counts[0]["TailNum"] == 8
        assert counts[0]["Delay"] == 0

    def test_parse_error_carries_context(self, tmp_path):
        p = write_csv(tmp_path / "bad.csv", "x", ["1", "oops"])
        ds = cs.open_datastore(p, chunk_size=1)
        with pytest.raises(MalformedValueError) as err:
            list(cs.read_chunks(ds))
        assert "bad.csv" in str(err.value)


def write_bytes(path, data):
    path.write_bytes(data)
    return str(path)


def assert_same_table(a, b):
    assert a.column_names == b.column_names
    assert a.kinds == b.kinds
    for name in a.column_names:
        np.testing.assert_array_equal(a.missing[name], b.missing[name])
        assert a.column(name).dtype == b.column(name).dtype
        assert list(a.column(name)[~a.missing[name]]) \
            == list(b.column(name)[~b.missing[name]])


class TestChunkIndex:
    """read_chunk at an indexed offset gives the same table as the
    sequential read, whatever the line endings, quoting or encoding."""

    @pytest.fixture
    def sources(self, tmp_path):
        # CRLF endings, a quoted CRLF and quoted commas, multi-byte text
        crlf = write_bytes(tmp_path / "crlf.csv", (
            'id,name,v\r\n'
            '1,"a, b",1.5\r\n'
            '2,"two\r\nlines, é",NA\r\n'
            '3,café,2\r\n'
            '4,"say ""hi""",2.25\r\n'
            '5,€uro,NA\r\n').encode())
        # LF endings, a quoted LF, and a last line without a newline
        lf = write_bytes(tmp_path / "lf.csv", (
            'id,name,v\n'
            '6,"x\ny",3\n'
            '7,plain,4.5\n'
            '8,"q,\n,r",NA\n'
            '9,ü,6').encode())
        return [crlf, lf]

    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 9])
    def test_indexed_read_equals_sequential(self, sources, chunk_size):
        ds = cs.open_datastore(sources, chunk_size=chunk_size)
        sequential = list(cs.read_chunks(ds))
        indexed = [cs.read_chunk(ds, fi, ci, offset)
                   for fi in range(len(ds.sources))
                   for ci, offset, _rows in cs.iter_file_chunks(ds, fi)]
        assert len(indexed) == len(sequential)
        for a, b in zip(indexed, sequential):
            assert_same_table(a, b)
        assert sum(len(t) for t in indexed) == 9

    def test_offsets_are_byte_offsets_of_records(self, sources):
        ds = cs.open_datastore(sources, chunk_size=1)
        with open(sources[0], "rb") as fh:
            raw = fh.read()
        offsets = [offset for _ci, offset, _rows
                   in cs.iter_file_chunks(ds, 0)]
        starts = [raw.index(rec) for rec in
                  (b"1,", b"2,", b"3,", b"4,", b"5,")]
        assert offsets == starts

    def test_crlf_split_across_read_blocks(self, tmp_path):
        # pad records so that a "\r\n" straddles each 8 KiB block the
        # text layer decodes; the decoder then holds the "\r" back
        block = 8192
        data = bytearray(b"x,y\r\n")
        k = 0
        while len(data) < 3 * block:
            line = f"{k},v{'é' * (k % 5)}".encode()
            gap = (len(data) // block + 1) * block - 1 - len(data) - len(line)
            if 0 <= gap < 40:
                line += b"p" * gap
            data += line + b"\r\n"
            k += 1
        assert data[block - 1:block + 1] == b"\r\n"
        p = write_bytes(tmp_path / "blocks.csv", bytes(data))
        for size in (1, 3):
            ds = cs.open_datastore(p, chunk_size=size)
            for (ci, offset, _rows), table in zip(
                    cs.iter_file_chunks(ds, 0), cs.read_chunks(ds)):
                assert_same_table(cs.read_chunk(ds, 0, ci, offset), table)

    def test_lone_cr_endings(self, tmp_path):
        p = write_bytes(tmp_path / "cr.csv", b"x,y\r1,a\r2,b\r3,c\r")
        ds = cs.open_datastore(p, chunk_size=2)
        sequential = list(cs.read_chunks(ds))
        indexed = [cs.read_chunk(ds, 0, ci, offset)
                   for ci, offset, _rows in cs.iter_file_chunks(ds, 0)]
        assert [len(t) for t in indexed] == [2, 1]
        for a, b in zip(indexed, sequential):
            assert_same_table(a, b)

    def test_sample_fixture_every_chunk_size(self):
        for size in (1, 3, 7, 8):
            ds = cs.open_datastore(server_records_path(), chunk_size=size)
            for (ci, offset, _rows), table in zip(
                    cs.iter_file_chunks(ds, 0), cs.read_chunks(ds)):
                assert_same_table(cs.read_chunk(ds, 0, ci, offset), table)

    @pytest.fixture
    def with_empty_first(self, tmp_path, sources):
        # a first file with no data rows: the kept chunk is the next one's
        empty = write_bytes(tmp_path / "empty.csv", b"id,name,v\r\n")
        return [empty, *sources]

    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 9])
    @pytest.mark.parametrize("columns", [["v"], ["name"], ["id", "v"], []])
    def test_projection_equals_full_read(self, with_empty_first,
                                         chunk_size, columns):
        full = cs.read_all(cs.open_datastore(with_empty_first,
                                             chunk_size=chunk_size))
        ds = cs.open_datastore(with_empty_first, chunk_size=chunk_size)
        part = cs.read_all(ds, columns)
        assert part.nrows == full.nrows == 9
        assert part.kinds == {n: full.kinds[n] for n in columns}
        assert_same_table(part, cs.DataTable(
            {n: full.columns[n] for n in columns},
            {n: full.missing[n] for n in columns},
            {n: full.kinds[n] for n in columns}))
        # chunk by chunk, and chunk by chunk from the indexed offsets
        for fi in range(len(ds.sources)):
            for ci, offset, _rows in cs.iter_file_chunks(ds, fi):
                table = cs.read_chunk(ds, fi, ci, offset, columns)
                assert table.column_names == columns
                assert table.nrows == min(chunk_size,
                                          (5, 4)[fi - 1] - ci * chunk_size)

    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 9])
    def test_reading_twice_gives_equal_tables(self, with_empty_first,
                                              chunk_size, count_tokenized):
        ds = cs.open_datastore(with_empty_first, chunk_size=chunk_size)
        first = list(cs.read_chunks(ds))
        # the first read took the chunk open_datastore kept; a second
        # read tokenizes every record from the files again
        records = count_tokenized()
        second = list(cs.read_chunks(ds))
        assert len(records) == 9 + len(ds.sources)   # and the headers
        assert [len(t) for t in first] == [len(t) for t in second]
        for a, b in zip(first, second):
            assert_same_table(a, b)
        assert_same_table(cs.read_all(ds), cs.concat_tables(first))
        assert_same_table(cs.read_all(ds, ["v"]), cs.read_all(ds, ["v"]))

    def test_lone_table_is_not_copied(self, sample_ds):
        table = cs.read_all(sample_ds)
        assert cs.concat_tables([table]) is table

    def test_oversized_field_names_file_and_chunk(self, tmp_path):
        p = write_csv(tmp_path / "big.csv", "a,b",
                      ["1,2", "3," + "x" * 200000])
        with pytest.raises(DwkitError, match=r"big.csv chunk 0: field "
                           r"larger than field limit"):
            cs.open_datastore(p)
        ds = cs.open_datastore(p, chunk_size=1)
        with pytest.raises(DwkitError, match=r"big.csv chunk 1: field "
                           r"larger than field limit"):
            cs.read_all(ds, ["a"])
        with pytest.raises(DwkitError, match=r"head.csv header: field"):
            cs.open_datastore(write_csv(tmp_path / "head.csv",
                                        "a," + "x" * 200000, ["1,2"]))


class TestBatches:
    """Chunks are tokenized and built in batches of _BATCH_RECORDS."""

    def test_no_read_asks_for_more_than_a_batch(self, tmp_path,
                                                monkeypatch):
        from dwkit.mapreduce import make_ops_mapper, mapreduce, reduce_op
        p = write_csv(tmp_path / "rows.csv", "i,r,t",
                      [f"{i},{i}.5,t{i % 3}" for i in range(40)])
        asked = []
        read_rows = cs._read_rows

        def recording(reader, n, context):
            asked.append(n)
            return read_rows(reader, n, context)
        monkeypatch.setattr(cs, "_BATCH_RECORDS", 4)
        monkeypatch.setattr(cs, "_read_rows", recording)
        ds = cs.open_datastore(p, chunk_size=25)
        table = cs.read_all(ds)
        assert table.nrows == 40
        assert list(table.column("i")) == list(range(40))
        # a map task builds its chunk from the batches the pass reads, and
        # a retry re-reads its chunk in batches too
        out = mapreduce(
            cs.open_datastore(p, chunk_size=25),
            make_ops_mapper([("sum:i", "sum", "i")]), reduce_op,
            fail_injector=lambda kind, task, attempt:
                kind == "map" and attempt == 1 and task == "map-0-1")
        assert out.pairs == [("sum:i", sum(range(40)))]
        assert len(asked) > 20 and max(asked) <= 4

    def test_unread_rows_are_skipped(self, tmp_path):
        # a consumer that takes no rows still gets the next chunk
        p = write_csv(tmp_path / "rows.csv", "i",
                      [str(i) for i in range(10)])
        ds = cs.open_datastore(p, chunk_size=4)
        index = [(ci, offset) for ci, offset, _rows
                 in cs.iter_file_chunks(ds, 0)]
        assert [ci for ci, _ in index] == [0, 1, 2]
        assert [list(cs.read_chunk(ds, 0, ci, offset).column("i"))
                for ci, offset in index] == [[0, 1, 2, 3], [4, 5, 6, 7],
                                             [8, 9]]

    @pytest.mark.parametrize("cells, kind", [
        (["1", "-0", "NA", "2.5"], "real"),    # integer, then real
        (["1", "2", "x", "3"], "text"),        # integer, then text
        (["-0", "NA", "NA", "7"], "integer"),  # no widening
    ])
    def test_widening_after_first_batch_rereads_chunk_0(
            self, tmp_path, monkeypatch, count_tokenized, cells, kind):
        p = write_csv(tmp_path / "w.csv", "x,y",
                      [f"{c},{i}" for i, c in enumerate(cells)])
        monkeypatch.setattr(cs, "_BATCH_RECORDS", 2)
        ds = cs.open_datastore(p, chunk_size=10)
        assert ds.schema[0].kind == kind
        widened = kind != "integer"
        assert bool(ds._first) is not widened
        records = count_tokenized()
        first = cs.read_all(ds)
        # the kept chunk is read from memory; a dropped one from the file
        assert len(records) == (len(cells) + 1 if widened else 0)
        again = cs.read_all(ds)
        assert len(records) == (len(cells) + 1) * (1 + widened)
        assert_same_table(first, again)
        x = first.column("x")
        if kind == "real":
            assert np.signbit(x[1]) and x[1] == 0   # -0 read as real
        assert list(first.missing["x"]) == [c == "NA" for c in cells]

    @pytest.mark.parametrize("cells, kind", [
        (["0.5", "1.5", "-0", "2"], "real"),   # then integers
        (["a0", "a1", "-0", "2"], "text"),     # then numbers
    ])
    def test_later_batch_that_fits_the_kind_so_far_keeps_chunk_0(
            self, tmp_path, monkeypatch, count_tokenized, cells, kind):
        # each batch holds a missing token, so it is split, and the second
        # batch's cells fit a narrower kind: they are parsed at the kind so
        # far, and the first read takes chunk 0 from memory
        p = write_csv(tmp_path / "f.csv", "x,y", [f"{c},NA" for c in cells])
        monkeypatch.setattr(cs, "_BATCH_RECORDS", 2)
        ds = cs.open_datastore(p, chunk_size=10)
        assert ds.schema[0].kind == kind and ds._first
        records = count_tokenized()
        first = cs.read_all(ds)
        assert len(records) == 0
        again = cs.read_all(ds)   # from the file
        assert len(records) == len(cells) + 1   # and the header
        assert_same_table(first, again)
        if kind == "real":
            assert np.signbit(first.column("x")[2])   # -0 read as real
            assert first.column("x").tobytes() == again.column("x").tobytes()
        else:
            assert list(first.column("x")) == cells

    def test_numeric_missing_token_in_later_batch_is_missing(
            self, tmp_path, monkeypatch, unquoted_verdicts):
        # np.loadtxt would read -999 as a number: a batch holding a missing
        # token anywhere goes the csv.reader way
        p = write_csv(tmp_path / "m.csv", "x,y",
                      [f"{i},{i}.5" for i in range(6)] + ["-999,7.5",
                                                          "8,-999"])
        monkeypatch.setattr(cs, "_BATCH_RECORDS", 2)
        for chunk_size in (4, 100):   # in chunk 1, or in chunk 0
            unquoted_verdicts.clear()
            ds = cs.open_datastore(p, chunk_size=chunk_size,
                                   treat_as_missing=("-999",))
            assert unquoted_verdicts[0] is True
            table = cs.read_all(ds)
            assert table.missing["x"].tolist() == [False] * 6 + [True, False]
            assert table.missing["y"].tolist() == [False] * 7 + [True]
            assert table.column("x").tolist() == [0, 1, 2, 3, 4, 5, 0, 8]
            assert math.isnan(table.column("y")[7])

    def test_real_cell_in_later_batch_widens_and_rereads_chunk_0(
            self, tmp_path, monkeypatch, count_tokenized,
            unquoted_verdicts):
        # np.loadtxt refuses 1.0 as an integer (numpy 1.x only warns), so
        # the batch is tokenized, the column widens to real, and the first
        # read tokenizes chunk 0 again
        cells = ["1", "-0", "2", "3", "1.0", "4"]
        p = write_csv(tmp_path / "w.csv", "x,t",
                      [f"{c},t{i}" for i, c in enumerate(cells)])
        monkeypatch.setattr(cs, "_BATCH_RECORDS", 2)
        ds = cs.open_datastore(p, chunk_size=10)
        assert unquoted_verdicts[0] is True
        assert ds.schema[0].kind == "real" and not ds._first
        records = count_tokenized()
        table = cs.read_all(ds)
        assert len(records) == len(cells) + 1   # and the header
        x = table.column("x")
        assert x.dtype == np.float64
        assert x.tolist() == [1.0, 0.0, 2.0, 3.0, 1.0, 4.0]
        assert np.signbit(x[1])   # -0 read as real

    def test_first_chunk_keeps_the_columns_asked_for(
            self, tmp_path, monkeypatch, count_tokenized):
        p = write_csv(tmp_path / "k.csv", "a,b,t",
                      [f"{i},{i}.5,t{i}" for i in range(7)])
        monkeypatch.setattr(cs, "_BATCH_RECORDS", 2)
        full = cs.read_all(cs.open_datastore(p))
        ds = cs.open_datastore(p, columns=["a", "t"])
        assert set(ds._first[0].table.columns) == {"a", "t"}
        narrow = cs.open_datastore(p, columns=["a"])
        records = count_tokenized()
        assert_same_table(cs.read_all(ds, ["a", "t"]), cs.DataTable(
            {n: full.columns[n] for n in "at"},
            {n: full.missing[n] for n in "at"},
            {n: full.kinds[n] for n in "at"}))
        assert len(records) == 0   # from the kept chunk
        # a first read asking for a column that was not kept reads chunk
        # 0 again
        assert_same_table(cs.read_all(narrow), full)
        assert len(records) == 7
        # a short record is named whichever columns were kept
        p = write_csv(tmp_path / "s.csv", "a,b", ["1,1", "2"])
        ds = cs.open_datastore(p, columns=["a"])
        assert not ds._first
        with pytest.raises(MalformedValueError, match="short record"):
            cs.read_all(ds, ["a"])

    def test_all_missing_first_batch_is_no_evidence(self, tmp_path,
                                                    monkeypatch):
        p = write_csv(tmp_path / "m.csv", "x",
                      ["NA", "NA", "NA", "4", "NA", "-5"])
        monkeypatch.setattr(cs, "_BATCH_RECORDS", 3)
        ds = cs.open_datastore(p)
        assert ds.schema[0].kind == "integer" and ds._first
        table = cs.read_all(ds)
        assert table.column("x").dtype == np.int64
        assert list(table.column("x", skip_missing=True)) == [4, -5]

    def test_fault_named_is_the_whole_chunk_first(self, tmp_path,
                                                  monkeypatch):
        # in chunk 1, column b fails in the first batch and column a only
        # in the third: a whole-chunk build checks column a first, and so
        # does a batched one
        clean = [f"{i},{i}" for i in range(6)]
        p = write_csv(tmp_path / "f.csv", "a,b", clean + [
            "7,7", "8,oops", "9,9", "10,10", "bad,11", "12,12"])
        monkeypatch.setattr(cs, "_BATCH_RECORDS", 2)
        ds = cs.open_datastore(p, chunk_size=6)
        with pytest.raises(MalformedValueError) as err:
            cs.read_all(ds, ["b"])
        assert err.value.token == "bad"
        assert "chunk 1 column 'a'" in str(err.value)

    def test_short_record_row_counts_from_chunk_start(self, tmp_path,
                                                      monkeypatch):
        p = write_csv(tmp_path / "s.csv", "a,b",
                      ["1,1", "2,2", "3,3", "4", "5,5"])
        monkeypatch.setattr(cs, "_BATCH_RECORDS", 2)
        ds = cs.open_datastore(p, chunk_size=5)
        assert not ds._first   # a short record: chunk 0 is read again
        with pytest.raises(MalformedValueError,
                           match=r"s.csv chunk 0 row 3: short record"):
            cs.read_all(ds, ["a"])
