import math

import numpy as np
import pytest

from dwkit import chunkstore as cs
from dwkit.errors import (InconsistentHeaderError, MalformedValueError,
                          MissingFileError)
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
        ds = cs.open_datastore(p, treat_as_missing=("none",),
                               column_types={"x": "real"})
        t = cs.read_all(ds)
        assert t.kinds["x"] == "real"
        assert t.missing_count("x") == 1
        assert math.isnan(t.column("x")[1])


class TestParseValue:
    def test_missing_token_numeric_is_nan(self):
        assert math.isnan(cs.parse_value("NA", "real"))
        assert math.isnan(cs.parse_value("'NA'", "integer"))

    def test_integer(self):
        assert cs.parse_value("155", "integer") == 155

    def test_malformed(self):
        with pytest.raises(MalformedValueError):
            cs.parse_value("12x", "integer")

    def test_quotes_stripped(self):
        assert cs.parse_value('"hello"', "text") == "hello"


class TestPreviewAndChunks:
    def test_preview_first_rows(self, sample_ds):
        t = cs.preview(sample_ds, 8)
        assert t.nrows == 8
        assert t.column("ActualElapsedTime")[0] == 53

    def test_preview_zero(self, sample_ds):
        t = cs.preview(sample_ds, 0)
        assert t.nrows == 0
        assert t.column_names == sample_ds.column_names()

    def test_preview_beyond_end(self, sample_ds):
        assert cs.preview(sample_ds, 1000).nrows == 8

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
        ds = cs.open_datastore(p, column_types={"x": "integer"})
        with pytest.raises(MalformedValueError) as err:
            list(cs.read_chunks(ds))
        assert "bad.csv" in str(err.value)


class TestRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        rows = ["1,0.1,hello,NA", "NA,2.5e-17,'NA',7",
                "3,NA,\"quoted text\",8"]
        src = write_csv(tmp_path / "src.csv", "i,r,t,j", rows)
        ds = cs.open_datastore(src)
        t1 = cs.read_all(ds)
        out = tmp_path / "out.csv"
        cs.write_table(t1, out)
        t2 = cs.read_all(cs.open_datastore(
            str(out), column_types={k: t1.kinds[k] for k in t1.kinds}))
        for name in t1.column_names:
            np.testing.assert_array_equal(t1.missing[name],
                                          t2.missing[name])
            m = ~t1.missing[name]
            if t1.kinds[name] == "text":
                assert [v for v, keep in zip(t1.column(name), m) if keep] \
                    == [v for v, keep in zip(t2.column(name), m) if keep]
            else:
                np.testing.assert_array_equal(t1.column(name)[m],
                                              t2.column(name)[m])


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
