"""Chunk-based datastore over delimited text files.

A datastore iterates a collection of comma-delimited files in bounded-size
row chunks.  ``read_chunks`` holds one chunk's rows at a time; ``read_all``
holds the whole table.  ``iter_file_chunks`` also gives the offset at
which each chunk starts, so ``read_chunk`` can re-read any one chunk by
seeking to it instead of re-scanning its file.
``parse_value`` defines a valid cell.  A column's kind is the narrowest
of integer and real whose cells it accepts across a sample, or text.
Integer columns are int64 and real columns float64; a missing cell
(configured tokens, default ``NA``) is marked in the mask and holds 0 in
an integer column, NaN in a real one and None in a text one.

Each record is tokenized once per datastore.  ``open_datastore`` infers
the kinds from the first chunk of the first file holding data rows and
keeps that chunk: its rows, the numeric columns it parsed, and the file
position after it.  The first read of the datastore builds chunk 0 from
them and goes on reading the file from there; the kept chunk is then
dropped, so any later read goes back to the file.  A read builds only the
columns it is asked for, and still checks every cell of the others:
a numeric column is parsed and dropped, and a text column, whose every
cell is valid, is checked only for short records.  So a malformed cell
fails a read whichever columns it builds.

Numeric columns are parsed a column at a time, for inference and for
building tables alike: the missing tokens are dropped, one regular
expression checks that every other token is a plain ASCII number, and one
``np.array`` call converts them all with Python's own ``int``/``float``.
A column that fails either step (quoted or padded cells, Unicode digits,
``1_000``, integers past int64, malformed cells) is parsed cell by cell
with ``parse_value``, which gives the same values and names the first
malformed cell with its file, chunk and column.
"""
from __future__ import annotations

import csv
import math
import os
import re
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter

import numpy as np

from .errors import (DwkitError, InconsistentHeaderError,
                     MalformedValueError, MissingFileError)

DEFAULT_MISSING_TOKENS = ("NA",)
_INT_RE = re.compile(r"^[+-]?\d+$")
_PLAIN_INTEGER = re.compile(r"[-+0-9\n]*")
_PLAIN_REAL = re.compile(r"[-+0-9.eE\n]*")
_INT64 = np.iinfo(np.int64)


def strip_quotes(token: str) -> str:
    """Remove one pair of surrounding single or double quotes."""
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "'\"":
        return token[1:-1]
    return token


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str    # integer | real | text


@dataclass(frozen=True)
class Datastore:
    sources: tuple[str, ...]
    schema: tuple[ColumnSpec, ...]
    missing_tokens: frozenset[str]
    chunk_size: int
    # the chunk open_datastore tokenized, until the first read takes it
    _first: list = field(default_factory=list, init=False, repr=False,
                         compare=False)

    def column_names(self):
        return [c.name for c in self.schema]


class _FirstChunk(list):
    """The rows of the chunk ``open_datastore`` tokenized, with the
    columns it parsed (name -> (values, mask)), the index of its file
    and the file positions of its first record and of the next one."""

    def __init__(self, rows, file_index, offset, end):
        super().__init__(rows)
        self.file_index, self.offset, self.end = file_index, offset, end
        self.parsed = {}


class DataTable:
    """Named typed columns of equal length with a per-cell missing mask.

    Integer columns are int64 arrays and real columns float64 arrays;
    text columns are object arrays.  A missing cell holds 0, NaN or None,
    by kind; only the mask tells a missing integer cell from a 0.
    ``nrows`` gives the length of a table without columns.
    """

    def __init__(self, columns, missing, kinds, nrows=None):
        self.columns = columns
        self.missing = missing
        self.kinds = kinds
        lengths = {len(v) for v in columns.values()}
        if nrows is not None:
            lengths.add(nrows)
        if len(lengths) > 1:
            raise ValueError("columns have unequal lengths")
        self.nrows = lengths.pop() if lengths else 0

    @property
    def column_names(self):
        return list(self.columns)

    def column(self, name, skip_missing=False):
        v = self.columns[name]
        return v[~self.missing[name]] if skip_missing else v

    def missing_count(self, name):
        return int(self.missing[name].sum())

    def complete_cases(self, names):
        """This table without the rows missing a value in any of
        ``names``, and the number of rows dropped."""
        keep = np.ones(self.nrows, dtype=bool)
        for n in names:
            keep &= ~self.missing[n]
        dropped = self.nrows - int(keep.sum())
        if not dropped:
            return self, 0
        return DataTable({n: v[keep] for n, v in self.columns.items()},
                         {n: m[keep] for n, m in self.missing.items()},
                         dict(self.kinds)), dropped

    def __len__(self):
        return self.nrows


def parse_value(token, kind, missing_tokens=DEFAULT_MISSING_TOKENS):
    """Parse one cell token per the column kind.

    Missing tokens map to NaN for numeric kinds and None for text.
    Raises MalformedValueError for tokens that are neither missing nor
    parseable, an integer outside int64 included.
    """
    token = strip_quotes(token.strip())
    if token in missing_tokens:
        return math.nan if kind in ("integer", "real") else None
    if kind == "integer":
        try:
            value = int(token) if _INT_RE.match(token) else None
        except ValueError:   # more digits than int() converts
            value = None
        if value is None or not _INT64.min <= value <= _INT64.max:
            raise MalformedValueError(token, kind)
        return value
    if kind == "real":
        try:
            return float(token)
        except ValueError:
            raise MalformedValueError(token, kind) from None
    return token


def _plain_kind(present):
    """The narrowest numeric kind whose plain alphabet holds every token.

    ``integer`` for tokens of ASCII signs and digits only; ``real`` also
    allows ``.``, ``e`` and ``E``; None for anything else, or no tokens.
    A plain token has no whitespace, quotes, underscores or letters of
    ``nan``/``inf``, so ``parse_value``'s strip and unquote leave it as it
    is and ``int``/``float`` give it the same value.  One C-level match
    runs over all tokens joined by newlines; the newline count rules out
    a token that holds one itself.
    """
    joined = "\n".join(present)
    if not present or joined.count("\n") != len(present) - 1:
        return None
    if _PLAIN_INTEGER.fullmatch(joined):
        return "integer"
    if _PLAIN_REAL.fullmatch(joined):
        return "real"
    return None


def _parse_plain(tokens, kind, missing_tokens):
    """Parse a column of raw tokens as numbers in one numpy call.

    ``kind`` is the column's kind, or None for the narrowest kind that
    fits.  Returns (kind, values, missing mask), or None when a token is
    not plain for ``kind`` or ``int``/``float`` rejects it: the caller
    then parses cell by cell, which gives the same result or names the
    malformed cell.  Only missing tokens that are their own stripped,
    unquoted form are dropped here, so every dropped cell is one
    ``parse_value`` also calls missing.
    """
    drop = {t for t in missing_tokens if strip_quotes(t.strip()) == t}
    # list membership compares strings; a set test would hash every token
    if not any(t in tokens for t in drop):
        present, mask = tokens, np.zeros(len(tokens), dtype=bool)
    else:
        present = [t for t in tokens if t not in drop]
        mask = np.array([t in drop for t in tokens], dtype=bool)
    plain = _plain_kind(present)
    if plain is None or (plain == "real" and kind == "integer"):
        return None
    kind = kind or plain
    try:
        values = np.array(present, dtype=np.int64 if kind == "integer"
                          else np.float64)
    except (ValueError, OverflowError):
        return None
    if len(present) < len(tokens):
        full = _empty_column(kind, len(tokens))
        full[~mask] = values
        values = full
    return kind, values, mask


def _empty_column(kind, n):
    """``n`` missing cells of ``kind``: 0, NaN or None."""
    if kind == "text":
        return np.empty(n, dtype=object)
    return np.zeros(n, np.int64) if kind == "integer" else np.full(n, np.nan)


def _infer_column(tokens, missing_tokens):
    """(kind, values, mask): the narrowest of integer and real whose
    ``parse_value`` accepts every token, or text; an all-missing sample
    gives no evidence, so it is text, the widest kind.  The values and
    mask are ``_parse_plain``'s when it took the column, else None."""
    parsed = _parse_plain(tokens, None, missing_tokens)
    if parsed is not None:
        return parsed
    for kind in ("integer", "real"):
        try:
            values = [parse_value(t, kind, missing_tokens) for t in tokens]
        except MalformedValueError:
            continue
        # as an integer, only a missing cell parses to NaN
        if kind == "integer" and all(map(math.isnan, values)):
            return "text", None, None
        return kind, None, None
    return "text", None, None


def _read_rows(reader, n, context):
    """The next ``n`` records of ``reader``.  A record the csv module
    refuses (a field past its size limit) is a one-line DwkitError."""
    try:
        return list(islice(reader, n))
    except csv.Error as exc:
        raise DwkitError(f"{context}: {exc}") from None


def _read_header(path):
    with open(path, newline="") as fh:
        row = _read_rows(csv.reader(fh), 1, f"{path} header")
    if not row:
        raise InconsistentHeaderError(f"{path}: empty file, no header")
    return [strip_quotes(t.strip()) for t in row[0]]


def open_datastore(paths, chunk_size=10000,
                   treat_as_missing=()) -> Datastore:
    """Open one or more delimited files as a single datastore.

    ``treat_as_missing`` extends the default missing tokens.
    """
    if isinstance(paths, (str, os.PathLike)):
        paths = [paths]
    paths = [str(p) for p in paths]
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    for p in paths:
        if not os.path.isfile(p):
            raise MissingFileError(p)
    tokens = frozenset(DEFAULT_MISSING_TOKENS) | frozenset(treat_as_missing)

    header = _read_header(paths[0])
    for p in paths[1:]:
        if _read_header(p) != header:
            raise InconsistentHeaderError(
                f"{p}: header differs from {paths[0]}")

    # infer from the first chunk of the first file holding data rows,
    # and keep it for the first read
    sample = []
    for fi, p in enumerate(paths):
        with open(p, newline="") as fh:
            reader = csv.reader(iter(fh.readline, ""))
            next(reader)   # header
            offset = fh.tell()
            rows = _read_rows(reader, chunk_size, f"{p} chunk 0")
            if rows:
                sample = _FirstChunk(rows, fi, offset, fh.tell())
                break
    width = min(map(len, sample), default=0)
    columns = zip(*sample)   # one column at a time, up to the shortest row
    kinds = {}
    for j, name in enumerate(header):
        if j < width:
            col_tokens = next(columns)
        else:   # a short record, which the first read names
            col_tokens = [row[j] for row in sample if j < len(row)]
        kinds[name], values, mask = _infer_column(col_tokens, tokens)
        if values is not None and j < width:
            sample.parsed[name] = values, mask
    schema = tuple(ColumnSpec(n, kinds[n]) for n in header)
    ds = Datastore(sources=tuple(paths), schema=schema,
                   missing_tokens=tokens, chunk_size=chunk_size)
    if sample:
        ds._first.append(sample)
    return ds


def _parse_cells(rows, j, spec, missing_tokens, context):
    """Parse column ``j`` cell by cell with ``parse_value``; names the
    short record or malformed cell that stops it."""
    n = len(rows)
    mask = np.zeros(n, dtype=bool)
    vals = _empty_column(spec.kind, n)
    for i, row in enumerate(rows):
        if j >= len(row):
            raise MalformedValueError("<absent>", spec.kind,
                                      f"{context} row {i}: short record")
        try:
            v = parse_value(row[j], spec.kind, missing_tokens)
        except MalformedValueError as exc:
            raise MalformedValueError(
                row[j], spec.kind,
                f"{context} column {spec.name!r}") from exc
        if v is None or (isinstance(v, float) and math.isnan(v)):
            mask[i] = True
        else:
            vals[i] = v
    return vals, mask


def _build_table(rows, schema, missing_tokens, context="", columns=None):
    """A table of the columns named in ``columns`` (default: all), with
    every cell of every column checked.  Numeric columns are parsed whole
    by ``_parse_plain``, or cell by cell when it declines; text columns
    are built cell by cell, and one left out is only checked for short
    records.  Columns parsed when the rows were first tokenized
    (``_FirstChunk.parsed``) are taken as they are."""
    parsed = getattr(rows, "parsed", {})
    width = min(map(len, rows), default=len(schema))
    table, missing, kinds = {}, {}, {}
    for j, spec in enumerate(schema):
        keep = columns is None or spec.name in columns
        if spec.name in parsed:
            vals, mask = parsed[spec.name]
        elif spec.kind == "text" and not keep and j < width:
            continue   # every cell of a complete text column is valid
        else:
            got = None
            if spec.kind != "text" and j < width:
                got = _parse_plain(list(map(itemgetter(j), rows)),
                                   spec.kind, missing_tokens)
            vals, mask = got[1:] if got else _parse_cells(
                rows, j, spec, missing_tokens, context)
        if keep:
            table[spec.name] = vals
            missing[spec.name] = mask
            kinds[spec.name] = spec.kind
    return DataTable(table, missing, kinds, nrows=len(rows))


def iter_file_chunks(ds: Datastore, file_index: int):
    """Yield (chunk_index, offset, raw row list) for one source file.

    ``offset`` is the file position (``tell``) of the chunk's first
    record, for ``read_chunk`` to seek to; for UTF-8 text it is the byte
    offset.  ``csv.reader`` pulls whole lines only until a record is
    complete, so between chunks the file stands at a record boundary,
    quoted newlines included.  Lines are pulled with ``readline`` because
    iterating a text file disables ``tell``.  The chunk ``open_datastore``
    kept is yielded from memory to the first call for its file, which
    then reads on from the record after it.
    """
    path = ds.sources[file_index]
    start, chunk_index = None, 0
    if ds._first and ds._first[0].file_index == file_index:
        first = ds._first.pop()
        start = first.end
        yield 0, first.offset, first
        chunk_index, first = 1, None   # the kept rows are released
    with open(path, newline="") as fh:
        reader = csv.reader(iter(fh.readline, ""))
        if start is None:
            next(reader)   # header
        else:
            fh.seek(start)
        while True:
            offset = fh.tell()
            rows = _read_rows(reader, ds.chunk_size,
                              f"{path} chunk {chunk_index}")
            if not rows:
                return
            yield chunk_index, offset, rows
            chunk_index += 1


def read_chunk(ds: Datastore, file_index: int, chunk_index: int,
               offset: int, columns=None, rows=None) -> DataTable:
    """Build one chunk, the unit of task re-execution, from the ``rows``
    ``iter_file_chunks`` yielded for it, or without them by re-reading it
    from the offset it gave.  ``columns`` as for ``read_all``."""
    context = f"{ds.sources[file_index]} chunk {chunk_index}"
    if rows is None:
        with open(ds.sources[file_index], newline="") as fh:
            fh.seek(offset)
            rows = _read_rows(csv.reader(fh), ds.chunk_size, context)
    return _build_table(rows, ds.schema, ds.missing_tokens, context,
                        columns)


def read_chunks(ds: Datastore, columns=None):
    """Yield DataTable chunks over all sources, in order.

    Chunks never span file boundaries, so every chunk is addressable as a
    (file, chunk index) pair for re-execution.  ``columns`` as for
    ``read_all``.
    """
    for fi in range(len(ds.sources)):
        for ci, _offset, rows in iter_file_chunks(ds, fi):
            yield _build_table(rows, ds.schema, ds.missing_tokens,
                               f"{ds.sources[fi]} chunk {ci}", columns)


def read_all(ds: Datastore, columns=None) -> DataTable:
    """The whole datastore as one table of the columns named in
    ``columns`` (default: all); every cell of the others is checked."""
    return concat_tables(list(read_chunks(ds, columns)) or
                         [_build_table([], ds.schema, ds.missing_tokens,
                                       columns=columns)])


def preview(ds: Datastore, n=8) -> DataTable:
    """First min(n, total) rows; does not consume any iteration state."""
    rows = []
    for path in ds.sources:
        if len(rows) >= n:
            break
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            rows.extend(_read_rows(reader, n - len(rows),
                                   f"{path} preview"))
    return _build_table(rows, ds.schema, ds.missing_tokens, context="preview")


def concat_tables(tables) -> DataTable:
    if not tables:
        raise ValueError("no tables to concatenate")
    first = tables[0]
    if len(tables) == 1:
        return first
    columns, missing = {}, {}
    for name in first.columns:
        columns[name] = np.concatenate([t.columns[name] for t in tables])
        missing[name] = np.concatenate([t.missing[name] for t in tables])
    return DataTable(columns, missing, dict(first.kinds),
                     nrows=sum(t.nrows for t in tables))


def _render_cell(value, kind, is_missing, missing_token):
    if is_missing:
        return missing_token
    if kind == "integer":
        return str(int(value))
    if kind == "real":
        return repr(float(value))
    return str(value)


def write_table(table: DataTable, path, missing_token="NA"):
    """Write a DataTable back to delimited text.

    Reals are rendered with round-trip-exact precision so reading the file
    back reproduces values and missing mask exactly.
    """
    names = table.column_names
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(table.nrows):
            writer.writerow([
                _render_cell(table.columns[n][i], table.kinds[n],
                             bool(table.missing[n][i]), missing_token)
                for n in names])
