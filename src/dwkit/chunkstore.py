"""Chunk-based datastore over delimited text files.

A datastore iterates a collection of comma-delimited files in bounded-size
row chunks.  ``read_chunks`` holds one chunk's rows at a time; ``read_all``
holds the whole table.  One enumeration pass (``iter_file_chunks``) also
records the offset at which each chunk starts, so ``read_chunk`` re-reads
any one chunk by seeking to it instead of re-scanning its file.
Column types are inferred from a sample; configured missing tokens
(default ``NA``) become NaN in numeric columns.

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
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter

import numpy as np

from .errors import (InconsistentHeaderError, MalformedValueError,
                     MissingFileError)

KINDS = ("integer", "real", "text")
DEFAULT_MISSING_TOKENS = ("NA",)
_INT_RE = re.compile(r"^[+-]?\d+$")
_PLAIN_INTEGER = re.compile(r"[-+0-9\n]*")
_PLAIN_REAL = re.compile(r"[-+0-9.eE\n]*")


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

    def column_names(self):
        return [c.name for c in self.schema]


class DataTable:
    """Named typed columns of equal length with a per-cell missing mask.

    Numeric columns are numpy arrays; missing numeric cells hold NaN.
    Text columns are object arrays; missing text cells hold None.
    """

    def __init__(self, columns, missing, kinds):
        self.columns = columns
        self.missing = missing
        self.kinds = kinds
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ValueError("columns have unequal lengths")
        self.nrows = lengths.pop() if lengths else 0

    @property
    def column_names(self):
        return list(self.columns)

    def column(self, name, skip_missing=False):
        v = self.columns[name]
        if skip_missing:
            v = v[~self.missing[name]]
            if self.kinds[name] == "integer":   # stored as float64 if NaN
                v = v.astype(np.int64, copy=False)
        return v

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
    parseable.
    """
    token = strip_quotes(token.strip())
    if token in missing_tokens:
        return math.nan if kind in ("integer", "real") else None
    if kind == "integer":
        if not _INT_RE.match(token):
            raise MalformedValueError(token, kind)
        return int(token)
    if kind == "real":
        try:
            return float(token)
        except ValueError:
            raise MalformedValueError(token, kind) from None
    return token


def _is_missing(token, missing_tokens):
    return strip_quotes(token.strip()) in missing_tokens


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
    fits.  Returns (kind, float64 values with NaN at missing cells,
    missing mask), or None when a token is not plain for ``kind`` or
    ``int``/``float`` rejects it: the caller then parses cell by cell,
    which gives the same result or names the malformed cell.  Only
    missing tokens that are their own stripped, unquoted form are
    dropped here, so every dropped cell is one ``parse_value`` also
    calls missing.
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
        if kind == "integer":
            # through int64, as parse_value's ints stored in float64
            values = np.array(present, dtype=np.int64).astype(np.float64)
        else:
            values = np.array(present, dtype=np.float64)
    except (ValueError, OverflowError):
        return None
    if len(present) < len(tokens):
        full = np.full(len(tokens), np.nan)
        full[~mask] = values
        values = full
    return kind, values, mask


def _infer_kind(tokens, missing_tokens):
    # A plain integer column that fails its parse (past int64) is decided
    # cell by cell, not tried as real: _INT_RE still calls it integer.
    parsed = _parse_plain(tokens, None, missing_tokens)
    if parsed is not None:
        return parsed[0]
    present = [strip_quotes(t.strip()) for t in tokens
               if not _is_missing(t, missing_tokens)]
    if not present:
        return "text"   # an all-missing sample gives no evidence; widest kind
    if all(_INT_RE.match(t) for t in present):
        return "integer"
    try:
        for t in present:
            float(t)
        return "real"
    except ValueError:
        return "text"


def _column_tokens(rows, j):
    """Column ``j`` of ``rows``, or None if a row is too short for it."""
    try:
        return list(map(itemgetter(j), rows))
    except IndexError:
        return None


def _read_header(path):
    with open(path, newline="") as fh:
        try:
            row = next(csv.reader(fh))
        except StopIteration:
            raise InconsistentHeaderError(f"{path}: empty file, no header")
    return [strip_quotes(t.strip()) for t in row]


def open_datastore(paths, chunk_size=10000, treat_as_missing=(),
                   column_types=None) -> Datastore:
    """Open one or more delimited files as a single datastore.

    ``treat_as_missing`` extends the default missing tokens;
    ``column_types`` overrides inferred kinds per column name.
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

    # infer from the first chunk of the first file holding data rows
    sample = []
    for p in paths:
        with open(p, newline="") as fh:
            sample = list(islice(csv.reader(fh), 1, 1 + chunk_size))
        if sample:
            break
    kinds = {}
    for j, name in enumerate(header):
        col_tokens = _column_tokens(sample, j)
        if col_tokens is None:
            col_tokens = [row[j] for row in sample if j < len(row)]
        kinds[name] = _infer_kind(col_tokens, tokens)
    if column_types:
        for name, kind in column_types.items():
            if name not in kinds:
                raise ValueError(f"unknown column {name!r}")
            if kind not in KINDS:
                raise ValueError(f"unknown column kind {kind!r}")
            kinds[name] = kind
    schema = tuple(ColumnSpec(n, kinds[n]) for n in header)
    return Datastore(sources=tuple(paths), schema=schema,
                     missing_tokens=tokens, chunk_size=chunk_size)


def _parse_cells(rows, j, spec, missing_tokens, context):
    """Parse column ``j`` cell by cell with ``parse_value``; names the
    short record or malformed cell that stops it."""
    n = len(rows)
    mask = np.zeros(n, dtype=bool)
    if spec.kind == "text":
        vals = np.empty(n, dtype=object)
    else:
        vals = np.full(n, np.nan)
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
            if spec.kind != "text":
                vals[i] = np.nan
        else:
            vals[i] = v
    return vals, mask


def _build_table(rows, schema, missing_tokens, context=""):
    """Numeric columns are parsed whole by ``_parse_plain``; text
    columns, and numeric ones it declines, cell by cell."""
    columns, missing, kinds = {}, {}, {}
    for j, spec in enumerate(schema):
        parsed = None
        if spec.kind != "text":
            tokens = _column_tokens(rows, j)
            if tokens is not None:
                parsed = _parse_plain(tokens, spec.kind, missing_tokens)
        if parsed is None:
            vals, mask = _parse_cells(rows, j, spec, missing_tokens, context)
        else:
            _, vals, mask = parsed
        if spec.kind == "integer" and not mask.any():
            vals = vals.astype(np.int64)
        columns[spec.name] = vals
        missing[spec.name] = mask
        kinds[spec.name] = spec.kind
    return DataTable(columns, missing, kinds)


def iter_file_chunks(ds: Datastore, file_index: int):
    """Yield (chunk_index, offset, raw row list) for one source file.

    ``offset`` is the file position (``tell``) of the chunk's first
    record, for ``read_chunk`` to seek to; for UTF-8 text it is the byte
    offset.  ``csv.reader`` pulls whole lines only until a record is
    complete, so between chunks the file stands at a record boundary,
    quoted newlines included.  Lines are pulled with ``readline`` because
    iterating a text file disables ``tell``.
    """
    path = ds.sources[file_index]
    with open(path, newline="") as fh:
        reader = csv.reader(iter(fh.readline, ""))
        next(reader)   # header
        chunk_index = 0
        while True:
            offset = fh.tell()
            rows = list(islice(reader, ds.chunk_size))
            if not rows:
                return
            yield chunk_index, offset, rows
            chunk_index += 1


def read_chunk(ds: Datastore, file_index: int, chunk_index: int,
               offset: int) -> DataTable:
    """Re-read one chunk (the unit of task re-execution), starting at the
    offset ``iter_file_chunks`` gave for it."""
    path = ds.sources[file_index]
    with open(path, newline="") as fh:
        fh.seek(offset)
        rows = list(islice(csv.reader(fh), ds.chunk_size))
    return _build_table(rows, ds.schema, ds.missing_tokens,
                        context=f"{path} chunk {chunk_index}")


def read_chunks(ds: Datastore):
    """Yield DataTable chunks over all sources, in order.

    Chunks never span file boundaries, so every chunk is addressable as a
    (file, chunk index) pair for re-execution.
    """
    for fi in range(len(ds.sources)):
        for ci, _offset, rows in iter_file_chunks(ds, fi):
            yield _build_table(rows, ds.schema, ds.missing_tokens,
                               context=f"{ds.sources[fi]} chunk {ci}")


def read_all(ds: Datastore) -> DataTable:
    return concat_tables(list(read_chunks(ds)) or
                         [_build_table([], ds.schema, ds.missing_tokens)])


def preview(ds: Datastore, n=8) -> DataTable:
    """First min(n, total) rows; does not consume any iteration state."""
    rows = []
    for fi, path in enumerate(ds.sources):
        if len(rows) >= n:
            break
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            rows.extend(islice(reader, n - len(rows)))
    return _build_table(rows, ds.schema, ds.missing_tokens, context="preview")


def concat_tables(tables) -> DataTable:
    if not tables:
        raise ValueError("no tables to concatenate")
    first = tables[0]
    columns, missing = {}, {}
    for name in first.columns:
        parts = [t.columns[name] for t in tables]
        if first.kinds[name] == "integer" and any(
                p.dtype != np.int64 for p in parts):
            parts = [p.astype(float) for p in parts]
        columns[name] = np.concatenate(parts)
        missing[name] = np.concatenate([t.missing[name] for t in tables])
    return DataTable(columns, missing, dict(first.kinds))


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
