"""Chunk-based datastore over delimited text files.

A datastore iterates a collection of comma-delimited files in bounded-size
row chunks.  ``read_chunks`` holds one chunk's rows at a time; ``read_all``
holds the whole table.  One enumeration pass (``iter_file_chunks``) also
records the offset at which each chunk starts, so ``read_chunk`` re-reads
any one chunk by seeking to it instead of re-scanning its file.
Column types are inferred from a sample; configured missing tokens
(default ``NA``) become NaN in numeric columns.
"""
from __future__ import annotations

import csv
import math
import os
import re
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import (InconsistentHeaderError, MalformedValueError,
                     MissingFileError)

KINDS = ("integer", "real", "text")
DEFAULT_MISSING_TOKENS = ("NA",)
_INT_RE = re.compile(r"^[+-]?\d+$")


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


def _infer_kind(tokens, missing_tokens):
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


def _read_header(path):
    with open(path, newline="") as fh:
        try:
            row = next(csv.reader(fh))
        except StopIteration:
            raise InconsistentHeaderError(f"{path}: empty file, no header")
    return [strip_quotes(t.strip()) for t in row]


def open_datastore(paths, chunk_size=10000, missing_tokens=None,
                   treat_as_missing=(), column_types=None) -> Datastore:
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
    if missing_tokens is None:
        missing_tokens = DEFAULT_MISSING_TOKENS
    tokens = frozenset(missing_tokens) | frozenset(treat_as_missing)

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


def _build_table(rows, schema, missing_tokens, context=""):
    columns, missing, kinds = {}, {}, {}
    n = len(rows)
    for j, spec in enumerate(schema):
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
