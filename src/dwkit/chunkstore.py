"""Chunk-based datastore over delimited text files.

A datastore iterates a collection of comma-delimited files in bounded-size
row chunks.  ``read_chunks`` holds one chunk's columns at a time;
``read_all`` holds the whole table.  ``iter_file_chunks`` also gives the
offset at which each chunk starts, so ``read_chunk`` can re-read any one
chunk by seeking to it instead of re-scanning its file.
``parse_value`` defines a valid cell.  A column's kind is the narrowest
of integer and real whose cells it accepts across a sample, or text.
Integer columns are int64 and real columns float64; a missing cell
(configured tokens, default ``NA``) is marked in the mask and holds 0 in
an integer column, NaN in a real one and None in a text one.

A chunk is tokenized and built in batches of ``_BATCH_RECORDS`` records:
each batch's columns are parsed and checked, its lines or row lists
dropped, and the next batch read; each built column's parts are joined
once the chunk ends.  So a read holds one batch's lines or row lists plus
one chunk's columns, whatever the chunk size.

Each record is tokenized once per datastore.  ``open_datastore`` infers
the kinds of the columns its reads may build, by default all, from the
first chunk of the first file holding data rows, a batch at a time:
kinds only widen (integer, then real, then text), and a batch whose every
cell of a column is missing is no evidence, so the kinds are those of the
whole chunk.  A batch's column is parsed at the column's kind so far
whenever its cells fit that kind.  It keeps that chunk's columns and the
file position after it: the first read takes chunk 0 from them and reads
on from there, and any later read goes back to the file.  A chunk 0 with
a record of another width, or with a column that a later batch widened
past the kind an earlier batch was parsed as, is not kept.

A read parses only the columns it builds, and checks the width of every
record: one of more or fewer fields than the header is a fault at its
row.  The fault named is the one a whole-chunk build meets first, column
by column, with rows counted from the chunk's first record: a malformed
cell of a built column, or a short record at its first absent column, and
after the last column a long record.  Without these, ``_table``, which
joins every read's columns, names the first infinite cell (``inf``,
``1e400``) of a real column the same way; a missing token is never one.

Numeric columns are parsed a batch column at a time, for inference and
for building tables alike: the missing tokens are dropped, one regular
expression checks that every other token is a plain ASCII number, and one
``np.array`` call converts them all with Python's own ``int``/``float``.
A column that fails either step (quoted or padded cells, Unicode digits,
``1_000``, integers past int64, malformed cells) is parsed cell by cell
with ``parse_value``, which gives the same values and names the first
malformed cell with its file, chunk, row and column, its row counted
from the chunk's first record.  A text column goes through
``parse_value`` once per distinct token.

Each batch is first read as raw lines, and the input selects one of
three paths, for every batch of every chunk, a chunk's first and chunk 0
read again included.  Lines are unquoted when each is one record of as
many fields as the header: their text holds no ``"``, no NUL and no
``\\r`` but in a ``\\r\\n`` line end, every line has one comma fewer than
the header has fields, and no line is blank or longer than the csv field
limit.

- Quoted input, a batch whose lines are not unquoted, is tokenized by
  ``csv.reader``, which reads on past its lines where a quoted field
  holds a newline.
- Unquoted input is split into its columns by one ``str.split`` of the
  batch's text at commas and line ends, which gives the fields
  ``csv.reader`` gives.
- Unquoted input is parsed by one ``np.loadtxt`` call per batch, every
  batch of chunk 0 included, unless ``float`` reads a missing token that
  occurs in its text as a number other than NaN (``-999``, or ``inf``,
  whose padded `` inf`` would parse as infinity): its structured dtype
  holds each column at its kind, int64, float64 or a text column's
  tokens, which then go through ``parse_value`` as above.  Where a
  missing token occurs, each real column has a converter, the
  ``__getitem__`` of a dict that loadtxt calls from C: NaN for a cell
  equal to a missing token that is its own stripped, unquoted form, and
  ``float`` of any other cell, which refuses a padded or quoted missing
  cell; a NaN cell of a real column is missing.  A missing cell of an
  integer column is one loadtxt refuses.  A column of chunk 0 of no kind
  yet takes the kind its first cell in the batch that is not such a
  missing token guesses, or its first record's cell where it has none.
  A batch loadtxt refuses, warns on (numpy 1.x reads ``1.0`` as an
  integer with a warning) or shortens by a line it skips, or whose guess
  fails, is split instead.

The columns of a split or tokenized batch are parsed as above, so every
fault is named as above and a column widens as above; loadtxt gives the
same values.
"""
from __future__ import annotations

import csv
import math
import os
import re
import warnings
from dataclasses import dataclass, field
from itertools import chain, filterfalse, islice
from operator import itemgetter

import numpy as np

from .errors import (DwkitError, InconsistentHeaderError,
                     InfiniteValueError, MalformedValueError,
                     MissingFileError, RecordWidthError)

DEFAULT_MISSING_TOKENS = ("NA",)
_INT_RE = re.compile(r"^[+-]?\d+$")
_PLAIN_INTEGER = re.compile(r"[-+0-9\n]*")
_PLAIN_REAL = re.compile(r"[-+0-9.eE\n]*")
_INT64 = np.iinfo(np.int64)
_BATCH_RECORDS = 2048   # records tokenized and parsed at a time
_KINDS = ("integer", "real", "text")   # narrowest first
_DTYPES = {"integer": np.int64, "real": np.float64, "text": object}
# every byte but a comma and a line feed, which UTF-8 encodes as
# themselves and as part of no other character
_NOT_COMMA_OR_LF = bytes(sorted(set(range(256)) - set(b",\n")))


def strip_quotes(token: str) -> str:
    """Remove one pair of surrounding single or double quotes."""
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "'\"":
        return token[1:-1]
    return token


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str | None   # integer | real | text; None: no read builds it


@dataclass(frozen=True)
class Datastore:
    sources: tuple[str, ...]
    schema: tuple[ColumnSpec, ...]
    missing_tokens: frozenset[str]
    chunk_size: int
    # the chunk open_datastore read, until the first read takes it
    _first: list = field(default_factory=list, init=False, repr=False,
                         compare=False)

    def column_names(self):
        return [c.name for c in self.schema]


@dataclass
class _FirstChunk:
    """The chunk ``open_datastore`` read, as ``_table`` parts, with its
    row count, the index of its file and the file positions of its first
    record and of the next one."""
    parts: dict
    nrows: int
    file_index: int
    offset: int
    end: int


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


def _drop_set(missing_tokens):
    """The missing tokens that are their own stripped, unquoted form: a
    raw cell equal to one is missing to ``parse_value``."""
    return {t for t in missing_tokens if strip_quotes(t.strip()) == t}


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
    drop = _drop_set(missing_tokens)
    # list membership compares strings; a set test would hash every token
    if not any(t in tokens for t in drop):
        present, mask = tokens, np.zeros(len(tokens), dtype=bool)
    else:
        present = list(filterfalse(drop.__contains__, tokens))
        mask = np.fromiter(map(drop.__contains__, tokens), bool, len(tokens))
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


def _infer_column(tokens, missing_tokens, no_evidence="text"):
    """(kind, values, mask): the narrowest of integer and real whose
    ``parse_value`` accepts every token, or text.  A sample whose every
    cell is missing gives no evidence: its kind is ``no_evidence``, by
    default text, the widest kind.  The values and mask are
    ``_parse_plain``'s when it took the column, else None."""
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
            return no_evidence, None, None
        return kind, None, None
    return "text", None, None


def _read_rows(reader, n, context):
    """The next ``n`` records of ``reader``, or lines of a line iterator.
    A record the csv module refuses (a field past its size limit) is a
    one-line DwkitError."""
    try:
        return list(islice(reader, n))
    except csv.Error as exc:
        raise DwkitError(f"{context}: {exc}") from None


class _Lines(list):
    """A batch of raw lines that ``_unquoted`` passed: each line is one
    record."""


def _unquoted(lines, ncols):
    """Whether every line is one record of ``ncols`` unquoted fields:
    their text holds no ``"``, no NUL and no ``\\r`` but in a ``\\r\\n``
    line end, every line has ``ncols - 1`` commas, and no line is blank or
    longer than the csv field limit.  Such lines split at their commas and
    line ends into the fields ``csv.reader`` gives."""
    text = "".join(lines)
    limit = csv.field_size_limit()
    if ('"' in text or "\0" in text
            or len(text) > limit and max(map(len, lines)) > limit
            # a blank line is a record of no field, but one empty field
            # of the split; with more columns it fails the comma count
            or ncols == 1 and ("\n" in lines or "\r\n" in lines)):
        return False
    # the text's commas and line feeds, in order: ncols - 1 commas and a
    # line feed per line, but for a last line without one.  Counted per
    # line, as a batch total would let a long line hide a short one, whose
    # record must fail.  As readline ends a line only at a line feed or a
    # \r, every line but the last then ends at its line feed, and the
    # lines hold a lone \r, which ends a line but no field of the split,
    # only when the text ends with one.
    shape = text.encode("utf-8", "surrogatepass").translate(
        None, _NOT_COMMA_OR_LF)
    want = (b"," * (ncols - 1) + b"\n") * len(lines)
    if text.endswith("\n"):
        return shape == want
    return shape == want[:-1] and not text.endswith("\r")


def _read_batch(lines, n, context, ncols):
    """The next ``n`` records of the line iterator ``lines``: their
    ``_Lines`` when the lines pass ``_unquoted``, else a list of rows.
    Lines that do not pass are tokenized by ``csv.reader``, which reads on
    past them where a quoted field holds a newline."""
    got = _read_rows(lines, n, context)
    if got and _unquoted(got, ncols):
        return _Lines(got)
    return _read_rows(csv.reader(chain(got, lines)), n, context)


def _read_batches(lines, n, context, ncols, rows=None):
    """The next ``n`` records of the line iterator ``lines`` in
    ``_read_batch`` batches of at most ``_BATCH_RECORDS`` records, each
    read once the one before is taken; ``rows`` is the first, when it is
    already read."""
    if rows is None:
        rows = _read_batch(lines, min(n, _BATCH_RECORDS), context, ncols)
    while rows:
        n -= len(rows)
        yield rows
        del rows   # the consumer's now: not held while the next is read
        rows = _read_batch(lines, min(n, _BATCH_RECORDS), context, ncols)


def _split_columns(lines, ncols, js):
    """The token lists of columns ``js`` of a batch of ``_Lines``, sliced
    one at a time from one split of their text at commas and line ends."""
    # one expression, so that each copy of the text is dropped as soon as
    # the next is made; each \r is one of a \r\n
    flat = "".join(lines).replace("\r", "").replace("\n", ",").split(",")
    stop = len(lines) * ncols   # before the field after a last line end
    return (flat[j:stop:ncols] for j in js)


def _columns(batch, ncols, js):
    """The token lists of a batch's columns ``js``, one at a time: split
    from ``_Lines``, or taken from csv rows, where a column past a short
    record holds the cells of the records that reach it."""
    if isinstance(batch, _Lines):
        return _split_columns(batch, ncols, js)
    width = min(map(len, batch))
    return (list(map(itemgetter(j), batch)) if j < width
            else [row[j] for row in batch if j < len(row)] for j in js)


def _read_header(path):
    # a leading UTF-8 byte-order mark, as spreadsheets write, is not part
    # of the first name; data reads skip the header line, mark included
    with open(path, newline="", encoding="utf-8-sig") as fh:
        row = _read_rows(csv.reader(fh), 1, f"{path} header")
    if not row:
        raise InconsistentHeaderError(f"{path}: empty file, no header")
    return [strip_quotes(t.strip()) for t in row[0]]


class _NaNOrFloat(dict):
    """Maps each key, a missing token, to NaN, and any other cell to its
    ``float``.  The bound ``__getitem__`` is a converter that loadtxt
    calls from C: a dict hit, or ``float`` through ``__missing__``, with
    no Python frame.  A cell ``float`` refuses raises."""
    __missing__ = staticmethod(float)


def _reads_as_number(token):
    """Whether ``float`` reads ``token`` as a number other than NaN."""
    try:
        return not math.isnan(float(token))
    except ValueError:
        return False


def _parse_lines(lines, kinds, js, missing_tokens):
    """Columns ``js`` of a batch of ``_Lines``, each parsed at its kind in
    ``kinds`` by one ``np.loadtxt`` call, a field per column: j -> (values,
    mask) of a numeric column, or the tokens of a text column.  A NaN cell
    is missing, as ``parse_value`` has it.  When a missing token occurs in
    the text, a real column's cells go through a ``_NaNOrFloat``
    converter: NaN for a cell in ``_drop_set``, a cell ``parse_value``
    calls missing, else ``float``, which refuses any other missing cell
    (a padded or quoted one included); loadtxt refuses a missing cell of
    an integer column.  None when ``float`` reads a missing token in the
    text as a number other than NaN (loadtxt would read ``-999``, or
    `` inf`` with ``inf`` missing, as a number), or when loadtxt refuses a
    cell, warns or skips a line: the caller then splits the lines, which
    gives the same values or names the fault.  With ``encoding=None``,
    numpy 1.x hands the converter ``str`` cells, as numpy 2 does."""
    if not js:
        return {}
    text = "".join(lines)
    # a one-character search is a memchr, far cheaper than a substring
    # search, and a token whose first character is absent is absent
    present = [t for t in missing_tokens if t[:1] in text and t in text]
    if any(map(_reads_as_number, present)):
        return None
    converters = {}
    if present:
        real = _NaNOrFloat.fromkeys(_drop_set(missing_tokens),
                                    math.nan).__getitem__
        converters = {j: real for j in js if kinds[j] == "real"}
    dtype = np.dtype([(str(j), _DTYPES[kinds[j]]) for j in js])
    try:
        with warnings.catch_warnings():
            # numpy 1.x parses 1.0 into an integer with only a warning
            warnings.simplefilter("error")
            got = np.loadtxt(lines, dtype, delimiter=",", comments=None,
                             quotechar=None, usecols=js, ndmin=1,
                             converters=converters, encoding=None)
    except (ValueError, OverflowError, Warning):
        return None
    if len(got) != len(lines):   # loadtxt skips blank lines
        return None
    out = {}
    for j in js:
        if kinds[j] == "text":
            out[j] = got[str(j)].tolist()
            continue
        # a field of the records, copied as the csv path builds it
        values = np.ascontiguousarray(got[str(j)])
        mask = np.isnan(values)   # no cell of an integer column
        if kinds[j] == "real":
            values[mask] = np.nan   # one NaN, whatever sign or payload
        out[j] = values, mask
    return out


def _guess_kinds(lines, kinds, js, missing_tokens):
    """``kinds`` with each None of columns ``js`` replaced by the kind its
    column's first cell in ``lines`` not in ``_drop_set`` guesses: its
    ``_plain_kind``, or text.  Lines are split only while such a column is
    left; a column with no such cell guesses from the first line's."""
    drop = _drop_set(missing_tokens)
    guess = list(kinds)
    left = [j for j in js if kinds[j] is None]
    first = lines[0].rstrip("\r\n").split(",")
    for line in lines:
        if not left:
            break
        cells = line.rstrip("\r\n").split(",")
        for j in [j for j in left if cells[j] not in drop]:
            guess[j] = _plain_kind([cells[j]]) or "text"
            left.remove(j)
    for j in left:
        guess[j] = _plain_kind([first[j]]) or "text"
    return guess


def _infer_batch(rows, kinds, js, missing_tokens):
    """Columns ``js`` of one batch of chunk 0, given the kinds so far in
    ``kinds``, None where a column has none yet: j -> (kind, values,
    mask).  The kind is the kind so far when the cells fit it, else the
    narrowest kind that fits them, or None for no evidence.  Each column
    is parsed at that kind, as ``_build_chunk`` parses it, with values of
    None for no evidence and a mask all True.

    ``_Lines`` go through ``_parse_lines``, a column of no kind yet at the
    kind ``_guess_kinds`` gives it from one cell; where that declines, or
    a text guess is one ``_infer_column`` turns down (the cells are
    numbers, or all missing and so no evidence), the batch is split."""
    if isinstance(rows, _Lines):
        guess = _guess_kinds(rows, kinds, js, missing_tokens)
        got = _parse_lines(rows, guess, js, missing_tokens)
        if got is not None and all(
                _infer_column(got[j], missing_tokens, None)[0] == "text"
                for j in js if kinds[j] is None and guess[j] == "text"):
            return {j: (guess[j], *_parse_text(got[j], missing_tokens))
                    if guess[j] == "text" else (guess[j], *got[j])
                    for j in js}
    out = {}
    for j, tokens in zip(js, _columns(rows, len(kinds), js)):
        kind, values, mask = _infer_column(tokens, missing_tokens, None)
        if kinds[j] and (kind is None or
                         _KINDS.index(kind) < _KINDS.index(kinds[j])):
            kind, values = kinds[j], None   # the cells fit the kind so far
        if kind is None:
            mask = np.ones(len(tokens), dtype=bool)
        elif values is None:
            values, mask = _parse_column(tokens, ColumnSpec("", kind),
                                         missing_tokens, "")
        out[j] = kind, values, mask
    return out


def open_datastore(paths, chunk_size=10000, treat_as_missing=(),
                   columns=None) -> Datastore:
    """Open one or more delimited files as a single datastore.

    ``treat_as_missing`` extends the default missing tokens.  ``columns``
    names the columns any read of the datastore may build (default: all).
    Only those are inferred, parsed and kept, and a read that asks for
    another is an error; every other column has kind None and is checked
    only for width, as every record is.
    """
    if isinstance(paths, (str, os.PathLike)):
        paths = [paths]
    paths = [str(p) for p in paths]
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    for p in paths:   # every input opens before any is read
        try:
            open(p).close()
        except OSError as exc:
            raise MissingFileError("input", p, exc) from None
    tokens = frozenset(DEFAULT_MISSING_TOKENS) | frozenset(treat_as_missing)

    header = _read_header(paths[0])
    for p in paths[1:]:
        if _read_header(p) != header:
            raise InconsistentHeaderError(
                f"{p}: header differs from {paths[0]}")

    # infer from the first chunk of the first file holding data rows, a
    # batch at a time, and keep its columns for the first read; a repeated
    # name takes its last column, as a dict of columns would
    ncols = len(header)
    last = {name: j for j, name in enumerate(header)}
    js = sorted(j for name, j in last.items()
                if columns is None or name in columns)
    kinds = [None] * ncols
    parts = {j: [] for j in js}
    nrows, kept = 0, True
    for fi, p in enumerate(paths):
        with open(p, newline="") as fh:
            lines = iter(fh.readline, "")
            next(csv.reader(lines))   # header
            offset = fh.tell()
            context = f"{p} chunk 0"
            for rows in _read_batches(lines, chunk_size, context, ncols):
                if (not isinstance(rows, _Lines)
                        and any(len(row) != ncols for row in rows)):
                    kept, parts = False, {}   # a record of another width
                batch = _infer_batch(rows, kinds, js, tokens)
                # a kept column widened past the kind its earlier batches
                # were parsed at: an integer batch cannot be widened to
                # real in place, as -0 is 0 but -0.0
                if any(kinds[j] not in (None, batch[j][0]) for j in parts):
                    kept, parts = False, {}
                for j in js:
                    kinds[j] = batch[j][0]
                for j, part in parts.items():
                    part.append(batch[j][1:])
                nrows += len(rows)
                del rows, batch   # before the next batch is read
            if nrows:
                position = fi, offset, fh.tell()
                break
    # without data rows, a column is text
    schema = tuple(ColumnSpec(n, kinds[last[n]] or "text" if last[n] in js
                              else None) for n in header)
    ds = Datastore(sources=tuple(paths), schema=schema,
                   missing_tokens=tokens, chunk_size=chunk_size)
    if nrows and kept:
        ds._first.append(_FirstChunk(parts, nrows, *position))
    return ds


def _parse_cells(tokens, spec, missing_tokens, context, row0=0):
    """Parse a column cell by cell with ``parse_value``; names the first
    malformed cell, by its row, ``row0`` for the first token."""
    n = len(tokens)
    mask = np.zeros(n, dtype=bool)
    vals = _empty_column(spec.kind, n)
    for i, token in enumerate(tokens):
        try:
            v = parse_value(token, spec.kind, missing_tokens)
        except MalformedValueError as exc:
            raise MalformedValueError(
                token, spec.kind,
                f"{context} row {row0 + i} column {spec.name!r}") from exc
        if v is None or (isinstance(v, float) and math.isnan(v)):
            mask[i] = True
        else:
            vals[i] = v
    return vals, mask


def _parse_text(tokens, missing_tokens):
    """(values, mask) of a text column.  A text cell's value depends on
    its token alone, so each distinct token is parsed once."""
    parsed = {t: parse_value(t, "text", missing_tokens) for t in set(tokens)}
    values = np.empty(len(tokens), dtype=object)
    values[:] = list(map(parsed.__getitem__, tokens))
    return values, np.equal(values, None)


def _parse_column(tokens, spec, missing_tokens, context, row0=0):
    """(values, mask) of a column of tokens of kind ``spec.kind``: a
    numeric one by ``_parse_plain`` in one numpy call, or cell by cell
    where it declines, rows counted from ``row0``."""
    if spec.kind == "text":
        return _parse_text(tokens, missing_tokens)
    got = _parse_plain(tokens, spec.kind, missing_tokens)
    return got[1:] if got else _parse_cells(tokens, spec, missing_tokens,
                                            context, row0)


def _join(parts, kind):
    """One column from its batches' (values, mask) parts, where values of
    None stand for a batch of missing cells."""
    parts = [(_empty_column(kind, len(mask)) if values is None else values,
              mask) for values, mask in parts]
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return _empty_column(kind, 0), np.zeros(0, dtype=bool)
    return (np.concatenate([v for v, _ in parts]),
            np.concatenate([m for _, m in parts]))


def _built(schema, columns):
    """The positions of the columns a read builds, a name's last: those
    named in ``columns``, by default every column the datastore inferred.
    No read builds a column it did not infer."""
    last = {spec.name: j for j, spec in enumerate(schema)
            if spec.kind is not None}
    outside = set(columns or ()) - set(last)
    if outside:
        raise ValueError(f"column(s) {sorted(outside)} are not among the "
                         f"columns the datastore was opened with")
    return sorted(j for name, j in last.items()
                  if columns is None or name in columns)


def _build_chunk(batches, schema, missing_tokens, context="", columns=None):
    """A table of the columns a read builds (``_built``) from a chunk's
    records, given in batches of ``_Lines`` or of rows.  Only those
    columns are parsed, and every record's width is checked.  Each batch
    is parsed before the next is read, and each column's parts are joined
    at the end.  After a fault the rest of the chunk is still read and
    checked before the faulty column, so the fault raised is the first in
    column order, then row order: a short record is a fault at its first
    absent column, above which the column's cells are checked first, and
    a long record one after the last column."""
    js = _built(schema, columns)
    parts = {j: [] for j in js}
    ncols, kinds = len(schema), [spec.kind for spec in schema]
    limit, fault, row0 = ncols + 1, None, 0   # columns before limit checked
    for rows in batches:
        use = [j for j in js if j < limit]
        if isinstance(rows, _Lines):
            got = _parse_lines(rows, kinds, use, missing_tokens)
            if got is not None:
                for j, part in parts.items():
                    part.append(got[j] if kinds[j] != "text" else
                                _parse_text(got[j], missing_tokens))
                row0 += len(rows)
                del rows, got   # before the next batch is read
                continue
        # a record's faulty column: first absent, ncols if long, else ncols + 1
        width = (np.full(1, ncols) if isinstance(rows, _Lines)
                 else np.fromiter(map(len, rows), int, len(rows)))
        key = np.minimum(width, ncols) + (width == ncols)
        bad, i = int(key.min()), int(key.argmin())
        cols = [j for j in use if j < bad]
        try:
            for j, tokens in zip(cols, _columns(rows, ncols, cols)):
                got = _parse_column(tokens, schema[j], missing_tokens,
                                    context, row0)
                if j in parts:
                    parts[j].append(got)
            j = bad
            if bad < limit:
                if bad in use:   # the column's cells above it come first
                    _parse_column([row[bad] for row in rows[:i]],
                                  schema[bad], missing_tokens, context, row0)
                raise RecordWidthError(f"{context} row {row0 + i}",
                                       len(rows[i]), ncols)
        except MalformedValueError as exc:
            limit, fault, parts = j, exc, {}
        row0 += len(rows)
        del rows   # before the next batch is read
    if fault is not None:
        raise fault
    return _table(parts, schema, row0, context)


def _table(parts, schema, nrows, context):
    """The table of ``nrows`` rows of the columns ``parts`` holds: j ->
    the (values, mask) parts of column ``schema[j]``, joined.  Refuses
    the first infinite cell of a real column, named with ``context``."""
    table, missing, kinds = {}, {}, {}
    for j, got in parts.items():
        spec = schema[j]
        table[spec.name], missing[spec.name] = _join(got, spec.kind)
        if spec.kind == "real" and np.isinf(table[spec.name]).any():
            row = np.isinf(table[spec.name]).argmax()
            raise InfiniteValueError(f"{context} row {row}", spec.name)
        kinds[spec.name] = spec.kind
    return DataTable(table, missing, kinds, nrows=nrows)


def _build_table(rows, schema, missing_tokens, context="", columns=None):
    """``_build_chunk`` of one list of rows."""
    return _build_chunk([rows] if rows else [], schema, missing_tokens,
                        context, columns)


def iter_file_chunks(ds: Datastore, file_index: int):
    """Yield (chunk_index, offset, rows) for one source file.

    ``offset`` is the file position (``tell``) of the chunk's first
    record, for ``read_chunk`` to seek to; for UTF-8 text it is the byte
    offset.  ``rows`` yields the chunk's records in lists of at most
    ``_BATCH_RECORDS``, tokenized as they are taken, and only until the
    next chunk is asked for: what is left of it then is read and dropped.
    ``csv.reader`` pulls whole lines only until a record is complete, so
    between chunks the file stands at a record boundary, quoted newlines
    included.  Lines are pulled with ``readline`` because iterating a text
    file disables ``tell``.  The chunk ``open_datastore`` kept is yielded
    from memory, as a ``_FirstChunk``, to the first call for its file,
    which then reads on from the record after it.
    """
    path = ds.sources[file_index]
    start, chunk_index = None, 0
    if ds._first and ds._first[0].file_index == file_index:
        first = ds._first.pop()
        start = first.end
        yield 0, first.offset, first
        chunk_index, first = 1, None   # the kept table is released
    with open(path, newline="") as fh:
        lines = iter(fh.readline, "")
        if start is None:
            next(csv.reader(lines))   # header
        else:
            fh.seek(start)
        while True:
            offset = fh.tell()
            context = f"{path} chunk {chunk_index}"
            rows = _read_batch(lines, min(ds.chunk_size, _BATCH_RECORDS),
                               context, len(ds.schema))
            if not rows:
                return
            batches = _read_batches(lines, ds.chunk_size, context,
                                    len(ds.schema), rows)
            del rows
            yield chunk_index, offset, batches
            while next(batches, None) is not None:
                pass   # the records the consumer left unread
            chunk_index += 1


def _read_chunk(ds, file_index, chunk_index, offset, columns, rows):
    """``read_chunk``, which ``read_chunks`` calls too.  Of the chunk
    ``open_datastore`` kept, only the columns asked for are joined."""
    context = f"{ds.sources[file_index]} chunk {chunk_index}"
    if isinstance(rows, _FirstChunk):
        return _table({j: rows.parts[j] for j in _built(ds.schema, columns)},
                      ds.schema, rows.nrows, context)
    if rows is not None:
        return _build_chunk(rows, ds.schema, ds.missing_tokens, context,
                            columns)
    with open(ds.sources[file_index], newline="") as fh:
        fh.seek(offset)
        return _build_chunk(
            _read_batches(fh, ds.chunk_size, context, len(ds.schema)),
            ds.schema, ds.missing_tokens, context, columns)


def read_chunk(ds: Datastore, file_index: int, chunk_index: int,
               offset: int, columns=None, rows=None) -> DataTable:
    """Build one chunk, the unit of task re-execution, from the ``rows``
    ``iter_file_chunks`` yielded for it, or without them by re-reading it
    from the offset it gave.  ``columns`` as for ``read_all``."""
    return _read_chunk(ds, file_index, chunk_index, offset, columns, rows)


def read_chunks(ds: Datastore, columns=None):
    """Yield DataTable chunks over all sources, in order.

    Chunks never span file boundaries, so every chunk is addressable as a
    (file, chunk index) pair for re-execution.  ``columns`` as for
    ``read_all``.
    """
    _built(ds.schema, columns)   # a refused read takes no chunk
    for fi in range(len(ds.sources)):
        for ci, offset, rows in iter_file_chunks(ds, fi):
            yield _read_chunk(ds, fi, ci, offset, columns, rows)


def read_all(ds: Datastore, columns=None) -> DataTable:
    """The whole datastore as one table of the columns named in
    ``columns``, by default every column ``open_datastore`` was asked for;
    a column it was not asked for is an error."""
    return concat_tables(list(read_chunks(ds, columns)) or
                         [_build_table([], ds.schema, ds.missing_tokens,
                                       columns=columns)])


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
