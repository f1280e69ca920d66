"""Report emission: one JSON report, one text rendering, side files.

The JSON report is byte-identical across reruns on identical inputs (keys
sorted, no timestamps); the text rendering is produced from the same dict
so the two never disagree on a value.  Both come from one walk of the
report, the only place where its values become JSON values: a numpy array
or scalar is converted to plain Python where the walk meets it, a tuple is
written as a list, and each float is formatted once and its text serves
both.  report.json holds the bytes of ``json.dumps(report,
sort_keys=True, indent=2)`` for a report whose keys are all str, with
lists of floats joined in C rather than by ``json``'s pure-Python
indented encoder.  A factor CSV formats each float of its columns once,
each distinct value once in a column of few, and joins its rows in C.
Formatting floats dominates both (``float.__repr__`` is a shortest
round-trip conversion, hundreds of ns a value), so the work is to format
fewer of them.
"""
from __future__ import annotations

import csv
import json
import os

import numpy as np

from .errors import DwkitError

# float.__repr__ of NaN and the infinities, which JSON cannot hold
_NON_FINITE = frozenset({"nan", "inf", "-inf"})


class _NonFinite(Exception):
    """A NaN or an infinity that ``_render`` met, and the keys and indices
    of its place in the report, innermost first: each dict and list adds
    its own as the exception passes through it."""

    def __init__(self, value, *path):
        self.value, self.path = value, list(path)


def _render(value, depth=0):
    """``value``'s text in report.json and its lines in report.txt, both
    ``depth`` levels in: a pair of strings, the lines joined.

    A numpy array becomes its nested lists, a numpy scalar its Python
    value and a tuple a list, here where the walk meets them.  The JSON
    text is what ``json.dumps(value, sort_keys=True, indent=2)`` writes
    nested that deep; every dict key must be a str.  The lines list a
    dict's keys in insertion order and a list's items each after ``-``, a
    value that is a nonempty dict or list on the lines under its key or
    dash, an empty one as ``(none)``.  Each float is formatted once, by
    ``float.__repr__`` as ``json`` does, and its text serves both.  A list
    of floats only, such as a row of loadings, is joined in C.
    ``_NonFinite`` on NaN or infinity."""
    if isinstance(value, np.ndarray):
        value = value.tolist()   # plain Python scalars, in nested lists
    elif isinstance(value, np.generic):
        value = value.item()
    elif isinstance(value, tuple):
        value = list(value)
    pad = "  " * depth
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}", ""
        texts, lines = {}, []
        try:
            for key, v in value.items():
                texts[key], text = _render(v, depth + 1)
                # the layout follows the converted value, which only a
                # dict or a list writes as JSON text opening with { or [
                if texts[key][0] not in "{[":
                    lines.append(f"{pad}{key}: {text}")
                elif text:
                    lines += (f"{pad}{key}:", text)
                else:
                    lines.append(f"{pad}{key}: (none)")
        except _NonFinite as exc:
            exc.path.append(key)
            raise
        encode = json.encoder.encode_basestring_ascii
        body = sep.join([f"{encode(key)}: {texts[key]}"
                         for key in sorted(texts)])
        return "{\n" + inner + body + "\n" + pad + "}", "\n".join(lines)
    if isinstance(value, list):
        if not value:
            return "[]", ""
        if {*map(type, value)} == {float}:
            texts = list(map(float.__repr__, value))
            if not _NON_FINITE.isdisjoint(texts):
                i = next(i for i, text in enumerate(texts)
                         if text in _NON_FINITE)
                raise _NonFinite(value[i], i)
            body = sep.join(texts)
            block = f"{pad}- " + f"\n{pad}- ".join(texts)
        else:
            texts, lines = [], []
            try:
                for i, v in enumerate(value):
                    json_text, text = _render(v, depth + 1)
                    texts.append(json_text)
                    if json_text[0] not in "{[":
                        lines.append(f"{pad}- {text}")
                    elif text:
                        lines += (f"{pad}-", text)
                    else:
                        lines.append(f"{pad}-")
            except _NonFinite as exc:
                exc.path.append(i)
                raise
            body = sep.join(texts)
            block = "\n".join(lines)
        return "[\n" + inner + body + "\n" + pad + "]", block
    if type(value) is float:
        text = float.__repr__(value)
        if text in _NON_FINITE:
            raise _NonFinite(value)
        return text, text
    if type(value) is str:
        return json.encoder.encode_basestring_ascii(value), value
    return json.dumps(value, allow_nan=False), str(value)


def emit_report(report: dict, outdir) -> dict:
    """Write report.json and report.txt; returns the written paths.

    JSON has no NaN or infinity (RFC 8259), so a report holding one is a
    DwkitError that names it, raised before anything is written.
    """
    try:
        json_text, txt_text = _render(report)
    except _NonFinite as exc:
        path = "".join(f".{key}" for key in reversed(exc.path))
        raise DwkitError(f"report{path} is {exc.value}, which report.json "
                         f"cannot hold") from None
    os.makedirs(outdir, exist_ok=True)
    json_path = os.path.join(outdir, "report.json")
    txt_path = os.path.join(outdir, "report.txt")
    with open(json_path, "w") as fh:
        fh.write(json_text + "\n")
    with open(txt_path, "w") as fh:
        fh.write(txt_text + "\n")
    return {"json": json_path, "txt": txt_path}


def write_csv(path, header, columns):
    """Write ``header`` and the data rows of ``columns``: each a float
    array, formatted here by ``float_texts``, or a list of texts, written
    as they are.  The header goes through ``csv.writer``, so a name holding
    a comma or a quote is quoted; the cells, numbers that need no quoting,
    are joined into ``\r\n``-ended lines in C."""
    columns = [float_texts(col) if isinstance(col, np.ndarray) else col
               for col in columns]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        if len(columns[0]):
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def float_texts(values):
    """``repr`` of each float in the 1-D array ``values``, as a list.

    A column whose first values repeat, such as a 0/1 flag or its fitted
    line, has each distinct value formatted once and its texts picked by
    index.  Values are told apart by their bits, since ``0.0 == -0.0``
    but their texts differ.  Any other column is formatted directly: on a
    column of 1e4 distinct values the table's sort and take cost about
    0.5 ms more (6.3 against 5.8 ms on a 2-vCPU VM), and over the 22
    columns of a warehouse-fit ``regress`` the direct path took 76
    against 86 ms at the minimum of 60 alternating rounds."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    head = values[:64].tolist()
    if len(set(head)) == len(head):
        return list(map(float.__repr__, values.tolist()))
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    texts = list(map(float.__repr__, bits.view(np.float64).tolist()))
    return np.array(texts, dtype=object)[where].tolist()
