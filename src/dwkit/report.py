"""Report emission: one JSON report, one text rendering, side files.

The JSON report is byte-identical across reruns on identical inputs (keys
sorted, no timestamps); the text rendering is produced from the same dict
so the two never disagree on a value.  Both come from one walk of the
report, in which each float is formatted once and its text serves both:
report.json holds the bytes of ``json.dumps(report, sort_keys=True,
indent=2)``, with lists of floats joined in C rather than by ``json``'s
pure-Python indented encoder.  (A dict with a key that is not a str,
which no report here holds, is left to ``json.dumps`` and formats its
floats a second time.)  A factor CSV formats each float of its
columns once, each distinct value once in a column of few, and joins its
rows in C.  Formatting floats dominates both (``float.__repr__`` is a
shortest round-trip conversion, hundreds of ns a value), so the work is
to format fewer of them.
"""
from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from .errors import DwkitError

# float.__repr__ of NaN and the infinities, which JSON cannot hold
_NON_FINITE = frozenset({"nan", "inf", "-inf"})


def _sanitize(value):
    """Coerce numpy scalars/arrays to plain Python for stable JSON."""
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()   # plain Python scalars, in nested lists
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _render(value, depth=0):
    """``value``'s text in report.json and its lines in report.txt, both
    ``depth`` levels in: a pair of strings, the lines joined.

    The JSON text is what ``json.dumps(value, sort_keys=True, indent=2)``
    writes nested that deep.  The lines list a dict's keys in insertion
    order and a list's items each after ``-``, a value that is a nonempty
    dict or list on the lines under its key or dash, an empty one as
    ``(none)``.  Each float is formatted once, by ``float.__repr__`` as
    ``json`` does, and its text serves both.  A list of floats only, such
    as a row of loadings, is joined in C.  A dict with a key that is not a
    str is a compatibility path that no report of this package takes: it
    is encoded whole by ``json.dumps``, which makes the key a str, so its
    floats are formatted again there.  ValueError on NaN or infinity."""
    pad = "  " * depth
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}", ""
        texts, lines = {}, []
        for key, v in value.items():
            texts[key], text = _render(v, depth + 1)
            if not isinstance(v, (dict, list)):
                lines.append(f"{pad}{key}: {text}")
            elif v:
                lines += (f"{pad}{key}:", text)
            else:
                lines.append(f"{pad}{key}: (none)")
        if {*map(type, value)} == {str}:
            encode = json.encoder.encode_basestring_ascii
            body = sep.join([f"{encode(key)}: {texts[key]}"
                             for key in sorted(texts)])
            text = "{\n" + inner + body + "\n" + pad + "}"
        else:
            text = json.dumps(value, sort_keys=True, indent=2,
                              allow_nan=False).replace("\n", "\n" + pad)
        return text, "\n".join(lines)
    if isinstance(value, list):
        if not value:
            return "[]", ""
        if {*map(type, value)} == {float}:
            texts = list(map(float.__repr__, value))
            if not _NON_FINITE.isdisjoint(texts):
                raise ValueError("a float that is not finite")
            body = sep.join(texts)
            block = f"{pad}- " + f"\n{pad}- ".join(texts)
        else:
            texts, lines = [], []
            for v in value:
                json_text, text = _render(v, depth + 1)
                texts.append(json_text)
                if not isinstance(v, (dict, list)):
                    lines.append(f"{pad}- {text}")
                elif v:
                    lines += (f"{pad}-", text)
                else:
                    lines.append(f"{pad}-")
            body = sep.join(texts)
            block = "\n".join(lines)
        return "[\n" + inner + body + "\n" + pad + "]", block
    if type(value) is float:
        text = float.__repr__(value)
        if text in _NON_FINITE:
            raise ValueError("a float that is not finite")
        return text, text
    if type(value) is str:
        return json.encoder.encode_basestring_ascii(value), value
    return json.dumps(value, allow_nan=False), str(value)


def _non_finite(value, path):
    """(path, value) of the first NaN or infinity in ``value``, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (path, value)
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return None
    for key, v in items:
        found = _non_finite(v, f"{path}.{key}")
        if found:
            return found
    return None


def emit_report(report: dict, outdir) -> dict:
    """Write report.json and report.txt; returns the written paths.

    JSON has no NaN or infinity (RFC 8259), so a report holding one is a
    DwkitError that names it, raised before anything is written.
    """
    report = _sanitize(report)
    try:
        json_text, txt_text = _render(report)
    except ValueError:
        path, value = _non_finite(report, "report")
        raise DwkitError(f"{path} is {value}, which report.json cannot "
                         f"hold") from None
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
