"""Report emission: one JSON report, one text rendering, side files.

The JSON report is byte-identical across reruns on identical inputs (keys
sorted, no timestamps); the text rendering is produced from the same dict
so the two never disagree on a value.
"""
from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from .errors import DwkitError


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


def _render(value, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key in value:
            v = value[key]
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{key}:")
                lines.extend(_render(v, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render(v, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(v)}")
    else:
        lines.append(f"{pad}{_scalar(value)}")
    return lines


def _scalar(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, dict)) and not v:
        return "(none)"
    return str(v)


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
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        path, value = _non_finite(report, "report")
        raise DwkitError(f"{path} is {value}, which report.json cannot "
                         f"hold") from None
    os.makedirs(outdir, exist_ok=True)
    json_path = os.path.join(outdir, "report.json")
    txt_path = os.path.join(outdir, "report.txt")
    with open(json_path, "w") as fh:
        fh.write(text + "\n")
    with open(txt_path, "w") as fh:
        fh.write("\n".join(_render(report)) + "\n")
    return {"json": json_path, "txt": txt_path}


def write_csv(path, header, columns):
    """Write ``header`` and the data rows of ``columns``, cells already
    rendered as text.  The header goes through ``csv.writer``, so a name
    holding a comma or a quote is quoted; the cells, numbers that need no
    quoting, are joined into ``\r\n``-ended lines in one string."""
    line = ",".join(["{}"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write("".join(map(line.format, *columns)))
