"""MapReduce executor over datastore chunks.

Map tasks (one per chunk) run in chunk order in the caller, with no thread
pool; a task's keyed output joins the shuffle only once the task succeeds.
One pass over the input feeds the maps: each task builds its chunk from
the rows that pass reads, a batch at a time, and only a retry seeks back
to the chunk's offset to read it again, so without retries a run
tokenizes each record once.
A barrier separates the phases, then reduce tasks fold each key's values
in key order.  Failed tasks re-execute from their chunk input up to an
attempt cap, except on a ``DwkitError`` (a malformed cell, a text column),
which would fail again and is raised at once; a test-only failure injector
exercises the retry path.  The result is the reduced (key, value) pairs
in key order, each value as the reducer returned it.

``make_ops_mapper`` and ``reduce_op`` answer several aggregate ops in one
pass, with map-side combiners: the shuffle holds one partial per op per
chunk instead of one pair per value.  They are what the CLI runs.  A
``sum`` or ``mean`` is exact: each chunk's partial is the exact total of
its values, an int scaled by 2**1126 (``_exact_total``), and the
reduce adds the partials and rounds once, so the result is the correctly
rounded sum or mean whatever the chunk size or file split.  The stock
emitter and reducers are the per-value references that the tests and the
demo fold with; the stock ``sum``/``mean`` round the same exact total.
Of them the CLI uses only the names in ``BUILTIN_REDUCERS``, to check an
op.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import chunkstore
from .chunkstore import Datastore
from .errors import DwkitError, TaskFailedError

DEFAULT_ATTEMPT_CAP = 3


class InjectedFailure(RuntimeError):
    """Raised by the test-only failure injector."""


@dataclass
class MapReduceResult:
    log: list[dict]
    pairs: list[tuple]   # (key, reduced value) in key order, types kept


def write_log(events, path):
    with open(path, "w") as fh:
        for ev in events:
            fh.write(json.dumps(ev, sort_keys=True) + "\n")


def _emit(log, kind, **detail):
    log.append({"seq": len(log), "kind": kind, **detail})


def _run_task(task_id, kind, fn, attempt_cap, fail_injector, log):
    last_exc = None
    for attempt in range(1, attempt_cap + 1):
        _emit(log, f"{kind}-start", task=task_id, attempt=attempt)
        try:
            if fail_injector is not None and fail_injector(kind, task_id,
                                                          attempt):
                raise InjectedFailure(f"{kind} task {task_id} "
                                      f"attempt {attempt}")
            out = fn()
        except DwkitError:
            raise   # deterministic: a retry would fail the same way
        except Exception as exc:
            last_exc = exc
            _emit(log, f"{kind}-failed", task=task_id, attempt=attempt,
                  error=str(exc))
            continue
        _emit(log, f"{kind}-done", task=task_id, attempt=attempt)
        return out
    raise TaskFailedError(task_id, last_exc)


def mapreduce(ds: Datastore, map_fn, reduce_fn, *, columns=None,
              attempt_cap=DEFAULT_ATTEMPT_CAP,
              fail_injector=None) -> MapReduceResult:
    """Apply ``map_fn`` to every chunk and fold each key with ``reduce_fn``.

    ``map_fn(table)`` yields (key, value) pairs; ``reduce_fn(key, values)``
    returns the folded value for one key.  Chunks hold the columns named
    in ``columns`` (default: all).  Tasks run in order in the caller, so
    values reach the reducer in chunk order.
    """
    log = []
    groups = {}
    maps = 0
    for fi in range(len(ds.sources)):
        for ci, offset, rows in chunkstore.iter_file_chunks(ds, fi):
            def body():
                nonlocal rows
                # rows are read as they are taken, so a retry reads the
                # chunk again from its offset
                taken, rows = rows, None
                return list(map_fn(chunkstore.read_chunk(
                    ds, fi, ci, offset, columns, taken)))
            for key, value in _run_task(f"map-{fi}-{ci}", "map", body,
                                        attempt_cap, fail_injector, log):
                groups.setdefault(key, []).append(value)
            maps += 1

    _emit(log, "barrier", maps=maps)

    reduced = [_run_task(f"reduce-{k}", "reduce",
                         lambda: (k, reduce_fn(k, groups[k])),
                         attempt_cap, fail_injector, log)
               for k in sorted(groups)]

    return MapReduceResult(log, reduced)


# --- stock map/reduce functions: per-value references for the tests and
# the demo; the CLI reads only BUILTIN_REDUCERS's names ---

def map_count_rows(table):
    yield "rows", table.nrows


def make_column_emitter(column, key=None):
    """Map function emitting every non-missing value of one column."""
    key = column if key is None else key

    def emit(table):
        for v in table.column(column, skip_missing=True):
            yield key, v
    return emit


def reduce_sum(key, values):
    return reduce_op(f"sum:{key}", [_partial(key, np.asarray(values))])


def reduce_mean(key, values):
    return reduce_op(f"mean:{key}", [_partial(key, np.asarray(values))])


def reduce_max(key, values):
    return max(values)


def reduce_min(key, values):
    return min(values)

BUILTIN_REDUCERS = {"sum": reduce_sum, "mean": reduce_mean,
                    "max": reduce_max, "min": reduce_min}


# --- fused ops with map-side combiners ---
# One pass serves any number of ops.  Each chunk emits one partial per op,
# keyed by the op ("count", "mean:Delay", ...), and the reducer dispatches
# on the key's reducer name.  The partials fold to exactly what the stock
# emitter and reducers above give over every value.

# A finite float64 is M * 2**(e - 53), M an integer below 2**53 and e,
# frexp's exponent, at least -1073 (5e-324 is 0.5 * 2**-1073), so the
# float times 2**_SCALE is an integer.
_SCALE = 1126
# values summed at a time, which bounds the temporary arrays, about 28
# bytes a value, to 0.5 MB whatever the chunk.  Below 2**26 values every
# sum is exact: a float bucket's high parts, integers below 2**27, sum
# below 2**53, and its low parts, multiples of 2**-26 below 1, below
# 2**26, both exact in float64; an int64 array's 32-bit halves sum below
# 2**63.
_SLICE = 2**14


def _exact_total(key, values):
    """2**_SCALE times the exact sum of ``values``, a 1-D int64 or float64
    array, as a Python int.

    An int64 array's high and low 32-bit halves are summed in int64.  A
    float64 array, after Neal's small superaccumulator (arXiv:1505.05571),
    is split by ``np.frexp`` into mantissas and exponents; each mantissa,
    times 2**27, into its integer part and its fraction, the high and low
    26 bits of its 53; and each part summed per exponent by
    ``np.bincount``, exactly.  A NaN or an infinity, which only a library
    caller can pass, is a ``DwkitError``: it has no exact total."""
    total = 0
    if values.dtype.kind == "i":
        for start in range(0, len(values), _SLICE):
            part = values[start:start + _SLICE]
            total += ((int((part >> 32).sum()) << 32)
                      + int((part & 0xFFFFFFFF).sum()))
        return total << _SCALE
    if not np.isfinite(values).all():
        raise DwkitError(f"{key}: a value that is not finite has no sum")
    for start in range(0, len(values), _SLICE):
        mantissas, exponents = np.frexp(values[start:start + _SLICE])
        mantissas *= 2.0**27
        high = np.trunc(mantissas)
        mantissas -= high   # the low part, a multiple of 2**-26 below 1
        least = int(exponents.min())
        exponents -= least   # a bucket per exponent from the least up
        buckets = zip(np.bincount(exponents, weights=high).tolist(),
                      np.bincount(exponents, weights=mantissas).tolist())
        total += sum(((int(h) << 26) + int(l * 2.0**26)) << k
                     for k, (h, l) in enumerate(buckets)
                     if h or l) << (least + _SCALE - 53)
    return total


def _partial(key, values):
    """A ``sum``/``mean`` partial of ``values``, (t, s, count, integer):
    their exact total times 2**_SCALE is ``t << s``, and ``s`` takes its
    trailing zero bits, so that the shuffle keeps an int of tens of
    bytes, not of 150; then their count, and whether they are
    integers."""
    total = _exact_total(key, values)
    shift = (total & -total).bit_length() - 1 if total else 0
    return total >> shift, shift, len(values), values.dtype.kind == "i"


def make_ops_mapper(ops):
    """Map function for ``ops``, a list of (key, reducer, column): per
    chunk, ``count`` emits the row count, ``sum``/``mean`` the column's
    non-missing values' exact total, count and kind (``_partial``), and
    ``max``/``min`` the first occurrence of the column's extreme.  A chunk
    without non-missing values emits nothing for a column op; a text
    column with values raises ``DwkitError``."""
    def emit(table):
        for key, reducer, column in ops:
            if reducer == "count":
                yield key, table.nrows
                continue
            values = table.column(column, skip_missing=True)
            if not len(values):
                continue
            if table.kinds[column] == "text":
                raise DwkitError(f"{key}: column {column!r} is not numeric")
            if reducer in ("sum", "mean"):
                yield key, _partial(key, values)
            else:
                pick = np.argmax if reducer == "max" else np.argmin
                yield key, values[pick(values)]
    return emit


def reduce_op(key, partials):
    """Fold one op's partials from ``make_ops_mapper``.  A ``sum``/``mean``
    adds the exact totals and rounds once: an integer column's sum is the
    exact int, of any size; any other sum, and every mean, is the int's
    true division, which Python rounds correctly.  A result past the
    float range is a ``DwkitError`` naming the column."""
    reducer, _, column = key.partition(":")
    if reducer == "count":
        return sum(partials)
    if reducer == "max":
        return max(partials)
    if reducer == "min":
        return min(partials)
    totals, shifts, counts, integers = zip(*partials)
    total = sum(t << s for t, s in zip(totals, shifts))
    if reducer == "sum" and all(integers):
        return total >> _SCALE
    try:
        return total / (sum(counts) << _SCALE if reducer == "mean"
                        else 1 << _SCALE)
    except OverflowError:
        raise DwkitError(f"{key}: the sum of column {column!r} "
                         f"overflows") from None
