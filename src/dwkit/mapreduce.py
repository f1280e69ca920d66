"""MapReduce executor over datastore chunks.

Map tasks (one per chunk) run in chunk order in the caller, with no thread
pool.  One pass over the input feeds the maps: each task builds its chunk
from the rows that pass reads, a batch at a time, and only a retry seeks
back to the chunk's offset to read it again, so without retries a run
tokenizes each record once.  Once a map task succeeds, each (key, value)
it emitted is folded by the caller's ``fold`` into its key's running
value, the combiner of Dean and Ghemawat's MapReduce: a failed attempt
never reaches the fold, and the shuffle holds one value per key whatever
the number of chunks.  A barrier separates the phases, then one reduce
task per key, in key order, hands ``reduce_fn`` the key's folded value.
Failed tasks re-execute from their chunk input up to an attempt cap,
except on a ``DwkitError`` (a malformed cell, a text column), which would
fail again and is raised at once; a test-only failure injector exercises
the retry path.  The result is the reduced (key, value) pairs in key
order, each value as the reducer returned it.

Each scheduler event, a task attempt's start, failure or end and the
barrier, goes to a sink as it is emitted.  The default ``EventList``
keeps them as dicts, the result's ``log``; the CLI's ``LogWriter`` writes
each one's ``scheduler.jsonl`` line, the line ``json.dumps(event,
sort_keys=True)`` gives, and keeps only the number of lines.  So a CLI
run holds one chunk, one partial per op and no log, whatever the number
of chunks.

``make_ops_mapper``, ``fold_op`` and ``reduce_op`` answer several
aggregate ops in one pass, with map-side combiners: each chunk emits one
partial per op, instead of one pair per value.  They are what the CLI
runs.  A ``sum`` or ``mean`` is exact: each chunk's partial holds the
exact total of its values, an int scaled by 2**1126 (``_exact_total``),
the fold adds the ints, and the reduce rounds once, so the result is the
correctly rounded sum or mean whatever the chunk size or file split.
``BUILTIN_REDUCERS`` names the reducers an op may use; the per-value
references the ops are tested against live in the tests.
"""
from __future__ import annotations

import functools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_text

import numpy as np

from . import chunkstore
from .chunkstore import Datastore
from .errors import DwkitError, TaskFailedError

DEFAULT_ATTEMPT_CAP = 3
# the reducers an op may name, which cli._REDUCERS copies
BUILTIN_REDUCERS = ("max", "mean", "min", "sum")


class InjectedFailure(RuntimeError):
    """Raised by the test-only failure injector."""


@dataclass
class MapReduceResult:
    log: Sequence[dict]   # the sink's kept events: empty when streamed
    pairs: list[tuple]    # (key, reduced value) in key order, types kept


class EventList:
    """The default sink: keeps each scheduler event as a dict, in order,
    in ``events``."""

    def __init__(self):
        self.events = []

    def task(self, kind, task, attempt, error=None):
        event = {"seq": len(self.events), "kind": kind, "task": task,
                 "attempt": attempt}
        if error is not None:
            event["error"] = error
        self.events.append(event)

    def barrier(self, maps):
        self.events.append({"seq": len(self.events), "kind": "barrier",
                            "maps": maps})


class LogWriter:
    """A sink that writes each scheduler event's line to ``fh`` as it is
    emitted, the line ``json.dumps(event, sort_keys=True)`` gives for the
    event ``EventList`` keeps, and keeps no events, only the number of
    lines."""

    events = ()

    def __init__(self, fh):
        self._fh = fh
        self.lines = 0

    def task(self, kind, task, attempt, error=None):
        error = "" if error is None else f'"error": {_json_text(error)}, '
        self._fh.write(f'{{"attempt": {attempt}, {error}"kind": "{kind}", '
                       f'"seq": {self.lines}, "task": {_json_text(task)}}}\n')
        self.lines += 1

    def barrier(self, maps):
        self._fh.write(f'{{"kind": "barrier", "maps": {maps}, '
                       f'"seq": {self.lines}}}\n')
        self.lines += 1


def write_log(events, path):
    """Write the events an ``EventList`` kept, one ``json.dumps(event,
    sort_keys=True)`` line each."""
    with open(path, "w") as fh:
        for ev in events:
            fh.write(json.dumps(ev, sort_keys=True) + "\n")


# each event's kind is one of these strings, shared by every event of it
_EVENT_KINDS = {kind: (f"{kind}-start", f"{kind}-failed", f"{kind}-done")
                for kind in ("map", "reduce")}


def _run_task(task_id, kind, fn, attempt_cap, fail_injector, sink):
    started, failed, done = _EVENT_KINDS[kind]
    last_exc = None
    for attempt in range(1, attempt_cap + 1):
        sink.task(started, task_id, attempt)
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
            sink.task(failed, task_id, attempt, str(exc))
            continue
        sink.task(done, task_id, attempt)
        return out
    raise TaskFailedError(task_id, last_exc)


def mapreduce(ds: Datastore, map_fn, reduce_fn, *, fold, columns=None,
              attempt_cap=DEFAULT_ATTEMPT_CAP, fail_injector=None,
              sink=None) -> MapReduceResult:
    """Apply ``map_fn`` to every chunk, fold each key's values with
    ``fold`` and reduce each key's folded value with ``reduce_fn``.

    ``map_fn(table)`` yields (key, value) pairs.  Once a map task
    succeeds, ``fold(key, running, value)`` folds each of its values into
    the key's running value, the key's first value being the first
    running value.  ``reduce_fn(key, [running])`` returns the reduced
    value for one key.  Chunks hold the columns named in ``columns``
    (default: all).  Tasks run in order in the caller, so values reach
    the fold in chunk order.  ``sink`` takes the scheduler events, by
    default an ``EventList``, whose events are the result's ``log``.
    """
    sink = EventList() if sink is None else sink
    folded = {}
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
                                        attempt_cap, fail_injector, sink):
                folded[key] = (fold(key, folded[key], value)
                               if key in folded else value)
            maps += 1

    sink.barrier(maps)

    reduced = [_run_task(f"reduce-{k}", "reduce",
                         lambda: (k, reduce_fn(k, [folded[k]])),
                         attempt_cap, fail_injector, sink)
               for k in sorted(folded)]

    return MapReduceResult(sink.events, reduced)


# --- fused ops with map-side combiners ---
# One pass serves any number of ops.  Each chunk emits one partial per op,
# keyed by the op ("count", "mean:Delay", ...), and the fold and the
# reducer dispatch on the key's reducer name.  The partials fold to
# exactly what one pass over every value gives.

# A finite float64 is a multiple of 2**-1074, so the float times
# 2**_SCALE is an integer, and so is every sum _float_total takes (below).
_SCALE = 1126
# values summed at a time, which bounds the temporary arrays, about 24
# bytes a value, to 0.4 MB whatever the chunk.  An int64 array's 32-bit
# halves then sum below 2**63, and a float64 slice's values, fewer than
# 2**15, leave _float_total 38 bits a level.
_SLICE = 2**14


def _exact_total(key, values):
    """2**_SCALE times the exact sum of ``values``, a 1-D int64 or float64
    array, as a Python int.

    An int64 array's high and low 32-bit halves are summed in int64, and a
    float64 array's values by ``_float_total``, a slice at a time.  A NaN
    or an infinity, which only a library caller can pass, is a
    ``DwkitError``: it has no exact total."""
    total = 0
    if values.dtype.kind == "i":
        for start in range(0, len(values), _SLICE):
            part = values[start:start + _SLICE]
            total += ((int((part >> 32).sum()) << 32)
                      + int((part & 0xFFFFFFFF).sum()))
        return total << _SCALE
    for start in range(0, len(values), _SLICE):
        total += _float_total(key, values[start:start + _SLICE])
    return total


def _float_total(key, values):
    """2**_SCALE times the exact sum of ``values``, a float64 array of
    fewer than 2**bits values, by the error-free extraction of Rump, Ogita
    and Oishi (ExtractVector; "Accurate floating-point summation part I",
    SIAM J. Sci. Comput. 31, 2008).

    For sigma = 2**k and values of magnitude at most 2**(k - bits),
    ``(v + sigma) - sigma`` is ``v`` rounded to a multiple of 2**(k - 53)
    and of magnitude at most 2**(k - bits), so the rounded values sum
    exactly below 2**k in any order; ``v`` less it is exact and at most
    2**(k - 53).  The remainders are extracted in turn, 53 - bits bits
    lower, until none is left.  One is left only where the doubles near
    sigma are spaced wider than 2**-1074, at k of -1021 or more, so k
    never falls below -1073."""
    if not len(values):
        return 0
    top = np.abs(values).max()
    if not math.isfinite(top):
        raise DwkitError(f"{key}: a value that is not finite has no sum")
    bits = len(values).bit_length()
    k = math.frexp(top)[1] + bits   # top < 2**(k - bits)
    if k > 1023:
        # sigma would pass the float range: the values from 2**1000 up,
        # whose lowest bits are 2**947 or more, are summed scaled down
        # exactly by 2**-200, and the others as they are
        big = np.abs(values) >= 2.0**1000
        return (_float_total(key, values[~big])
                + (_float_total(key, values[big] * 2.0**-200) << 200))
    total, rest = 0, values
    while True:
        sigma = 2.0**k
        high = rest + sigma
        high -= sigma
        rest = rest - high
        # the exact sum of the rounded values, a multiple of 2**(k - 53)
        total += int(math.ldexp(high.sum(), 53 - k)) << (k - 53 + _SCALE)
        if not np.count_nonzero(rest):
            return total
        k -= 53 - bits


def _partial(key, values):
    """A ``sum``/``mean`` partial of ``values``, (total, count, integer):
    their exact total times 2**_SCALE, their count, and whether they are
    integers."""
    return _exact_total(key, values), len(values), values.dtype.kind == "i"


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


def fold_op(key, running, partial):
    """Fold a chunk's ``partial`` from ``make_ops_mapper`` into the op's
    ``running`` partial, which holds the earlier chunks': counts and
    exact totals add, and ``max``/``min`` keep the first occurrence of
    the extreme."""
    reducer = key.partition(":")[0]
    if reducer == "count":
        return running + partial
    if reducer == "max":
        return max(running, partial)
    if reducer == "min":
        return min(running, partial)
    return (running[0] + partial[0], running[1] + partial[1],
            running[2] and partial[2])


def reduce_op(key, partials):
    """One op's result from its partials, folded by ``fold_op`` in order.
    A ``sum``/``mean`` rounds the exact total once: an integer column's
    sum is the exact int, of any size; any other sum, and every mean, is
    the int's true division, which Python rounds correctly.  A result
    past the float range is a ``DwkitError`` naming the column."""
    folded = functools.reduce(functools.partial(fold_op, key), partials)
    reducer, _, column = key.partition(":")
    if reducer not in ("sum", "mean"):
        return folded
    total, count, integer = folded
    if reducer == "sum" and integer:
        return total >> _SCALE
    try:
        return total / (count << _SCALE if reducer == "mean"
                        else 1 << _SCALE)
    except OverflowError:
        raise DwkitError(f"{key}: the sum of column {column!r} "
                         f"overflows") from None
