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
in key order, each value as the reducer returned it, so a run is
deterministic for any chunk size.

``make_ops_mapper`` and ``reduce_op`` answer several aggregate ops in one
pass, with map-side combiners: the shuffle holds one partial per op per
chunk instead of one pair per value.  They are what the CLI runs.  The
stock emitter and reducers are the per-value references that the tests
and the demo fold with; of them the CLI uses only the names in
``BUILTIN_REDUCERS``, to check an op.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

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


def _exact_sum(key, total, values):
    """``total``, the sum of ``values``, if it is exact.  An int64 sum
    wraps past int64, so it must equal the Python-int sum of the values;
    any other sum is returned as it is."""
    if isinstance(total, np.integer) and int(total) != sum(map(int, values)):
        raise DwkitError(f"{key}: the integer sum is past int64")
    return total


def reduce_sum(key, values):
    with np.errstate(over="ignore"):   # a wrapped sum is refused below
        return _exact_sum(key, sum(values), values)


def reduce_mean(key, values):
    return reduce_sum(key, values) / len(values)


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
# emitter and reducers above give over every value, in chunk order.

def make_ops_mapper(ops):
    """Map function for ``ops``, a list of (key, reducer, column): per
    chunk, ``count`` emits the row count, ``sum``/``mean`` the column's
    non-missing values as one array, and ``max``/``min`` the first
    occurrence of the column's extreme.  A chunk without non-missing
    values emits nothing for a column op; a text column with values
    raises ``DwkitError``."""
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
                yield key, values
            else:
                pick = np.argmax if reducer == "max" else np.argmin
                yield key, values[pick(values)]
    return emit


def _fold_sum(arrays):
    """``sum()`` over the arrays' elements, left to right.  Each step is
    the same numpy scalar addition, so the result is bit-identical;
    ``np.sum`` adds pairwise and would round differently."""
    total = 0
    for values in arrays:
        total = np.add.accumulate(np.concatenate(([total], values)))[-1]
    return total


def reduce_op(key, partials):
    """Fold one op's partials from ``make_ops_mapper``, in chunk order."""
    reducer, _, column = key.partition(":")
    if reducer == "count":
        return sum(partials)
    if reducer == "max":
        return max(partials)
    if reducer == "min":
        return min(partials)
    # an overflow is named below; inf + -inf is NaN, which the report
    # refuses by name
    with np.errstate(over="ignore", invalid="ignore"):
        total = _fold_sum(partials)
    if np.isinf(total) and all(np.isfinite(p).all() for p in partials):
        raise DwkitError(f"{key}: the sum of column {column!r} overflows")
    total = _exact_sum(key, total,
                       chain.from_iterable(p.tolist() for p in partials))
    if reducer == "sum":
        return total
    return total / sum(len(p) for p in partials)
