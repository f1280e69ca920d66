"""MapReduce executor over datastore chunks.

Map tasks (one per chunk) run on a thread pool; their keyed output is
published to the intermediate store only at task completion.  A barrier
separates the phases, then reduce tasks fold each key's values.  Failed
tasks re-execute from their chunk input up to an attempt cap; a test-only
failure injector exercises that path.  The result is sorted by key, so a
run is deterministic for any worker count and chunk size.

``make_ops_mapper`` and ``reduce_op`` answer several aggregate ops in one
pass, with map-side combiners: the shuffle holds one partial per op per
chunk instead of one pair per value.
"""
from __future__ import annotations

import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import chunkstore
from .chunkstore import DataTable, Datastore
from .errors import TaskFailedError

DEFAULT_ATTEMPT_CAP = 3


class InjectedFailure(RuntimeError):
    """Raised by the test-only failure injector."""


@dataclass
class MapReduceResult:
    table: DataTable
    log: list[dict]
    pairs: list[tuple]   # (key, reduced value) in key order, types kept


class _SchedulerLog:
    def __init__(self):
        self._events = []
        self._lock = threading.Lock()

    def emit(self, kind, **detail):
        with self._lock:
            self._events.append({"seq": len(self._events), "kind": kind,
                                 **detail})

    @property
    def events(self):
        return self._events


def write_log(events, path):
    with open(path, "w") as fh:
        for ev in events:
            fh.write(json.dumps(ev, sort_keys=True) + "\n")


def _run_task(task_id, kind, fn, attempt_cap, fail_injector, log):
    last_exc = None
    for attempt in range(1, attempt_cap + 1):
        log.emit(f"{kind}-start", task=task_id, attempt=attempt)
        try:
            if fail_injector is not None and fail_injector(kind, task_id,
                                                          attempt):
                raise InjectedFailure(f"{kind} task {task_id} "
                                      f"attempt {attempt}")
            out = fn()
        except Exception as exc:
            last_exc = exc
            log.emit(f"{kind}-failed", task=task_id, attempt=attempt,
                     error=str(exc))
            continue
        log.emit(f"{kind}-done", task=task_id, attempt=attempt)
        return out
    raise TaskFailedError(task_id, last_exc)


def _result_table(pairs):
    keys = [k for k, _ in pairs]
    values = [v for _, v in pairs]

    def column(data):
        if data and all(isinstance(v, (int, np.integer)) and
                        not isinstance(v, bool) for v in data):
            return np.array(data, dtype=np.int64), "integer"
        if data and all(isinstance(v, (int, float, np.number)) and
                        not isinstance(v, bool) for v in data):
            return np.array(data, dtype=float), "real"
        return np.array(data, dtype=object), "text"

    kcol, kkind = column(keys)
    vcol, vkind = column(values)
    n = len(pairs)
    missing = {"key": np.zeros(n, dtype=bool),
               "value": np.array([isinstance(v, float) and math.isnan(v)
                                  for v in values], dtype=bool)}
    return DataTable({"key": kcol, "value": vcol}, missing,
                     {"key": kkind, "value": vkind})


def mapreduce(ds: Datastore, map_fn, reduce_fn, *, workers=None,
              attempt_cap=DEFAULT_ATTEMPT_CAP, fail_injector=None,
              log_path=None) -> MapReduceResult:
    """Apply ``map_fn`` to every chunk and fold each key with ``reduce_fn``.

    ``map_fn(table)`` yields (key, value) pairs; ``reduce_fn(key, values)``
    returns the folded value for one key.  Values reach the reducer in
    chunk order, so the grouping is independent of task completion order.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    log = _SchedulerLog()

    # one enumeration pass indexes every chunk by its offset; a task
    # (and each of its retries) re-reads its own chunk from there
    tasks = [(fi, ci, offset) for fi in range(len(ds.sources))
             for ci, offset, _rows in chunkstore.iter_file_chunks(ds, fi)]

    intermediate = {}   # task index -> list of (key, value), set when done
    with ThreadPoolExecutor(max_workers=workers) as pool:
        def map_task(idx, fi, ci, offset):
            def body():
                chunk = chunkstore.read_chunk(ds, fi, ci, offset)
                return list(map_fn(chunk))
            return idx, _run_task(f"map-{fi}-{ci}", "map", body,
                                  attempt_cap, fail_injector, log)

        futures = [pool.submit(map_task, idx, *task)
                   for idx, task in enumerate(tasks)]
        for fut in futures:
            idx, pairs = fut.result()
            intermediate[idx] = pairs

        log.emit("barrier", maps=len(tasks))

        groups = {}
        for idx in range(len(tasks)):
            for key, value in intermediate[idx]:
                groups.setdefault(key, []).append(value)

        keys = sorted(groups)
        reduce_futures = [
            pool.submit(_run_task, f"reduce-{k}", "reduce",
                        (lambda key=k: (key, reduce_fn(key, groups[key]))),
                        attempt_cap, fail_injector, log)
            for k in keys]
        reduced = [fut.result() for fut in reduce_futures]

    table = _result_table(reduced)
    if log_path:
        write_log(log.events, log_path)
    return MapReduceResult(table=table, log=log.events, pairs=reduced)


# --- stock map/reduce functions (CLI building blocks) ---

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
    return sum(values)


def reduce_mean(key, values):
    return sum(values) / len(values)


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
    values emits nothing for a column op."""
    def emit(table):
        for key, reducer, column in ops:
            if reducer == "count":
                yield key, table.nrows
                continue
            values = table.column(column, skip_missing=True)
            if not len(values):
                continue
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
    reducer = key.split(":", 1)[0]
    if reducer == "count":
        return sum(partials)
    if reducer == "max":
        return max(partials)
    if reducer == "min":
        return min(partials)
    total = _fold_sum(partials)
    if reducer == "sum":
        return total
    return total / sum(len(p) for p in partials)
