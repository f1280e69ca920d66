"""Per-value references for ``dwkit.mapreduce``.

The stock emitter and reducers see every value: ``make_column_emitter``
emits each non-missing value of a column and ``reduce_*`` fold them at
once, the stock ``sum``/``mean`` by rounding their exact total.
``list_shuffle`` keeps every emitted value in a list per key until the
reduce, the shuffle without a fold.
The fused ops (``make_ops_mapper``, ``fold_op``, ``reduce_op``) must give
exactly what these give.
"""
import numpy as np

from dwkit import chunkstore as cs
from dwkit.mapreduce import _partial, reduce_op


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


STOCK_REDUCERS = {"sum": reduce_sum, "mean": reduce_mean,
                  "max": reduce_max, "min": reduce_min}


def list_shuffle(ds, map_fn, reduce_fn, columns=None):
    """The (key, reduced value) pairs, in key order, of ``map_fn`` over
    every chunk of ``ds``, each key's values kept in a list in chunk order
    and handed to ``reduce_fn`` at once."""
    groups = {}
    for table in cs.read_chunks(ds, columns):
        for key, value in map_fn(table):
            groups.setdefault(key, []).append(value)
    return [(k, reduce_fn(k, groups[k])) for k in sorted(groups)]
