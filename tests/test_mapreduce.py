import csv
import io
import json
import os
import sys
import tempfile
import threading
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dwkit import chunkstore as cs
from dwkit.errors import DwkitError, MalformedValueError, TaskFailedError
from dwkit.fixtures import server_records_path
from dwkit.mapreduce import (EventList, InjectedFailure, LogWriter, fold_op,
                             make_ops_mapper, mapreduce, reduce_op,
                             write_log)
from mapreduce_oracles import (STOCK_REDUCERS, list_shuffle,
                               make_column_emitter, map_count_rows,
                               reduce_max, reduce_mean, reduce_sum)


# integers up to +-2**62: about half the columns hold a value past 2**53
# that float64 cannot hold, and a fifth sum past int64
WIDE_INTS = st.one_of(
    st.builds(lambda hi, lo: hi * 2**31 + lo,
              st.integers(-2**31, 2**31 - 1), st.integers(0, 2**31 - 1)),
    st.integers(2**62 - 2**10, 2**62), st.integers(-2**62, -2**62 + 2**10))


def open_sample(chunk_size=3):
    return cs.open_datastore(server_records_path(), chunk_size=chunk_size)


def as_dict(res):
    return dict(res.pairs)


def add(key, running, value):
    return running + value


def only(key, values):
    """The one folded value the reduce task of ``key`` is handed."""
    (value,) = values
    return value


def count_rows(ds, **kwargs):
    """Every chunk's row count, added as each map task returns."""
    return mapreduce(ds, map_count_rows, only, fold=add, **kwargs)


MEAN_DELAY = [("mean:Delay", "mean", "Delay")]


class TestOracles:
    def test_count_rows(self):
        assert list_shuffle(open_sample(), map_count_rows,
                            reduce_sum) == [("rows", 8)]

    def test_mean_delay(self):
        (key, mean), = list_shuffle(open_sample(),
                                    make_column_emitter("Delay"),
                                    reduce_mean)
        assert key == "Delay" and mean == pytest.approx(15.875)

    def test_max_elapsed(self):
        assert list_shuffle(open_sample(),
                            make_column_emitter("ActualElapsedTime"),
                            reduce_max) == [("ActualElapsedTime", 155)]

    def test_missing_values_skipped(self):
        # ExtraTime is all-NA, so the emitter yields nothing at all
        res = mapreduce(open_sample(), make_column_emitter("ExtraTime"),
                        only, fold=add)
        assert res.pairs == []

    def test_multi_key_sorted_output(self):
        def by_tail(table):
            for v in table.column("Delay", skip_missing=True):
                yield ("late" if v > 10 else "early"), 1
        res = mapreduce(open_sample(), by_tail, only, fold=add)
        assert [key for key, _ in res.pairs] == ["early", "late"]
        assert as_dict(res) == {"early": 4, "late": 4}


class TestChunkInvariance:
    @pytest.mark.parametrize("chunk_size", [1, 3, 8, 100])
    def test_same_answer(self, chunk_size):
        res = mapreduce(open_sample(chunk_size), make_ops_mapper(MEAN_DELAY),
                        reduce_op, fold=fold_op)
        assert as_dict(res)["mean:Delay"] == pytest.approx(15.875)

    def test_tasks_run_on_the_callers_thread(self):
        threads = set()

        def map_fn(table):
            threads.add(threading.get_ident())
            yield "rows", table.nrows

        def fold(key, running, value):
            threads.add(threading.get_ident())
            return running + value

        def reduce_fn(key, values):
            threads.add(threading.get_ident())
            return sum(values)

        res = mapreduce(open_sample(1), map_fn, reduce_fn, fold=fold)
        assert as_dict(res) == {"rows": 8}
        assert threads == {threading.get_ident()}


class TestFailureHandling:
    def test_transient_failures_are_transparent(self):
        hits = []

        def injector(kind, task_id, attempt):
            # first two map attempts overall blow up, later ones succeed
            if kind == "map" and attempt == 1 and len(hits) < 2:
                hits.append(task_id)
                return True
            return False

        res = mapreduce(open_sample(), make_ops_mapper(MEAN_DELAY),
                        reduce_op, fold=fold_op, fail_injector=injector)
        assert len(hits) == 2
        assert as_dict(res)["mean:Delay"] == pytest.approx(15.875)
        failed = [e for e in res.log if e["kind"] == "map-failed"]
        assert len(failed) == 2

    def test_retry_rereads_chunk_input(self):
        seen = []
        first = []

        def flaky_map(table):
            seen.append(table.nrows)
            if table.nrows == 2 and not first:
                first.append(True)
                raise RuntimeError("boom")
            yield "rows", table.nrows

        res = mapreduce(open_sample(), flaky_map, only, fold=add)
        # the failed chunk (the 2-row one) was re-read and mapped again
        assert sorted(seen) == [2, 2, 3, 3]
        assert as_dict(res) == {"rows": 8}

    def test_permanent_failure_raises(self):
        def injector(kind, task_id, attempt):
            return kind == "reduce"
        with pytest.raises(TaskFailedError):
            count_rows(open_sample(), attempt_cap=2, fail_injector=injector)

    def test_attempt_cap_respected(self):
        attempts = []

        def injector(kind, task_id, attempt):
            if kind == "map" and task_id == "map-0-0":
                attempts.append(attempt)
                return True
            return False

        with pytest.raises(TaskFailedError):
            count_rows(open_sample(), attempt_cap=4, fail_injector=injector)
        assert attempts == [1, 2, 3, 4]

    def test_dwkit_error_is_not_retried(self):
        calls = []

        def bad_map(table):
            calls.append(table.nrows)
            raise MalformedValueError("x", "integer", "test")
            yield

        with pytest.raises(MalformedValueError):
            mapreduce(open_sample(), bad_map, only, fold=add)
        assert len(calls) == 1


class TestSchedulerLog:
    def test_barrier_separates_phases(self):
        res = count_rows(open_sample())
        kinds = [e["kind"] for e in res.log]
        barrier = kinds.index("barrier")
        assert all(k.startswith("map-") for k in kinds[:barrier])
        assert all(k.startswith("reduce-") for k in kinds[barrier + 1:])
        assert res.log[barrier]["maps"] == 3

    def test_log_sequence_numbers(self):
        res = count_rows(open_sample())
        assert [e["seq"] for e in res.log] == list(range(len(res.log)))

    def test_log_written_to_file(self, tmp_path):
        path = tmp_path / "sched.jsonl"
        res = count_rows(open_sample())
        write_log(res.log, str(path))
        lines = path.read_text().splitlines()
        assert [json.loads(l) for l in lines] == res.log

    def test_single_worker_log_is_deterministic(self, tmp_path):
        logs = []
        for _ in range(2):
            res = count_rows(open_sample())
            logs.append(res.log)
        assert logs[0] == logs[1]


def test_injected_failure_is_reported_in_log():
    def injector(kind, task_id, attempt):
        return kind == "map" and task_id == "map-0-1" and attempt == 1
    res = count_rows(open_sample(), fail_injector=injector)
    failed = [e for e in res.log if e["kind"] == "map-failed"]
    assert len(failed) == 1
    assert failed[0]["task"] == "map-0-1"
    assert "attempt 1" in failed[0]["error"]
    assert isinstance(InjectedFailure("x"), RuntimeError)


class TestCombiners:
    """One fused pass with per-chunk partials gives bit-for-bit what one
    pass per op over every emitted value gives."""

    @pytest.fixture
    def mixed_ds(self, tmp_path):
        # i is an integer column with missing cells; r holds reals whose
        # sum depends on order
        rng = np.random.default_rng(7)
        lines = ["i,r"]
        for k in range(200):
            i = int(rng.integers(-10**6, 10**6))
            r = float(rng.normal() * 10.0 ** rng.integers(-8, 9))
            lines.append(f"{'NA' if k % 17 == 3 else i},"
                         f"{'NA' if k % 13 == 5 else repr(r)}")
        path = tmp_path / "mixed.csv"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 1000])
    def test_fused_equals_one_pass_per_op(self, mixed_ds, chunk_size):
        ds = cs.open_datastore(mixed_ds, chunk_size=chunk_size)
        ops = [("count", "count", None)] + [
            (f"{r}:{c}", r, c) for r in ("sum", "mean", "max", "min")
            for c in ("i", "r")]
        fused = dict(mapreduce(ds, make_ops_mapper(ops), reduce_op,
                               fold=fold_op).pairs)
        assert fused["count"] == list_shuffle(
            ds, map_count_rows, reduce_sum)[0][1] == 200
        for key, reducer, column in ops[1:]:
            (_, want), = list_shuffle(ds, make_column_emitter(column),
                                      STOCK_REDUCERS[reducer])
            assert type(fused[key]) is type(want), key
            assert fused[key] == want, key

    # the first cell is present, so the first chunk infers integer
    @given(WIDE_INTS, st.lists(st.one_of(st.none(), WIDE_INTS), max_size=29),
           st.data())
    def test_integer_ops_are_exact(self, first, rest, data):
        cells = [first, *rest]
        present = [v for v in cells if v is not None]
        total = sum(present)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ints.csv")
            with open(path, "w") as fh:
                fh.write("x\n" + "".join(
                    "NA\n" if v is None else f"{v}\n" for v in cells))
            ds = cs.open_datastore(
                path, chunk_size=data.draw(st.integers(1, len(cells))))

            def run(*reducers):
                ops = [("count", "count", None)] + [
                    (f"{r}:x", r, "x") for r in reducers]
                return dict(mapreduce(ds, make_ops_mapper(ops), reduce_op,
                                      fold=fold_op).pairs)
            assert run("max", "min") == {"count": len(cells),
                                         "max:x": max(present),
                                         "min:x": min(present)}
            # a sum past int64 is the exact int, and a mean the exact
            # quotient rounded once
            got = run("sum", "mean")
            assert type(got["sum:x"]) is int and got["sum:x"] == total
            assert got["mean:x"] == float(Fraction(total, len(present)))

    @pytest.mark.filterwarnings("error")
    def test_stock_reducers_sum_past_int64_exactly(self, tmp_path):
        # the stock reducers once added int64 scalars, which wrapped past
        # int64; they round the exact total as the fused ops do
        path = tmp_path / "edge.csv"
        path.write_text(f"x\n{2**63 - 1}\n1\n")
        ds = cs.open_datastore(str(path), chunk_size=1)
        (_, total), = list_shuffle(ds, make_column_emitter("x"), reduce_sum)
        assert type(total) is int and total == 2**63
        (_, mean), = list_shuffle(ds, make_column_emitter("x"), reduce_mean)
        assert type(mean) is float and mean == 2.0**62
        path.write_text(f"x\n{2**62}\n{2**62 - 1}\n-5\n")
        ds = cs.open_datastore(str(path), chunk_size=1)
        (_, mean), = list_shuffle(ds, make_column_emitter("x"), reduce_mean)
        assert mean == float(Fraction(2**63 - 6, 3))
        (_, rows), = list_shuffle(ds, map_count_rows, reduce_sum)
        assert type(rows) is int and rows == 3

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("reducer", [reduce_sum, reduce_mean])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_stock_reducers_refuse_a_non_finite_value(self, reducer, bad):
        # the chunk engine builds no infinite cell, but a library caller
        # can pass one, which has no exact total
        with pytest.raises(DwkitError, match="x: a value that is not "
                           "finite has no sum"):
            reducer("x", [1.0, bad])

    def test_one_partial_per_op_per_chunk(self):
        ds = open_sample(3)
        ops = [("count", "count", None), ("mean:Delay", "mean", "Delay"),
               ("max:ExtraTime", "max", "ExtraTime")]
        res = mapreduce(ds, make_ops_mapper(ops), reduce_op, fold=fold_op)
        emitted = [list(make_ops_mapper(ops)(t)) for t in cs.read_chunks(ds)]
        # the all-missing column emits nothing; the others one item each
        assert [[k for k, _ in pairs] for pairs in emitted] == \
            [["count", "mean:Delay"]] * 3
        assert dict(res.pairs) == {"count": 8, "mean:Delay": 15.875}

    def test_sum_is_rounded_once(self, tmp_path):
        # a left fold rounds each 1.0 added to 1e16 away; the exact total
        # keeps all fifteen
        path = tmp_path / "x.csv"
        path.write_text("x\n1e16\n" + "1.0\n" * 15)
        ds = cs.open_datastore(str(path), chunk_size=4)
        (_, folded), = mapreduce(ds, make_ops_mapper(
            [("sum:x", "sum", "x")]), reduce_op, fold=fold_op).pairs
        assert folded == reduce_sum("x", [1e16] + [1.0] * 15) == \
            1.0000000000000016e16


# reals across +-300 decades, with subnormals and the ends of the float
# range, whose sums may overflow, and reals of one exponent, whose
# mantissas' sum passes 53 bits; int64 values across the whole range
REALS = st.one_of(
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10, 10),
              st.integers(-300, 300)),
    st.floats(allow_nan=False, allow_infinity=False), st.floats(1, 2),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                     -1e308, 1.7976931348623157e308, -0.0]))
INT64S = st.one_of(st.integers(-2**63, 2**63 - 1),
                   st.sampled_from([-2**63, 2**63 - 1]))


@given(st.one_of(st.lists(REALS, min_size=1, max_size=8),
                 st.lists(INT64S, min_size=1, max_size=8)), st.data())
def test_sum_and_mean_are_the_exact_total_rounded_once(values, data):
    """At every chunk size and over a two-file split, fused and stock
    ``sum``/``mean`` are the exact ``Fraction`` total rounded once: an
    int for an integer sum, else ``float``, and a sum past the float
    range is named.  ``math.fsum`` is no oracle: it overflows in between
    on 1e308, 1e308, -1e308."""
    exact = sum(map(Fraction, values))
    if type(values[0]) is int:
        want_sum = repr(int(exact))
    else:
        try:
            want_sum = repr(float(exact))
        except OverflowError:
            want_sum = "sum:x: the sum of column 'x' overflows"
    want = {"sum": want_sum, "mean": repr(float(exact / len(values)))}

    def outcome(ds, reducer):
        """The fused and the stock reducer's results, as their reprs or
        error messages."""
        runs = (lambda: mapreduce(ds, make_ops_mapper(
                    [(f"{reducer}:x", reducer, "x")]), reduce_op,
                    fold=fold_op).pairs,
                lambda: list_shuffle(ds, make_column_emitter("x"),
                                     STOCK_REDUCERS[reducer]))
        got = []
        for run in runs:
            try:
                (_, value), = run()
                got.append(repr(value))
            except DwkitError as exc:
                got.append(str(exc))
        return got

    lines = [f"{v!r}\n" for v in values]
    split = data.draw(st.integers(1, max(1, len(values) - 1)))
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, part in (("all", lines), ("head", lines[:split]),
                           ("tail", lines[split:])):
            paths.append(os.path.join(tmp, f"{name}.csv"))
            with open(paths[-1], "w") as fh:
                fh.write("x\n" + "".join(part))
        stores = [cs.open_datastore(paths[0], chunk_size=size)
                  for size in range(1, len(values) + 1)]
        if len(values) > 1:
            stores.append(cs.open_datastore(
                paths[1:], chunk_size=data.draw(st.integers(1, split))))
        for ds in stores:
            for reducer in ("sum", "mean"):
                assert outcome(ds, reducer) == [want[reducer]] * 2, (
                    ds.chunk_size, ds.sources, reducer)


@pytest.mark.parametrize("values", [
    [2**63 - 1, 2**63 - 1, -2**63, 5, 7],
    [1e16, 1.0, 1.0, 1.0, 3.5, -1e16, 5e-324, 1.5]])
def test_long_arrays_are_summed_in_slices(monkeypatch, values):
    # arrays are summed 2**14 values at a time; at two values a slice,
    # the totals are the same
    # the package's ``mapreduce`` is the function, so the module is taken
    # from sys.modules
    monkeypatch.setattr(sys.modules["dwkit.mapreduce"], "_SLICE", 2)
    exact = sum(map(Fraction, values))
    assert repr(reduce_sum("x", values)) == repr(
        int(exact) if type(values[0]) is int else float(exact))
    assert reduce_mean("x", values) == float(exact / len(values))


# cells of a real column: plain, NA, and reals whose sums depend on order
CELLS = st.one_of(st.just("NA"), st.integers(-10**6, 10**6).map(str),
                  st.builds(lambda m, e: repr(m * 10.0**e),
                            st.floats(-10, 10), st.integers(-30, 30)))
FOLD_OPS = [("count", "count", None)] + [
    (f"{r}:x", r, "x") for r in ("sum", "mean", "max", "min")]


def reference_log(events):
    """The scheduler log as it was written from the kept event list."""
    return "".join(json.dumps(ev, sort_keys=True) + "\n" for ev in events)


def outcome(run):
    """``run()``'s value with each value's type, or its error."""
    try:
        return [(k, type(v), v) for k, v in run()]
    except (DwkitError, TaskFailedError) as exc:
        return f"{type(exc).__name__}: {exc}"


@given(st.lists(CELLS, min_size=1, max_size=40), st.data())
def test_stream_and_fold_equal_the_list_references(cells, data):
    """Over drawn chunk sizes, two-file splits and failure schedules, the
    streamed log is, byte for byte, the kept event list written with
    ``json.dumps(sort_keys=True)``, and the ops folded as each map task
    returns give what ``reduce_op`` gives over every chunk's partial kept
    in a list.  An attempt that fails, before its map runs or after it
    emitted every partial, never reaches the fold, and an exhausted task
    fails both runs alike."""
    split = data.draw(st.integers(0, len(cells)))
    chunk_size = data.draw(st.integers(1, len(cells) + 1))
    cap = data.draw(st.integers(1, 3))
    tasks = ([f"map-{fi}-{ci}" for fi in (0, 1) for ci in range(8)]
             + [f"reduce-{key}" for key, _, _ in FOLD_OPS])
    failing = data.draw(st.sets(st.tuples(st.sampled_from(tasks),
                                          st.integers(1, 3)), max_size=6))
    late = data.draw(st.sets(st.integers(0, 20), max_size=3))

    def injector(kind, task, attempt):
        return (task, attempt) in failing

    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, part in (("a", cells[:split]), ("b", cells[split:])):
            if part or not paths:
                paths.append(os.path.join(tmp, f"{name}.csv"))
                with open(paths[-1], "w") as fh:
                    fh.write("x\n" + "".join(f"{c}\n" for c in part))

        def run(sink):
            calls, mapper = iter(range(10**6)), make_ops_mapper(FOLD_OPS)

            def map_fn(table):
                yield from mapper(table)
                if next(calls) in late:
                    raise RuntimeError("failed after emitting")
            ds = cs.open_datastore(paths, chunk_size=chunk_size)
            return mapreduce(ds, map_fn, reduce_op, fold=fold_op,
                             sink=sink, attempt_cap=cap,
                             fail_injector=injector).pairs
        streamed, kept = io.StringIO(), EventList()
        got = outcome(lambda: run(LogWriter(streamed)))
        assert got == outcome(lambda: run(kept))
        assert streamed.getvalue() == reference_log(kept.events)
        if not isinstance(got, str):   # no task exhausted
            ds = cs.open_datastore(paths, chunk_size=chunk_size)
            assert got == outcome(lambda: list_shuffle(
                ds, make_ops_mapper(FOLD_OPS), reduce_op))


# fields: plain, quoted with commas, quotes and line ends, and non-ASCII;
# a \r only in a \r\n, which csv.writer quotes, as an unquoted lone \r
# ends a record, where tell gives an opaque position
FIELDS = st.lists(st.sampled_from(["a", "b", ",", '"', "\n", "\r\n", " ",
                                   "é", "😀"]), max_size=6).map("".join)


@given(st.lists(st.tuples(st.integers(-99, 99), FIELDS), max_size=30),
       st.sampled_from(["\n", "\r\n"]), st.booleans(), st.integers(1, 7))
def test_stream_chunk_offsets_equal_tell(records, end, bom, chunk_size):
    """Each chunk's offset, its file position found by adding the UTF-8
    sizes of the lines read, is what ``tell`` gives at its first record,
    on plain, quoted, CRLF, byte-order-marked and non-ASCII input."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("\ufeff" if bom else "")
            writer = csv.writer(fh, lineterminator=end)
            writer.writerow(["id", "name"])
            writer.writerows(records)
        ds = cs.open_datastore(path, chunk_size=chunk_size)
        offsets = [offset for _, offset, _ in cs.iter_file_chunks(ds, 0)]
        with open(path, newline="", encoding="utf-8") as fh:
            lines = iter(fh.readline, "")
            reader = csv.reader(lines)
            next(reader)   # header
            told = []
            while True:
                told.append(fh.tell())
                if not list(islice(reader, chunk_size)):
                    break
        assert offsets == told[:-1]
        # and a chunk read again from its offset is the chunk read in turn
        for (ci, offset, _), table in zip(cs.iter_file_chunks(ds, 0),
                                          cs.read_chunks(ds)):
            again = cs.read_chunk(ds, 0, ci, offset)
            assert again.nrows == table.nrows
            assert list(again.column("name")) == list(table.column("name"))
