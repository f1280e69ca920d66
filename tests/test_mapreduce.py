import json
import threading

import numpy as np
import pytest

from dwkit import chunkstore as cs
from dwkit.errors import MalformedValueError, TaskFailedError
from dwkit.fixtures import server_records_path
from dwkit.mapreduce import (BUILTIN_REDUCERS, InjectedFailure,
                             make_column_emitter, make_ops_mapper,
                             map_count_rows, mapreduce, reduce_max,
                             reduce_mean, reduce_op, reduce_sum, write_log)


def open_sample(chunk_size=3):
    return cs.open_datastore(server_records_path(), chunk_size=chunk_size)


def as_dict(table):
    return dict(zip(table.column("key"), table.column("value")))


class TestOracles:
    def test_count_rows(self):
        res = mapreduce(open_sample(), map_count_rows, reduce_sum)
        assert as_dict(res.table) == {"rows": 8}

    def test_mean_delay(self):
        res = mapreduce(open_sample(), make_column_emitter("Delay"),
                        reduce_mean)
        assert as_dict(res.table)["Delay"] == pytest.approx(15.875)

    def test_max_elapsed(self):
        res = mapreduce(open_sample(),
                        make_column_emitter("ActualElapsedTime"),
                        reduce_max)
        assert as_dict(res.table)["ActualElapsedTime"] == 155

    def test_missing_values_skipped(self):
        # ExtraTime is all-NA, so the emitter yields nothing at all
        def count(key, values):
            return len(values)
        res = mapreduce(open_sample(), make_column_emitter("ExtraTime"),
                        count)
        assert res.table.nrows == 0

    def test_multi_key_sorted_output(self):
        def by_tail(table):
            for v in table.column("Delay", skip_missing=True):
                yield ("late" if v > 10 else "early"), 1
        res = mapreduce(open_sample(), by_tail, reduce_sum)
        assert list(res.table.column("key")) == ["early", "late"]
        assert as_dict(res.table) == {"early": 4, "late": 4}


class TestChunkInvariance:
    @pytest.mark.parametrize("chunk_size", [1, 3, 8, 100])
    def test_same_answer(self, chunk_size):
        res = mapreduce(open_sample(chunk_size),
                        make_column_emitter("Delay"), reduce_mean)
        assert as_dict(res.table)["Delay"] == pytest.approx(15.875)

    def test_tasks_run_on_the_callers_thread(self):
        threads = set()

        def map_fn(table):
            threads.add(threading.get_ident())
            yield "rows", table.nrows

        def reduce_fn(key, values):
            threads.add(threading.get_ident())
            return sum(values)

        res = mapreduce(open_sample(1), map_fn, reduce_fn)
        assert as_dict(res.table) == {"rows": 8}
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

        res = mapreduce(open_sample(), make_column_emitter("Delay"),
                        reduce_mean, fail_injector=injector)
        assert len(hits) == 2
        assert as_dict(res.table)["Delay"] == pytest.approx(15.875)
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

        res = mapreduce(open_sample(), flaky_map, reduce_sum)
        # the failed chunk (the 2-row one) was re-read and mapped again
        assert sorted(seen) == [2, 2, 3, 3]
        assert as_dict(res.table) == {"rows": 8}

    def test_permanent_failure_raises(self):
        def injector(kind, task_id, attempt):
            return kind == "reduce"
        with pytest.raises(TaskFailedError):
            mapreduce(open_sample(), map_count_rows, reduce_sum,
                      attempt_cap=2, fail_injector=injector)

    def test_attempt_cap_respected(self):
        attempts = []

        def injector(kind, task_id, attempt):
            if kind == "map" and task_id == "map-0-0":
                attempts.append(attempt)
                return True
            return False

        with pytest.raises(TaskFailedError):
            mapreduce(open_sample(), map_count_rows, reduce_sum,
                      attempt_cap=4, fail_injector=injector)
        assert attempts == [1, 2, 3, 4]

    def test_dwkit_error_is_not_retried(self):
        calls = []

        def bad_map(table):
            calls.append(table.nrows)
            raise MalformedValueError("x", "integer", "test")
            yield

        with pytest.raises(MalformedValueError):
            mapreduce(open_sample(), bad_map, reduce_sum)
        assert len(calls) == 1


class TestSchedulerLog:
    def test_barrier_separates_phases(self):
        res = mapreduce(open_sample(), map_count_rows, reduce_sum)
        kinds = [e["kind"] for e in res.log]
        barrier = kinds.index("barrier")
        assert all(k.startswith("map-") for k in kinds[:barrier])
        assert all(k.startswith("reduce-") for k in kinds[barrier + 1:])
        assert res.log[barrier]["maps"] == 3

    def test_log_sequence_numbers(self):
        res = mapreduce(open_sample(), map_count_rows, reduce_sum)
        assert [e["seq"] for e in res.log] == list(range(len(res.log)))

    def test_log_written_to_file(self, tmp_path):
        path = tmp_path / "sched.jsonl"
        res = mapreduce(open_sample(), map_count_rows, reduce_sum)
        write_log(res.log, str(path))
        lines = path.read_text().splitlines()
        assert [json.loads(l) for l in lines] == res.log

    def test_single_worker_log_is_deterministic(self, tmp_path):
        logs = []
        for _ in range(2):
            res = mapreduce(open_sample(), map_count_rows, reduce_sum)
            logs.append(res.log)
        assert logs[0] == logs[1]


def test_injected_failure_is_reported_in_log():
    def injector(kind, task_id, attempt):
        return kind == "map" and task_id == "map-0-1" and attempt == 1
    res = mapreduce(open_sample(), map_count_rows, reduce_sum,
                    fail_injector=injector)
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
        # i is an integer column whose chunks are int64 or, where a value
        # is missing, float64; r holds reals whose sum depends on order
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
        fused = dict(mapreduce(ds, make_ops_mapper(ops), reduce_op).pairs)
        assert fused["count"] == mapreduce(
            ds, map_count_rows, reduce_sum).pairs[0][1] == 200
        for key, reducer, column in ops[1:]:
            (_, want), = mapreduce(ds, make_column_emitter(column),
                                   BUILTIN_REDUCERS[reducer]).pairs
            assert type(fused[key]) is type(want), key
            assert fused[key] == want, key

    def test_one_partial_per_op_per_chunk(self):
        ds = open_sample(3)
        ops = [("count", "count", None), ("mean:Delay", "mean", "Delay"),
               ("max:ExtraTime", "max", "ExtraTime")]
        res = mapreduce(ds, make_ops_mapper(ops), reduce_op)
        emitted = [list(make_ops_mapper(ops)(t)) for t in cs.read_chunks(ds)]
        # the all-missing column emits nothing; the others one item each
        assert [[k for k, _ in pairs] for pairs in emitted] == \
            [["count", "mean:Delay"]] * 3
        assert dict(res.pairs) == {"count": 8, "mean:Delay": 15.875}

    def test_sum_folds_sequentially(self):
        # each 1.0 added to 1e16 rounds away in a left fold; np.sum adds
        # in interleaved partial sums and keeps them
        values = np.array([1e16] + [1.0] * 15)
        folded = reduce_op("sum:x", [values[:4], values[4:]])
        assert folded == reduce_sum("x", list(values)) == 1e16
        assert folded != np.sum(values)
