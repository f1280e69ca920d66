"""Span recording around dwkit's layer boundaries, and the per-layer
metrics derived from a span file.

The benchmark records spans from its own files: ``install`` replaces the
module attributes that dwkit resolves at call time (``chunkstore.read_chunk``,
``cli.run_mapreduce``, ``placement.PlacementSimulator.run``, ...) with timing
wrappers and ``uninstall`` puts the originals back.  Nothing inside dwkit
is edited.  Spans are kept in memory and appended to the span file between
iterations, so no file is written inside a timed call and a killed run
keeps the iterations it finished; ``derive`` computes every per-layer
metric from that file alone, so spans emitted by dwkit itself can later
replace the wrappers without a second timing path.

The span file is JSON lines: ``{"meta": ...}`` first, then one span per
line.  A span is ``{id, name, start, end, parent, thread, attrs}``; times are
``time.perf_counter`` seconds.  Spans opened on a pool thread with no open
span of their own take the innermost open span of the main thread as
their parent, which is the call that is waiting for them.
"""
from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "attrs",
                 "_cpu0")

    def as_dict(self):
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "thread": self.thread, "attrs": self.attrs}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []
        self._main = threading.main_thread()
        self._patched = []

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name, push=True, cpu=False, **attrs):
        stack = self._stack()
        span = Span()
        span.id = next(self._ids)
        span.name = name
        span.parent = (stack[-1].id if stack else
                       self._main_stack[-1].id if self._main_stack else None)
        span.thread = threading.get_ident()
        span.attrs = attrs
        span._cpu0 = time.thread_time() if cpu else None
        if push:
            stack.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span, pop=True):
        span.end = time.perf_counter()
        if span._cpu0 is not None:
            span.attrs["cpu_s"] = time.thread_time() - span._cpu0
        if pop:
            self._stack().pop()
        self.spans.append(span)

    @staticmethod
    def write_meta(fh, meta):
        fh.write(json.dumps({"meta": meta}) + "\n")
        fh.flush()

    def flush(self, fh):
        """Append the spans ended since the last flush, one JSON line each,
        and forget them.  Called between iterations, never inside a timed
        call."""
        for span in self.spans:
            fh.write(json.dumps(span.as_dict()) + "\n")
        fh.flush()
        self.spans.clear()

    # --- wrappers ---

    def timed(self, name, fn, after=None, cpu=False):
        """Wrap ``fn`` in a span; ``after(args, kwargs, result)`` returns
        attributes to record, and runs outside the span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.start(name, cpu=cpu)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                span.attrs.update(after(args, kwargs, result))
            return result
        return wrapper

    def timed_generator(self, name, fn):
        """Span from the first item to exhaustion.  The span is not pushed
        on the stack, because the consumer runs between items."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.start(name, push=False)
            try:
                yield from fn(*args, **kwargs)
            finally:
                self.end(span, pop=False)
        return wrapper

    def patch(self, obj, attr, replacement):
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, replacement)

    def uninstall(self):
        while self._patched:
            obj, attr, original = self._patched.pop()
            setattr(obj, attr, original)

    def install(self, dwkit):
        """Wrap the layer entry points of the imported ``dwkit`` package."""
        cli, chunkstore = dwkit.cli, dwkit.chunkstore
        placement, schema_pca = dwkit.placement, dwkit.schema_pca
        regress, report = dwkit.regress, dwkit.report

        def rows(_a, _k, table):
            return {"rows": table.nrows}

        self.patch(chunkstore, "open_datastore", self.timed(
            "chunkstore.open_datastore", chunkstore.open_datastore))
        self.patch(chunkstore, "iter_file_chunks", self.timed_generator(
            "chunkstore.iter_file_chunks", chunkstore.iter_file_chunks))
        self.patch(chunkstore, "read_chunk", self.timed(
            "chunkstore.read_chunk", chunkstore.read_chunk, rows, cpu=True))
        self.patch(chunkstore, "read_all", self.timed(
            "chunkstore.read_all", chunkstore.read_all, rows))

        run_mapreduce = cli.run_mapreduce

        def traced_mapreduce(ds, map_fn, reduce_fn, **kwargs):
            def map_with_span(table):
                span = self.start("mapreduce.map", cpu=True)
                try:
                    pairs = list(map_fn(table))
                finally:
                    self.end(span)
                span.attrs["pairs"] = len(pairs)
                return pairs

            def reduce_with_span(key, values):
                span = self.start("mapreduce.reduce", cpu=True,
                                  values=len(values))
                try:
                    return reduce_fn(key, values)
                finally:
                    self.end(span)
            return run_mapreduce(ds, map_with_span, reduce_with_span,
                                 **kwargs)

        def scheduler_counts(_a, _k, result):
            kinds = [ev["kind"] for ev in result.log]
            return {"attempts": sum(k.endswith("-start") for k in kinds),
                    "failures": sum(k.endswith("-failed") for k in kinds)}

        self.patch(cli, "run_mapreduce", self.timed(
            "mapreduce.mapreduce", functools.wraps(run_mapreduce)(
                traced_mapreduce), scheduler_counts))
        self.patch(cli, "write_log", self.timed(
            "mapreduce.write_log", cli.write_log))

        def file_bytes(args, _k, _result):
            return {"bytes": os.path.getsize(args[1])}

        def sim_outcome(args, _k, metrics):
            sim = args[0]
            return {"mode": sim.policy.mode, "events": len(sim.events),
                    "progress_events": sum(ev.kind == "transfer-progress"
                                           for ev in sim.events),
                    "submitted": metrics["submitted"],
                    "drop_rate": metrics["drop_rate"]}

        self.patch(placement, "build_simulator", self.timed(
            "placement.build_simulator", placement.build_simulator))
        self.patch(placement.PlacementSimulator, "run", self.timed(
            "placement.run", placement.PlacementSimulator.run, sim_outcome))
        self.patch(placement, "write_event_log", self.timed(
            "placement.write_event_log", placement.write_event_log,
            file_bytes))

        def corr_shape(args, _k, _result):
            n, p = args[0].values.shape
            return {"n": n, "p": p}

        self.patch(schema_pca, "design_schema", self.timed(
            "schema_pca.design_schema", schema_pca.design_schema))
        self.patch(schema_pca, "correlation_matrix", self.timed(
            "schema_pca.correlation_matrix", schema_pca.correlation_matrix,
            corr_shape))
        self.patch(schema_pca, "extract_factors", self.timed(
            "schema_pca.extract_factors", schema_pca.extract_factors))

        for name in ("encode_binary", "fit_model", "summarize", "anova",
                     "survey_identity_report", "factor_lines"):
            self.patch(regress, name, self.timed(
                f"regress.{name}", getattr(regress, name)))

        def report_bytes(_a, _k, paths):
            return {"bytes": sum(os.path.getsize(p) for p in paths.values())}

        def csv_bytes(args, _k, _result):
            return {"bytes": os.path.getsize(args[0])}

        self.patch(report, "emit_report", self.timed(
            "report.emit_report", report.emit_report, report_bytes))
        self.patch(report, "write_csv", self.timed(
            "report.write_csv", report.write_csv, csv_bytes))


# --- per-layer metrics from a span file ---

def _covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def _iteration_metrics(spans, children):
    by = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(name, key=None, where=None):
        # an attribute set after the call is missing if the call raised
        return sum((s["attrs"].get(key, 0) if key else dur(s))
                   for s in by.get(name, ()) if where is None or where(s))

    def self_time(name):
        return sum(dur(s) - _covered(s["start"], s["end"],
                                     [(c["start"], c["end"])
                                      for c in children.get(s["id"], ())])
                   for s in by.get(name, ()))

    ids = {s["id"]: s for s in spans}
    calls = by.get("cli.main", ())
    runs = {mode: [s for s in by.get("placement.run", ())
                   if s["attrs"].get("mode") == mode]
            for mode in ("managed", "lossy-priority-baseline")}

    def per_run(mode, key):
        # repeated runs of one scenario are identical; the median keeps
        # the exact value
        values = [s["attrs"][key] for s in runs[mode]]
        return statistics.median(values) if values else 0

    chunks = by.get("chunkstore.read_chunk", ())
    chunk_cpu = sum(s["attrs"]["cpu_s"] for s in chunks)
    managed = runs["managed"]
    corr = by.get("schema_pca.correlation_matrix", ())
    return {
        "chunkstore.open_s": total("chunkstore.open_datastore"),
        # read_all enumerates its file too; that time is read_all's
        "chunkstore.enumerate_s": total(
            "chunkstore.iter_file_chunks",
            where=lambda s: ids[s["parent"]]["name"]
            != "chunkstore.read_all"),
        "chunkstore.read_chunk_s": chunk_cpu,
        "chunkstore.read_chunk_wait_s": sum(map(dur, chunks)) - chunk_cpu,
        "chunkstore.read_chunk_calls": len(chunks),
        "chunkstore.read_all_s": total("chunkstore.read_all"),
        "chunkstore.bytes_read_per_input_byte": _ratio(
            sum(c["attrs"].get("rchar", 0) for c in calls
                if c["attrs"].get("csv_bytes")),
            sum(c["attrs"].get("csv_bytes", 0) for c in calls)),
        "chunkstore.rows_built_per_input_row": _ratio(
            total("chunkstore.read_chunk", "rows")
            + total("chunkstore.read_all", "rows"),
            sum(c["attrs"].get("csv_rows", 0) for c in calls)),
        "mapreduce.passes": len(by.get("mapreduce.mapreduce", ())),
        "mapreduce.map_s": total("mapreduce.map", "cpu_s"),
        "mapreduce.pairs_emitted": total("mapreduce.map", "pairs"),
        "mapreduce.reduce_s": total("mapreduce.reduce", "cpu_s"),
        "mapreduce.values_reduced": total("mapreduce.reduce", "values"),
        "mapreduce.self_s": self_time("mapreduce.mapreduce"),
        "mapreduce.task_attempts": total("mapreduce.mapreduce", "attempts"),
        "mapreduce.task_failures": total("mapreduce.mapreduce", "failures"),
        "mapreduce.write_log_s": total("mapreduce.write_log"),
        "placement.build_s": total("placement.build_simulator"),
        "placement.managed.run_s": sum(map(dur, managed)),
        "placement.lossy.run_s": sum(
            map(dur, runs["lossy-priority-baseline"])),
        "placement.managed.events": per_run("managed", "events"),
        "placement.lossy.events": per_run("lossy-priority-baseline",
                                          "events"),
        "placement.progress_events_per_transfer": _ratio(
            sum(s["attrs"]["progress_events"] for s in managed),
            sum(s["attrs"]["submitted"] for s in managed)),
        "placement.write_log_s": total("placement.write_event_log"),
        "placement.log_bytes": total("placement.write_event_log", "bytes"),
        "placement.managed.drop_rate": per_run("managed", "drop_rate"),
        "placement.lossy.drop_rate": per_run("lossy-priority-baseline",
                                             "drop_rate"),
        "schema_pca.corr_s": total("schema_pca.correlation_matrix"),
        "schema_pca.eig_s": total("schema_pca.extract_factors"),
        "schema_pca.design_self_s": self_time("schema_pca.design_schema"),
        # 2 n p^2 flops of a p x p cross-product over n rows, not measured
        "schema_pca.corr_gflop_computed": sum(
            2 * s["attrs"].get("n", 0) * s["attrs"].get("p", 0) ** 2
            for s in corr) / 1e9,
        "regress.encode_s": total("regress.encode_binary"),
        "regress.fit_s": total("regress.fit_model"),
        "regress.stats_s": (total("regress.summarize")
                            + total("regress.anova")
                            + total("regress.survey_identity_report")),
        "regress.factor_lines_s": total("regress.factor_lines"),
        "report.emit_s": total("report.emit_report"),
        "report.write_csv_s": total("report.write_csv"),
        "report.bytes_written": (total("report.emit_report", "bytes")
                                 + total("report.write_csv", "bytes")),
        "cli.self_s": self_time("cli.main"),
    }


def read_spans(path):
    """The span list of a span file."""
    with open(path) as fh:
        return [json.loads(line) for line in fh][1:]


def derive(spans):
    """Per-layer metrics of a span list: the median over traced
    iterations of each per-iteration figure, plus the tracing overhead:
    the median CLI wall of a traced iteration minus that of an untraced
    one."""
    ids = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def iteration_of(s):
        while s["parent"] is not None:
            s = ids[s["parent"]]
        return s["id"]

    members = {}
    for s in spans:
        if s["name"] != "iteration":
            members.setdefault(iteration_of(s), []).append(s)
    iterations = [s for s in spans if s["name"] == "iteration"]
    traced = [it for it in iterations if it["attrs"]["traced"]]
    if not traced or len(traced) == len(iterations):
        raise ValueError("the span file needs a traced and an untraced "
                         "iteration")
    per_iter = [_iteration_metrics(members.get(it["id"], []), children)
                for it in traced]
    metrics = {name: statistics.median(m[name] for m in per_iter)
               for name in per_iter[0]}

    def median_wall(flag):
        return statistics.median(it["attrs"]["wall_s"] for it in iterations
                                 if it["attrs"]["traced"] is flag)
    metrics["trace.overhead_s"] = median_wall(True) - median_wall(False)
    return metrics
