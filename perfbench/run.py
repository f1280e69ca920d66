"""dwkit benchmark: four CLI workloads, end-to-end metrics and per-layer
timings.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload in turn

Run it from anywhere; it measures the dwkit source tree next to it
(``src/dwkit``), with no install step.  One run:

1. generates the workload's inputs from ``--seed`` in a separate process
   (``gen.py``), which also records the facts the checks compare against;
2. starts the measured process (``worker.py``), which calls
   ``dwkit.cli.main`` with the workload's commands for ``--seconds``,
   checks every output and reads its own peak RSS; over the run it times
   a fresh interpreter importing ``dwkit.cli`` several times, and during
   and between calls a fixed reference workload (``reference.py``);
3. prints every metric by name with its unit, writes a result file with
   the machine facts and input parameters to
   ``.perfbench/results/BENCH_<workload>_seed<N>_trace<T>.json``, and
   prints the result as one JSON line last.

End-to-end metrics (``--trace 0``), on every workload:

- ``setup_s``: median import time of ``dwkit.cli`` in a fresh interpreter;
- ``wall_vs_ref``: the time of one iteration of the workload's calls in
  units of the time of a fixed reference workload (``reference.py``)
  timed during them, or just before and after calls too short for that,
  in the same process; the median over the run's iterations.  The ratio
  divides out the shared host's speed swings, which move both alike
  (``ref_ratios``);
- ``peak_rss_mb``: peak RSS of the process running the calls.

``wall_s`` (the median iteration time) and ``ref_s`` (the median
reference sample), the throughput of each command the workload runs in
its loop (``mapreduce_rows_per_s``, ``simulate_managed_transfers_per_s``,
...: input items over the command's median call) and ``failure_rate``
are printed and kept in the result file; failures reach the result line
as ``attempted``/``failed``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced iterations, writes the span file next to the result
file and reports the per-layer metrics derived from it (``spans.py``),
including the tracing overhead.  Layers a workload does not use read 0.

Workloads, and why each is here:

- ``mapreduce-scan``: ``mapreduce`` with three ops over a 5e4-row CSV in
  1000-row chunks.  The chunk engine does nearly all the work (chunk
  addressing, per-cell parsing, one pass per op, the shuffle, the thread
  pool); placement and linear algebra stay idle.
- ``placement-managed`` and ``placement-lossy``: ``simulate`` of one
  overloaded six-site federation with outages, in managed and in
  lossy-priority-baseline mode.  Only the simulator loop and event-log
  writing work; the two modes use the dispatch code differently, so a
  change that helps one mode and hurts the other shows in one of them.
  Each also runs the other mode once, untimed, to check that managed
  drops fewer transfers.
- ``warehouse-fit``: ``design-schema`` then ``regress`` on one wide
  1e4-row CSV with planted correlated blocks.  The chunk engine reads
  sequentially with no chunk re-addressing, so a chunk-index change should
  leave it unchanged; it is the only workload using ``schema_pca``,
  ``regress`` and the factor-CSV writes.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = tuple(worker.WORKLOADS)
BLAS_THREADS = "1"
GEN_TIMEOUT_S = 120
# the worker ends by HANG_BUDGET_S + MIN_BUDGET_S after its measuring time
# (worker.py); this adds its start-up and the checks of its last call.
# The kill only catches a worker that cannot be interrupted (a stuck pool
# thread).
WORKER_GRACE_S = worker.HANG_BUDGET_S + worker.MIN_BUDGET_S + 15

# command -> its throughput: (name, item count in facts.json); printed and
# recorded, not part of the result line, since each applies to one workload
THROUGHPUTS = {
    "mapreduce": ("mapreduce_rows_per_s", "rows"),
    "simulate-managed": ("simulate_managed_transfers_per_s", "transfers"),
    "simulate-lossy": ("simulate_lossy_transfers_per_s", "transfers"),
    "design-schema": ("design_schema_rows_per_s", "rows"),
    "regress": ("regress_rows_per_s", "rows"),
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def machine_facts(workers):
    import numpy
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": BLAS_THREADS, "workers": workers}


def run_worker(workload, work, seconds, trace, workers, env):
    """Run the measured process; returns (ops, worker facts, killed)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--dir", work, "--seconds", str(seconds),
           "--trace", str(trace), "--workers", str(workers)]
    killed = False
    with open(os.path.join(work, "worker.err"), "w") as err:
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
        try:
            proc.wait(timeout=seconds + WORKER_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            killed = True
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if proc.returncode != 0 and not killed:
        with open(os.path.join(work, "worker.err")) as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(os.path.join(work, "ops.jsonl")) as fh:
        ops = [json.loads(line) for line in fh]
    # rewritten after every iteration, so a killed worker leaves the
    # figures of the iterations it finished
    try:
        with open(os.path.join(work, "worker.json")) as fh:
            info = json.load(fh)
    except FileNotFoundError:
        raise RuntimeError("the worker finished no iteration") from None
    if os.path.dirname(os.path.abspath(info["dwkit_file"])) != \
            os.path.join(SRC, "dwkit"):
        raise RuntimeError(f"measured {info['dwkit_file']}, not the "
                           f"tree under {SRC}")
    return ops, info, killed


def iterations(ops):
    """The calls of each measured iteration, in order."""
    its = {}
    for op in ops:
        if op["iteration"] is not None:
            its.setdefault(op["iteration"], []).append(op)
    return [its[k] for k in sorted(its)]


def ref_ratios(its, refs_first):
    """Each iteration's time over the mean reference sample that saw the
    same conditions: the samples taken during its calls, or, when there
    are fewer than ``MIN_PROBES`` of those, the bursts just before and
    after them.  A call with pool threads slows the samples inside it by
    a quarter against a burst between calls, and by an amount that varies
    from run to run: over five seeds of mapreduce-scan the ratio spread
    0.02 (quartile distance over median) on the samples inside the calls
    and 0.16 on the bursts.  A call's time sums the machine's speed over
    the call, so the mean follows it better than the median."""
    ratios, before = [], refs_first
    for it in its:
        refs = [w for op in it for w in op["probes_s"]]
        if len(refs) < worker.MIN_PROBES:
            refs = before + [w for op in it for w in op["refs_after_s"]]
        ratios.append(sum(op["wall_s"] for op in it) / statistics.mean(refs))
        before = it[-1]["refs_after_s"]
    return ratios


def end_to_end(ops, info, facts):
    """``wall_vs_ref`` is the median of ``ref_ratios`` over the run, and
    ``setup_s`` the median of the run's set-up samples.

    On a shared 2-vCPU machine the speed swings by a third within a tenth
    of a second and drifts by a quarter within a minute as neighbours load
    it, and a ten-seed set straddles the drift.  The reference samples
    during or next to a call see the same swings, and the ratio divides
    them out: over five seeds the median lossy call spread 0.30 (quartile
    distance over median) and its ratio 0.01.  Process CPU time is no
    steadier than wall time: it tracks wall within 1%, because the slow
    spells are not stolen time.  Every call and reference sample is kept
    in the result file."""
    its = iterations(ops)
    refs = info["refs_before_first_s"] + [
        w for it in its for op in it
        for w in op["probes_s"] + op["refs_after_s"]]
    metrics = {
        "setup_s": statistics.median(info["setup_walls_s"]),
        "wall_vs_ref": statistics.median(
            ref_ratios(its, info["refs_before_first_s"])),
        "peak_rss_mb": info["peak_rss_mb"],
    }
    walls = {}
    for it in its:
        for op in it:
            walls.setdefault(op["kind"], []).append(op["wall_s"])
    extra = {THROUGHPUTS[kind][0]: (facts[THROUGHPUTS[kind][1]]
                                    / statistics.median(v), "1/s")
             for kind, v in walls.items()}
    extra.update(
        wall_s=(statistics.median(sum(op["wall_s"] for op in it)
                                  for it in its), "s"),
        ref_s=(statistics.median(refs), "s"))
    summary = {kind: {"fastest_s": min(v), "median_s": statistics.median(v)}
               for kind, v in walls.items()}
    samples = {"setup_walls_s": info["setup_walls_s"],
               "refs_before_first_s": info["refs_before_first_s"],
               "calls": [[(op["kind"], op["start_s"], op["wall_s"],
                           op["probes_s"], op["refs_after_s"])
                          for op in it] for it in its]}
    return metrics, extra, summary, samples


def metric_units(trace):
    """Names and units of the metrics a run reports, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload, seed, seconds, trace):
    from spans import derive, read_spans

    workers = min(2, os.cpu_count() or 1)
    env = _env()
    tag = f"{workload}_seed{seed}_trace{trace}"
    work = os.path.join(WORKDIR, f"{tag}_{os.getpid()}")
    results_dir = os.path.join(WORKDIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    try:
        subprocess.run([sys.executable, os.path.join(HERE, "gen.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--out", work], env=env, check=True,
                       timeout=GEN_TIMEOUT_S)
        with open(os.path.join(work, "facts.json")) as fh:
            facts = json.load(fh)
        ops, info, killed = run_worker(workload, work, seconds, trace,
                                       workers, env)
        failed_ops = [op for op in ops if op["error"] or op["check_failures"]]
        attempted = len(ops) + killed
        failed = len(failed_ops) + killed
        if not iterations(ops):
            raise RuntimeError("the worker finished no iteration")
        if trace:
            span_file = os.path.join(results_dir, f"SPANS_{tag}.jsonl")
            shutil.copyfile(os.path.join(work, "spans.jsonl"), span_file)
            metrics = derive(read_spans(span_file))
            extra, summary, samples = {}, {}, {}
        else:
            metrics, extra, summary, samples = end_to_end(ops, info, facts)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = metric_units(trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           f"differ from BENCHMARK.json")
    facts.pop("csv", None)
    facts.pop("scenario", None)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "machine": machine_facts(workers), "inputs": facts,
        "iterations": len({op["iteration"] for op in ops} - {None}),
        "calls": summary, "samples": samples,
        "attempted": attempted, "failed": failed,
        "failure_rate": failed / attempted if attempted else 1.0,
        "failures": [{k: op[k] for k in ("iteration", "kind", "error",
                                         "check_failures")}
                     for op in failed_ops]
        + ([{"kind": "worker", "error": "killed after overrunning the "
             "run deadline"}] if killed else []),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "ungated": {k: {"value": v, "unit": unit}
                    for k, (v, unit) in extra.items()},
    }
    with open(os.path.join(results_dir, f"BENCH_{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def print_record(record):
    w = record["workload"]
    m = record["machine"]
    print(f"# {w} seed={record['seed']} trace={record['trace']} "
          f"iterations={record['iterations']} nproc={m['nproc']} "
          f"python={m['python']} numpy={m['numpy']} scipy={m['scipy']} "
          f"blas_threads={m['blas_threads']} workers={m['workers']}")
    print(f"# inputs: {json.dumps(record['inputs'], sort_keys=True)}")
    for name, v in {**record["metrics"],
                    **record["ungated"]}.items():
        print(f"{w} {name} = {v['value']:.6g} {v['unit']}")
    print(f"{w} failure_rate = {record['failure_rate']:.6g} "
          f"({record['failed']}/{record['attempted']} ops)")
    for f in record["failures"]:
        print(f"{w} FAILED {json.dumps(f)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dwkit", "cli.py")):
        print(f"perfbench: no dwkit source tree at {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace)
        print_record(record)
        records.append(record)
    prefix = len(records) > 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in records for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
