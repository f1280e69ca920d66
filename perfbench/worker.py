"""The measured process: runs one workload's CLI calls through
``dwkit.cli.main`` in a loop, checks every output, and records each call.

    python3 perfbench/worker.py --workload NAME --dir WORKDIR \\
        --seconds N --trace 0|1 --workers K

``WORKDIR`` holds the generated inputs and ``facts.json``.  As it goes,
the worker appends one JSON line per CLI call to ``ops.jsonl``, rewrites
``worker.json`` (peak RSS, set-up samples) and, when tracing, appends the
finished spans to ``spans.jsonl``, so a killed worker leaves the figures
of the iterations it finished.  Set-up samples (a fresh interpreter
importing ``dwkit.cli``) are spread over the run.

An untraced run also times the reference workload (``reference.py``)
every ``PROBE_PERIOD_S`` during a call, and in a short burst before the
first call and after every call too short to hold ``MIN_PROBES`` samples.
A call's recorded time excludes the samples taken inside it; each call's
line carries its samples and the burst after it.

Every call runs under a wall-clock budget.  A call that overruns it is
interrupted, counted as a failed op, and the loop moves on.  The worker
ends by ``HANG_BUDGET_S + MIN_BUDGET_S`` after its measuring time, however
many calls hang.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import resource
import signal
import subprocess
import sys
import time

from reference import Probe

# wall-clock budget of one CLI call or set-up sample; a call never runs
# past the measuring time plus this, except by MIN_BUDGET_S
HANG_BUDGET_S = 60.0
MIN_BUDGET_S = 1.0
# set-up samples per untraced run, spread over its measuring time
SETUP_SAMPLES = 7
# an untraced run times the reference this often during a call; a call
# with fewer than MIN_PROBES samples is followed by BURST samples
PROBE_PERIOD_S = 0.25
MIN_PROBES = 4
BURST = 3


class CallTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no ``except Exception`` in
    the program under test can swallow it."""


def _rchar():
    try:
        with open("/proc/self/io") as fh:
            for line in fh:
                if line.startswith("rchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def setup_sample(budget):
    """Seconds a fresh interpreter takes to import dwkit.cli.  The child
    times the import itself: waiting on a child with a timeout polls in
    steps of up to 50 ms, far coarser than the differences to be seen."""
    out = subprocess.run(
        [sys.executable, "-c", "import time; t0 = time.perf_counter(); "
         "import dwkit.cli; print(time.perf_counter() - t0)"],
        check=True, capture_output=True, text=True, timeout=budget)
    return float(out.stdout)


def reference_burst(probe):
    """``BURST`` reference samples, after the same ``gc.collect()`` as a
    call."""
    gc.collect()
    for _ in range(BURST):
        probe.sample()
    return probe.take()


def write_info(workdir, setup, refs_first, dwkit_file):
    with open(os.path.join(workdir, "worker.json"), "w") as fh:
        json.dump({"peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "setup_walls_s": setup, "refs_before_first_s": refs_first,
            "dwkit_file": dwkit_file}, fh)


def _line_count(path):
    n = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            n += block.count(b"\n")
    return n


def _close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(b))


# --- workloads: the calls of one iteration, and the cross-check calls ---
# A call is (kind, argv, check, csv_facts).  A check takes (report,
# outdir, state) and returns a list of failure messages; ``state`` carries
# values between the calls of one run.  Cross-check calls run once, after
# the loop and after peak RSS is read, so that checks can compare against
# another command without that command's time or memory counting.

def _scan(facts, out, workers):
    def check(r, _outdir, _state):
        res = r["results"]["results"]
        bad = []
        if res.get("count") != facts["count"]:
            bad.append(f"count {res.get('count')} != {facts['count']}")
        if res.get("max:ActualElapsedTime") != facts["max_ActualElapsedTime"]:
            bad.append(f"max {res.get('max:ActualElapsedTime')} != "
                       f"{facts['max_ActualElapsedTime']}")
        if not _close(res.get("mean:Delay", math.nan),
                      facts["mean_Delay"], 1e-9):
            bad.append(f"mean {res.get('mean:Delay')} != "
                       f"{facts['mean_Delay']}")
        return bad
    argv = ["mapreduce", "--input", facts["csv"], "--op", "count",
            "--op", "mean:Delay", "--op", "max:ActualElapsedTime",
            "--chunk-size", "1000", "--workers", str(workers),
            "--out", os.path.join(out, "mapreduce")]
    return [("mapreduce", argv, check, facts)], []


def _simulate(facts, out, mode):
    def check(r, outdir, state):
        res = r["results"]
        bad = []
        if res["submitted"] != facts["transfers"]:
            bad.append(f"{mode}: submitted {res['submitted']} != "
                       f"{facts['transfers']}")
        if res["completed"] + res["dropped"] != res["submitted"]:
            bad.append(f"{mode}: completed + dropped != submitted")
        if res["drop_rate_from_log"] != res["drop_rate"]:
            bad.append(f"{mode}: drop_rate_from_log "
                       f"{res['drop_rate_from_log']} != drop_rate "
                       f"{res['drop_rate']}")
        lines = _line_count(os.path.join(outdir, "events.jsonl"))
        if lines != res["events"]:
            bad.append(f"{mode}: events.jsonl has {lines} lines, "
                       f"report says {res['events']}")
        state[mode] = res["drop_rate"]
        if "managed" in state and "lossy" in state and not (
                state["managed"] < state["lossy"]):
            bad.append(f"managed drop rate {state['managed']} is not "
                       f"below lossy {state['lossy']}")
        return bad
    cli_mode = "managed" if mode == "managed" else "lossy-priority-baseline"
    argv = ["simulate", "--scenario", facts["scenario"], "--mode", cli_mode,
            "--out", os.path.join(out, mode)]
    return (f"simulate-{mode}", argv, check, None)


def _managed(facts, out, _workers):
    return ([_simulate(facts, out, "managed")],
            [_simulate(facts, out, "lossy")])


def _lossy(facts, out, _workers):
    return ([_simulate(facts, out, "lossy")],
            [_simulate(facts, out, "managed")])


def _warehouse(facts, out, _workers):
    def check_design(r, _outdir, _state):
        got = sorted(sorted(f) for f in r["results"]["factors"])
        if got != sorted(facts["blocks"]):
            return [f"factors {got} != planted blocks {facts['blocks']}"]
        return []

    def check_regress(r, outdir, _state):
        res = r["results"]
        bad = []
        for name, want in facts["coefficients"].items():
            have = res["coefficients"].get(name, math.nan)
            if not _close(have, want, 1e-8):
                bad.append(f"coefficient {name} {have} != {want}")
        anova = res["anova"]
        if not _close(anova["ss_regression"] + anova["ss_residual"],
                      facts["ss_total"], 1e-8):
            bad.append(f"ss_regression + ss_residual != ss_total "
                       f"{facts['ss_total']}")
        for name in facts["predictors"] + facts["flags"]:
            rows = _line_count(os.path.join(outdir, f"factor_{name}.csv")) - 1
            if rows != facts["rows"]:
                bad.append(f"factor_{name}.csv has {rows} rows")
        return bad
    preds = facts["predictors"] + facts["flags"]
    return [
        ("design-schema", ["design-schema", "--input", facts["csv"],
                           "--threshold", "0.7",
                           "--out", os.path.join(out, "design-schema")],
         check_design, facts),
        ("regress", ["regress", "--input", facts["csv"],
                     "--response", facts["response"],
                     "--predictors", ",".join(preds),
                     "--encode", ",".join(facts["flags"]),
                     "--out", os.path.join(out, "regress")],
         check_regress, facts),
    ], []


WORKLOADS = {"mapreduce-scan": _scan,
             "placement-managed": _managed,
             "placement-lossy": _lossy,
             "warehouse-fit": _warehouse}


def run_call(cli, argv, budget, probe):
    """One CLI call under a wall-clock budget: (seconds, probe samples,
    error or None).  A SIGALRM every ``PROBE_PERIOD_S`` checks the budget
    and, given a ``probe``, takes a reference sample; the seconds returned
    exclude the samples."""
    deadline = time.perf_counter() + budget
    sampling = []

    def on_alarm(_signum, _frame):
        if time.perf_counter() >= deadline:
            raise CallTimeout
        if probe is not None and not sampling:
            sampling.append(True)
            try:
                probe.sample()
            finally:
                sampling.clear()

    signal.signal(signal.SIGALRM, on_alarm)
    t0 = time.perf_counter()
    error = None
    try:
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            with contextlib.redirect_stdout(None):
                rc = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if rc != 0:
            error = f"exit code {rc}"
    except CallTimeout:
        error = f"exceeded hang budget {budget:.1f} s"
    except Exception as exc:   # a crash is a failed op, not a dead run
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    samples = probe.take() if probe is not None else []
    return wall - sum(samples), samples, error


def check_output(kind, argv, check, state, digests):
    """Failure messages for the output of a call that exited cleanly."""
    outdir = argv[argv.index("--out") + 1]
    try:
        with open(os.path.join(outdir, "report.json"), "rb") as fh:
            raw = fh.read()
        problems = []
        digest = hashlib.sha256(raw).hexdigest()
        if digests.setdefault(kind, digest) != digest:
            problems.append("report.json differs from the first call of "
                            "this kind")
        return problems + check(json.loads(raw), outdir, state)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"output unreadable: {exc!r}"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, required=True)
    args = ap.parse_args(argv)

    import dwkit
    import dwkit.cli as cli
    with open(os.path.join(args.dir, "facts.json")) as fh:
        facts = json.load(fh)
    calls, cross_checks = WORKLOADS[args.workload](
        facts, os.path.join(args.dir, "out"), args.workers)

    tracer = span_file = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        span_file = open(os.path.join(args.dir, "spans.jsonl"), "w")
        tracer.write_meta(span_file, {"workload": args.workload,
                                      "workers": args.workers})
    ops = open(os.path.join(args.dir, "ops.jsonl"), "w")
    state, digests, setup = {}, {}, []
    probe = None if tracer else Probe()
    start = time.perf_counter()
    deadline = start + args.seconds + HANG_BUDGET_S

    def budget():
        return max(MIN_BUDGET_S, min(HANG_BUDGET_S,
                                     deadline - time.perf_counter()))

    def op(call, iteration, traced):
        kind, cargv, check, csv_facts = call
        # the simulator's objects form reference cycles; a call should not
        # pay for collecting an earlier call's, as a fresh CLI process
        # would not, so they are collected outside any timing
        gc.collect()
        span = rchar0 = None
        if traced:
            span = tracer.start("cli.main", kind=kind)
            rchar0 = _rchar()
        start_s = time.perf_counter() - start
        wall, probes, error = run_call(
            cli, cargv, budget(), probe if iteration is not None else None)
        if traced:
            tracer.end(span)
            rchar1 = _rchar()
            if csv_facts is not None:
                span.attrs.update(csv_bytes=csv_facts["csv_bytes"],
                                  csv_rows=csv_facts["rows"])
            if rchar0 is not None and rchar1 is not None:
                span.attrs["rchar"] = rchar1 - rchar0
        problems = ([] if error is not None
                    else check_output(kind, cargv, check, state, digests))
        refs = (reference_burst(probe) if probe is not None
                and iteration is not None and len(probes) < MIN_PROBES
                else [])
        ops.write(json.dumps({
            "iteration": iteration, "traced": traced, "kind": kind,
            "start_s": start_s, "wall_s": wall, "error": error,
            "check_failures": problems, "probes_s": probes,
            "refs_after_s": refs}) + "\n")
        ops.flush()
        return wall

    def setup_due(target):
        return (not tracer and len(setup) < target
                and time.perf_counter() < deadline)

    # tracing alternates with untraced iterations, so one run gives both
    # the per-layer spans and the tracing overhead
    min_iterations = 2 if tracer else 1
    iteration, last = 0, 0.0
    refs_first = [] if tracer else reference_burst(probe)
    while time.perf_counter() < deadline and (
            iteration < min_iterations
            or time.perf_counter() - start + last <= args.seconds):
        it_start = time.perf_counter()
        traced = tracer is not None and iteration % 2 == 1
        # set-up samples are spread evenly over the measuring time
        while setup_due(min(SETUP_SAMPLES, 1 + int(
                (SETUP_SAMPLES - 1) * (it_start - start) / args.seconds))):
            setup.append(setup_sample(budget()))
        it_span = tracer.start("iteration") if tracer else None
        if traced:
            tracer.install(dwkit)
        wall = sum(op(call, iteration, traced) for call in calls)
        if traced:
            tracer.uninstall()
        if tracer:
            it_span.attrs.update(traced=traced, wall_s=wall)
            tracer.end(it_span)
            tracer.flush(span_file)
        write_info(args.dir, setup, refs_first, dwkit.__file__)
        last = time.perf_counter() - it_start
        iteration += 1
    while setup_due(SETUP_SAMPLES):
        setup.append(setup_sample(budget()))
    # peak RSS is final here: the cross-check calls' memory does not count
    write_info(args.dir, setup, refs_first, dwkit.__file__)
    for call in cross_checks:
        op(call, None, False)
    ops.close()
    if span_file:
        span_file.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
