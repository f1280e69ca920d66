"""Seeded streaming input generators for the dwkit benchmark.

Each generator writes one workload's inputs to disk row by row and returns
the facts the correctness checks compare against (counts, extrema, exact
sums, planted structure, an independent least-squares solve).  The facts
come from the generator's own bookkeeping, never from dwkit, so a later
fix in dwkit cannot invalidate them.

Run as a script it writes ``facts.json`` beside the inputs:

    python3 perfbench/gen.py --workload mapreduce-scan --seed 1 --out DIR

The benchmark runs it in its own process, so the process that runs the
measured CLI calls never holds the generated inputs.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os

import numpy as np

# --- mapreduce-scan: a server_records.csv-shaped table ---

SCAN_ROWS = 50_000
SCAN_HEADER = ["ServerNum", "TailNum", "ActualElapsedTime",
               "CRSElapsedTime", "ExtraTime", "Delay"]


def gen_scan(rng, out):
    """Integer and real columns, a text column, and real columns with
    ``NA`` cells.  Reals always carry a decimal point, so schema inference
    on the first chunk cannot mistake them for integers."""
    path = os.path.join(out, "records.csv")
    delays, max_elapsed = [], None
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SCAN_HEADER)
        for _ in range(SCAN_ROWS):
            crs = int(rng.integers(30, 400))
            elapsed = max(1, crs + int(rng.integers(-20, 60)))
            max_elapsed = elapsed if max_elapsed is None else max(
                max_elapsed, elapsed)
            tail = ("'NA'" if rng.random() < 0.05 else
                    f"N{int(rng.integers(100, 999))}"
                    f"{chr(65 + int(rng.integers(26)))}"
                    f"{chr(65 + int(rng.integers(26)))}")
            extra = ("NA" if rng.random() < 0.7
                     else f"{rng.exponential(15.0):.2f}")
            if rng.random() < 0.1:
                delay = "NA"
            else:
                delay = f"{rng.normal(12.0, 30.0):.2f}"
                delays.append(float(delay))
            w.writerow([int(rng.integers(1000, 9999)), tail, elapsed, crs,
                        extra, delay])
    return {
        "csv": path, "csv_bytes": os.path.getsize(path), "rows": SCAN_ROWS,
        "count": SCAN_ROWS, "max_ActualElapsedTime": max_elapsed,
        "mean_Delay": math.fsum(delays) / len(delays),
        "delay_values": len(delays),
    }


# --- placement-managed, placement-lossy: an overloaded six-site
# federation with outages ---

SITES = 6
SITE_BW = 5e9              # bytes/s, ingress and egress of every site
TRANSFERS = 1980
MEAN_SIZE = 20e9           # bytes
SIZE_SIGMA = 0.8           # of the log-normal transfer sizes
OFFERED_LOAD = 1.05        # offered bytes/s over aggregate egress bytes/s
WINDOWS = 33               # arrival windows, 60 transfers in each: every
                           # ordered pair of the six sites twice
OUTAGES = 40
SITE_OUTAGES = 24          # the rest are link-downs
OUTAGE_SHARE = 0.05        # of the horizon; twice the spacing, so they overlap
QUEUE_CAPACITY = 16        # lossy-priority-baseline queue bound


def gen_federation(rng, out):
    """Poisson arrivals at a fixed offered load, and overlapping outages.

    The seed varies arrival times, sizes, routes and outage targets, but
    not the totals that set how much work a run does.  Near saturation a
    random walk in the arrival count would swing the backlog, and with it
    the event count, from seed to seed; so every window of the horizon gets
    the same number of arrivals and the same offered bytes, every ordered
    site pair carries the same number of transfers in every window, and
    outages have one duration and one start per stratum of the horizon."""
    sites = [f"site{i}" for i in range(SITES)]
    per_window = TRANSFERS // WINDOWS
    horizon = MEAN_SIZE * TRANSFERS / (OFFERED_LOAD * SITE_BW * SITES)
    span = horizon / WINDOWS
    # a Poisson process conditioned on the same count in every window is
    # uniform within each window
    arrivals = np.concatenate([np.sort(rng.uniform(w * span, (w + 1) * span,
                                                   per_window))
                               for w in range(WINDOWS)])
    sizes = rng.lognormal(0.0, SIZE_SIGMA, (WINDOWS, per_window))
    sizes = np.round(sizes * (MEAN_SIZE * per_window
                              / sizes.sum(axis=1, keepdims=True))).ravel()
    path = os.path.join(out, "scenario.json")
    with open(path, "w") as fh:
        head = {"schema_version": 1,
                "sites": [{"id": s, "capacity": "1PB",
                           "ingress_bw": SITE_BW, "egress_bw": SITE_BW}
                          for s in sites],
                "policy": {"mode": "managed", "retry_limit": 3,
                           "queue_capacity": QUEUE_CAPACITY}}
        fh.write(json.dumps(head)[:-1] + ', "transfers": [\n')
        pairs = [(a, b) for a in range(SITES) for b in range(SITES)
                 if a != b]
        routes = np.concatenate([
            rng.permutation(np.arange(per_window) % len(pairs))
            for _ in range(WINDOWS)])
        for i in range(TRANSFERS):
            src, dst = pairs[routes[i]]
            fh.write(("" if i == 0 else ",\n") + json.dumps({
                "at": round(float(arrivals[i]), 6), "id": f"t{i:05d}",
                "source": sites[src], "dest": sites[dst],
                "size": float(sizes[i]), "owner": "etl",
                "priority": int(rng.integers(0, 10))}))
        fh.write('\n], "failures": [\n')
        # every site goes down equally often; which site, and when within
        # its stratum, is up to the seed
        down = rng.permutation(np.arange(SITE_OUTAGES) % SITES)
        kinds = rng.permutation(np.arange(OUTAGES) < SITE_OUTAGES)
        for i in range(OUTAGES):
            at = round(float((i + rng.random()) * horizon / OUTAGES), 6)
            if kinds[i]:
                kind, target = "site-down", sites[down[kinds[:i].sum()]]
            else:
                a, b = pairs[int(rng.integers(len(pairs)))]
                kind, target = "link-down", [sites[a], sites[b]]
            duration = round(float(horizon * OUTAGE_SHARE), 6)
            fh.write(("" if i == 0 else ",\n") + json.dumps({
                "kind": kind, "target": target, "at": at,
                "duration": duration}))
        fh.write("\n]}\n")
    return {"scenario": path, "transfers": TRANSFERS, "sites": SITES,
            "site_bw": SITE_BW, "offered_load": OFFERED_LOAD,
            "offered_bytes": float(sizes.sum()), "horizon_s": float(horizon),
            "outages": OUTAGES, "outage_s": float(horizon * OUTAGE_SHARE),
            "queue_capacity": QUEUE_CAPACITY}


# --- warehouse-fit: a wide table with planted correlated blocks ---

FIT_ROWS = 10_000
BLOCKS = 12
BLOCK_SIZE = 8
# block strengths 0.885 .. 0.5: the 12 leading eigenvalues, (1 + 7 rho)
# each, explain ~72% of the variance of the 97 numeric columns, and the
# first 11 only ~68%, so a 0.7 threshold retains exactly one component
# per block
STRENGTHS = np.linspace(0.885, 0.5, BLOCKS)
FLAGS = ("flag_a", "flag_b", "flag_c")
RESPONSE = "y"


def gen_warehouse(rng, out):
    """Numeric columns in correlated blocks (shuffled column order), three
    yes/no flags and a response that depends weakly on one column from
    each of eight blocks and on the flags."""
    ncols = BLOCKS * BLOCK_SIZE
    names = [f"m{j:03d}" for j in range(ncols)]
    member = rng.permutation(ncols)          # column -> slot in block order
    blocks = [sorted(names[j] for j in range(ncols)
                     if member[j] // BLOCK_SIZE == b) for b in range(BLOCKS)]
    block_of = member // BLOCK_SIZE
    rho = STRENGTHS[block_of]
    loc = rng.uniform(-50, 50, ncols)
    scale = rng.uniform(0.5, 20, ncols)
    predictors = [blocks[b][0] for b in range(8)]
    pred_idx = [names.index(p) for p in predictors]
    beta = rng.uniform(0.05, 0.1, len(predictors)) * np.where(
        rng.random(len(predictors)) < 0.5, -1, 1)
    gamma = rng.uniform(0.3, 0.6, len(FLAGS))

    # block factors with exactly zero sample correlation: sampling noise
    # between the factors is summed over a whole block and would otherwise
    # rotate the leading eigenvectors of blocks of similar strength together
    latent = rng.standard_normal((FIT_ROWS, BLOCKS))
    latent, _ = np.linalg.qr(latent - latent.mean(axis=0))
    latent *= math.sqrt(FIT_ROWS)
    design = np.empty((FIT_ROWS, 1 + len(predictors) + len(FLAGS)))
    y_all = np.empty(FIT_ROWS)
    path = os.path.join(out, "warehouse.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(names + list(FLAGS) + [RESPONSE])
        for i in range(FIT_ROWS):
            e = rng.standard_normal(ncols)
            std = np.sqrt(rho) * latent[i, block_of] + np.sqrt(1 - rho) * e
            cells = [f"{v:.9g}" for v in loc + scale * std]
            flags = rng.random(len(FLAGS)) < 0.5
            y = (10.0 + beta @ std[pred_idx] + gamma @ flags
                 + rng.standard_normal())
            y_cell = f"{y:.9g}"
            w.writerow(cells + ["yes" if f else "no" for f in flags]
                       + [y_cell])
            design[i, 0] = 1.0
            design[i, 1:1 + len(predictors)] = [float(cells[j])
                                                for j in pred_idx]
            design[i, 1 + len(predictors):] = flags
            y_all[i] = float(y_cell)

    # independent solve: Householder QR, not dwkit's SVD-based lstsq
    q, r = np.linalg.qr(design)
    coef = np.linalg.solve(r, q.T @ y_all)
    names_out = ["intercept"] + predictors + list(FLAGS)
    return {
        "csv": path, "csv_bytes": os.path.getsize(path), "rows": FIT_ROWS,
        "numeric_columns": ncols + 1, "blocks": blocks,
        "block_strengths": [float(s) for s in STRENGTHS],
        "response": RESPONSE, "predictors": predictors,
        "flags": list(FLAGS),
        "coefficients": dict(zip(names_out, map(float, coef))),
        "ss_total": math.fsum((y_all - y_all.mean()) ** 2),
    }


# workload -> generator; the two placement workloads share one scenario
GENERATORS = {"mapreduce-scan": gen_scan,
              "placement-managed": gen_federation,
              "placement-lossy": gen_federation,
              "warehouse-fit": gen_warehouse}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    facts = GENERATORS[args.workload](np.random.default_rng(args.seed),
                                      args.out)
    with open(os.path.join(args.out, "facts.json"), "w") as fh:
        json.dump(facts, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
