"""A fixed pure-Python reference workload that measures the machine's
speed of the moment, so that ``wall_vs_ref`` can divide it out.

On a shared host the speed of the same interpreter on the same input
swings by a third from one second to the next and drifts by a quarter
over a minute, and a ten-seed set straddles that drift.  The reference
does the kinds of work dwkit's commands do (objects with slots, a heap,
dict accumulation, JSON lines, CSV writing and parsing, float conversion)
with the standard library only, so no change to dwkit can change its
cost.  ``Probe`` times it in the measured process, during and between
the calls.

    python3 perfbench/reference.py      # time a few samples
"""
from __future__ import annotations

import csv
import gc
import heapq
import io
import json
import random
import time

# records per sample; about 15 ms on a 2-vCPU cloud VM
RECORDS = 1500


class _Rec:
    __slots__ = ("key", "t", "size", "site")

    def __init__(self, key, t, size, site):
        self.key, self.t, self.size, self.site = key, t, size, site


def reference(n=RECORDS):
    """Run the reference once; returns a checksum that is the same on
    every call."""
    rng = random.Random(12345)
    recs = [_Rec(f"k{i:06d}", rng.random() * 1e3,
                 rng.lognormvariate(20.0, 0.8), i % 6) for i in range(n)]
    heap, per_site = [], {}
    for r in recs:
        heapq.heappush(heap, (r.t, r.key))
        per_site[r.site] = per_site.get(r.site, 0.0) + r.size
    lines = io.StringIO()
    while heap:
        t, key = heapq.heappop(heap)
        lines.write(json.dumps({"t": t, "key": key,
                                "rate": per_site[int(key[1:]) % 6] / (t + 1)},
                               sort_keys=True) + "\n")
    text = io.StringIO()
    w = csv.writer(text)
    for r in recs:
        w.writerow([r.key, f"{r.t:.4f}",
                    "NA" if r.site == 0 else f"{r.size:.1f}"])
    total = 0.0
    for row in csv.reader(io.StringIO(text.getvalue())):
        if row[2] != "NA":
            total += float(row[2]) + float(row[1])
    return round(total, 3), len(lines.getvalue())


class Probe:
    """Times the reference and keeps the samples until ``take``.

    A sample is the reference's CPU time on the calling thread, so that
    when it runs inside a call that has pool threads, their share of the
    interpreter lock does not count.  The cyclic collector is paused for a
    sample: a collection of the caller's heap would otherwise land in it."""

    def __init__(self):
        self.samples = []
        self._checksum = None

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.thread_time()
            checksum = reference()
            dt = time.thread_time() - t0
        finally:
            if enabled:
                gc.enable()
        if self._checksum is None:
            self._checksum = checksum
        elif checksum != self._checksum:
            raise RuntimeError(f"reference checksum {checksum} != "
                               f"{self._checksum}")
        self.samples.append(dt)
        return dt

    def take(self):
        samples, self.samples = self.samples, []
        return samples


if __name__ == "__main__":
    probe = Probe()
    for _ in range(5):
        print(f"{probe.sample():.4f} s")
