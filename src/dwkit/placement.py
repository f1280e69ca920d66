"""Deterministic discrete-event simulator for managed data placement.

Models a small federation of storage sites offering leased space
allocations with ACLs, bulk transfers over shared links, policy-driven
replication, and transient failure injection with retry.  Two service
modes are provided: ``managed`` (every accepted transfer is serviced,
retried through failures, never silently discarded) and
``lossy-priority-baseline`` (a single server drains a bounded priority
queue; overload evicts the lowest-priority job), so the drop-rate contrast
between the two designs can be measured on one scenario.

Outages are counted per kind and target: a site or link stays down until
the last overlapping outage of that kind ends, and a ``disk-overflow``
(which blocks inbound transfers only) never masks a ``site-down``.

Time is continuous (seconds).  Link bandwidth is shared equally among the
concurrent transfers on each site interface and recomputed at every event,
so completion times are exact and runs are byte-identical for identical
scenarios.
"""
from __future__ import annotations

import heapq
import json
import math
from collections import Counter
from dataclasses import dataclass, field

from .errors import (AclDeniedError, ConfigError, InsufficientSitesError,
                     UnknownSiteError)
from .units import (boolean, choice, integer, list_of, normalize, optional,
                    quantity, string, table)

_EPS_BYTES = 1e-6


@dataclass(frozen=True)
class StorageSite:
    id: str
    capacity: float
    ingress_bw: float
    egress_bw: float

    def __post_init__(self):
        if self.capacity <= 0 or self.ingress_bw <= 0 or self.egress_bw <= 0:
            raise ValueError("capacity and bandwidths must be > 0")


@dataclass
class Allocation:
    id: str
    site: str
    size: float
    duration: float
    acl: tuple
    created_at: float
    active: bool = True

    @property
    def expires_at(self):
        return self.created_at + self.duration

    def permits(self, principal, permission):
        return (principal, permission) in self.acl


@dataclass
class TransferJob:
    id: str
    source: str
    dest: str
    size: float
    owner: str
    priority: int = 0
    order: int = 0
    allocation: str | None = None
    dataset: str | None = None   # set for replication transfers
    state: str = "queued"
    bytes_moved: float = 0.0
    retries: int = 0
    submitted_at: float = 0.0
    completed_at: float | None = None

    @property
    def remaining(self):
        return self.size - self.bytes_moved


@dataclass(frozen=True)
class PlacementPolicy:
    mode: str = "managed"            # or "lossy-priority-baseline"
    replica_count: int = 1
    ordering: str = "fifo"           # or "by-request-order-field"
    retry_limit: int = 3
    queue_capacity: int | None = None   # baseline mode only

    def __post_init__(self):
        if self.mode not in ("managed", "lossy-priority-baseline"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.ordering not in ("fifo", "by-request-order-field"):
            raise ValueError(f"unknown ordering {self.ordering!r}")
        if self.replica_count < 1 or self.retry_limit < 0:
            raise ValueError("replica_count >= 1 and retry_limit >= 0")


@dataclass(frozen=True)
class SimEvent:
    time: float
    seq: int
    kind: str
    subject: str
    detail: dict = field(default_factory=dict)

    def to_json(self):
        return json.dumps({"time": self.time, "seq": self.seq,
                           "kind": self.kind, "subject": self.subject,
                           "detail": self.detail}, sort_keys=True)


class PlacementSimulator:
    """Single-threaded deterministic event-loop simulator."""

    def __init__(self, sites, policy: PlacementPolicy | None = None):
        self.sites = {}
        for s in sites:
            if s.id in self.sites:
                raise ValueError(f"duplicate site id {s.id!r}")
            self.sites[s.id] = s
        self.policy = policy or PlacementPolicy()
        self.now = 0.0
        self.events: list[SimEvent] = []
        self.jobs: dict[str, TransferJob] = {}
        self.allocations: dict[str, Allocation] = {}
        self._timeline = []          # heap of (time, order, fn)
        self._order = 0
        self._seq = 0
        self._queue: list[str] = []  # queued/retrying job ids
        # active job id -> its rate, in start order; None until first rated
        self._active: dict[str, float | None] = {}
        # (kind, site or (src, dst) link) -> number of open outages
        self._outages: Counter = Counter()
        self._stored: dict[str, float] = {s: 0.0 for s in self.sites}
        self._wait_allocs: list[tuple] = []
        self._ids = {"alloc": 0, "job": 0}

    # --- plumbing ---

    def _emit(self, kind, subject, **detail):
        ev = SimEvent(time=self.now, seq=self._seq, kind=kind,
                      subject=subject, detail=detail)
        self._seq += 1
        self.events.append(ev)
        return ev

    def schedule(self, time, fn, *args, **kwargs):
        if time < self.now:
            raise ValueError("cannot schedule in the past")
        heapq.heappush(self._timeline, (time, self._order,
                                        lambda: fn(*args, **kwargs)))
        self._order += 1

    def _fresh_id(self, kind):
        self._ids[kind] += 1
        return f"{kind}-{self._ids[kind]}"

    def _site(self, site_id):
        if site_id not in self.sites:
            raise UnknownSiteError(site_id)
        return self.sites[site_id]

    # --- allocations (leased space with ACLs) ---

    def allocated_bytes(self, site_id):
        return sum(a.size for a in self.allocations.values()
                   if a.site == site_id and a.active)

    def free_capacity(self, site_id):
        return (self.sites[site_id].capacity - self.allocated_bytes(site_id)
                - self._stored[site_id])

    def allocate(self, site_id, size, duration, acl, wait=False,
                 alloc_id=None):
        """Request a leased allocation; grants are exclusive for the term.

        Oversubscription is refused outright, so granted space can never
        overflow the site.  With ``wait=True`` a refused request stays
        pending and is granted the moment an expiry frees enough space.
        """
        self._site(site_id)
        if size <= 0:
            raise ValueError("allocation size must be > 0")
        request = (alloc_id or self._fresh_id("alloc"), site_id, size,
                   duration, tuple(map(tuple, acl)))
        alloc = self._grant(request)
        if alloc is None:
            self._emit("alloc-denied", request[0], site=site_id, size=size,
                       reason="insufficient-space")
            if wait:
                self._wait_allocs.append(request)
        return alloc

    def _grant(self, request, **detail):
        """Grant ``request`` if the site has room for it, else None."""
        alloc_id, site_id, size, duration, acl = request
        if not (self.allocated_bytes(site_id) + size
                <= self.sites[site_id].capacity):
            return None
        alloc = Allocation(id=alloc_id, site=site_id, size=size,
                           duration=duration, acl=acl, created_at=self.now)
        self.allocations[alloc_id] = alloc
        self._emit("alloc-granted", alloc_id, site=site_id, size=size,
                   duration=duration, **detail)
        self.schedule(alloc.expires_at, self._expire_allocation, alloc_id)
        return alloc

    def _expire_allocation(self, alloc_id):
        alloc = self.allocations[alloc_id]
        if not alloc.active:
            return
        alloc.active = False
        self._emit("alloc-expired", alloc_id, site=alloc.site,
                   size=alloc.size)
        # grant, in request order, each waiting request that now fits
        self._wait_allocs = [r for r in self._wait_allocs
                             if self._grant(r, waited=True) is None]

    # --- transfers ---

    def submit_transfer(self, source, dest, size, owner, priority=0,
                        order=0, allocation=None, job_id=None,
                        dataset=None):
        """Queue a transfer request; raises on unknown sites or an ACL
        that does not grant the owner write access to the destination
        allocation."""
        self._site(source)
        self._site(dest)
        if size <= 0:
            raise ValueError("transfer size must be > 0")
        if allocation is not None:
            alloc = self.allocations.get(allocation)
            if alloc is None or not alloc.active:
                raise AclDeniedError(f"allocation {allocation!r} is not "
                                     f"active")
            if not alloc.permits(owner, "write"):
                raise AclDeniedError(
                    f"principal {owner!r} lacks write permission on "
                    f"allocation {allocation!r}")
        job_id = job_id or self._fresh_id("job")
        job = TransferJob(id=job_id, source=source, dest=dest,
                          size=float(size), owner=owner, priority=priority,
                          order=order, allocation=allocation,
                          dataset=dataset, submitted_at=self.now)
        self.jobs[job_id] = job
        self._enqueue(job)
        return job_id

    def _enqueue(self, job):
        self._queue.append(job.id)
        if (self.policy.mode == "lossy-priority-baseline"
                and self.policy.queue_capacity is not None
                and len(self._queue) > self.policy.queue_capacity):
            victim_id = min(
                self._queue,
                key=lambda j: (self.jobs[j].priority,
                               self.jobs[j].submitted_at, j))
            self._queue.remove(victim_id)
            victim = self.jobs[victim_id]
            victim.state = "dropped"
            self._emit("transfer-dropped", victim_id,
                       reason="queue-evicted", priority=victim.priority,
                       bytes_moved=victim.bytes_moved)

    def _blocked(self, job):
        """Whether an open outage stops ``job``: a site-down at either
        end, a disk-overflow at its destination, or its link down."""
        down = self._outages
        return bool(down["site-down", job.source]
                    or down["site-down", job.dest]
                    or down["disk-overflow", job.dest]
                    or down["link-down", (job.source, job.dest)])

    def _dispatch(self):
        if self.policy.mode == "lossy-priority-baseline":
            # a single server: start the best queued job once it is idle
            if self._active or not self._queue:
                return
            nxt = max(self._queue,
                      key=lambda j: (self.jobs[j].priority,
                                     -self.jobs[j].submitted_at))
            if not self._blocked(self.jobs[nxt]):
                self._queue.remove(nxt)
                self._start(self.jobs[nxt])
            return
        pending = self._queue
        if self.policy.ordering == "by-request-order-field":
            pending = sorted(pending, key=lambda j: (self.jobs[j].order, j))
        self._queue = []
        for jid in pending:
            job = self.jobs[jid]
            if self._blocked(job):
                self._queue.append(jid)
            else:
                self._start(job)

    def _start(self, job):
        retry = job.state == "failed-retrying"
        job.state = "active"
        self._active[job.id] = None
        self._emit("transfer-start", job.id, source=job.source,
                   dest=job.dest, size=job.size,
                   bytes_moved=job.bytes_moved, retry=retry)

    def _recompute_rates(self):
        out_count, in_count = {}, {}
        for jid in self._active:
            job = self.jobs[jid]
            out_count[job.source] = out_count.get(job.source, 0) + 1
            in_count[job.dest] = in_count.get(job.dest, 0) + 1
        for jid, old in self._active.items():
            job = self.jobs[jid]
            rate = min(self.sites[job.source].egress_bw / out_count[job.source],
                       self.sites[job.dest].ingress_bw / in_count[job.dest])
            if old is not None and old != rate:
                self._emit("transfer-progress", jid, rate=rate,
                           bytes_moved=job.bytes_moved)
            self._active[jid] = rate

    def _advance(self, t):
        dt = t - self.now
        if dt < 0:
            raise RuntimeError("time moved backwards")
        for jid, rate in self._active.items():
            self.jobs[jid].bytes_moved += rate * dt
        self.now = t

    def _complete_finished(self):
        now = self.now
        for jid, rate in list(self._active.items()):
            job = self.jobs[jid]
            # the size-relative tolerance absorbs accumulated float residue;
            # a residue the job's rate moves in less than one tick of the
            # clock would otherwise be due at self.now forever
            remaining = job.remaining
            if (remaining <= _EPS_BYTES or remaining <= 1e-12 * job.size
                    or now + remaining / rate == now):
                job.bytes_moved = job.size
                job.state = "done"
                job.completed_at = self.now
                del self._active[jid]
                self._stored[job.dest] += job.size
                self._emit("transfer-complete", jid, dest=job.dest,
                           bytes_moved=job.size)
                if job.dataset is not None:
                    self._emit("replica-placed", job.dataset, site=job.dest,
                               size=job.size, job=jid)

    # --- failures ---

    def inject_failure(self, kind, target, at, duration):
        """Schedule a transient failure of a site or a (src, dst) link."""
        if kind not in ("link-down", "site-down", "disk-overflow"):
            raise ValueError(f"unknown failure kind {kind!r}")
        if kind == "link-down":
            src, dst = target = tuple(target)
            self._site(src), self._site(dst)
        else:
            self._site(target)
        self.schedule(at, self._fail, kind, target, duration)

    def _fail(self, kind, target, duration):
        """Open an outage; it stays open until its own recovery, whatever
        other outages of the same target do meanwhile."""
        subject = "->".join(target) if kind == "link-down" else target
        self._emit("failure-injected", subject, failure=kind,
                   duration=duration)
        self._outages[kind, target] += 1
        end = math.inf if duration is None else self.now + duration
        if end < math.inf:
            self.schedule(end, self._recover, kind, target)
        for jid in list(self._active):
            job = self.jobs[jid]
            if self._blocked(job):
                self._interrupt(job)

    def _recover(self, kind, target):
        self._outages[kind, target] -= 1

    def _interrupt(self, job):
        del self._active[job.id]
        if job.retries < self.policy.retry_limit:
            job.retries += 1
            job.state = "failed-retrying"
            self._emit("retry-scheduled", job.id, attempt=job.retries,
                       bytes_moved=job.bytes_moved)
            self._queue.append(job.id)
        else:
            job.state = "dropped"
            self._emit("transfer-dropped", job.id, reason="retry-exhausted",
                       bytes_moved=job.bytes_moved)

    # --- replication ---

    def replicate(self, dataset, size, source, candidate_sites=None):
        """Place replica_count copies on distinct sites, fullest-free
        capacity first, ties broken by site id."""
        self._site(source)
        eligible = [s for s in (candidate_sites or sorted(self.sites))
                    if s != source]
        for s in eligible:
            self._site(s)
        count = self.policy.replica_count
        if count > len(eligible):
            raise InsufficientSitesError(
                f"need {count} sites, only {len(eligible)} eligible")
        chosen = sorted(eligible,
                        key=lambda s: (-self.free_capacity(s), s))[:count]
        return [self.submit_transfer(source, s, size, owner="replicator",
                                     dataset=dataset) for s in chosen]

    # --- main loop ---

    def _next_completion(self):
        best = None
        for jid, rate in self._active.items():
            if rate <= 0:
                continue
            t = self.now + self.jobs[jid].remaining / rate
            if best is None or t < best:
                best = t
        return best

    def run(self, until=None):
        """Process everything in time order; returns the metrics dict."""
        self._dispatch()
        self._recompute_rates()
        while True:
            t_event = self._timeline[0][0] if self._timeline else None
            t_done = self._next_completion()
            candidates = [t for t in (t_event, t_done) if t is not None]
            if not candidates:
                break
            t = min(candidates)
            if until is not None and t > until:
                self._advance(until)
                break
            self._advance(t)
            self._complete_finished()
            while self._timeline and self._timeline[0][0] <= self.now:
                _, _, fn = heapq.heappop(self._timeline)
                fn()
            self._dispatch()
            self._recompute_rates()
        return self.metrics()

    def metrics(self):
        jobs = list(self.jobs.values())
        submitted = len(jobs)
        done = [j for j in jobs if j.state == "done"]
        dropped = [j for j in jobs if j.state == "dropped"]
        completion = [j.completed_at - j.submitted_at for j in done]
        return {
            "submitted": submitted,
            "completed": len(done),
            "dropped": len(dropped),
            "drop_rate": len(dropped) / submitted if submitted else 0.0,
            "bytes_moved": sum(j.bytes_moved for j in jobs),
            "retries": sum(j.retries for j in jobs),
            "mean_completion_time": (sum(completion) / len(completion)
                                     if completion else 0.0),
        }


def drop_rate(events) -> float:
    """Fraction of observed transfers that ended dropped."""
    seen, dropped = set(), set()
    for ev in events:
        if ev.kind in ("transfer-start", "transfer-complete",
                       "transfer-dropped"):
            seen.add(ev.subject)
        if ev.kind == "transfer-dropped":
            dropped.add(ev.subject)
    return len(dropped) / len(seen) if seen else 0.0


def write_event_log(events, path):
    with open(path, "w") as fh:
        for ev in events:
            fh.write(ev.to_json() + "\n")


# --- scenario files ---

_SECONDS = quantity("seconds")
_BYTES = quantity("bytes", positive=True)
_RATE = quantity("rate", positive=True)
_NAMES = list_of(string)
_SCENARIO_FIELDS = {
    "schema_version": integer(),
    "policy": table({
        "mode": choice("managed", "lossy-priority-baseline"),
        "replica_count": integer(1),
        "ordering": choice("fifo", "by-request-order-field"),
        "retry_limit": integer(0),
        "queue_capacity": optional(integer(0))}),
    "sites": list_of(table({"id": string, "capacity": _BYTES,
                            "ingress_bw": _RATE, "egress_bw": _RATE},
                           ("id", "capacity", "ingress_bw", "egress_bw"))),
    "allocations": list_of(table({
        "site": string, "size": _BYTES, "duration": _SECONDS,
        "at": _SECONDS, "acl": list_of(_NAMES), "wait": boolean,
        "id": string}, ("site", "size", "duration"))),
    "transfers": list_of(table({
        "source": string, "dest": string, "size": _BYTES, "at": _SECONDS,
        "owner": string, "priority": integer(), "order": integer(),
        "allocation": string, "id": string}, ("source", "dest", "size"))),
    "failures": list_of(table({
        "kind": choice("link-down", "site-down", "disk-overflow"),
        "target": lambda t: _NAMES(t) if type(t) is list else string(t),
        "at": _SECONDS, "duration": optional(_SECONDS)},
        ("kind", "target"))),
    "replications": list_of(table({
        "dataset": string, "size": _BYTES, "source": string,
        "at": _SECONDS, "sites": _NAMES},
        ("dataset", "size", "source"))),
}
# section -> the site ids an entry of it names
_SITE_REFS = {
    "allocations": lambda a: [a["site"]],
    "transfers": lambda t: [t["source"], t["dest"]],
    "failures": lambda f: (f["target"] if type(f["target"]) is list
                           else [f["target"]]),
    "replications": lambda r: [r["source"], *r.get("sites", ())],
}


def build_simulator(scenario: dict) -> PlacementSimulator:
    """Materialize a scenario dict (sites, policy, scheduled requests).

    Every value is converted first, and every site reference checked, so
    a malformed scenario is a ConfigError before the simulator exists.
    """
    s = normalize(scenario, _SCENARIO_FIELDS, "scenario", ("sites",))
    ids = {site["id"] for site in s["sites"]}
    if len(ids) < len(s["sites"]):
        raise ConfigError("scenario sites define an id more than once")
    for i, f in enumerate(s.get("failures", ())):
        link = type(f["target"]) is list and len(f["target"]) == 2
        if link != (f["kind"] == "link-down"):
            raise ConfigError(f"scenario failures[{i}] target "
                              f"{f['target']!r} does not fit a {f['kind']}: "
                              f"a link-down targets a [source, dest] pair, "
                              f"the other kinds one site id")
    for section, names in _SITE_REFS.items():
        for i, entry in enumerate(s.get(section, ())):
            if not ids.issuperset(names(entry)):
                unknown = sorted(set(names(entry)) - ids)
                raise ConfigError(f"scenario {section}[{i}] names unknown "
                                  f"site(s) {unknown}")
    sim = PlacementSimulator([StorageSite(**site) for site in s["sites"]],
                             PlacementPolicy(**s.get("policy", {})))
    for a in s.get("allocations", ()):
        sim.schedule(a.get("at", 0.0), sim.allocate, a["site"], a["size"],
                     a["duration"], a.get("acl", ()),
                     wait=a.get("wait", False), alloc_id=a.get("id"))
    for t in s.get("transfers", ()):
        sim.schedule(t.get("at", 0.0), sim.submit_transfer, t["source"],
                     t["dest"], t["size"], t.get("owner", "anonymous"),
                     priority=t.get("priority", 0), order=t.get("order", 0),
                     allocation=t.get("allocation"), job_id=t.get("id"))
    for f in s.get("failures", ()):
        sim.inject_failure(f["kind"], f["target"], f.get("at", 0.0),
                           f.get("duration"))
    for r in s.get("replications", ()):
        sim.schedule(r.get("at", 0.0), sim.replicate, r["dataset"],
                     r["size"], r["source"], candidate_sites=r.get("sites"))
    return sim


def run_scenario(scenario: dict, until=None):
    """Run a scenario dict; returns (events, metrics)."""
    sim = build_simulator(scenario)
    metrics = sim.run(until=until)
    return sim.events, metrics
