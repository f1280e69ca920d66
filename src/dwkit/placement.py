"""Deterministic discrete-event simulator for managed data placement.

Models a small federation of storage sites offering leased space
allocations with ACLs, bulk transfers over shared links, policy-driven
replication, and transient failure injection with retry.  Two service
modes are provided: ``managed`` (every accepted transfer is serviced,
retried through failures, never silently discarded) and
``lossy-priority-baseline`` (a single server drains a bounded priority
queue; overload evicts the lowest-priority job), so the drop-rate contrast
between the two designs can be measured on one scenario.

Time is continuous (seconds).  Link bandwidth is shared equally among the
concurrent transfers on each site interface and recomputed at every event,
so completion times are exact and runs are byte-identical for identical
scenarios.
"""
from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field

from .errors import (AclDeniedError, ConfigError, InsufficientSitesError,
                     UnknownSiteError)
from .units import parse_bytes, parse_rate, parse_seconds

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
        self._active: list[str] = []
        self._rates: dict[str, float] = {}
        self._down: dict[str, tuple[float, str]] = {}    # site -> (until, kind)
        self._down_links: dict[tuple[str, str], float] = {}
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
        alloc_id = alloc_id or self._fresh_id("alloc")
        if self.allocated_bytes(site_id) + size <= self.sites[site_id].capacity:
            alloc = Allocation(id=alloc_id, site=site_id, size=size,
                               duration=duration, acl=tuple(map(tuple, acl)),
                               created_at=self.now)
            self.allocations[alloc_id] = alloc
            self._emit("alloc-granted", alloc_id, site=site_id, size=size,
                       duration=duration)
            self.schedule(alloc.expires_at, self._expire_allocation, alloc_id)
            return alloc
        self._emit("alloc-denied", alloc_id, site=site_id, size=size,
                   reason="insufficient-space")
        if wait:
            self._wait_allocs.append((alloc_id, site_id, size, duration,
                                      tuple(map(tuple, acl))))
        return None

    def _expire_allocation(self, alloc_id):
        alloc = self.allocations[alloc_id]
        if not alloc.active:
            return
        alloc.active = False
        self._emit("alloc-expired", alloc_id, site=alloc.site,
                   size=alloc.size)
        still_waiting = []
        for req in self._wait_allocs:
            wid, site_id, size, duration, acl = req
            if (self.allocated_bytes(site_id) + size
                    <= self.sites[site_id].capacity):
                alloc = Allocation(id=wid, site=site_id, size=size,
                                   duration=duration, acl=acl,
                                   created_at=self.now)
                self.allocations[wid] = alloc
                self._emit("alloc-granted", wid, site=site_id, size=size,
                           duration=duration, waited=True)
                self.schedule(alloc.expires_at, self._expire_allocation, wid)
            else:
                still_waiting.append(req)
        self._wait_allocs = still_waiting

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

    def _site_down_for(self, job):
        for site_id, direction in ((job.source, "out"), (job.dest, "in")):
            if site_id in self._down:
                _, kind = self._down[site_id]
                if kind != "disk-overflow" or direction == "in":
                    return True
        return (job.source, job.dest) in self._down_links

    def _dispatch(self):
        if self.policy.mode == "lossy-priority-baseline":
            while not self._active and self._queue:
                nxt = max(self._queue,
                          key=lambda j: (self.jobs[j].priority,
                                         -self.jobs[j].submitted_at))
                if self._site_down_for(self.jobs[nxt]):
                    break
                self._queue.remove(nxt)
                self._start(self.jobs[nxt])
            return
        if self.policy.ordering == "by-request-order-field":
            pending = sorted(self._queue,
                             key=lambda j: (self.jobs[j].order, j))
        else:
            pending = list(self._queue)
        for jid in pending:
            job = self.jobs[jid]
            if not self._site_down_for(job):
                self._queue.remove(jid)
                self._start(job)

    def _start(self, job):
        retry = job.state == "failed-retrying"
        job.state = "active"
        self._active.append(job.id)
        self._emit("transfer-start", job.id, source=job.source,
                   dest=job.dest, size=job.size,
                   bytes_moved=job.bytes_moved, retry=retry)

    def _recompute_rates(self):
        out_count, in_count = {}, {}
        for jid in self._active:
            job = self.jobs[jid]
            out_count[job.source] = out_count.get(job.source, 0) + 1
            in_count[job.dest] = in_count.get(job.dest, 0) + 1
        for jid in self._active:
            job = self.jobs[jid]
            rate = min(self.sites[job.source].egress_bw / out_count[job.source],
                       self.sites[job.dest].ingress_bw / in_count[job.dest])
            if jid in self._rates and self._rates[jid] != rate:
                self._emit("transfer-progress", jid, rate=rate,
                           bytes_moved=job.bytes_moved)
            self._rates[jid] = rate
        self._rates = {jid: self._rates[jid] for jid in self._active}

    def _advance(self, t):
        dt = t - self.now
        if dt < 0:
            raise RuntimeError("time moved backwards")
        for jid in self._active:
            self.jobs[jid].bytes_moved += self._rates[jid] * dt
        self.now = t

    def _complete_finished(self):
        now = self.now
        for jid in list(self._active):
            job = self.jobs[jid]
            # the size-relative tolerance absorbs accumulated float residue;
            # a residue the job's rate moves in less than one tick of the
            # clock would otherwise be due at self.now forever
            remaining = job.remaining
            if (remaining <= _EPS_BYTES or remaining <= 1e-12 * job.size
                    or now + remaining / self._rates[jid] == now):
                job.bytes_moved = job.size
                job.state = "done"
                job.completed_at = self.now
                self._active.remove(jid)
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
            src, dst = target
            self._site(src), self._site(dst)
        else:
            self._site(target)
        self.schedule(at, self._fail, kind, target, duration)

    def _fail(self, kind, target, duration):
        until = (math.inf if duration is None or math.isinf(duration)
                 else self.now + duration)
        subject = "->".join(target) if kind == "link-down" else target
        self._emit("failure-injected", subject, failure=kind,
                   duration=duration)
        if kind == "link-down":
            self._down_links[tuple(target)] = until
            if math.isfinite(until):
                self.schedule(until, self._recover_link, tuple(target))
        else:
            self._down[target] = (until, kind)
            if math.isfinite(until):
                self.schedule(until, self._recover_site, target)
        for jid in list(self._active):
            job = self.jobs[jid]
            if self._site_down_for(job):
                self._interrupt(job)

    def _recover_site(self, site_id):
        self._down.pop(site_id, None)

    def _recover_link(self, link):
        self._down_links.pop(link, None)

    def _interrupt(self, job):
        self._active.remove(job.id)
        self._rates.pop(job.id, None)
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
        for jid in self._active:
            rate = self._rates[jid]
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

# list section -> (required keys, optional keys) of each of its entries
_SCENARIO_SECTIONS = {
    "sites": ({"id", "capacity", "ingress_bw", "egress_bw"}, set()),
    "allocations": ({"site", "size", "duration"}, {"at", "acl", "wait", "id"}),
    "transfers": ({"source", "dest", "size"},
                  {"at", "owner", "priority", "order", "allocation", "id"}),
    "failures": ({"kind", "target"}, {"at", "duration"}),
    "replications": ({"dataset", "size", "source"}, {"at", "sites"}),
}
_SCENARIO_KEYS = {"schema_version", "policy", *_SCENARIO_SECTIONS}
_POLICY_KEYS = {"mode", "replica_count", "ordering", "retry_limit",
                "queue_capacity"}


def _check_object(obj, required, allowed, context):
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be a JSON object")
    missing = sorted(required - obj.keys())
    if missing:
        raise ConfigError(f"{context} lacks required key(s) {missing}")
    unknown = sorted(obj.keys() - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {unknown}")


def check_scenario(scenario: dict):
    """Raise ConfigError unless every scenario object has its required
    keys and no unknown one; ``sites`` is the one required section."""
    _check_object(scenario, {"sites"}, _SCENARIO_KEYS, "scenario")
    _check_object(scenario.get("policy", {}), set(), _POLICY_KEYS,
                  "scenario policy")
    for section, (required, optional) in _SCENARIO_SECTIONS.items():
        entries = scenario.get(section, [])
        if not isinstance(entries, list):
            raise ConfigError(f"scenario {section} must be a list")
        allowed = required | optional
        for i, entry in enumerate(entries):
            # the test inline, the message only for an entry that fails
            if not (isinstance(entry, dict)
                    and required <= entry.keys() <= allowed):
                _check_object(entry, required, allowed,
                              f"scenario {section}[{i}]")


def build_simulator(scenario: dict) -> PlacementSimulator:
    """Materialize a scenario dict (sites, policy, scheduled requests).

    The scenario is checked first (``check_scenario``); a value the
    simulator's constructors reject is a ConfigError as well.
    """
    check_scenario(scenario)
    try:
        return _build_simulator(scenario)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc


def _build_simulator(scenario):
    sites = [StorageSite(id=s["id"],
                         capacity=parse_bytes(s["capacity"]),
                         ingress_bw=parse_rate(s["ingress_bw"]),
                         egress_bw=parse_rate(s["egress_bw"]))
             for s in scenario["sites"]]
    pol = scenario.get("policy", {})
    policy = PlacementPolicy(
        mode=pol.get("mode", "managed"),
        replica_count=int(pol.get("replica_count", 1)),
        ordering=pol.get("ordering", "fifo"),
        retry_limit=int(pol.get("retry_limit", 3)),
        queue_capacity=(int(pol["queue_capacity"])
                        if pol.get("queue_capacity") is not None else None))
    sim = PlacementSimulator(sites, policy)
    for a in scenario.get("allocations", []):
        sim.schedule(parse_seconds(a.get("at", 0)), sim.allocate,
                     a["site"], parse_bytes(a["size"]),
                     parse_seconds(a["duration"]),
                     [tuple(e) for e in a.get("acl", [])],
                     wait=bool(a.get("wait", False)),
                     alloc_id=a.get("id"))
    for t in scenario.get("transfers", []):
        sim.schedule(parse_seconds(t.get("at", 0)), sim.submit_transfer,
                     t["source"], t["dest"], parse_bytes(t["size"]),
                     t.get("owner", "anonymous"),
                     priority=int(t.get("priority", 0)),
                     order=int(t.get("order", 0)),
                     allocation=t.get("allocation"),
                     job_id=t.get("id"))
    for f in scenario.get("failures", []):
        target = f["target"]
        if f["kind"] == "link-down":
            target = tuple(target)
        sim.inject_failure(f["kind"], target, parse_seconds(f.get("at", 0)),
                           parse_seconds(f["duration"])
                           if f.get("duration") is not None else None)
    for r in scenario.get("replications", []):
        sim.schedule(parse_seconds(r.get("at", 0)), sim.replicate,
                     r["dataset"], parse_bytes(r["size"]), r["source"],
                     candidate_sites=r.get("sites"))
    return sim


def run_scenario(scenario: dict, until=None):
    """Run a scenario dict; returns (events, metrics)."""
    sim = build_simulator(scenario)
    metrics = sim.run(until=until)
    return sim.events, metrics
