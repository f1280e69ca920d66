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
concurrent transfers on each site interface and recomputed whenever the
set of active transfers changes, so completion times are exact and runs
are byte-identical for identical scenarios.  The active set is kept as
numpy columns in start order, and each step updates every active transfer
with a few array operations: the same IEEE operations, rounded once each,
as one transfer at a time in Python floats, which is how a set of exactly
one is updated.
"""
from __future__ import annotations

import heapq
import json
import math
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .errors import (AclDeniedError, ConfigError, InsufficientSitesError,
                     UnknownSiteError)
from .units import (boolean, choice, integer, list_of, normalize, optional,
                    quantity, string, table)

_EPS_BYTES = 1e-6
_JSON = json.JSONEncoder(sort_keys=True)
# one row per active transfer, in start order: (attribute, dtype)
_COLUMNS = (("_job_ids", object), ("_src", np.intp), ("_dst", np.intp),
            ("_size", float), ("_moved", float), ("_rate", float),
            ("_tol", float))


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
    # while the job is active its progress lives in the simulator's active
    # set; it is written back here when the job leaves it or run() returns
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


class SimEvent(NamedTuple):
    time: float
    seq: int
    kind: str
    subject: str
    detail: dict

    def to_json(self):
        return _JSON.encode({"time": self.time, "seq": self.seq,
                             "kind": self.kind, "subject": self.subject,
                             "detail": self.detail})


class PlacementSimulator:
    """Single-threaded deterministic event-loop simulator."""

    def __init__(self, sites, policy: PlacementPolicy | None = None,
                 reserved_ids=()):
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
        # managed mode: how many leading queue entries were blocked at the
        # last dispatch; only a recovery can unblock them
        self._held = 0
        # (kind, site or (src, dst) link) -> number of open outages
        self._outages: Counter = Counter()
        self._stored: dict[str, float] = {s: 0.0 for s in self.sites}
        self._wait_allocs: list[tuple] = []
        self._ids = {"alloc": 0, "job": 0}
        # every allocation id requested, granted or not
        self._alloc_ids: set[str] = set()
        # ids a caller gives out later, which generated ids skip
        self._reserved = set(reserved_ids)
        self._index = {s: i for i, s in enumerate(self.sites)}
        self._egress = np.array([s.egress_bw for s in self.sites.values()],
                                float)
        self._ingress = np.array([s.ingress_bw for s in self.sites.values()],
                                 float)
        # the active set: _n rows of _COLUMNS, of which the first _rated
        # hold the rates of the last recompute; _stale once it changes
        for name, dtype in _COLUMNS:
            setattr(self, name, np.empty(64, dtype))
        self._n = self._rated = 0
        self._stale = False

    # --- plumbing ---

    def _emit(self, kind, subject, **detail):
        self.events.append(SimEvent(self.now, self._seq, kind, subject,
                                    detail))
        self._seq += 1

    def schedule(self, time, fn, *args, **kwargs):
        if time < self.now:
            raise ValueError("cannot schedule in the past")
        heapq.heappush(self._timeline, (time, self._order,
                                        lambda: fn(*args, **kwargs)))
        self._order += 1

    def _take_id(self, kind, wanted, taken):
        """``wanted`` unless ``taken`` holds it (ValueError); without one,
        the next ``kind-N`` that is neither taken nor reserved."""
        if wanted:
            if wanted in taken:
                raise ValueError(f"{kind} id {wanted!r} is already in use")
            return wanted
        while True:
            self._ids[kind] += 1
            wanted = f"{kind}-{self._ids[kind]}"
            if wanted not in taken and wanted not in self._reserved:
                return wanted

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
        An ``alloc_id`` already requested is a ValueError.
        """
        self._site(site_id)
        if size <= 0:
            raise ValueError("allocation size must be > 0")
        alloc_id = self._take_id("alloc", alloc_id, self._alloc_ids)
        self._alloc_ids.add(alloc_id)
        request = (alloc_id, site_id, size, duration, tuple(map(tuple, acl)))
        alloc = self._grant(request)
        if alloc is None:
            self._emit("alloc-denied", alloc_id, site=site_id, size=size,
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
        """Queue a transfer request; raises on unknown sites, a ``job_id``
        already submitted, or an ACL that does not grant the owner write
        access to the destination allocation."""
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
        job_id = self._take_id("job", job_id, self.jobs)
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
            if self._n or not self._queue:
                return
            nxt = max(self._queue,
                      key=lambda j: (self.jobs[j].priority,
                                     -self.jobs[j].submitted_at))
            if not self._blocked(self.jobs[nxt]):
                self._queue.remove(nxt)
                self._start(self.jobs[nxt])
            return
        # outages only add blocks until a recovery clears _held, so the
        # held entries are not tested again before then
        held, pending = self._queue[:self._held], self._queue[self._held:]
        if self.policy.ordering == "by-request-order-field":
            pending.sort(key=lambda j: (self.jobs[j].order, j))
        for jid in pending:
            job = self.jobs[jid]
            if self._blocked(job):
                held.append(jid)
            else:
                self._start(job)
        self._queue = held
        self._held = len(held)

    def _start(self, job):
        retry = job.state == "failed-retrying"
        job.state = "active"
        n = self._n
        if n == len(self._size):
            for name, dtype in _COLUMNS:
                grown = np.empty(2 * n, dtype)
                grown[:n] = getattr(self, name)
                setattr(self, name, grown)
        self._job_ids[n] = job.id
        self._src[n] = self._index[job.source]
        self._dst[n] = self._index[job.dest]
        self._size[n] = job.size
        self._moved[n] = job.bytes_moved
        # the size-relative tolerance absorbs accumulated float residue
        self._tol[n] = max(_EPS_BYTES, 1e-12 * job.size)
        self._n = n + 1
        self._stale = True
        self._emit("transfer-start", job.id, source=job.source,
                   dest=job.dest, size=job.size,
                   bytes_moved=job.bytes_moved, retry=retry)

    def _remove(self, rows):
        """Take the ascending indices ``rows`` out of the active set; the
        rest keep their start order."""
        n, k = self._n, self._n - len(rows)
        if k:
            keep = np.ones(n, bool)
            keep[rows] = False
            for name, _ in _COLUMNS:
                column = getattr(self, name)
                column[:k] = column[:n][keep]
            self._rated = int(np.count_nonzero(keep[:self._rated]))
        else:
            self._rated = 0
        self._n = k
        self._stale = True

    def _recompute_rates(self):
        if not self._stale:
            return   # same set, same rates
        self._stale = False
        n, rated = self._n, self._rated
        if n == 1:
            rate = min(self._egress.item(self._src.item(0)),
                       self._ingress.item(self._dst.item(0)))
            changed = [0] if rated and self._rate.item(0) != rate else []
            self._rate[0] = rate
        else:
            src, dst = self._src[:n], self._dst[:n]
            rates = np.minimum(self._egress[src] / np.bincount(src)[src],
                               self._ingress[dst] / np.bincount(dst)[dst])
            # rows rated for the first time emit no progress
            changed = np.flatnonzero(
                self._rate[:rated] != rates[:rated]).tolist()
            self._rate[:n] = rates
        self._rated = n
        if changed:
            seq, self._seq = self._seq, self._seq + len(changed)
            details = [{"rate": rate, "bytes_moved": moved} for rate, moved
                       in zip(self._rate[changed].tolist(),
                              self._moved[changed].tolist())]
            self.events.extend(
                SimEvent(self.now, i, "transfer-progress", job, detail)
                for i, job, detail in zip(range(seq, self._seq),
                                          self._job_ids[changed].tolist(),
                                          details))

    def _advance(self, t):
        dt = t - self.now
        if dt < 0:
            raise RuntimeError("time moved backwards")
        n = self._n
        if n == 1:
            self._moved[0] = self._moved.item(0) + self._rate.item(0) * dt
        elif n:
            self._moved[:n] += self._rate[:n] * dt
        self.now = t

    def _complete_finished(self):
        n, now = self._n, self.now
        # a residue the job's rate moves in less than one tick of the
        # clock would otherwise be due at self.now forever
        if n == 1:
            remaining = self._size.item(0) - self._moved.item(0)
            done = ([0] if remaining <= self._tol.item(0)
                    or now + remaining / self._rate.item(0) == now else [])
        elif n:
            remaining = self._size[:n] - self._moved[:n]
            done = np.flatnonzero(
                (remaining <= self._tol[:n])
                | (now + remaining / self._rate[:n] == now)).tolist()
        else:
            return
        if not done:
            return
        finished = self._job_ids[done].tolist()
        self._remove(done)
        for jid in finished:
            job = self.jobs[jid]
            job.bytes_moved = job.size
            job.state = "done"
            job.completed_at = now
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
        active = self._job_ids[:self._n].tolist()
        hit = [i for i, jid in enumerate(active)
               if self._blocked(self.jobs[jid])]
        if hit:
            moved = self._moved[hit].tolist()
            self._remove(hit)
            for i, bytes_moved in zip(hit, moved):
                job = self.jobs[active[i]]
                job.bytes_moved = bytes_moved
                self._interrupt(job)

    def _recover(self, kind, target):
        self._outages[kind, target] -= 1
        self._held = 0   # every queued job may run again

    def _interrupt(self, job):
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
        capacity first, ties broken by site id.  A repeated candidate
        counts once."""
        self._site(source)
        candidates = dict.fromkeys(candidate_sites or sorted(self.sites))
        eligible = [s for s in candidates if s != source]
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
        n = self._n
        if n == 1:
            rate = self._rate.item(0)
            return (self.now + (self._size.item(0) - self._moved.item(0))
                    / rate if rate > 0 else None)
        if not n:
            return None
        rates = self._rate[:n]
        # a zero rate (a subnormal bandwidth shared) is due at infinity
        best = (self.now + (self._size[:n] - self._moved[:n])
                / rates).min().item()
        return None if best == math.inf and not rates.any() else best

    def run(self, until=None):
        """Process everything in time order; returns the metrics dict."""
        # IEEE results, as Python floats give, and no warnings
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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
        n = self._n
        for jid, moved in zip(self._job_ids[:n].tolist(),
                              self._moved[:n].tolist()):
            self.jobs[jid].bytes_moved = moved
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
    """One ``SimEvent.to_json`` line per event."""
    with open(path, "w") as fh:
        fh.writelines(_log_lines(events))


def _log_lines(events):
    # transfer-progress events, nearly all of a managed log, carry a rate
    # and a byte count; with a str subject and finite float values they
    # are formatted directly, as json.dumps would.  The events of one step
    # share their time object, so its text is made once per step
    last_time = time_text = None
    for time, seq, kind, subject, detail in events:
        if kind == "transfer-progress":
            rate, moved = detail["rate"], detail["bytes_moved"]
            if (type(subject) is str
                    and type(time) is type(rate) is type(moved) is float
                    and math.isfinite(time + rate + moved)):
                if time is not last_time:
                    last_time, time_text = time, repr(time)
                yield (f'{{"detail": {{"bytes_moved": {moved!r}, "rate": '
                       f'{rate!r}}}, "kind": "transfer-progress", "seq": '
                       f'{seq}, "subject": {encode_basestring_ascii(subject)}'
                       f', "time": {time_text}}}\n')
                continue
        yield _JSON.encode({"time": time, "seq": seq, "kind": kind,
                            "subject": subject, "detail": detail}) + "\n"


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
    named = set()
    for section in ("allocations", "transfers"):
        given = Counter(e["id"] for e in s.get(section, ()) if e.get("id"))
        repeated = sorted(i for i, count in given.items() if count > 1)
        if repeated:
            raise ConfigError(f"scenario {section} name id(s) {repeated} "
                              f"more than once")
        named.update(given)
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
    # no generated id may take an id the scenario names
    sim = PlacementSimulator([StorageSite(**site) for site in s["sites"]],
                             PlacementPolicy(**s.get("policy", {})),
                             reserved_ids=named)
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
