import copy
import hashlib
import json
import math
import os
import random
import tempfile

import pytest
from hypothesis import example, given, strategies as st

from dwkit.errors import (AclDeniedError, ConfigError,
                          InsufficientSitesError, UnknownSiteError)
from dwkit.fixtures import overload_scenario_path
from dwkit.placement import (PlacementPolicy, PlacementSimulator, SimEvent,
                             StorageSite, build_simulator, drop_rate,
                             run_scenario, write_event_log)

GB = 1e9


def two_sites(bw_a=10 * GB, bw_b=10 * GB, capacity=1000 * GB):
    return [StorageSite("a", capacity, bw_a, bw_a),
            StorageSite("b", capacity, bw_b, bw_b)]


def overload_scenario():
    with open(overload_scenario_path()) as fh:
        return json.load(fh)


class TestAllocations:
    def test_oversized_request_denied(self):
        sim = PlacementSimulator(two_sites(capacity=100 * GB))
        assert sim.allocate("a", 200 * GB, 60, []) is None
        assert sim.events[-1].kind == "alloc-denied"

    def test_two_halves_then_denied(self):
        sim = PlacementSimulator(two_sites(capacity=100 * GB))
        assert sim.allocate("a", 50 * GB, 60, []) is not None
        assert sim.allocate("a", 50 * GB, 60, []) is not None
        assert sim.allocate("a", 1, 60, []) is None

    def test_waiting_request_granted_at_expiry(self):
        sim = PlacementSimulator(two_sites(capacity=100 * GB))
        sim.allocate("a", 100 * GB, duration=30.0, acl=[])
        assert sim.allocate("a", 100 * GB, 60, [], wait=True) is None
        sim.run()
        granted = [e for e in sim.events
                   if e.kind == "alloc-granted" and e.detail.get("waited")]
        assert len(granted) == 1
        assert granted[0].time == 30.0

    def test_capacity_safety_throughout(self):
        sim = PlacementSimulator(two_sites(capacity=100 * GB))
        for at in range(0, 50, 5):
            sim.schedule(float(at), sim.allocate, "a", 30 * GB, 12.0, [],
                         False, None)
        sim.run()
        # replay the log: granted minus expired never exceeds capacity
        held = 0.0
        for ev in sim.events:
            if ev.kind == "alloc-granted":
                held += ev.detail["size"]
            elif ev.kind == "alloc-expired":
                held -= ev.detail["size"]
            assert held <= 100 * GB + 1e-6


class TestSubmitAndAcl:
    def test_writable_acl_is_queued(self):
        sim = PlacementSimulator(two_sites())
        alloc = sim.allocate("b", 10 * GB, 600, [("alice", "write")])
        jid = sim.submit_transfer("a", "b", 1 * GB, "alice",
                                  allocation=alloc.id)
        assert sim.jobs[jid].state in ("queued", "active")

    def test_absent_principal_denied(self):
        sim = PlacementSimulator(two_sites())
        alloc = sim.allocate("b", 10 * GB, 600, [("alice", "write")])
        with pytest.raises(AclDeniedError):
            sim.submit_transfer("a", "b", 1 * GB, "mallory",
                                allocation=alloc.id)

    def test_read_only_principal_denied(self):
        sim = PlacementSimulator(two_sites())
        alloc = sim.allocate("b", 10 * GB, 600, [("alice", "read")])
        with pytest.raises(AclDeniedError):
            sim.submit_transfer("a", "b", 1 * GB, "alice",
                                allocation=alloc.id)

    def test_unknown_site(self):
        sim = PlacementSimulator(two_sites())
        with pytest.raises(UnknownSiteError):
            sim.submit_transfer("a", "nowhere", 1 * GB, "alice")

    def test_id_in_use_is_refused(self):
        sim = PlacementSimulator(two_sites())
        sim.submit_transfer("a", "b", 1 * GB, "u", job_id="job-1")
        assert sim.submit_transfer("a", "b", 1 * GB, "u") == "job-2"
        with pytest.raises(ValueError, match="in use"):
            sim.submit_transfer("a", "b", 1 * GB, "u", job_id="job-2")
        sim.allocate("b", 1 * GB, 60, [], alloc_id="x")
        with pytest.raises(ValueError, match="in use"):
            sim.allocate("b", 1 * GB, 60, [], alloc_id="x")

    def test_baseline_queue_evicts_lowest_priority(self):
        policy = PlacementPolicy(mode="lossy-priority-baseline",
                                 queue_capacity=2)
        sim = PlacementSimulator(two_sites(), policy)
        sim.submit_transfer("a", "b", 100 * GB, "u", priority=9,
                            job_id="busy")
        sim._dispatch()   # server now busy with "busy"
        sim.submit_transfer("a", "b", 1 * GB, "u", priority=5, job_id="p5")
        sim.submit_transfer("a", "b", 1 * GB, "u", priority=3, job_id="p3")
        sim.submit_transfer("a", "b", 1 * GB, "u", priority=4, job_id="p4")
        assert sim.jobs["p3"].state == "dropped"
        assert sim.jobs["p5"].state == "queued"
        assert sim.jobs["p4"].state == "queued"


class TestTransferOracles:
    def test_single_uncontended_transfer(self):
        sim = PlacementSimulator(two_sites())
        sim.submit_transfer("a", "b", 100 * GB, "u", job_id="t")
        sim.run()
        assert sim.jobs["t"].completed_at == 10.0

    def test_equal_pair_fair_share(self):
        sim = PlacementSimulator([StorageSite("a", 1e15, 10 * GB, 10 * GB),
                                  StorageSite("b", 1e15, 100 * GB, 100 * GB)])
        sim.submit_transfer("a", "b", 100 * GB, "u", job_id="t1")
        sim.submit_transfer("a", "b", 100 * GB, "u", job_id="t2")
        sim.run()
        assert sim.jobs["t1"].completed_at == 20.0
        assert sim.jobs["t2"].completed_at == 20.0

    def test_piecewise_fair_share(self):
        # 5 GB/s each until the 60 GB job ends at t=12, then full rate
        sim = PlacementSimulator([StorageSite("a", 1e15, 10 * GB, 10 * GB),
                                  StorageSite("b", 1e15, 100 * GB, 100 * GB)])
        sim.submit_transfer("a", "b", 60 * GB, "u", job_id="small")
        sim.submit_transfer("a", "b", 100 * GB, "u", job_id="large")
        sim.run()
        assert sim.jobs["small"].completed_at == 12.0
        assert sim.jobs["large"].completed_at == 16.0

    def test_progress_is_on_the_jobs_when_run_stops_at_until(self):
        sim = PlacementSimulator([StorageSite("a", 1e15, 10 * GB, 10 * GB),
                                  StorageSite("b", 1e15, 100 * GB, 100 * GB)])
        sim.submit_transfer("a", "b", 100 * GB, "u", job_id="t1")
        sim.submit_transfer("a", "b", 100 * GB, "u", job_id="t2")
        m = sim.run(until=4.0)
        assert sim.jobs["t1"].bytes_moved == sim.jobs["t2"].bytes_moved \
            == 20 * GB
        assert m["bytes_moved"] == 40 * GB

    def test_byte_conservation(self):
        sim = PlacementSimulator(two_sites())
        for i in range(5):
            sim.schedule(float(i), sim.submit_transfer, "a", "b",
                         (10 + i) * GB, "u")
        m = sim.run()
        for job in sim.jobs.values():
            assert job.bytes_moved == job.size
        assert m["bytes_moved"] == sum(j.size for j in sim.jobs.values())

    def test_residue_below_clock_resolution_completes(self):
        # a lossy run with an unbounded queue reached this state and spun:
        # 1.375e-3 B left at 5 GB/s is due 2.75e-13 s later, under half an
        # ulp of now, and above the size-relative tolerance of 1.14e-3 B
        sim = PlacementSimulator(two_sites(bw_a=5 * GB, bw_b=5 * GB))
        jid = sim.submit_transfer("a", "b", 1.142929483e9, "u")
        job = sim.jobs[jid]
        sim.now = 5541.745914121392
        job.bytes_moved = job.size - 1.375e-3
        sim._dispatch()
        sim._recompute_rates()
        t_done = sim._next_completion()
        assert t_done == sim.now
        assert job.remaining > 1e-12 * job.size
        # one step of the run loop: advance, then complete what is due
        sim._advance(t_done)
        sim._complete_finished()
        assert job.state == "done"
        assert job.completed_at == 5541.745914121392
        assert job.bytes_moved == job.size
        assert sim.run()["completed"] == 1


class TestFailures:
    def test_failure_after_completion_no_effect(self):
        sim = PlacementSimulator(two_sites())
        sim.submit_transfer("a", "b", 100 * GB, "u", job_id="t")
        sim.inject_failure("site-down", "b", at=20.0, duration=5.0)
        sim.run()
        assert sim.jobs["t"].state == "done"
        assert sim.jobs["t"].completed_at == 10.0

    def test_transient_failure_resumes_remaining_bytes(self):
        sim = PlacementSimulator(two_sites())
        sim.submit_transfer("a", "b", 100 * GB, "u", job_id="t")
        sim.inject_failure("link-down", ("a", "b"), at=4.0, duration=6.0)
        sim.run()
        job = sim.jobs["t"]
        assert job.state == "done"
        assert job.retries == 1
        # 40 GB before the outage, 60 GB after recovery at t=10
        assert job.completed_at == pytest.approx(16.0)

    def test_retry_limit_zero_drops(self):
        sim = PlacementSimulator(two_sites(),
                                 PlacementPolicy(retry_limit=0))
        sim.submit_transfer("a", "b", 100 * GB, "u", job_id="t")
        sim.inject_failure("site-down", "b", at=4.0, duration=2.0)
        sim.run()
        assert sim.jobs["t"].state == "dropped"
        assert sim.jobs["t"].bytes_moved == pytest.approx(40 * GB)

    def test_disk_overflow_blocks_inbound_only(self):
        sim = PlacementSimulator(two_sites())
        sim.submit_transfer("a", "b", 100 * GB, "u", job_id="in")
        sim.submit_transfer("b", "a", 100 * GB, "u", job_id="out")
        sim.inject_failure("disk-overflow", "b", at=2.0, duration=4.0)
        sim.run()
        assert sim.jobs["out"].completed_at == 10.0   # outbound unaffected
        assert sim.jobs["in"].completed_at == pytest.approx(14.0)

    def test_guaranteed_delivery_under_transient_failures(self):
        sim = PlacementSimulator(two_sites(),
                                 PlacementPolicy(retry_limit=1000))
        total = 0.0
        for i in range(10):
            sim.schedule(float(i), sim.submit_transfer, "a", "b",
                         5 * GB, "u")
            total += 5 * GB
        for t in (2.0, 7.0, 13.0):
            sim.inject_failure("link-down", ("a", "b"), at=t, duration=1.5)
        m = sim.run()
        assert m["completed"] == 10
        assert m["dropped"] == 0
        horizon = total / (10 * GB) + 3 * 1.5 + 10
        assert all(j.completed_at <= horizon for j in sim.jobs.values())


class TestReplication:
    def sites(self):
        return [StorageSite("src", 1000 * GB, 10 * GB, 10 * GB),
                StorageSite("s1", 1000 * GB, 10 * GB, 10 * GB),
                StorageSite("s2", 1000 * GB, 10 * GB, 10 * GB),
                StorageSite("s3", 500 * GB, 10 * GB, 10 * GB)]

    def test_single_replica_goes_to_emptiest(self):
        sim = PlacementSimulator(self.sites())
        sim.allocate("s1", 600 * GB, 3600, [])
        sim.replicate("d1", 10 * GB, "src")
        sim.run()
        placed = [e for e in sim.events if e.kind == "replica-placed"]
        assert [e.detail["site"] for e in placed] == ["s2"]

    def test_every_site_gets_one(self):
        sim = PlacementSimulator(self.sites(),
                                 PlacementPolicy(replica_count=3))
        sim.replicate("d1", 10 * GB, "src")
        sim.run()
        placed = {e.detail["site"] for e in sim.events
                  if e.kind == "replica-placed"}
        assert placed == {"s1", "s2", "s3"}

    def test_tie_broken_by_lower_site_id(self):
        sim = PlacementSimulator(self.sites())
        sim.replicate("d1", 10 * GB, "src", candidate_sites=["s2", "s1"])
        sim.run()
        placed = [e for e in sim.events if e.kind == "replica-placed"]
        assert placed[0].detail["site"] == "s1"

    def test_repeated_candidate_counts_once(self):
        sim = PlacementSimulator(self.sites(),
                                 PlacementPolicy(replica_count=2))
        with pytest.raises(InsufficientSitesError,
                           match="need 2 sites, only 1 eligible"):
            sim.replicate("d1", 10 * GB, "src", candidate_sites=["s1", "s1"])
        sim.replicate("d1", 10 * GB, "src",
                      candidate_sites=["s3", "s3", "s1"])
        sim.run()
        placed = [e.detail["site"] for e in sim.events
                  if e.kind == "replica-placed"]
        assert sorted(placed) == ["s1", "s3"]

    def test_insufficient_sites(self):
        sim = PlacementSimulator(self.sites(),
                                 PlacementPolicy(replica_count=4))
        with pytest.raises(InsufficientSitesError):
            sim.replicate("d1", 10 * GB, "src")


class TestScenarioRuns:
    def test_deterministic_event_logs(self):
        scenario = overload_scenario()
        ev1, m1 = run_scenario(copy.deepcopy(scenario))
        ev2, m2 = run_scenario(copy.deepcopy(scenario))
        assert [e.to_json() for e in ev1] == [e.to_json() for e in ev2]
        assert m1 == m2

    def test_log_ordering(self):
        ev, _ = run_scenario(overload_scenario())
        times = [e.time for e in ev]
        seqs = [e.seq for e in ev]
        assert times == sorted(times)
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_overload_contrast(self):
        scenario = overload_scenario()
        ev_lossy, m_lossy = run_scenario(copy.deepcopy(scenario))
        managed = copy.deepcopy(scenario)
        managed["policy"]["mode"] = "managed"
        ev_managed, m_managed = run_scenario(managed)
        assert m_lossy["drop_rate"] > 0
        assert m_managed["drop_rate"] == 0
        assert drop_rate(ev_lossy) > 0
        assert drop_rate(ev_managed) == 0.0

    def test_scenario_checked_before_build(self):
        # the library entry points check as the CLI does: ConfigError,
        # not a KeyError from deep inside the build
        with pytest.raises(ConfigError, match=r"transfers\[0\] lacks"):
            run_scenario({"sites": [], "transfers": [{"source": "a"}]})
        with pytest.raises(ConfigError, match="unknown key"):
            build_simulator(dict(overload_scenario(), typo=1))

    def test_drop_rate_no_drops(self):
        sim = PlacementSimulator(two_sites())
        sim.submit_transfer("a", "b", 1 * GB, "u")
        sim.run()
        assert drop_rate(sim.events) == 0.0

    def test_drop_rate_half(self):
        # 4 submissions into a capacity-1 queue behind a slow transfer:
        # two evictions out of four submissions
        policy = PlacementPolicy(mode="lossy-priority-baseline",
                                 queue_capacity=1)
        sim = PlacementSimulator(two_sites())
        sim = PlacementSimulator(two_sites(), policy)
        sim.submit_transfer("a", "b", 1000 * GB, "u", priority=9,
                            job_id="busy")
        sim._dispatch()
        for i, prio in enumerate((1, 2, 3)):
            sim.submit_transfer("a", "b", 1 * GB, "u", priority=prio,
                                job_id=f"j{prio}")
        dropped = [j for j in sim.jobs.values() if j.state == "dropped"]
        assert len(dropped) == 2
        assert sorted(j.id for j in dropped) == ["j1", "j2"]


class TestOverlappingOutages:
    """An outage keeps its target down until the last overlapping outage
    of that kind ends; a disk-overflow never masks a site-down."""

    def test_stacked_site_downs(self):
        sim = PlacementSimulator(two_sites())
        sim.inject_failure("site-down", "b", at=0.0, duration=10.0)
        sim.inject_failure("site-down", "b", at=5.0, duration=10.0)
        sim.schedule(6.0, sim.submit_transfer, "a", "b", 10 * GB, "u",
                     job_id="t")
        sim.run()
        start, = [e for e in sim.events if e.kind == "transfer-start"]
        assert start.time == 15.0
        assert sim.jobs["t"].completed_at == 16.0

    def test_disk_overflow_does_not_mask_site_down(self):
        sim = PlacementSimulator(two_sites())
        sim.inject_failure("site-down", "b", at=0.0, duration=10.0)
        sim.inject_failure("disk-overflow", "b", at=5.0, duration=1.0)
        sim.schedule(6.5, sim.submit_transfer, "b", "a", 10 * GB, "u",
                     job_id="out")
        sim.run()
        start, = [e for e in sim.events if e.kind == "transfer-start"]
        assert start.time == 10.0
        assert sim.jobs["out"].completed_at == 11.0

    def test_stacked_link_downs(self):
        sim = PlacementSimulator(two_sites())
        sim.inject_failure("link-down", ("a", "b"), at=0.0, duration=10.0)
        sim.inject_failure("link-down", ("a", "b"), at=5.0, duration=10.0)
        sim.schedule(6.0, sim.submit_transfer, "a", "b", 10 * GB, "u",
                     job_id="t")
        sim.schedule(6.0, sim.submit_transfer, "b", "a", 10 * GB, "u",
                     job_id="reverse")
        sim.run()
        starts = {e.subject: e.time for e in sim.events
                  if e.kind == "transfer-start"}
        assert starts == {"t": 15.0, "reverse": 6.0}

    def test_outage_ending_as_another_starts(self):
        # the second outage fires before the first one's recovery at t=10
        sim = PlacementSimulator(two_sites())
        sim.inject_failure("site-down", "b", at=0.0, duration=10.0)
        sim.inject_failure("site-down", "b", at=10.0, duration=5.0)
        sim.schedule(1.0, sim.submit_transfer, "a", "b", 10 * GB, "u",
                     job_id="t")
        sim.run()
        start, = [e for e in sim.events if e.kind == "transfer-start"]
        assert start.time == 15.0

    @given(st.data())
    def test_no_transfer_starts_inside_an_open_outage(self, data):
        sites = ["a", "b", "c"]
        sim = PlacementSimulator(
            [StorageSite(s, 1e15, 10 * GB, 10 * GB) for s in sites],
            PlacementPolicy(mode=data.draw(st.sampled_from(
                ["managed", "lossy-priority-baseline"])), retry_limit=5))
        times = st.integers(0, 30).map(float)
        routes = st.permutations(sites).map(lambda p: tuple(p[:2]))
        for _ in range(data.draw(st.integers(1, 6))):
            src, dst = data.draw(routes)
            sim.schedule(data.draw(times), sim.submit_transfer, src, dst,
                         data.draw(st.integers(1, 40)) * GB, "u")
        outages = []
        for _ in range(data.draw(st.integers(1, 8))):
            kind = data.draw(st.sampled_from(
                ["site-down", "disk-overflow", "link-down"]))
            target = (data.draw(routes) if kind == "link-down"
                      else data.draw(st.sampled_from(sites)))
            at, duration = data.draw(times), data.draw(times)
            sim.inject_failure(kind, target, at=at, duration=duration)
            outages.append((kind, target, at, at + duration))
        sim.run()
        for ev in sim.events:
            if ev.kind != "transfer-start":
                continue
            src, dst = ev.detail["source"], ev.detail["dest"]
            blockers = {("site-down", src), ("site-down", dst),
                        ("disk-overflow", dst), ("link-down", (src, dst))}
            for kind, target, start, end in outages:
                assert not ((kind, target) in blockers
                            and start <= ev.time < end), (ev, outages)


# finite floats, with subnormals, integral values, values past 1e16 and
# the two zeros, equal but written differently, drawn often
FINITE = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1.0, 3.0, 1e16,
                     2.0**53 + 2, 1.2345678901234567e21,
                     1.7976931348623157e308]),
    st.integers(-2**60, 2**60).map(float))
SUBJECTS = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028'),
                             st.characters()), max_size=12)


@given(st.lists(st.tuples(st.booleans(), FINITE, FINITE, FINITE, SUBJECTS),
                min_size=1, max_size=6))
@example([(False, 0.0, 0.0, 1.0, "a"), (False, -0.0, -0.0, 1.0, "b")])
def test_progress_lines_match_to_json(rows):
    # events of one step share a time object, as the simulator builds them
    events = []
    for same_step, t, rate, moved, subject in rows:
        if same_step and events:
            t = events[-1].time
        events.append(SimEvent(t, len(events), "transfer-progress", subject,
                               {"rate": rate, "bytes_moved": moved}))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events.jsonl")
        write_event_log(events, path)
        with open(path) as fh:
            lines = fh.read().split("\n")
    assert lines == [ev.to_json() for ev in events] + [""]


def golden_scenario(seed=2016):
    """A seeded scenario with leases, waiting allocations, replications and
    every failure kind, where no two outages of one site or one link
    overlap or touch: its logs do not depend on how stacked outages are
    counted."""
    rng = random.Random(seed)
    sites = [f"s{i}" for i in range(4)]
    routes = [(a, b) for a in sites for b in sites if a != b]
    scenario = {
        "schema_version": 1,
        "sites": [{"id": s, "capacity": f"{rng.choice((200, 300, 400))}GB",
                   "ingress_bw": f"{rng.choice((2, 5, 10))}GB/s",
                   "egress_bw": f"{rng.choice((2, 5, 10))}GB/s"}
                  for s in sites],
        "policy": {"mode": "managed", "replica_count": 2, "retry_limit": 2,
                   "queue_capacity": 5},
        # one long lease per site for the transfers that write into one
        "allocations": [{"id": f"lease-{s}", "site": s, "size": "10GB",
                         "duration": "1000s", "acl": [["etl", "write"]]}
                        for s in sites],
        "transfers": [], "failures": [], "replications": [],
    }
    for i in range(10):
        scenario["allocations"].append({
            "id": f"a{i}", "at": round(rng.uniform(0, 60), 3),
            "site": rng.choice(sites), "size": f"{rng.randint(40, 150)}GB",
            "duration": round(rng.uniform(10, 40), 3),
            "wait": rng.random() < 0.6})
    for i in range(40):
        src, dst = rng.choice(routes)
        transfer = {"id": f"t{i:02d}", "at": round(rng.uniform(0, 80), 3),
                    "source": src, "dest": dst,
                    "size": f"{rng.randint(1, 30)}GB", "owner": "etl",
                    "priority": rng.randint(0, 9),
                    "order": rng.randint(0, 20)}
        if i % 8 == 0:
            transfer["allocation"] = f"lease-{dst}"
        scenario["transfers"].append(transfer)
    for i in range(3):
        scenario["replications"].append({
            "dataset": f"d{i}", "at": round(rng.uniform(0, 60), 3),
            "source": rng.choice(sites), "size": f"{rng.randint(5, 20)}GB"})
    # site-downs and disk-overflows share one timeline per site
    for s in sites:
        t = rng.uniform(0, 10)
        for _ in range(3):
            duration = rng.uniform(1, 6)
            scenario["failures"].append({
                "kind": rng.choice(("site-down", "disk-overflow")),
                "target": s, "at": round(t, 3),
                "duration": round(duration, 3)})
            t += duration + rng.uniform(2, 10)
    for src, dst in rng.sample(routes, 3):
        t = rng.uniform(0, 20)
        for _ in range(2):
            duration = rng.uniform(1, 8)
            scenario["failures"].append({
                "kind": "link-down", "target": [src, dst], "at": round(t, 3),
                "duration": round(duration, 3)})
            t += duration + rng.uniform(5, 20)
    # and one link that never comes back
    src, dst = rng.choice(routes)
    scenario["failures"].append({"kind": "link-down", "target": [src, dst],
                                 "at": 90.0})
    return scenario


class TestGoldenLog:
    # sha256 of events.jsonl and report.json as written by the simulator
    # that kept one outage per target and cleared it at the first
    # recovery; this scenario never stacks two, so counting them must
    # change nothing
    GOLDEN = {
        ("managed", "fifo"): (
            "000a8542eca1b7924a0f96eb899cb9a53c9de7428770be67e5c726bfe9e582e5",
            "9be78f4f2858ac95812e14ac74f28c769d408230190c88a7e1294fdcdb6b1815",
        ),
        ("managed", "by-request-order-field"): (
            "02d218a6d9f092d3de5e023132f5d32fcdfa5ab858244437b4f5055b9c02bc1e",
            "9be78f4f2858ac95812e14ac74f28c769d408230190c88a7e1294fdcdb6b1815",
        ),
        ("lossy-priority-baseline", "fifo"): (
            "26762e03c843c96e731e58d7b789c7d5775ec1029eeaa33c0875d8a6c50e0897",
            "03cd49177e377f25a61b99d056b0e37c573492c4dfb6c82cff02482e8bb21a23",
        ),
    }

    def test_scenario_outages_never_stack(self):
        spans = {}
        for f in golden_scenario()["failures"]:
            key = (tuple(f["target"]) if f["kind"] == "link-down"
                   else f["target"])
            spans.setdefault(key, []).append(
                (f["at"], f["at"] + f.get("duration", math.inf)))
        for intervals in spans.values():
            intervals.sort()
            assert all(end < nxt for (_, end), (nxt, _) in
                       zip(intervals, intervals[1:]))

    @pytest.mark.parametrize("mode, ordering", sorted(GOLDEN))
    def test_logs_match_pinned_digests(self, tmp_path, monkeypatch, mode,
                                       ordering):
        from dwkit.cli import main
        scenario = golden_scenario()
        scenario["policy"]["ordering"] = ordering
        (tmp_path / "scenario.json").write_text(json.dumps(scenario))
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("DWKIT_OUT", raising=False)
        assert main(["simulate", "--scenario", "scenario.json", "--mode",
                     mode, "--out", "out"]) == 0
        kinds = {json.loads(line)["kind"] for line in
                 (tmp_path / "out" / "events.jsonl").read_text().splitlines()}
        # lossy mode evicts every priority-0 replication from its queue
        assert {"alloc-denied", "retry-scheduled", "replica-placed"
                if mode == "managed" else "transfer-dropped"} <= kinds
        events = (tmp_path / "out" / "events.jsonl").read_bytes()
        assert b'"waited": true' in events
        for kind in ("site-down", "disk-overflow", "link-down"):
            assert f'"failure": "{kind}"'.encode() in events
        digests = tuple(hashlib.sha256(
            (tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in ("events.jsonl", "report.json"))
        assert digests == self.GOLDEN[mode, ordering]
