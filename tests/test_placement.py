import copy
import json
import math

import pytest

from dwkit.errors import (AclDeniedError, InsufficientSitesError,
                          UnknownSiteError)
from dwkit.fixtures import overload_scenario_path
from dwkit.placement import (PlacementPolicy, PlacementSimulator, SimEvent,
                             StorageSite, build_simulator, drop_rate,
                             run_scenario)

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
