import math

import numpy as np
import pytest

from dwkit.errors import (DegenerateWorkloadError, InfeasibleHardwareError,
                          NoFeasibleThroughputError)
from dwkit.staging import (AnalysisKernel, ClusterConfig, Workload,
                           analysis_drain_time, check_feasible,
                           checkpoint_drain_time, energy_per_iteration,
                           min_kernel_throughput, plan, s_bandwidth,
                           s_capacity, staging_ratio)

GB = 1e9


def worked_config(**kw):
    base = dict(n_compute=128, bw_pfs=50 * GB, bw_host2ssd=3 * GB,
                bw_fm2c=2 * GB, bw_c2m=2 * GB, c_ssd=512 * GB,
                p_active=50.0, p_idle=5.0)
    base.update(kw)
    return ClusterConfig(**base)


def worked_workload(**kw):
    base = dict(lambda_a=2 * GB, lambda_c=8 * GB, num_chkpts=3,
                interval=3600.0, alpha=0.1)
    base.update(kw)
    return Workload(**base)


def bisect_min_throughput(cfg, wl, s, lo=1.0, hi=1e15, rel=1e-12):
    """Independent search oracle: bisection on check_feasible."""
    assert not check_feasible(cfg, wl, s, AnalysisKernel("lo", lo))
    assert check_feasible(cfg, wl, s, AnalysisKernel("hi", hi))
    while (hi - lo) > rel * hi:
        mid = 0.5 * (lo + hi)
        if check_feasible(cfg, wl, s, AnalysisKernel("m", mid)):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestRatios:
    def test_s_capacity_hand_value(self):
        # 512 GB over (1 + 3*4) GB staged per node: 512/13
        cfg = worked_config()
        wl = Workload(lambda_a=1 * GB, lambda_c=4 * GB, num_chkpts=3,
                      interval=3600.0, alpha=0.1)
        assert s_capacity(cfg, wl) == pytest.approx(512 / 13, rel=1e-12)

    def test_s_capacity_exactly_one_node(self):
        cfg = worked_config(c_ssd=7 * GB)
        wl = Workload(lambda_a=7 * GB, lambda_c=3 * GB, num_chkpts=0,
                      interval=10.0)
        assert s_capacity(cfg, wl) == 1.0

    def test_s_capacity_zero_footprint_unconstrained(self):
        wl = Workload(lambda_a=0.0, lambda_c=0.0, num_chkpts=3,
                      interval=10.0)
        with pytest.raises(DegenerateWorkloadError):
            s_capacity(worked_config(), wl)

    def test_ratio_past_the_float_range_is_degenerate(self):
        # both ratios overflow to inf, which has no floor
        cfg = worked_config(c_ssd=1e308, bw_host2ssd=1e308, bw_pfs=1e-300)
        wl = worked_workload(lambda_a=5e-324, lambda_c=0.0)
        with pytest.raises(DegenerateWorkloadError):
            staging_ratio(cfg, wl)

    def test_s_bandwidth_hand_value(self):
        assert s_bandwidth(worked_config()) == pytest.approx(128 * 3 / 50)

    def test_s_bandwidth_matching_interface(self):
        cfg = worked_config(n_compute=64, bw_pfs=64 * GB, bw_host2ssd=1 * GB)
        assert s_bandwidth(cfg) == pytest.approx(1.0)

    def test_s_bandwidth_single_node(self):
        cfg = worked_config(n_compute=1, bw_pfs=5 * GB, bw_host2ssd=5 * GB)
        assert s_bandwidth(cfg) == pytest.approx(1.0)

    def test_staging_ratio_floors_the_min(self):
        # capacity 39.38, bandwidth 7.68 -> floor(7.68) = 7
        cfg = worked_config()
        wl = Workload(lambda_a=1 * GB, lambda_c=4 * GB, num_chkpts=3,
                      interval=3600.0, alpha=0.1)
        assert staging_ratio(cfg, wl) == 7

    def test_staging_ratio_equal_constraints(self):
        cfg = worked_config(n_compute=100, bw_pfs=100 * GB,
                            bw_host2ssd=4 * GB, c_ssd=16 * GB)
        wl = Workload(lambda_a=4 * GB, lambda_c=0.0, num_chkpts=0,
                      interval=10.0)
        assert s_capacity(cfg, wl) == 4.0
        assert s_bandwidth(cfg) == 4.0
        assert staging_ratio(cfg, wl) == 4

    def test_staging_ratio_below_one_is_infeasible(self):
        cfg = worked_config(n_compute=10, bw_pfs=100 * GB,
                            bw_host2ssd=5 * GB)   # bandwidth ratio 0.5
        with pytest.raises(InfeasibleHardwareError):
            staging_ratio(cfg, worked_workload())

    def test_ratio_never_exceeds_either_floor(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            cfg = worked_config(
                n_compute=int(rng.integers(1, 1000)),
                bw_pfs=rng.uniform(1, 100) * GB,
                bw_host2ssd=rng.uniform(0.5, 10) * GB,
                c_ssd=rng.uniform(10, 2000) * GB)
            wl = worked_workload(
                lambda_a=rng.uniform(0.1, 10) * GB,
                lambda_c=rng.uniform(0.1, 10) * GB,
                num_chkpts=int(rng.integers(0, 5)))
            try:
                s = staging_ratio(cfg, wl)
            except InfeasibleHardwareError:
                continue
            assert s <= math.floor(s_capacity(cfg, wl))
            assert s <= math.floor(s_bandwidth(cfg))


class TestDrainTimes:
    def test_analysis_time_zero_data(self):
        k = AnalysisKernel("k", 1 * GB)
        wl = worked_workload(lambda_a=0.0)
        assert analysis_drain_time(worked_config(), wl, 8, k) == 0.0

    def test_analysis_time_no_drain(self):
        wl = worked_workload(alpha=0.0)
        k = AnalysisKernel("k", 1 * GB)
        t = analysis_drain_time(worked_config(), wl, 8, k)
        assert t == pytest.approx(2 * (0.5 + 0.5 + 1.0), rel=1e-12)

    def test_analysis_time_with_drain(self):
        wl = worked_workload()
        k = AnalysisKernel("k", 1 * GB)
        t = analysis_drain_time(worked_config(), wl, 8, k)
        assert t == pytest.approx(4.064, rel=1e-12)

    def test_checkpoint_time_zero(self):
        wl = worked_workload(lambda_c=0.0)
        assert checkpoint_drain_time(worked_config(), wl, 8) == 0.0

    def test_checkpoint_time_hand_value(self):
        t = checkpoint_drain_time(worked_config(), worked_workload(), 8)
        assert t == pytest.approx(2.56, rel=1e-12)

    def test_checkpoint_time_inverse_in_s(self):
        cfg, wl = worked_config(), worked_workload()
        assert checkpoint_drain_time(cfg, wl, 16) == pytest.approx(
            checkpoint_drain_time(cfg, wl, 8) / 2, rel=1e-12)


class TestFeasibility:
    def test_empty_workload_is_feasible(self):
        wl = worked_workload(lambda_a=0.0, lambda_c=0.0)
        k = AnalysisKernel("k", 1 * GB)
        assert check_feasible(worked_config(), wl, 8, k)

    def test_strict_boundary(self):
        # interval tuned so (ta + tc) * s lands exactly on it
        cfg, k = worked_config(), AnalysisKernel("k", 1 * GB)
        wl = worked_workload()
        total = (analysis_drain_time(cfg, wl, 8, k)
                 + checkpoint_drain_time(cfg, wl, 8)) * 8
        at_boundary = worked_workload(interval=total)
        assert not check_feasible(cfg, at_boundary, 8, k)

    def test_worked_scenario_feasible(self):
        cfg, wl = worked_config(), worked_workload()
        assert check_feasible(cfg, wl, 8, AnalysisKernel("k", 1 * GB))
        assert (4.064 + 2.56) * 8 < 3600

    def test_min_throughput_hand_value(self):
        t = min_kernel_throughput(worked_config(), worked_workload(), 8)
        assert t == pytest.approx(16 / 3563.008 * GB, rel=1e-9)

    def test_min_throughput_zero_analysis(self):
        wl = worked_workload(lambda_a=0.0)
        assert min_kernel_throughput(worked_config(), wl, 8) == 0.0

    def test_min_throughput_no_headroom(self):
        cfg = worked_config()
        wl = worked_workload(
            interval=2 * GB * 8 * (1 / cfg.bw_fm2c + 1 / cfg.bw_c2m))
        with pytest.raises(NoFeasibleThroughputError):
            min_kernel_throughput(cfg, wl, 8)

    def test_threshold_tightness_random(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 300:
            cfg = worked_config(
                n_compute=int(rng.integers(2, 512)),
                bw_pfs=rng.uniform(5, 200) * GB,
                bw_fm2c=rng.uniform(0.5, 10) * GB,
                bw_c2m=rng.uniform(0.5, 10) * GB)
            wl = worked_workload(
                lambda_a=rng.uniform(0.01, 5) * GB,
                lambda_c=rng.uniform(0.0, 5) * GB,
                interval=rng.uniform(60, 7200),
                alpha=rng.uniform(0, 1))
            s = int(rng.integers(1, 64))
            try:
                t_min = min_kernel_throughput(cfg, wl, s)
            except NoFeasibleThroughputError:
                continue
            checked += 1
            above = AnalysisKernel("a", t_min * (1 + 1e-6))
            below = AnalysisKernel("b", t_min * (1 - 1e-6))
            assert check_feasible(cfg, wl, s, above)
            assert not check_feasible(cfg, wl, s, below)

    def test_bisection_matches_closed_form(self):
        cfg, wl = worked_config(), worked_workload()
        t_min = min_kernel_throughput(cfg, wl, 8)
        assert bisect_min_throughput(cfg, wl, 8) == pytest.approx(
            t_min, rel=1e-9)

    def test_monotone_in_interval_s_and_lambda_a(self):
        cfg = worked_config()
        base = worked_workload()
        t0 = min_kernel_throughput(cfg, base, 8)
        assert min_kernel_throughput(
            cfg, worked_workload(interval=7200.0), 8) <= t0
        assert min_kernel_throughput(cfg, base, 9) >= t0
        assert min_kernel_throughput(
            cfg, worked_workload(lambda_a=3 * GB), 8) >= t0


class TestEnergy:
    def test_zero_workload_zero_idle_power(self):
        cfg = worked_config(p_active=50.0, p_idle=0.0)
        wl = worked_workload(lambda_a=0.0, lambda_c=0.0)
        e = energy_per_iteration(cfg, wl, 8, AnalysisKernel("k", 1 * GB))
        assert e.total == 0.0

    def test_idle_only_energy(self):
        cfg = worked_config(n_compute=128, p_active=5.0, p_idle=5.0)
        wl = worked_workload(lambda_a=0.0, lambda_c=0.0, interval=100.0)
        e = energy_per_iteration(cfg, wl, 8, AnalysisKernel("k", 1 * GB))
        assert e.e_idle == pytest.approx(5 * 100 * 16)
        assert e.e_node2ssd == e.e_active == e.e_ssd2pfs == 0.0

    def test_ingest_time_hand_value(self):
        cfg = worked_config()
        wl = worked_workload(lambda_a=2 * GB, lambda_c=8 * GB)
        e = energy_per_iteration(cfg, wl, 8, AnalysisKernel("k", 1 * GB))
        t_in = 8 * 10 * GB / (3 * GB)
        assert e.e_node2ssd == pytest.approx(cfg.p_active * t_in * 16)

    def test_accounting_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            cfg = worked_config(p_active=rng.uniform(10, 100),
                                p_idle=rng.uniform(0, 10))
            wl = worked_workload(lambda_a=rng.uniform(0, 4) * GB,
                                 lambda_c=rng.uniform(0, 4) * GB)
            e = energy_per_iteration(cfg, wl, 8, AnalysisKernel("k", 1 * GB))
            assert e.e_idle >= 0.0
            parts = e.e_node2ssd + e.e_active + e.e_ssd2pfs + e.e_idle
            assert e.total == pytest.approx(parts, rel=1e-12)

    def test_over_budget_flag(self):
        cfg = worked_config(bw_host2ssd=0.001 * GB)
        wl = worked_workload(interval=10.0)
        e = energy_per_iteration(cfg, wl, 8, AnalysisKernel("k", 1 * GB))
        assert e.over_budget
        assert e.e_idle == 0.0


class TestPlan:
    def test_offloadable_above_threshold(self):
        cfg, wl = worked_config(), worked_workload()
        t_min = min_kernel_throughput(cfg, wl, staging_ratio(cfg, wl))
        p = plan(cfg, wl, [AnalysisKernel("fast", 2 * t_min),
                           AnalysisKernel("slow", 0.5 * t_min)])
        assert p.offload_verdicts == {"fast": True, "slow": False}

    def test_worked_scenario_offloadable(self):
        p = plan(worked_config(), worked_workload(),
                 [AnalysisKernel("hist", 1 * GB)])
        assert p.offload_verdicts["hist"]
        assert p.feasible

    def test_deterministic(self):
        args = (worked_config(), worked_workload(),
                [AnalysisKernel("hist", 1 * GB)])
        assert plan(*args) == plan(*args)

    def test_unit_scaling_leaves_verdicts_unchanged(self):
        # scaling every bandwidth and data volume together changes nothing
        cfg, wl = worked_config(), worked_workload()
        p1 = plan(cfg, wl, [AnalysisKernel("k", 1 * GB)])
        f = 1000.0
        cfg2 = worked_config(bw_pfs=cfg.bw_pfs * f,
                             bw_host2ssd=cfg.bw_host2ssd * f,
                             bw_fm2c=cfg.bw_fm2c * f,
                             bw_c2m=cfg.bw_c2m * f, c_ssd=cfg.c_ssd * f)
        wl2 = worked_workload(lambda_a=wl.lambda_a * f,
                              lambda_c=wl.lambda_c * f)
        p2 = plan(cfg2, wl2, [AnalysisKernel("k", 1 * GB * f)])
        assert p1.s == p2.s
        assert p1.feasible == p2.feasible
        assert p1.offload_verdicts == p2.offload_verdicts
