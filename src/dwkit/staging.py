"""SSD staging-tier planner.

Sizes an SSD staging tier for an iterative simulation + analysis pipeline:
how many compute nodes one staging node can absorb (the staging ratio),
whether draining analysis and checkpoint output fits inside one iteration
interval, the minimum analysis-kernel throughput that keeps the schedule
feasible, and the per-iteration energy cost of the staging tier.

All quantities are base SI units (bytes, bytes/s, seconds, watts, joules).
Data volumes are per compute node per iteration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (DegenerateWorkloadError, InfeasibleHardwareError,
                     NoFeasibleThroughputError)


@dataclass(frozen=True)
class ClusterConfig:
    """Hardware description of the compute + staging + PFS stack.

    bw_fm2c and bw_c2m are the two hops of an analysis transfer: compute
    node memory -> staging controller -> staging node memory.
    """
    n_compute: int
    bw_pfs: float            # aggregate parallel-file-system bandwidth
    bw_host2ssd: float       # host-to-SSD interface bandwidth, per staging node
    bw_fm2c: float
    bw_c2m: float
    c_ssd: float             # usable capacity per SSD staging node
    p_active: float = 0.0    # watts while ingesting/processing/draining
    p_idle: float = 0.0      # watts while idle

    def __post_init__(self):
        if self.n_compute < 1:
            raise ValueError("n_compute must be >= 1")
        for name in ("bw_pfs", "bw_host2ssd", "bw_fm2c", "bw_c2m", "c_ssd"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if not self.p_active >= self.p_idle >= 0:
            raise ValueError("need p_active >= p_idle >= 0")


@dataclass(frozen=True)
class Workload:
    """Per-compute-node, per-iteration data production."""
    lambda_a: float          # analysis bytes produced per iteration
    lambda_c: float          # checkpoint bytes produced per iteration
    num_chkpts: int = 1      # retained checkpoint generations
    interval: float = 1.0    # iteration interval, seconds
    alpha: float = 1.0       # fraction of analysis output drained to the PFS

    def __post_init__(self):
        if self.lambda_a < 0 or self.lambda_c < 0 or self.num_chkpts < 0:
            raise ValueError("data volumes and num_chkpts must be >= 0")
        if self.interval <= 0:
            raise ValueError("interval must be > 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")


@dataclass(frozen=True)
class AnalysisKernel:
    """A data-reduction computation that may run on the staging nodes."""
    name: str
    throughput: float        # sustained bytes/s on one staging node

    def __post_init__(self):
        if self.throughput <= 0:
            raise ValueError("kernel throughput must be > 0")


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-iteration energy of the whole staging tier, joules."""
    e_node2ssd: float
    e_active: float
    e_ssd2pfs: float
    e_idle: float
    total: float
    over_budget: bool        # busy time exceeded the iteration interval


@dataclass(frozen=True)
class StagingPlan:
    """The CLI reports these fields, and the energy's, in this order."""
    s_capacity: float
    s_bandwidth: float
    s: int
    t_a: float
    t_c: float
    t_ssd_min: float
    feasible: bool
    offload_verdicts: dict[str, bool]
    analysis_times: dict[str, float]
    energy: EnergyBreakdown


def s_capacity(cfg: ClusterConfig, wl: Workload) -> float:
    """Capacity-limited staging ratio: nodes whose retained analysis and
    checkpoint footprint fits on one staging node's SSD."""
    footprint = wl.lambda_a + wl.num_chkpts * wl.lambda_c
    if footprint <= 0:
        raise DegenerateWorkloadError(
            "zero staged footprint; capacity ratio is unconstrained")
    return cfg.c_ssd / footprint


def s_bandwidth(cfg: ClusterConfig) -> float:
    """Bandwidth-limited staging ratio: the staging node's ingest interface
    must cover the PFS share of the compute nodes it replaces."""
    return cfg.n_compute * cfg.bw_host2ssd / cfg.bw_pfs


def staging_ratio(cfg: ClusterConfig, wl: Workload) -> int:
    """Chosen ratio: floor of the tighter of the two constraints, >= 1."""
    ratio = min(s_capacity(cfg, wl), s_bandwidth(cfg))
    if ratio < 1.0:
        raise InfeasibleHardwareError(
            f"staging ratio {ratio:.4g} < 1: one staging node cannot "
            f"serve a single compute node")
    if ratio == math.inf:
        raise DegenerateWorkloadError("the staging ratio overflows a float")
    return math.floor(ratio)


def analysis_drain_time(cfg: ClusterConfig, wl: Workload, s: int,
                        kernel: AnalysisKernel) -> float:
    """Seconds to move, process, and drain one compute node's analysis
    output: two transfer hops, kernel processing, and the reduced output's
    share of PFS bandwidth."""
    if wl.lambda_a == 0:
        return 0.0
    return wl.lambda_a * (1.0 / cfg.bw_fm2c
                          + 1.0 / cfg.bw_c2m
                          + 1.0 / kernel.throughput
                          + wl.alpha * cfg.n_compute / (s * cfg.bw_pfs))


def checkpoint_drain_time(cfg: ClusterConfig, wl: Workload, s: int) -> float:
    """Seconds to drain one compute node's checkpoint against the staging
    node's PFS share."""
    return wl.lambda_c * cfg.n_compute / (s * cfg.bw_pfs)


def check_feasible(cfg: ClusterConfig, wl: Workload, s: int,
                   kernel: AnalysisKernel) -> bool:
    """True iff a staging node drains all s nodes' data within one
    iteration interval (strict inequality)."""
    t_a = analysis_drain_time(cfg, wl, s, kernel)
    t_c = checkpoint_drain_time(cfg, wl, s)
    return (t_a + t_c) * s < wl.interval


def min_kernel_throughput(cfg: ClusterConfig, wl: Workload, s: int) -> float:
    """Minimum kernel throughput keeping the schedule feasible.

    Any throughput strictly above the returned value satisfies
    check_feasible; strictly below fails it.  Zero analysis output means
    any kernel qualifies.
    """
    if wl.lambda_a == 0:
        return 0.0
    transfer = wl.lambda_a * s * (1.0 / cfg.bw_fm2c + 1.0 / cfg.bw_c2m)
    drain = cfg.n_compute * (wl.alpha * wl.lambda_a + wl.lambda_c) / cfg.bw_pfs
    denom = wl.interval - transfer - drain
    if denom <= 0:
        raise NoFeasibleThroughputError(
            f"transfers alone take {transfer + drain:.6g} s of the "
            f"{wl.interval:.6g} s interval")
    return wl.lambda_a * s / denom


def energy_per_iteration(cfg: ClusterConfig, wl: Workload, s: int,
                         kernel: AnalysisKernel) -> EnergyBreakdown:
    """Energy spent by the N/s staging nodes during one iteration.

    Busy time on one staging node = ingest + process + drain; the rest of
    the interval is idle.  Busy time is capped at the interval and flagged
    when it overruns, so the idle term is never negative.
    """
    n_staging = cfg.n_compute / s
    t_in = s * (wl.lambda_a + wl.lambda_c) / cfg.bw_host2ssd
    t_proc = s * wl.lambda_a / kernel.throughput
    t_out = (s * wl.alpha * wl.lambda_a + s * wl.lambda_c) \
        * cfg.n_compute / (s * cfg.bw_pfs)
    busy = t_in + t_proc + t_out
    over_budget = busy > wl.interval
    idle = max(wl.interval - busy, 0.0)
    e_node2ssd = cfg.p_active * t_in * n_staging
    e_active = cfg.p_active * t_proc * n_staging
    e_ssd2pfs = cfg.p_active * t_out * n_staging
    e_idle = cfg.p_idle * idle * n_staging
    return EnergyBreakdown(
        e_node2ssd=e_node2ssd, e_active=e_active, e_ssd2pfs=e_ssd2pfs,
        e_idle=e_idle, total=e_node2ssd + e_active + e_ssd2pfs + e_idle,
        over_budget=over_budget)


def plan(cfg: ClusterConfig, wl: Workload,
         kernels: list[AnalysisKernel]) -> StagingPlan:
    """Full plan: staging ratio, drain times, throughput threshold,
    feasibility, energy, and a per-kernel offload verdict.

    Plan-level t_a, feasibility, and energy are computed for the fastest
    kernel supplied; per-kernel analysis times are reported alongside.
    """
    if not kernels:
        raise ValueError("at least one analysis kernel is required")
    cap = s_capacity(cfg, wl)
    bw = s_bandwidth(cfg)
    s = staging_ratio(cfg, wl)
    t_min = min_kernel_throughput(cfg, wl, s)
    verdicts = {k.name: k.throughput > t_min for k in kernels}
    times = {k.name: analysis_drain_time(cfg, wl, s, k) for k in kernels}
    best = max(kernels, key=lambda k: (k.throughput, k.name))
    t_a = times[best.name]
    t_c = checkpoint_drain_time(cfg, wl, s)
    return StagingPlan(
        s_capacity=cap, s_bandwidth=bw, s=s, t_a=t_a, t_c=t_c,
        t_ssd_min=t_min, feasible=check_feasible(cfg, wl, s, best),
        offload_verdicts=verdicts, analysis_times=times,
        energy=energy_per_iteration(cfg, wl, s, best))
