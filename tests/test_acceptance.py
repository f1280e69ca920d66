"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Every criterion prints ``ACCEPTANCE n: PASS|FAIL`` (run pytest with -s to
see the lines) and then asserts, so a red criterion is visible both in the
console transcript and in the pytest summary.  Tolerances are stated
inline next to each check.
"""
import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta as beta_fn

from dwkit import chunkstore, schema_pca
from dwkit.cli import main as cli_main
from dwkit.errors import NoFeasibleThroughputError
from dwkit.fixtures import overload_scenario_path, server_records_path
from dwkit.mapreduce import fold_op, make_ops_mapper, mapreduce, reduce_op
from dwkit.placement import PlacementSimulator, StorageSite, run_scenario
from dwkit.regress import (anova_from_sums, f_pvalue, fit_ols,
                           summarize, summary_from_sums,
                           survey_identity_report)
from dwkit.staging import (AnalysisKernel, ClusterConfig, Workload,
                           analysis_drain_time, check_feasible,
                           checkpoint_drain_time, min_kernel_throughput)

GB = 1e9


def verdict(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def worked_cluster(**kw):
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


def test_criterion_1_table_identity_reproduction():
    start = time.perf_counter()
    s = summary_from_sums(20.0, 62.5, 6, 5)
    a = anova_from_sums(20.0, 62.5, 6, 5)
    checks = [
        abs(s.r_square - 0.242424) <= 1e-6,
        abs(s.multiple_r - 0.492366) <= 1e-6,
        abs(s.standard_error - 3.535534) <= 1e-6,
        abs(a.ms_regression - 3.333333) <= 1e-6,
        abs(a.ms_residual - 12.5) <= 1e-6,
        a.ss_total == 82.5,
    ]
    elapsed = time.perf_counter() - start
    verdict(1, all(checks) and elapsed < 1.0,
            f"R²/MultipleR/SE/MS within 1e-6, SS_total exact "
            f"({elapsed:.3f} s < 1 s)")


def test_criterion_2_documented_discrepancy():
    rep = survey_identity_report()
    joined = " ".join(rep["warnings"])
    a, b = 5 / 2.0, 6 / 2.0   # df2/2, df1/2
    x = 5.0 / (5.0 + 6 * 0.4)
    oracle, _ = quad(lambda t: t ** (a - 1) * (1 - t) ** (b - 1)
                     / beta_fn(a, b), 0.0, x)
    checks = [
        abs(rep["anova"].f - 0.266667) <= 1e-6,
        "F = 0.4" in joined,
        "0.8435099" in joined,
        abs(f_pvalue(0.4, 6, 5) - oracle) <= 1e-9,
    ]
    verdict(2, all(checks),
            "F recomputed as 0.266667; warning names printed F=0.4 and "
            "Significance F=0.8435099; f_pvalue matches quadrature to 1e-9")


def test_criterion_3_staging_threshold_tightness():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    worst_bisect = 0.0
    while checked < 1000:
        cfg = worked_cluster(
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
        # threshold is tight to relative width 1e-6
        assert check_feasible(cfg, wl, s, AnalysisKernel("hi",
                                                         t_min * (1 + 1e-6)))
        assert not check_feasible(cfg, wl, s,
                                  AnalysisKernel("lo", t_min * (1 - 1e-6)))
        if checked % 25 == 0:   # bisection oracle on a 40-config subsample
            lo, hi = t_min * 0.5, t_min * 2.0
            while (hi - lo) > 1e-12 * hi:
                mid = 0.5 * (lo + hi)
                if check_feasible(cfg, wl, s, AnalysisKernel("m", mid)):
                    hi = mid
                else:
                    lo = mid
            worst_bisect = max(worst_bisect,
                               abs(0.5 * (lo + hi) - t_min) / t_min)
    elapsed = time.perf_counter() - start
    verdict(3, worst_bisect <= 1e-9 and elapsed < 5.0,
            f"1000 configs flip within 1e-6; bisection vs closed form "
            f"{worst_bisect:.2e} <= 1e-9 ({elapsed:.2f} s < 5 s)")


def test_criterion_4_worked_plan():
    cfg, wl = worked_cluster(), worked_workload()
    s = 8   # the scenario fixes the staging ratio
    t_a = analysis_drain_time(cfg, wl, s, AnalysisKernel("hist", 1 * GB))
    t_c = checkpoint_drain_time(cfg, wl, s)
    t_min = min_kernel_throughput(cfg, wl, s)
    # hand derivation: 2*8 / (3600 - 2*8*(1/2 + 1/2) - 128*(0.2 + 8)/50)
    t_min_oracle = 16.0 / 3563.008 * GB   # prints as 0.0044906 GB/s
    checks = [
        abs(t_min - t_min_oracle) / t_min_oracle <= 1e-7,
        round(t_min / GB, 7) == 0.0044906,
        abs(t_a - 4.064) <= 1e-9,
        abs(t_c - 2.56) <= 1e-9,
    ]
    verdict(4, all(checks),
            f"N=128, S=8, I=3600 s: t_ssd_min = {t_min / GB:.7f} GB/s "
            f"(±1e-7 rel), t_a = {t_a} s, t_c = {t_c} s")


def test_criterion_5_pca_oracle_equivalence():
    CM = schema_pca.CorrelationMatrix
    two = np.array([[1.0, 0.6], [0.6, 1.0]])
    three = np.full((3, 3), 0.5) + 0.5 * np.eye(3)
    f2 = schema_pca.extract_factors(CM(two, ["a", "b"]))
    f3 = schema_pca.extract_factors(CM(three, ["a", "b", "c"]))
    ok_eigs = (np.max(np.abs(np.sort(f2.eigenvalues)[::-1]
                             - [1.6, 0.4])) <= 1e-10
               and np.max(np.abs(np.sort(f3.eigenvalues)[::-1]
                                 - [2.0, 0.5, 0.5])) <= 1e-10)
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        sample = rng.normal(size=(4 * n + 20, n)) @ rng.normal(size=(n, n))
        corr = np.corrcoef(sample, rowvar=False)
        f = schema_pca.extract_factors(CM(corr, [str(j) for j in range(n)]))
        recon = f.eigenvectors @ np.diag(f.eigenvalues) @ f.eigenvectors.T
        worst = max(worst, float(np.max(np.abs(recon - corr))))
    verdict(5, ok_eigs and worst < 1e-8,
            f"eigenvalues within 1e-10; worst reconstruction error "
            f"{worst:.2e} < 1e-8 over 100 random correlation matrices")


def test_criterion_6_mapreduce_sample():
    start = time.perf_counter()
    results = {}
    ops = make_ops_mapper([("count", "count", None),
                           ("mean:Delay", "mean", "Delay"),
                           ("max:AET", "max", "ActualElapsedTime")])
    for chunk_size in (1, 3, 8):
        ds = chunkstore.open_datastore(server_records_path(),
                                       chunk_size=chunk_size)
        got = dict(mapreduce(ds, ops, reduce_op, fold=fold_op).pairs)
        results[chunk_size] = (int(got["count"]), float(got["mean:Delay"]),
                               int(got["max:AET"]))

    injected = []

    def injector(kind, task_id, attempt):
        if kind == "map" and attempt == 1 and len(injected) < 2:
            injected.append(task_id)
            return True
        return False

    ds = chunkstore.open_datastore(server_records_path(), chunk_size=3)
    faulty = dict(mapreduce(ds, ops, reduce_op, fold=fold_op,
                            fail_injector=injector).pairs)["mean:Delay"]
    elapsed = time.perf_counter() - start
    ok = (all(v == (8, 15.875, 155) for v in results.values())
          and len(injected) == 2 and float(faulty) == 15.875
          and elapsed < 1.0)
    verdict(6, ok,
            f"count 8, mean Delay 15.875, max AET 155 for chunk sizes "
            f"1/3/8 and with 2 injected failures ({elapsed:.3f} s < 1 s)")


def test_criterion_7_simulator_oracles():
    sim = PlacementSimulator([StorageSite("a", 1e15, 10 * GB, 10 * GB),
                              StorageSite("b", 1e15, 10 * GB, 10 * GB)])
    sim.submit_transfer("a", "b", 100 * GB, "u", job_id="t")
    sim.run()
    single_ok = sim.jobs["t"].completed_at == 10.0

    def fair_pair():
        s = PlacementSimulator([StorageSite("a", 1e15, 10 * GB, 10 * GB),
                                StorageSite("b", 1e15, 100 * GB, 100 * GB)])
        s.submit_transfer("a", "b", 60 * GB, "u", job_id="small")
        s.submit_transfer("a", "b", 100 * GB, "u", job_id="large")
        s.run()
        return s
    s1, s2 = fair_pair(), fair_pair()
    fair_ok = (s1.jobs["small"].completed_at == 12.0
               and s1.jobs["large"].completed_at == 16.0)
    log1 = "\n".join(ev.to_json() for ev in s1.events)
    log2 = "\n".join(ev.to_json() for ev in s2.events)
    verdict(7, single_ok and fair_ok and log1 == log2,
            "100 GB @ 10 GB/s completes at exactly 10 s; fair-share pair "
            "at exactly 12 s / 16 s; repeated runs byte-identical")


def test_criterion_8_drop_rate_contrast():
    with open(overload_scenario_path()) as fh:
        scenario = json.load(fh)
    _, lossy = run_scenario(scenario)
    managed = json.loads(json.dumps(scenario))
    managed["policy"]["mode"] = "managed"
    _, kept = run_scenario(managed)
    verdict(8, lossy["drop_rate"] > 0 and kept["drop_rate"] == 0,
            f"bundled overload scenario: baseline drop_rate = "
            f"{lossy['drop_rate']} > 0, managed drop_rate = "
            f"{kept['drop_rate']} with retries")


def test_criterion_9_property_suites(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(4242)

    # capacity safety: granted-minus-expired never exceeds capacity
    for _ in range(100):
        cap = rng.uniform(50, 200) * GB
        sim = PlacementSimulator([StorageSite("a", cap, 10 * GB, 10 * GB)])
        for _ in range(12):
            sim.schedule(float(rng.uniform(0, 60)), sim.allocate, "a",
                         float(rng.uniform(5, 80)) * GB,
                         float(rng.uniform(5, 30)), [], False, None)
        sim.run()
        held = 0.0
        for ev in sim.events:
            if ev.kind == "alloc-granted":
                held += ev.detail["size"]
            elif ev.kind == "alloc-expired":
                held -= ev.detail["size"]
            assert held <= cap + 1e-6

    # byte conservation: completed bytes equal submitted sizes exactly
    for _ in range(100):
        sim = PlacementSimulator(
            [StorageSite("a", 1e18, rng.uniform(1, 20) * GB, 1e12),
             StorageSite("b", 1e18, 1e12, rng.uniform(1, 20) * GB)])
        sizes = [float(rng.uniform(1, 50)) * GB
                 for _ in range(int(rng.integers(1, 6)))]
        for i, size in enumerate(sizes):
            sim.submit_transfer("a", "b", size, "u", job_id=f"j{i}")
        sim.run()
        for i, size in enumerate(sizes):
            job = sim.jobs[f"j{i}"]
            assert job.state == "done" and job.bytes_moved == size

    # regression: adding a predictor never lowers R-square
    for _ in range(100):
        X = rng.normal(size=(30, 4))
        y = X @ rng.normal(size=4) + rng.normal(size=30)
        r2 = [summarize(fit_ols(X[:, :k], y)).r_square for k in (1, 2, 3, 4)]
        assert all(b >= a - 1e-12 for a, b in zip(r2, r2[1:]))

    # chunk invariance: mapreduce sum is identical for any chunk size
    csv = tmp_path / "vals.csv"
    for case in range(100):
        n = int(rng.integers(1, 40))
        vals = rng.integers(0, 1000, size=n)
        csv.write_text("v\n" + "\n".join(str(v) for v in vals) + "\n")
        outs = set()
        for chunk_size in (1, int(rng.integers(2, 8)), max(n, 1)):
            ds = chunkstore.open_datastore(str(csv), chunk_size=chunk_size)
            res = mapreduce(ds, make_ops_mapper([("sum:v", "sum", "v")]),
                            reduce_op, fold=fold_op)
            outs.add(int(res.pairs[0][1]))
        assert outs == {int(vals.sum())}

    # config round trip: the normalized manifest is a CLI fixed point
    base = {
        "schema_version": 1,
        "cluster": {"n_compute": 16, "bw_pfs": "50GB/s",
                    "bw_host2ssd": "3GB/s", "bw_fm2c": "2GB/s",
                    "bw_c2m": "2GB/s", "c_ssd": "512GB",
                    "p_active": "50W", "p_idle": "5W"},
        "workload": {"lambda_a": "1GB", "lambda_c": "4GB",
                     "num_chkpts": 2, "interval": "3600s", "alpha": 0.1},
        "kernels": [{"name": "k", "throughput": "1GB/s"}],
    }
    for case in range(100):
        cfg = json.loads(json.dumps(base))
        cfg["cluster"]["n_compute"] = int(rng.integers(8, 512))
        cfg["workload"]["lambda_a"] = f"{rng.uniform(0.1, 4):.3f}GB"
        cfg["workload"]["interval"] = f"{rng.uniform(600, 7200):.1f}s"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out1 = tmp_path / f"o{case}a"
        assert cli_main(["plan", "--config", str(path),
                         "--out", str(out1)]) == 0
        with open(out1 / "report.json") as fh:
            manifest = json.load(fh)["config"]
        path.write_text(json.dumps(manifest))
        out2 = tmp_path / f"o{case}b"
        assert cli_main(["plan", "--config", str(path),
                         "--out", str(out2)]) == 0
        with open(out2 / "report.json") as fh:
            assert json.load(fh)["config"] == manifest

    elapsed = time.perf_counter() - start
    verdict(9, elapsed < 60.0,
            f"capacity safety, byte conservation, nested-R² monotonicity, "
            f"chunk invariance, config fixed point — 100 cases each "
            f"({elapsed:.1f} s < 60 s)")
