import collections
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import dwkit
from dwkit import chunkstore
from dwkit.cli import main
from dwkit.fixtures import overload_scenario_path, server_records_path

PLAN_CONFIG = {
    "schema_version": 1,
    "cluster": {"n_compute": 128, "bw_pfs": "50GB/s",
                "bw_host2ssd": "3GB/s", "bw_fm2c": "2GB/s",
                "bw_c2m": "2GB/s", "c_ssd": "512GB",
                "p_active": "50W", "p_idle": "5W"},
    "workload": {"lambda_a": "2GB", "lambda_c": "8GB", "num_chkpts": 3,
                 "interval": "3600s", "alpha": 0.1},
    "kernels": [{"name": "hist", "throughput": "1GB/s"}],
}


@pytest.fixture(autouse=True)
def no_env_override(monkeypatch):
    monkeypatch.delenv("DWKIT_OUT", raising=False)


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(argv):
    return main(argv)


def load_report(outdir):
    with open(os.path.join(outdir, "report.json")) as fh:
        return json.load(fh)


class TestPlanCommand:
    def test_config_run_succeeds(self, tmp_path):
        out = str(tmp_path / "out")
        code = run(["plan", "--config",
                    write_config(tmp_path, PLAN_CONFIG), "--out", out])
        assert code == 0
        rep = load_report(out)
        assert rep["subcommand"] == "plan"
        assert rep["results"]["feasible"] is True
        assert rep["results"]["offload_verdicts"] == {"hist": True}
        assert os.path.exists(os.path.join(out, "report.txt"))

    def test_units_normalized_in_manifest(self, tmp_path):
        out = str(tmp_path / "out")
        run(["plan", "--config", write_config(tmp_path, PLAN_CONFIG),
             "--out", out])
        cfg = load_report(out)["config"]
        assert cfg["cluster"]["bw_pfs"] == 50e9
        assert cfg["workload"]["lambda_a"] == 2e9
        assert cfg["workload"]["interval"] == 3600.0
        assert cfg["schema_version"] == 1

    def test_flags_override_config(self, tmp_path):
        out = str(tmp_path / "out")
        run(["plan", "--config", write_config(tmp_path, PLAN_CONFIG),
             "--lambda-a", "4GB", "--out", out])
        assert load_report(out)["config"]["workload"]["lambda_a"] == 4e9

    def test_normalized_manifest_is_a_fixed_point(self, tmp_path):
        out1 = str(tmp_path / "o1")
        run(["plan", "--config", write_config(tmp_path, PLAN_CONFIG),
             "--out", out1])
        manifest = load_report(out1)["config"]
        out2 = str(tmp_path / "o2")
        code = run(["plan", "--config",
                    write_config(tmp_path, manifest, "round.json"),
                    "--out", out2])
        assert code == 0
        assert load_report(out2)["config"] == manifest

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, PLAN_CONFIG)
        blobs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            run(["plan", "--config", cfg, "--out", out])
            with open(os.path.join(out, "report.json"), "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]

    def test_missing_fields_is_usage_error(self, tmp_path, capsys):
        code = run(["plan", "--n-compute", "4",
                    "--out", str(tmp_path / "out")])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = dict(PLAN_CONFIG)
        cfg["clusterr"] = {}
        code = run(["plan", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "out")])
        assert code == 2

    def test_unknown_nested_key_rejected(self, tmp_path):
        cfg = json.loads(json.dumps(PLAN_CONFIG))
        cfg["cluster"]["turbo"] = True
        code = run(["plan", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "out")])
        assert code == 2

    def test_binary_prefix_rejected(self, tmp_path):
        cfg = json.loads(json.dumps(PLAN_CONFIG))
        cfg["workload"]["lambda_a"] = "2GiB"
        code = run(["plan", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "out")])
        assert code == 2

    def test_bad_schema_version(self, tmp_path):
        cfg = dict(PLAN_CONFIG, schema_version=99)
        code = run(["plan", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "out")])
        assert code == 2

    def test_domain_error_exits_1(self, tmp_path, capsys):
        # SSD capacity below one node's footprint: model error, not usage
        cfg = json.loads(json.dumps(PLAN_CONFIG))
        cfg["cluster"]["c_ssd"] = "1GB"
        code = run(["plan", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_env_overrides_outdir(self, tmp_path, monkeypatch):
        env_out = str(tmp_path / "env-out")
        monkeypatch.setenv("DWKIT_OUT", env_out)
        run(["plan", "--config", write_config(tmp_path, PLAN_CONFIG),
             "--out", str(tmp_path / "ignored")])
        assert os.path.exists(os.path.join(env_out, "report.json"))
        assert not os.path.exists(str(tmp_path / "ignored"))


class TestGoldenReport:
    # sha256 of report.json and report.txt; a report section lists its
    # result type's fields in declaration order, which report.txt keeps
    GOLDEN = {
        "plan": (
            "8e3598a4dbcef25655b7f4729789a1582eca1c1f8262f835fa95c5bf87ff904b",
            "91d650a1dc9214b96b49cfc8e46c9fc298eff4496fde17ae29d56762e9e712a0",
        ),
        "regress": (
            "8c822cee125464111b16f0041188eb4808f804db65316a31654652a8f7620398",
            "1511b6866e72f7edaf6364475af3fbf3bc257108495aa245520614ecf3c76a28",
        ),
    }

    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_reports_match_pinned_digests(self, tmp_path, command):
        argv = {"plan": ["plan", "--config",
                         write_config(tmp_path, PLAN_CONFIG)],
                "regress": ["regress"]}[command]
        out = tmp_path / "out"
        assert run([*argv, "--out", str(out)]) == 0
        digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in ("report.json", "report.txt"))
        assert digests == self.GOLDEN[command]


class TestSimulateCommand:
    def test_scenario_runs_and_logs_events(self, tmp_path):
        out = str(tmp_path / "out")
        code = run(["simulate", "--scenario", overload_scenario_path(),
                    "--out", out])
        assert code == 0
        rep = load_report(out)
        assert rep["results"]["dropped"] == 5
        assert rep["results"]["drop_rate_from_log"] == pytest.approx(0.625)
        with open(os.path.join(out, "events.jsonl")) as fh:
            events = [json.loads(line) for line in fh]
        assert len(events) == rep["results"]["events"]
        assert all("time" in ev and "kind" in ev for ev in events)

    def test_mode_override_eliminates_drops(self, tmp_path):
        out = str(tmp_path / "out")
        code = run(["simulate", "--scenario", overload_scenario_path(),
                    "--mode", "managed", "--out", out])
        assert code == 0
        rep = load_report(out)
        assert rep["results"]["dropped"] == 0
        assert rep["results"]["completed"] == 8

    def test_missing_scenario_is_usage_error(self, tmp_path):
        assert run(["simulate", "--out", str(tmp_path / "out")]) == 2

    def test_generated_ids_skip_scenario_ids(self, tmp_path):
        # the replication's generated job id must not replace the transfer
        # the scenario names job-1
        scenario = overload_with("replications", {
            "dataset": "d", "size": "1GB", "source": "ingest", "at": "5s"})
        scenario["transfers"][0]["id"] = "job-1"
        out = str(tmp_path / "out")
        assert run(["simulate", "--scenario",
                    write_config(tmp_path, scenario, "scenario.json"),
                    "--mode", "managed", "--out", out]) == 0
        results = load_report(out)["results"]
        assert results["submitted"] == 9
        assert results["bytes_moved"] == 81e9

    def test_repeated_replica_site_counts_once(self, tmp_path, capsys):
        scenario = overload_with("replications", {
            "dataset": "d", "size": "1GB", "source": "ingest",
            "sites": ["archive", "archive"]})
        scenario["sites"].append(dict(scenario["sites"][1], id="spare"))
        scenario["policy"]["replica_count"] = 2
        out = tmp_path / "out"
        err = run_one_line_error(
            ["simulate", "--scenario",
             write_config(tmp_path, scenario, "scenario.json"),
             "--mode", "managed", "--out", str(out)], capsys, 1)
        assert "need 2 sites, only 1 eligible" in err
        assert not out.exists()

    def test_unreadable_scenario_is_one_line_usage_error(self, tmp_path):
        proc = run_process(["simulate", "--scenario",
                            str(tmp_path / "nonexistent.json"),
                            "--out", str(tmp_path / "out")])
        assert_one_line_error(proc, 2)
        assert "nonexistent.json" in proc.stderr

    @pytest.mark.parametrize("nested", [False, True])
    def test_run_failing_midway_leaves_no_log(self, tmp_path, capsys,
                                              nested):
        # the replication fails at t=0, after the log file was opened
        scenario = overload_with("replications", {
            "dataset": "d", "size": "1GB", "source": "ingest"})
        scenario["policy"]["replica_count"] = 5
        path = write_config(tmp_path, scenario, "scenario.json")
        if nested:   # every directory the run made is removed
            out = tmp_path / "new" / "deeper" / "out"
        else:        # an existing directory stays, with no log in it
            out = tmp_path / "out"
            out.mkdir()
        err = run_one_line_error(["simulate", "--scenario", path, "--mode",
                                  "managed", "--out", str(out)], capsys, 1)
        assert "need 5 sites" in err
        if nested:
            assert not (tmp_path / "new").exists()
        else:
            assert list(out.iterdir()) == []

    def test_log_replaces_the_previous_one(self, tmp_path):
        out = tmp_path / "out"
        for mode in ("managed", "lossy-priority-baseline"):
            assert run(["simulate", "--scenario", overload_scenario_path(),
                        "--mode", mode, "--out", str(out)]) == 0
        lines = (out / "events.jsonl").read_text().splitlines()
        assert len(lines) == load_report(str(out))["results"]["events"]
        assert sorted(p.name for p in out.iterdir()) == [
            "events.jsonl", "report.json", "report.txt"]


def overload_with(section, entry=None, **fields):
    """The bundled overload scenario plus ``entry`` in ``section``, or with
    ``fields`` set in the first object of ``section``."""
    with open(overload_scenario_path()) as fh:
        scenario = json.load(fh)
    if entry is not None:
        scenario.setdefault(section, []).append(entry)
    else:
        target = scenario[section]
        (target[0] if isinstance(target, list) else target).update(fields)
    return scenario


def plan_with(block, **fields):
    """PLAN_CONFIG with ``fields`` set in its ``block``."""
    cfg = json.loads(json.dumps(PLAN_CONFIG))
    cfg[block] = (dict(cfg[block], **fields) if block != "kernels"
                  else [dict(cfg[block][0], **fields)])
    return cfg


class TestScenarioValidation:
    SITE = {"id": "a", "capacity": "1TB", "ingress_bw": "1GB/s",
            "egress_bw": "1GB/s"}
    TRANSFER = {"source": "ingest", "dest": "archive", "size": "1GB"}
    LEASE = {"id": "x", "site": "archive", "size": "1GB", "duration": 5}

    @pytest.mark.parametrize("scenario, needle", [
        ({}, "['sites']"),
        ({"sites": [{"id": "a", "capacity": "1TB"}]}, "sites[0]"),
        ({"sites": [SITE], "transfers": [{"source": "a", "size": "1GB"}]},
         "['dest']"),
        ({"sites": [SITE], "failures": [{"target": "a"}]}, "['kind']"),
        ({"sites": [SITE], "policy": {"turbo": 1}}, "['turbo']"),
        ({"sites": [SITE], "extra": []}, "['extra']"),
        ({"sites": {"a": SITE}}, "sites must be a list"),
        ({"sites": [SITE], "policy": []}, "policy must be a JSON object"),
        ({"sites": [SITE], "policy": {"ordering": "bogus"}}, "bogus"),
        ({"sites": [SITE], "transfers": [
            {"source": "a", "dest": "a", "size": "1GB", "priority": "hi"}]},
         "'hi'"),
        (overload_with("failures", {"kind": "site-down", "target": "archive",
                                    "at": 1, "duration": -5}),
         "failures[0] duration"),
        (overload_with("allocations", {"site": "archive", "size": "1GB",
                                       "duration": -5}),
         "allocations[0] duration"),
        (overload_with("transfers", dict(TRANSFER, size=-1)),
         "transfers[8] size"),
        (overload_with("transfers", dict(TRANSFER, size=True)),
         "transfers[8] size"),
        (overload_with("failures", {"kind": "link-down", "target": "ab"}),
         "failures[0] target"),
        (overload_with("replications", {"dataset": "d", "size": "1GB",
                                        "source": "ingest", "sites": "x"}),
         "sites must be a list"),
        (overload_with("transfers", dict(TRANSFER, source="nowhere")),
         "'nowhere'"),
        (overload_with("transfers", dict(TRANSFER, priority=2.7)),
         "transfers[8] priority"),
        (overload_with("policy", queue_capacity=3.9),
         "policy queue_capacity"),
        (overload_with("policy", queue_capacity=-1),
         "policy queue_capacity"),
        (overload_with("allocations", {"site": "archive", "size": "1GB",
                                       "duration": 5, "wait": "no"}),
         "allocations[0] wait"),
        (overload_with("sites", id=7), "sites[0] id"),
        (overload_with("sites", capacity=float("nan")), "sites[0] capacity"),
        (overload_with("transfers", dict(TRANSFER, id="job-a")),
         "transfers name id(s) ['job-a']"),
        (dict(overload_with("allocations", LEASE), allocations=[LEASE, LEASE]),
         "allocations name id(s) ['x']"),
    ])
    def test_malformed_scenario_is_one_line_usage_error(
            self, tmp_path, capsys, scenario, needle):
        path = write_config(tmp_path, dict(scenario, schema_version=1),
                            "scenario.json")
        out = str(tmp_path / "out")
        err = run_one_line_error(["simulate", "--scenario", path,
                                  "--mode", "managed",
                                  "--out", out], capsys, 2)
        assert needle in err
        assert not os.path.exists(out)


class TestMapreduceCommand:
    def test_bundled_sample_aggregates(self, tmp_path):
        out = str(tmp_path / "out")
        code = run(["mapreduce", "--input", server_records_path(),
                    "--chunk-size", "3", "--op", "count",
                    "--op", "mean:Delay", "--op", "max:ActualElapsedTime",
                    "--out", out])
        assert code == 0
        results = load_report(out)["results"]["results"]
        assert results["count"] == 8
        assert results["mean:Delay"] == pytest.approx(15.875)
        assert results["max:ActualElapsedTime"] == 155
        assert os.path.exists(os.path.join(out, "scheduler.jsonl"))

    def test_unknown_reducer_is_usage_error(self, tmp_path):
        code = run(["mapreduce", "--op", "median:Delay",
                    "--out", str(tmp_path / "out")])
        assert code == 2

    def test_no_op_is_usage_error(self, tmp_path):
        assert run(["mapreduce", "--out", str(tmp_path / "out")]) == 2


def run_process(argv):
    """Run the CLI in a fresh interpreter, as a user would."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dwkit.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "DWKIT_OUT"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "dwkit.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)


def assert_one_line_error(proc, code):
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def run_one_line_error(argv, capsys, code):
    """Run in process; the command must fail with ``code`` and one line."""
    assert run(argv) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    return err


def assert_each_record_tokenized_once(count_tokenized, tmp_path, argv):
    """Run ``argv`` on a CSV of 50 distinct records, counting each record
    the chunk engine tokenizes: every data record must be tokenized
    once."""
    lines = [f"{k},{3 * k + k * k % 5},w{k % 4}" for k in range(50)]
    p = tmp_path / "once.csv"
    p.write_text("id,x,t\n" + "\n".join(lines) + "\n")
    records = count_tokenized()
    assert run([argv[0], "--input", str(p), *argv[1:],
                "--out", str(tmp_path / "out")]) == 0
    seen = collections.Counter(records)
    del seen["id,x,t"]
    assert seen == dict.fromkeys(lines, 1)


@pytest.fixture
def fused_csv(tmp_path):
    # n: integers, never missing; r: reals with missing cells and a
    # spread of magnitudes, so the sum depends on the order of additions;
    # m: integers with missing cells
    lines = ["n,r,m"]
    for k in range(200):
        r = "NA" if k % 13 == 5 else repr((-1) ** k * 1.37 ** (k % 60) / 7)
        m = "NA" if k % 17 == 3 else str(k * k - 500)
        lines.append(f"{(k * 7919) % 1009 - 300},{r},{m}")
    path = tmp_path / "fused.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestFusedMapreduce:
    OPS = ["count", "sum:n", "max:n", "min:n", "sum:r", "mean:r", "max:r",
           "min:r", "mean:m", "sum:m", "max:m", "min:m"]

    def run_ops(self, tmp_path, csv, chunk_size, workers):
        out = str(tmp_path / f"out-{chunk_size}-{workers}")
        argv = ["mapreduce", "--input", csv, "--chunk-size",
                str(chunk_size), "--workers", str(workers), "--out", out]
        for op in self.OPS:
            argv += ["--op", op]
        assert run(argv) == 0
        return out

    def test_report_independent_of_chunk_size_and_workers(self, tmp_path,
                                                          fused_csv):
        reports = {}
        for chunk_size in (1, 7, 1000):
            raw = []
            for workers in (1, 2):
                out = self.run_ops(tmp_path, fused_csv, chunk_size, workers)
                with open(os.path.join(out, "report.json"), "rb") as fh:
                    raw.append(fh.read())
            assert raw[0] == raw[1]
            report = json.loads(raw[0])
            # the manifest echoes the chunk size; all else is compared
            assert report["config"].pop("chunk_size") == chunk_size
            reports[chunk_size] = json.dumps(report, sort_keys=True)
        assert reports[1] == reports[7] == reports[1000]
        results = json.loads(reports[1])["results"]["results"]
        assert results["count"] == 200
        for key in ("sum:n", "max:n", "min:n", "sum:m", "max:m", "min:m"):
            assert type(results[key]) is int, key
        assert type(results["mean:m"]) is float

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body, ops, want", [
        ("y\n1\n2\n1e308\n-1e308\n", ["mean:y", "sum:y"],
         {"mean:y": 0.75, "sum:y": 3.0}),
        ("y\n1e308\n1e308\n", ["mean:y"], {"mean:y": 1e308}),
    ], ids=["cancelling", "mean-of-the-largest"])
    def test_sum_and_mean_are_rounded_once(self, tmp_path, capsys, body,
                                           ops, want):
        # a left fold gave 0.0 for both of the first, and the second's
        # sum overflows, though its mean does not
        csv = tmp_path / "big.csv"
        csv.write_text(body)
        out = str(tmp_path / "out")
        argv = ["mapreduce", "--input", str(csv), "--out", out]
        assert run([*argv, *(f"--op={op}" for op in ops)]) == 0
        assert capsys.readouterr().err == ""
        assert load_report(out)["results"]["results"] == want

    def test_memory_does_not_grow_with_values(self, tmp_path):
        # each chunk emits one exact total, not its values, so the traced
        # peak on 64 chunks is within 1.5 times that on 16: what grows is
        # the scheduler log and one int per chunk.  Keeping every value
        # took it from 0.29 to 0.71 MB (0.18 to 0.22 MB with totals)
        rng = np.random.default_rng(3)
        paths = []
        for chunks in (16, 64):
            p = tmp_path / f"rows{chunks}.csv"
            np.savetxt(p, rng.standard_normal(chunks * 1000), fmt="%.9g",
                       header="x", comments="")
            paths.append(p)

        def peak(path):
            tracemalloc.start()
            try:
                assert run(["mapreduce", "--input", str(path), "--op",
                            "mean:x", "--chunk-size", "1000",
                            "--out", str(tmp_path / "out")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        peak(paths[0])   # imports and caches filled
        short, long = peak(paths[0]), peak(paths[1])
        assert long <= 1.5 * short, (short, long)

    def test_one_map_task_per_chunk(self, tmp_path, fused_csv):
        out = self.run_ops(tmp_path, fused_csv, 7, 2)
        with open(os.path.join(out, "scheduler.jsonl")) as fh:
            log = [json.loads(line) for line in fh]
        starts = [ev["task"] for ev in log if ev["kind"] == "map-start"]
        assert len(starts) == len(set(starts)) == 29   # ceil(200 / 7)
        assert [ev["kind"] for ev in log].count("barrier") == 1
        reduces = sorted(ev["task"] for ev in log
                         if ev["kind"] == "reduce-start")
        assert reduces == sorted(f"reduce-{op}" for op in self.OPS)

    def test_each_record_tokenized_once(self, count_tokenized, tmp_path):
        assert_each_record_tokenized_once(
            count_tokenized, tmp_path, ["mapreduce", "--chunk-size", "7",
                                    "--op", "count", "--op", "sum:x"])

    def test_unknown_column_is_usage_error_before_any_task(self, tmp_path):
        out = tmp_path / "out"
        proc = run_process(["mapreduce", "--op", "count",
                            "--op", "mean:NOSUCHCOL", "--out", str(out)])
        assert_one_line_error(proc, 2)
        assert "NOSUCHCOL" in proc.stderr
        assert not out.exists()

    def test_header_only_input(self, tmp_path):
        csv = tmp_path / "empty.csv"
        csv.write_text("a,b\n")
        out = tmp_path / "out"
        proc = run_process(["mapreduce", "--input", str(csv), "--op",
                            "count", "--op", "sum:b", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        results = load_report(str(out))["results"]["results"]
        assert results == {"count": 0, "sum:b": 0}
        for op in ("mean:b", "max:a", "min:a"):
            proc = run_process(["mapreduce", "--input", str(csv), "--op",
                                op, "--out", str(tmp_path / op)])
            assert_one_line_error(proc, 1)

    def test_column_with_an_empty_name(self, tmp_path):
        csv = tmp_path / "blank.csv"
        csv.write_text("a,\n1,2\n3,4\n")
        out = str(tmp_path / "out")
        assert run(["mapreduce", "--input", str(csv), "--op", "sum:",
                    "--op", "sum:a", "--out", out]) == 0
        assert load_report(out)["results"]["results"] == {"sum:": 6,
                                                          "sum:a": 4}

    def test_all_missing_column(self, tmp_path):
        csv = tmp_path / "na.csv"
        csv.write_text("a,b\n1,NA\n2,NA\n")
        proc = run_process(["mapreduce", "--input", str(csv), "--op",
                            "mean:b", "--out", str(tmp_path / "out")])
        assert_one_line_error(proc, 1)
        assert "no non-missing values" in proc.stderr

    BIG = 9007199254740993   # 2**53 + 1, which float64 cannot hold

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body, chunk_size, ops, want", [
        (f"x\n{BIG}\n1\n", 1000, ["max:x", "sum:x"],
         {"max:x": BIG, "sum:x": BIG + 1}),
        (f"x\n{BIG}\nNA\n", 1, ["max:x", "min:x", "sum:x"],
         {"max:x": BIG, "min:x": BIG, "sum:x": BIG}),
        # past int64 in the sample: the column is real
        (f"x\n{2**63}\n1\n", 1000, ["max:x", "sum:x"],
         {"max:x": 2.0**63, "sum:x": 2.0**63}),
        (f"x\n1\n{'7' * 400}\n", 1000, ["count"], {"count": 2}),
        # past int64 in a later chunk
        (f"x\n1\n{'7' * 400}\n", 1, ["sum:x"], "chunk 1 row 0 column 'x'"),
        # an integer sum past int64 is exact
        (f"x\n{2**63 - 1}\n1\n", 1000, ["sum:x"], {"sum:x": 2**63}),
        # past the csv module's field limit, in the sample or later
        (f"x\n1\n{'7' * 200000}\n", 1000, ["count"],
         "big.csv chunk 0: field larger than field limit"),
        (f"x\n1\n{'7' * 200000}\n", 1, ["count"],
         "big.csv chunk 1: field larger than field limit"),
    ], ids=["past-2^53", "past-2^53-and-NA", "past-int64-in-sample",
            "400-digits-in-sample", "400-digits-later", "sum-past-int64",
            "field-limit-in-sample", "field-limit-later"])
    def test_exact_integers(self, tmp_path, capsys, body, chunk_size, ops,
                            want):
        csv = tmp_path / "big.csv"
        csv.write_text(body)
        out = tmp_path / "out"
        argv = ["mapreduce", "--input", str(csv), "--chunk-size",
                str(chunk_size), "--out", str(out)]
        for op in ops:
            argv += ["--op", op]
        if isinstance(want, str):
            # one line and one attempt: a malformed cell is not retried
            err = run_one_line_error(argv, capsys, 1)
            assert want in err
            assert "failed permanently" not in err
            assert not out.exists()
            return
        assert run(argv) == 0
        assert capsys.readouterr().err == ""
        results = load_report(str(out))["results"]["results"]
        assert results == want
        assert all(type(results[k]) is type(v) for k, v in want.items())
        with open(out / "scheduler.jsonl") as fh:
            kinds = [json.loads(line)["kind"] for line in fh]
        assert "map-failed" not in kinds

    def test_text_column_max_is_an_error(self, tmp_path, capsys):
        csv = tmp_path / "text.csv"
        csv.write_text("a,t\n1,x\n2,y\n")
        code = run(["mapreduce", "--input", str(csv), "--op", "max:t",
                    "--out", str(tmp_path / "out")])
        assert code == 1
        assert "not numeric" in capsys.readouterr().err

    def test_text_column_mean_is_one_line_error(self, tmp_path):
        csv = tmp_path / "text.csv"
        csv.write_text("a,t\n1,x\n2,y\n")
        proc = run_process(["mapreduce", "--input", str(csv), "--op",
                            "mean:t", "--out", str(tmp_path / "out")])
        assert_one_line_error(proc, 1)
        assert "not numeric" in proc.stderr


class TestRegressCommand:
    def test_default_fixture_run(self, tmp_path):
        out = str(tmp_path / "out")
        code = run(["regress", "--out", out])
        assert code == 0
        rep = load_report(out)
        check = rep["results"]["survey_identity_check"]
        assert check["anova"]["f"] == pytest.approx(0.266667, abs=1e-6)
        assert check["published"]["f"] == 0.4
        assert len(rep["warnings"]) == 3
        # one simple-fit CSV per predictor
        csvs = sorted(p for p in os.listdir(out)
                      if p.startswith("factor_") and p.endswith(".csv"))
        assert len(csvs) == 6
        assert "factor_UP.csv" in csvs

    def test_strongest_factor_ranked_first(self, tmp_path):
        out = str(tmp_path / "out")
        run(["regress", "--out", out])
        ranking = load_report(out)["results"]["factor_ranking"]
        assert ranking[0]["predictor"] == "UP"
        r2s = [row["r_square"] for row in ranking]
        assert r2s == sorted(r2s, reverse=True)

    def test_zero_residual_writes_null_f(self, tmp_path):
        p = tmp_path / "zero.csv"
        p.write_text("y,a\n0,1\n0,2\n0,3\n0,4\n")
        out = str(tmp_path / "out")
        assert run(["regress", "--input", str(p), "--response", "y",
                    "--predictors", "a", "--out", out]) == 0
        rep = load_report(out)
        assert rep["results"]["anova"]["f"] is None
        assert rep["results"]["anova"]["significance_f"] == 0.0
        assert "F is infinite" in rep["warnings"][0]

    def test_rank_deficient_input_is_named(self, tmp_path, capsys):
        # c is constant, so it is collinear with the intercept
        p = tmp_path / "collinear.csv"
        p.write_text("y,a,c\n1,1,5\n2,2,5\n3,4,5\n4,3,5\n5,6,5\n")
        err = run_one_line_error(["regress", "--input", str(p),
                                  "--response", "y", "--predictors", "a,c",
                                  "--out", str(tmp_path / "out")], capsys, 1)
        assert str(p) in err
        assert "'c'" in err
        assert not (tmp_path / "out").exists()

    def test_overflowing_r_square_products_fit(self, tmp_path):
        # sxy * sxy and sxx * syy both overflow: r2 is inf / inf unless it
        # is taken as the product of the two slopes
        rng = np.random.default_rng(11)
        x, y = rng.uniform(0, 1e9, 10), rng.uniform(-3e153, 3e153, 10)
        p = tmp_path / "huge.csv"
        p.write_text("y,x\n" + "".join(
            f"{b!r},{a!r}\n" for a, b in zip(x.tolist(), y.tolist())))
        out = str(tmp_path / "out")
        assert run(["regress", "--input", str(p), "--response", "y",
                    "--predictors", "x", "--out", out]) == 0
        res = load_report(out)["results"]
        r2 = res["factor_ranking"][0]["r_square"]
        assert 0 <= r2 <= 1
        assert r2 == pytest.approx(res["summary"]["r_square"], rel=1e-12)

    def test_large_well_conditioned_predictor_fits(self, tmp_path):
        # the design's singular value ratio is under 1e-10 only because x
        # is near 1e10 and the intercept's column 1
        rng = np.random.default_rng(13)
        x = rng.uniform(0, 1e10, 50)
        y = 2 * x / 1e10 + rng.normal(size=50)
        p = tmp_path / "large.csv"
        p.write_text("y,x\n" + "".join(
            f"{b!r},{a!r}\n" for a, b in zip(x.tolist(), y.tolist())))
        out = str(tmp_path / "out")
        assert run(["regress", "--input", str(p), "--response", "y",
                    "--predictors", "x", "--out", out]) == 0
        coefficients = load_report(out)["results"]["coefficients"]
        design = np.column_stack([np.ones(50), x / 1e10])
        want = np.linalg.lstsq(design, y, rcond=None)[0] / [1.0, 1e10]
        np.testing.assert_allclose(
            [coefficients["intercept"], coefficients["x"]], want, rtol=1e-9)

    def test_each_record_tokenized_once(self, count_tokenized, tmp_path):
        assert_each_record_tokenized_once(
            count_tokenized, tmp_path, ["regress", "--response", "x",
                                    "--predictors", "id"])

    @pytest.mark.parametrize("model", [
        ["--response", "y", "--predictors", "a,a"],
        ["--response", "y", "--predictors", "a,y"]])
    def test_bad_model_refused_before_the_input_is_opened(
            self, monkeypatch, tmp_path, capsys, model):
        def opened(*_args, **_kwargs):
            raise AssertionError("the input was opened")
        monkeypatch.setattr(chunkstore, "open_datastore", opened)
        err = run_one_line_error(["regress", "--input", server_records_path(),
                                  *model, "--out", str(tmp_path / "out")],
                                 capsys, 2)
        assert "predictor" in err
        assert not (tmp_path / "out").exists()

    def test_external_csv_needs_model(self, tmp_path):
        # refused before the input is opened, so a missing file is not
        # reached
        for path in (server_records_path(), str(tmp_path / "nosuch.csv")):
            code = run(["regress", "--input", path,
                        "--out", str(tmp_path / "out")])
            assert code == 2


class TestIncompleteRows:
    CSV = "y,a,b,t\n1,2,3,u\n2,NA,5,v\n3,4,4,w\n5,1,2,x\n6,2,8,y\n"

    def test_regress_drops_rows_missing_a_predictor(self, tmp_path):
        p = tmp_path / "na.csv"
        p.write_text(self.CSV)
        out = str(tmp_path / "out")
        assert run(["regress", "--input", str(p), "--response", "y",
                    "--predictors", "a,b", "--out", out]) == 0
        rep = load_report(out)
        assert rep["results"]["summary"]["observations"] == 4
        assert rep["warnings"][0] == ("dropped 1 row(s) with a missing "
                                      "value in the response or a predictor")
        # a factor line per predictor, over the complete rows only
        with open(os.path.join(out, "factor_a.csv")) as fh:
            assert len(fh.read().splitlines()) == 1 + 4

    def test_regress_too_few_complete_rows(self, tmp_path, capsys):
        p = tmp_path / "few.csv"
        p.write_text("y,a\n1,2\n2,NA\n3,NA\n")
        run_one_line_error(["regress", "--input", str(p), "--response", "y",
                            "--predictors", "a", "--out",
                            str(tmp_path / "out")], capsys, 1)

    @pytest.mark.parametrize("predictors", ["a,nosuch", "a,a", "a,t"])
    def test_regress_bad_model_is_usage_error(self, tmp_path, capsys,
                                              predictors):
        p = tmp_path / "na.csv"
        p.write_text(self.CSV)
        run_one_line_error(["regress", "--input", str(p), "--response", "y",
                            "--predictors", predictors, "--out",
                            str(tmp_path / "out")], capsys, 2)

    def test_design_schema_reports_dropped_rows(self, tmp_path):
        p = tmp_path / "na.csv"
        p.write_text(self.CSV)
        out = str(tmp_path / "out")
        assert run(["design-schema", "--input", str(p), "--out", out]) == 0
        assert load_report(out)["warnings"][0] == (
            "dropped 1 row(s) with a missing value in a numeric column")

    @pytest.mark.parametrize("body", ["1,2\n", "1,2\nNA,3\n4,NA\n"])
    def test_design_schema_fewer_than_two_complete_rows(self, tmp_path,
                                                        capsys, body):
        p = tmp_path / "one.csv"
        p.write_text("a,b\n" + body)
        err = run_one_line_error(["design-schema", "--input", str(p),
                                  "--out", str(tmp_path / "out")], capsys, 1)
        assert "needs 2" in err


    LATER = "y,a,b\n" + "".join(f"{k},{k % 7},{k}\n" for k in range(10000))

    # a command parses only the columns it uses, and checks every record's
    # width: a malformed cell of another column is never read, and a short
    # or long record fails the run
    @pytest.mark.parametrize("argv, body, message", [
        (["mapreduce", "--op", "sum:a", "--chunk-size", "2"],
         "a,b\n1,2\n3,4\n5,oops\n", None),
        (["mapreduce", "--op", "sum:a", "--chunk-size", "2"],
         "a,t\n1,x\n2,y\n3\n", "{} chunk 1 row 0: short record of 1 "
         "field(s); the header has 2"),
        (["mapreduce", "--op", "sum:a", "--chunk-size", "2"],
         "a,t\n1,x\n2,y\n3,z,w\n", "{} chunk 1 row 0: long record of 3 "
         "field(s); the header has 2"),
        (["regress", "--response", "y", "--predictors", "a"],
         LATER + "1,2,oops\n", None),
        (["regress", "--response", "y", "--predictors", "a"],
         "y,a,t\n1,2,u\n2,3\n3,5,w\n4,4,x\n", "{} chunk 0 row 1: short "
         "record of 2 field(s); the header has 3"),
        (["regress", "--response", "y", "--predictors", "a"],
         LATER + "1,2,3,4\n", "{} chunk 1 row 0: long record of 4 "
         "field(s); the header has 3"),
        (["design-schema"], "a,b,t\n1,2,x\n2,3,y\n3,5\n4,4,z\n",
         "{} chunk 0 row 2: short record of 2 field(s); the header has 3"),
        (["design-schema"], "a,b,t\n1,2,x\n2,3,y\n3,5,z,\n4,4,z\n",
         "{} chunk 0 row 2: long record of 4 field(s); the header has 3"),
    ], ids=["mapreduce-cell", "mapreduce-short", "mapreduce-long",
            "regress-cell", "regress-short", "regress-long",
            "design-schema-short", "design-schema-long"])
    def test_unused_columns_are_checked_only_for_width(
            self, tmp_path, capsys, argv, body, message):
        p = tmp_path / "bad.csv"
        p.write_text(body)
        argv = [argv[0], "--input", str(p), *argv[1:], "--out"]
        if message is not None:
            err = run_one_line_error([*argv, str(tmp_path / "out")], capsys,
                                     1)
            assert err == f"dwkit: error: {message.format(p)}\n"
            return
        # every output equals that of the file without the bad column
        outputs = []
        for text in (body, "".join(line.rpartition(",")[0] + "\n"
                                   for line in body.splitlines())):
            p.write_text(text)
            out = tmp_path / f"out{len(outputs)}"
            assert run([*argv, str(out)]) == 0
            outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert outputs[0] == outputs[1]

    # a thousands separator: unquoted, it makes its record one field too
    # long; quoted, its cell is text, which a numeric column refuses and by
    # which chunk 0 infers a text column
    @pytest.mark.parametrize("later", [False, True],
                             ids=["chunk-0", "later-chunk"])
    @pytest.mark.parametrize("quote", ["", '"'], ids=["unquoted", "quoted"])
    @pytest.mark.parametrize("argv, chunk_size, text_outcome", [
        (["mapreduce", "--op", "sum:amount", "--op", "count"], 1000,
         (1, "dwkit: error: sum:amount: column 'amount' is not numeric")),
        (["regress", "--response", "amount", "--predictors", "id"], 10000,
         (2, "dwkit: usage error: column(s) ['amount'] are not numeric; "
             "0/1-encode two-valued ones with --encode")),
        (["design-schema"], 2048, (0, "")),
    ], ids=["mapreduce", "regress", "design-schema"])
    def test_thousands_separator(self, tmp_path, capsys, argv, chunk_size,
                                 text_outcome, quote, later):
        p = tmp_path / "sep.csv"
        # a later chunk starts after chunk_size plain records
        p.write_text("id,amount\n"
                     + "".join(f"{k},{k % 7}\n"
                               for k in range(chunk_size * later))
                     + f"1,250\n2,{quote}1,000{quote}\n3,40\n")
        code = run([argv[0], "--input", str(p), *argv[1:], "--out",
                    str(tmp_path / "out")])
        err = capsys.readouterr().err.strip()
        if not quote:
            assert (code, err) == (1, f"dwkit: error: {p} chunk {int(later)} "
                                   f"row 1: long record of 3 field(s); the "
                                   f"header has 2")
        elif later:
            assert (code, err) == (1, f"dwkit: error: token '1,000' is "
                                   f"neither missing nor a valid integer "
                                   f"({p} chunk 1 row 1 column 'amount')")
        else:
            assert (code, err) == text_outcome


class TestChunkSizeValidation:
    @pytest.mark.parametrize("flag", ["0", "-1"])
    def test_flag_below_one(self, tmp_path, capsys, flag):
        out = str(tmp_path / "out")
        err = run_one_line_error(["mapreduce", "--chunk-size", flag, "--op",
                                  "count", "--out", out], capsys, 2)
        assert "chunk_size" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("value", ["x", 0, 2.5, True, None, 2**63])
    def test_config_value(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, {"chunk_size": value})
        run_one_line_error(["mapreduce", "--config", cfg, "--op", "count",
                            "--out", str(tmp_path / "out")], capsys, 2)

    def test_config_value_used(self, tmp_path):
        cfg = write_config(tmp_path, {"chunk_size": 3})
        out = str(tmp_path / "out")
        assert run(["mapreduce", "--config", cfg, "--op", "count",
                    "--out", out]) == 0
        assert load_report(out)["config"]["chunk_size"] == 3


class TestDesignSchemaCommand:
    def test_numeric_csv(self, tmp_path):
        out = str(tmp_path / "out")
        code = run(["design-schema", "--input", server_records_path(),
                    "--threshold", "0.9", "--out", out])
        assert code == 0
        res = load_report(out)["results"]
        assert set(res["variables"]) == {"ServerNum", "ActualElapsedTime",
                                         "CRSElapsedTime", "Delay"}
        assert len(res["selected_components"]) >= 1
        assert len(res["proposed_dimensions"]) == \
            len(res["selected_components"])

    def test_each_record_tokenized_once(self, count_tokenized, tmp_path):
        assert_each_record_tokenized_once(count_tokenized, tmp_path,
                                          ["design-schema"])

    def test_threshold_out_of_range(self, tmp_path):
        code = run(["design-schema", "--input", server_records_path(),
                    "--threshold", "1.5", "--out", str(tmp_path / "out")])
        assert code == 2

    def test_missing_input_is_usage_error(self, tmp_path):
        assert run(["design-schema", "--out", str(tmp_path / "out")]) == 2

    def test_overflowing_column_is_named_without_a_warning(self, tmp_path):
        # finite values whose sums of squares overflow: numpy would warn,
        # and a fit would call the column collinear
        p = tmp_path / "huge.csv"
        p.write_text("y,x\n1,1\n2,2\n1e308,1e308\n-1e308,3\n")
        sums = tmp_path / "sums.csv"
        sums.write_text("y\n1e308\n1e308\n")
        for argv in (["design-schema", "--input", str(p)],
                     ["regress", "--input", str(p), "--response", "y",
                      "--predictors", "x"],
                     ["mapreduce", "--input", str(sums), "--op", "sum:y"]):
            proc = run_process([*argv, "--out", str(tmp_path / "out")])
            assert_one_line_error(proc, 1)
            assert "'y'" in proc.stderr and "overflow" in proc.stderr
            assert not (tmp_path / "out").exists()
        assert proc.stderr == ("dwkit: error: sum:y: the sum of column 'y' "
                               "overflows\n")


    @pytest.mark.parametrize("body", ["0.1,1\n0.1,2\n0.1,4\n",
                                      "5,1\n5,2\n5,4\n"])
    def test_constant_column_has_zero_variance(self, tmp_path, capsys,
                                               body):
        # three 0.1s do not sum to three times 0.1, so a variance computed
        # in floats is not 0: a column is constant when its extremes agree
        p = tmp_path / "const.csv"
        p.write_text("a,b\n" + body)
        err = run_one_line_error(["design-schema", "--input", str(p),
                                  "--out", str(tmp_path / "out")], capsys, 1)
        assert err == "dwkit: error: column 'a' has zero sample variance\n"

    @pytest.mark.parametrize("later, code", [(0.1, 1), (0.2, 0)],
                             ids=["constant", "varies-across-chunks"])
    def test_zero_variance_spans_chunks(self, tmp_path, later, code):
        # column a is 0.1 in chunk 0 and ``later`` in chunk 1
        n = chunkstore._BATCH_RECORDS
        p = tmp_path / "const.csv"
        p.write_text("a,b\n" + "".join(
            f"{0.1 if k < n else later},{k % 5}\n" for k in range(n + 3)))
        assert run(["design-schema", "--input", str(p),
                    "--out", str(tmp_path / "out")]) == code

    def test_repeated_name_is_its_last_column_once(self, tmp_path):
        results = []
        for text in ("a,b,a\n1,2,3\n2,1,5\n3,3,4\n4,5,1\n",
                     "a,b\n3,2\n5,1\n4,3\n1,5\n"):
            p = tmp_path / "in.csv"
            p.write_text(text)
            out = str(tmp_path / f"out{len(results)}")
            assert run(["design-schema", "--input", str(p),
                        "--out", out]) == 0
            results.append(load_report(out)["results"])
        assert results[0]["variables"] == ["a", "b"]
        assert results[0] == results[1]

    def test_columns_left_out_are_named(self, tmp_path):
        # one quoted thousands separator makes amount a text column
        p = tmp_path / "text.csv"
        p.write_text('id,amount,t\n1,250,x\n2,"1,000",y\n3,40,z\n'
                     '4,7,w\n')
        out = str(tmp_path / "out")
        assert run(["design-schema", "--input", str(p), "--out", out]) == 0
        report = load_report(out)
        assert report["results"]["variables"] == ["id"]
        assert report["warnings"][0] == ("left out 2 column(s) that are not "
                                         "numeric: ['amount', 't']")

    def test_kinds_come_from_the_first_chunk(self, tmp_path, capsys):
        # design-schema reads chunks of _BATCH_RECORDS records, and infers
        # the kinds from the first: a real cell at record 3,001 of an
        # integer column is malformed, and a column missing in the first
        # 3,000 records is text, left out
        p = tmp_path / "late.csv"
        p.write_text("a,b\n" + "".join(f"{k},{k % 7}\n"
                                        for k in range(3000))
                     + "2.5,3\n1,2\n")
        err = run_one_line_error(["design-schema", "--input", str(p),
                                  "--out", str(tmp_path / "out")], capsys, 1)
        row = 3000 - chunkstore._BATCH_RECORDS
        assert err == (f"dwkit: error: token '2.5' is neither missing nor a "
                       f"valid integer ({p} chunk 1 row {row} column 'a')\n")
        p.write_text("a,b,c\n" + "".join(f"{k},NA,{k % 3}\n"
                                         for k in range(3000))
                     + "".join(f"{k},{k % 5},{k % 4}\n" for k in range(9)))
        out = str(tmp_path / "out")
        assert run(["design-schema", "--input", str(p), "--out", out]) == 0
        report = load_report(out)
        assert report["results"]["variables"] == ["a", "c"]
        assert report["warnings"][0] == ("left out 1 column(s) that are not "
                                         "numeric: ['b']")

    def test_memory_does_not_grow_with_rows(self, tmp_path):
        # the moments are folded a chunk at a time, so the traced peak on a
        # file four times as long is within 10% of the shorter file's
        rng = np.random.default_rng(3)
        paths = []
        for chunks in (4, 16):
            p = tmp_path / f"rows{chunks}.csv"
            np.savetxt(p, rng.standard_normal(
                (chunks * chunkstore._BATCH_RECORDS, 8)), fmt="%.9g",
                delimiter=",", header=",".join("abcdefgh"), comments="")
            paths.append(p)

        def peak(path):
            tracemalloc.start()
            try:
                assert run(["design-schema", "--input", str(path),
                            "--out", str(tmp_path / "out")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        peak(paths[0])   # imports and caches filled
        short, long = peak(paths[0]), peak(paths[1])
        assert long <= 1.1 * short, (short, long)


@pytest.mark.parametrize("argv", [
    ["mapreduce", "--op", "sum:a"],
    ["regress", "--response", "a", "--predictors", "b"],
    ["design-schema"],
])
def test_byte_order_mark_is_not_part_of_the_first_name(tmp_path, argv):
    # spreadsheet tools write "CSV UTF-8" with a leading byte-order mark
    p = tmp_path / "in.csv"
    reports = []
    for mark in (b"\xef\xbb\xbf", b""):
        p.write_bytes(mark + b"a,b\n1,2\n3,4\n5,7\n")
        out = tmp_path / f"out{len(reports)}"
        assert run([*argv, "--input", str(p), "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


# each CSV command with the rows of the chunks it reads
INFINITE_CELL_COMMANDS = {
    "design-schema": (["design-schema"], chunkstore._BATCH_RECORDS),
    "regress": (["regress", "--response", "y", "--predictors", "x"], 10000),
    **{f"mapreduce-{op}": (["mapreduce", "--op", f"{op}:x"], 1000)
       for op in ("sum", "mean", "max", "min")},
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row", [2, 10002], ids=["chunk0", "later-chunk"])
@pytest.mark.parametrize("cell", ["inf", "-inf", "1e400", '"inf"',
                                  "+Infinity"])
@pytest.mark.parametrize("command", list(INFINITE_CELL_COMMANDS))
def test_infinite_cell_is_one_line_error(tmp_path, capfd, command, cell,
                                         row):
    # an infinite cell is malformed, in every command and at any chunk:
    # refused where its chunk is built, by file, chunk, row and column;
    # capfd also shows what LAPACK would print from C
    argv, chunk_size = INFINITE_CELL_COMMANDS[command]
    p = tmp_path / "inf.csv"
    cells = [f"{i % 7},{i * 3 % 11}.5" for i in range(10003)]
    cells[row] = f"{row % 7},{cell}"
    p.write_text("y,x\n" + "\n".join(cells) + "\n")
    out = tmp_path / "out"
    err = run_one_line_error([*argv, "--input", str(p), "--out", str(out)],
                             capfd, 1)
    assert err == (f"dwkit: error: {p} chunk {row // chunk_size} row "
                   f"{row % chunk_size} column 'x' holds an infinity\n")
    assert not out.exists()


def test_infinite_cell_equal_to_a_missing_token_is_missing(tmp_path):
    p = tmp_path / "inf.csv"
    p.write_text("y,x\n1,2\n2,inf\n3,4\n")
    out = tmp_path / "out"
    assert run(["mapreduce", "--input", str(p), "--op", "mean:x",
                "--op", "min:x", "--config",
                write_config(tmp_path, {"missing_tokens": ["inf"]}),
                "--out", str(out)]) == 0
    assert load_report(out)["results"]["results"] == {"mean:x": 3.0,
                                                      "min:x": 2}


@pytest.mark.parametrize("argv", [
    ["regress", "--response", "y", "--predictors", "a"],
    ["mapreduce", "--op", "count"],
    ["design-schema"],
])
def test_missing_csv_input_is_one_line_usage_error(tmp_path, argv):
    # as a missing scenario or config is: exit 2, and what went wrong
    missing = str(tmp_path / "nosuch.csv")
    proc = run_process([*argv, "--input", missing,
                        "--out", str(tmp_path / "out")])
    assert_one_line_error(proc, 2)
    assert proc.stderr.startswith(f"dwkit: usage error: cannot read input "
                                  f"{missing}: [Errno 2]")
    assert not (tmp_path / "out").exists()


def test_empty_out_is_one_line_usage_error(capsys):
    err = run_one_line_error(["regress", "--out", ""], capsys, 2)
    assert "--out" in err


def run_code(code):
    """Run ``code`` in a fresh interpreter that can import dwkit."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dwkit.__file__)))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))))


def test_importing_the_cli_loads_no_scipy():
    proc = run_code("import sys\nimport dwkit.cli\n"
                    "print(sorted(m for m in sys.modules "
                    "if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_no_command_needs_scipy(tmp_path):
    # with every import of scipy failing, the commands that once used it
    # still run: regress's F-test p-value is computed in the package
    csv = tmp_path / "flags.csv"
    csv.write_text("y,x,flag\n1.0,2.0,yes\n2.5,3.0,no\n2.0,5.0,yes\n"
                   "4.5,4.0,no\n5.0,7.5,yes\n")
    runs = [["regress"],
            ["regress", "--input", str(csv), "--response", "y",
             "--predictors", "x,flag", "--encode", "flag"],
            ["design-schema", "--input", str(csv)]]
    code = "import sys\nsys.modules['scipy'] = None\n" \
        "from dwkit.cli import main\n" + "".join(
            f"assert main({[*argv, '--out', str(tmp_path / str(i))]!r}) "
            f"== 0\n" for i, argv in enumerate(runs))
    proc = run_code(code)
    assert proc.returncode == 0, proc.stderr


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


class TestConfigValueTypes:
    """A config value of the wrong JSON type is a one-line usage error that
    names its key; a string is never read as a list of characters."""
    CSV = server_records_path()

    @pytest.mark.parametrize("command, cfg, extra, key", [
        ("design-schema", {"threshold": "x"}, ["--input", CSV],
         "threshold"),
        ("design-schema", {"threshold": None}, ["--input", CSV],
         "threshold"),
        ("design-schema", {"input": 5}, [], "input"),
        ("plan", {"cluster": {"n_compute": "x"}}, [], "n_compute"),
        ("plan", {"cluster": []}, [], "cluster"),
        ("plan", {"kernels": [{"name": "k"}]}, [], "kernels[0]"),
        ("plan", {"kernels": "x"}, [], "kernels"),
        ("mapreduce", {"operations": [5]}, [], "operations"),
        ("mapreduce", {"missing_tokens": [1]}, ["--op", "count"],
         "missing_tokens"),
        ("mapreduce", {"missing_tokens": "NA"}, ["--op", "count"],
         "missing_tokens"),
        ("mapreduce", {"input": CSV}, ["--op", "count"], "input"),
        ("regress", {"predictors": [1], "response": "y"}, [], "predictors"),
        ("regress", {"encode": "Flag"}, [], "encode"),
        ("plan", plan_with("cluster", n_compute=128.9), [], "n_compute"),
        ("plan", plan_with("workload", num_chkpts=2.5), [], "num_chkpts"),
        ("plan", plan_with("cluster", n_compute=True), [], "n_compute"),
        ("plan", plan_with("kernels", throughput=-1), [], "throughput"),
        ("plan", plan_with("cluster", bw_pfs=float("nan")), [], "bw_pfs"),
        ("plan", plan_with("cluster", c_ssd=10**400), [], "c_ssd"),
        ("simulate", {}, ["--scenario", overload_scenario_path(),
                          "--until", "-5"], "until"),
        ("simulate", {}, ["--scenario", overload_scenario_path(),
                          "--until", "1e400"], "until"),
        # an --out in extra comes last, so it wins: an existing file, and a
        # path under one
        ("simulate", {}, ["--scenario", overload_scenario_path(),
                          "--out", overload_scenario_path()],
         "is not a directory"),
        ("regress", {}, ["--out", os.path.join(overload_scenario_path(),
                                               "out")],
         "is not a directory"),
        ("plan", plan_with("cluster", p_idle="60W"), [], "p_active"),
    ])
    def test_wrong_type_is_one_line_usage_error(self, tmp_path, capsys,
                                                command, cfg, extra, key):
        out = str(tmp_path / "out")
        err = run_one_line_error([command, "--config",
                                  write_config(tmp_path, cfg), "--out", out,
                                  *extra], capsys, 2)
        assert key in err
        assert not os.path.exists(out)

    def test_plan_flag_of_wrong_type_is_usage_error(self, tmp_path, capsys):
        err = run_one_line_error(["plan", "--config",
                                  write_config(tmp_path, PLAN_CONFIG),
                                  "--n-compute", "many",
                                  "--out", str(tmp_path / "out")], capsys, 2)
        assert "n_compute" in err

    @pytest.mark.parametrize("command, flag", [("plan", "--config"),
                                               ("simulate", "--scenario")])
    def test_deeply_nested_file_is_one_line_usage_error(self, tmp_path,
                                                        capsys, command,
                                                        flag):
        # the json decoder recurses once per level and gives up with a
        # RecursionError long before 100,000 levels
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        out = str(tmp_path / "out")
        err = run_one_line_error([command, flag, str(path), "--out", out],
                                 capsys, 2)
        assert "nests too deeply" in err and str(path) in err
        assert not os.path.exists(out)
