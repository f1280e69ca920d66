import collections
import hashlib
import json
import os
import subprocess
import sys

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
            "6b711221e6c50638997dc8c283efd7f284ea8a2f17ef48b22452a37f7f4b87e3",
            "ba854f0c7909a94f11f79594faf5fedb9c4f60084cd800eb1828e0ce5f014602",
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
        # past int64 in a later chunk, or an int64 sum that overflows
        (f"x\n1\n{'7' * 400}\n", 1, ["sum:x"], "chunk 1 column 'x'"),
        (f"x\n{2**63 - 1}\n1\n", 1000, ["sum:x"],
         "sum:x: the integer sum is past int64"),
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

    # a command builds only the columns it uses, and checks the others
    @pytest.mark.parametrize("argv, body, message", [
        (["mapreduce", "--op", "sum:a", "--chunk-size", "2"],
         "a,b\n1,2\n3,4\n5,oops\n", "token 'oops' is neither missing nor "
         "a valid integer ({} chunk 1 column 'b')"),
        (["mapreduce", "--op", "sum:a", "--chunk-size", "2"],
         "a,t\n1,x\n2,y\n3\n", "token '<absent>' is neither missing nor "
         "a valid text ({} chunk 1 row 0: short record)"),
        (["regress", "--response", "y", "--predictors", "a"],
         LATER + "1,2,oops\n", "token 'oops' is neither missing nor a "
         "valid integer ({} chunk 1 column 'b')"),
        (["regress", "--response", "y", "--predictors", "a"],
         "y,a,t\n1,2,u\n2,3\n3,5,w\n4,4,x\n", "token '<absent>' is "
         "neither missing nor a valid text ({} chunk 0 row 1: short "
         "record)"),
        (["design-schema"], "a,b,t\n1,2,x\n2,3,y\n3,5\n4,4,z\n",
         "token '<absent>' is neither missing nor a valid text ({} chunk 0 "
         "row 2: short record)"),
    ], ids=["mapreduce-cell", "mapreduce-short", "regress-cell",
            "regress-short", "design-schema-short"])
    def test_unused_columns_are_checked(self, tmp_path, capsys, argv, body,
                                        message):
        p = tmp_path / "bad.csv"
        p.write_text(body)
        err = run_one_line_error([argv[0], "--input", str(p), *argv[1:],
                                  "--out", str(tmp_path / "out")], capsys, 1)
        assert err == f"dwkit: error: {message.format(p)}\n"


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

    def test_infinite_cell_is_one_line_error(self, tmp_path, capsys):
        p = tmp_path / "inf.csv"
        p.write_text("a,b\n1,2\n2,inf\n3,5\n4,4\n")
        err = run_one_line_error(["design-schema", "--input", str(p),
                                  "--out", str(tmp_path / "out")], capsys, 1)
        assert "'b'" in err
        # a mapreduce result over the cell is not finite: nothing is written
        for op in ("sum:b", "max:b", "mean:b"):
            out = tmp_path / op
            err = run_one_line_error(["mapreduce", "--input", str(p), "--op",
                                      op, "--out", str(out)], capsys, 1)
            assert op in err
            assert not out.exists()


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


def test_importing_the_cli_loads_no_scipy():
    # only regress uses scipy, and imports it when it fits
    src = os.path.dirname(os.path.dirname(os.path.abspath(dwkit.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, dwkit.cli; print(sorted(m for m "
         "in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
