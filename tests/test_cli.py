import json
import os
import subprocess
import sys

import pytest

import dwkit
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

    def test_unreadable_scenario_is_one_line_usage_error(self, tmp_path):
        proc = run_process(["simulate", "--scenario",
                            str(tmp_path / "nonexistent.json"),
                            "--out", str(tmp_path / "out")])
        assert_one_line_error(proc, 2)
        assert "nonexistent.json" in proc.stderr


class TestScenarioValidation:
    SITE = {"id": "a", "capacity": "1TB", "ingress_bw": "1GB/s",
            "egress_bw": "1GB/s"}

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
    ])
    def test_malformed_scenario_is_one_line_usage_error(
            self, tmp_path, capsys, scenario, needle):
        path = write_config(tmp_path, dict(scenario, schema_version=1),
                            "scenario.json")
        err = run_one_line_error(["simulate", "--scenario", path,
                                  "--mode", "managed",
                                  "--out", str(tmp_path / "out")], capsys, 2)
        assert needle in err


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

    def test_all_missing_column(self, tmp_path):
        csv = tmp_path / "na.csv"
        csv.write_text("a,b\n1,NA\n2,NA\n")
        proc = run_process(["mapreduce", "--input", str(csv), "--op",
                            "mean:b", "--out", str(tmp_path / "out")])
        assert_one_line_error(proc, 1)
        assert "no non-missing values" in proc.stderr

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

    def test_external_csv_needs_model(self, tmp_path):
        code = run(["regress", "--input", server_records_path(),
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


class TestChunkSizeValidation:
    @pytest.mark.parametrize("flag", ["0", "-1"])
    def test_flag_below_one(self, tmp_path, capsys, flag):
        out = str(tmp_path / "out")
        err = run_one_line_error(["mapreduce", "--chunk-size", flag, "--op",
                                  "count", "--out", out], capsys, 2)
        assert "chunk_size" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("value", ["x", 0, 2.5, True, None])
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

    def test_threshold_out_of_range(self, tmp_path):
        code = run(["design-schema", "--input", server_records_path(),
                    "--threshold", "1.5", "--out", str(tmp_path / "out")])
        assert code == 2

    def test_missing_input_is_usage_error(self, tmp_path):
        assert run(["design-schema", "--out", str(tmp_path / "out")]) == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
