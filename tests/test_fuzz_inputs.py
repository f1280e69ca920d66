"""Fuzz the command line with malformed configs, scenarios and CSVs.

Whatever the input, ``dwkit`` exits 0, 1 or 2 without a traceback or a
warning; a failure is one line on stderr, and a success writes nothing
there and reruns byte for byte.
"""
import contextlib
import copy
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import example, given, settings, strategies as st

from dwkit.cli import main
from dwkit.fixtures import overload_scenario_path

# JSON values of every type, including the malformed ones a table refuses
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 300),
    st.sampled_from([2**53, 10**400, 0.0, -1.5, 2.5, 0.7, 5e-324, 1e308,
                     1e400, -1e400, math.nan]),
    st.sampled_from(["", "x", "1GB", "2GiB", "-5s", "1e400", "NaN", "3",
                     "10GB/s", "50W", "count", "mean:Delay", "ingest"]))
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=3),
                   st.dictionaries(st.sampled_from(["name", "throughput",
                                                    "x"]), SCALARS,
                                   max_size=2))
FLAG_TEXT = st.sampled_from(["", "x", "0", "-1", "3", "2.5", "1e400", "NaN",
                             "true", "1GB", "-5", "10s", "0.7", "count",
                             "sum:Delay", "a=1GB/s", "managed", "5e-324",
                             "1e308", "9007199254740993"])

PLAN_CONFIG = {
    "cluster": {"n_compute": 128, "bw_pfs": "50GB/s",
                "bw_host2ssd": "3GB/s", "bw_fm2c": "2GB/s",
                "bw_c2m": "2GB/s", "c_ssd": "512GB",
                "p_active": "50W", "p_idle": "5W"},
    "workload": {"lambda_a": "2GB", "lambda_c": "8GB", "num_chkpts": 3,
                 "interval": "3600s", "alpha": 0.1},
    "kernels": [{"name": "hist", "throughput": "1GB/s"}],
}

# subcommand -> (config keys, flags that take a value)
COMMANDS = {
    "plan": (["cluster", "workload", "kernels"],
             ["--n-compute", "--bw-pfs", "--alpha", "--num-chkpts",
              "--interval", "--kernel"]),
    "design-schema": (["input", "threshold"], ["--threshold"]),
    "simulate": (["scenario", "until", "mode"], ["--until", "--mode"]),
    "mapreduce": (["input", "chunk_size", "operations", "missing_tokens"],
                  ["--chunk-size", "--workers", "--op"]),
    "regress": (["input", "response", "predictors", "encode"],
                ["--response", "--predictors", "--encode"]),
}


def run_cli(argv, tmp):
    """Run ``dwkit argv --out <fresh dir>``, which must raise no warning;
    returns (code, stderr, the output files' bytes)."""
    out = tempfile.mkdtemp(dir=tmp)
    os.rmdir(out)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main([*argv, "--out", out])
        except SystemExit as exc:
            code = exc.code
    assert not caught, (argv, [str(w.message) for w in caught])
    files = {}
    if os.path.isdir(out):
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
    return code, err.getvalue(), files


def check(argv, tmp):
    code, err, files = run_cli(argv, tmp)
    assert code in (0, 1, 2), (code, argv, err)
    assert "Traceback" not in err
    if code == 0:
        assert err == "", (argv, err)
        assert run_cli(argv, tmp) == (0, err, files), argv
    else:
        assert len(err.strip().splitlines()) == 1, (argv, err)
        assert not files, argv


def write(tmp, name, data):
    path = os.path.join(tmp, name)
    with open(path, "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data if isinstance(data, bytes) else json.dumps(data))
    return path


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    keys, flags = COMMANDS[command]
    cfg = copy.deepcopy(PLAN_CONFIG) if command == "plan" else {}
    for key in draw(st.lists(st.sampled_from(keys + ["bogus"]),
                             max_size=2)):
        block = cfg.get(key)
        if isinstance(block, dict) and block and draw(st.booleans()):
            block[draw(st.sampled_from(sorted(block)))] = draw(VALUES)
        else:
            cfg[key] = draw(VALUES)
    argv = []
    for flag in draw(st.lists(st.sampled_from(flags), max_size=3)):
        argv += [flag, draw(FLAG_TEXT)]
    return command, cfg, argv


# JSON nested past the decoder's recursion limit, written as bytes
DEEP_JSON = b"[" * 100000 + b"]" * 100000


@settings(max_examples=300)
@given(command_lines())
@example(("plan", DEEP_JSON, []))
def test_command_line(case):
    command, cfg, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        # simulate gets a real scenario unless the config names its own
        if command == "simulate" and "scenario" not in cfg:
            argv = ["--scenario", overload_scenario_path(), *argv]
        check([command, "--config", write(tmp, "cfg.json", cfg), *argv],
              tmp)


with open(overload_scenario_path()) as _fh:
    OVERLOAD = json.load(_fh)

# section -> a well-formed entry to add, then mutate
ENTRIES = {
    "sites": {"id": "spare", "capacity": "1TB", "ingress_bw": "1GB/s",
              "egress_bw": "1GB/s"},
    "transfers": {"at": "1s", "source": "ingest", "dest": "archive",
                  "size": "1GB", "owner": "etl", "priority": 1, "order": 2},
    "allocations": {"at": 0, "site": "archive", "size": "1GB",
                    "duration": "5s", "acl": [["etl", "write"]],
                    "wait": True},
    "failures": {"kind": "link-down", "target": ["ingest", "archive"],
                 "at": 1, "duration": 5},
    "replications": {"dataset": "d", "size": "1GB", "source": "ingest",
                     "sites": ["archive"]},
}
MUTANTS = st.one_of(
    VALUES, st.sampled_from([-1, -5, math.nan, "nowhere", "ab", "x", True,
                             ["nowhere"], ["ingest"], 2.7, "-1GB"]))


@st.composite
def scenarios(draw):
    scenario = copy.deepcopy(OVERLOAD)
    section = draw(st.sampled_from(sorted(ENTRIES) + ["policy"]))
    if section == "policy":
        target = scenario["policy"]
        key = draw(st.sampled_from(["mode", "ordering", "retry_limit",
                                    "queue_capacity", "replica_count"]))
    else:
        target = copy.deepcopy(ENTRIES[section])
        scenario.setdefault(section, []).append(target)
        key = draw(st.sampled_from(sorted(target)))
    if draw(st.booleans()):
        target[key] = draw(MUTANTS)
    else:
        target.pop(key, None)
    if draw(st.booleans()):   # a string, a number or null for a section
        scenario[section] = draw(st.sampled_from(["x", 5, None]))
    return scenario


@settings(max_examples=250)
@given(scenarios(), st.sampled_from([[], ["--mode", "managed"],
                                     ["--until", "3s"]]))
@example(DEEP_JSON, [])
def test_scenario(scenario, flags):
    with tempfile.TemporaryDirectory() as tmp:
        check(["simulate", "--scenario", write(tmp, "s.json", scenario),
               *flags], tmp)


CELLS = st.sampled_from(["1", "2", "-3", "2.5", "0", "NA", "", "inf",
                         "-inf", "nan", "1e400", "x", "y", '"q,r"', "1e5",
                         "1e308", "-1e308", "5e-324",
                         "9223372036854775808"])


@st.composite
def csv_bytes(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=40))
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(CELLS, min_size=width, max_size=width),
                         max_size=5))
    lines = [",".join("abc"[:width])] + [",".join(r) for r in rows]
    return ("\n".join(lines) + "\n").encode()


# half as many again as the profile's examples: 300 at tier-1
@settings(max_examples=settings().max_examples * 3 // 2)
@given(csv_bytes(), st.sampled_from(["mapreduce", "design-schema",
                                     "regress"]))
# a field past the csv module's size limit
@example(b"a,b\n1,2\n3," + b"x" * 200000 + b"\n", "regress")
# a UTF-8 byte-order mark before the header, as spreadsheets write
@example(b"\xef\xbb\xbfa,b,c\n1,2,x\n3,4,y\n5,7,x\n", "mapreduce")
@example(b"\xef\xbb\xbfa,b,c\n1,2,x\n3,4,y\n5,7,x\n", "regress")
# finite values whose sums of squares overflow
@example(b"a,b,c\n1,1,x\n2,2,y\n1e308,1e308,x\n-1e308,3,y\n",
         "design-schema")
@example(b"a,b,c\n1,1,x\n2,2,y\n1e308,1e308,x\n-1e308,3,y\n", "regress")
# a constant predictor whose norm passes the float range: collinear
@example(b"a,b,c\n1,1e308,x\n2,1e308,y\n3,1e308,x\n4,1e308,y\n5,1e308,x\n",
         "regress")
def test_csv(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = write(tmp, "in.csv", data)
        argv = {"mapreduce": ["mapreduce", "--input", path, "--op", "count",
                              "--op", "mean:b", "--op", "max:a",
                              "--chunk-size", "2"],
                "design-schema": ["design-schema", "--input", path],
                "regress": ["regress", "--input", path, "--response", "a",
                            "--predictors", "b,c", "--encode", "c"],
                }[command]
        check(argv, tmp)
