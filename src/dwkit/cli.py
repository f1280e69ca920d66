"""Command-line entry point.

One binary, five subcommands: ``plan`` (staging-tier sizing),
``design-schema`` (correlation-PCA dimensions), ``simulate`` (placement
scenarios), ``mapreduce`` (chunked aggregation), and ``regress``
(OLS + ANOVA + per-factor lines).  Each run writes report.json and
report.txt into the output directory, echoing the fully normalized
configuration as a manifest.  Side files (``events.jsonl``,
``scheduler.jsonl``, factor CSVs) take their names only once the report
is written, so a run that fails leaves none of them.

Exit codes: 0 success, 1 model/domain error, 2 usage error.
The output directory comes from --out, overridable by $DWKIT_OUT.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, chunkstore, fixtures, placement
from . import regress, report, schema_pca, staging
from .mapreduce import (BUILTIN_REDUCERS, make_ops_mapper,
                        mapreduce as run_mapreduce, reduce_op, write_log)
from .errors import ConfigError, DwkitError, MissingFileError
from .units import (accept, choice, fraction, integer, list_of, normalize,
                    quantity, string, table)

CONFIG_SCHEMA_VERSION = 1

_RATE = quantity("rate", positive=True)
_CLUSTER_FIELDS = {
    "n_compute": integer(1), "bw_pfs": _RATE, "bw_host2ssd": _RATE,
    "bw_fm2c": _RATE, "bw_c2m": _RATE, "c_ssd": quantity("bytes", True),
    "p_active": quantity("watts"), "p_idle": quantity("watts"),
}
_WORKLOAD_FIELDS = {
    "lambda_a": quantity("bytes"), "lambda_c": quantity("bytes"),
    "num_chkpts": integer(0), "interval": quantity("seconds", True),
    "alpha": fraction(),
}
_KERNEL_FIELDS = {"name": string, "throughput": _RATE}
_NAMES = list_of(string)
_OP = accept(f"count or REDUCER:COLUMN with REDUCER in "
             f"{sorted(BUILTIN_REDUCERS)}",
             lambda op: op == "count" or type(op) is str
             and op.partition(":")[0] in BUILTIN_REDUCERS and ":" in op)


def _load_config(path, what="config"):
    """Read a JSON object (a config or a scenario); check schema_version."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise MissingFileError(what, path, exc) from None
    except ValueError as exc:   # not JSON, or not UTF-8
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}")
    except RecursionError:   # the decoder recurses once per nesting level
        raise ConfigError(f"{what} {path} nests too deeply to read") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{what} {path} must be a JSON object")
    version = cfg.pop("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")
    return cfg


def _command_config(args, fields):
    """``--config`` with the flags of its keys' names merged in over it,
    normalized by ``fields``."""
    cfg = _load_config(args.config)
    cfg.update((key, getattr(args, key)) for key in fields
               if getattr(args, key, None) not in (None, ""))
    return normalize(cfg, fields, args.subcommand)


def _flag_value(raw):
    """A flag's text as the JSON number it spells, else as given."""
    try:
        value = json.loads(raw)
    except ValueError:
        return raw
    return value if type(value) in (int, float) else raw


def _check_columns(wanted, names):
    """Refuse the column names in ``wanted`` that ``names`` lacks."""
    unknown = sorted(set(wanted) - set(names))
    if unknown:
        raise ConfigError(f"unknown column(s) {unknown}; the input has "
                          f"{names}")


def _outdir(args):
    return os.environ.get("DWKIT_OUT") or args.out


class _Output:
    """The output directory of one run.

    A command writes its side files (an event log, a scheduler log,
    factor CSVs) before the report exists, each under a temporary name
    (``stage``).  They take their names once the report is written
    (``commit``); a run that fails removes them, and every directory it
    made for them (``discard``).
    """

    def __init__(self, path):
        if not path:
            raise ConfigError("--out must name a directory")
        self.path = path
        # the nearest path at or above this one that exists must be a
        # directory, or the report cannot be written there
        self._missing = []   # innermost first
        existing = path
        while existing and not os.path.lexists(existing):
            self._missing.append(existing)
            existing = os.path.dirname(existing)
        if existing and not os.path.isdir(existing):
            raise ConfigError(f"output directory {path} cannot be made: "
                              f"{existing} is not a directory")
        self._made = []
        self._staged = []    # (temporary path, final path)

    def stage(self, name):
        """The path to write ``name`` at, which it takes on commit."""
        os.makedirs(self.path, exist_ok=True)
        self._made += self._missing
        self._missing = []
        final = os.path.join(self.path, name)
        self._staged.append((final + ".tmp", final))
        return final + ".tmp"

    def commit(self):
        for temporary, final in self._staged:
            os.replace(temporary, final)
        self._staged, self._made = [], []

    def discard(self):
        for temporary, _ in self._staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temporary)
        for path in self._made:
            with contextlib.suppress(OSError):   # not empty: not only ours
                os.rmdir(path)


# --- plan ---

def _cmd_plan(args, _output):
    cfg = _load_config(args.config)
    # flags override the config's values; a block that is not an object
    # is refused with the rest
    for name, fields in (("cluster", _CLUSTER_FIELDS),
                         ("workload", _WORKLOAD_FIELDS)):
        if isinstance(cfg.setdefault(name, {}), dict):
            cfg[name].update((key, getattr(args, key)) for key in fields
                             if getattr(args, key) is not None)
    cfg = normalize(cfg, {
        "cluster": table(_CLUSTER_FIELDS, _CLUSTER_FIELDS),
        "workload": table(_WORKLOAD_FIELDS, _WORKLOAD_FIELDS),
        "kernels": list_of(table(_KERNEL_FIELDS, _KERNEL_FIELDS))}, "plan")
    cluster, workload = cfg["cluster"], cfg["workload"]
    # in the manifest, a kernel's keys come in one order whatever the config's
    kernels = [{"name": k["name"], "throughput": k["throughput"]}
               for k in cfg.get("kernels", [])]
    for spec in args.kernel or []:
        if "=" not in spec:
            raise ConfigError(f"--kernel expects NAME=THROUGHPUT, "
                              f"got {spec!r}")
        name, rate = spec.split("=", 1)
        kernels.append(normalize({"name": name, "throughput": rate},
                                 _KERNEL_FIELDS, f"--kernel {spec!r}"))
    if not kernels:
        raise ConfigError("plan needs at least one kernel "
                          "(--kernel NAME=THROUGHPUT)")

    try:
        ccfg = staging.ClusterConfig(**cluster)
        wl = staging.Workload(**workload)
    except ValueError as exc:
        raise ConfigError(str(exc))
    result = staging.plan(ccfg, wl,
                          [staging.AnalysisKernel(**k) for k in kernels])
    warnings = []
    if result.energy.over_budget:
        warnings.append("staging-node busy time exceeds the iteration "
                        "interval (over-budget energy accounting)")
    body = asdict(result)
    manifest = {"cluster": cluster, "workload": workload, "kernels": kernels}
    return manifest, body, warnings


# --- design-schema ---

def _moments_from_csv(path):
    """The folded ``Moments`` of a CSV's numeric columns over its rows with
    every one present, read a chunk of ``_BATCH_RECORDS`` rows at a time,
    and the warnings to report.  A name repeated in the header is its last
    column, once."""
    ds = chunkstore.open_datastore(path,
                                   chunk_size=chunkstore._BATCH_RECORDS)
    kinds = {c.name: c.kind for c in ds.schema}   # a name's last column
    names = [n for n, kind in kinds.items() if kind in ("integer", "real")]
    if not names:
        raise ConfigError(f"{path} has no numeric columns")
    moments = schema_pca.Moments.of(np.empty((0, len(names))), names)
    dropped = 0
    for table in chunkstore.read_chunks(ds, names):
        table, gone = table.complete_cases(names)
        dropped += gone
        moments = moments.merge(schema_pca.Moments.of(np.column_stack(
            [np.asarray(table.column(n), dtype=float) for n in names]),
            names))
        del table   # before the next chunk is read
    if moments.n < 2:
        raise DwkitError(f"{path} has {moments.n} row(s) with every "
                         f"numeric column present; design-schema needs 2")
    _refuse_overflow(path, moments)
    text = [n for n, kind in kinds.items() if kind == "text"]
    warnings = _dropped_warnings(dropped, "a numeric column")
    if text:
        warnings.append(f"left out {len(text)} column(s) that are not "
                        f"numeric: {text}")
    return moments, warnings


def _refuse_overflow(source, moments):
    """Name the first column of ``moments`` whose values differ and whose
    sum of squared deviations overflows, which numpy would only warn of."""
    over = np.flatnonzero(~np.isfinite(np.diagonal(moments.comoment))
                          & (moments.low < moments.high))
    if over.size:
        j = over[0]
        m = max(-moments.low[j], moments.high[j])
        raise DwkitError(f"{source}: column {moments.col_names[j]!r} holds "
                         f"a value of magnitude {m:.3g}; its sum of squares "
                         f"over {moments.n} rows overflows")


def _dropped_warnings(dropped, where):
    if not dropped:
        return []
    return [f"dropped {dropped} row(s) with a missing value in {where}"]


def _cmd_design_schema(args, _output):
    cfg = _command_config(args, {"input": string,
                                 "threshold": fraction(zero=False)})
    if "input" not in cfg:
        raise ConfigError("design-schema needs --input CSV")
    path = cfg["input"]
    threshold = cfg.get("threshold", schema_pca.DEFAULT_VARIANCE_THRESHOLD)
    moments, warnings = _moments_from_csv(path)
    proposal = schema_pca.design_schema(moments, threshold)
    pca = proposal.pca
    body = {
        "variables": pca.col_names,
        "eigenvalues": pca.eigenvalues,
        "cumulative_variance": pca.cumulative,
        "selected_components": pca.selected,
        "loadings": pca.eigenvectors.T,   # one row per component
        "factors": proposal.factors,
        "proposed_dimensions": proposal.proposed_dimensions,
        "unassigned": proposal.unassigned,
        "assignment_floor": schema_pca.ASSIGNMENT_FLOOR,
    }
    manifest = {"input": path, "threshold": threshold}
    notes = ["factor grouping rule: each variable joins the retained "
             "component with its largest absolute loading; floor "
             f"{schema_pca.ASSIGNMENT_FLOOR} on |loading|"]
    return manifest, body, warnings + notes


# --- simulate ---

def _cmd_simulate(args, output):
    cfg = _command_config(args, {
        "scenario": string, "until": quantity("seconds"),
        "mode": choice(*placement.MODES)})
    if "scenario" not in cfg:
        raise ConfigError("simulate needs --scenario FILE")
    scenario = _load_config(cfg["scenario"], "scenario")
    policy = scenario.get("policy", {})
    # a policy that is not an object is refused by build_simulator
    if "mode" in cfg and isinstance(policy, dict):
        scenario["policy"] = dict(policy, mode=cfg["mode"])
    # the log is written as the run goes
    with open(output.stage("events.jsonl"), "w") as fh:
        log = placement.EventLogWriter(fh)
        metrics = placement.build_simulator(scenario, log).run(
            cfg.get("until"))
    body = dict(metrics)
    body["events"] = log.lines
    body["drop_rate_from_log"] = log.drop_rate
    manifest = {"scenario": cfg["scenario"], "until": cfg.get("until"),
                "mode": scenario.get("policy", {}).get(
                    "mode", placement.PlacementPolicy.mode)}
    return manifest, body, []


# --- mapreduce ---

def _cmd_mapreduce(args, output):
    cfg = _command_config(args, {"input": _NAMES, "chunk_size": integer(1),
                                 "operations": list_of(_OP),
                                 "missing_tokens": _NAMES})
    inputs = cfg.get("input") or [fixtures.server_records_path()]
    ops = cfg.get("operations")
    chunk_size = cfg.get("chunk_size", 1000)
    if not ops:
        raise ConfigError("mapreduce needs at least one --op")
    parsed = [(op, "count", None) if op == "count" else (op, *op.split(":", 1))
              for op in dict.fromkeys(ops)]
    columns = {column for _, _, column in parsed if column is not None}
    ds = chunkstore.open_datastore(
        inputs, chunk_size=chunk_size,
        treat_as_missing=cfg.get("missing_tokens", ()), columns=columns)
    _check_columns(columns, ds.column_names())
    # one pass for every op: each chunk emits one partial per op
    out = run_mapreduce(ds, make_ops_mapper(parsed), reduce_op,
                        columns=columns)
    reduced = dict(out.pairs)
    results = {}
    for key, reducer, column in parsed:
        if key not in reduced and reducer not in ("count", "sum"):
            raise DwkitError(f"{key}: column {column!r} has no "
                             f"non-missing values")
        # no rows, or no values to add, is 0
        results[key] = reduced.get(key, 0)
    manifest = {"input": inputs,
                "chunk_size": chunk_size, "operations": ops}
    write_log(out.log, output.stage("scheduler.jsonl"))
    return manifest, {"results": results}, []


# --- regress ---

def _cmd_regress(args, output):
    cfg = _command_config(args, {"input": string, "response": string,
                                 "predictors": _NAMES, "encode": _NAMES})
    path = cfg.get("input")
    response = cfg.get("response")
    predictors = cfg.get("predictors")
    encode = cfg.get("encode") or []
    # usage errors come before the read: a missing flag or a malformed
    # model before the input is opened, a name the input lacks once its
    # schema is known
    if path is None:
        response = response or fixtures.WAREHOUSE_RESPONSE
        predictors = predictors or list(fixtures.WAREHOUSE_PREDICTORS)
    elif response is None or not predictors:
        raise ConfigError("regress needs --response and --predictors")
    try:
        spec = regress.ModelSpec(response, predictors)
    except ValueError as exc:
        raise ConfigError(str(exc))
    used = {response, *predictors, *encode}
    if path is None:
        table = fixtures.warehouse_survey_table()
        _check_columns(used, table.column_names)
        source = "bundled synthetic warehouse survey"
    else:
        ds = chunkstore.open_datastore(path, columns=used)
        _check_columns(used, ds.column_names())
        table = chunkstore.read_all(ds, used)
        source = path
    if encode:
        table = regress.encode_binary(table, encode)
    text = [n for n in (response, *predictors) if table.kinds[n] == "text"]
    if text:
        raise ConfigError(f"column(s) {text} are not numeric; 0/1-encode "
                          f"two-valued ones with --encode")
    # incomplete rows are dropped, as design-schema does
    names = [response, *predictors]
    table, dropped = table.complete_cases(names)
    _refuse_overflow(source, schema_pca.Moments.of(np.column_stack(
        [np.asarray(table.column(n), dtype=float) for n in names]), names))
    try:
        fit = regress.fit_model(table, spec)
    # too few rows, or a collinear predictor
    except (ValueError, regress.RankDeficientError) as exc:
        raise DwkitError(f"{source}: {exc}")
    summary = regress.summarize(fit)
    table_anova = regress.anova(fit)
    # an exact fit has F = inf, which JSON cannot hold: it is written null
    exact = not math.isfinite(table_anova.f)
    lines = regress.factor_lines(table, response, predictors)
    identity = regress.survey_identity_report()
    body = {
        "summary": asdict(summary),
        "coefficients": {"intercept": fit.intercept,
                         **dict(zip(fit.predictor_names, fit.slopes))},
        "anova": dict(asdict(table_anova),
                      f=None if exact else table_anova.f),
        "factor_ranking": [{"predictor": ln.predictor,
                            "slope": ln.slope,
                            "intercept": ln.intercept,
                            "r_square": ln.r_square} for ln in lines],
        "survey_identity_check": {
            "summary": asdict(identity["summary"]),
            "anova": {key: getattr(identity["anova"], key)
                      for key in regress.SURVEY_RECOMPUTED},
            "published": identity["published"],
            "significance_at_published_f":
                identity["significance_at_published_f"],
        },
    }
    warnings = _dropped_warnings(dropped, "the response or a predictor")
    if exact:
        warnings.append("the residual sum of squares is 0, so F is "
                        "infinite; anova.f is written null")
    warnings += identity["warnings"]

    # every line's y is the response column, formatted once for all files
    y = report.float_texts(lines[0].y)
    for ln in lines:
        report.write_csv(output.stage(f"factor_{ln.predictor}.csv"),
                         [ln.predictor, response, "fitted"],
                         [ln.x, y, ln.fitted])
    manifest = {"input": source, "response": response,
                "predictors": predictors, "encode": encode}
    return manifest, body, warnings


_COMMANDS = {
    "plan": _cmd_plan,
    "design-schema": _cmd_design_schema,
    "simulate": _cmd_simulate,
    "mapreduce": _cmd_mapreduce,
    "regress": _cmd_regress,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line, as every other usage error
        self.exit(2, f"dwkit: usage error: {message}\n")


def build_parser():
    parser = _Parser(prog="dwkit", description=__doc__.split("\n\n")[1])
    parser.add_argument("--version", action="version",
                        version=f"dwkit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default="dwkit-out",
                       help="output directory (env DWKIT_OUT overrides)")

    p = sub.add_parser("plan", help="size an SSD staging tier")
    common(p)
    for key in (*_CLUSTER_FIELDS, *_WORKLOAD_FIELDS):
        p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                       type=_flag_value)
    p.add_argument("--kernel", action="append",
                   help="NAME=THROUGHPUT, repeatable")

    p = sub.add_parser("design-schema",
                       help="propose warehouse dimensions via PCA")
    common(p)
    p.add_argument("--input", help="numeric CSV")
    p.add_argument("--threshold", type=float,
                   help="cumulative variance threshold (0, 1]")

    p = sub.add_parser("simulate", help="run a placement scenario")
    common(p)
    p.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--until", help="simulation horizon, seconds")
    p.add_argument("--mode", choices=placement.MODES,
                   help="override the scenario's policy mode")

    p = sub.add_parser("mapreduce", help="chunked aggregation over CSVs")
    common(p)
    p.add_argument("--input", action="append", help="CSV file, repeatable")
    p.add_argument("--chunk-size", type=int, dest="chunk_size")
    p.add_argument("--workers", type=int,
                   help="ignored; map tasks run in order in one thread")
    p.add_argument("--op", action="append", dest="operations", metavar="OP",
                   help="count or REDUCER:COLUMN (sum/mean/max/min)")

    p = sub.add_parser("regress", help="OLS + ANOVA + factor lines")
    common(p)
    p.add_argument("--input", help="CSV (default: bundled survey fixture)")
    p.add_argument("--response")
    p.add_argument("--predictors", type=lambda text: text.split(","),
                   help="comma-separated column names")
    p.add_argument("--encode", type=lambda text: text.split(","),
                   help="binary columns to 0/1-encode")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    out = None
    try:
        out = _Output(_outdir(args))
        manifest, body, warnings = _COMMANDS[args.subcommand](args, out)
        manifest["schema_version"] = CONFIG_SCHEMA_VERSION
        full = {
            "tool_version": __version__,
            "subcommand": args.subcommand,
            "config": manifest,
            "results": body,
            "warnings": warnings,
        }
        paths = report.emit_report(full, out.path)
        out.commit()
        print(paths["json"])
        return 0
    except ConfigError as exc:
        print(f"dwkit: usage error: {exc}", file=sys.stderr)
        return 2
    except (DwkitError, UnicodeDecodeError) as exc:   # bytes not UTF-8
        print(f"dwkit: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if out is not None:
            out.discard()


if __name__ == "__main__":
    sys.exit(main())
