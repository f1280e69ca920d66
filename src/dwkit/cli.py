"""Command-line entry point.

One binary, five subcommands: ``plan`` (staging-tier sizing),
``design-schema`` (correlation-PCA dimensions), ``simulate`` (placement
scenarios), ``mapreduce`` (chunked aggregation), and ``regress``
(OLS + ANOVA + per-factor lines).  Each run writes report.json and
report.txt into the output directory, echoing the fully normalized
configuration as a manifest.

Exit codes: 0 success, 1 model/domain error, 2 usage error.
The output directory comes from --out, overridable by $DWKIT_OUT.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, chunkstore, fixtures, placement
from . import regress, report, schema_pca, staging
from .mapreduce import (BUILTIN_REDUCERS, make_ops_mapper,
                        mapreduce as run_mapreduce, reduce_op, write_log)
from .errors import ConfigError, DwkitError
from .units import (parse_bytes, parse_quantity, parse_rate, parse_seconds,
                    parse_watts)

CONFIG_SCHEMA_VERSION = 1

_CLUSTER_FIELDS = {
    "n_compute": int, "bw_pfs": parse_rate, "bw_host2ssd": parse_rate,
    "bw_fm2c": parse_rate, "bw_c2m": parse_rate, "c_ssd": parse_bytes,
    "p_active": parse_watts, "p_idle": parse_watts,
}
_WORKLOAD_FIELDS = {
    "lambda_a": parse_bytes, "lambda_c": parse_bytes, "num_chkpts": int,
    "interval": parse_seconds, "alpha": float,
}


def _check_keys(obj, allowed, context):
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {unknown}")


def _load_config(path, what="config"):
    """Read a JSON object (a config or a scenario); check schema_version."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{what} {path} must be a JSON object")
    version = cfg.pop("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")
    return cfg


def _normalize_block(raw, fields, context):
    _check_keys(raw, fields, context)
    out = {}
    for key, value in raw.items():
        out[key] = fields[key](value)
    return out


def _outdir(args):
    return os.environ.get("DWKIT_OUT") or args.out


# --- plan ---

def _cmd_plan(args):
    cfg = _load_config(args.config)
    _check_keys(cfg, ("cluster", "workload", "kernels"), "plan config")
    cluster = _normalize_block(cfg.get("cluster", {}), _CLUSTER_FIELDS,
                               "cluster")
    workload = _normalize_block(cfg.get("workload", {}), _WORKLOAD_FIELDS,
                                "workload")
    for key in _CLUSTER_FIELDS:
        flag = getattr(args, key, None)
        if flag is not None:
            cluster[key] = _CLUSTER_FIELDS[key](flag)
    for key in _WORKLOAD_FIELDS:
        flag = getattr(args, key, None)
        if flag is not None:
            workload[key] = _WORKLOAD_FIELDS[key](flag)
    kernels = [{"name": k["name"], "throughput": parse_rate(k["throughput"])}
               for k in cfg.get("kernels", [])]
    for spec in args.kernel or []:
        if "=" not in spec:
            raise ConfigError(f"--kernel expects NAME=THROUGHPUT, "
                              f"got {spec!r}")
        name, rate = spec.split("=", 1)
        kernels.append({"name": name, "throughput": parse_rate(rate)})
    missing = ([k for k in _CLUSTER_FIELDS if k not in cluster]
               + [k for k in _WORKLOAD_FIELDS if k not in workload])
    if missing:
        raise ConfigError(f"plan needs values for: {sorted(missing)}")
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
    body = {
        "s_capacity": result.s_capacity,
        "s_bandwidth": result.s_bandwidth,
        "s": result.s,
        "t_a": result.t_a,
        "t_c": result.t_c,
        "t_ssd_min": result.t_ssd_min,
        "feasible": result.feasible,
        "offload_verdicts": result.offload_verdicts,
        "analysis_times": result.analysis_times,
        "energy": {
            "e_node2ssd": result.energy.e_node2ssd,
            "e_active": result.energy.e_active,
            "e_ssd2pfs": result.energy.e_ssd2pfs,
            "e_idle": result.energy.e_idle,
            "total": result.energy.total,
            "over_budget": result.energy.over_budget,
        },
    }
    manifest = {"cluster": cluster, "workload": workload, "kernels": kernels}
    return manifest, body, warnings, []


# --- design-schema ---

def _numeric_matrix_from_csv(path, chunk_size=100000):
    ds = chunkstore.open_datastore(path, chunk_size=chunk_size)
    table = chunkstore.read_all(ds)
    names = [c.name for c in ds.schema if c.kind in ("integer", "real")]
    if not names:
        raise ConfigError(f"{path} has no numeric columns")
    table, dropped = table.complete_cases(names)
    if table.nrows < 2:
        raise DwkitError(f"{path} has {table.nrows} row(s) with every "
                         f"numeric column present; design-schema needs 2")
    values = np.column_stack([np.asarray(table.column(n), dtype=float)
                              for n in names])
    return (schema_pca.NumericMatrix(values=values, col_names=names),
            _dropped_warnings(dropped, "a numeric column"))


def _dropped_warnings(dropped, where):
    if not dropped:
        return []
    return [f"dropped {dropped} row(s) with a missing value in {where}"]


def _cmd_design_schema(args):
    cfg = _load_config(args.config)
    _check_keys(cfg, ("input", "threshold"), "design-schema config")
    path = args.input or cfg.get("input")
    threshold = (args.threshold if args.threshold is not None
                 else cfg.get("threshold",
                              schema_pca.DEFAULT_VARIANCE_THRESHOLD))
    if path is None:
        raise ConfigError("design-schema needs --input CSV")
    if not 0.0 < float(threshold) <= 1.0:
        raise ConfigError("threshold must be in (0, 1]")
    data, warnings = _numeric_matrix_from_csv(path)
    proposal = schema_pca.design_schema(data, float(threshold))
    pca = proposal.pca
    body = {
        "variables": pca.col_names,
        "eigenvalues": list(pca.eigenvalues),
        "cumulative_variance": list(pca.cumulative),
        "selected_components": pca.selected,
        "loadings": [list(pca.eigenvectors[:, k])
                     for k in range(pca.eigenvectors.shape[1])],
        "factors": proposal.factors,
        "proposed_dimensions": proposal.proposed_dimensions,
        "unassigned": proposal.unassigned,
        "assignment_floor": schema_pca.ASSIGNMENT_FLOOR,
    }
    manifest = {"input": str(path), "threshold": float(threshold)}
    notes = ["factor grouping rule: each variable joins the retained "
             "component with its largest absolute loading; floor "
             f"{schema_pca.ASSIGNMENT_FLOOR} on |loading|"]
    return manifest, body, warnings + notes, []


# --- simulate ---

def _cmd_simulate(args):
    cfg = _load_config(args.config)
    _check_keys(cfg, ("scenario", "until", "mode"), "simulate config")
    scenario_path = args.scenario or cfg.get("scenario")
    if scenario_path is None:
        raise ConfigError("simulate needs --scenario FILE")
    scenario = _load_config(scenario_path, "scenario")
    mode = args.mode or cfg.get("mode")
    policy = scenario.get("policy", {})
    # a policy that is not an object is refused by run_scenario
    if mode is not None and isinstance(policy, dict):
        scenario["policy"] = dict(policy, mode=mode)
    until_raw = args.until if args.until is not None else cfg.get("until")
    until = parse_seconds(until_raw) if until_raw is not None else None
    events, metrics = placement.run_scenario(scenario, until=until)
    body = dict(metrics)
    body["events"] = len(events)
    body["drop_rate_from_log"] = placement.drop_rate(events)
    manifest = {"scenario": str(scenario_path), "until": until,
                "mode": scenario.get("policy", {}).get("mode", "managed")}
    extra = [("events.jsonl", lambda outdir: placement.write_event_log(
        events, os.path.join(outdir, "events.jsonl")))]
    return manifest, body, [], extra


# --- mapreduce ---

def _parse_op(spec):
    if spec == "count":
        return ("count", None)
    if ":" not in spec:
        raise ConfigError(f"operation {spec!r}: expected count or "
                          f"REDUCER:COLUMN with reducer in "
                          f"{sorted(BUILTIN_REDUCERS)}")
    reducer, column = spec.split(":", 1)
    if reducer not in BUILTIN_REDUCERS:
        raise ConfigError(f"unknown reducer {reducer!r}")
    return (reducer, column)


def _cmd_mapreduce(args):
    cfg = _load_config(args.config)
    _check_keys(cfg, ("input", "chunk_size", "operations", "missing_tokens"),
                "mapreduce config")
    inputs = list(args.input or cfg.get("input") or [])
    ops = list(args.op or cfg.get("operations") or [])
    chunk_size = (args.chunk_size if args.chunk_size is not None
                  else cfg.get("chunk_size", 1000))
    if type(chunk_size) is not int or chunk_size < 1:
        raise ConfigError(f"chunk_size must be an integer >= 1, "
                          f"got {chunk_size!r}")
    if not inputs:
        inputs = [fixtures.server_records_path()]
    if not ops:
        raise ConfigError("mapreduce needs at least one --op")
    parsed = [(op, *_parse_op(op)) for op in dict.fromkeys(ops)]
    ds = chunkstore.open_datastore(
        inputs, chunk_size=chunk_size,
        treat_as_missing=tuple(cfg.get("missing_tokens", ())))
    names = ds.column_names()
    unknown = sorted({column for _, _, column in parsed
                      if column is not None and column not in names})
    if unknown:
        raise ConfigError(f"unknown column(s) {unknown}; the input has "
                          f"{names}")
    # one pass for every op: each chunk emits one partial per op
    out = run_mapreduce(ds, make_ops_mapper(parsed), reduce_op)
    reduced = dict(out.pairs)
    results = {}
    for key, reducer, column in parsed:
        if key not in reduced:
            if reducer not in ("count", "sum"):
                raise DwkitError(f"{key}: column {column!r} has no "
                                 f"non-missing values")
            value = 0   # no rows, or no values to add
        else:
            value = reduced[key]
        results[key] = (int(value) if isinstance(value, (int, np.integer))
                        else float(value))
    manifest = {"input": [str(p) for p in inputs],
                "chunk_size": chunk_size, "operations": ops}
    extra = [("scheduler.jsonl", lambda outdir: write_log(
        out.log, os.path.join(outdir, "scheduler.jsonl")))]
    return manifest, {"results": results}, [], extra


# --- regress ---

def _cmd_regress(args):
    cfg = _load_config(args.config)
    _check_keys(cfg, ("input", "response", "predictors", "encode"),
                "regress config")
    path = args.input or cfg.get("input")
    if path is None:
        table = fixtures.warehouse_survey_table()
        response = args.response or cfg.get("response") \
            or fixtures.WAREHOUSE_RESPONSE
        predictors = (args.predictors.split(",") if args.predictors
                      else cfg.get("predictors")
                      or list(fixtures.WAREHOUSE_PREDICTORS))
        source = "bundled synthetic warehouse survey"
    else:
        ds = chunkstore.open_datastore(path)
        table = chunkstore.read_all(ds)
        response = args.response or cfg.get("response")
        predictors = (args.predictors.split(",") if args.predictors
                      else cfg.get("predictors"))
        if response is None or not predictors:
            raise ConfigError("regress needs --response and --predictors")
        source = str(path)
    encode = (args.encode.split(",") if args.encode
              else cfg.get("encode") or [])
    unknown = sorted({response, *predictors, *encode}
                     - set(table.column_names))
    if unknown:
        raise ConfigError(f"unknown column(s) {unknown}; the input has "
                          f"{table.column_names}")
    try:
        spec = regress.ModelSpec(response, tuple(predictors))
    except ValueError as exc:
        raise ConfigError(str(exc))
    if encode:
        table = regress.encode_binary(table, encode)
    text = [n for n in (response, *predictors) if table.kinds[n] == "text"]
    if text:
        raise ConfigError(f"column(s) {text} are not numeric; 0/1-encode "
                          f"two-valued ones with --encode")
    # incomplete rows are dropped, as design-schema does
    table, dropped = table.complete_cases([response, *predictors])
    try:
        fit = regress.fit_model(table, spec)
    except ValueError as exc:   # too few rows for the predictors
        raise DwkitError(f"{source}: {exc}")
    summary = regress.summarize(fit)
    table_anova = regress.anova(fit)
    lines = regress.factor_lines(table, response, predictors)
    identity = regress.survey_identity_report()
    body = {
        "summary": {
            "multiple_r": summary.multiple_r,
            "r_square": summary.r_square,
            "adjusted_r_square": summary.adjusted_r_square,
            "standard_error": summary.standard_error,
            "observations": summary.observations,
        },
        "coefficients": {"intercept": fit.intercept,
                         **{n: float(b) for n, b in
                            zip(fit.predictor_names, fit.slopes)}},
        "anova": {
            "df_regression": table_anova.df_regression,
            "df_residual": table_anova.df_residual,
            "ss_regression": table_anova.ss_regression,
            "ss_residual": table_anova.ss_residual,
            "ss_total": table_anova.ss_total,
            "ms_regression": table_anova.ms_regression,
            "ms_residual": table_anova.ms_residual,
            "f": table_anova.f,
            "significance_f": table_anova.significance_f,
        },
        "factor_ranking": [{"predictor": ln.predictor,
                            "slope": ln.slope,
                            "intercept": ln.intercept,
                            "r_square": ln.r_square} for ln in lines],
        "survey_identity_check": {
            "summary": identity["summary"].__dict__,
            "anova": {
                "ms_regression": identity["anova"].ms_regression,
                "ms_residual": identity["anova"].ms_residual,
                "f": identity["anova"].f,
                "significance_f": identity["anova"].significance_f,
                "ss_total": identity["anova"].ss_total,
            },
            "published": identity["published"],
            "significance_at_published_f":
                identity["significance_at_published_f"],
        },
    }
    warnings = (_dropped_warnings(dropped, "the response or a predictor")
                + list(identity["warnings"]))

    def write_lines(outdir):
        for ln in lines:
            report.write_csv(
                os.path.join(outdir, f"factor_{ln.predictor}.csv"),
                [ln.predictor, response, "fitted"],
                list(zip(ln.x, ln.y, ln.fitted)))
    manifest = {"input": source, "response": response,
                "predictors": list(predictors), "encode": encode}
    return manifest, body, warnings, [("factor CSVs", write_lines)]


_COMMANDS = {
    "plan": _cmd_plan,
    "design-schema": _cmd_design_schema,
    "simulate": _cmd_simulate,
    "mapreduce": _cmd_mapreduce,
    "regress": _cmd_regress,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dwkit", description=__doc__.split("\n\n")[1])
    parser.add_argument("--version", action="version",
                        version=f"dwkit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default="dwkit-out",
                       help="output directory (env DWKIT_OUT overrides)")

    p = sub.add_parser("plan", help="size an SSD staging tier")
    common(p)
    for key in _CLUSTER_FIELDS:
        p.add_argument(f"--{key.replace('_', '-')}", dest=key)
    for key in _WORKLOAD_FIELDS:
        p.add_argument(f"--{key.replace('_', '-')}", dest=key)
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
    p.add_argument("--mode",
                   choices=["managed", "lossy-priority-baseline"],
                   help="override the scenario's policy mode")

    p = sub.add_parser("mapreduce", help="chunked aggregation over CSVs")
    common(p)
    p.add_argument("--input", action="append", help="CSV file, repeatable")
    p.add_argument("--chunk-size", type=int, dest="chunk_size")
    p.add_argument("--workers", type=int,
                   help="ignored; map tasks run in order in one thread")
    p.add_argument("--op", action="append",
                   help="count or REDUCER:COLUMN (sum/mean/max/min)")

    p = sub.add_parser("regress", help="OLS + ANOVA + factor lines")
    common(p)
    p.add_argument("--input", help="CSV (default: bundled survey fixture)")
    p.add_argument("--response")
    p.add_argument("--predictors", help="comma-separated column names")
    p.add_argument("--encode", help="binary columns to 0/1-encode")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        manifest, body, warnings, extra = _COMMANDS[args.subcommand](args)
        outdir = _outdir(args)
        manifest["schema_version"] = CONFIG_SCHEMA_VERSION
        full = {
            "tool_version": __version__,
            "subcommand": args.subcommand,
            "config": manifest,
            "results": body,
            "warnings": warnings,
        }
        paths = report.emit_report(full, outdir)
        for _name, writer in extra:
            writer(outdir)
        print(paths["json"])
        return 0
    except ConfigError as exc:
        print(f"dwkit: usage error: {exc}", file=sys.stderr)
        return 2
    except DwkitError as exc:
        print(f"dwkit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
