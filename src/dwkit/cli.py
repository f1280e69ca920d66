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
import math
import os
import sys

import numpy as np

from . import __version__, chunkstore, fixtures, placement
from . import regress, report, schema_pca, staging
from .mapreduce import (BUILTIN_REDUCERS, make_ops_mapper,
                        mapreduce as run_mapreduce, reduce_op, write_log)
from .errors import ConfigError, DwkitError
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
        raise ConfigError(f"cannot read {what} {path}: {exc}")
    except ValueError as exc:   # not JSON, or not UTF-8
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}")
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


def _outdir(args):
    return os.environ.get("DWKIT_OUT") or args.out


# --- plan ---

def _cmd_plan(args):
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
    names = [c.name for c in ds.schema if c.kind in ("integer", "real")]
    table = chunkstore.read_all(ds, names)
    if not names:
        raise ConfigError(f"{path} has no numeric columns")
    table, dropped = table.complete_cases(names)
    if table.nrows < 2:
        raise DwkitError(f"{path} has {table.nrows} row(s) with every "
                         f"numeric column present; design-schema needs 2")
    values = np.column_stack([np.asarray(table.column(n), dtype=float)
                              for n in names])
    infinite = [n for n, col in zip(names, values.T) if np.isinf(col).any()]
    if infinite:
        raise DwkitError(f"{path}: column {infinite[0]!r} holds an infinity")
    return (schema_pca.NumericMatrix(values=values, col_names=names),
            _dropped_warnings(dropped, "a numeric column"))


def _dropped_warnings(dropped, where):
    if not dropped:
        return []
    return [f"dropped {dropped} row(s) with a missing value in {where}"]


def _cmd_design_schema(args):
    cfg = _command_config(args, {"input": string,
                                 "threshold": fraction(zero=False)})
    if "input" not in cfg:
        raise ConfigError("design-schema needs --input CSV")
    path = cfg["input"]
    threshold = cfg.get("threshold", schema_pca.DEFAULT_VARIANCE_THRESHOLD)
    data, warnings = _numeric_matrix_from_csv(path)
    proposal = schema_pca.design_schema(data, threshold)
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
    manifest = {"input": path, "threshold": threshold}
    notes = ["factor grouping rule: each variable joins the retained "
             "component with its largest absolute loading; floor "
             f"{schema_pca.ASSIGNMENT_FLOOR} on |loading|"]
    return manifest, body, warnings + notes, []


# --- simulate ---

def _cmd_simulate(args):
    cfg = _command_config(args, {
        "scenario": string, "until": quantity("seconds"),
        "mode": choice("managed", "lossy-priority-baseline")})
    if "scenario" not in cfg:
        raise ConfigError("simulate needs --scenario FILE")
    scenario = _load_config(cfg["scenario"], "scenario")
    policy = scenario.get("policy", {})
    # a policy that is not an object is refused by run_scenario
    if "mode" in cfg and isinstance(policy, dict):
        scenario["policy"] = dict(policy, mode=cfg["mode"])
    events, metrics = placement.run_scenario(scenario, cfg.get("until"))
    body = dict(metrics)
    body["events"] = len(events)
    body["drop_rate_from_log"] = placement.drop_rate(events)
    manifest = {"scenario": cfg["scenario"], "until": cfg.get("until"),
                "mode": scenario.get("policy", {}).get("mode", "managed")}
    extra = [("events.jsonl", lambda outdir: placement.write_event_log(
        events, os.path.join(outdir, "events.jsonl")))]
    return manifest, body, [], extra


# --- mapreduce ---

def _cmd_mapreduce(args):
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
    ds = chunkstore.open_datastore(
        inputs, chunk_size=chunk_size,
        treat_as_missing=cfg.get("missing_tokens", ()))
    names = ds.column_names()
    unknown = sorted({column for _, _, column in parsed
                      if column is not None and column not in names})
    if unknown:
        raise ConfigError(f"unknown column(s) {unknown}; the input has "
                          f"{names}")
    # one pass for every op: each chunk emits one partial per op
    out = run_mapreduce(ds, make_ops_mapper(parsed), reduce_op,
                        columns={column for _, _, column in parsed if column})
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
    manifest = {"input": inputs,
                "chunk_size": chunk_size, "operations": ops}
    extra = [("scheduler.jsonl", lambda outdir: write_log(
        out.log, os.path.join(outdir, "scheduler.jsonl")))]
    return manifest, {"results": results}, [], extra


# --- regress ---

def _cmd_regress(args):
    cfg = _command_config(args, {"input": string, "response": string,
                                 "predictors": _NAMES, "encode": _NAMES})
    path = cfg.get("input")
    response = cfg.get("response")
    predictors = cfg.get("predictors")
    encode = cfg.get("encode") or []
    if path is None:
        table = fixtures.warehouse_survey_table()
        names = table.column_names
        response = response or fixtures.WAREHOUSE_RESPONSE
        predictors = predictors or list(fixtures.WAREHOUSE_PREDICTORS)
        source = "bundled synthetic warehouse survey"
    else:
        ds = chunkstore.open_datastore(path)
        names = ds.column_names()
        table = chunkstore.read_all(
            ds, {response, *(predictors or ()), *encode})
        if response is None or not predictors:
            raise ConfigError("regress needs --response and --predictors")
        source = path
    unknown = sorted({response, *predictors, *encode} - set(names))
    if unknown:
        raise ConfigError(f"unknown column(s) {unknown}; the input has "
                          f"{names}")
    try:
        spec = regress.ModelSpec(response, predictors)
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
    # an exact fit has F = inf, which JSON cannot hold: it is written null
    exact = not math.isfinite(table_anova.f)
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
            "f": None if exact else table_anova.f,
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
    warnings = _dropped_warnings(dropped, "the response or a predictor")
    if exact:
        warnings.append("the residual sum of squares is 0, so F is "
                        "infinite; anova.f is written null")
    warnings += identity["warnings"]

    def write_lines(outdir):
        for ln in lines:
            report.write_csv(
                os.path.join(outdir, f"factor_{ln.predictor}.csv"),
                [ln.predictor, response, "fitted"],
                zip(ln.x.tolist(), ln.y.tolist(), ln.fitted.tolist()))
    manifest = {"input": source, "response": response,
                "predictors": predictors, "encode": encode}
    return manifest, body, warnings, [("factor CSVs", write_lines)]


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
    p.add_argument("--mode",
                   choices=["managed", "lossy-priority-baseline"],
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
    try:
        outdir = _outdir(args)
        # the nearest path at or above outdir that exists must be a
        # directory, or the report cannot be written there
        existing = outdir
        while existing and not os.path.lexists(existing):
            existing = os.path.dirname(existing)
        if existing and not os.path.isdir(existing):
            raise ConfigError(f"output directory {outdir} cannot be made: "
                              f"{existing} is not a directory")
        manifest, body, warnings, extra = _COMMANDS[args.subcommand](args)
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
    except (DwkitError, UnicodeDecodeError) as exc:   # bytes not UTF-8
        print(f"dwkit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
