"""Batch front-end: parse experiment configs, run verification suites, emit
machine-readable reports.

A config is checked against `DOCUMENT`, the schemas of its spec kinds and
of its catalog entry; the JSON arguments of `ricci`, `spectrum` and
`transport` against schemas in the same vocabulary (`riccikit.schema`).

Exit codes: 0 all pass, 1 at least one inequality failure, 2 config error,
3 runtime error (a row errored but the suite completed).  A report is a
function of the config and its seed alone; `check --seed` overrides the seed
of every document.
"""

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from importlib import resources

import numpy as np

from . import bodies, catalog, engine, families, fields, measures, tensor_core, transport
from .errors import (
    IOFailure,
    NonFiniteConstant,
    RicciKitError,
    SchemaViolation,
    UnknownInequalityId,
)
from .schema import Key, Schema, number, positive, validate

CSV_COLUMNS = [
    "suite", "inequality", "dim", "function",
    "lhs", "lhs_err", "rhs", "rhs_err", "slack", "status", "seed", "n",
]

# the keys of a config document besides `inequality`; its specs and params
# are checked against the schemas of their kinds and of its catalog entry
DOCUMENT = Schema({
    "dims": Key("integer", ge=1, shape="+"),
    "samples": Key("integer", 200000, ge=100),
    "seed": Key("integer", 0, ge=0),
    "suite": Key("string", None),
    "measure": Key("object", None),
    "target": Key("object", None),
    "body": Key("object", None),
    "params": Key("object", {}),
    "function_filter": Key("string", None, shape="*"),
})

# a parsed config: its inequality and the keys of DOCUMENT, defaults filled in
ExperimentConfig = dataclasses.make_dataclass("ExperimentConfig", ["inequality", *DOCUMENT.keys])


def parse_config(document) -> ExperimentConfig:
    """Validate a JSON config document against its schemas, with the
    defaults filled in; the first violation is reported with a JSON-pointer
    path."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaViolation("", f"not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SchemaViolation("", "config must be a JSON object")

    ineq = document.get("inequality")
    if not isinstance(ineq, str):
        raise SchemaViolation("/inequality", "missing or non-string inequality id")
    entry = catalog.CATALOG.get(ineq)
    if entry is None:
        raise UnknownInequalityId(ineq)

    doc = validate(DOCUMENT, document, "", {})
    dims = {f"/dims/{i}": d for i, d in enumerate(doc["dims"])}
    for key in ("measure", "target", "body"):
        if doc[key] is not None:
            schema = bodies.SCHEMA if key == "body" else measures.SCHEMA
            doc[key] = validate(schema, doc[key], f"/{key}", dims, key)
        elif key in entry.specs:
            raise SchemaViolation(f"/{key}", f"{ineq} requires a {key} spec")
    # the params carry the theorem's dimension window: checked after the
    # specs, an unknown kind is reported at its own pointer whatever the
    # dimension
    params = validate(entry.params, doc["params"], "/params", dims, ineq)

    if doc["function_filter"] is not None:
        known = {f.id for d in doc["dims"] for f in engine.default_suite(d)}
        for i, fid in enumerate(doc["function_filter"]):
            if fid not in known:
                raise SchemaViolation(f"/function_filter/{i}",
                                      f"unknown function id {fid!r}; known: {sorted(known)}")
    doc.update(suite=doc["suite"] or ineq, params=params)
    return ExperimentConfig(inequality=ineq, **{key: doc[key] for key in DOCUMENT.keys})


def _instance_params(config: ExperimentConfig, d: int) -> dict:
    """The params of a config with its specs built at dimension d; a params
    key that names a spec or the dimension is ignored."""
    params = {k: v for k, v in config.params.items()
              if k not in ("measure", "target", "body")}
    params["dim"] = d
    if config.measure is not None:
        params["measure"] = measures.from_spec(config.measure, d)
    if config.target is not None:
        params["target"] = measures.from_spec(config.target, d)
    if config.body is not None:
        params["body"] = bodies.body_from_spec({**config.body, "dim": d})
    return params


def run_suite(config: ExperimentConfig) -> engine.VerificationReport:
    """Run one config over its dims; a failure while instantiating or
    checking one dimension becomes an error row instead of aborting the
    suite."""
    report = engine.VerificationReport()
    for d in config.dims:
        try:
            inst = catalog.instantiate(config.inequality, _instance_params(config, d))
            functions = engine.default_suite(d, seed=config.seed)
            if config.function_filter:
                functions = [f for f in functions if f.id in config.function_filter]
            sub = engine.check_inequality(
                inst, functions=functions, budget=config.samples,
                seed=config.seed, suite_name=config.suite,
            )
        except RicciKitError as exc:
            report.add(engine.ReportRow(
                suite=config.suite, inequality=config.inequality, dim=d,
                function="-", lhs=math.nan, lhs_err=math.nan, rhs=math.nan,
                rhs_err=math.nan, slack=math.nan, status="error",
                seed=config.seed, n=config.samples,
            ))
            report.attachments[f"{config.inequality}:d={d}:error"] = str(exc)
            continue
        report.extend(sub)
    return report


def run_documents(documents) -> engine.VerificationReport:
    """Parse every document, so a config error stops the batch before any
    work, then run them in order."""
    configs = [parse_config(doc) for doc in documents]
    report = engine.VerificationReport()
    for config in configs:
        report.extend(run_suite(config))
    return report


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def report_to_csv(report: engine.VerificationReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in report.rows:
        d = r.as_dict()
        writer.writerow([_fmt(d[c]) for c in CSV_COLUMNS])
    return buf.getvalue()


def report_to_json(report: engine.VerificationReport) -> str:
    return json.dumps(
        {
            "rows": [r.as_dict() for r in report.rows],
            "attachments": report.attachments,
        },
        indent=2,
        sort_keys=True,
        default=float,
    )


def emit_report(report, fmt="csv", path=None):
    if not report.rows:
        raise IOFailure("refusing to emit an empty report")
    text = report_to_csv(report) if fmt == "csv" else report_to_json(report)
    if path is None or path == "-":
        sys.stdout.write(text)
        return None
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOFailure(str(exc)) from exc
    return path


def load_bundled(name):
    """Load a bundled suite (e.g. 'paper-smoke') from package data."""
    fname = f"{name}.json"
    ref = resources.files("riccikit") / "configs" / fname
    if not ref.is_file():
        raise SchemaViolation("", f"no bundled suite named {name!r}")
    return json.loads(ref.read_text())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def exit_code_for(report: engine.VerificationReport) -> int:
    """1 if any graded row failed, else 3 if any row errored, else 0;
    report-only rows never affect the exit status."""
    if any(r.status == "fail" for r in report.rows):
        return 1
    if any(r.status == "error" for r in report.rows):
        return 3
    return 0


def _cmd_check(args):
    if os.path.exists(args.config):
        with open(args.config, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    else:
        payload = load_bundled(args.config)
    documents = payload if isinstance(payload, list) else [payload]
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.samples is not None:
        overrides["samples"] = args.samples
    documents = [{**doc, **overrides} for doc in documents]
    report = run_documents(documents)
    emit_report(report, fmt=args.format, path=args.out)
    return exit_code_for(report)


def _json_arg(text, at, schema, dims):
    """A JSON subcommand argument checked against `schema` at the pointer
    `at`, with its defaults filled in."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolation(at, f"not valid JSON: {exc}") from exc
    return validate(schema, obj, at, dims, at[1:])


# the metric families `riccikit ricci` evaluates: the product families of the
# catalog, the flat metric and the radial conformal metric
_RICCI_FAMILY = Schema({"type": Key("string", "euclidean")}, select="type", variants={
    **families.FAMILY.variants,
    "euclidean": Schema(),
    "conformal_radial": Schema({"theta": number(), "N": number(math.inf),
                                "eps": number(1e-6, ge=0.0)}),
})


def _finite_entries(flag, values):
    """Refuse a non-finite entry of a numeric list flag as a config error."""
    for value in values:
        if not math.isfinite(value):
            raise SchemaViolation(flag, f"must be finite, got {value}")


def _cmd_ricci(args):
    _finite_entries("--point", args.point)
    x = np.asarray(args.point, dtype=float)
    d = x.size
    fam = _json_arg(args.family, "/family", _RICCI_FAMILY, {"/point": d})
    mspec = _json_arg(args.measure, "/measure", measures.SCHEMA, {"/point": d})
    mu = measures.from_spec(mspec, d)
    n_param = math.inf
    # far out, the step sizes or the family overflow; the metric check then
    # names the stencil point whose metric is not finite, so numpy's
    # floating-point warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if fam["type"] == "conformal_radial":
            n_param = fam["N"]
            data = families.ConformalMetricData.radial(fam["theta"], fam["eps"])
            closed = families.conformal_ricci_N(data, mu.potential, n_param, x)
            metric = fields.conformal_metric(data.phi, d)
        elif fam["type"] == "euclidean":
            closed = mu.potential.hessian(x)
            metric = fields.euclidean_metric(d)
        else:
            data = families.ProductMetricData.from_family(fam, d)
            closed = families.product_ricci(data, mu.potential, x)
            metric = data.metric_field()
        try:
            cp = tensor_core.generalized_ricci(metric, mu.potential, x, n_param=n_param)
        except NonFiniteConstant:  # an underflow refusal yields to a closed form that is NaN
            if np.isfinite(closed).all():
                raise
            cp = None  # the check below refuses the NaN closed form
        if not (np.isfinite(closed).all() and np.isfinite(cp.ric_gmu_n).all()):
            raise NonFiniteConstant(f"Ricci tensor not finite at {x}")
    out = {
        "point": x.tolist(),
        "closed_form": np.asarray(closed).tolist(),
        "finite_difference": cp.ric_gmu_n.tolist(),
        "max_abs_disagreement": float(np.abs(closed - cp.ric_gmu_n).max()),
    }
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


_POTENTIAL_1D = Schema({"kind": Key("string", "uniform")}, select="kind", variants={
    "uniform": Schema(),
    "gaussian": Schema({"sigma": positive(1.0)}),
    "exp": Schema({"rate": number(1.0)}),
    "power": Schema({"c": number(1.0), "q": number(2.0, ge=0.0)}),
})

_POTENTIALS_1D = {
    "uniform": lambda p: (lambda t: 0.0),
    "gaussian": lambda p: (lambda t: 0.5 * t * t / p["sigma"] ** 2),
    "exp": lambda p: (lambda t: p["rate"] * t),
    "power": lambda p: (lambda t: p["c"] * abs(t) ** p["q"]),
}


def _cmd_spectrum(args):
    spec = _json_arg(args.potential, "/potential", _POTENTIAL_1D, {})
    pot = _POTENTIALS_1D[spec["kind"]](spec)
    _finite_entries("--a", [args.a])
    _finite_entries("--b", [args.b])
    if args.a >= args.b:
        raise SchemaViolation("--b", f"must exceed --a = {args.a}, got {args.b}")
    if args.n < engine.MIN_NODES:
        raise SchemaViolation("--n", f"must be at least {engine.MIN_NODES}, got {args.n}")
    lam, cp = engine.spectral_gap_1d(pot, (args.a, args.b), n=args.n)
    json.dump({"lambda_1": lam, "poincare_constant": cp}, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _density_arg(text, at):
    """The coordinate density of a 1-D product measure given as JSON."""
    mu = measures.from_spec(_json_arg(text, at, measures.SCHEMA, {at: 1}), 1)
    if mu.coord_densities is None:
        raise SchemaViolation(f"{at}/kind", f"{mu.kind} is not a product measure")
    return mu.coord_densities[0]


def _cmd_transport(args):
    mu = _density_arg(args.mu, "/mu")
    nu = _density_arg(args.nu, "/nu")
    _finite_entries("--points", args.points)
    rows = []
    phi = transport.transport_potential_1d(mu, nu)
    vpot = mu.potential_field()
    wpot = nu.potential_field()
    for x in args.points:
        t, tp = transport.monotone_map_1d(mu, nu, x)
        res = transport.monge_ampere_residual(phi, vpot, wpot, [x])
        rows.append({"x": x, "T": t, "T_prime": tp, "monge_ampere_residual": res})
    json.dump(rows, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_manifest(args):
    json.dump(catalog.manifest(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="riccikit",
        description="generalized Ricci tensors and inequality verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run inequality suites from a config")
    p.add_argument("--config", required=True,
                   help="path to a JSON config, or a bundled suite name")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("ricci", help="evaluate generalized Ricci tensors")
    p.add_argument("--family", required=True, help="metric family JSON")
    p.add_argument("--measure", default='{"kind": "gaussian"}', help="measure spec JSON")
    p.add_argument("--point", nargs="+", type=float, required=True)
    p.set_defaults(func=_cmd_ricci)

    p = sub.add_parser("spectrum", help="1-D spectral gap oracle")
    p.add_argument("--potential", required=True, help="potential JSON")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--n", type=int, default=4096)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("transport", help="1-D monotone transport diagnostics")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--points", nargs="+", type=float, required=True)
    p.set_defaults(func=_cmd_transport)

    p = sub.add_parser("manifest", help="print the machine-readable catalog")
    p.set_defaults(func=_cmd_manifest)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaViolation, UnknownInequalityId) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RicciKitError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
