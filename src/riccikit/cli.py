"""Batch front-end: parse experiment configs, run verification suites, emit
machine-readable reports.

Exit codes: 0 all pass, 1 at least one inequality failure, 2 config error,
3 runtime error (a row errored but the suite completed).  A report is a
function of the config and its seed alone; `check --seed` overrides the seed
of every document.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from importlib import resources
from typing import List, Optional

import numpy as np

from . import bodies, catalog, engine, families, fields, measures, tensor_core, transport
from .errors import (
    IOFailure,
    RicciKitError,
    SchemaViolation,
    UnknownInequalityId,
)

CSV_COLUMNS = [
    "suite", "inequality", "dim", "function",
    "lhs", "lhs_err", "rhs", "rhs_err", "slack", "status", "seed", "n",
]

@dataclass
class ExperimentConfig:
    suite: str
    inequality: str
    dims: List[int]
    samples: int = 200000
    seed: int = 0
    measure: Optional[dict] = None
    target: Optional[dict] = None
    body: Optional[dict] = None
    params: dict = field(default_factory=dict)
    function_filter: Optional[List[str]] = None


def parse_config(document) -> ExperimentConfig:
    """Validate a JSON config document; the first violation is reported with
    a JSON-pointer path."""
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

    dims = document.get("dims")
    if not isinstance(dims, list) or not dims:
        raise SchemaViolation("/dims", "dims must be a non-empty list of integers")
    for i, d in enumerate(dims):
        if not isinstance(d, int) or d < 1:
            raise SchemaViolation(f"/dims/{i}", f"invalid dimension {d!r}")

    samples = document.get("samples", 200000)
    if not isinstance(samples, int) or samples < 100:
        raise SchemaViolation("/samples", "samples must be an integer >= 100")
    seed = document.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        raise SchemaViolation("/seed", "seed must be a non-negative integer")

    for key in ("measure", "target", "body"):
        spec = document.get(key)
        if spec is None and key in entry.specs:
            raise SchemaViolation(f"/{key}", f"{ineq} requires a {key} spec")
        _check_spec(spec, f"/{key}", bodies if key == "body" else measures, dims)

    # the theorem's dimension window, after the specs, so an unknown kind is
    # reported at its own pointer whatever the dimension
    for i, d in enumerate(dims):
        if d < entry.min_dim:
            raise SchemaViolation(
                f"/dims/{i}",
                f"{ineq} requires dimension >= {entry.min_dim} "
                f"(the admissibility window of the theorem)",
            )
        if entry.max_dim is not None and d > entry.max_dim:
            raise SchemaViolation(
                f"/dims/{i}",
                f"{ineq} requires dimension <= {entry.max_dim} "
                f"(the admissibility window of the theorem)",
            )

    params = document.get("params", {})
    _check_params(entry, params, "/params", dims)

    function_filter = document.get("function_filter")
    if function_filter is not None:
        if not isinstance(function_filter, list):
            raise SchemaViolation("/function_filter", "must be a list of function ids")
        known = {f.id for d in dims for f in engine.default_suite(d)}
        for i, fid in enumerate(function_filter):
            if not isinstance(fid, str) or fid not in known:
                raise SchemaViolation(
                    f"/function_filter/{i}",
                    f"unknown function id {fid!r}; known: {sorted(known)}",
                )

    return ExperimentConfig(
        suite=document.get("suite", ineq),
        inequality=ineq,
        dims=list(dims),
        samples=samples,
        seed=seed,
        measure=document.get("measure"),
        target=document.get("target"),
        body=document.get("body"),
        params=dict(params),
        function_filter=function_filter,
    )


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_numbers(obj, keys, pointer, owner):
    """Reject a non-number (a bool is not a number) under any of `keys`
    (every key when None) present in the dict `obj`."""
    for key in obj if keys is None else keys:
        if key in obj and not _is_number(obj[key]):
            raise SchemaViolation(
                f"{pointer}/{key}", f"{owner}: {key} must be a number, not {obj[key]!r}"
            )


def _check_spec(spec, pointer, module, dims):
    """Reject a measure or body spec (kinds from `module`, `measures` or
    `bodies`) whose kind is missing or unknown, that lacks a key its kind
    requires or holds a non-number under a numeric key, a one-dimensional
    measure kind at d > 1, and a box whose half-widths are not numbers
    matching every listed dimension."""
    if spec is None:
        return
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind not in module.CONSTRUCTORS:
        known = sorted(module.CONSTRUCTORS)
        raise SchemaViolation(f"{pointer}/kind", f"kind {kind!r} is not one of {known}")
    for key in module.REQUIRED_KEYS.get(kind, ()):
        if key not in spec:
            raise SchemaViolation(f"{pointer}/{key}", f"kind {kind!r} requires {key}")
    _check_numbers(spec, module.NUMBER_KEYS, pointer, f"kind {kind!r}")
    if kind == "uniform_body":
        _check_spec(spec["body"], f"{pointer}/body", bodies, dims)
    if kind in measures.ONE_DIMENSIONAL:
        for i, d in enumerate(dims):
            if d > 1:
                raise SchemaViolation(
                    f"/dims/{i}", f"measure kind {kind!r} requires dimension <= 1"
                )
    if kind != "box":
        return
    half_widths = spec.get("half_widths")
    for i, d in enumerate(dims):
        if not isinstance(half_widths, list) or len(half_widths) != d:
            raise SchemaViolation(
                f"{pointer}/half_widths",
                f"a box of dimension {d} (/dims/{i}) needs {d} half-widths",
            )
    _check_numbers(dict(enumerate(half_widths)), None, f"{pointer}/half_widths", "box")


def _check_vector(obj, key, pointer, owner, dims):
    """A number, or a list of 1 or d numbers at every listed dimension d."""
    value = obj[key]
    if _is_number(value):
        return
    if not isinstance(value, list):
        raise SchemaViolation(f"{pointer}/{key}", f"{owner}: {key} must be a number or a list")
    _check_numbers(dict(enumerate(value)), None, f"{pointer}/{key}", owner)
    for i, d in enumerate(dims):
        if len(value) not in (1, d):
            raise SchemaViolation(
                f"{pointer}/{key}",
                f"{owner}: {key} needs 1 or {d} entries at dimension {d} (/dims/{i}), "
                f"not {len(value)}",
            )


def _check_params(entry, params, pointer, dims):
    """Reject params that lack a key the catalog entry requires, or hold a
    value of the wrong type under a typed key, at the key's JSON pointer:
    its top-level params, then the keys its rules require by mode and in
    nested objects."""
    if not isinstance(params, dict):
        raise SchemaViolation(pointer, "params must be an object")
    for rule in (catalog.ParamRule(keys=entry.params),) + entry.rules:
        obj, at = params, pointer
        if rule.path:
            obj, at = params.get(rule.path), f"{pointer}/{rule.path}"
            if obj is None:
                continue
            if not isinstance(obj, dict):
                raise SchemaViolation(at, f"{entry.id} needs an object here")
        for key in rule.required(obj):
            if key not in obj:
                raise SchemaViolation(f"{at}/{key}", f"{entry.id} requires {key}")
        _check_numbers(obj, rule.numbers, at, entry.id)
        for key in rule.vectors:
            if key in obj:
                _check_vector(obj, key, at, entry.id, dims)
        if rule.entry_key is not None:
            name = obj[rule.entry_key]
            nested = catalog.CATALOG.get(name) if isinstance(name, str) else None
            if nested is None:
                raise UnknownInequalityId(str(name))
            missing = sorted(set(nested.specs) - {"measure"})
            if missing:
                raise SchemaViolation(
                    f"{at}/{rule.entry_key}",
                    f"{name} needs a {missing[0]} spec; {entry.id} passes it a measure only",
                )
            rest = {k: v for k, v in obj.items() if k != rule.entry_key}
            _check_params(nested, rest, at, dims)


def _instance_params(config: ExperimentConfig, d: int) -> dict:
    params = dict(config.params)
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


def _cmd_ricci(args):
    x = np.asarray(args.point, dtype=float)
    d = x.size
    fam = json.loads(args.family)
    mspec = json.loads(args.measure) if args.measure else {"kind": "gaussian"}
    mu = measures.from_spec(mspec, d)
    kind = fam.get("type", "euclidean")
    n_param = math.inf
    if kind == "conformal_radial":
        n_param = fam.get("N", math.inf)
        data = families.ConformalMetricData.radial(fam["theta"], fam.get("eps", 1e-6))
        closed = families.conformal_ricci_N(data, mu.potential, n_param, x)
        metric = fields.conformal_metric(data.phi, d)
    elif kind == "euclidean":
        closed = mu.potential.hessian(x)
        metric = fields.euclidean_metric(d)
    else:
        data = families.ProductMetricData.from_family(fam, d)
        closed = families.product_ricci(data, mu.potential, x)
        metric = data.metric_field()
    cp = tensor_core.generalized_ricci(metric, mu.potential, x, n_param=n_param)
    out = {
        "point": x.tolist(),
        "closed_form": np.asarray(closed).tolist(),
        "finite_difference": cp.ric_gmu_n.tolist(),
        "max_abs_disagreement": float(np.abs(closed - cp.ric_gmu_n).max()),
    }
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


_POTENTIALS_1D = {
    "uniform": lambda p: (lambda t: 0.0),
    "gaussian": lambda p: (lambda t: 0.5 * t * t / p.get("sigma", 1.0) ** 2),
    "exp": lambda p: (lambda t: p.get("rate", 1.0) * t),
    "power": lambda p: (lambda t: p.get("c", 1.0) * abs(t) ** p.get("q", 2.0)),
}


def _cmd_spectrum(args):
    spec = json.loads(args.potential)
    kind = spec.get("kind", "uniform")
    if kind not in _POTENTIALS_1D:
        raise SchemaViolation("/potential/kind", f"unknown potential {kind!r}")
    pot = _POTENTIALS_1D[kind](spec)
    lam, cp = engine.spectral_gap_1d(pot, (args.a, args.b), n=args.n)
    json.dump({"lambda_1": lam, "poincare_constant": cp}, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_transport(args):
    mu = measures.from_spec(json.loads(args.mu), 1).coord_densities[0]
    nu = measures.from_spec(json.loads(args.nu), 1).coord_densities[0]
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
    p.add_argument("--measure", default=None, help="measure spec JSON")
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
