"""The benchmark's three workloads and the checks on their outputs.

A workload is a list of operations built from the seed.  One round runs
every operation once, in order, then the workload's closing step (CSV
emission for the two suite workloads).  Every round of a run repeats the same
operations on the same inputs, so outputs must repeat bit for bit.

* smoke   - the bundled `paper-smoke` suite on the `riccikit check` path;
            one operation per document, n = 5e4.
* sweep   - a parameter study: every catalog entry over dimensions 1 to 12
            and the measure and body kinds it supports, n = 4000; one
            operation per (document, dimension), plus the seed-reach check.
* oracles - the deterministic solvers behind `riccikit spectrum`, `ricci`
            and `transport` and the Kahler-Einstein fixed point, each
            checked against a closed form; no sampling.
"""

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from riccikit import cli, engine, families, fields, measures, tensor_core, transport

SWEEP_SAMPLES = 4000
# The seed-reach operation compares two fixed seeds, so its outcome does not
# depend on the workload seed.
SEED_REACH_SEEDS = (1, 2)
# A closed-form row passes when |lhs - oracle| <= Z_CLOSED_FORM * lhs_err.
Z_CLOSED_FORM = 4.0


class OpFailed(Exception):
    """An operation ended without a verdict: an error row, or a property the
    operation exists to exercise did not hold."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Optional[Callable[[object], List[str]]] = None


@dataclass
class Workload:
    name: str
    ops: List[Op]
    finish: Callable[[list], object] = lambda outputs: None
    check_final: Callable[[object], List[str]] = lambda final: []
    # labels re-run once after the timed rounds; their outputs must repeat
    recheck: List[str] = field(default_factory=list)
    # median relative standard error of the constant-known rows, or None
    # when the workload has no Monte Carlo rows
    rel_err: Callable[[object], Optional[float]] = lambda final: None

    def __post_init__(self):
        unknown = set(self.recheck) - {op.label for op in self.ops}
        if unknown:
            raise ValueError(f"{self.name}: no operations named {sorted(unknown)}")


# ---------------------------------------------------------------------------
# suite workloads (smoke, sweep)
# ---------------------------------------------------------------------------


def _suite_op(label, doc):
    """One `riccikit check` document: parse, instantiate, estimate."""

    def run():
        report = cli.run_suite(cli.parse_config(doc))
        if any(r.status == "error" for r in report.rows):
            raise OpFailed("; ".join(
                f"{k}: {v}" for k, v in report.attachments.items()
                if k.endswith(":error")))
        return report

    oracle = _x1_variance_oracle(doc)
    return Op(label, run, None if oracle is None else _closed_form_check(*oracle))


def _x1_variance_oracle(doc):
    """(function id, expected lhs) for rows whose LHS has a closed form.

    Only the x1 row of each (document, dimension) is checked.  A two-sided
    4-sigma rule misfires on a row with probability about 6.3e-5: near 1% over
    twenty seeds for smoke (8 checked rows), about 4% for sweep (31 rows).
    """
    ineq, (d,) = doc["inequality"], doc["dims"]
    measure = doc.get("measure") or {}
    body = doc.get("body") or {}
    params = doc.get("params", {})
    if measure.get("kind") == "gaussian" and ineq in ("classical_bl", "negdim_bl"):
        return "x1", measure.get("sigma", 1.0) ** 2
    if measure.get("kind") == "uniform_interval" and ineq in ("compact_bl",
                                                              "payne_weinberger"):
        return "x1", (measure.get("b", 0.5) - measure.get("a", -0.5)) ** 2 / 12.0
    if body.get("kind") == "simplex" and ineq == "cone_variance":
        # Dirichlet(1, ..., 1) marginal variance
        return "x1/L", (1.0 / d) * (1.0 - 1.0 / d) / (d + 1.0)
    if body.get("kind") == "ball":
        # uniform on a ball of radius R: Var(x1) = R^2/(d+2), times lhs_scale
        n_param = params.get("N", 0.0)
        scale = {
            "strong_boundary": 1.0 if params.get("mode", "variance") == "variance"
            else None,
            "hardy_n0": 1.0,
            "hardy_boundary": 1.0 / (1.0 - n_param),
            "dim_bl_boundary": n_param / (n_param - 1.0)
            if params.get("part", 1) in (1, 2) else None,
        }.get(ineq)
        if scale is not None:
            return "x1", scale * body.get("radius", 1.0) ** 2 / (d + 2.0)
    return None


def _closed_form_check(function, expected):
    def check(report):
        rows = [r for r in report.rows if r.function == function]
        if len(rows) != 1:
            return [f"expected one {function} row, found {len(rows)}"]
        r = rows[0]
        if not abs(r.lhs - expected) <= Z_CLOSED_FORM * r.lhs_err:
            return [f"{r.inequality} d={r.dim} {function}: lhs {r.lhs!r} is "
                    f"{abs(r.lhs - expected) / r.lhs_err:.1f} SE from {expected!r}"]
        return []

    return check


def _emit_csv(outputs):
    report = engine.VerificationReport()
    for out in outputs:
        if isinstance(out, engine.VerificationReport):
            report.extend(out)
    return cli.report_to_csv(report), cli.exit_code_for(report)


def _check_csv(final):
    text, code = final
    problems = [] if code == 0 else [f"exit code {code}"]
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != cli.CSV_COLUMNS:
        return problems + [f"CSV columns {reader.fieldnames}"]
    for row in reader:
        where = f"{row['inequality']} d={row['dim']} {row['function']}"
        if row["status"] not in ("pass", "report-only"):
            problems.append(f"{where}: status {row['status']}")
        cols = ("lhs", "lhs_err", "rhs", "slack")
        if row["status"] == "pass":
            cols += ("rhs_err",)
        if not all(math.isfinite(float(row[c])) for c in cols):
            problems.append(f"{where}: non-finite value")
    return problems


def _median_rel_err(final):
    """Median over constant-known rows of hypot(lhs_err, rhs_err) / |rhs|.

    Rows of the random cubics `poly3_*` are left out: the seed draws those
    test functions, so their errors move with the seed, not with the program.
    """
    rows = csv.DictReader(io.StringIO(final[0]))
    rel = [math.hypot(float(r["lhs_err"]), float(r["rhs_err"])) / abs(float(r["rhs"]))
           for r in rows
           if r["status"] in ("pass", "fail") and not r["function"].startswith("poly3_")]
    return float(np.median(rel))


def smoke(seed):
    docs = [{**doc, "seed": seed} for doc in cli.load_bundled("paper-smoke")]
    return Workload(
        name="smoke",
        ops=[_suite_op(doc["inequality"], doc) for doc in docs],
        finish=_emit_csv,
        check_final=_check_csv,
        recheck=["payne_weinberger", "cone_variance"],
        rel_err=_median_rel_err,
    )


_POWER = {"family": {"type": "product_power", "p": 0.5}}

# (inequality, config fields, dimensions): each supported measure or body
# kind of each catalog entry, over the dimensions its theorem admits.
SWEEP_DOCS = [
    ("classical_bl", {"measure": {"kind": "gaussian"}}, [1, 2, 4, 8, 12]),
    ("classical_bl", {"measure": {"kind": "exp_quad_orthant", "lam": 1.0, "beta": 0.5}},
     [2, 6]),
    ("generalized_bl", {"measure": {"kind": "exp_product"}, "params": _POWER},
     [1, 2, 4, 8]),
    ("generalized_bl", {"measure": {"kind": "exp_product"},
                        "params": {"family": {"type": "product_exp", "lam": 0.5}}},
     [2, 6]),
    ("refined_bl", {"measure": {"kind": "gaussian"},
                    "target": {"kind": "gaussian", "sigma": 1.2}}, [1]),
    ("negdim_bl", {"measure": {"kind": "gaussian"}}, [1, 2, 4, 8, 12]),
    ("compact_bl", {"measure": {"kind": "uniform_interval"}}, [1]),
    ("compact_bl", {"measure": {"kind": "cos_interval"}}, [1]),
    ("payne_weinberger", {"measure": {"kind": "uniform_interval"}}, [1]),
    ("payne_weinberger", {"measure": {"kind": "cos_interval"}}, [1]),
    ("bakry_emery_lsi", {"measure": {"kind": "exp_product"},
                         "params": {**_POWER, "rho": 0.5}}, [1, 2, 4, 8]),
    ("entropic_bl", {"measure": {"kind": "gaussian"}}, [1]),
    ("muq_lsi", {"measure": {"kind": "power_product", "q": 1.5}}, [1, 2, 4, 8]),
    ("bakry_t_lsi", {"params": {"q": 1.5}}, [1, 2, 4, 8]),
    ("qgt2_lsi", {"params": {"q": 3.0, "potential": "modified"}}, [1]),
    ("poly_product", {"measure": {"kind": "exp_product"}, "params": {"part": 2}},
     [1, 2, 4, 8, 12]),
    ("poly_product", {"measure": {"kind": "exp_product"},
                      "params": {"part": 3, "lam": 1.0}}, [2, 4]),
    ("poly_product", {"measure": {"kind": "trunc_gaussian_orthant"},
                      "params": {"part": 2}}, [2, 4]),
    ("exp_product", {"measure": {"kind": "exp_quad_orthant", "lam": 1.0, "beta": 0.5},
                     "params": {"mode": "corollary", "lam": 1.0}}, [2, 4, 8]),
    ("klartag_transfer", {"measure": {"kind": "laplace_product"}}, [2, 3, 4]),
    ("klartag_transfer", {"measure": {"kind": "trunc_gaussian_sym"}}, [2, 3]),
    ("cone_variance", {"body": {"kind": "simplex"}}, [3, 4, 6, 8, 12]),
    ("l1_type", {"body": {"kind": "simplex"}}, [3, 4, 6, 8, 12]),
    ("l1_type", {"body": {"kind": "lp", "p": 3.0}}, [3]),
    ("dim_bl_boundary", {"body": {"kind": "ball"}, "params": {"N": -8.0, "part": 1}},
     [4, 6, 8, 12]),
    ("dim_bl_boundary", {"body": {"kind": "ball"}, "params": {"N": -8.0, "part": 2}},
     [6]),
    ("dim_bl_boundary", {"body": {"kind": "ball"}, "params": {"N": -8.0, "part": 3}},
     [6]),
    ("hardy_boundary", {"body": {"kind": "ball"}, "params": {"N": -1.0}}, [6, 8, 12]),
    ("hardy_dirichlet", {"body": {"kind": "ball"}}, [2, 4, 6, 8, 12]),
    ("hardy_dirichlet", {"body": {"kind": "lp", "p": 3.0}}, [2, 4]),
    ("hardy_dirichlet", {"body": {"kind": "simplex"}}, [3]),
    ("hardy_n0", {"body": {"kind": "ball"}}, [6, 8, 12]),
    ("strong_boundary", {"body": {"kind": "ball"}, "params": {"theta": 0.5}},
     [8, 10, 12]),
    ("one_lip_reduction", {"body": {"kind": "simplex"}}, [3, 6]),
    ("one_lip_reduction", {"body": {"kind": "ball"}}, [2, 6]),
    ("one_lip_reduction", {"body": {"kind": "lp", "p": 3.0}}, [3]),
]


def _seed_reach():
    """cone_variance on a simplex at two seeds must give different digits.

    Only rows of the fixed test functions are compared: the random cubics
    `poly3_*` are drawn from the seed by the test-function suite itself, so
    they differ even when the samples do not."""
    base = {"suite": "seed-reach", "inequality": "cone_variance",
            "body": {"kind": "simplex"}, "dims": [4], "samples": 2000}
    lhs = [[r.lhs for r in cli.run_suite(cli.parse_config({**base, "seed": s})).rows
            if not r.function.startswith("poly3_")]
           for s in SEED_REACH_SEEDS]
    if lhs[0] == lhs[1]:
        raise OpFailed(f"cone_variance rows are identical at seeds {SEED_REACH_SEEDS}: "
                       "the seed does not reach the cone-measure sampler")
    return lhs


def sweep(seed):
    ops = []
    for i, (ineq, extra, dims) in enumerate(SWEEP_DOCS):
        for d in dims:
            doc = {"suite": "sweep", "inequality": ineq, "dims": [d],
                   "samples": SWEEP_SAMPLES, "seed": seed, **extra}
            ops.append(_suite_op(f"{i:02d}:{ineq}:d={d}", doc))
    ops.append(Op("seed_reach", _seed_reach))
    return Workload(
        name="sweep",
        ops=ops,
        finish=_emit_csv,
        check_final=_check_csv,
        recheck=["00:classical_bl:d=2", "21:cone_variance:d=4", "27:hardy_boundary:d=6"],
        rel_err=_median_rel_err,
    )


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _within(name, got, want, tol):
    err = abs(got - want)
    return [] if err <= tol else [f"{name}: {got!r} vs {want!r} (error {err:.3e})"]


def _spectrum_op(label, potential, interval, exact):
    def check(out):
        return _within(label, out[0] / exact, 1.0, 1e-4)

    return Op(label, lambda: engine.spectral_gap_1d(potential, interval, n=4096), check)


def _logcosh_phi(d, alpha=0.4):
    """Phi = |x|^2/2 + alpha sum log cosh x_i, analytic through fourth order."""

    def third(x):
        t = np.zeros((d, d, d))
        idx = np.arange(d)
        t[idx, idx, idx] = -2.0 * alpha * np.tanh(x) / np.cosh(x) ** 2
        return t

    def fourth(x):
        t = np.zeros((d, d, d, d))
        idx = np.arange(d)
        t[idx, idx, idx, idx] = alpha * (4.0 * np.sinh(x) ** 2 - 2.0) / np.cosh(x) ** 4
        return t

    return fields.PotentialField(
        fn=lambda x: 0.5 * float(x @ x) + alpha * float(np.sum(np.log(np.cosh(x)))),
        grad=lambda x: x + alpha * np.tanh(x),
        hess=lambda x: np.eye(d) + alpha * np.diag(1.0 / np.cosh(x) ** 2),
        third=third,
        fourth=fourth,
        convex=True,
    )


def _ricci_ops(rng, d, n_points):
    """Closed-form generalized Ricci against the finite-difference pipeline
    for the Hessian, product and conformal families at dimension d."""
    phi = _logcosh_phi(d)
    w = fields.quadratic_potential(np.eye(d) + 0.2 * np.ones((d, d)),
                                   center=0.1 * np.ones(d))
    hdata = families.HessianMetricData.from_transport_pair(phi, w, d)
    hmetric = fields.hessian_metric(phi, d)
    pdata = families.ProductMetricData.power(0.5, d)
    pv = fields.quadratic_potential(np.eye(d), center=-2.0 * np.ones(d))
    pmetric = fields.power_product_metric(0.5, d)
    cdata = families.ConformalMetricData.radial(0.8, 1e-6, d)
    cv = fields.gaussian_potential(d)
    cmetric = fields.conformal_metric(cdata.phi, d)

    cases = [
        ("hessian", lambda x: families.hessian_ricci(hdata, x), hmetric, hdata.v,
         lambda: rng.uniform(-1.0, 1.0, d)),
        ("product", lambda x: families.product_ricci(pdata, pv, x), pmetric, pv,
         lambda: rng.uniform(0.5, 2.0, d)),
        ("conformal", lambda x: families.conformal_ricci_N(cdata, cv, math.inf, x),
         cmetric, cv, lambda: rng.uniform(0.45, 0.95, d) * rng.choice([-1.0, 1.0], d)),
    ]
    ops = []
    for family, closed, metric, v, draw in cases:
        for k in range(n_points):
            label = f"ricci/{family}/d={d}/{k}"
            x = draw()

            def run(closed=closed, metric=metric, v=v, x=x):
                cp = tensor_core.generalized_ricci(metric, v, x)
                return closed(x), cp.ric_gmu, cp.ric_g

            def check(out, label=label, family=family):
                closed_val, fd, ric_g = out
                problems = _within(f"{label} FD vs closed form",
                                   float(np.abs(closed_val - fd).max()), 0.0, 1e-4)
                if family == "product":
                    problems += _within(f"{label} Ric_g", float(np.abs(ric_g).max()),
                                        0.0, 1e-4)
                return problems

            ops.append(Op(label, run, check))
    return ops


def _ke_op(spec):
    label = f"ke/{spec['kind']}"

    def run():
        dens = measures.from_spec(spec, 1).coord_densities[0]
        sol = transport.ke_solve_1d(dens)
        r_max = max(abs(s) for s in dens.support)
        trace = float(sol.second_derivative()[sol.interior_mask(1e-4, 1.0 - 1e-4)].max())
        return sol.iterations, sol.residual_sup, trace, 2.0 * r_max ** 2

    def check(out):
        _, residual, trace, bound = out
        problems = [] if residual < 1e-8 else [f"{label}: residual {residual:.3e}"]
        if not trace <= bound + 1e-10:
            problems.append(f"{label}: max D2 Phi {trace!r} > 2R^2 = {bound!r}")
        return problems

    return Op(label, run, check)


def _transport_op(points):
    """The `riccikit transport` path: exp(1) onto U[0, 1], whose monotone map
    is T(x) = 1 - exp(-x) with T'(x) = exp(-x)."""

    def run():
        mu = measures.from_spec({"kind": "exp_product"}, 1).coord_densities[0]
        nu = measures.from_spec({"kind": "uniform_interval", "a": 0.0, "b": 1.0},
                                1).coord_densities[0]
        phi = transport.transport_potential_1d(mu, nu)
        vpot, wpot = mu.potential_field(), nu.potential_field()
        rows = []
        for x in points:
            t, tp = transport.monotone_map_1d(mu, nu, x)
            rows.append((x, t, tp, transport.monge_ampere_residual(phi, vpot, wpot, [x])))
        return rows

    def check(rows):
        problems = []
        for x, t, tp, res in rows:
            problems += _within(f"T({x!r})", t, 1.0 - math.exp(-x), 1e-8)
            problems += _within(f"T'({x!r})", tp, math.exp(-x), 1e-8)
            problems += _within(f"Monge-Ampere residual at {x!r}", res, 0.0, 1e-6)
        return problems

    return Op("transport/exp->uniform", run, check)


def oracles(seed):
    rng = np.random.default_rng(seed)
    length = float(rng.uniform(0.5, 2.0))
    sigma = float(rng.uniform(0.5, 2.0))
    ops = [
        _spectrum_op(f"spectrum/uniform[0,{length:.3f}]", lambda t: 0.0,
                     (0.0, length), math.pi ** 2 / length ** 2),
        _spectrum_op(f"spectrum/gaussian({sigma:.3f})",
                     lambda t: 0.5 * t * t / sigma ** 2, (-8.0 * sigma, 8.0 * sigma),
                     1.0 / sigma ** 2),
    ]
    for d in (3, 6):
        ops += _ricci_ops(rng, d, n_points=2)
    ops += [_ke_op({"kind": "uniform_interval"}), _ke_op({"kind": "cos_interval"})]
    ops.append(_transport_op([float(x) for x in rng.uniform(0.1, 3.0, 4)]))
    return Workload(name="oracles", ops=ops, recheck=[ops[0].label])


WORKLOADS = {"smoke": smoke, "sweep": sweep, "oracles": oracles}
