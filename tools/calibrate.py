"""Standard-error calibration of the rows the benchmark checks against a
closed form.

    python3 tools/calibrate.py > CALIBRATION.json

Run from anywhere in a source checkout; the program is imported from `src/`
and the benchmark's documents from `bench/`.  The rows are those that
`bench/workloads.py` `_x1_variance_oracle` names: the x1 LHS of each smoke
document (n = 5e4) and each sweep document and dimension (n = 4000) whose
Var(x1) is known in closed form.  Each row is estimated at seeds 0-399 twice:

* on the lattice path, the point set and block size `engine.sample_points`
  gives a check (a randomized lattice on product measures, i.i.d. points on
  any other), which is what `riccikit check` reports;
* on the i.i.d. path, `engine.sample_measure`'s points with blocks of one.

For each path it records the z-scores (estimate - closed form) / SE: their
SD, their mean, the share beyond 3 and beyond 4, and the largest |z|.  On a
measure that is not a product both paths draw the same points, so they are
run once.  A calibrated SE gives an SD near 1 and shares near 0.27% and
0.006%.  Needs numpy only; it takes about 40 s on one core of a 2-core
Xeon.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from riccikit import catalog, cli, engine  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(400)


def _documents():
    """(workload, label, document) for every benchmark document with a
    closed-form row, at the workloads' own budgets."""
    for doc in cli.load_bundled("paper-smoke"):
        yield "smoke", doc["inequality"], doc
    for i, (ineq, extra, dims) in enumerate(workloads.SWEEP_DOCS):
        for d in dims:
            doc = {"suite": "sweep", "inequality": ineq, "dims": [d],
                   "samples": workloads.SWEEP_SAMPLES, **extra}
            yield "sweep", f"{i:02d}:{ineq}:d={d}", doc


def _estimate(inst, f, n, seed, lattice):
    """The row's LHS and SE on one path, as `engine.check_inequality` forms
    it."""
    if lattice:
        pts, block = engine.sample_points(inst.measure, n, seed)
    else:
        pts, block = engine.sample_measure(inst.measure, n, seed), 1
    if inst.lipschitz_only:
        f = engine.lipschitz_normalize(f, pts[:4096])
    return engine.estimate_lhs(inst, f, pts, block=block)


def _z_summary(inst, f, n, expected, lattice):
    z = []
    for seed in SEEDS:
        est, err = _estimate(inst, f, n, seed, lattice)
        z.append((est - expected) / err)
    z = np.asarray(z)
    return {"z_sd": float(z.std(ddof=1)), "mean_z": float(z.mean()),
            "share_abs_z_gt_3": float(np.mean(np.abs(z) > 3.0)),
            "share_abs_z_gt_4": float(np.mean(np.abs(z) > 4.0)),
            "max_abs_z": float(np.abs(z).max())}


def calibrate_row(workload, label, doc):
    function, expected = workloads._x1_variance_oracle(doc)
    config = cli.parse_config({**doc, "seed": 0})
    (d,) = config.dims
    inst = catalog.instantiate(config.inequality, cli._instance_params(config, d))
    (f,) = [f for f in engine.default_suite(d) if f.id == function.removesuffix("/L")]
    n = config.samples
    # the lattice path is the checker's: its row at seed 0 is the estimate here
    (row,) = engine.check_inequality(inst, functions=[f], budget=n, seed=0).rows
    if (row.lhs, row.lhs_err) != _estimate(inst, f, n, 0, True):
        raise RuntimeError(f"{label}: the lattice path does not reproduce the checker's row")
    product = inst.measure.coord_densities is not None
    paths = {"lattice": _z_summary(inst, f, n, expected, True)}
    paths["iid"] = _z_summary(inst, f, n, expected, False) if product else paths["lattice"]
    return {"workload": workload, "document": label, "inequality": config.inequality,
            "dim": d, "function": function, "n": row.n, "budget": n,
            "expected": expected, "product_measure": product, **paths}


def main():
    rows = []
    for workload, label, doc in _documents():
        if workloads._x1_variance_oracle(doc) is None:
            continue
        t = time.perf_counter()
        rows.append(calibrate_row(workload, label, doc))
        r = rows[-1]
        print(f"{workload} {label}: lattice z SD {r['lattice']['z_sd']:.3f}, "
              f"iid z SD {r['iid']['z_sd']:.3f} ({time.perf_counter() - t:.1f} s)",
              file=sys.stderr)
    lattice = [r["lattice"] for r in rows]
    out = {
        "seeds": len(SEEDS),
        "rows": rows,
        "summary": {
            "rows": len(rows),
            "lattice_rows_outside_0.85_1.15": sum(
                not 0.85 <= s["z_sd"] <= 1.15 for s in lattice),
            "iid_rows_outside_0.85_1.15": sum(
                not 0.85 <= r["iid"]["z_sd"] <= 1.15 for r in rows),
            "lattice_max_abs_z": max(s["max_abs_z"] for s in lattice),
            "iid_max_abs_z": max(r["iid"]["max_abs_z"] for r in rows),
        },
    }
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
