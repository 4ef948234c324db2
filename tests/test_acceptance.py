"""Acceptance suite: every explicit-constant inequality holds numerically,
closed forms match independent oracles, and the known equality/sharpness
cases are reproduced.  One printed pass/fail line per criterion."""

import math
import time

import numpy as np
from scipy import interpolate

from riccikit import (
    catalog as cat,
    cli,
    engine as eng,
    families as fam,
    fields,
    measures as ms,
    tensor_core as tc,
    transport as tr,
)
from riccikit.bodies import Ball, Simplex

from conftest import logcosh_phi

SEED = 20250810


def _announce(num, ok, detail=""):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _all_pass(report):
    bad = [r for r in report.rows if r.status not in ("pass", "report-only")]
    return not bad, bad


# ---------------------------------------------------------------------------


def test_criterion_01_closed_form_oracle_agreement():
    """Closed-form generalized Ricci vs the finite-difference pipeline."""
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0

    # Hessian family, d in {1, 2, 3}
    for d in (1, 2, 3):
        phi = logcosh_phi(d, alpha=0.4)
        w = fields.quadratic_potential(
            np.eye(d) + 0.2 * np.ones((d, d)), center=0.1 * np.ones(d)
        )
        data = fam.HessianMetricData.from_transport_pair(phi, w, d)
        metric = fields.hessian_metric(phi, d)
        for _ in range(100):
            x = rng.uniform(-1.0, 1.0, d)
            closed = fam.hessian_ricci(data, x)
            cp = tc.generalized_ricci(metric, data.v, x)
            worst = max(worst, float(np.abs(closed - cp.ric_gmu).max()))

    # product family, d in {2, 4}
    for d in (2, 4):
        p = 0.5
        pdata = fam.ProductMetricData.power(p, d)
        v = fields.quadratic_potential(np.eye(d), center=-2.0 * np.ones(d))
        metric = fields.power_product_metric(p, d)
        for _ in range(100):
            x = rng.uniform(0.5, 2.0, d)
            closed = fam.product_ricci(pdata, v, x)
            cp = tc.generalized_ricci(metric, v, x)
            worst = max(worst, float(np.abs(closed - cp.ric_gmu).max()))

    # conformal radial family, d in {3, 6}
    for d in (3, 6):
        data = fam.ConformalMetricData.radial(0.8, 1e-6, d)
        v = fields.gaussian_potential(d)
        metric = fields.conformal_metric(data.phi, d)
        for _ in range(100):
            x = rng.uniform(0.45, 0.95, d) * rng.choice([-1.0, 1.0], d)
            closed = fam.conformal_ricci_N(data, v, math.inf, x)
            cp = tc.generalized_ricci(metric, v, x)
            worst = max(worst, float(np.abs(closed - cp.ric_gmu).max()))

    elapsed = time.time() - t0
    _announce(1, worst < 1e-4 and elapsed < 30.0,
              f"(max err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_product_metric_flatness():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for metric in (
        fields.power_product_metric(0.5, 3),
        fam.ProductMetricData.exponential([1.0, 0.7, 1.3]).metric_field(),
    ):
        for _ in range(100):
            x = rng.uniform(0.4, 1.8, 3)
            worst = max(worst, float(np.abs(tc.geometric_ricci_fd(metric, x)).max()))
    _announce(2, worst < 1e-4, f"(sup |Ric_g| = {worst:.2e})")


def test_criterion_03_ricq_identity_and_ratio():
    worst = 0.0
    grid = np.linspace(0.25, 3.0, 50)
    for q in (1.2, 1.5, 2.0, 3.0):
        for c in (0.5, 1.0, 2.0):
            v = fields.power_potential(c, q, dim=1)
            for x in grid:
                want = c * q * q / 2 * x ** (q - 2) + q * (2 - q) / 4 * x**-2
                got = fam.ric_1d_exact(v, [x])
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    ratio_ok = True
    for q in (1.2, 1.5, 2.0):
        v = fields.power_potential(1.0, q, dim=1)
        bound = q / (2 * (q - 1))
        for x in np.geomspace(0.2, 100.0, 60):
            if fam.ric_1d_exact(v, [x]) / v.hessian([x])[0, 0] < bound - 1e-9:
                ratio_ok = False
    _announce(3, worst < 1e-10 and ratio_ok, f"(max rel err {worst:.2e})")


def test_criterion_04_product_measure_constants():
    t0 = time.time()
    reports = []
    for d in (1, 2, 4):
        for mu in (ms.exp_product(d), ms.trunc_gaussian_orthant(d, 1.0)):
            inst = cat.instantiate("poly_product", {"measure": mu, "part": 2})
            reports.append(eng.check_inequality(inst, budget=200000, seed=SEED))
        inst = cat.instantiate(
            "poly_product", {"measure": ms.exp_product(d), "part": 3, "lam": 1.0}
        )
        reports.append(eng.check_inequality(inst, budget=200000, seed=SEED))
    for p in (0.5, 0.75):
        inst4 = cat.instantiate(
            "poly_product",
            {"measure": ms.trunc_gaussian_orthant(2, 1.0), "part": 4, "p": p,
             "R": 1.0},
        )
        reports.append(eng.check_inequality(inst4, budget=200000, seed=SEED))
        inst5 = cat.instantiate(
            "poly_product",
            {"measure": ms.exp_product(2), "part": 5, "p": p, "lam": 1.0},
        )
        reports.append(eng.check_inequality(inst5, budget=200000, seed=SEED))
    ok = True
    detail = []
    for rep in reports:
        good, bad = _all_pass(rep)
        ok = ok and good
        detail.extend(f"{r.inequality}/{r.function}" for r in bad)
    elapsed = time.time() - t0
    _announce(4, ok and elapsed < 300.0,
              f"({sum(len(r.rows) for r in reports)} rows, {elapsed:.0f}s"
              + (f", failed: {detail}" if detail else "") + ")")


def test_criterion_05_exp_product_corollary():
    ok = True
    for d in (2, 4):
        mu = ms.exp_quad_orthant(d, lam=1.0, beta=0.5)
        inst = cat.instantiate("exp_product", {"measure": mu, "lam": 1.0})
        rep = eng.check_inequality(inst, budget=200000, seed=SEED)
        good, bad = _all_pass(rep)
        ok = ok and good
    _announce(5, ok)


def test_criterion_06_cone_variance_simplex():
    ok = True
    dirichlet_checked = False
    for d in (4, 6):
        inst = cat.instantiate("cone_variance", {"body": Simplex(d)})
        rep = eng.check_inequality(inst, budget=200000, seed=SEED)
        good, bad = _all_pass(rep)
        ok = ok and good
        if d == 4:
            row = [r for r in rep.rows if r.function == "x1/L"][0]
            # Dirichlet(1,1,1,1) marginal variance oracle
            oracle = (1.0 / d) * (1.0 - 1.0 / d) / (d + 1.0)
            dirichlet_checked = abs(row.lhs - oracle) < 4.0 * row.lhs_err
    _announce(6, ok and dirichlet_checked)


def test_criterion_07_hardy_boundary_balls():
    ok = True
    failed = []
    for d in (6, 8):
        for r0 in (1.0, 2.0):
            for n_param in (0.0, -1.0, -float(d)):
                inst = cat.instantiate(
                    "hardy_boundary", {"body": Ball(d, r0), "N": n_param}
                )
                rep = eng.check_inequality(inst, budget=100000, seed=SEED)
                good, bad = _all_pass(rep)
                if not good:
                    failed.extend(
                        f"d={d},R={r0},N={n_param}:{r.function}" for r in bad
                    )
                ok = ok and good

    # N = 0 instance is term-by-term the closed Hardy-with-boundary form
    a = cat.instantiate("hardy_boundary", {"body": Ball(6), "N": 0.0})
    rng = np.random.default_rng(SEED)
    sphere = Ball(6).sample_boundary(128, rng)
    inner = 0.5 * sphere
    xn = np.einsum("ni,ni->n", sphere, sphere / np.linalg.norm(sphere, axis=1,
                                                               keepdims=True))
    want_boundary = 2.0 * np.einsum("ni,ni->n", sphere, sphere) / (6.0 * xn)
    got_boundary = a.boundary.weight(sphere)
    winterior = a.rhs_weight.values(inner)
    want_interior = (4.0 / 36.0) * np.einsum("ni,ni->n", inner, inner)
    term_ok = (
        np.abs(got_boundary - want_boundary).max() < 1e-10
        and max(
            np.abs(winterior[k] - want_interior[k] * np.eye(6)).max()
            for k in range(len(inner))
        )
        < 1e-10
        and a.lhs_scale == 1.0
        and a.rhs_constant == 1.0
    )
    _announce(7, ok and term_ok, f"failed: {failed}" if failed else "")


def test_criterion_08_strong_boundary_ball():
    ok = True
    ratio_ok = True
    for d in (8, 10):
        for mode in ("variance", "entropy"):
            inst = cat.instantiate(
                "strong_boundary", {"body": Ball(d), "theta": 0.5, "mode": mode}
            )
            rep = eng.check_inequality(inst, budget=200000, seed=SEED)
            good, bad = _all_pass(rep)
            ok = ok and good
            if mode == "variance":
                row = [r for r in rep.rows if r.function == "x1"][0]
                # Var(x_1) = R^2/(d+2); RHS = (4/d) E|x|^2 = 4/(d+2): ratio 1/4
                ratio = row.lhs / row.rhs
                se = ratio * (row.lhs_err / row.lhs + row.rhs_err / row.rhs)
                if abs(ratio - 0.25) > 4.0 * se + 1e-3:
                    ratio_ok = False
    _announce(8, ok and ratio_ok)


def _seeded_1d_logconcave(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.6, 1.5)
    b = rng.uniform(0.0, 0.8)
    c = rng.uniform(-0.5, 0.5)
    dens = tr.Density1D(
        lambda t: 0.5 * a * t * t + b * np.log(np.cosh(t - c)),
        (-np.inf, np.inf),
        name=f"lc{seed}",
    )
    d1 = lambda t: a * t + b * np.tanh(t - c)
    d2 = lambda t: a + b / np.cosh(t - c) ** 2
    return ms.density_1d(dens, d1=d1, d2=d2)


def test_criterion_09_refined_dominance():
    ok = True
    worst = -math.inf
    for k in range(5):
        mu = _seeded_1d_logconcave(1000 + k)
        nu = _seeded_1d_logconcave(2000 + k)
        refined = cat.instantiate("refined_bl", {"measure": mu, "target": nu})
        classical = cat.instantiate("classical_bl", {"measure": mu})
        samples = eng.sample_measure(mu, 50000, SEED + k)
        for f in eng.default_suite(1, seed=SEED):
            r_rhs, _ = eng.estimate_rhs(refined, f, samples)
            c_rhs, _ = eng.estimate_rhs(classical, f, samples)
            gap = r_rhs - 2.0 * c_rhs
            worst = max(worst, gap)
            ok = ok and gap <= 1e-8
        # negative-dimension weight dominance at sample points
        g = mu.potential.gradient(samples)
        h = mu.potential.hessian(samples)
        combo = h + np.einsum("ni,nj->nij", g, g) / 2.0
        ok = ok and bool(np.linalg.eigvalsh(combo - h)[:, 0].min() > -1e-15)
    _announce(9, ok, f"(max RHS gap over 2x classical: {worst:.2e})")


def test_criterion_10_ke_and_compact_support():
    ok = True
    detail = []
    for name, mu_spec in (
        ("uniform", ms.uniform_interval(-0.5, 0.5)),
        ("cos", ms.cos_interval(0.5)),
    ):
        sol = tr.ke_solve_1d(mu_spec.coord_densities[0])
        mask = sol.interior_mask(1e-4, 1 - 1e-4)
        r_max = max(abs(s) for s in mu_spec.coord_densities[0].support)
        trace_ok = sol.second_derivative()[mask].max() <= 2.0 * r_max**2 + 1e-10
        res_ok = sol.residual_sup < 1e-8
        inst = cat.instantiate("compact_bl", {"measure": mu_spec})
        rep = eng.check_inequality(inst, budget=100000, seed=SEED)
        good, bad = _all_pass(rep)
        pw = cat.instantiate("payne_weinberger", {"measure": mu_spec})
        rep_pw = eng.check_inequality(pw, budget=100000, seed=SEED)
        good_pw, _ = _all_pass(rep_pw)
        ratios = [r.lhs / r.rhs for r in rep_pw.rows if r.rhs > 0]
        detail.append(f"{name}: PW ratio in [{min(ratios):.3f}, {max(ratios):.3f}]")
        ok = ok and trace_ok and res_ok and good and good_pw
    _announce(10, ok, "; ".join(detail))


def test_criterion_11_entropic_criteria():
    ok = True
    failed = []
    for q in (1.2, 1.5, 2.0):
        for d in (1, 2):
            inst = cat.instantiate("muq_lsi", {"measure": ms.power_product(d, q)})
            rep = eng.check_inequality(inst, budget=200000, seed=SEED)
            good, bad = _all_pass(rep)
            if not good:
                failed.extend(f"muq q={q} d={d}: {r.function}" for r in bad)
            ok = ok and good
    # change-of-variables (Gamma image) form
    inst = cat.instantiate("bakry_t_lsi", {"q": 1.5, "dim": 2})
    rep = eng.check_inequality(inst, budget=200000, seed=SEED)
    good, bad = _all_pass(rep)
    ok = ok and good
    # the q > 2 construction with the bisected level
    inst = cat.instantiate("qgt2_lsi", {"q": 3.0})
    rho_ok = inst.params["rho_q"] > 0
    rep = eng.check_inequality(inst, budget=200000, seed=SEED)
    good, bad = _all_pass(rep)
    if not good:
        failed.extend(f"qgt2: {r.function}" for r in bad)
    _announce(11, ok and rho_ok and good,
              f"(rho_3 = {inst.params['rho_q']:.4f}"
              + (f"; failed {failed}" if failed else "") + ")")


def test_criterion_12_klartag_transfer():
    ok = True
    for d in (2, 3):
        for mu in (ms.laplace_product(d), ms.trunc_gaussian_sym(d, 1.5)):
            inst = cat.instantiate("klartag_transfer", {"measure": mu})
            rep = eng.check_inequality(inst, budget=200000, seed=SEED)
            good, bad = _all_pass(rep)
            ok = ok and good
    _announce(12, ok)


def test_criterion_13_oracles():
    lam_u, _ = eng.spectral_gap_1d(lambda t: 0.0, (0.0, 1.0), n=4096)
    lam_g, _ = eng.spectral_gap_1d(lambda t: 0.5 * t * t, (-8.0, 8.0), n=4096)
    gap_ok = abs(lam_u - math.pi**2) < 1e-4 and abs(lam_g - 1.0) < 1e-4

    v = fields.PotentialField(
        fn=lambda x: math.cosh(x[0]),
        grad=lambda x: np.array([math.sinh(x[0])]),
        hess=lambda x: np.array([[math.cosh(x[0])]]),
    )
    ld = tr.legendre_1d(v, np.linspace(-4.0, 4.0, 2001))
    spl = interpolate.CubicSpline(ld.y_grid, ld.vstar)
    vstar = fields.PotentialField(
        fn=lambda y: float(spl(y[0])),
        grad=lambda y: np.array([float(spl(y[0], 1))]),
        hess=lambda y: np.array([[float(spl(y[0], 2))]]),
    )
    ld2 = tr.legendre_1d(vstar, ld.y_grid)
    inv_err = max(
        abs(ld2.conjugate_value(x) - math.cosh(x))
        for x in np.linspace(-2.5, 2.5, 41)
    )

    mu, nu = tr.exponential_density(), tr.uniform_density(0.0, 1.0)
    phi = tr.transport_potential_1d(mu, nu)
    vpot, wpot = mu.potential_field(), nu.potential_field()
    ma_err = max(
        abs(tr.monge_ampere_residual(phi, vpot, wpot, [mu.ppf(u)]))
        for u in np.linspace(0.05, 0.95, 19)
    )
    _announce(
        13,
        gap_ok and inv_err < 1e-6 and ma_err < 1e-6,
        f"(gaps {abs(lam_u - math.pi ** 2):.1e}/{abs(lam_g - 1):.1e}, "
        f"involution {inv_err:.1e}, MA {ma_err:.1e})",
    )


def test_criterion_14_report_only_trends():
    ratios = {}
    onelip = {}
    for d in range(3, 11):
        inst = cat.instantiate("l1_type", {"body": Simplex(d)})
        rep = eng.check_inequality(inst, budget=50000, seed=SEED)
        att = rep.attachments[f"l1_type:d={d}"]
        ratios[d] = att["fitted_ratio"]
        inst2 = cat.instantiate("one_lip_reduction", {"body": Simplex(d)})
        rep2 = eng.check_inequality(inst2, budget=50000, seed=SEED)
        onelip[d] = rep2.attachments[f"one_lip_reduction:d={d}"]["fitted_ratio"]
    vals = np.array(list(ratios.values()))
    lip_vals = np.array(list(onelip.values()))
    bounded = (
        np.isfinite(vals).all()
        and np.isfinite(lip_vals).all()
        and vals.max() / vals.min() < 10.0
    )
    print("  Thm 5.8 fitted ratios:", {d: round(v, 4) for d, v in ratios.items()})
    print("  one-Lip reduction ratios:", {d: round(v, 4) for d, v in onelip.items()})
    _announce(14, bool(bounded))


def test_criterion_15_determinism_and_runtime():
    t0 = time.time()
    docs = cli.load_bundled("paper-smoke")
    outs = []
    for _ in range(2):
        outs.append(cli.report_to_csv(cli.run_documents(docs)))
    elapsed = time.time() - t0
    identical = outs[0] == outs[1]
    statuses = [line.split(",")[9] for line in outs[0].splitlines()[1:]]
    all_ok = all(s in ("pass", "report-only") for s in statuses)
    _announce(
        15,
        identical and all_ok and elapsed < 1200.0,
        f"(two full smoke runs in {elapsed:.0f}s, bit-identical: {identical})",
    )
