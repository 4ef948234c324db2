"""Instantiation of the inequality catalog: weights, constants, hypothesis
checks and the relations the spec pins between catalog entries."""

import numpy as np
import pytest

from riccikit import catalog as cat, engine as eng, families as fam, measures as ms
from riccikit import tensor_core as tc
from riccikit.bodies import Ball, Box, ConeMeasureSampler, Curve2D, LpBall, Simplex
from riccikit.errors import EigensolveFailure, HypothesisViolated, UnknownInequalityId
from riccikit.fields import (
    PotentialField,
    ScalarPlusRankOne,
    as_matrices,
    inverse,
    least_eig,
    quad_form,
)


class TestInstantiate:
    def test_unknown_id(self):
        with pytest.raises(UnknownInequalityId):
            cat.instantiate("no_such_inequality", {})

    def test_poly_part2_weight(self):
        inst = cat.instantiate(
            "poly_product", {"measure": ms.exp_product(2), "part": 2}
        )
        assert inst.rhs_constant == 4.0
        w = inst.rhs_weight.values(np.array([[1.0, 2.0]]))[0]
        assert np.allclose(np.diag(w), [1.0, 4.0])

    def test_hardy_boundary_weight_value(self):
        # unit ball, N = 0, d = 6: boundary weight at |x| = 1 is
        # 1/(d <x,n>/2) = 1/3
        inst = cat.instantiate("hardy_boundary", {"body": Ball(6), "N": 0.0})
        x = np.zeros((1, 6))
        x[0, 0] = 1.0
        assert inst.boundary.weight(x)[0] == pytest.approx(1.0 / 3.0)
        assert inst.lhs_scale == 1.0

    def test_hardy_n0_matches_hardy_boundary_at_zero(self):
        # term-by-term agreement of the two catalog entries at N = 0
        a = cat.instantiate("hardy_boundary", {"body": Ball(6), "N": 0.0})
        b = cat.instantiate("hardy_n0", {"body": Ball(6)})
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((64, 6))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        assert np.abs(a.boundary.weight(pts) - b.boundary.weight(pts)).max() < 1e-14
        interior = 0.5 * pts
        wa = a.rhs_weight.values(interior)
        wb = b.rhs_weight.values(interior)
        assert np.abs(wa - wb).max() < 1e-14
        assert a.lhs_scale == b.lhs_scale == 1.0

    def test_indefinite_hypothesis_guard(self):
        # a non-log-concave potential fails the classical positivity check
        spec = ms.MeasureSpec(
            kind="bad",
            dim=1,
            potential=PotentialField(
                fn=lambda x: -0.5 * float(x @ x),
                hess=lambda pts: np.full((pts.shape[0], 1, 1), -1.0),
            ),
            sampler=lambda n, rng: rng.uniform(-1, 1, size=(n, 1)),
        )
        with pytest.raises(HypothesisViolated) as err:
            cat.instantiate("classical_bl", {"measure": spec})
        assert err.value.hypothesis == "hess_v_positive"
        assert err.value.margin < 0

    def test_cone_variance_simplex_constant(self):
        # exact Dirichlet second moment: E |x|^2/<x,n>^2 = 2d/(d+1)
        inst = cat.instantiate("cone_variance", {"body": Simplex(4)})
        assert inst.rhs_fixed == pytest.approx(
            4.0 / (3.0 * 2.0) * 8.0 / 5.0, rel=1e-12
        )
        assert inst.lipschitz_only

    def test_exp_product_pointwise_weight(self):
        mu = ms.exp_quad_orthant(2, lam=1.0, beta=0.5)
        inst = cat.instantiate(
            "exp_product", {"measure": mu, "mode": "weighted", "lams": 0.5}
        )
        x = np.array([[1.0, 2.0]])
        w = inst.rhs_weight.values(x)[0]
        # V_xi = 1 + 0.5 x_i; weight = 1/(lam (V_xi - lam))
        assert w[0, 0] == pytest.approx(1.0 / (0.5 * (1.5 - 0.5)))
        assert w[1, 1] == pytest.approx(1.0 / (0.5 * (2.0 - 0.5)))

    def test_repeat_instantiation_weight_deterministic(self):
        a = cat.instantiate("negdim_bl", {"measure": ms.gaussian(2)})
        b = cat.instantiate("negdim_bl", {"measure": ms.gaussian(2)})
        pts = np.random.default_rng(0).standard_normal((32, 2))
        assert np.array_equal(a.rhs_weight.values(pts), b.rhs_weight.values(pts))

    def test_every_smoke_config_instantiates(self):
        from riccikit import cli

        for doc in cli.load_bundled("paper-smoke"):
            config = cli.parse_config(doc)
            for d in config.dims:
                inst = cat.instantiate(
                    config.inequality, cli._instance_params(config, d)
                )
                assert inst.hypothesis_report

    def test_dropped_knobs_ignored(self):
        # compact_bl always runs its KE check, and cone_variance always draws
        # its probe with seed 5
        mu = ms.uniform_interval()
        inst = cat.instantiate("compact_bl", {"measure": mu, "run_ke": False})
        assert "ke_residual" in inst.hypothesis_report
        seeded = cat.instantiate("cone_variance", {"body": Simplex(4), "seed": 99})
        plain = cat.instantiate("cone_variance", {"body": Simplex(4)})
        assert seeded.hypothesis_report == plain.hypothesis_report

    def test_non_finite_matrix_is_an_eigensolve_failure(self):
        mats = np.array([np.eye(2), [[1.0, 0.0], [0.0, -np.inf]]])
        with pytest.raises(EigensolveFailure):
            least_eig(mats, 2)
        u = np.array([[1.0, 0.0], [np.nan, 1.0]])
        rank_one = ScalarPlusRankOne(np.ones(2), 1.0, u)
        with pytest.raises(EigensolveFailure):
            least_eig(rank_one, 2)


class TestStructuralRelations:
    def test_negdim_weight_dominates_classical(self):
        # D^2 V + (1/2d) grad V tensor grad V >= D^2 V pointwise
        mu = ms.gaussian(3)
        pts = mu.sample(500, 1)
        extra = cat.instantiate("negdim_bl", {"measure": mu}).rhs_weight
        inv_extra = np.linalg.inv(extra.values(pts))  # the combined matrix
        base = mu.potential.hessian(pts)
        eigs = np.linalg.eigvalsh(inv_extra - base)[:, 0]
        assert eigs.min() > -1e-12

    def test_hardy_n0_vs_cone_weight_relation(self):
        # <x,n> <= |x|^2/<x,n> pointwise on sampled boundaries
        for body in (Ball(4), Ball(6, 2.0)):
            pts = body.sample_boundary(512, np.random.default_rng(5))
            n = pts / np.linalg.norm(pts, axis=1, keepdims=True)
            xn = np.einsum("ni,ni->n", pts, n)
            r2 = np.einsum("ni,ni->n", pts, pts)
            assert np.all(xn <= r2 / xn + 1e-12)

    def test_refined_rhs_at_most_twice_classical(self):
        # Q >= D^2 V / 2 when the target is log-concave, so the refined
        # weight never exceeds twice the classical one
        mu = ms.gaussian(1)
        nu = ms.gaussian(1, sigma=1.4)
        inst = cat.instantiate("refined_bl", {"measure": mu, "target": nu})
        classical = cat.instantiate("classical_bl", {"measure": mu})
        pts = mu.sample(2000, 9)
        wr = inst.rhs_weight.values(pts)[:, 0, 0]
        wc = classical.rhs_weight.values(pts)[:, 0, 0]
        assert np.all(wr <= 2.0 * wc + 1e-8)

    def test_refined_q_is_one_between_gaussians(self):
        # T(x) = 1.2 x onto N(0, 1.44): Phi'' = 1.2 and Q = 1 exactly; the
        # Hermite map on the level nodes keeps that out to |x| = 8
        mu, nu = ms.gaussian(1), ms.gaussian(1, sigma=1.2)
        q, phi = cat._refined_q_1d(mu, nu)
        pts = np.linspace(-8.0, 8.0, 3203)[:, None]
        assert np.abs(q(pts) - 1.0).max() < 1e-9
        assert np.abs(phi.hess(pts)[:, 0, 0] - 1.2).max() < 1e-9

    def test_refined_q_batch_matches_pointwise(self):
        # one spline call on the sample column against the pointwise
        # potential-field path, on a target with curvature in W''
        mu, nu = ms.gaussian(1), ms.cos_interval(0.5)
        q, phi = cat._refined_q_1d(mu, nu)
        pts = mu.sample(1000, 4)
        v1, v2 = mu.coord_d1[0], mu.coord_d2[0]
        w1, w2 = nu.coord_d1[0], nu.coord_d2[0]
        want = []
        for x in pts[:, 0]:
            t = phi.gradient([x])[0]
            tp = phi.hessian([x])[0, 0]
            u = float(v1(x)) - tp * float(w1(t))
            want.append(
                0.5 * float(v2(x)) + 0.5 * tp * tp * float(w2(t)) + 0.25 * u * u
            )
        got = q(pts)
        assert got.shape == (1000,)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("body", [Ball(3), Ball(5, 2.0), Ball(4, 1.5, orthant=True)],
                             ids=lambda b: f"{b.kind}{b.dim}{'+' * b.orthant}")
    def test_cone_second_moment_ratio_on_a_ball_is_one(self, body):
        # |x|^2 / <x, n>^2 = 1 on the sphere: the closed form, and a draw
        assert cat._cone_second_moment_ratio(body) == 1.0
        pts = ConeMeasureSampler(body, seed=11).sample(20000)
        vals = np.vecdot(pts, pts) / np.vecdot(pts, body.normal(pts)) ** 2
        assert np.abs(vals - 1.0).max() <= 1e-12

    def test_qgt2_rho_analytic(self):
        inst = cat.instantiate("qgt2_lsi", {"q": 3.0})
        assert inst.params["rho_q"] == pytest.approx(0.375, abs=1e-6)
        assert inst.params["K_q"] <= 1.0
        assert inst.rhs_constant == pytest.approx(2.0 / 0.375, rel=1e-6)

    @pytest.mark.parametrize("q", [2.3, 3.0, 5.0])
    def test_qgt2_k_q_is_the_sup_of_the_weight_ratio(self, q):
        # the closed form against the ratio on a grid, which approaches its
        # tail value to about 1e-4 by x = 1e5
        from riccikit.transport import FlattenedPowerPotential

        fp = FlattenedPowerPotential(q)
        x = np.concatenate([np.linspace(1e-3, 10.0, 2001), np.geomspace(10.0, 1e5, 501)])
        ratio = (1.0 / fp.d2(x)) / np.minimum(1.0, x ** (2.0 - q))
        k_q = cat.instantiate("qgt2_lsi", {"q": q}).params["K_q"]
        assert k_q * (1.0 - 1e-3) <= ratio.max() <= k_q * (1.0 + 1e-12)

    @pytest.mark.parametrize("q", [5.0, 10.0, 20.0, 100.0])
    def test_qgt2_grades_every_q_the_floats_hold(self, q):
        inst = cat.instantiate("qgt2_lsi", {"q": q})
        rho_q = inst.params["rho_q"]
        assert np.isfinite(rho_q) and rho_q > 0.0
        rows = eng.check_inequality(inst, budget=5000, seed=1).rows
        assert {r.status for r in rows} == {"report-only"}
        assert all(np.isfinite([r.lhs, r.lhs_err, r.rhs, r.rhs_err]).all() for r in rows)

    def test_qgt2_rhs_sum_out_of_the_float_range_is_an_error_row(self):
        # at q = 143 the constant is finite but the RHS sums of some rows are not
        report = eng.check_inequality(cat.instantiate("qgt2_lsi", {"q": 143.0}),
                                      budget=5000, seed=1)
        assert {r.status for r in report.rows} == {"error", "report-only"}
        errors = [v for k, v in report.attachments.items() if k.endswith(":error")]
        assert errors and all("rhs_energy_finite" in e for e in errors)

    @pytest.mark.parametrize("q", [3.0, 10.0])
    def test_qgt2_convexity_margin_does_not_depend_on_the_grid_end(self, q, monkeypatch):
        # F'' max(1, |y|)^2 is smallest at the knee, p - 1; F'' alone was
        # smallest at the grid's last node, 50^-(q-2)
        from riccikit.transport import FlattenedPowerPotential

        build = FlattenedPowerPotential.dual_criterion
        margins = []
        for ymax in (None, 60.0):
            if ymax is not None:
                monkeypatch.setattr(FlattenedPowerPotential, "dual_criterion",
                                    lambda fp, y: build(fp, y[y <= ymax]))
            margins.append(cat.instantiate("qgt2_lsi", {"q": q}).hypothesis_report["f_convex"])
        p = q / (q - 1.0)
        assert margins[0] == margins[1] == pytest.approx(p - 1.0, abs=1e-8)

    def test_qgt2_k_q_out_of_the_float_range_is_a_violation(self):
        with pytest.raises(HypothesisViolated) as err:
            cat.instantiate("qgt2_lsi", {"q": 200.0})
        assert err.value.hypothesis == "K_q_finite"

    def test_bakry_t_reduces_to_exponential_at_q1(self):
        inst = cat.instantiate("bakry_t_lsi", {"q": 1.0, "dim": 2})
        assert inst.rhs_constant == pytest.approx(4.0)
        pts = np.array([[0.5, 2.0]])
        assert np.allclose(np.diag(inst.rhs_weight.values(pts)[0]), [0.5, 2.0])

    def test_manifest_covers_catalog(self):
        assert set(cat.manifest()) == set(cat.CATALOG)


class TestHypothesisMargins:
    def test_gaussian_classical_margin_is_one(self):
        inst = cat.instantiate("classical_bl", {"measure": ms.gaussian(2)})
        assert inst.hypothesis_report["hess_v_positive"] == pytest.approx(1.0)

    def test_poly_part5_margin_vs_closed_form(self):
        # inf over the grid of (diag entry) x^{2p} - rho_p stays nonnegative
        from riccikit import families

        p, lam = 0.5, 1.0
        inst = cat.instantiate(
            "poly_product",
            {"measure": ms.exp_product(2), "part": 5, "p": p, "lam": lam},
        )
        rho = inst.params["rho"]
        assert rho == pytest.approx(families.rho_p_slope(p, lam))
        x = np.geomspace(1e-3, 1e6, 200001)
        diag = lam * p / x + p * (1 - p) / x**2
        assert float((diag * x ** (2 * p)).min()) - rho >= -1e-8

    def test_thm63_ball_mean_convexity_margin(self):
        # H_{g,mu} > 0 margin equals (d-N)/(2R) - N (d-1)/R up to the
        # conformal factor
        d, n_param, r = 6, -1.0, 2.0
        inst = cat.instantiate(
            "hardy_boundary", {"body": Ball(d, r), "N": n_param}
        )
        want = 0.5 * (d - n_param) / r - n_param * (d - 1.0) / r
        assert inst.hypothesis_report["boundary_mean_convex"] == pytest.approx(want)


class TestGuards:
    def test_generalized_bl_indefinite_ricci(self):
        # a decreasing linear potential on a bounded window makes the
        # power-profile generalized Ricci indefinite at typical samples
        from riccikit.transport import Density1D

        dens = Density1D(lambda t: -3.0 * t, (0.5, 6.0), name="tilt")
        mu = ms._product_spec(
            "tilted_uniform",
            [dens] * 2,
            d1=lambda t: -3.0,
            d2=lambda t: 0.0,
            orthant=True,
        )
        with pytest.raises(HypothesisViolated) as err:
            cat.instantiate(
                "generalized_bl",
                {"measure": mu, "family": {"type": "product_power", "p": 0.5}},
            )
        assert err.value.hypothesis == "ric_positive"

    @pytest.mark.parametrize("derivatives", [{}, {"d1": lambda t: 0.0}],
                             ids=["none", "d1_only"])
    def test_compact_bl_reads_d2w_without_coordinate_d2(self, derivatives):
        # D^2 W comes from the potential when the measure has no V_i''
        from riccikit.transport import uniform_density

        nu = ms.density_1d(uniform_density(-0.5, 0.5), **derivatives)
        inst = cat.instantiate("compact_bl", {"measure": nu})
        assert inst.hypothesis_report["log_concave"] == 0.0
        rows = eng.check_inequality(inst, budget=2000, seed=1).rows
        assert all(r.status == "pass" for r in rows)

    def test_compact_bl_log_concavity_is_checked_without_coordinate_d2(self):
        from riccikit.transport import Density1D

        nu = ms.density_1d(Density1D(lambda t: -t * t, (-0.5, 0.5), name="bump"))
        with pytest.raises(HypothesisViolated) as err:
            cat.instantiate("compact_bl", {"measure": nu})
        assert err.value.hypothesis == "log_concave"

    def test_exp_product_unknown_mode(self):
        # any mode but "corollary" used to run as "weighted"
        with pytest.raises(UnknownInequalityId, match="mode"):
            cat.instantiate(
                "exp_product",
                {"measure": ms.exp_quad_orthant(2), "mode": "Weighted", "lams": 0.5},
            )


class TestRicciGate:
    """The product-metric entries gate on `families.product_ricci`, the closed
    form that criterion 01 checks against the finite-difference oracle."""

    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize(
        "inequality,params,margin",
        [
            ("generalized_bl", {"family": {"type": "product_power", "p": 0.5}},
             "ric_positive"),
            ("generalized_bl", {"family": {"type": "product_exp", "lam": 0.5}},
             "ric_positive"),
            ("bakry_emery_lsi",
             {"family": {"type": "product_power", "p": 0.5}, "rho": 0.5},
             "curvature_level"),
            ("poly_product", {"part": 1, "p": 0.5}, "ric_positive"),
        ],
    )
    def test_margin_is_product_ricci(self, inequality, params, margin, d):
        mu = ms.exp_product(d)
        inst = cat.instantiate(inequality, {**params, "measure": mu})
        pts = cat._hypothesis_points(mu)
        family = params.get("family", {"type": "product_power", "p": params.get("p")})
        data = fam.ProductMetricData.from_family(family, d)
        ric = fam.product_ricci(data, mu.potential, pts)
        pointwise = np.array([fam.product_ricci(data, mu.potential, x) for x in pts])
        np.testing.assert_allclose(ric, pointwise, rtol=1e-14, atol=0.0)
        gate = ric.copy()
        if inequality == "bakry_emery_lsi":
            idx = np.arange(d)
            gate[:, idx, idx] -= params["rho"] * data.metric_weights(pts)
        assert inst.hypothesis_report[margin] == np.linalg.eigvalsh(gate)[:, 0].min()
        # the oracle's stencil, h = 1e-3 (1 + |x|), resolves the x^-1 power
        # metric only away from the orthant's faces: it is consulted where
        # every coordinate is >= 0.5, the range criterion 01 draws from, and
        # its truncation error is relative to the size of the tensor
        inner = np.flatnonzero(pts.min(axis=1) >= 0.5)[:16]
        assert len(inner) == 16
        metric = data.metric_field()
        for k in inner:
            fd = tc.generalized_ricci(metric, mu.potential, pts[k]).ric_gmu
            assert np.abs(ric[k] - fd).max() < 1e-4 * (1.0 + np.abs(ric[k]).max())


def _dense_negdim_matrix(mu, pts):
    """D^2 V + grad V grad V^T / (2d) at an (n, d) batch, built dense."""
    g = mu.potential.gradient(pts)
    return mu.potential.hessian(pts) + np.einsum("ni,nj->nij", g, g) / (2.0 * mu.dim)


def _dense_negdim_inverse(mu, pts):
    return np.linalg.inv(_dense_negdim_matrix(mu, pts))


def _rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestStructuredProductWeights:
    """On a product measure the RHS weights of negdim_bl and of the
    product-Ricci entries keep the structure of D^2 V: diagonal, or diagonal
    plus rank one, never a batched dense inverse."""

    @pytest.mark.parametrize("d", range(2, 13))
    @pytest.mark.parametrize(
        "make",
        [ms.gaussian, ms.trunc_gaussian_orthant, lambda d: ms.power_product(d, 1.5)],
        ids=["gaussian", "trunc_gaussian_orthant", "power_product"],
    )
    def test_negdim_sherman_morrison_matches_inv(self, make, d):
        mu = make(d)
        inst = cat.instantiate("negdim_bl", {"measure": mu})
        pts = mu.sample(500, 4)
        w = inst.rhs_weight.compact(pts)
        assert isinstance(w, ScalarPlusRankOne) and w.s.shape == (500, d)
        assert _rel_err(as_matrices(w, d), _dense_negdim_inverse(mu, pts)) <= 1e-12

    @pytest.mark.parametrize("make", [ms.gaussian, ms.exp_product, ms.trunc_gaussian_orthant])
    def test_negdim_scalar_at_d1(self, make):
        mu = make(1)
        inst = cat.instantiate("negdim_bl", {"measure": mu})
        pts = mu.sample(500, 4)
        w = inst.rhs_weight.compact(pts)
        assert w.shape == (500,)
        assert _rel_err(w, _dense_negdim_inverse(mu, pts)[:, 0, 0]) <= 1e-12

    def test_negdim_exp_product_d1_keeps_its_pass_rows(self):
        # V'' = 0 there, so a Sherman-Morrison update of diag(1/V'') would
        # give NaN weights; the weight is 1/(V'^2/2) = 2/rate^2
        inst = cat.instantiate("negdim_bl", {"measure": ms.exp_product(1, rate=2.0)})
        pts = inst.measure.sample(100, 1)
        assert np.array_equal(inst.rhs_weight.compact(pts), np.full(100, 0.5))
        rep = eng.check_inequality(inst, budget=4000, seed=3)
        assert rep.rows and all(r.status == "pass" for r in rep.rows)
        assert all(np.isfinite(r.rhs) and np.isfinite(r.rhs_err) for r in rep.rows)

    @pytest.mark.parametrize("d", [1, 2, 5, 12])
    @pytest.mark.parametrize(
        "inequality,params",
        [
            ("generalized_bl", {"family": {"type": "product_power", "p": 0.5}}),
            ("generalized_bl", {"family": {"type": "product_exp", "lam": 0.5}}),
            ("poly_product", {"part": 1, "p": 0.7}),
        ],
    )
    @pytest.mark.parametrize(
        "make", [ms.exp_product, lambda d: ms.power_product(d, 1.5)],
        ids=["exp_product", "power_product"],
    )
    def test_product_ricci_weight_matches_inv(self, make, inequality, params, d):
        mu = make(d)
        inst = cat.instantiate(inequality, {**params, "measure": mu})
        family = params.get("family", {"type": "product_power", "p": params.get("p")})
        data = fam.ProductMetricData.from_family(family, d)
        pts = mu.sample(500, 4)
        w = inst.rhs_weight.compact(pts)
        assert w.shape == (500, d)
        dense = np.linalg.inv(fam.product_ricci(data, mu.potential, pts))
        assert _rel_err(as_matrices(w, d), dense) <= 1e-12
        hyp = cat._hypothesis_points(mu)
        ric = fam.product_ricci(data, mu.potential, hyp)
        assert inst.hypothesis_report["ric_positive"] == np.linalg.eigvalsh(ric).min()

    @pytest.mark.parametrize(
        "inequality,params,make",
        [
            ("negdim_bl", {}, ms.gaussian),
            ("negdim_bl", {}, ms.trunc_gaussian_orthant),
            ("generalized_bl", {"family": {"type": "product_power", "p": 0.5}},
             ms.exp_product),
            ("generalized_bl", {"family": {"type": "product_exp", "lam": 0.5}},
             ms.exp_quad_orthant),
            ("poly_product", {"part": 1, "p": 0.5}, ms.exp_product),
        ],
    )
    def test_no_dense_inverse_on_stock_product_measures(self, monkeypatch,
                                                        inequality, params, make):
        stacks = []
        inv = np.linalg.inv

        def spy(a):
            if np.ndim(a) == 3:
                stacks.append(np.shape(a))
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", spy)
        inst = cat.instantiate(inequality, {**params, "measure": make(6)})
        rep = eng.check_inequality(inst, budget=1000, seed=2)
        assert all(r.status != "error" for r in rep.rows)
        assert stacks == []

    def test_dense_path_without_coordinate_derivatives(self):
        mu = ms.gaussian(3)
        bare = ms.MeasureSpec(kind="bare", dim=3, potential=mu.potential,
                              sampler=mu.sampler)
        inst = cat.instantiate("negdim_bl", {"measure": bare})
        pts = mu.sample(200, 4)
        w = inst.rhs_weight.compact(pts)
        assert w.shape == (200, 3, 3)
        compact = cat.instantiate("negdim_bl", {"measure": mu}).rhs_weight
        assert _rel_err(w, compact.values(pts)) <= 1e-12
        # the (n, d, d) branch of quad_form against the compact form's own
        grads = eng.default_suite(3, seed=1)[-1].grad(pts)
        assert _rel_err(quad_form(w, grads), quad_form(compact.compact(pts), grads)) <= 1e-12

    def test_dense_path_where_a_second_derivative_vanishes(self):
        # exponential x Gaussian: D = diag(0, 1), yet D + g g^T/4 has
        # determinant rate^2/4 > 0, so the weight exists without D^-1
        mu = _exp_gauss()
        inst = cat.instantiate("negdim_bl", {"measure": mu})
        pts = mu.sample(200, 4)
        w = inst.rhs_weight.compact(pts)
        assert w.shape == (200, 2, 2)
        assert _rel_err(w, _dense_negdim_inverse(mu, pts)) <= 1e-12
        assert np.isfinite(w).all()


def _exp_gauss():
    """The exponential x Gaussian product, whose D^2 V = diag(0, 1)."""
    from riccikit.transport import exponential_density, gaussian_density

    return ms._product_spec(
        "exp_gauss", [exponential_density(1.0), gaussian_density(1.0)],
        d1=[lambda t: 1.0, lambda t: t], d2=[lambda t: 0.0, lambda t: 1.0],
    )


def _form_of(w):
    if isinstance(w, ScalarPlusRankOne):
        return "rank_one"
    return ("scalar", "diagonal", "full")[w.ndim - 1]


def _algebra_case(form, d, c):
    """Compact weights of the given form and their dense matrices, built by
    hand."""
    if form == "exp_gauss":
        mu = _exp_gauss()
        pts = mu.sample(200, 4)
        return cat._negdim_tensor(mu)(pts), _dense_negdim_matrix(mu, pts)
    rng = np.random.default_rng(10 * d + 7)
    n, eye = 64, np.eye(d)
    s1, sd = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, (n, d))
    u = 0.2 * rng.normal(size=(n, d))
    outer = c * np.einsum("ni,nj->nij", u, u)
    if form == "scalar":
        return s1, s1[:, None, None] * eye
    if form == "diagonal":
        return sd, sd[:, :, None] * eye
    if form == "full":
        b = rng.normal(size=(n, d, d))
        a = eye + b @ b.transpose(0, 2, 1) / d
        return a, a
    if form == "rank_one_scalar":
        return ScalarPlusRankOne(s1, c, u), s1[:, None, None] * eye + outer
    return ScalarPlusRankOne(sd, c, u), sd[:, :, None] * eye + outer


class TestFormAlgebra:
    """`fields.inverse` and `fields.least_eig` over every compact form."""

    @pytest.mark.parametrize(
        "form,d,c,inverse_form",
        [(f, d, 0.0, f) for f in ("scalar", "diagonal", "full") for d in (1, 4)]
        + [(f, 1, c, "scalar") for f in ("rank_one_scalar", "rank_one_diagonal")
           for c in (0.5, -0.5)]
        + [(f, 4, c, "rank_one" if c > 0 else "full")
           for f in ("rank_one_scalar", "rank_one_diagonal") for c in (0.5, -0.5)]
        # a zero V_i'': no Sherman-Morrison, the dense inverse
        + [("exp_gauss", 2, 0.25, "full")],
        ids=lambda v: str(v),
    )
    def test_inverse_and_least_eig_match_dense(self, form, d, c, inverse_form):
        w, dense = _algebra_case(form, d, c)
        inv = inverse(w, d)
        assert _form_of(inv) == inverse_form
        product = as_matrices(inv, d) @ as_matrices(w, d)
        assert np.abs(product - np.eye(d)).max() <= 1e-12
        want = np.linalg.eigvalsh(dense)[:, 0]
        assert np.all(np.abs(least_eig(w, d) - want) <= 1e-12 * np.abs(want))

    def test_smoke_margins_match_dense_eigvalsh(self):
        # every matrix margin of the paper-smoke documents against the least
        # eigenvalue of its tensor built dense: bit for bit where the tensor
        # is D^2 V or a Ricci tensor, within 1e-12 for D^2 V + g g^T/2d
        from riccikit import cli

        checked = set()
        for doc in cli.load_bundled("paper-smoke"):
            config = cli.parse_config(doc)
            for d in config.dims:
                params = cli._instance_params(config, d)
                inst = cat.instantiate(config.inequality, params)
                mu, prefix = params.get("measure"), ""
                if config.inequality == "klartag_transfer":
                    mu, prefix = cat._conditioned_orthant(mu), "base:"
                    params = {**params, **params["base"]}
                for name, got in inst.hypothesis_report.items():
                    name = name.removeprefix(prefix)
                    if name not in _MATRIX_MARGINS:
                        continue
                    want = _dense_margin(name, mu, params, d)
                    tol = 1e-12 * abs(want) if name == "weight_positive" else 0.0
                    assert abs(got - want) <= tol, (config.inequality, name)
                    checked.add(name)
        assert checked == set(_MATRIX_MARGINS)


_HESSIAN_MARGINS = ("hess_v_positive", "log_concave", "hess_v_psd")
_MATRIX_MARGINS = _HESSIAN_MARGINS + ("weight_positive", "ric_positive", "curvature_level")


def _dense_margin(name, mu, params, d):
    """The least eigenvalue over the hypothesis points of the dense tensor
    behind a matrix margin."""
    pts = cat._hypothesis_points(mu)
    if name in _HESSIAN_MARGINS:
        mats = mu.potential.hessian(pts)
    elif name == "weight_positive":
        mats = _dense_negdim_matrix(mu, pts)
    else:
        family = params.get("family", {"type": "product_power", "p": params.get("p")})
        data = fam.ProductMetricData.from_family(family, d)
        mats = fam.product_ricci(data, mu.potential, pts)
        if name == "curvature_level":
            idx = np.arange(d)
            mats[:, idx, idx] -= params["rho"] * data.metric_weights(pts)
    return float(np.linalg.eigvalsh(mats)[:, 0].min())


class TestUniformSecondMoment:
    @pytest.mark.parametrize(
        "body",
        [Ball(3), Ball(5, 2.0), Ball(4, 1.5, orthant=True), Box([0.5, 1.0, 2.0]),
         LpBall(3, 3.0), LpBall(4, 1.5, 2.0), LpBall(6, 5.0), Simplex(4, 2.0)],
        ids=lambda b: f"{b.kind}{b.dim}",
    )
    def test_closed_form_matches_monte_carlo(self, body):
        pts = body.sample_uniform(200000, np.random.default_rng(21))
        r2 = np.sum(pts**2, axis=1)
        se = r2.std(ddof=1) / np.sqrt(len(r2))
        assert abs(cat._uniform_second_moment(body) - r2.mean()) <= 4.0 * se

    @pytest.mark.parametrize(
        "body",
        [Box([0.5, 1.0, 2.0]), LpBall(3, 3.0), LpBall(5, 1.5, 2.0), Simplex(4, 2.0),
         Ball(4, 1.5, orthant=True)],
        ids=lambda b: f"{b.kind}{b.dim}",
    )
    def test_cone_ratio_matches_monte_carlo(self, body):
        pts = ConeMeasureSampler(body, seed=21).sample(200000)
        vals = np.vecdot(pts, pts) / np.vecdot(pts, body.normal(pts)) ** 2
        se = max(vals.std(ddof=1) / np.sqrt(len(vals)), 1e-12)
        assert abs(cat._cone_second_moment_ratio(body) - vals.mean()) <= 4.0 * se

    def test_cone_ratio_has_no_form_off_the_closed_kinds(self):
        with pytest.raises(ValueError, match="ellipse"):
            cat._cone_second_moment_ratio(Curve2D.ellipse(2.0, 1.0))

    def test_l1_type_is_deterministic_off_the_simplex(self):
        body = LpBall(3, 3.0)
        a = cat.instantiate("l1_type", {"body": body})
        b = cat.instantiate("l1_type", {"body": LpBall(3, 3.0)})
        assert a.rhs_fixed == b.rhs_fixed
        lam = a.params["lam"]
        i2 = cat._cone_second_moment_ratio(body)
        want = (cat._uniform_second_moment(body) + i2 / lam**2) / 9.0
        assert a.rhs_fixed == pytest.approx(want, rel=1e-14)
