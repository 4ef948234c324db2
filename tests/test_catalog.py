"""Instantiation of the inequality catalog: weights, constants, hypothesis
checks and the relations the spec pins between catalog entries."""

import json

import numpy as np
import pytest

from riccikit import catalog as cat, families as fam, measures as ms
from riccikit import tensor_core as tc
from riccikit.bodies import Ball, ConeMeasureSampler, LpBall, Simplex
from riccikit.errors import HypothesisViolated, UnknownInequalityId
from riccikit.fields import PotentialField


class TestInstantiate:
    def test_unknown_id(self):
        with pytest.raises(UnknownInequalityId):
            cat.instantiate("no_such_inequality", {})

    def test_poly_part2_weight(self):
        inst = cat.instantiate(
            "poly_product", {"measure": ms.exp_product(2), "part": 2}
        )
        assert inst.rhs_constant == 4.0
        w = inst.rhs_weight.value(np.array([1.0, 2.0]))
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


class TestStructuralRelations:
    def test_negdim_weight_dominates_classical(self):
        # D^2 V + (1/2d) grad V tensor grad V >= D^2 V pointwise
        mu = ms.gaussian(3)
        pts = mu.sample(500, 1)
        extra = cat._negdim_weight_field(mu)
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

    def test_cone_second_moment_ratio_matches_pointwise(self):
        body = LpBall(3, 3.0)
        ratio, err = cat._cone_second_moment_ratio(body, {}, None, seed=11)
        pts = ConeMeasureSampler(body, seed=11).sample(20000)
        vals = np.array([float(p @ p) / float(p @ body.normal(p)) ** 2 for p in pts])
        assert abs(ratio - vals.mean()) <= 1e-14 * vals.mean()
        want_err = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(err - want_err) <= 1e-12 * want_err

    def test_qgt2_rho_analytic(self):
        inst = cat.instantiate("qgt2_lsi", {"q": 3.0})
        assert inst.params["rho_q"] == pytest.approx(0.375, abs=1e-6)
        assert inst.params["K_q"] <= 1.0
        assert inst.rhs_constant == pytest.approx(2.0 / 0.375, rel=1e-6)

    def test_bakry_t_reduces_to_exponential_at_q1(self):
        inst = cat.instantiate("bakry_t_lsi", {"q": 1.0, "dim": 2})
        assert inst.rhs_constant == pytest.approx(4.0)
        pts = np.array([[0.5, 2.0]])
        assert np.allclose(np.diag(inst.rhs_weight.values(pts)[0]), [0.5, 2.0])

    def test_manifest_covers_catalog(self):
        man = cat.manifest()
        assert set(man) == set(cat.CATALOG)
        from importlib import resources

        shipped = json.loads(
            (resources.files("riccikit") / "configs" / "manifest.json").read_text()
        )
        assert shipped == man


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

    def test_margins_over_user_grid(self):
        inst = cat.instantiate("classical_bl", {"measure": ms.gaussian(2)})
        rep = cat.hypothesis_margins(inst, np.zeros((4, 2)))
        assert rep["weight_min_eig_on_grid"] == pytest.approx(1.0)


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
