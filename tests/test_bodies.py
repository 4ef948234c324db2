"""Gauges, normals, curvatures, cone-measure sampling and polar-map norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riccikit import bodies as bd
from riccikit.errors import (
    NonPositiveAngle,
    NonSmoothBoundaryPoint,
    UndefinedAtOrigin,
)

from conftest import oracle_grad, oracle_jacobian_opnorm


class TestGaugeAndNormal:
    def test_ball_basic(self):
        p, n = bd.gauge_and_normal(bd.Ball(3), [2.0, 0.0, 0.0])
        assert p == 2.0
        assert np.allclose(n, [1.0, 0.0, 0.0])

    def test_simplex_facet_diagonal(self):
        # facet normal is (1,...,1)/sqrt(d): <n,e_i>/<n,x> = 1 on the facet
        d = 5
        s = bd.Simplex(d)
        x = np.array([0.3, 0.1, 0.25, 0.2, 0.15])
        p, n = bd.gauge_and_normal(s, x)
        assert p == pytest.approx(1.0)
        assert np.allclose(n, np.full(d, 1.0 / math.sqrt(d)))
        ratios = n / float(n @ x)
        assert np.abs(ratios - 1.0).max() < 1e-10

    def test_lp_normal_matches_stencil(self, rng):
        lp = bd.LpBall(3, 4.0)
        x = np.array([0.5, 0.4, 0.7])
        x = x / lp.gauge(x)
        n = lp.normal(x)
        want = x**3
        want /= np.linalg.norm(want)
        assert np.abs(n - want).max() < 1e-12
        g_fd = oracle_grad(lp.gauge, x)
        assert np.abs(n - g_fd / np.linalg.norm(g_fd)).max() < 1e-7

    def test_origin_rejected(self):
        with pytest.raises(UndefinedAtOrigin):
            bd.gauge_and_normal(bd.Ball(2), [0.0, 0.0])

    def test_gauge_grad_many_matches_pointwise(self, rng):
        pts = rng.uniform(0.05, 1.0, size=(32, 4))
        for body in (bd.Ball(4, 2.0), bd.LpBall(4, 3.0, 1.5), bd.Simplex(4, 2.0),
                     bd.Box(np.array([1.0, 2.0, 0.5, 1.0]))):
            want = np.array([body.gauge_grad(x) for x in pts])
            got = body.gauge_grad_many(pts)
            assert got.shape == (32, 4)
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        for body in (bd.Ball(4), bd.LpBall(4, 3.0), bd.Box(np.ones(4))):
            with pytest.raises(UndefinedAtOrigin):
                body.gauge_grad_many(np.vstack([pts[:3], np.zeros(4)]))
        with pytest.raises(NonSmoothBoundaryPoint):
            bd.Box(np.ones(4)).gauge_grad_many([[0.5, 0.5, 0.1, 0.2]])

    @given(t=st.floats(0.1, 10.0), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_gauge_homogeneity(self, t, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.1, 1.0, 4)
        for body in (bd.Ball(4), bd.LpBall(4, 3.0), bd.Simplex(4), bd.Box(np.ones(4))):
            assert body.gauge(t * x) == pytest.approx(t * body.gauge(x), rel=1e-10)

    def test_curve2d_homogeneity(self):
        e = bd.Curve2D.ellipse(2.0, 1.0)
        x = np.array([0.5, 0.3])
        for t in (0.5, 2.0, 7.0):
            assert e.gauge(t * x) == pytest.approx(t * e.gauge(x), rel=1e-10)

    def test_supporting_hyperplane(self, rng):
        # <x - y, n(x)> >= 0 for boundary x and any body point y
        for body in (bd.Ball(3), bd.LpBall(3, 4.0), bd.Simplex(3)):
            bx = bd.ConeMeasureSampler(body, seed=3).sample(50)
            ys = body.sample_uniform(100, rng)
            for x in bx[:20]:
                n = body.normal(x)
                assert float(((x - ys) @ n).min()) > -1e-9


class TestBoundaryCurvature:
    def test_ball_closed_form(self):
        ii, h = bd.boundary_curvature(bd.Ball(6, 2.0), [2.0, 0, 0, 0, 0, 0])
        assert h == pytest.approx(2.5)
        n = np.zeros(6)
        n[0] = 1.0
        assert np.allclose(ii, (np.eye(6) - np.outer(n, n)) / 2.0)

    def test_simplex_facet_flat(self):
        ii, h = bd.boundary_curvature(bd.Simplex(4), [0.3, 0.25, 0.25, 0.2])
        assert h == 0.0 and np.abs(ii).max() == 0.0

    def test_simplex_edge_rejected(self):
        with pytest.raises(NonSmoothBoundaryPoint):
            bd.boundary_curvature(bd.Simplex(3), [0.0, 0.5, 0.5])

    def test_box_corner_rejected(self):
        with pytest.raises(NonSmoothBoundaryPoint):
            bd.boundary_curvature(bd.Box([1.0, 1.0]), [1.0, 1.0])

    def test_ellipse_vertex_curvature(self):
        # curvature of an ellipse at the end of the major axis is a/b^2
        e = bd.Curve2D.ellipse(2.0, 1.0)
        _, k = bd.boundary_curvature(e, [2.0, 0.0])
        assert k == pytest.approx(2.0, rel=1e-5)
        _, k2 = bd.boundary_curvature(e, [0.0, 1.0])
        assert k2 == pytest.approx(1.0 / 4.0, rel=1e-5)

    def test_lp_curvature_vs_stencil(self, rng):
        from conftest import oracle_hess

        lp = bd.LpBall(3, 4.0)
        x = np.array([0.6, 0.45, 0.55])
        x = x / lp.gauge(x)
        h_fd = oracle_hess(lp.gauge, x)
        g = lp.gauge_grad(x)
        n = g / np.linalg.norm(g)
        proj = np.eye(3) - np.outer(n, n)
        want = proj @ h_fd @ proj / np.linalg.norm(g)
        ii, _ = bd.boundary_curvature(lp, x)
        assert np.abs(ii - want).max() < 1e-6


class TestConeMeasure:
    def test_samples_on_relative_boundary(self):
        s = bd.Simplex(4)
        pts = bd.ConeMeasureSampler(s, seed=1).sample(5000)
        assert np.abs(s.gauge_many(pts) - 1.0).max() < 1e-10

    def test_ball_gives_uniform_sphere(self):
        pts = bd.ConeMeasureSampler(bd.Ball(4), seed=2).sample(40000)
        assert np.abs(pts.mean(axis=0)).max() < 3.0 / math.sqrt(40000)

    def test_simplex_facet_is_dirichlet(self):
        # Var(x_1) under Dirichlet(1,...,1) is (1/d)(1-1/d)/(d+1) = 3/80 at d=4
        d = 4
        n = 200000
        pts = bd.ConeMeasureSampler(bd.Simplex(d), seed=3).sample(n)
        var = pts[:, 0].var(ddof=1)
        se = 3.0 / math.sqrt(n)
        assert abs(var - 3.0 / 80.0) < se * 0.05

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_polar_second_moment_identity(self, d):
        # int |x|^2 d sigma = (1 + 2/d) int |x|^2 d lambda on any body
        body = bd.Ball(d)
        rng = np.random.default_rng(17)
        inner = body.sample_uniform(200000, rng)
        cone = bd.ConeMeasureSampler(body, seed=11).sample(200000)
        lhs = (cone**2).sum(axis=1).mean()
        rhs_vals = (inner**2).sum(axis=1)
        rhs = (1.0 + 2.0 / d) * rhs_vals.mean()
        tol = 3.0 * (1.0 + 2.0 / d) * rhs_vals.std(ddof=1) / math.sqrt(len(rhs_vals))
        assert abs(lhs - rhs) < tol + 3.0 * (cone**2).sum(axis=1).std(ddof=1) / math.sqrt(200000)

    def test_projection_vs_direct_facet_sampling(self):
        # two-sample KS between projected-uniform and direct Dirichlet draws
        from scipy import stats

        d = 4
        s = bd.Simplex(d)
        a = bd.ConeMeasureSampler(s, seed=5).sample(20000)[:, 0]
        b = s.sample_facet(20000, np.random.default_rng(6))[:, 0]
        ks = stats.ks_2samp(a, b).statistic
        assert ks < 3.0 / math.sqrt(20000)


class TestDiagonality:
    def test_simplex_is_exactly_diagonal(self):
        s = bd.Simplex(5)
        pts = bd.ConeMeasureSampler(s, seed=1).sample(200)
        lam, big = bd.diagonality_bounds(s, pts)
        assert lam == pytest.approx(1.0, abs=1e-10)
        assert big == pytest.approx(1.0, abs=1e-10)

    def test_scaled_simplex(self):
        s = bd.Simplex(4, scale=2.0)
        pts = bd.ConeMeasureSampler(s, seed=2).sample(100)
        lam, big = bd.diagonality_bounds(s, pts)
        assert lam == pytest.approx(0.5, abs=1e-10)
        assert big == pytest.approx(0.5, abs=1e-10)

    def test_orthant_ball_ratio_decays(self):
        # on the orthant of the Euclidean ball the ratio inf tends to zero
        # near the coordinate hyperplanes; reported, not asserted sharp
        body = bd.Ball(3, orthant=True)
        pts = bd.ConeMeasureSampler(body, seed=3).sample(2000)
        lam, big = bd.diagonality_bounds(body, pts)
        # ratio is x_i on the unit sphere orthant: inf collapses near the
        # coordinate hyperplanes while the sup stays below 1
        assert 0.0 < lam < 0.05
        assert 0.5 < big <= 1.0

    @pytest.mark.parametrize(
        "body",
        [bd.LpBall(3, 3.0), bd.Ball(4, orthant=True), bd.Box([1.0, 0.5, 2.0])],
    )
    def test_batched_bounds_match_pointwise(self, body):
        pts = bd.ConeMeasureSampler(body, seed=4).sample(500)
        ratios = np.array([body.normal(x) / float(x @ body.normal(x)) for x in pts])
        lam, big = bd.diagonality_bounds(body, pts)
        assert abs(lam - ratios.min()) <= 1e-14 * abs(ratios.min())
        assert abs(big - ratios.max()) <= 1e-14 * abs(ratios.max())

    def test_nonpositive_angle_detected(self):
        # a sample outside the cone of definition pairs negatively with the
        # facet normal and must be rejected
        with pytest.raises(NonPositiveAngle):
            bd.diagonality_bounds(bd.Simplex(2), np.array([[-2.0, 1.0]]))


class TestPolarMapNorm:
    def test_unit_ball(self):
        assert bd.polar_map_norm(bd.Ball(3), [0.5, 0.0, 0.0]) == pytest.approx(2.0)

    def test_simplex_facet(self):
        x = np.array([0.3, 0.3, 0.2, 0.2])
        want = np.linalg.norm(x) * 2.0  # <x,n> = 1/sqrt(d), p = 1
        assert bd.polar_map_norm(bd.Simplex(4), x) == pytest.approx(want)

    @pytest.mark.parametrize(
        "body,point",
        [
            (bd.Ball(3), [0.4, 0.3, 0.2]),
            (bd.LpBall(3, 4.0), [0.5, 0.4, 0.7]),
            (bd.Simplex(4), [0.3, 0.3, 0.2, 0.2]),
        ],
    )
    def test_matches_fd_jacobian(self, body, point):
        x = np.asarray(point)
        want = oracle_jacobian_opnorm(lambda y: y / body.gauge(y), x)
        assert bd.polar_map_norm(body, x) == pytest.approx(want, abs=1e-5)

    def test_scaling_degree(self):
        body = bd.LpBall(3, 3.0)
        x = np.array([0.5, 0.2, 0.6])
        base = bd.polar_map_norm(body, x)
        for t in (0.5, 2.0, 5.0):
            assert bd.polar_map_norm(body, t * x) == pytest.approx(base / t)


class TestSerialization:
    def test_round_trip_specs(self):
        for body in (
            bd.Ball(3, 2.0),
            bd.Box([1.0, 0.5]),
            bd.Simplex(4, 2.0),
            bd.LpBall(2, 3.0),
        ):
            clone = bd.body_from_spec(body.spec())
            assert clone.kind == body.kind and clone.dim == body.dim

    def test_round_trip_every_kind(self):
        # every key off its default, so a spec that drops one rebuilds a
        # different body (a 3 x 0.5 ellipse without its semi-axes is 2 x 1)
        bodies = {
            "ball": bd.Ball(3, 2.0, orthant=True),
            "box": bd.Box([1.0, 0.5]),
            "simplex": bd.Simplex(4, 2.0),
            "lp": bd.LpBall(2, 3.0, radius=1.5),
            "ellipse": bd.Curve2D.ellipse(3.0, 0.5),
        }
        assert set(bodies) == set(bd.CONSTRUCTORS)
        for body in bodies.values():
            clone = bd.body_from_spec(body.spec())
            assert clone.spec() == body.spec()
            assert clone.volume() == body.volume()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_volume_out_of_float_range_not_normalizable(self):
        from riccikit.errors import NonNormalizable

        with pytest.raises(NonNormalizable):
            bd.body_from_spec({"kind": "box", "dim": 2, "half_widths": [1e308, 1e308]})
        with pytest.raises(NonNormalizable):
            bd.body_from_spec({"kind": "ball", "dim": 3, "radius": 1e200})
        with pytest.raises(NonNormalizable):
            bd.body_from_spec({"kind": "ball", "dim": 8, "radius": 1e-300})


class TestRejectionBudget:
    def test_lp_budget_exceeded(self):
        from riccikit.errors import RejectionBudgetExceeded

        # acceptance ratio ~ 1/d! for p near 1: the budget trips immediately
        body = bd.LpBall(12, 1.05)
        with pytest.raises(RejectionBudgetExceeded):
            body.sample_uniform(200, np.random.default_rng(0), budget_factor=1)
