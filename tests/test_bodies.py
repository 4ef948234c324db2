"""Gauges, normals, curvatures, cone-measure sampling and polar-map norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riccikit import bodies as bd, engine
from riccikit.errors import (
    NonPositiveAngle,
    NonSmoothBoundaryPoint,
    UndefinedAtOrigin,
)

from conftest import oracle_grad, oracle_jacobian_opnorm


def scalar_gauge(body):
    """The gauge at one point as a float, for the pointwise oracles."""
    return lambda y: float(body.gauge(y[None])[0])


# every body kind, each key off its default, and an orthant ball
PROTOCOL_BODIES = {
    "ball": bd.Ball(4, 2.0),
    "orthant ball": bd.Ball(4, 1.5, orthant=True),
    "box": bd.Box([1.0, 2.0, 0.5, 1.0]),
    "simplex": bd.Simplex(4, 2.0),
    "lp": bd.LpBall(4, 3.0, 1.5),
    "ellipse": bd.Curve2D.ellipse(2.0, 1.0),
}


class TestBatchProtocol:
    """Every method takes an (n, d) array and returns one row per point."""

    def test_every_kind_covered(self):
        assert set(bd.CONSTRUCTORS) <= set(PROTOCOL_BODIES)

    @staticmethod
    def _points(body, n, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.05, 1.0, size=(n, body.dim))
        if body.kind == "simplex" or getattr(body, "orthant", False):
            return pts
        return pts * rng.choice([-1.0, 1.0], size=pts.shape)

    @staticmethod
    def _evaluate(body, pts):
        ii, h = body.boundary_curvature(pts)
        return {"gauge": body.gauge(pts), "gauge_grad": body.gauge_grad(pts),
                "normal": body.normal(pts), "ii": ii, "h": h,
                "polar": bd.polar_map_norm(body, pts)}

    @pytest.mark.parametrize("name", list(PROTOCOL_BODIES))
    @pytest.mark.parametrize("n", [1, 7])
    def test_shapes(self, name, n):
        body = PROTOCOL_BODIES[name]
        d = body.dim
        got = self._evaluate(body, self._points(body, n, seed=1))
        assert {k: v.shape for k, v in got.items()} == {
            "gauge": (n,), "gauge_grad": (n, d), "normal": (n, d),
            "ii": (n, d, d), "h": (n,), "polar": (n,),
        }

    @pytest.mark.parametrize("name", list(PROTOCOL_BODIES))
    def test_batch_of_one_is_its_row(self, name):
        body = PROTOCOL_BODIES[name]
        pts = self._points(body, 7, seed=2)
        whole = self._evaluate(body, pts)
        for i in range(len(pts)):
            one = self._evaluate(body, pts[i : i + 1])
            for key, value in one.items():
                assert np.array_equal(value[0], whole[key][i]), (key, i)

    @pytest.mark.parametrize("name", list(PROTOCOL_BODIES))
    def test_gauge_grad_matches_stencil(self, name):
        body = PROTOCOL_BODIES[name]
        pts = self._points(body, 7, seed=3)
        got = body.gauge_grad(pts)
        want = np.array([oracle_grad(scalar_gauge(body), x) for x in pts])
        assert np.abs(got - want).max() < 1e-7 * np.abs(want).max()

    @pytest.mark.parametrize("name", list(PROTOCOL_BODIES))
    def test_euler_identity_and_unit_normals(self, name):
        # <x, grad p(x)> = p(x) for a 1-homogeneous gauge
        body = PROTOCOL_BODIES[name]
        pts = self._points(body, 7, seed=4)
        p = body.gauge(pts)
        assert np.abs(np.vecdot(pts, body.gauge_grad(pts)) - p).max() < 1e-13 * p.max()
        n = body.normal(pts)
        assert np.abs(np.linalg.norm(n, axis=1) - 1.0).max() < 1e-14

    @pytest.mark.parametrize("name", list(PROTOCOL_BODIES))
    def test_curvature_is_tangential(self, name):
        # II_0 is symmetric, annihilates the normal, and H_0 is its trace
        body = PROTOCOL_BODIES[name]
        pts = self._points(body, 7, seed=5)
        ii, h = body.boundary_curvature(pts)
        n = body.normal(pts)
        assert np.abs(ii - np.swapaxes(ii, 1, 2)).max() < 1e-12
        assert np.abs(np.einsum("nij,nj->ni", ii, n)).max() < 1e-12
        assert np.abs(np.trace(ii, axis1=1, axis2=2) - h).max() < 1e-12

    @pytest.mark.parametrize("body", [bd.Ball(4), bd.LpBall(4, 3.0), bd.Box(np.ones(4)),
                                      bd.Curve2D.ellipse(2.0, 1.0)])
    def test_origin_row_rejected_by_name(self, body):
        d = body.dim
        pts = np.vstack([np.full((3, d), 0.3), np.zeros(d), np.zeros(d)])
        for method in (body.gauge_grad, body.normal, body.boundary_curvature):
            with pytest.raises(UndefinedAtOrigin, match="row 3"):
                method(pts)

    def test_curve_origin_rejected(self):
        e = bd.Curve2D.ellipse(2.0, 1.0)
        with pytest.raises(UndefinedAtOrigin, match="row 1"):
            e.gauge([[0.5, 0.2], [0.0, 0.0]])

    @pytest.mark.parametrize("a,b", [(2.0, 1.0), (3.0, 0.5), (1.0, 1.0)])
    def test_ellipse_volume_is_pi_a_b(self, a, b):
        assert bd.Curve2D.ellipse(a, b).volume() == math.pi * a * b

    def test_box_edge_rejected(self):
        box = bd.Box(np.ones(4))
        with pytest.raises(NonSmoothBoundaryPoint, match="row 1"):
            box.gauge_grad([[0.5, 0.1, 0.1, 0.2], [0.5, 0.5, 0.1, 0.2]])

    def test_simplex_gauge_rejects_rows_off_the_orthant(self):
        # the gauge sum(x)/scale is no gauge off the orthant cone: a negative
        # coordinate is rejected, not summed into a gauge below zero
        s = bd.Simplex(3)
        with pytest.raises(UndefinedAtOrigin, match="row 1"):
            s.gauge([[0.2, 0.3, 0.1], [-0.5, 0.2, 0.2]])
        # the Dirichlet cut-off 1 - p^2 reads the same gauge
        wrapped = engine.dirichlet_wrap(engine.default_suite(3)[0], s)
        with pytest.raises(UndefinedAtOrigin):
            wrapped.fn(np.array([[-0.5, 0.2, 0.2]]))


class TestGaugeAndNormal:
    def test_ball_basic(self):
        ball = bd.Ball(3)
        x = [[2.0, 0.0, 0.0]]
        assert ball.gauge(x).tolist() == [2.0]
        assert np.allclose(ball.normal(x), [[1.0, 0.0, 0.0]])

    def test_simplex_facet_diagonal(self):
        # facet normal is (1,...,1)/sqrt(d): <n,e_i>/<n,x> = 1 on the facet
        d = 5
        s = bd.Simplex(d)
        x = np.array([[0.3, 0.1, 0.25, 0.2, 0.15]])
        assert s.gauge(x)[0] == pytest.approx(1.0)
        n = s.normal(x)
        assert np.allclose(n, np.full(d, 1.0 / math.sqrt(d)))
        ratios = n / np.vecdot(n, x)[:, None]
        assert np.abs(ratios - 1.0).max() < 1e-10

    def test_lp_normal_matches_stencil(self, rng):
        lp = bd.LpBall(3, 4.0)
        x = np.array([0.5, 0.4, 0.7])
        x = x / lp.gauge(x)
        n = lp.normal(x)[0]
        want = x**3
        want /= np.linalg.norm(want)
        assert np.abs(n - want).max() < 1e-12
        g_fd = oracle_grad(scalar_gauge(lp), x)
        assert np.abs(n - g_fd / np.linalg.norm(g_fd)).max() < 1e-7

    def test_origin_rejected(self):
        with pytest.raises(UndefinedAtOrigin):
            bd.Ball(2).normal([[0.0, 0.0]])

    @given(t=st.floats(0.1, 10.0), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_gauge_homogeneity(self, t, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.1, 1.0, (1, 4))
        for body in (bd.Ball(4), bd.LpBall(4, 3.0), bd.Simplex(4), bd.Box(np.ones(4))):
            assert body.gauge(t * x)[0] == pytest.approx(t * body.gauge(x)[0], rel=1e-10)

    def test_curve2d_homogeneity(self):
        e = bd.Curve2D.ellipse(2.0, 1.0)
        x = np.array([[0.5, 0.3]])
        for t in (0.5, 2.0, 7.0):
            assert e.gauge(t * x)[0] == pytest.approx(t * e.gauge(x)[0], rel=1e-10)

    def test_supporting_hyperplane(self, rng):
        # <x - y, n(x)> >= 0 for boundary x and any body point y
        for body in (bd.Ball(3), bd.LpBall(3, 4.0), bd.Simplex(3)):
            bx = bd.ConeMeasureSampler(body, seed=3).sample(50)[:20]
            ys = body.sample_uniform(100, rng)
            n = body.normal(bx)
            gaps = np.einsum("xyi,xi->xy", bx[:, None, :] - ys[None], n)
            assert float(gaps.min()) > -1e-9


class TestBoundaryCurvature:
    def test_ball_closed_form(self):
        ii, h = bd.Ball(6, 2.0).boundary_curvature([[2.0, 0, 0, 0, 0, 0]])
        assert h.tolist() == [2.5]
        n = np.zeros(6)
        n[0] = 1.0
        assert np.allclose(ii[0], (np.eye(6) - np.outer(n, n)) / 2.0)

    def test_simplex_facet_flat(self):
        ii, h = bd.Simplex(4).boundary_curvature([[0.3, 0.25, 0.25, 0.2]])
        assert h.tolist() == [0.0] and np.abs(ii).max() == 0.0

    def test_simplex_edge_rejected(self):
        with pytest.raises(NonSmoothBoundaryPoint):
            bd.Simplex(3).boundary_curvature([[0.0, 0.5, 0.5]])

    def test_box_corner_rejected(self):
        with pytest.raises(NonSmoothBoundaryPoint):
            bd.Box([1.0, 1.0]).boundary_curvature([[1.0, 1.0]])

    def test_ellipse_vertex_curvature(self):
        # curvature of an ellipse at the end of the major axis is a/b^2, at
        # the end of the minor axis b/a^2
        e = bd.Curve2D.ellipse(2.0, 1.0)
        _, k = e.boundary_curvature([[2.0, 0.0], [0.0, 1.0]])
        assert k[0] == pytest.approx(2.0, rel=1e-12)
        assert k[1] == pytest.approx(1.0 / 4.0, rel=1e-12)

    def test_lp_curvature_vs_stencil(self, rng):
        from conftest import oracle_hess

        lp = bd.LpBall(3, 4.0)
        x = np.array([0.6, 0.45, 0.55])
        x = x / lp.gauge(x)
        h_fd = oracle_hess(scalar_gauge(lp), x)
        g = lp.gauge_grad(x)[0]
        n = g / np.linalg.norm(g)
        proj = np.eye(3) - np.outer(n, n)
        want = proj @ h_fd @ proj / np.linalg.norm(g)
        ii, _ = lp.boundary_curvature(x)
        assert np.abs(ii[0] - want).max() < 1e-6


class TestConeMeasure:
    def test_samples_on_relative_boundary(self):
        s = bd.Simplex(4)
        pts = bd.ConeMeasureSampler(s, seed=1).sample(5000)
        assert np.abs(s.gauge(pts) - 1.0).max() < 1e-10

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
        # the reference evaluates each row as a batch of one
        pts = bd.ConeMeasureSampler(body, seed=4).sample(500)
        normals = np.vstack([body.normal(x) for x in pts])
        ratios = normals / np.vecdot(pts, normals)[:, None]
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
        assert bd.polar_map_norm(bd.Ball(3), [[0.5, 0.0, 0.0]]) == pytest.approx([2.0])

    def test_simplex_facet(self):
        x = np.array([[0.3, 0.3, 0.2, 0.2]])
        want = np.linalg.norm(x) * 2.0  # <x,n> = 1/sqrt(d), p = 1
        assert bd.polar_map_norm(bd.Simplex(4), x) == pytest.approx([want])

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
        gauge = scalar_gauge(body)
        want = oracle_jacobian_opnorm(lambda y: y / gauge(y), x)
        assert bd.polar_map_norm(body, x[None]) == pytest.approx([want], abs=1e-5)

    def test_scaling_degree(self):
        body = bd.LpBall(3, 3.0)
        x = np.array([0.5, 0.2, 0.6])
        ts = np.array([1.0, 0.5, 2.0, 5.0])
        norms = bd.polar_map_norm(body, ts[:, None] * x)
        assert norms == pytest.approx(norms[0] / ts)

    def test_origin_rejected(self):
        with pytest.raises(UndefinedAtOrigin, match="row 1"):
            bd.polar_map_norm(bd.Ball(3), [[0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])


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


class TestUniformSampling:
    @pytest.mark.parametrize("p", [1.5, 3.0, 8.0])
    def test_lp_radius_bound_is_the_circumradius(self, p):
        d, radius = 3, 1.5
        body = bd.LpBall(d, p, radius)
        # the farthest boundary points lie on the axes for p <= 2, on the
        # diagonals beyond
        far = radius * (np.eye(d)[0] if p <= 2.0 else np.full(d, d ** (-1.0 / p)))
        assert body.gauge(far)[0] == pytest.approx(1.0, rel=1e-14)
        assert np.linalg.norm(far) == pytest.approx(body.radius_bound(), rel=1e-14)
        pts = body.sample_uniform(20000, np.random.default_rng(3))
        assert np.linalg.norm(pts, axis=1).max() <= body.radius_bound()

    def test_ellipse_uniform_samples(self):
        a, b = 2.0, 0.5
        e = bd.Curve2D.ellipse(a, b)
        pts = e.sample_uniform(20000, np.random.default_rng(11))
        assert (e.gauge(pts) <= 1.0).all()
        # uniform on the ellipse: Var(x) = a^2/4 and Var(y) = b^2/4
        sq = (pts - pts.mean(axis=0)) ** 2
        se = sq.std(axis=0) / math.sqrt(len(pts))
        assert (np.abs(sq.mean(axis=0) - [a * a / 4, b * b / 4]) <= 4 * se).all()


class TestRejectionBudget:
    def test_lp_budget_exceeded(self):
        from riccikit.errors import RejectionBudgetExceeded

        # acceptance ratio ~ 1/d! for p near 1: the budget trips immediately
        body = bd.LpBall(12, 1.05)
        with pytest.raises(RejectionBudgetExceeded):
            body.sample_uniform(200, np.random.default_rng(0), budget_factor=1)
