"""Sampling specs: marginals, quantile accuracy, determinism."""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from riccikit import engine as eng, fields, measures as ms
from riccikit.bodies import LpBall

from conftest import logcosh_phi


class TestSampling:
    def test_uniform_box_mean(self):
        mu = ms.uniform_box_orthant(2, 1.0)
        pts = eng.sample_measure(mu, 100000, 3)
        assert np.abs(pts.mean(axis=0) - 0.5).max() < 3.0 / math.sqrt(100000)

    def test_cone_measure_projects_uniform_shards_to_the_boundary(self):
        body = LpBall(3, 3.0, 2.0)
        pts = ms.cone_measure(body).sample(1000, 4)
        uniform = ms.uniform_body(body).sample(1000, 4)
        assert np.array_equal(pts, uniform / body.gauge(uniform)[:, None])
        assert np.abs(body.gauge(pts) - 1.0).max() < 1e-12

    def test_exponential_marginal_means(self):
        mu = ms.exp_product(3)
        pts = eng.sample_measure(mu, 200000, 5)
        se = 3.0 / math.sqrt(200000)
        assert np.abs(pts.mean(axis=0) - 1.0).max() < 3 * se

    def test_power_measure_ks(self):
        # empirical CDF of mu_q, q = 1.5, vs the quadrature CDF
        mu = ms.power_product(1, 1.5)
        n = 50000
        pts = eng.sample_measure(mu, n, 7)[:, 0]
        dens = mu.coord_densities[0]
        ks = stats.kstest(pts, lambda v: np.interp(v, dens.grid, dens.cdf_grid))
        assert ks.statistic < 3.0 / math.sqrt(n)

    def test_gamma_power_pushforward_moment(self):
        # t = x^q under exp(-x^q): E t = Gamma(1 + 1/q)-normalized first
        # moment of the Gamma(1/q) law = 1/q
        q = 1.5
        mu = ms.gamma_power_product(1, q)
        pts = eng.sample_measure(mu, 200000, 9)[:, 0]
        assert abs(pts.mean() - 1.0 / q) < 0.01

    def test_truncated_gaussian_support(self):
        mu = ms.trunc_gaussian_orthant(2, 1.0)
        pts = eng.sample_measure(mu, 50000, 11)
        assert pts.min() >= 0.0 and pts.max() <= 1.0

    def test_coordinate_moment_matches_sample(self):
        mu = ms.laplace_product(2)
        exact = mu.coordinate_moment(2)
        pts = eng.sample_measure(mu, 400000, 13)
        assert np.abs((pts**2).mean(axis=0) - exact).max() < 0.05
        assert exact == pytest.approx([2.0, 2.0], rel=1e-5)

    def test_sampling_deterministic(self):
        mu = ms.gaussian(3)
        a = mu.sample(5000, 21)
        b = mu.sample(5000, 21)
        assert np.array_equal(a, b)

    def test_from_spec_round_trip(self):
        for doc, d in [
            ({"kind": "gaussian"}, 2),
            ({"kind": "power_product", "q": 1.5}, 2),
            ({"kind": "uniform_body", "body": {"kind": "ball", "radius": 2.0}}, 3),
        ]:
            spec = ms.from_spec(doc, d)
            assert spec.dim == d
            pts = spec.sample(500, 1)
            assert pts.shape == (500, d)

    def test_coordinate_moment_one_quadrature_per_density(self, monkeypatch):
        # the twelve coordinates share one density, so one quadrature serves
        # them all
        from riccikit import transport as tr

        mu = ms.laplace_product(12)
        per_coordinate = np.array([dens.moment(2) for dens in mu.coord_densities])
        moment = tr.Density1D.moment
        calls = []

        def counted(self, k):
            calls.append(k)
            return moment(self, k)

        monkeypatch.setattr(tr.Density1D, "moment", counted)
        got = mu.coordinate_moment(2)
        assert calls == [2]
        assert got.dtype == per_coordinate.dtype
        assert np.array_equal(got, per_coordinate)


class TestSpectralCrossOracle:
    def test_poincare_constant_vs_inverse_hessian_bound(self):
        # for strongly log-concave 1-D measures the eigensolver constant
        # 1/lambda_1 never exceeds the worst suite ratio of the
        # inverse-Hessian form to the plain Dirichlet form
        a, b_ = 1.0, 0.6
        pot = lambda t: 0.5 * a * t * t + b_ * np.log(np.cosh(t))
        d2 = lambda t: a + b_ / np.cosh(t) ** 2
        lam, cp = eng.spectral_gap_1d(pot, (-8.0, 8.0), n=4096)
        from riccikit import transport as tr

        dens = tr.Density1D(pot, (-np.inf, np.inf))
        mu = ms.density_1d(dens, d1=lambda t: a * t + b_ * np.tanh(t), d2=d2)
        samples = eng.sample_measure(mu, 200000, 3)
        worst = 0.0
        for f in eng.default_suite(1, seed=0):
            g = f.grad(samples)[:, 0]
            w = 1.0 / np.vectorize(d2)(samples[:, 0])
            worst = max(worst, float((w * g * g).mean() / (g * g).mean()))
        assert cp <= worst * 1.02


class TestBatchFirstDensities:
    @pytest.mark.parametrize(
        "doc",
        [{"kind": k} for k in sorted(ms.CONSTRUCTORS)
         if k not in ("power_product", "flat_power_1d", "uniform_body")]
        + [{"kind": "power_product", "q": 1.5}, {"kind": "flat_power_1d", "q": 3.0}],
        ids=lambda doc: doc["kind"],
    )
    def test_density_build_calls_potential_on_arrays(self, doc):
        # a build evaluates its potential on whole grids, not once per node
        from riccikit import transport as tr

        dens = ms.from_spec(doc, 1).coord_densities[0]
        shapes = []

        def counted(t):
            shapes.append(np.shape(t))
            return dens.raw_potential(t)

        rebuilt = tr.Density1D(counted, dens.support, name=dens.name)
        assert len(shapes) <= 32
        assert all(len(s) == 1 for s in shapes)
        assert np.array_equal(rebuilt.cdf_grid, dens.cdf_grid)


def _batch_cases():
    """(potential, d) for the stock potentials, every measure kind's
    potential and the two finite-difference fallbacks."""
    phi = logcosh_phi(3)
    cases = [
        ("quadratic", fields.quadratic_potential(
            [[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 1.5]], center=[0.1, -0.2, 0.3]
        ), 3),
        ("gaussian_potential", fields.gaussian_potential(3, sigma=0.7), 3),
        ("linear", fields.linear_potential([1.0, -2.0, 0.5]), 3),
        ("power", fields.power_potential(0.5, 2.5, dim=3), 3),
        ("fd_from_grad", fields.PotentialField(fn=phi.fn, grad=phi.grad), 3),
        ("fd_from_value", fields.PotentialField(fn=phi.fn), 3),
        ("gamma_power_product", ms.gamma_power_product(3, 1.5).potential, 3),
    ]
    docs = [{"kind": "gaussian"}, {"kind": "exp_product"},
            {"kind": "power_product", "q": 1.5}, {"kind": "exp_quad_orthant"},
            {"kind": "trunc_gaussian_orthant"}, {"kind": "uniform_box_orthant"},
            {"kind": "laplace_product"}, {"kind": "trunc_gaussian_sym"},
            {"kind": "uniform_body", "body": {"kind": "ball"}}]
    cases += [(doc["kind"], ms.from_spec(doc, 3).potential, 3) for doc in docs]
    for doc in ({"kind": "uniform_interval"}, {"kind": "cos_interval"},
                {"kind": "flat_power_1d", "q": 3.0}):
        cases.append((doc["kind"], ms.from_spec(doc, 1).potential, 1))
    return [pytest.param(v, d, id=label) for label, v, d in cases]


class TestPotentialBatches:
    @pytest.mark.parametrize("v,d", _batch_cases())
    def test_batch_equals_stacked_points(self, v, d):
        # every point lies inside the support of every measure above
        pts = np.random.default_rng(4).uniform(0.05, 0.45, (16, d))
        for method, shape in ((v.gradient, (16, d)), (v.hessian, (16, d, d))):
            batch = method(pts)
            stacked = np.array([method(x) for x in pts])
            assert batch.shape == stacked.shape == shape
            np.testing.assert_allclose(batch, stacked, rtol=1e-14, atol=1e-14)


# sha256 prefixes of `sample(n, 7)` for every product kind, pinned on the
# graded density nodes (numpy 2.4.6, x86-64); the guided quantile is bit for
# bit scipy's PCHIP on those nodes (TestGuidedQuantile)
_SAMPLE_DIGESTS = {
    ("gaussian", 1, 100): "03e2e4c042d5d265",
    ("gaussian", 1, 4001): "11ffbf02cecc0ced",
    ("gaussian", 3, 100): "ee4d4f206d054341",
    ("gaussian", 3, 4001): "840e516869b0a619",
    ("gaussian", 12, 100): "782050f204358c7f",
    ("gaussian", 12, 4001): "ddd6265cd864d667",
    ("exp_product", 1, 100): "a48fb5d6bb00b32c",
    ("exp_product", 1, 4001): "16f93a0188a7706e",
    ("exp_product", 3, 100): "541c78cacfb6ef57",
    ("exp_product", 3, 4001): "7d5dbac4d6445400",
    ("exp_product", 12, 100): "387c160ed8746eda",
    ("exp_product", 12, 4001): "d5e3fc77747d7e15",
    ("power_product", 1, 100): "8cc1060b52438de8",
    ("power_product", 1, 4001): "40c0fb121db6713c",
    ("power_product", 3, 100): "4e1525cd5cd81491",
    ("power_product", 3, 4001): "05b41c3262990cd7",
    ("power_product", 12, 100): "0732582f01d4226a",
    ("power_product", 12, 4001): "caf09a904ce09bb6",
    ("exp_quad_orthant", 1, 100): "8a4b13aa3b778c42",
    ("exp_quad_orthant", 1, 4001): "3527999645d58fe4",
    ("exp_quad_orthant", 3, 100): "e27b6950492dd3d1",
    ("exp_quad_orthant", 3, 4001): "232d7490d7f932ca",
    ("exp_quad_orthant", 12, 100): "ebfc5555804aa74f",
    ("exp_quad_orthant", 12, 4001): "49107c3deadc270f",
    ("trunc_gaussian_orthant", 1, 100): "84697b8ac5d4a0ff",
    ("trunc_gaussian_orthant", 1, 4001): "f014836df978ecfe",
    ("trunc_gaussian_orthant", 3, 100): "6dd5231343df5127",
    ("trunc_gaussian_orthant", 3, 4001): "b3d4c79d75b39f2a",
    ("trunc_gaussian_orthant", 12, 100): "28157f327dad70c7",
    ("trunc_gaussian_orthant", 12, 4001): "353b687e4ca7ddb5",
    ("uniform_box_orthant", 1, 100): "f84774927cb4cf4e",
    ("uniform_box_orthant", 1, 4001): "888e32005ad642cf",
    ("uniform_box_orthant", 3, 100): "c92413d5767ea3e7",
    ("uniform_box_orthant", 3, 4001): "a130b61a5db46689",
    ("uniform_box_orthant", 12, 100): "3f5d4f9056092c39",
    ("uniform_box_orthant", 12, 4001): "0e1bc838e740947b",
    ("laplace_product", 1, 100): "0b712d68c9b79c7e",
    ("laplace_product", 1, 4001): "0eabfe8882f26c93",
    ("laplace_product", 3, 100): "e6076bb4b0d6a1cb",
    ("laplace_product", 3, 4001): "5f41ecb0437ba02c",
    ("laplace_product", 12, 100): "b4621418ddf994f7",
    ("laplace_product", 12, 4001): "28e4cc0f2d7a35d1",
    ("trunc_gaussian_sym", 1, 100): "6d5910ea6ffdf8e3",
    ("trunc_gaussian_sym", 1, 4001): "7eb46bf49a1c316b",
    ("trunc_gaussian_sym", 3, 100): "cfdc95e5af0ffae9",
    ("trunc_gaussian_sym", 3, 4001): "812f806f2b14d7df",
    ("trunc_gaussian_sym", 12, 100): "d3b561b9bc82f357",
    ("trunc_gaussian_sym", 12, 4001): "0899452747e3dcf3",
    ("uniform_interval", 1, 100): "f6031d6f32eba076",
    ("uniform_interval", 1, 4001): "6341d96a077dd0fe",
    ("cos_interval", 1, 100): "5f52bd344d3646a7",
    ("cos_interval", 1, 4001): "e1c930c50ff9bd97",
    ("flat_power_1d", 1, 100): "5970a74ff08c6a44",
    ("flat_power_1d", 1, 4001): "0f3608f6fe86d5c0",
    ("gaussian+orthant", 4, 4001): "3a127d2232879d56",
    ("laplace_product+orthant", 4, 4001): "496a36f92c7f7bd3",
    ("trunc_gaussian_sym+orthant", 4, 4001): "dffd51a18aee0aaa",
    ("gamma_power_product", 3, 4001): "fca85670b664ca99",
}

_SPEC_PARAMS = {"power_product": {"q": 1.5}, "flat_power_1d": {"q": 3.0}}


def _spec_for(kind, d):
    from riccikit import catalog

    if kind.endswith("+orthant"):
        return catalog._conditioned_orthant(ms.from_spec({"kind": kind[:-8]}, d))
    if kind == "gamma_power_product":
        return ms.gamma_power_product(d, 1.5)
    return ms.from_spec({"kind": kind, **_SPEC_PARAMS.get(kind, {})}, d)


class TestSampleStream:
    @pytest.mark.parametrize("kind", sorted({k for k, _, _ in _SAMPLE_DIGESTS}))
    def test_sample_bytes_pinned(self, kind):
        for (k, d, n), digest in _SAMPLE_DIGESTS.items():
            if k != kind:
                continue
            pts = _spec_for(kind, d).sample(n, 7)
            assert pts.shape == (n, d) and pts.flags["F_CONTIGUOUS"]
            assert hashlib.sha256(pts.tobytes()).hexdigest()[:16] == digest, (d, n)

    def test_distinct_densities_draw_in_coordinate_order(self):
        # coordinates 0 and 2 share a density, 1 has its own: the (d, c)
        # block is the d column draws of the stream, whatever the grouping
        from riccikit import transport as tr

        a, b = tr.gaussian_density(), tr.exponential_density()
        spec = ms._product_spec("mixed", [a, b, a])
        rng = np.random.default_rng(5)
        cols = [dens.ppf_many(rng.uniform(size=301)) for dens in (a, b, a)]
        pts = spec.sampler(301, np.random.default_rng(5))
        assert pts.flags["C_CONTIGUOUS"]
        assert np.array_equal(pts, np.column_stack(cols))

    def test_conditioned_orthant_builds_one_density(self, monkeypatch):
        from riccikit import catalog, transport as tr

        mu = ms.laplace_product(4)
        builds = []

        class Counted(tr.Density1D):
            def __init__(self, *args, **kwargs):
                builds.append(args[1])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(catalog.transport, "Density1D", Counted)
        plus = catalog._conditioned_orthant(mu)
        assert len(builds) == 1
        assert len({id(dens) for dens in plus.coord_densities}) == 1
        assert plus.coord_densities[0].support == (0.0, math.inf)
