"""Sampling specs: marginals, quantile accuracy, determinism."""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from riccikit import engine as eng, fields, measures as ms

from conftest import logcosh_phi


class TestSampling:
    def test_uniform_box_mean(self):
        mu = ms.uniform_box_orthant(2, 1.0)
        pts = eng.sample_measure(mu, 100000, 3)
        assert np.abs(pts.mean(axis=0) - 0.5).max() < 3.0 / math.sqrt(100000)

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


# sha256 prefixes of `sample(n, 7)` for every product kind, pinned from the
# column-by-column sampler with scipy's PCHIP evaluation (numpy 2.4.6, scipy
# 1.17.1, x86-64); the block sampler and the guided quantile keep them
_SAMPLE_DIGESTS = {
    ("gaussian", 1, 100): "221c6618f8eb85bd",
    ("gaussian", 1, 4001): "842ce632653647f7",
    ("gaussian", 3, 100): "ab0c6a677ac93896",
    ("gaussian", 3, 4001): "659b53fd2ce56a12",
    ("gaussian", 12, 100): "a1b99b4466466bdf",
    ("gaussian", 12, 4001): "8605fb0caf4a3102",
    ("exp_product", 1, 100): "c518eb309ef2482b",
    ("exp_product", 1, 4001): "0fa029ed3a87f48b",
    ("exp_product", 3, 100): "df8f6bb0908596b4",
    ("exp_product", 3, 4001): "606c4ceff32b194c",
    ("exp_product", 12, 100): "50ccf7d774476c9f",
    ("exp_product", 12, 4001): "229a13bbd18cb7f1",
    ("power_product", 1, 100): "ff99652d6157b725",
    ("power_product", 1, 4001): "ace250180b014723",
    ("power_product", 3, 100): "2db5e85a5f4b0f09",
    ("power_product", 3, 4001): "f7c2166785dc7e49",
    ("power_product", 12, 100): "848ccf523bad8f22",
    ("power_product", 12, 4001): "21f792b02322cdbd",
    ("exp_quad_orthant", 1, 100): "cfb9183fdd1ac9e6",
    ("exp_quad_orthant", 1, 4001): "8f8305f286e8c549",
    ("exp_quad_orthant", 3, 100): "cabcf2015c662126",
    ("exp_quad_orthant", 3, 4001): "ed92612580901593",
    ("exp_quad_orthant", 12, 100): "1e2d7236e421edc3",
    ("exp_quad_orthant", 12, 4001): "b4b639ed96c9b6a2",
    ("trunc_gaussian_orthant", 1, 100): "868dc2815f388724",
    ("trunc_gaussian_orthant", 1, 4001): "fefcb07ef402b139",
    ("trunc_gaussian_orthant", 3, 100): "13175ca94bb0cab2",
    ("trunc_gaussian_orthant", 3, 4001): "5f177ba14267e050",
    ("trunc_gaussian_orthant", 12, 100): "12dbb45642aaf7dc",
    ("trunc_gaussian_orthant", 12, 4001): "b5dc2e199900d968",
    ("uniform_box_orthant", 1, 100): "c8860e2bd0e7b6f3",
    ("uniform_box_orthant", 1, 4001): "ad57eae2e6167dc3",
    ("uniform_box_orthant", 3, 100): "a3d48c75ec33308b",
    ("uniform_box_orthant", 3, 4001): "86e8f8290b6adef2",
    ("uniform_box_orthant", 12, 100): "84ea85a1b231f761",
    ("uniform_box_orthant", 12, 4001): "f3b16ba6d75d8711",
    ("laplace_product", 1, 100): "bd5db0878a3789b3",
    ("laplace_product", 1, 4001): "0a6e8c4e40566915",
    ("laplace_product", 3, 100): "705820c7ab0fe919",
    ("laplace_product", 3, 4001): "c28c8ec989db034b",
    ("laplace_product", 12, 100): "ad979e1ba536b872",
    ("laplace_product", 12, 4001): "d66c697bf576a1ba",
    ("trunc_gaussian_sym", 1, 100): "55ab355ec37e3989",
    ("trunc_gaussian_sym", 1, 4001): "6925438ca16f2a13",
    ("trunc_gaussian_sym", 3, 100): "d388ce9af59f2c8b",
    ("trunc_gaussian_sym", 3, 4001): "26db0cd9aab42a5d",
    ("trunc_gaussian_sym", 12, 100): "6ff3ada36d1f97ff",
    ("trunc_gaussian_sym", 12, 4001): "8a14b9d74d961dbe",
    ("uniform_interval", 1, 100): "5413f91b878ade05",
    ("uniform_interval", 1, 4001): "63b71db0e6246fac",
    ("cos_interval", 1, 100): "61e8614571413031",
    ("cos_interval", 1, 4001): "18f13a10e6ea1757",
    ("flat_power_1d", 1, 100): "767b40b78e4dec16",
    ("flat_power_1d", 1, 4001): "9e80fb3444c689a0",
    ("gaussian+orthant", 4, 4001): "aaf5fa402da53ae9",
    ("laplace_product+orthant", 4, 4001): "12afef9f1477d285",
    ("trunc_gaussian_sym+orthant", 4, 4001): "1df419123b1a6761",
    ("gamma_power_product", 3, 4001): "7cb274616a5af880",
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
            assert pts.shape == (n, d) and pts.flags["C_CONTIGUOUS"]
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
