"""Sampling specs: marginals, quantile accuracy, determinism."""

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
