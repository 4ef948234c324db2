"""Closed-form family tensors against hand values, paper constants, and the
finite-difference pipeline."""

import math

import numpy as np
import pytest

from riccikit import families as fam, fields, tensor_core as tc
from riccikit.errors import DegenerateHessian, NonUnitNormal, ProfileNotPositive

from conftest import logcosh_phi


def ricq_value(c, q, x):
    return c * q * q / 2.0 * x ** (q - 2.0) + q * (2.0 - q) / 4.0 * x**-2.0


class TestHessianRicci:
    def test_identity_gaussian_transport(self):
        d = 2
        phi = fields.quadratic_potential(np.eye(d))
        v = fields.gaussian_potential(d)
        data = fam.HessianMetricData.direct(phi, v, v)
        ric, h = fam.hessian_ricci(data, [0.3, -0.5], return_h=True)
        assert np.abs(h).max() == 0.0
        assert np.allclose(ric, np.eye(d))

    @pytest.mark.parametrize("q,c", [(1.5, 1.0), (3.0, 0.7)])
    def test_ricq_family(self, q, c):
        # Phi = V = c x^q: the self-transport metric reproduces the exact
        # one-dimensional expression
        v = fields.power_potential(c, q, dim=1)
        data = fam.HessianMetricData.self_transport(v)
        for x in (0.6, 1.0, 1.7):
            got = fam.hessian_ricci(data, [x])[0, 0]
            assert got == pytest.approx(ricq_value(c, q, x), rel=1e-12)

    def test_separable_matches_product_ricci(self, rng):
        d = 2
        alpha = 0.3
        phi = logcosh_phi(d, alpha=alpha)
        v = fields.quadratic_potential([[1.1, 0.15], [0.15, 0.8]])
        data = fam.HessianMetricData.from_pushforward(phi, v)

        # u = (Phi'')^{-1/2} = w^{-1/2}, w = 1 + alpha sech^2
        def w0(t):
            return 1.0 + alpha / math.cosh(t) ** 2

        def w1(t):
            return -2.0 * alpha * math.tanh(t) / math.cosh(t) ** 2

        def w2(t):
            return alpha * (4.0 * math.sinh(t) ** 2 - 2.0) / math.cosh(t) ** 4

        def u(t):
            return w0(t) ** -0.5

        def du(t):
            return -0.5 * w0(t) ** -1.5 * w1(t)

        def ddu(t):
            return 0.75 * w0(t) ** -2.5 * w1(t) ** 2 - 0.5 * w0(t) ** -1.5 * w2(t)

        pdata = fam.ProductMetricData([(u, du, ddu)] * d)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, d)
            a = fam.hessian_ricci(data, x)
            b = fam.product_ricci(pdata, v, x)
            assert np.abs(a - b).max() < 1e-8

    def test_matches_fd_pipeline(self, rng):
        d = 2
        phi = logcosh_phi(d)
        w = fields.quadratic_potential([[1.3, 0.2], [0.2, 0.9]], center=[0.1, -0.2])
        data = fam.HessianMetricData.from_transport_pair(phi, w, d)
        metric = fields.hessian_metric(phi, d)
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, d)
            closed = fam.hessian_ricci(data, x)
            cp = tc.generalized_ricci(metric, data.v, x)
            assert np.abs(closed - cp.ric_gmu).max() < 1e-4

    def test_ill_conditioned_requires_analytic_thirds(self):
        # condition number beyond 1e6 forbids stencil third derivatives
        from riccikit.errors import MissingThirdDerivatives

        d = 2
        phi = fields.PotentialField(
            fn=lambda x: 0.5 * (x[0] ** 2 + 1e-8 * x[1] ** 2),
            grad=lambda x: np.array([x[0], 1e-8 * x[1]]),
            hess=lambda x: np.diag([1.0, 1e-8]),
        )
        v = fields.gaussian_potential(d)
        data = fam.HessianMetricData.direct(phi, v, v)
        with pytest.raises(MissingThirdDerivatives):
            fam.hessian_ricci(data, [0.3, 0.3])


class TestHessianTraceForm:
    @pytest.mark.parametrize("d", [1, 3, 6, 12])
    def test_matches_the_four_operand_contraction(self, d):
        rng = np.random.default_rng(d)
        a = rng.normal(size=(d, d))
        g = a @ a.T + d * np.eye(d)
        t = rng.normal(size=(d, d, d))
        # fully symmetric, as a third-derivative tensor is
        t = sum(np.transpose(t, p) for p in
                [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)])
        ginv = np.linalg.inv(g)
        want = np.einsum("ab,bci,ce,eaj->ij", ginv, t, ginv, t)
        got = fam.hessian_trace_form(g, t)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_hessian_metric_calls_the_analytic_hessian(self):
        d = 3
        phi = logcosh_phi(d)
        metric = fields.hessian_metric(phi, d)
        assert metric.fn is phi.hess
        pts = np.random.default_rng(1).normal(size=(7, d))
        want = np.array([phi.hessian(p) for p in pts])
        assert np.array_equal(metric.values(pts), want)


class TestHLowerBound:
    def test_identity_transport_zero(self):
        d = 2
        phi = fields.quadratic_potential(np.eye(d))
        v = fields.gaussian_potential(d)
        data = fam.HessianMetricData.direct(phi, v, v)
        assert np.abs(fam.hessian_H_lower_bound(data, [0.4, 0.1])).max() == 0.0

    def test_1d_equality(self):
        # Cauchy-Schwarz over a single eigenvalue is tight: bound == H
        v = fields.power_potential(1.0, 3.0, dim=1)
        data = fam.HessianMetricData.self_transport(v)
        for x in (0.5, 1.0, 2.0):
            _, h = fam.hessian_ricci(data, [x], return_h=True)
            lb = fam.hessian_H_lower_bound(data, [x])
            assert lb[0, 0] == pytest.approx(h[0, 0], rel=1e-10)

    def test_psd_dominance_d3(self, rng):
        d = 3
        phi = logcosh_phi(d, alpha=0.5)
        w = fields.quadratic_potential(
            [[1.2, 0.1, 0.0], [0.1, 0.9, 0.2], [0.0, 0.2, 1.4]]
        )
        data = fam.HessianMetricData.from_transport_pair(phi, w, d)
        for _ in range(100):
            x = rng.uniform(-1.2, 1.2, d)
            _, h = fam.hessian_ricci(data, x, return_h=True)
            lb = fam.hessian_H_lower_bound(data, x)
            assert np.linalg.eigvalsh(h - lb)[0] > -1e-10


class TestRefinedQ:
    def test_identity_gaussian(self):
        d = 2
        phi = fields.quadratic_potential(np.eye(d))
        v = fields.gaussian_potential(d)
        data = fam.HessianMetricData.direct(phi, v, v)
        assert np.allclose(fam.refined_Q(data, [0.2, 0.6]), np.eye(d))

    def test_constant_target_halves_the_negdim_weight(self, rng):
        # W constant: Q = (D^2 V + (1/2d) grad V tensor grad V) / 2
        d = 2
        phi = fields.quadratic_potential(np.eye(d))  # irrelevant when W is flat
        v = fields.quadratic_potential([[1.5, 0.2], [0.2, 0.9]], center=[0.3, 0.0])
        w = fields.quadratic_potential(np.zeros((d, d)))
        data = fam.HessianMetricData.direct(phi, v, w)
        for _ in range(10):
            x = rng.uniform(-1, 1, d)
            g = v.gradient(x)
            want = 0.5 * (v.hessian(x) + np.outer(g, g) / (2.0 * d))
            assert np.allclose(fam.refined_Q(data, x), want, atol=1e-12)

    def test_ric_dominates_q(self, rng):
        d = 2
        phi = logcosh_phi(d, alpha=0.45)
        w = fields.quadratic_potential([[1.1, 0.25], [0.25, 0.8]])
        data = fam.HessianMetricData.from_transport_pair(phi, w, d)
        for _ in range(100):
            x = rng.uniform(-1.2, 1.2, d)
            ric = fam.hessian_ricci(data, x)
            q = fam.refined_Q(data, x)
            assert np.linalg.eigvalsh(ric - q)[0] > -1e-8


class TestProductRicci:
    def test_euclidean_profile(self):
        d = 2
        data = fam.ProductMetricData.euclidean(d)
        v = fields.quadratic_potential([[2.0, 0.3], [0.3, 1.0]])
        x = np.array([0.4, 0.8])
        assert np.allclose(fam.product_ricci(data, v, x), v.hessian(x))

    def test_power_profile_paper_value(self):
        # u = x^p, p=1/2, V = sum x_i at x = 1: V_xi p/x + p(1-p)/x^2 = 3/4
        d = 3
        data = fam.ProductMetricData.power(0.5, d)
        v = fields.linear_potential(np.ones(d))
        got = fam.product_ricci(data, v, np.ones(d))
        assert np.allclose(got, 0.75 * np.eye(d), atol=1e-12)

    def test_exponential_profile_lower_bound(self):
        # u = exp(x), V = 2 sum x_i: diag{lam (V_xi - lam)} = 1 exactly
        d = 2
        data = fam.ProductMetricData.exponential(1.0, d)
        v = fields.linear_potential([2.0, 2.0])
        got = fam.product_ricci(data, v, [0.3, 1.1])
        assert np.allclose(got, np.eye(d), atol=1e-12)

    def test_profile_must_be_positive(self):
        data = fam.ProductMetricData([(lambda t: -1.0, lambda t: 0.0, lambda t: 0.0)])
        v = fields.linear_potential([1.0])
        with pytest.raises(ProfileNotPositive):
            fam.product_ricci(data, v, [1.0])

    def test_orthant_convexity_check(self):
        ok, margin = fam.ProductMetricData.power(0.5, 2).geodesically_convex_orthant(
            np.linspace(0.1, 3.0, 11)
        )
        assert ok and margin >= 0.0


class TestRic1dExact:
    def test_gaussian(self):
        assert fam.ric_1d_exact(fields.gaussian_potential(1), [0.3]) == pytest.approx(
            1.0
        )

    def test_paper_arithmetic(self):
        # q = 3/2, c = 1, x = 1: 9/8 + 3/16 = 21/16
        v = fields.power_potential(1.0, 1.5, dim=1)
        assert fam.ric_1d_exact(v, [1.0]) == pytest.approx(21.0 / 16.0, rel=1e-14)

    @pytest.mark.parametrize("q", [1.2, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_ricq_identity(self, q, c):
        v = fields.power_potential(c, q, dim=1)
        for x in np.linspace(0.3, 3.0, 50):
            got = fam.ric_1d_exact(v, [x])
            assert got == pytest.approx(ricq_value(c, q, x), rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("q", [1.2, 1.5, 2.0])
    def test_ratio_lower_bound(self, q):
        # Ric / g >= q/(2(q-1)) for the metric g = V''
        c = 1.0
        v = fields.power_potential(c, q, dim=1)
        bound = q / (2.0 * (q - 1.0))
        for x in np.geomspace(0.2, 50.0, 40):
            ratio = fam.ric_1d_exact(v, [x]) / v.hessian([x])[0, 0]
            assert ratio >= bound - 1e-9

    def test_degenerate_hessian(self):
        v = fields.linear_potential([1.0])
        with pytest.raises(DegenerateHessian):
            fam.ric_1d_exact(v, [1.0])

    def test_agrees_with_hessian_ricci_on_grid(self):
        v = fields.power_potential(1.0, 2.5, dim=1)
        data = fam.HessianMetricData.self_transport(v)
        for x in np.linspace(0.4, 2.0, 9):
            a = fam.ric_1d_exact(v, [x])
            b = fam.hessian_ricci(data, [x])[0, 0]
            assert a == pytest.approx(b, rel=1e-7)


class TestEntropicHessianRicci:
    def test_gaussian_identity(self):
        got = fam.entropic_hessian_ricci(fields.gaussian_potential(2), [0.3, -0.5])
        assert np.abs(got - np.eye(2)).max() < 1e-7

    def test_collapses_to_ric_1d(self):
        v = logcosh_phi(1, alpha=0.4)
        for x in (0.0, 0.6, -1.1):
            a = fam.entropic_hessian_ricci(v, [x])[0, 0]
            b = fam.ric_1d_exact(v, [x])
            assert a == pytest.approx(b, abs=1e-7)

    def test_example2_dual_convexity(self):
        # the flattened q>2 construction has convex F: second differences of
        # the closed-form F values stay above -1e-8
        from riccikit.transport import FlattenedPowerPotential

        fp = FlattenedPowerPotential(3.0)
        y = np.linspace(0.01, 6.0, 1201)
        p = fp.p
        inner = y <= 1.0
        f_vals = np.where(
            inner,
            y**2 / p + math.log(p),
            y / p + (y**p - y) / (p * (p - 1.0)) - (p - 2.0) * np.log(np.maximum(y, 1e-12))
            + math.log(p),
        )
        second = np.diff(f_vals, 2) / (y[1] - y[0]) ** 2
        assert second.min() > -1e-8


class TestConformal:
    def test_trivial_gaussian(self):
        d = 3
        data = fam.ConformalMetricData(phi=fields.quadratic_potential(np.zeros((d, d))))
        got = fam.conformal_ricci_N(
            data, fields.gaussian_potential(d), math.inf, [0.2, 0.5, -0.4]
        )
        assert np.allclose(got, np.eye(d), atol=1e-12)

    def test_radial_eigenvalue_split(self):
        # the proof display: radial/tangential eigenvalues at V = 0
        d, theta, eps, n_param = 3, 0.8, 1e-6, -2.0
        data = fam.ConformalMetricData.radial(theta, eps, d)
        v0 = fields.quadratic_potential(np.zeros((d, d)))
        r = 0.7
        x = np.array([r, 0.0, 0.0])
        ric = fam.conformal_ricci_N(data, v0, n_param, x)
        ev = fam.radial_conformal_eigenvalues(theta, eps, n_param, d, r)
        assert ric[0, 0] == pytest.approx(ev.radial_eps, rel=1e-12)
        assert ric[1, 1] == pytest.approx(ev.tangential_eps, rel=1e-12)
        assert abs(ric[0, 1]) < 1e-14

    @pytest.mark.parametrize("n_param", [math.inf, -2.0])
    def test_matches_fd_pipeline(self, n_param, rng):
        d = 3
        data = fam.ConformalMetricData.radial(0.8, 1e-6, d)
        v = fields.gaussian_potential(d)
        metric = fields.conformal_metric(data.phi, d)
        for _ in range(100):
            x = rng.uniform(0.45, 0.95, d) * rng.choice([-1.0, 1.0], d)
            closed = fam.conformal_ricci_N(data, v, n_param, x)
            cp = tc.generalized_ricci(metric, v, x, n_param=n_param)
            assert np.abs(closed - cp.ric_gmu_n).max() < 1e-4


class TestRadialEigenvalues:
    def test_optimal_theta_paper_values(self):
        # N = -d, d = 8: theta = 1, radial coefficient 8 - 4 = 4, equal to
        # the curvature bound -d(d-N)/(4N)
        d, n_param = 8, -8.0
        theta = fam.radial_theta_optimal(n_param, d)
        assert theta == pytest.approx(1.0)
        ev = fam.radial_conformal_eigenvalues(theta, 0.0, n_param, d, 1.0)
        assert ev.radial == pytest.approx(4.0)
        assert -d * (d - n_param) / (4.0 * n_param) == pytest.approx(4.0)

    def test_zero_theta(self):
        ev = fam.radial_conformal_eigenvalues(0.0, 0.0, -1.0, 5, 1.3)
        assert ev.radial == 0.0 and ev.tangential == 0.0

    def test_small_cond_equivalence(self):
        # at the optimal theta, [tangential >= radial] iff (1/2 - 1/N) d >= 3
        for d in range(3, 13):
            for n_param in (-0.5, -1.0, -2.0, -4.0, -8.0, -16.0):
                theta = fam.radial_theta_optimal(n_param, d)
                adm = fam.radial_admissibility(theta, n_param, d)
                small_cond = (0.5 - 1.0 / n_param) * d - 3.0
                assert (adm["tangential_dominates"] >= -1e-12) == (
                    small_cond >= -1e-12
                )

    def test_d_at_least_6_suffices(self):
        for d in range(6, 12):
            for n_param in (-0.25, -1.0, -d, -50.0):
                theta = fam.radial_theta_optimal(n_param, d)
                adm = fam.radial_admissibility(theta, n_param, d)
                assert adm["tangential_dominates"] >= -1e-12
                assert adm["tangential_nonneg"] >= 0.0
                assert adm["radial_nonneg"] >= 0.0


class TestConformalBoundary:
    def test_trivial_factor(self):
        d = 3
        data = fam.ConformalMetricData(
            phi=fields.quadratic_potential(np.zeros((d, d)))
        )
        v0 = fields.quadratic_potential(np.zeros((d, d)))
        n0 = np.array([1.0, 0.0, 0.0])
        ii0 = np.diag([0.0, 1.0, 1.0])
        ii, h, factor = fam.conformal_boundary(data, v0, [1.0, 0, 0], n0, ii0, 2.0)
        assert np.allclose(ii, ii0) and h == pytest.approx(2.0) and factor == 1.0

    def test_unit_sphere_radial(self):
        # H_{g,mu} = |x|^theta ((d-1) + theta <x,n>/|x|^2) = (d-1) + theta at R=1
        d, theta = 4, 0.6
        data = fam.ConformalMetricData.radial(theta, 0.0, d)
        v0 = fields.quadratic_potential(np.zeros((d, d)))
        x = np.zeros(d)
        x[0] = 1.0
        ii0 = np.eye(d) - np.outer(x, x)
        _, h, factor = fam.conformal_boundary(data, v0, x, x, ii0, d - 1.0)
        assert h == pytest.approx((d - 1.0) + theta, rel=1e-12)
        assert factor == pytest.approx(1.0)  # |x|^theta at |x| = 1

    @pytest.mark.parametrize("theta,convex", [(0.5, True), (0.999, True), (1.2, False)])
    def test_local_convexity_threshold(self, theta, convex):
        # on the unit sphere II_g >= 0 iff theta <= 1
        d = 3
        data = fam.ConformalMetricData.radial(theta, 0.0, d)
        v0 = fields.quadratic_potential(np.zeros((d, d)))
        x = np.array([0.0, 1.0, 0.0])
        ii0 = np.eye(d) - np.outer(x, x)
        ii, _, _ = fam.conformal_boundary(data, v0, x, x, ii0, d - 1.0)
        assert (np.linalg.eigvalsh(ii)[0] >= -1e-12) == convex

    def test_non_unit_normal_rejected(self):
        d = 2
        data = fam.ConformalMetricData.radial(0.5, 0.0, d)
        v0 = fields.quadratic_potential(np.zeros((d, d)))
        with pytest.raises(NonUnitNormal):
            fam.conformal_boundary(
                data, v0, [1.0, 0.0], [2.0, 0.0], np.eye(d), 1.0
            )


class TestRhoP:
    def test_half_is_lambda_over_two(self):
        assert fam.rho_p_slope(0.5, 1.0) == pytest.approx(0.5)
        assert fam.rho_p_slope(0.5, 3.0) == pytest.approx(1.5)

    @pytest.mark.parametrize("p", [0.55, 0.6, 0.75, 0.9])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_matches_minimization_oracle(self, p, lam):
        # rho_p = inf_x x^{2p} (lam p / x + p(1-p)/x^2)
        x = np.geomspace(1e-4, 1e6, 400001)
        oracle = (lam * p * x ** (2 * p - 1) + p * (1 - p) * x ** (2 * p - 2)).min()
        assert fam.rho_p_slope(p, lam) == pytest.approx(float(oracle), abs=1e-6)

    def test_half_limit_by_minimization(self):
        lam = 1.0
        x = np.geomspace(1.0, 1e9, 2000001)
        oracle = (lam * 0.5 + 0.25 / x).min()
        assert fam.rho_p_slope(0.5, lam) == pytest.approx(float(oracle), abs=1e-6)

    def test_bounded_variant(self):
        assert fam.rho_p_bounded(0.5, 1.0) == pytest.approx(0.25)
        # p(1-p)/x^2 >= rho_p x^{-2p} on (0, R]
        p, r = 0.75, 2.0
        rho = fam.rho_p_bounded(p, r)
        x = np.linspace(1e-3, r, 10001)
        assert (p * (1 - p) / x**2 - rho * x ** (-2 * p)).min() >= -1e-12
