"""Coordinate-geometry operations against closed forms and stencil oracles."""

import hashlib
import math
import re

import numpy as np
import pytest

from riccikit import families, fields, numdiff, tensor_core as tc
from riccikit.errors import (
    InvalidDimensionParameter,
    NonPositiveDefiniteMetric,
    StepTooLarge,
)

from conftest import logcosh_phi


class TestChristoffel:
    def test_euclidean_vanishes(self):
        m = fields.euclidean_metric(3)
        ch = tc.christoffel(m, [0.3, -0.2, 0.7])
        assert np.abs(ch.gamma).max() == 0.0

    def test_power_product_diagonal(self):
        # g_ii = x_i^{-2p}, p = 1/2: Gamma^i_{ii} = g_i'/(2 g_i) = -p/x_i
        m = fields.power_product_metric(0.5, 2)
        ch = tc.christoffel(m, [1.0, 1.0])
        assert ch.gamma[0, 0, 0] == pytest.approx(-0.5, abs=1e-12)
        assert ch.gamma[1, 1, 1] == pytest.approx(-0.5, abs=1e-12)
        mixed = ch.gamma.copy()
        mixed[0, 0, 0] = mixed[1, 1, 1] = 0.0
        assert np.abs(mixed).max() == 0.0

    def test_conformal_closed_form(self, rng):
        # Gamma^m_ij = d_j phi delta^m_i + d_i phi delta^m_j - g0_ij grad^m phi
        d = 3
        phi = fields.quadratic_potential(0.3 * np.eye(d), center=[0.2, -0.1, 0.4])
        m = fields.conformal_metric(phi, d)
        worst = 0.0
        for _ in range(50):
            x = rng.uniform(0.05, 0.95, d)
            g = phi.gradient(x)
            eye = np.eye(d)
            want = (
                np.einsum("mi,j->mij", eye, g)
                + np.einsum("mj,i->mij", eye, g)
                - np.einsum("m,ij->mij", g, eye)
            )
            got = tc.christoffel(m, x).gamma
            worst = max(worst, np.abs(got - want).max() / (1 + np.abs(want).max()))
        assert worst < 1e-5

    def test_symmetry_in_lower_indices(self, rng):
        phi = logcosh_phi(3)
        m = fields.hessian_metric(phi, 3)
        g = tc.christoffel(m, rng.uniform(-1, 1, 3)).gamma
        assert np.abs(g - np.swapaxes(g, 1, 2)).max() < 1e-14

    def test_stencil_order_at_least_1_8(self):
        # halving h changes the FD christoffel by O(h^2)
        d = 2
        m = fields.MetricField(
            dim=d,
            fn=lambda x: np.array(
                [[1.0 + 0.3 * math.sin(x[0]), 0.1 * x[0] * x[1]],
                 [0.1 * x[0] * x[1], 1.2 + 0.2 * math.cos(x[1])]]
            ),
        )
        x = np.array([0.4, -0.3])
        base = tc.christoffel(m, x, h=2e-3).gamma
        half = tc.christoffel(m, x, h=1e-3).gamma
        quarter = tc.christoffel(m, x, h=5e-4).gamma
        e1 = np.abs(base - quarter).max()
        e2 = np.abs(half - quarter).max()
        order = math.log2(e1 / e2) if e2 > 0 else 2.0
        assert order > 1.8

    def test_non_psd_metric_raises(self):
        m = fields.MetricField(dim=2, fn=lambda x: np.diag([1.0, -1.0]))
        with pytest.raises(NonPositiveDefiniteMetric):
            tc.christoffel(m, [0.0, 0.0])

    def test_step_outside_domain_raises(self):
        m = fields.power_product_metric(
            0.5, 2, domain=lambda x: bool(np.all(x > 0))
        )
        with pytest.raises(StepTooLarge):
            tc.geometric_ricci_fd(m, [1e-5, 1e-5])


class TestRiemannianHessian:
    def test_euclidean_is_plain_hessian(self):
        f = fields.quadratic_potential([[2.0, 0.3], [0.3, 1.0]])
        m = fields.euclidean_metric(2)
        x = np.array([0.3, 0.7])
        assert np.allclose(tc.riemannian_hessian(m, f, x), f.hessian(x))

    def test_conformal_closed_form(self, rng):
        d = 3
        phi = fields.quadratic_potential(0.25 * np.eye(d), center=[0.1, 0.0, -0.2])
        f = fields.quadratic_potential(
            [[0.7, 0.1, 0.0], [0.1, 1.2, 0.2], [0.0, 0.2, 0.5]], center=[0.2, 0, 0.1]
        )
        m = fields.conformal_metric(phi, d)
        for _ in range(20):
            x = rng.uniform(-0.8, 0.8, d)
            gp, gf = phi.gradient(x), f.gradient(x)
            want = (
                f.hessian(x)
                - np.outer(gp, gf)
                - np.outer(gf, gp)
                + float(gp @ gf) * np.eye(d)
            )
            got = tc.riemannian_hessian(m, f, x)
            assert np.abs(got - want).max() < 1e-5 * (1 + np.abs(want).max())

    def test_product_metric_hand_value(self):
        # g_ii = x_i^{-1} (p = 1/2), f = sum x_i at x = 1:
        # Gamma^i_{ii} = -1/(2 x_i), so Hess = diag(1/2)
        d = 3
        m = fields.power_product_metric(0.5, d)
        f = fields.linear_potential(np.ones(d))
        got = tc.riemannian_hessian(m, f, np.ones(d))
        assert np.allclose(got, 0.5 * np.eye(d), atol=1e-12)


class TestGeometricRicci:
    def test_euclidean_zero(self):
        m = fields.euclidean_metric(2)
        assert np.abs(tc.geometric_ricci_fd(m, [0.1, 0.2])).max() < 1e-12

    @pytest.mark.parametrize("metric", ["power", "exp"])
    def test_product_metrics_flat(self, metric, rng):
        # any product metric is locally isometric to Euclidean space
        d = 3
        m = (
            fields.power_product_metric(0.5, d)
            if metric == "power"
            else families.ProductMetricData.exponential([1.0, 0.7, 1.3]).metric_field()
        )
        for _ in range(25):
            x = rng.uniform(0.4, 1.6, d)
            assert np.abs(tc.geometric_ricci_fd(m, x)).max() < 1e-4

    def test_conformal_closed_form(self, rng):
        d = 3
        data = families.ConformalMetricData.radial(0.7, 1e-6, d)
        m = fields.conformal_metric(data.phi, d)
        for _ in range(20):
            x = rng.uniform(0.45, 0.95, d) * rng.choice([-1.0, 1.0], d)
            gp, hp = data.phi.gradient(x), data.phi.hessian(x)
            want = -(d - 2) * (hp - np.outer(gp, gp)) - (
                np.trace(hp) + (d - 2) * float(gp @ gp)
            ) * np.eye(d)
            got = tc.geometric_ricci_fd(m, x)
            assert np.abs(got - want).max() < 1e-4


class TestVolumePotential:
    def test_euclidean_identity(self):
        m = fields.euclidean_metric(2)
        v = fields.gaussian_potential(2)
        x = np.array([0.3, 0.4])
        assert tc.lebesgue_to_volume_potential(m, v, x) == pytest.approx(
            v.value(x), abs=1e-14
        )

    def test_identity_hessian_metric(self):
        phi = fields.quadratic_potential(np.eye(2))
        m = fields.hessian_metric(phi, 2)
        v = fields.gaussian_potential(2)
        x = np.array([0.5, -0.1])
        assert tc.lebesgue_to_volume_potential(m, v, x) == pytest.approx(
            v.value(x), abs=1e-14
        )

    def test_power_product_determinant(self):
        # g_ii = x_i^{-2p}, d=2, p=1/2, x=(1,4): P = V + log(det)/2 = V - log(4)/2
        m = fields.power_product_metric(0.5, 2)
        v = fields.linear_potential([1.0, 1.0])
        x = np.array([1.0, 4.0])
        got = tc.lebesgue_to_volume_potential(m, v, x)
        assert got == pytest.approx(v.value(x) - 0.5 * math.log(4.0), abs=1e-12)


class TestGeneralizedRicci:
    def test_gaussian_identity(self):
        m = fields.euclidean_metric(2)
        v = fields.gaussian_potential(2)
        cp = tc.generalized_ricci(m, v, [0.4, -0.2])
        assert np.abs(cp.ric_gmu - np.eye(2)).max() < 1e-9

    def test_gaussian_n_zero(self):
        # N = 0, d = 2: -1/(N-d) = 1/2, correction + x tensor x / 2
        m = fields.euclidean_metric(2)
        v = fields.gaussian_potential(2)
        x = np.array([0.4, -0.2])
        cp = tc.generalized_ricci(m, v, x, n_param=0.0)
        want = np.eye(2) + 0.5 * np.outer(x, x)
        assert np.abs(cp.ric_gmu_n - want).max() < 1e-9

    def test_inf_equals_plain(self):
        m = fields.euclidean_metric(2)
        v = fields.gaussian_potential(2)
        cp = tc.generalized_ricci(m, v, [0.1, 0.9], n_param=math.inf)
        assert np.array_equal(cp.ric_gmu, cp.ric_gmu_n)

    def test_forbidden_dimension_range(self):
        m = fields.euclidean_metric(3)
        v = fields.gaussian_potential(3)
        with pytest.raises(InvalidDimensionParameter):
            tc.generalized_ricci(m, v, [0.1, 0.2, 0.3], n_param=2.0)

    def test_identity_transport_cross_module(self, rng):
        # mu = nu = exp(-x): grad Phi = id, metric is flat, both paths agree
        phi = fields.quadratic_potential(np.eye(1))
        v = fields.linear_potential([1.0])
        data = families.HessianMetricData.direct(phi, v, v)
        m = fields.hessian_metric(phi, 1)
        for _ in range(5):
            x = rng.uniform(0.2, 2.0, 1)
            a = families.hessian_ricci(data, x)
            cp = tc.generalized_ricci(m, v, x)
            assert np.abs(a - cp.ric_gmu).max() < 1e-5

    def test_symmetry_of_outputs(self, rng):
        phi = logcosh_phi(3)
        m = fields.hessian_metric(phi, 3)
        v = fields.gaussian_potential(3)
        cp = tc.generalized_ricci(m, v, rng.uniform(-1, 1, 3), n_param=-2.0)
        for mat in (cp.ric_g, cp.ric_gmu, cp.ric_gmu_n):
            assert np.abs(mat - mat.T).max() == 0.0


# -- one stencil per Ricci point ------------------------------------------------


def _bench_logcosh_phi(d, alpha=0.4):
    """The oracles benchmark's Phi = |x|^2/2 + alpha sum log cosh x_i, with
    vectorized callbacks (bench/workloads.py, _logcosh_phi)."""

    def third(x):
        t = np.zeros((d, d, d))
        idx = np.arange(d)
        t[idx, idx, idx] = -2.0 * alpha * np.tanh(x) / np.cosh(x) ** 2
        return t

    def fourth(x):
        t = np.zeros((d, d, d, d))
        idx = np.arange(d)
        t[idx, idx, idx, idx] = alpha * (4.0 * np.sinh(x) ** 2 - 2.0) / np.cosh(x) ** 4
        return t

    return fields.PotentialField(
        fn=lambda x: 0.5 * float(x @ x) + alpha * float(np.sum(np.log(np.cosh(x)))),
        grad=lambda x: x + alpha * np.tanh(x),
        hess=lambda x: np.eye(d) + alpha * np.diag(1.0 / np.cosh(x) ** 2),
        third=third,
        fourth=fourth,
        convex=True,
    )


def _ricci_cases(d):
    """(metric, V, N, point draw) per case: the three families of the oracles
    benchmark (bench/workloads.py, _ricci_ops), the conformal family at
    N = -3, and the Hessian metric without `deriv` (the central-difference
    Jacobian path)."""
    phi = _bench_logcosh_phi(d)
    hv = fields.quadratic_potential(np.eye(d) + 0.2 * np.ones((d, d)),
                                    center=0.1 * np.ones(d))
    hdata = families.HessianMetricData.from_transport_pair(phi, hv, d)
    cdata = families.ConformalMetricData.radial(0.8, 1e-6, d)
    cmetric = fields.conformal_metric(cdata.phi, d)

    def signed(r):
        return r.uniform(0.45, 0.95, d) * r.choice([-1.0, 1.0], d)

    return {
        "hessian": (fields.hessian_metric(phi, d), hdata.v, math.inf,
                    lambda r: r.uniform(-1.0, 1.0, d)),
        "product": (fields.power_product_metric(0.5, d),
                    fields.quadratic_potential(np.eye(d), center=-2.0 * np.ones(d)),
                    math.inf, lambda r: r.uniform(0.5, 2.0, d)),
        "conformal": (cmetric, fields.gaussian_potential(d), math.inf, signed),
        "conformal_N-3": (cmetric, fields.gaussian_potential(d), -3.0, signed),
        "hessian_noderiv": (fields.MetricField(dim=d, fn=phi.hessian), hdata.v, -3.0,
                            lambda r: r.uniform(-1.0, 1.0, d)),
    }


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _two_points_digest(name, d):
    metric, v, n_param, draw = _ricci_cases(d)[name]
    r = np.random.default_rng(1300 + d)
    arrays = []
    for _ in range(2):
        cp = tc.generalized_ricci(metric, v, draw(r), n_param=n_param)
        arrays += [cp.ric_g, cp.ric_gmu, cp.ric_gmu_n]
    return _digest(*arrays)


def _wavy_metric():
    """A 2-D metric with no `deriv` (central-difference Jacobians)."""
    return fields.MetricField(dim=2, fn=lambda x: np.array(
        [[1.0 + 0.3 * math.sin(x[0]), 0.1 * x[0] * x[1]],
         [0.1 * x[0] * x[1], 1.2 + 0.2 * math.cos(x[1])]]))


# sha256 prefixes of the output bytes, taken from the pointwise implementation
# that evaluated the metric one stencil point per call (numpy 2.4.6,
# scipy 1.17.1, x86-64); the batched stencil must reproduce them bit for bit
RICCI_PINS = {
    ("hessian", 3): "168638faf722c14b",
    ("product", 3): "47961128556fee60",
    ("conformal", 3): "c6101ee0c7a26221",
    ("conformal_N-3", 3): "76b18c57caa9308d",
    ("hessian_noderiv", 3): "cd77c43a6fed8e6f",
    ("hessian", 6): "082095f8274f32fd",
    ("product", 6): "bf581331ad8a827c",
    ("conformal", 6): "f122992bce7b36a5",
    ("conformal_N-3", 6): "d1c6e0428d5d29d2",
    ("hessian_noderiv", 6): "14cb42653a8efb2a",
}


class TestStencilBitIdentity:
    @pytest.mark.parametrize("name,d", sorted(RICCI_PINS))
    def test_generalized_ricci_pins(self, name, d):
        assert _two_points_digest(name, d) == RICCI_PINS[name, d]

    def test_fd_jacobian_path_pins(self):
        m, x = _wavy_metric(), np.array([0.4, -0.3])
        v = fields.gaussian_potential(2)
        cp = tc.generalized_ricci(m, v, x, n_param=0.0)
        assert _digest(cp.ric_g, cp.ric_gmu, cp.ric_gmu_n) == "8f9acfd5fa505266"
        assert _digest(tc.christoffel(m, x, h=1e-3).gamma,
                       tc.christoffel(m, x).gamma) == "3bd417838fb4498a"
        assert _digest(tc.geometric_ricci_fd(m, x, h=2e-3)) == "805e42bdcc05d294"
        assert _digest(tc.riemannian_hessian(m, v, x, h=1e-3)) == "a3410b39a73587cc"
        assert tc.lebesgue_to_volume_potential(m, v, x) == 0.3452344437317285


def _loop_grad(f, x, h):
    """The per-direction loop the shared stencil replaced (reference)."""
    g = np.empty(x.size)
    for k in range(x.size):
        e = np.zeros(x.size)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def _loop_hess(f, x, h):
    d = x.size
    out = np.empty((d, d))
    f0 = f(x)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        out[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / h**2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h
            out[i, j] = out[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h**2)
    return out


class TestStencilReference:
    def test_central_differences_equal_the_loops(self, rng):
        f = lambda p: math.exp(0.3 * p[0]) * math.sin(p[1]) + p[2] ** 3 * p[0]
        F = lambda p: np.outer(p, np.cos(p))
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, 3)
            assert np.array_equal(numdiff.central_grad(f, x, 1e-4), _loop_grad(f, x, 1e-4))
            assert np.array_equal(numdiff.central_hess(f, x, 1e-3), _loop_hess(f, x, 1e-3))
            loop = np.array([_loop_grad(lambda p: F(p)[i, j], x, 1e-4)
                             for i in range(3) for j in range(3)])
            assert np.array_equal(numdiff.central_jacobian(F, x, 1e-4),
                                  loop.T.reshape(3, 3, 3))

    def test_fourth_from_third_equals_the_loop(self):
        v = fields.power_potential(0.7, 3.5)
        v.fourth = None
        h = numdiff.THIRD_ORDER_STEP
        x = np.array([1.3])
        want = (v.third_tensor(x + h)[0, 0, 0] - v.third_tensor(x - h)[0, 0, 0]) / (2.0 * h)
        assert v.fourth_1d(x) == want


class TestStencilSemantics:
    def test_step_outside_domain_names_the_point(self):
        m = fields.power_product_metric(0.5, 2, domain=lambda x: bool(np.all(x > 0)))
        x = np.array([5e-4, 1.0])
        h = numdiff.step_second(x)
        outside = x - np.array([h, 0.0])  # the first stencil row to leave
        with pytest.raises(StepTooLarge, match=re.escape(str(outside))):
            tc.generalized_ricci(m, fields.gaussian_potential(2), x)

    def test_indefinite_off_centre_point_raises(self):
        # g is indefinite only for x_0 >= 1/2; the centre is fine, x + h e_0 is not
        m = fields.MetricField(
            dim=2, fn=lambda x: np.diag([1.0, 1.0 if x[0] < 0.5 else -1.0]))
        x = np.array([0.4999, 0.0])
        m.value(x)
        with pytest.raises(NonPositiveDefiniteMetric) as info:
            tc.generalized_ricci(m, fields.gaussian_potential(2), x)
        assert info.value.point[0] >= 0.5
        assert info.value.min_eigenvalue == -1.0

    def test_nan_metric_names_its_point(self):
        # a NaN eigenvalue fails no sign test, so the entries are checked first
        g = np.stack([np.eye(2), np.diag([1.0, np.nan]), np.diag([np.inf, 1.0])])
        pts = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        with pytest.raises(NonPositiveDefiniteMetric, match="nan") as info:
            numdiff.check_psd_metric(g, pts)
        assert info.value.point.tolist() == [2.0, 3.0]

    def test_psd_clamp_matches_pointwise(self):
        # rank one minus 1e-12 Id: the low eigenvalue lies in (-tol, 0]
        def fn(x):
            u = np.array([1.0, x[0]])
            return np.outer(u, u) - 1e-12 * np.eye(2)

        m = fields.MetricField(dim=2, fn=fn)
        pts = np.array([[0.3, 0.0], [0.7, 1.0], [-1.2, 2.0]])
        batch = m.values(pts)
        for p, g in zip(pts, batch):
            raw = numdiff.symmetrize(fn(p))
            w, v = np.linalg.eigh(raw)
            tol = numdiff.PSD_SLACK * (1.0 + float(np.linalg.norm(raw)))
            assert -tol < w[0] <= 0.0
            assert np.array_equal(g, (v * np.clip(w, tol, None)) @ v.T)
            assert np.array_equal(g, m.value(p))

    def test_callbacks_that_reject_batches(self):
        phi = _bench_logcosh_phi(3)

        def pointwise(f):
            def call(x):
                if np.ndim(x) != 1:
                    raise TypeError("one point at a time")
                return f(x)
            return call

        def deriv(x):
            return np.moveaxis(phi.third_tensor(x), 2, 0)

        strict = fields.MetricField(dim=3, fn=pointwise(phi.hessian),
                                    deriv=pointwise(deriv))
        v = fields.gaussian_potential(3)
        x = np.array([0.2, -0.5, 0.9])
        got = tc.generalized_ricci(strict, v, x, n_param=-1.0)
        want = tc.generalized_ricci(fields.hessian_metric(phi, 3), v, x, n_param=-1.0)
        for a, b in ((got.ric_g, want.ric_g), (got.ric_gmu_n, want.ric_gmu_n)):
            assert np.array_equal(a, b)
        assert tc.christoffel(strict, np.stack([x, 0.5 * x])).gamma.shape == (2, 3, 3, 3)


class TestStencilStructure:
    """One generalized_ricci call is one stencil: the metric is evaluated once
    per distinct point and the linear algebra runs in one batch each."""

    def _count(self, monkeypatch, metric, v, x):
        calls = {"fn": [], "deriv": 0}
        fn, deriv = metric.fn, metric.deriv

        def counted_fn(p):
            calls["fn"].append(tuple(p))
            return fn(p)

        def counted_deriv(p):
            calls["deriv"] += 1
            return deriv(p)

        metric = fields.MetricField(dim=metric.dim, fn=counted_fn,
                                    deriv=None if deriv is None else counted_deriv)
        for name in ("eigh", "inv", "slogdet"):
            real = getattr(np.linalg, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        tc.generalized_ricci(metric, v, x)
        return calls

    def test_analytic_derivatives(self, monkeypatch):
        d = 6
        metric, v, _, draw = _ricci_cases(d)["product"]
        calls = self._count(monkeypatch, metric, v, draw(np.random.default_rng(3)))
        assert len(calls["fn"]) == len(set(calls["fn"])) == 1 + 2 * d * d
        assert calls["deriv"] == 2 * d + 1
        assert (calls["eigh"], calls["inv"], calls["slogdet"]) == (1, 1, 1)

    def test_difference_jacobians(self, monkeypatch):
        d = 6
        metric, _, _, draw = _ricci_cases(d)["hessian_noderiv"]
        calls = self._count(monkeypatch, metric, fields.gaussian_potential(d),
                            draw(np.random.default_rng(3)))
        n_points = 1 + 2 * d * d + (2 * d + 1) * 2 * d
        assert len(calls["fn"]) == len(set(calls["fn"])) == n_points
        assert (calls["eigh"], calls["inv"], calls["slogdet"]) == (1, 1, 1)
