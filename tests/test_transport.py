"""Monotone rearrangement, Legendre machinery, the entropic criterion, and
the 1-D Kahler-Einstein fixed point."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import interpolate, stats

from riccikit import fields, transport as tr
from riccikit.errors import (
    BarycenterNotZero,
    NonCompactTarget,
    NotStronglyConvex,
)


class TestDensity1D:
    def test_normalization(self):
        for dens in (
            tr.exponential_density(),
            tr.gaussian_density(),
            tr.power_density(1.5),
            tr.cos_density(),
        ):
            from scipy.integrate import quad

            lo, hi = dens.grid[0], dens.grid[-1]
            mass, _ = quad(dens.pdf, lo, hi, limit=200)
            assert mass == pytest.approx(1.0, abs=1e-8)

    def test_cdf_strictly_increasing(self):
        dens = tr.gaussian_density()
        xs = np.linspace(-4, 4, 33)
        cdfs = [dens.cdf(x) for x in xs]
        assert np.all(np.diff(cdfs) > 0)

    def test_ppf_inverts_cdf(self):
        dens = tr.power_density(1.5)
        for u in (0.01, 0.3, 0.5, 0.9, 0.999):
            assert dens.cdf(dens.ppf(u)) == pytest.approx(u, abs=1e-11)


class TestMonotoneMap:
    def test_identity(self):
        mu = tr.exponential_density()
        t, tp = tr.monotone_map_1d(mu, mu, 0.8)
        assert t == pytest.approx(0.8, abs=1e-10)
        assert tp == pytest.approx(1.0, abs=1e-8)

    def test_exp_to_uniform_closed_form(self):
        mu = tr.exponential_density()
        nu = tr.uniform_density(0.0, 1.0)
        for x in (0.1, 0.5, 1.0, 2.3, 5.0):
            t, tp = tr.monotone_map_1d(mu, nu, x)
            assert t == pytest.approx(1.0 - math.exp(-x), abs=1e-8)
            assert tp == pytest.approx(math.exp(-x), abs=1e-8)

    def test_gaussian_median(self):
        t, _ = tr.monotone_map_1d(tr.gaussian_density(), tr.uniform_density(0, 1), 0.0)
        assert t == pytest.approx(0.5, abs=1e-10)

    def test_pushforward_kolmogorov_smirnov(self, rng):
        mu = tr.gaussian_density()
        nu = tr.power_density(1.5)
        n = 20000
        xs = mu.sample(n, rng)
        ts = nu.ppf_many(mu.cdf_many(xs))
        ks = stats.kstest(ts, lambda v: np.interp(v, nu.grid, nu.cdf_grid)).statistic
        assert ks < 3.0 / math.sqrt(n)

    def test_strictly_increasing(self):
        mu = tr.gaussian_density()
        nu = tr.cos_density()
        xs = np.linspace(-3, 3, 41)
        ts = [tr.monotone_map_1d(mu, nu, x)[0] for x in xs]
        assert np.all(np.diff(ts) > 0)


class TestMongeAmpere:
    def test_identity_transport(self):
        phi = fields.quadratic_potential(np.eye(1))
        mu = tr.gaussian_density()
        v = mu.potential_field()
        assert abs(tr.monge_ampere_residual(phi, v, v, [0.4])) < 1e-12

    def test_reconstructed_map_residual(self):
        mu = tr.exponential_density()
        nu = tr.uniform_density(0.0, 1.0)
        phi = tr.transport_potential_1d(mu, nu)
        v, w = mu.potential_field(), nu.potential_field()
        # interior 90%-quantile range
        grid = [mu.ppf(u) for u in np.linspace(0.05, 0.95, 25)]
        worst = max(abs(tr.monge_ampere_residual(phi, v, w, [x])) for x in grid)
        assert worst < 1e-6

    def test_wrong_variance_gaussian(self):
        # identity map with nu = N(0, 2): residual = x^2/4 - log(2)/2
        phi = fields.quadratic_potential(np.eye(1))
        mu = tr.gaussian_density(1.0)
        nu = tr.gaussian_density(math.sqrt(2.0))
        v, w = mu.potential_field(), nu.potential_field()
        for x in (0.0, 1.0, 2.0):
            got = tr.monge_ampere_residual(phi, v, w, [x])
            assert got == pytest.approx(x * x / 4.0 - 0.5 * math.log(2.0), abs=1e-9)


class TestLegendre:
    def test_gaussian_self_dual(self):
        ld = tr.legendre_1d(fields.gaussian_potential(1), np.linspace(-5, 5, 801))
        assert np.abs(ld.vstar - 0.5 * ld.y_grid**2).max() < 1e-12

    def test_power_conjugate_pair(self):
        # V = x^q/q has V* = y^p/p with 1/p + 1/q = 1 (checked at q = 3)
        q = 3.0
        p = q / (q - 1.0)
        v = fields.power_potential(1.0 / q, q, dim=1)
        grid = np.linspace(1e-3, 4.0, 3001)
        ld = tr.legendre_1d(v, grid)
        want = ld.y_grid**p / p
        assert np.abs(ld.vstar - want).max() < 1e-10

    def test_cosh_involution(self):
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
        xs = np.linspace(-2.5, 2.5, 21)
        err = max(abs(ld2.conjugate_value(x) - math.cosh(x)) for x in xs)
        assert err < 1e-6

    def test_young_identity_and_dual_hessian(self):
        v = fields.power_potential(0.5, 2.6, dim=1)
        grid = np.linspace(0.05, 3.0, 501)
        ld = tr.legendre_1d(v, grid)
        for i in range(0, len(grid), 50):
            x, y = ld.x_grid[i], ld.y_grid[i]
            assert v.value([x]) + ld.vstar[i] == pytest.approx(x * y, abs=1e-12)
            assert ld.ddvstar[i] * v.hessian([x])[0, 0] == pytest.approx(
                1.0, abs=1e-7
            )

    def test_not_strongly_convex_rejected(self):
        v = fields.PotentialField(
            fn=lambda x: math.sin(x[0]),
            grad=lambda x: np.array([math.cos(x[0])]),
            hess=lambda x: np.array([[-math.sin(x[0])]]),
        )
        with pytest.raises(NotStronglyConvex):
            tr.legendre_1d(v, np.linspace(0.0, 3.0, 64))

    @given(
        a=st.floats(0.3, 3.0),
        b=st.floats(-1.0, 1.0),
        x=st.floats(-1.8, 1.8),
    )
    @settings(max_examples=40, deadline=None)
    def test_involution_property_smooth_family(self, a, b, x):
        # V = a cosh(t - b): V** recovers V on the bulk of the grid
        v = fields.PotentialField(
            fn=lambda t: a * math.cosh(t[0] - b),
            grad=lambda t: np.array([a * math.sinh(t[0] - b)]),
            hess=lambda t: np.array([[a * math.cosh(t[0] - b)]]),
        )
        ld = tr.legendre_1d(v, np.linspace(-4.0, 4.0, 1201))
        spl = interpolate.CubicSpline(ld.y_grid, ld.vstar)
        vstar = fields.PotentialField(
            fn=lambda y: float(spl(y[0])),
            grad=lambda y: np.array([float(spl(y[0], 1))]),
            hess=lambda y: np.array([[float(spl(y[0], 2))]]),
        )
        ld2 = tr.legendre_1d(vstar, ld.y_grid[2:-2])
        assert abs(ld2.conjugate_value(x) - a * math.cosh(x - b)) < 1e-6 * (1 + a)


class TestEntropicCriterion:
    def test_gaussian_margin(self):
        v = fields.gaussian_potential(1)
        out = tr.entropic_condition_check(v, 0.5, np.linspace(-4, 4, 201))
        # F = y^2: F'' = 2 >= 2 rho (V*)'' = 1, margin exactly 1
        assert out["holds"] and out["worst_violation"] == pytest.approx(1.0)

    def test_huge_rho_fails(self):
        v = fields.gaussian_potential(1)
        out = tr.entropic_condition_check(v, 1e6, np.linspace(-4, 4, 201))
        assert not out["holds"] and out["worst_violation"] < 0

    def test_example2_bisection_analytic_value(self):
        # q = 3 (p = 3/2): sup rho with F - 2 rho V* convex is exactly 3/8
        fp = tr.FlattenedPowerPotential(3.0)
        y = np.concatenate([np.linspace(0, 1, 257), 1 + np.geomspace(1e-9, 50, 4097)])
        crit = fp.dual_criterion(y)
        rho = crit.bisect_rho(enhanced=False)
        assert rho == pytest.approx(0.375, abs=1e-6)
        assert crit.f_second.min() >= -1e-12

    def test_example2_primal_dual_consistency(self):
        # closed-form V matches conjugation of (V*)'' data: V''(x) (V*)''(V') = 1
        fp = tr.FlattenedPowerPotential(3.0)
        for x in (0.1, 0.5, 0.7, 2.0, 10.0):
            y = fp.d1(x)
            dd = min(1.0, abs(y) ** (fp.p - 2.0)) / fp.p
            assert fp.d2(x) * dd == pytest.approx(1.0, rel=1e-12)


class TestKESolver:
    def test_uniform_target_closed_form(self):
        # quantile integration gives the exact solution
        # exp(-Phi) = sech^2(x/4)/8 for nu = uniform[-1/2, 1/2]
        sol = tr.ke_solve_1d(tr.uniform_density(-0.5, 0.5))
        assert sol.residual_sup < 1e-8
        mask = sol.interior_mask()
        oracle = -np.log(np.cosh(sol.grid / 4.0) ** -2 / 8.0)
        assert np.abs(sol.phi_vals - oracle)[mask].max() < 1e-6

    def test_uniform_target_closed_form_tight(self):
        # the Anderson-mixed iteration stops well inside the plain Picard
        # iteration's 4e-8 distance from the exact solution
        sol = tr.ke_solve_1d(tr.uniform_density(-0.5, 0.5))
        oracle = -np.log(np.cosh(sol.grid / 4.0) ** -2 / 8.0)
        assert np.abs(sol.phi_vals - oracle)[sol.interior_mask()].max() < 1e-8

    @pytest.mark.parametrize(
        "make,max_steps",
        [
            (lambda: tr.uniform_density(-0.5, 0.5), 20),
            (lambda: tr.cos_density(0.5), 20),
            (lambda: tr.Density1D(lambda t: t**2 / 0.18, (-0.3, 1.0), name="skew"), 25),
        ],
        ids=["uniform", "cos", "skewed"],
    )
    def test_anderson_step_count(self, make, max_steps):
        # the damped Picard iteration alone needs 41, 46 and 46 steps here
        sol = tr.ke_solve_1d(make())
        assert sol.residual_sup < 1e-8
        assert sol.iterations <= max_steps

    @pytest.mark.parametrize(
        "make,kwargs,steps",
        [
            (lambda: tr.uniform_density(-0.5, 0.5), {}, 10),
            (lambda: tr.cos_density(0.5), {}, 12),
            (lambda: tr.Density1D(lambda t: t**2 / 0.18, (-0.3, 1.0), name="skew"), {}, 15),
            (lambda: tr.cos_density(0.5), {"initial_shift": 3.0}, 12),
        ],
        ids=["uniform", "cos", "skewed", "cos-shifted"],
    )
    def test_step_count_not_above_reference(self, make, kwargs, steps):
        # reference step counts on these targets: cheaper steps must not
        # cost extra steps
        assert tr.ke_solve_1d(make(), **kwargs).iterations <= steps

    def test_cached_simpson_weights_match_scipy(self):
        from scipy import integrate

        sol = tr.ke_solve_1d(tr.cos_density(0.5))
        grid = sol.grid
        w = tr._simpson_weights(grid.size, grid[1] - grid[0])
        e = np.exp(-sol.phi_vals)
        assert w @ e == pytest.approx(integrate.simpson(e, x=grid), rel=1e-14)
        # the barycenter integral cancels to ~0: compare on the scale of |x| e
        m1 = integrate.simpson(grid * e, x=grid)
        assert abs((w * grid) @ e - m1) <= 1e-14 * (w @ (np.abs(grid) * e))

    def test_symmetric_primitive_matches_two_pass_reference(self):
        # reference: accumulate the trapezoid-plus-endpoint-correction
        # primitive once per direction, each with its own stencil
        def one_pass(v, h):
            prim = np.concatenate([[0.0], np.cumsum(0.5 * h * (v[1:] + v[:-1]))])
            d = tr._fd5(v, h, order=1)
            return prim - (h * h / 12.0) * (d - d[0])

        x = np.linspace(-3.0, 4.0, 4097)
        h = x[1] - x[0]
        for v in (np.exp(-x * x), np.exp(-np.abs(x - 0.3)) * (2.0 + np.sin(5 * x))):
            fwd, bwd = one_pass(v, h), one_pass(v[::-1], h)[::-1]
            want = 0.5 * (fwd + (0.5 * (fwd[-1] + bwd[0]) - bwd))
            got = tr._primitive_smooth_symmetric(v, h)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_even_grid_refused(self):
        with pytest.raises(ValueError, match="odd"):
            tr.ke_solve_1d(tr.uniform_density(-0.5, 0.5), grid_size=16384)

    def test_repeat_solve_bit_identical(self):
        # more steps than Anderson history rows, so the round-robin rows
        # are overwritten; no unwritten row may leak into the step
        a = tr.ke_solve_1d(tr.Density1D(lambda t: t**2 / 0.18, (-0.3, 1.0)))
        b = tr.ke_solve_1d(tr.Density1D(lambda t: t**2 / 0.18, (-0.3, 1.0)))
        assert a.iterations > tr._ANDERSON_DEPTH + 1
        assert a.iterations == b.iterations
        assert np.array_equal(a.phi_vals, b.phi_vals)

    def test_trace_bound(self):
        sol = tr.ke_solve_1d(tr.uniform_density(-0.5, 0.5))
        mask = sol.interior_mask(1e-4, 1 - 1e-4)
        assert sol.second_derivative()[mask].max() <= 2.0 * 0.5**2 + 1e-10

    def test_symmetric_target_even_solution(self):
        sol = tr.ke_solve_1d(tr.cos_density(0.5))
        assert np.abs(sol.phi_vals - sol.phi_vals[::-1]).max() < 1e-8

    def test_self_consistency_residual(self):
        sol = tr.ke_solve_1d(tr.cos_density(0.5), tol=1e-8)
        assert sol.residual_sup < 1e-8

    def test_translation_invariance_of_target(self):
        # recentring makes a shifted target give the same solution
        a = tr.ke_solve_1d(tr.uniform_density(-0.5, 0.5))
        b = tr.ke_solve_1d(tr.uniform_density(-0.2, 0.8))
        assert np.abs(a.phi_vals - b.phi_vals).max() < 1e-8

    def test_translation_invariance_of_initial_guess(self):
        a = tr.ke_solve_1d(tr.cos_density(0.5))
        b = tr.ke_solve_1d(tr.cos_density(0.5), initial_shift=3.0)
        assert np.abs(a.phi_vals - b.phi_vals).max() < 1e-8

    def test_noncompact_target_rejected(self):
        with pytest.raises(NonCompactTarget):
            tr.ke_solve_1d(tr.gaussian_density())

    def test_barycenter_guard_without_recenter(self):
        with pytest.raises(BarycenterNotZero):
            tr.ke_solve_1d(tr.uniform_density(0.0, 1.0), recenter=False)


class TestMoreGuards:
    def test_cdf_inversion_failure_on_vanishing_density(self):
        from riccikit.errors import CDFInversionFailure

        dens = tr.Density1D(
            lambda t: np.where((t <= 1.0) | (t >= 2.0), 0.0, 700.0),
            (0.0, 3.0),
            name="gapped",
        )
        # a level strictly inside the dead zone's flat CDF stretch
        level = dens.cdf(1.5)
        with pytest.raises(CDFInversionFailure):
            dens.ppf(level)

    def test_monotone_map_onto_gapped_target_refused(self):
        # dead-zone density ~1e-131 is far above the 1e-300 pdf guard, so only
        # the flat CDF itself can tell that G^{-1} is undefined there
        from riccikit.errors import CDFInversionFailure

        nu = tr.Density1D(
            lambda t: np.where((t <= 1.0) | (t >= 2.0), 0.0, 300.0),
            (0.0, 3.0),
            name="gapped300",
        )
        assert nu.pdf(1.5) > 1e-300
        level = nu.cdf(1.5)
        with pytest.raises(CDFInversionFailure, match="flat"):
            tr.monotone_map_1d(tr.uniform_density(0.0, 1.0), nu, level)

    def test_transport_potential_onto_gapped_target_refused(self):
        # the interpolated quantile function steps over the dead zone, so
        # only the flat CDF shows that Phi'' = T' is not defined there
        from riccikit.errors import CDFInversionFailure

        nu = tr.Density1D(
            lambda t: np.where((t <= 1.0) | (t >= 2.0), 0.0, 300.0),
            (0.0, 3.0),
            name="gapped300",
        )
        with pytest.raises(CDFInversionFailure, match=r"flat at .* on \[1\.0"):
            tr.transport_potential_1d(tr.uniform_density(0.0, 1.0), nu)

    def test_ppf_on_gapped_density_off_the_dead_zone(self):
        from riccikit.errors import CDFInversionFailure

        dens = tr.Density1D(
            lambda t: np.where((t <= 1.0) | (t >= 2.0), 0.0, 700.0),
            (0.0, 3.0),
            name="gapped",
        )
        for u in (0.25, 0.6):
            assert abs(dens.cdf(dens.ppf(u)) - u) < 1e-11
        # next to the jump at x = 2 no point meets the tolerance
        for u in (0.49999, 0.50001):
            with pytest.raises(CDFInversionFailure, match="residual"):
                dens.ppf(u)

    def test_no_convergence_reported(self):
        from riccikit.errors import NoConvergence

        with pytest.raises(NoConvergence) as err:
            tr.ke_solve_1d(tr.cos_density(0.5), max_iter=3)
        assert err.value.residual is None or err.value.residual > 1e-8


_PRODUCT_KINDS = [
    {"kind": "gaussian"}, {"kind": "exp_product"}, {"kind": "power_product", "q": 1.5},
    {"kind": "exp_quad_orthant"}, {"kind": "trunc_gaussian_orthant"},
    {"kind": "uniform_box_orthant"}, {"kind": "laplace_product"},
    {"kind": "trunc_gaussian_sym"}, {"kind": "uniform_interval"},
    {"kind": "cos_interval"}, {"kind": "flat_power_1d", "q": 3.0},
]


def _scipy_ppf(dens):
    """The quantile function as a plain scipy PCHIP with ppf_many's clips."""
    u0, idx = np.unique(dens.cdf_grid, return_index=True)
    pchip = interpolate.PchipInterpolator(u0, dens.grid[idx], extrapolate=False)

    def ppf(u):
        u = np.clip(np.asarray(u, dtype=float), 1e-15, 1.0 - 1e-15)
        out = pchip(np.clip(u, dens.cdf_grid[0], dens.cdf_grid[-1]))
        return np.clip(out, dens.grid[0], dens.grid[-1])

    return ppf, u0


class TestGuidedQuantile:
    @pytest.mark.parametrize("doc", _PRODUCT_KINDS, ids=lambda doc: doc["kind"])
    def test_bit_identical_to_scipy_pchip(self, doc):
        from riccikit import measures

        dens = measures.from_spec(doc, 1).coord_densities[0]
        ref, breaks = _scipy_ppf(dens)
        levels = np.concatenate([
            np.random.default_rng(3).uniform(size=20000),
            breaks, np.nextafter(breaks, 2.0), np.nextafter(breaks, -1.0),
            [0.0, 1.0, 1e-15, 1.0 - 1e-15, -0.5, 1.5, np.nan],
        ])
        got = dens.ppf_many(levels)
        assert np.isnan(got[-1])
        assert np.array_equal(got.view(np.int64), ref(levels).view(np.int64))
        block = levels[:600].reshape(3, 200)
        assert dens.ppf_many(block).shape == (3, 200)
        assert np.array_equal(dens.ppf_many(block), ref(block))
        assert dens.ppf_many(0.3).shape == () and dens.ppf_many(0.3) == ref(0.3)

    def test_dense_tail_bucket_falls_back_to_binary_search(self, monkeypatch):
        # the Gaussian's first level bucket holds hundreds of breakpoints
        # (the uniform-in-x grid nodes of the far left tail), more than the
        # two forward steps can pass
        dens = tr.gaussian_density()
        ref, breaks = _scipy_ppf(dens)
        dens.ppf_many(0.5)  # build the table before counting
        calls = []
        search = np.searchsorted

        def counted(*args, **kwargs):
            calls.append(np.size(args[1]))
            return search(*args, **kwargs)

        monkeypatch.setattr(tr.np, "searchsorted", counted)
        assert dens.ppf_many([0.5]) == ref([0.5])
        assert calls == []
        tail = np.array([breaks[100], 0.5 * (breaks[200] + breaks[201])])
        assert breaks[300] < 1.0 / (breaks.size - 1)  # all in bucket 0
        assert np.array_equal(dens.ppf_many(tail), ref(tail))
        assert calls == [2]


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestScipyFreeRoutines:
    """The in-package PCHIP, not-a-knot spline, cumulative Simpson and
    Gauss-Legendre quadrature against scipy as the oracle."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 64, 65, 1000, 1001])
    def test_pchip_bit_identical_on_random_data(self, n):
        rng = np.random.default_rng(n)
        x = np.cumsum(rng.uniform(0.01, 1.0, n))
        y = np.cumsum(rng.normal(size=n))
        if n > 4:
            y[n // 3] = y[n // 3 - 1]  # a flat stretch: zero slope there
        got = tr.PiecewiseCubic.pchip(x, y)
        ref = interpolate.PchipInterpolator(x, y, extrapolate=False)
        t = np.concatenate([rng.uniform(x[0], x[-1], 4000), x,
                            np.nextafter(x[1:], -np.inf), [np.nan]])
        for nu in (0, 1):
            assert np.array_equal(_bits(got(t, nu)), _bits(ref(t, nu))), nu
        assert np.isnan(got(np.nan))
        assert got(t[:600].reshape(3, 200)).shape == (3, 200)

    @pytest.mark.parametrize("doc", _PRODUCT_KINDS, ids=lambda doc: doc["kind"])
    def test_cumulative_simpson_bit_identical_on_density_grids(self, doc):
        from scipy import integrate

        from riccikit import measures

        dens = measures.from_spec(doc, 1).coord_densities[0]
        pdf = dens.pdf(dens.grid)
        assert np.array_equal(
            _bits(tr._cumulative_simpson(pdf, x=dens.grid)),
            _bits(integrate.cumulative_simpson(pdf, x=dens.grid, initial=0.0)),
        )

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 100, 101, 16385])
    def test_cumulative_simpson_bit_identical_on_random_data(self, n):
        from scipy import integrate

        rng = np.random.default_rng(n)
        y = rng.normal(size=n)
        x = np.cumsum(rng.uniform(0.01, 1.0, n))
        assert np.array_equal(_bits(tr._cumulative_simpson(y, x=x)),
                              _bits(integrate.cumulative_simpson(y, x=x, initial=0.0)))
        assert np.array_equal(_bits(tr._cumulative_simpson(y, dx=0.37)),
                              _bits(integrate.cumulative_simpson(y, dx=0.37, initial=0.0)))

    @staticmethod
    def _spline_knots():
        rng = np.random.default_rng(11)
        mu, nu = tr.exponential_density(), tr.uniform_density(0.0, 1.0)
        xs = np.unique(mu.ppf_many(np.linspace(1e-6, 1.0 - 1e-6, 2049)))
        cases = [(np.cumsum(rng.uniform(0.01, 1.0, n)), rng.normal(size=(3, n)))
                 for n in (4, 5, 100, 101)]
        # transport_potential_1d's knots and rows: Phi, T and T'
        ts = nu.ppf_many(mu.cdf_many(xs))
        tp = mu.pdf(xs) / nu.pdf(ts)
        cases.append((xs, np.stack([tr._cumulative_simpson(ts, x=xs), ts, tp])))
        # the KE grid, uniform with an odd node count
        grid = np.linspace(-42.0, 42.0, 16385)
        cases.append((grid, np.sqrt(1.0 + grid[None] ** 2)))
        return cases

    def test_not_a_knot_matches_cubic_spline(self):
        # past each end by up to one width of the end piece; further out the
        # cubic term amplifies the rounding of the end slopes (three widths
        # past the long last piece of the transport knots, scipy's Phi' is
        # 1.6e-13 off the one built on slopes solved in extended precision)
        steps = np.array([0.25, 0.5, 1.0])
        for x, ys in self._spline_knots():
            t = np.concatenate([np.linspace(x[0], x[-1], 3001), x,
                                x[0] - steps * (x[1] - x[0]), x[-1] + steps * (x[-1] - x[-2])])
            for got, y in zip(tr.PiecewiseCubic.not_a_knot(x, ys), ys):
                ref = interpolate.CubicSpline(x, y)
                for nu in (0, 1):
                    want = ref(t, nu)
                    assert np.abs(got(t, nu) - want).max() <= 1e-13 * np.abs(want).max(), (
                        x.size, nu)

    @staticmethod
    def _quad(dens, weight, points):
        # at this tolerance quad reports the roundoff it meets on the way
        import warnings

        from scipy import integrate

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, _ = integrate.quad(lambda t: weight(t) * float(dens.pdf(t)), dens.grid[0],
                                    dens.grid[-1], epsabs=0.0, epsrel=1e-13, limit=1000,
                                    points=points)
        return val

    @pytest.mark.parametrize("doc", _PRODUCT_KINDS, ids=lambda doc: doc["kind"])
    def test_gauss_legendre_moments_match_quad(self, doc):
        # quad at its default tolerance is off by up to 1e-9 next to the knee
        # of the flattened power, so the oracle runs at 1e-13 and is told
        # where the kinks are; a mean is compared on the scale of E|x|
        from riccikit import measures

        dens = measures.from_spec(doc, 1).coord_densities[0]
        kinks = {"laplace_product": [0.0], "flat_power_1d": [2.0 / 3.0]}.get(doc["kind"])
        for k in (0, 1, 2):
            want = self._quad(dens, lambda t: t**k, kinks)
            scale = self._quad(dens, abs, kinks) if k == 1 else want
            assert abs(dens.moment(k) - want) <= 1e-13 * scale, k

    @pytest.mark.parametrize("doc", [{"kind": "gaussian"}, {"kind": "laplace_product"},
                                     {"kind": "cos_interval"}],
                             ids=lambda doc: doc["kind"])
    def test_corrected_cdf_matches_quad_correction(self, doc):
        from scipy import integrate

        from riccikit import measures

        dens = measures.from_spec(doc, 1).coord_densities[0]
        xs = np.random.default_rng(4).uniform(dens.grid[0], dens.grid[-1], 1000)
        for x in xs:
            i = np.searchsorted(dens.grid, x) - 1
            corr, _ = integrate.quad(dens.pdf, dens.grid[i], x, limit=60)
            want = min(max(dens.cdf_grid[i] + corr, 0.0), 1.0)
            assert abs(dens.cdf(x) - want) <= 1e-14, x

    def test_moment_nodes_kept(self):
        dens = tr.gaussian_density()
        assert dens.moment(2) == pytest.approx(1.0, rel=1e-10)
        nodes = dens._moment_nodes
        dens.moment(1)
        assert dens._moment_nodes is nodes
