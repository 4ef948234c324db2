"""Monotone rearrangement, Legendre machinery, the entropic criterion, and
the closed-form 1-D Kahler-Einstein potential."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import interpolate, stats

from riccikit import fields, transport as tr
from riccikit.errors import NonCompactTarget, NotStronglyConvex


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

    def test_gaussian_tails_keep_relative_accuracy(self):
        # the CDF is summed from the left end, the survival function from the
        # right, so F(-8) = 1 - F(8) = 6.2e-16 keep their digits
        dens = tr.gaussian_density()
        want = 0.5 * math.erfc(8.0 / math.sqrt(2.0))
        assert abs(dens.cdf(-8.0) / want - 1.0) < 1e-9
        assert abs(dens.sf(8.0) / want - 1.0) < 1e-9
        xs = np.linspace(-8.0, 8.0, 1601)
        erfc = np.array([0.5 * math.erfc(x / math.sqrt(2.0)) for x in xs])
        assert np.abs(dens.sf(xs) / erfc - 1.0).max() < 1e-9
        assert np.abs(dens.cdf(-xs) / erfc - 1.0).max() < 1e-9

    def test_point_and_batch_of_one_agree(self):
        dens = tr.gaussian_density()
        for x in (-8.0, -0.3, 0.0, 2.5):
            for fn in (dens.cdf, dens.sf):
                point, batch = fn(x), fn([x])
                assert np.shape(point) == () and batch.shape == (1,)
                assert np.array_equal(np.asarray(point).view(np.int64), batch.view(np.int64)[0])

    def test_laplace_kink_on_a_node(self):
        # the minimizer of |t| is a node and no running sum straddles it
        from riccikit import measures

        dens = measures.laplace_product(1).coord_densities[0]
        assert 0.0 in dens.grid
        assert abs(dens.moment(0) - 1.0) < 1e-12
        assert abs(dens.log_z - math.log(2.0)) < 1e-12
        assert abs(dens.moment(2) - 2.0) < 1e-11


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
        ts = nu.ppf_many(mu.cdf(xs))
        ks = stats.kstest(ts, lambda v: np.interp(v, nu.grid, nu.cdf_grid)).statistic
        assert ks < 3.0 / math.sqrt(n)

    def test_far_tail_of_gaussians(self):
        # 1 - F(8) = 6.2e-16 is matched to nu's survival function
        t, tp = tr.monotone_map_1d(tr.gaussian_density(), tr.gaussian_density(1.2), 8.0)
        assert abs(t - 9.6) < 1e-9
        assert abs(tp - 1.2) < 1e-9

    def test_strictly_increasing(self):
        mu = tr.gaussian_density()
        nu = tr.cos_density()
        xs = np.linspace(-3, 3, 41)
        ts = [tr.monotone_map_1d(mu, nu, x)[0] for x in xs]
        assert np.all(np.diff(ts) > 0)

    def test_more_than_one_point_is_refused(self):
        mu, nu = tr.gaussian_density(), tr.uniform_density(0.0, 1.0)
        with pytest.raises(ValueError, match="one point, got 2"):
            tr.monotone_map_1d(mu, nu, [0.5, 1.0])
        assert tr.monotone_map_1d(mu, nu, [0.5]) == tr.monotone_map_1d(mu, nu, 0.5)


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

    def test_map_and_its_slope_against_closed_forms(self):
        # exp(1) and N(0, 1) onto U[0, 1]: T = F and Phi'' = pdf, off the nodes
        # and over the whole built range; Phi'' is the slope of the map, so
        # where T runs into 1 it keeps about 1e-13 absolute, not relative
        rng = np.random.default_rng(11)
        for mu, cdf, pdf in (
            (tr.exponential_density(), lambda x: -np.expm1(-x), lambda x: np.exp(-x)),
            (tr.gaussian_density(),
             lambda x: np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x]),
             lambda x: np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)),
        ):
            phi = tr.transport_potential_1d(mu, tr.uniform_density(0.0, 1.0))
            x = rng.uniform(mu.grid[1], mu.grid[-2], 400)
            assert np.abs(phi.grad(x[:, None])[:, 0] - cdf(x)).max() < 5e-12, mu.name
            err = np.abs(phi.hess(x[:, None])[:, 0, 0] - pdf(x))
            assert np.all(err <= 1e-7 * pdf(x) + 2e-13), mu.name

    def test_second_derivative_is_the_slope_of_the_map(self):
        # Phi'' is the derivative of the Phi' that is returned, so the
        # Monge-Ampere residual measures the map; power 1.5 onto the Gaussian
        # is where the map's cubic is furthest from f(x) / g(T(x)) (4e-5)
        mu, nu = tr.power_density(1.5), tr.gaussian_density()
        phi = tr.transport_potential_1d(mu, nu)
        g = mu.grid[(mu.cdf_grid > 1e-9) & (mu.sf_grid > 1e-9)]
        rng = np.random.default_rng(3)
        i = rng.integers(0, g.size - 1, 400)
        x = g[i] + rng.uniform(0.2, 0.8, 400) * (g[i + 1] - g[i])
        dx = 1e-3 * (g[i + 1] - g[i])
        fd = (phi.grad((x + dx)[:, None]) - phi.grad((x - dx)[:, None]))[:, 0] / (2.0 * dx)
        assert np.abs(phi.hess(x[:, None])[:, 0, 0] / fd - 1.0).max() < 1e-7

    def test_map_matches_levels_between_nodes(self):
        # G(T(x)) = F(x), each from its nearer tail, at every midpoint of mu's
        # nodes, to 1e-9; from the positive density of power 1.5 at 0 into
        # the Gaussian tail T ~ -sqrt(2 log(1/x)), which the cubic in x
        # follows to 4e-3 / i^3 on the i-th panel (3.3e-3 on the first)
        for mu, nu, end in ((tr.gaussian_density(), tr.cos_density(), 0.0),
                            (tr.power_density(1.5), tr.gaussian_density(), 4e-3),
                            (tr.gaussian_density(), tr.gaussian_density(1.2), 0.0)):
            phi = tr.transport_potential_1d(mu, nu)
            g = mu.grid[(mu.cdf_grid > 1e-12) & (mu.sf_grid > 1e-12)]
            x = 0.5 * (g[:-1] + g[1:])
            t = phi.grad(x[:, None])[:, 0]
            low = x <= mu._median
            err = np.abs(np.where(low, nu.cdf(t) / mu.cdf(x), nu.sf(t) / mu.sf(x)) - 1.0)
            bound = np.maximum(end / np.arange(1.0, x.size + 1) ** 3, 1e-9)
            assert np.all(err <= bound), (mu.name, nu.name, err.max())

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


_KE_TARGETS = {
    "uniform": lambda: tr.uniform_density(-0.5, 0.5),
    "cos": lambda: tr.cos_density(0.5),
    "skewed": lambda: tr.Density1D(lambda t: t**2 / 0.18, (-0.3, 1.0), name="skew"),
}

# The Anderson-mixed Picard solver that the closed form replaced, at its
# default tol = 1e-8: Phi at the grid nodes 8192 + 300 k, k = -2..2 (x = 0 at
# node 8192), then max Phi'' over the 1e-4 to 1 - 1e-4 quantile range, then
# the tolerance of the comparison.  On the skewed target the iteration
# stalled at residual 8.1e-9, up to 9.5e-7 from the closed form on the
# interior; `test_skewed_target_against_gauss_legendre` shows which is right.
_ITERATED = {
    "uniform": ([3.859524912323664, 2.6203785813765874, 2.079441542505197,
                 2.6203785813765874, 3.859524912323664], 0.1250000009619443, 1e-7),
    "cos": ([3.4160201517687203, 2.6670241296781714, 2.398599897340327,
             2.6670241296781714, 3.4160201517687185], 0.05783375872486325, 1e-7),
    "skewed": ([4.148154461706528, 2.9487701146606966, 2.351490966631799,
                2.7063939224027176, 4.211024587485666], 0.0768074275185705, 5e-7),
}


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
        sol = tr.ke_solve_1d(tr.uniform_density(-0.5, 0.5))
        oracle = -np.log(np.cosh(sol.grid / 4.0) ** -2 / 8.0)
        assert np.abs(sol.phi_vals - oracle)[sol.interior_mask()].max() < 1e-11

    @pytest.mark.parametrize("name", sorted(_KE_TARGETS))
    def test_mass_and_barycenter(self, name):
        # exp(-Phi) is a probability density with barycenter 0 (Simpson)
        sol = tr.ke_solve_1d(_KE_TARGETS[name]())
        w = np.full(sol.grid.size, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        e = np.exp(-sol.phi_vals) * w * (sol.grid[1] - sol.grid[0]) / 3.0
        assert abs(e.sum() - 1.0) < 1e-9
        assert abs((sol.grid * e).sum()) < 1e-9

    @pytest.mark.parametrize("name", sorted(_KE_TARGETS))
    def test_agrees_with_the_iterated_solution(self, name):
        phi, max_d2, tol = _ITERATED[name]
        sol = tr.ke_solve_1d(_KE_TARGETS[name]())
        nodes = 8192 + 300 * np.arange(-2, 3)
        assert sol.interior_mask()[nodes].all()
        assert np.abs(sol.phi_vals[nodes] - phi).max() < tol
        mask = sol.interior_mask(1e-4, 1 - 1e-4)
        assert abs(sol.second_derivative()[mask].max() - max_d2) < tol

    def test_skewed_target_against_gauss_legendre(self):
        # exp(-Phi(x)) = G(Phi'(x)) with G(y) = int_{y+m}^b (t - m) nu(t) dt
        # and m the barycenter, all by 40-point Gauss-Legendre on four panels
        nu = _KE_TARGETS["skewed"]()
        a, b = nu.support
        gl_t, gl_w = np.polynomial.legendre.leggauss(40)

        def gauss(lo, f):  # int_lo^b f over four panels, per row of lo
            edges = lo[:, None] + (b - lo)[:, None] * np.linspace(0.0, 1.0, 5)
            mid, half = (edges[:, 1:] + edges[:, :-1]) / 2, (edges[:, 1:] - edges[:, :-1]) / 2
            t = mid[..., None] + half[..., None] * gl_t
            return (f(t) * gl_w * half[..., None]).sum(axis=(1, 2))

        pdf = lambda t: nu.pdf(t.ravel()).reshape(t.shape)
        m = gauss(np.array([a]), lambda t: t * pdf(t))[0] / gauss(np.array([a]), pdf)[0]
        sol = tr.ke_solve_1d(nu)
        nodes = np.flatnonzero(sol.interior_mask())[::40]
        slope = tr._fd5(sol.phi_vals, sol.grid[1] - sol.grid[0])[nodes]
        g = gauss(slope + m, lambda t: (t - m) * pdf(t))
        assert np.abs(np.exp(-sol.phi_vals[nodes]) - g).max() < 1e-12

    def test_repeat_solve_bit_identical(self):
        a = tr.ke_solve_1d(tr.Density1D(lambda t: t**2 / 0.18, (-0.3, 1.0)))
        b = tr.ke_solve_1d(tr.Density1D(lambda t: t**2 / 0.18, (-0.3, 1.0)))
        assert np.array_equal(a.phi_vals, b.phi_vals)
        assert a.residual_sup == b.residual_sup

    def test_trace_bound(self):
        sol = tr.ke_solve_1d(tr.uniform_density(-0.5, 0.5))
        mask = sol.interior_mask(1e-4, 1 - 1e-4)
        assert sol.second_derivative()[mask].max() <= 2.0 * 0.5**2 + 1e-10
        # max Phi'' = 1/8.  Five-point differences on this grid (h = 0.0103)
        # turn a half-ulp of Phi(0) = log 8 into up to 1.1e-11 of Phi''(0); the
        # exact solution sampled on the grid reads 5.3e-12 off
        assert sol.second_derivative()[mask].max() == pytest.approx(0.125, abs=1e-11)

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

    def test_noncompact_target_rejected(self):
        with pytest.raises(NonCompactTarget):
            tr.ke_solve_1d(tr.gaussian_density())

    def test_target_much_narrower_than_its_support(self):
        # exp(-Phi) is about exp(-x^2/2), far wider than [-42/e, 42/e] = [-1.05, 1.05]:
        # the grid must reach where exp(-Phi) falls to roundoff
        from riccikit import measures as ms

        sol = tr.ke_solve_1d(ms.trunc_gaussian_sym(1, 40.0).coord_densities[0])
        assert sol.residual_sup < 1e-8
        assert sol.grid[-1] > 8.0
        w = np.full(sol.grid.size, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        mass = (np.exp(-sol.phi_vals) * w).sum() * (sol.grid[1] - sol.grid[0]) / 3.0
        assert mass == pytest.approx(1.0, abs=1e-8)  # reads 1 + 2.7e-9

    def test_narrow_target_mass_to_1e_9(self):
        # on nu's own nodes the KE potential of the wide truncated Gaussian
        # keeps its mass to 1e-9 (Simpson on the uniform x grid)
        from riccikit import measures as ms

        sol = tr.ke_solve_1d(ms.trunc_gaussian_sym(1, 40.0).coord_densities[0])
        w = np.full(sol.grid.size, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        mass = (np.exp(-sol.phi_vals) * w).sum() * (sol.grid[1] - sol.grid[0]) / 3.0
        assert abs(mass - 1.0) < 1e-9


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
        # next to the jumps at x = 1 and 2 the node CDF turns flat: a panel
        # straddles each jump, so the levels there are refused
        for u in (0.49999, 0.50001):
            with pytest.raises(CDFInversionFailure, match="flat at or next to"):
                dens.ppf(u)

    def test_no_convergence_reported(self):
        from riccikit.errors import NoConvergence

        # a residual at or above tol is reported with its value
        with pytest.raises(NoConvergence) as err:
            tr.ke_solve_1d(tr.cos_density(0.5), tol=1e-12)
        assert 1e-12 <= err.value.residual < 1e-8


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
    """The in-package PCHIP and the running sums on a density's nodes against
    scipy as the oracle."""

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

    # the kinks of the product kinds' potentials, which quad is told of
    _KINKS = {"laplace_product": [0.0], "flat_power_1d": [2.0 / 3.0]}

    @staticmethod
    def _quad(dens, weight, points, a=None, b=None):
        """int_a^b weight * pdf, over the nodes' range by default."""
        # at this tolerance quad reports the roundoff it meets on the way
        import warnings

        from scipy import integrate

        a = dens.grid[0] if a is None else a
        b = dens.grid[-1] if b is None else b
        points = [p for p in points or () if a < p < b] or None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, _ = integrate.quad(lambda t: weight(t) * float(dens.pdf(t)), a, b,
                                    epsabs=0.0, epsrel=1e-13, limit=1000, points=points)
        return val

    @pytest.mark.parametrize("doc", _PRODUCT_KINDS, ids=lambda doc: doc["kind"])
    def test_node_moments_match_quad(self, doc):
        # quad at its default tolerance is off by up to 1e-9 next to the knee
        # of the flattened power, so the oracle runs at 1e-13 and is told
        # where the kinks are; a mean is compared on the scale of E|x|
        from riccikit import measures

        dens = measures.from_spec(doc, 1).coord_densities[0]
        kinks = self._KINKS.get(doc["kind"])
        for k in (0, 1, 2):
            want = self._quad(dens, lambda t: t**k, kinks)
            scale = self._quad(dens, abs, kinks) if k == 1 else want
            assert abs(dens.moment(k) - want) <= 1e-13 * scale, k

    @pytest.mark.parametrize("doc", _PRODUCT_KINDS, ids=lambda doc: doc["kind"])
    def test_node_cdf_and_sf_match_quad(self, doc):
        # the running sums from the left and from the right end at 41 nodes,
        # end nodes included, and their sum 1
        from riccikit import measures

        dens = measures.from_spec(doc, 1).coord_densities[0]
        g, kinks, one = dens.grid, self._KINKS.get(doc["kind"]), lambda t: 1.0
        assert dens.cdf_grid[0] == 0.0 and dens.sf_grid[-1] == 0.0
        for i in np.linspace(0, g.size - 1, 41).astype(int):
            lower = self._quad(dens, one, kinks, b=g[i]) if i else 0.0
            upper = self._quad(dens, one, kinks, a=g[i]) if i < g.size - 1 else 0.0
            assert abs(dens.cdf_grid[i] - lower) <= 2e-13, i
            assert abs(dens.sf_grid[i] - upper) <= 2e-13, i
            assert abs(dens.cdf_grid[i] + dens.sf_grid[i] - 1.0) <= 1e-13, i

    @pytest.mark.parametrize("doc", _PRODUCT_KINDS, ids=lambda doc: doc["kind"])
    def test_cdf_and_sf_between_nodes_match_quad_in_the_nearer_tail(self, doc):
        # cdf below the median and sf above it keep 1e-9 relative accuracy
        # at any point of the nodes' range, however far out in a tail
        from riccikit import measures

        dens = measures.from_spec(doc, 1).coord_densities[0]
        g, kinks, one = dens.grid, self._KINKS.get(doc["kind"]), lambda t: 1.0
        for x in np.random.default_rng(5).uniform(g[0], g[-1], 100):
            if dens.cdf(x) <= 0.5:
                got, want = dens.cdf(x), self._quad(dens, one, kinks, b=x)
            else:
                got, want = dens.sf(x), self._quad(dens, one, kinks, a=x)
            assert abs(got / want - 1.0) <= 1e-9, x


    @pytest.mark.parametrize("doc", _PRODUCT_KINDS, ids=lambda doc: doc["kind"])
    def test_cdf_and_sf_match_quad_over_the_node_range(self, doc):
        # each is its own Hermite up to the median node and 1 minus the
        # other's past it, so both keep 2e-11 absolute everywhere, bulk
        # included, at points spread over the range and over the levels, and
        # on the twelve panels next to each end, where F or 1 - F is a power
        # of the distance (a positive density at 0 for exp_product)
        from riccikit import measures

        dens = measures.from_spec(doc, 1).coord_densities[0]
        g, kinks, one = dens.grid, self._KINKS.get(doc["kind"]), lambda t: 1.0
        rng = np.random.default_rng(6)
        ends = np.r_[0.5 * (g[:12] + g[1:13]), 0.5 * (g[-13:-1] + g[-12:])]
        xs = np.concatenate([ends, rng.uniform(g[0], g[-1], 50),
                             dens.ppf_many(rng.uniform(size=50))])
        for x in xs:
            low = x <= dens._median
            near = self._quad(dens, one, kinks, b=x) if low else self._quad(dens, one, kinks, a=x)
            lower, upper = (near, 1.0 - near) if low else (1.0 - near, near)
            assert abs(dens.cdf(x) - lower) <= 2e-11, x
            assert abs(dens.sf(x) - upper) <= 2e-11, x


class TestDensityNodes:
    """The graded nodes, the node on the minimizer and the running sums that
    every Density1D is built on."""

    @staticmethod
    def _s():
        return np.linspace(-tr._S, tr._S, tr._NODES, retstep=True)

    @pytest.mark.parametrize("deg", [0, 1, 2, 3, 4])
    def test_running_integrals_exact_on_quartics(self, deg):
        # trapezoid sums with both Euler-Maclaurin corrections integrate a
        # quartic exactly, from either end, with or without a cut node
        x, h = np.linspace(-1.0, 2.0, 61, retstep=True)
        lower = (x ** (deg + 1) - x[0] ** (deg + 1)) / (deg + 1)
        for cut in (None, 7, 30):
            left, right = tr._running_integrals(x**deg, h, cut)
            assert left[0] == 0.0 and right[-1] == 0.0
            assert np.abs(left - lower).max() < 1e-13, cut
            assert np.abs(right - (lower[-1] - lower)).max() < 1e-13, cut

    def test_running_integrals_sixth_order(self):
        # the error is O(h^6): halving the step divides it by about 64
        errs = []
        for n in (41, 81, 161):
            x, h = np.linspace(0.0, 2.0, n, retstep=True)
            left, right = tr._running_integrals(np.exp(x), h)
            errs.append(max(np.abs(left - np.expm1(x)).max(),
                            np.abs(right - (math.exp(2.0) - np.exp(x))).max()))
        for coarse, fine in zip(errs, errs[1:]):
            assert 50.0 < coarse / fine < 80.0, errs

    def test_running_integrals_cut_at_a_kink(self):
        # |x| is exact with its kink as the cut node, and not across it
        x, h = np.linspace(-1.0, 2.0, 61, retstep=True)
        k = int(np.argmin(np.abs(x)))
        assert x[k] == 0.0
        lower = np.where(x < 0.0, 0.5 * (1.0 - x * x), 0.5 * (1.0 + x * x))
        left, right = tr._running_integrals(np.abs(x), h, k)
        assert np.abs(left - lower).max() < 1e-14
        assert np.abs(right - (2.5 - lower)).max() < 1e-14
        assert np.abs(tr._running_integrals(np.abs(x), h)[0] - lower).max() > 1e-5

    @pytest.mark.parametrize("lo,hi,c,sc", [(-13.0, 13.0, 0.0, 13.0 / 24.0),
                                            (0.0, 49.0, 24.5, 49.0 / 48.0),
                                            (0.0, 1.0, 0.3, 0.1)])
    def test_graded_nodes(self, lo, hi, c, sc):
        # the nodes run from lo to hi, increasing, and dx/ds is their slope:
        # its running sums give back x - lo and hi - x
        s, hs = self._s()
        x, dxds = tr._graded_nodes(lo, hi, c, sc, s)
        assert x[0] == lo and x[-1] == hi and np.all(np.diff(x) > 0.0)
        left, right = tr._running_integrals(dxds, hs)
        assert np.abs(left - (x - lo)).max() < 1e-12 * (hi - lo)
        assert np.abs(right - (hi - x)).max() < 1e-12 * (hi - lo)

    def test_node_at_puts_a_node_on_the_point(self):
        s, _ = self._s()
        lo, hi, sc = 0.0, 1.0, 0.1
        for x0 in (1e-9, 0.1, 0.3, 0.77):
            j, c = tr._node_at(lo, hi, 0.3, sc, x0, s)
            x, _ = tr._graded_nodes(lo, hi, c, sc, s)
            assert 8 <= j < s.size - 8 and abs(x[j] - x0) <= 4.0 * np.spacing(1.0), x0
        # within 8 nodes of an end the law is left where it is
        assert tr._node_at(0.0, 49.0, 24.5, 49.0 / 48.0, 4.9e-8, s) == (None, 24.5)
