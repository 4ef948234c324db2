"""Estimators, boundary quadrature, the spectral-gap oracle, the slack rule
and the determinism contract."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from riccikit import catalog as cat, cli, engine as eng, families as fam, measures as ms
from riccikit.bodies import Ball, LpBall, Simplex
from riccikit.errors import (
    BoundaryQuadratureFailure,
    DegenerateSample,
    EigensolveFailure,
    HypothesisViolated,
)
from riccikit.fields import (
    QuadraticFormField,
    ScalarPlusRankOne,
    as_matrices,
    cos_sin,
    least_eig,
    project,
    quad_form,
)


def _grad_matches_central_differences(f, pts, tol=1e-6):
    """f.grad against central differences of f.fn at the points."""
    g = f.grad(pts)
    h = 1e-6
    for k in range(pts.shape[1]):
        e = np.zeros(pts.shape[1])
        e[k] = h
        fd = (f.fn(pts + e) - f.fn(pts - e)) / (2.0 * h)
        if np.max(np.abs(fd - g[:, k])) > tol * (1.0 + np.max(np.abs(g))):
            return False
    return True


class TestSuiteFunctions:
    def test_gradients_self_test(self, rng):
        pts = rng.uniform(-1.0, 1.0, size=(16, 3))
        for f in eng.default_suite(3, seed=4):
            assert _grad_matches_central_differences(f, pts), f.id

    def test_dirichlet_wrap_vanishes(self):
        body = Ball(3)
        f = eng.default_suite(3)[0]
        g = eng.dirichlet_wrap(f, body)
        sphere = body.sample_boundary(64, np.random.default_rng(0))
        assert np.abs(g.fn(sphere)).max() < 1e-12
        pts = 0.5 * sphere
        assert _grad_matches_central_differences(g, pts)

    def test_lipschitz_normalization(self, rng):
        pts = rng.uniform(-1, 1, size=(4096, 2))
        f = [f for f in eng.default_suite(2) if f.id == "|x|^2"][0]
        g = eng.lipschitz_normalize(f, pts)
        assert np.linalg.norm(g.grad(pts), axis=1).max() <= 1.0 + 1e-9


class TestSuiteKernels:
    def test_tangent_cosine_and_sine_match_libm(self, rng):
        theta = rng.uniform(-1e4, 1e4, 100000)
        c, s = cos_sin(theta)
        assert np.abs(c - np.cos(theta)).max() <= 4.5e-16
        assert np.abs(s - np.sin(theta)).max() <= 4.5e-16

    def test_tangent_cosine_special_angles(self):
        c, s = cos_sin(np.array([0.0]))
        assert (c[0], s[0]) == (1.0, 0.0)
        turns = np.pi * np.array([0.5, -0.5, 1.0, -1.0, 2.0, -2.0])
        c, s = cos_sin(turns)
        assert np.isfinite(c).all() and np.isfinite(s).all()
        assert np.abs(c - np.cos(turns)).max() <= 4.5e-16
        assert np.abs(s - np.sin(turns)).max() <= 4.5e-16
        c, s = cos_sin(np.array([np.nan, 1.0]))
        assert np.isnan(c[0]) and np.isnan(s[0]) and np.isfinite(c[1])

    def test_tangent_cosine_is_elementwise(self, rng):
        theta = rng.uniform(-30.0, 30.0, 1031)
        c, s = cos_sin(theta)
        for k in (0, 1, 15, 16, 17, 512, 1030):
            ck, sk = cos_sin(theta[k:k + 1])
            assert (ck[0], sk[0]) == (c[k], s[k])

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_d1_projection_is_the_matrix_vector_product(self, rng, order):
        p = np.asarray(ms.laplace_product(1).sample(5000, 3), order=order)
        for v in (np.array([1.0]), rng.standard_normal(1), np.array([-3e-7])):
            assert np.array_equal(project(p, v), p @ v)
        q = np.asarray(rng.standard_normal((300, 4)), order=order)
        v = rng.standard_normal(4)
        assert np.array_equal(project(q, v), q @ v)

    def test_point_and_its_batch_of_one(self):
        # at d = 1 every projection is elementwise; the cubic gradients are
        # one (1, 3) @ (3, n) product, whose sum order follows n
        pts = np.asarray(ms.gaussian(1).sample(2000, 5))
        for f in eng.default_suite(1, seed=5):
            v, g = f.fn(pts), f.grad(pts)
            for k in (0, 1, 999, 1999):
                one = np.array([pts[k]])
                assert np.array_equal(f.fn(one), v[k:k + 1]), f.id
                if not f.id.startswith("poly3_"):
                    assert np.array_equal(f.grad(one), g[k:k + 1]), f.id


@pytest.mark.filterwarnings("error")
class TestSinglePassEstimators:
    """The estimators keep the bits of the two-pass numpy formulas.  A
    reordered rounding (say s / (n - 1) for s / n * n / (n - 1)) changes
    the last bit on about one array in ten, hence the many arrays."""

    @staticmethod
    def _arrays(n):
        rng = np.random.default_rng(n)
        for _ in range(12):
            yield rng.exponential(size=n) ** 3  # skewed
            yield rng.standard_t(2.5, size=n)  # heavy-tailed
            yield 1e6 + rng.pareto(1.5, size=n)  # heavy-tailed, far from 0
            yield np.asarray(rng.standard_normal((n, 3)), order="C")[:, 1]  # strided

    @pytest.mark.parametrize("n", [101, 50000])
    def test_variance_lhs_keeps_the_numpy_bits(self, n):
        inst = cat.InequalityInstance(id="probe", lhs_kind="variance",
                                      measure=ms.gaussian(1))
        samples = np.zeros((n, 1))
        for vals in self._arrays(n):
            est, err = eng.estimate_lhs(inst, None, samples, values=vals)
            assert est == float(vals.var(ddof=0) * n / (n - 1))
            sq = (vals - vals.mean()) ** 2
            assert err == float(sq.std(ddof=1) / math.sqrt(n))

    @pytest.mark.parametrize("n", [101, 50000])
    def test_mean_se_keeps_the_numpy_bits(self, n):
        for vals in self._arrays(n):
            assert eng._mean_se(vals) == float(vals.std(ddof=1) / math.sqrt(n))

    def test_mean_se_rescales_overflowing_squares(self, rng):
        vals = 1e200 * (1.0 + rng.standard_normal(5000))
        with np.errstate(over="ignore"):
            assert not math.isfinite(vals.std(ddof=1))
        scale = 2.0 ** math.frexp(float(np.abs(vals).max()))[1]
        want = float((vals / scale).std(ddof=1) * scale / math.sqrt(len(vals)))
        assert eng._mean_se(vals) == want
        assert want == pytest.approx(1e200 / math.sqrt(len(vals)), rel=0.05)


@pytest.mark.filterwarnings("error")
class TestRhsScreen:
    """estimate_rhs names the first non-finite energy before any negative
    one, and the least energy for a PSD failure."""

    N = 2000

    def _rhs(self, energies):
        inst = cat.instantiate("classical_bl", {"measure": ms.gaussian(2)})
        weight = QuadraticFormField(dim=2, batch=lambda pts: energies, name="probe")
        inst = dataclasses.replace(inst, rhs_weight=weight)
        samples = eng.sample_measure(inst.measure, self.N, 3)
        f = eng.default_suite(2, seed=3)[0]  # x1: |grad f|^2 = 1
        return lambda: eng.estimate_rhs(inst, f, samples), samples

    def _raise(self, bad):
        w = np.ones(self.N)
        w[list(bad)] = list(bad.values())
        rhs, samples = self._rhs(w)
        with pytest.raises(HypothesisViolated) as err:
            rhs()
        exc = err.value
        return exc.hypothesis, exc.margin, exc.location, samples

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_energy(self, value):
        name, margin, at, samples = self._raise({700: value, 1500: value})
        assert name == "rhs_energy_finite"
        assert np.array_equal(at, samples[700])
        assert margin == value or (math.isnan(value) and math.isnan(margin))

    def test_opposite_infinities(self):
        name, _, at, samples = self._raise({5: np.inf, 6: -np.inf})
        assert name == "rhs_energy_finite"
        assert np.array_equal(at, samples[5])

    def test_negative_energy(self):
        name, margin, at, samples = self._raise({40: -1e-3, 900: -2.0})
        assert (name, margin) == ("rhs_weight_psd", -2.0)
        assert np.array_equal(at, samples[900])

    def test_inf_after_a_negative_energy(self):
        name, margin, at, samples = self._raise({10: -5.0, 1800: np.inf})
        assert (name, margin) == ("rhs_energy_finite", np.inf)
        assert np.array_equal(at, samples[1800])

    def test_overflowing_mean(self):
        rhs, _ = self._rhs(np.full(self.N, 1e308))
        with pytest.raises(HypothesisViolated) as err:
            rhs()
        assert (err.value.hypothesis, err.value.location, err.value.margin) == (
            "rhs_energy_finite", None, np.inf)

    def test_tiny_negative_energy_passes(self):
        w = np.ones(self.N)
        w[3] = -1e-11
        est, _ = self._rhs(w)[0]()
        assert est == pytest.approx(1.0, abs=1e-3)


class TestEstimators:
    def test_uniform_variance(self):
        mu = ms.uniform_interval(0.0, 1.0)
        inst = cat.instantiate("payne_weinberger", {"measure": ms.uniform_interval(-0.5, 0.5)})
        samples = eng.sample_measure(mu, 200000, 3)
        f = eng.default_suite(1)[0]
        inst_var = cat.InequalityInstance(
            id="probe", lhs_kind="variance", measure=mu
        )
        est, err = eng.estimate_lhs(inst_var, f, samples)
        assert abs(est - 1.0 / 12.0) < 4 * err

    def test_gaussian_variance(self):
        mu = ms.gaussian(1)
        samples = eng.sample_measure(mu, 200000, 5)
        inst = cat.InequalityInstance(id="probe", lhs_kind="variance", measure=mu)
        f = eng.default_suite(1)[0]
        est, err = eng.estimate_lhs(inst, f, samples)
        assert abs(est - 1.0) < 4 * err

    def test_exponential_entropy_vs_quadrature(self):
        # Ent(f^2) for f = x - 1 under exp(-x): quadrature oracle
        mu = ms.exp_product(1)
        samples = eng.sample_measure(mu, 400000, 7)
        inst = cat.InequalityInstance(
            id="probe", lhs_kind="entropy_of_square", measure=mu
        )
        f = eng.default_suite(1)[0]

        def integrand(x):
            t = (x - 1.0) ** 2
            return t * math.log(max(t, 1e-300)) * math.exp(-x)

        m2, _ = integrate.quad(lambda x: (x - 1.0) ** 2 * math.exp(-x), 0, 60)
        tln, _ = integrate.quad(integrand, 0, 60, limit=200)
        oracle = tln - m2 * math.log(m2)
        est, err = eng.estimate_lhs(inst, f, samples)
        assert abs(est - oracle) < 4 * err + 0.01 * abs(oracle)

    def test_entropy_linearization_to_variance(self):
        # Ent((1 + eps f)^2)/(2 eps^2) -> Var(f) as eps -> 0
        mu = ms.gaussian(1)
        samples = eng.sample_measure(mu, 200000, 11)
        fx = samples[:, 0]
        eps = 1e-3
        t = (1.0 + eps * (fx - fx.mean())) ** 2
        ent = (t * np.log(t)).mean() - t.mean() * math.log(t.mean())
        var = fx.var(ddof=1)
        assert abs(ent / (2 * eps**2) - var) / var < 0.01

    def test_degenerate_sample_guard(self):
        mu = ms.gaussian(1)
        inst = cat.InequalityInstance(id="probe", lhs_kind="variance", measure=mu)
        with pytest.raises(DegenerateSample):
            eng.estimate_lhs(inst, eng.default_suite(1)[0], np.zeros((10, 1)))

    def test_classical_gaussian_equality_case(self):
        # RHS = 1 exactly for linear f under the Gaussian: slack ~ 0
        inst = cat.instantiate("classical_bl", {"measure": ms.gaussian(2)})
        samples = eng.sample_measure(inst.measure, 100000, 13)
        f = eng.default_suite(2)[0]
        rhs, rhs_err = eng.estimate_rhs(inst, f, samples)
        assert rhs == pytest.approx(1.0, abs=1e-12)

    def test_poly_part2_gamma_moment(self):
        # exponential d=1, f=x: RHS = 4 int x^2 e^{-x} = 8
        inst = cat.instantiate(
            "poly_product", {"measure": ms.exp_product(1), "part": 2}
        )
        samples = eng.sample_measure(inst.measure, 400000, 17)
        f = eng.default_suite(1)[0]
        rhs, rhs_err = eng.estimate_rhs(inst, f, samples)
        assert abs(rhs - 8.0) < 4 * rhs_err


class TestBoundaryQuadrature:
    def test_hardy_n0_linear_function_sphere_moment(self):
        # boundary term for f = x_1 on the unit ball: C* = 0 by symmetry and
        # the integral is w * (Surf/Vol) * E[x_1^2] = (2/d) * d * (1/d) = 2/d
        d = 6
        inst = cat.instantiate("hardy_n0", {"body": Ball(d)})
        f = eng.default_suite(d)[0]
        est, err = eng.boundary_quadrature(inst, f, 200000, seed=3)
        want = 2.0 / d
        assert abs(est - want) < 4 * err + 1e-4


def _coverage(z):
    """SD of the z-scores and the share of them beyond 3."""
    z = np.asarray(z)
    return float(z.std(ddof=1)), float(np.mean(np.abs(z) > 3.0))


def _lhs_z_scores(inst, f, want, n=5000, seeds=range(400)):
    z = []
    for s in seeds:
        est, err = eng.estimate_lhs(inst, f, eng.sample_measure(inst.measure, n, s))
        z.append((est - want) / err)
    return _coverage(z)


class TestStandardErrorCoverage:
    """Seed sweeps on known-value rows: (estimate - truth) / SE should have
    SD near 1 and exceed 3 about as rarely as a standard normal (0.27%)."""

    def test_gaussian_variance(self):
        # classical_bl under N(0, sigma^2 I): Var(x1) = sigma^2
        sigma = 1.3
        inst = cat.instantiate("classical_bl", {"measure": ms.gaussian(2, sigma)})
        sd, rate = _lhs_z_scores(inst, eng.default_suite(2)[0], sigma**2)
        assert 0.85 <= sd <= 1.15
        assert rate <= 0.02

    def test_ball_variance(self):
        # uniform on the ball of radius R: Var(x1) = R^2 / (d + 2)
        d, radius = 6, 1.5
        inst = cat.instantiate("hardy_n0", {"body": Ball(d, radius)})
        assert inst.lhs_kind == "variance" and inst.lhs_scale == 1.0
        sd, rate = _lhs_z_scores(inst, eng.default_suite(d)[0], radius**2 / (d + 2))
        assert 0.85 <= sd <= 1.15
        assert rate <= 0.02

    def test_entropy_of_square_skewed(self):
        # Ent(f^2) for f = x^2 - 1/3 under uniform[0, 1], a skewed case where
        # the recentering at the sample mean moves the SE; quadrature oracle
        mu = ms.uniform_interval(0.0, 1.0)
        inst = cat.InequalityInstance(
            id="probe", lhs_kind="entropy_of_square", measure=mu
        )
        f = [f for f in eng.default_suite(1) if f.id == "|x|^2"][0]

        def t_log_t(x):
            t = (x * x - 1.0 / 3.0) ** 2
            return t * math.log(t) if t > 0.0 else 0.0

        m2, _ = integrate.quad(lambda x: (x * x - 1.0 / 3.0) ** 2, 0.0, 1.0)
        tln, _ = integrate.quad(t_log_t, 0.0, 1.0, points=[3.0**-0.5], limit=200)
        sd, rate = _lhs_z_scores(inst, f, tln - m2 * math.log(m2))
        assert 0.85 <= sd <= 1.15
        assert rate <= 0.02

    def test_ball_boundary_antithetic_pairs(self):
        # On the sphere the points come in pairs (z, -z), so (x1 - C*)^2 is
        # equal within a pair; an SE that treats the 2000 points as i.i.d.
        # is too small by about sqrt(2).
        d, n = 6, 2000
        body = Ball(d)
        inst = cat.instantiate("hardy_boundary", {"body": body, "N": -1.0})
        pole = np.zeros((1, d))
        pole[0, 0] = 1.0
        w = float(inst.boundary.weight(pole)[0])  # constant on the sphere
        want = body.surface_area() / body.volume() * w / d
        f = eng.default_suite(d)[0]
        z = []
        for s in range(200):
            est, err = eng.boundary_quadrature(inst, f, n, seed=s)
            z.append((est - want) / err)
        sd, rate = _coverage(z)
        assert 0.85 <= sd <= 1.15
        assert rate <= 0.02


# potentials and intervals of the solver agreement panel, by id
SPECTRAL_PANEL = {
    "uniform": (lambda t: 0.0, (0.0, 1.0)),
    "gaussian_0.855": (lambda t: 0.5 * t * t / 0.855**2, (-8.0 * 0.855, 8.0 * 0.855)),
    "gaussian_2": (lambda t: 0.125 * t * t, (-16.0, 16.0)),
    "exp_40": (lambda t: t, (0.0, 40.0)),
    "exp_200": (lambda t: t, (0.0, 200.0)),
    "logcosh": (lambda t: np.log(np.cosh(t)), (-20.0, 20.0)),
    "double_well": (lambda t: 4.0 * (t * t - 1.0) ** 2, (-3.0, 3.0)),
    "quartic": (lambda t: t**4, (-4.0, 4.0)),
    "cos3": (lambda t: 3.0 * np.cos(3.0 * t), (-math.pi, math.pi)),
}


def _lapack_gap(potential, interval, m):
    """The reference: LAPACK's second eigenvalue of the same pencil after the
    symmetric scaling M^(-1/2) K M^(-1/2), on m nodes without Richardson."""
    from scipy.linalg import eigh_tridiagonal

    x = np.linspace(interval[0], interval[1], m)
    h = x[1] - x[0]
    v = np.broadcast_to(np.asarray(potential(x), dtype=float), x.shape)
    v = v - v.min()
    wh = np.exp(-0.5 * (v[1:] + v[:-1]))
    diag = np.zeros(m)
    diag[:-1] += wh
    diag[1:] += wh
    mass = np.full(m, h)
    mass[0] = mass[-1] = 0.5 * h
    scale = 1.0 / np.sqrt(mass * np.exp(-v))
    eigs = eigh_tridiagonal(
        diag / h * scale**2, -wh / h * scale[:-1] * scale[1:],
        select="i", select_range=(0, 1), eigvals_only=True,
    )
    return eigs[1]


class TestSpectralGap:
    def test_uniform_interval_pi_squared(self):
        lam, cp = eng.spectral_gap_1d(lambda t: 0.0, (0.0, 1.0), n=4096)
        assert abs(lam - math.pi**2) < 1e-4
        assert cp == pytest.approx(1.0 / lam)

    def test_gaussian_gap_one(self):
        lam, _ = eng.spectral_gap_1d(lambda t: 0.5 * t * t, (-8.0, 8.0), n=4096)
        assert abs(lam - 1.0) < 1e-4

    def test_exponential_quarter(self):
        # the half-line exponential has essential spectrum starting at 1/4;
        # a long truncation approaches it like (pi/L)^2
        lam, _ = eng.spectral_gap_1d(lambda t: t, (0.0, 200.0), n=4096)
        assert abs(lam - 0.25) < 1e-3

    def test_truncation_shift_matches_theory(self):
        lam, _ = eng.spectral_gap_1d(lambda t: t, (0.0, 40.0), n=4096)
        assert lam == pytest.approx(0.25 + (math.pi / 40.0) ** 2, abs=2e-4)

    def test_grid_floor(self):
        with pytest.raises(EigensolveFailure):
            eng.spectral_gap_1d(lambda t: 0.0, (0.0, 1.0), n=64)

    @pytest.mark.parametrize("case", sorted(SPECTRAL_PANEL))
    @pytest.mark.parametrize("m", [1024, 4096])
    def test_matches_lapack_on_the_scaled_pencil(self, case, m):
        potential, interval = SPECTRAL_PANEL[case]
        lam, _ = eng.spectral_gap_1d(potential, interval, n=m, richardson=False)
        want = _lapack_gap(potential, interval, m)
        assert lam == pytest.approx(want, rel=1e-7)

    def test_cos_density_two_pi_squared(self):
        # end masses of 3e-20 against 3e-6 inside: the M^(-1/2) scaling of
        # a LAPACK solve read 2 pi^2 only to 1.6e-4 here
        lam, _ = eng.spectral_gap_1d(
            lambda t: -np.log(np.cos(np.pi * t)), (-0.5, 0.5), n=4096
        )
        assert lam == pytest.approx(2.0 * math.pi**2, rel=1e-8)

    def test_repeat_calls_are_bit_identical(self):
        def pot(t):
            return np.log(np.cosh(t))

        assert eng.spectral_gap_1d(pot, (-20.0, 20.0)) == eng.spectral_gap_1d(
            pot, (-20.0, 20.0)
        )

    def test_lanczos_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(eng, "LANCZOS_STEPS", 5)
        with pytest.raises(EigensolveFailure, match="Lanczos"):
            eng.spectral_gap_1d(lambda t: t, (0.0, 200.0), n=1024)

    def test_underflowing_tails_are_trimmed(self):
        # exp(-V) underflows to 0 near the ends of each interval
        lam, _ = eng.spectral_gap_1d(lambda t: 0.5 * t * t, (-40.0, 40.0))
        assert lam == pytest.approx(1.0, abs=1e-6)
        lam, _ = eng.spectral_gap_1d(lambda t: 50.0 * t * t, (-5.0, 5.0))
        assert lam == pytest.approx(100.0, rel=1e-6)
        wide, _ = eng.spectral_gap_1d(lambda t: t**8, (-4.0, 4.0))
        narrow, _ = eng.spectral_gap_1d(lambda t: t**8, (-2.2, 2.2))
        assert wide == pytest.approx(narrow, rel=1e-8)

    def test_interior_barrier_raises(self):
        with pytest.raises(EigensolveFailure, match="underflows inside"):
            eng.spectral_gap_1d(lambda t: np.where(abs(t) < 0.1, 800.0, 0.0), (-1.0, 1.0))

    @pytest.mark.parametrize(
        "interval", [(1.0, 0.0), (0.0, 0.0), (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)]
    )
    def test_bad_interval_raises_before_evaluating(self, interval):
        def pot(t):
            raise AssertionError("potential evaluated")

        with pytest.raises(EigensolveFailure, match="interval"):
            eng.spectral_gap_1d(pot, interval)



class TestLeastEig:
    def test_identity_field(self):
        identity = QuadraticFormField(dim=2, batch=lambda pts: np.ones(len(pts)))
        w = identity.compact(np.zeros((3, 2)))
        assert np.array_equal(least_eig(w, 2), np.ones(3))

    def test_indefinite_field(self):
        field = QuadraticFormField(
            dim=2, batch=lambda pts: np.tile([1.0, -1.0], (len(pts), 1))
        )
        w = field.compact(np.zeros((3, 2)))
        assert np.array_equal(least_eig(w, 2), -np.ones(3))

    def test_product_metric_ricci_nonnegative(self):
        mu = ms.exp_product(2)
        pts = mu.sample(4096, 3)
        data = fam.ProductMetricData.power(0.5, 2)
        eigs = np.linalg.eigvalsh(fam.product_ricci(data, mu.potential, pts))[:, 0]
        assert eigs.min() > -1e-8


def _form(w):
    """The name of a compact weight form."""
    if isinstance(w, ScalarPlusRankOne):
        return "rank_one"
    return {1: "scalar", 2: "diagonal", 3: "full"}[w.ndim]


# catalog entries graded against a fixed RHS or a ratio: no weight field
_NO_STANDARD_WEIGHT = ("cone_variance", "l1_type", "one_lip_reduction")


def _weight_cases():
    """(entry, d) for every catalog entry with a standard weight, at its
    min_dim and at d = 4 where its window allows."""
    cases = []
    for eid, e in sorted(cat.CATALOG.items()):
        if eid in _NO_STANDARD_WEIGHT:
            continue
        dims = {e.min_dim}
        if e.min_dim <= 4 and (e.max_dim is None or e.max_dim >= 4):
            dims.add(4)
        cases += [(eid, d) for d in sorted(dims)]
    return cases


def _smoke_instance(entry, d):
    (doc,) = [x for x in cli.load_bundled("paper-smoke") if x["inequality"] == entry]
    config = cli.parse_config({**doc, "dims": [d]})
    return cat.instantiate(entry, cli._instance_params(config, d))


class TestWeightContraction:
    @pytest.mark.parametrize(
        "inequality,params,shape",
        [
            ("hardy_dirichlet", {"body": Ball(4)}, "scalar"),
            ("poly_product", {"measure": ms.exp_product(4), "part": 2},
             "diagonal"),
            ("dim_bl_boundary", {"body": Ball(4), "N": -8.0}, "rank_one"),
        ],
    )
    def test_compact_contraction_matches_dense(self, inequality, params, shape):
        inst = cat.instantiate(inequality, params)
        pts = eng.sample_measure(inst.measure, 2000, 5)
        w = inst.rhs_weight.compact(pts)
        assert _form(w) == shape
        dense = inst.rhs_weight.values(pts)
        assert dense.shape == (2000, 4, 4)
        assert np.array_equal(inst.rhs_weight.values(pts[7:8])[0], dense[7])
        for f in eng.default_suite(4, seed=2):
            g = f.grad(pts)
            want = np.einsum("nij,ni,nj->n", dense, g, g)
            got = quad_form(w, g)
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), f.id

    @pytest.mark.parametrize("entry,d", _weight_cases())
    def test_catalog_weights_keep_the_contract(self, entry, d):
        inst = _smoke_instance(entry, d)
        assert inst.eval_mode == "standard"
        pts = eng.sample_measure(inst.measure, 2000, 5)
        w = inst.rhs_weight.compact(pts)
        assert _form(w) in ("scalar", "diagonal", "full", "rank_one")
        dense = inst.rhs_weight.values(pts)
        assert dense.shape == (2000, d, d)
        for f in eng.default_suite(d, seed=2):
            g = f.grad(pts)
            want = np.einsum("nij,ni,nj->n", dense, g, g)
            assert np.all(np.abs(quad_form(w, g) - want) <= 1e-14 * np.abs(want)), f.id

    @pytest.mark.parametrize("entry", _NO_STANDARD_WEIGHT)
    def test_entries_without_a_weight(self, entry):
        e = cat.CATALOG[entry]
        assert _smoke_instance(entry, max(e.min_dim, 4)).rhs_weight is None

    @pytest.mark.parametrize("entry", sorted(cat.CATALOG))
    def test_every_smoke_instance_has_a_measure(self, entry):
        e = cat.CATALOG[entry]
        d = max(e.min_dim, min(4, e.max_dim or 4))
        assert isinstance(_smoke_instance(entry, d).measure, ms.MeasureSpec)

    def test_rank_one_matches_its_dense_expansion(self):
        # the radial weight |x|^2 ((Id - x^ x^T)/tc + x^ x^T/rc), built dense
        d = 8
        inst = cat.instantiate("dim_bl_boundary", {"body": Ball(d), "N": -8.0})
        ev = fam.radial_conformal_eigenvalues(inst.params["theta"], 0.0, -8.0, d, 1.0)
        tc, rc = ev.tangential, ev.radial

        def dense_batch(pts):
            r2 = np.sum(pts**2, axis=1)
            xhat = pts / np.sqrt(r2)[:, None]
            outer = np.einsum("ni,nj->nij", xhat, xhat)
            return r2[:, None, None] * ((np.eye(d) - outer) / tc + outer / rc)

        dense = QuadraticFormField(dim=d, batch=dense_batch)
        pts = eng.sample_measure(inst.measure, 4000, 9)
        want = dense.values(pts)
        got = inst.rhs_weight.values(pts)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want).max(axis=(1, 2))[:, None, None])
        lo_rank_one = least_eig(inst.rhs_weight.compact(pts), d)
        lo_dense = np.linalg.eigvalsh(want)[:, 0]
        assert np.all(np.abs(lo_rank_one - lo_dense) <= 1e-14 * np.abs(lo_dense))

    def test_compact_rejects_unshaped_weights(self):
        field = QuadraticFormField(dim=2, batch=lambda pts: 1.0, name="const")
        with pytest.raises(ValueError, match="shape"):
            field.compact(np.zeros((3, 2)))

    def test_diagonal_plus_rank_one_matches_its_dense_expansion(self):
        rng = np.random.default_rng(3)
        n, d = 500, 5
        s, u, v = rng.uniform(0.5, 2.0, (n, d)), rng.normal(size=(n, d)), rng.normal(size=(n, d))
        field = QuadraticFormField(dim=d, batch=lambda pts: ScalarPlusRankOne(s, -0.3, u))
        w = field.compact(np.zeros((n, d)))
        dense = np.zeros((n, d, d))
        dense[:, np.arange(d), np.arange(d)] = s
        dense -= 0.3 * np.einsum("ni,nj->nij", u, u)
        assert np.array_equal(as_matrices(w, d), dense)
        want = np.einsum("nij,ni,nj->n", dense, v, v)
        assert np.all(np.abs(quad_form(w, v) - want) <= 1e-13 * np.abs(want).max())

    def test_compact_rejects_unshaped_rank_one(self):
        field = QuadraticFormField(
            dim=2, batch=lambda pts: ScalarPlusRankOne(np.ones(len(pts)), 1.0, pts[:, :1])
        )
        with pytest.raises(ValueError, match="shape"):
            field.compact(np.zeros((3, 2)))
        field = QuadraticFormField(
            dim=2, batch=lambda pts: ScalarPlusRankOne(np.ones((len(pts), 3)), 1.0, pts)
        )
        with pytest.raises(ValueError, match="shape"):
            field.compact(np.zeros((3, 2)))


class TestSharedPerCheckWork:
    """Work that does not depend on the test function is done once per check."""

    @staticmethod
    def _count(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    @pytest.mark.parametrize("entry,params", [
        ("hardy_boundary", {"N": -1.0}),
        ("hardy_n0", {}),
        ("dim_bl_boundary", {"N": -8.0, "part": 1}),
    ])
    def test_one_boundary_draw_per_check(self, monkeypatch, entry, params):
        calls = self._count(monkeypatch, Ball, "sample_boundary")
        inst = cat.instantiate(entry, {"body": Ball(6), **params})
        report = eng.check_inequality(inst, budget=2000, seed=4)
        assert len(report.rows) == 12
        assert len(calls) == 1

    def test_one_gauge_pass_per_dirichlet_check(self, monkeypatch):
        gauge = self._count(monkeypatch, Ball, "gauge")
        gauge_grad = self._count(monkeypatch, Ball, "gauge_grad")
        inst = cat.instantiate("hardy_dirichlet", {"body": Ball(6)})
        report = eng.check_inequality(inst, budget=2000, seed=4)
        assert len(report.rows) == 12
        assert (len(gauge), len(gauge_grad)) == (1, 1)

    def test_dirichlet_rows_match_the_wrapped_functions(self):
        body = Ball(4)
        inst = cat.instantiate("hardy_dirichlet", {"body": body})
        report = eng.check_inequality(inst, budget=2000, seed=4)
        samples = eng.sample_measure(inst.measure, 2000, 4)
        for f, row in zip(eng.default_suite(4, seed=4), report.rows):
            g = eng.dirichlet_wrap(f, body)
            assert row.function == g.id
            assert (row.lhs, row.lhs_err) == eng.estimate_lhs(inst, g, samples)
            assert (row.rhs, row.rhs_err) == eng.estimate_rhs(inst, g, samples)

    def test_boundary_contribution_is_the_standalone_quadrature(self):
        inst = cat.instantiate("hardy_boundary", {"body": Ball(6), "N": -1.0})
        n, seed = 2000, 4
        report = eng.check_inequality(inst, budget=n, seed=seed)
        samples = eng.sample_measure(inst.measure, n, seed)
        interior = dataclasses.replace(inst, boundary=None)
        for f, row in zip(eng.default_suite(6, seed=seed), report.rows):
            est, err = eng.estimate_rhs(interior, f, samples)
            best, berr = eng.boundary_quadrature(inst, f, n, seed)
            assert row.rhs == est + best
            assert row.rhs_err == math.hypot(err, berr)

    def test_boundary_failure_is_one_error(self):
        # an l_p ball is not ball-like, so it is swapped in after instantiation:
        # boundary quadrature has no rule for it
        inst = cat.instantiate("hardy_boundary", {"body": Ball(6), "N": -1.0})
        boundary = dataclasses.replace(inst.boundary, body=LpBall(6, 3.0))
        inst = dataclasses.replace(inst, boundary=boundary)
        with pytest.raises(BoundaryQuadratureFailure, match="lp"):
            eng.check_inequality(inst, budget=2000, seed=4)


class TestNonFiniteEnergy:
    def _instance(self, bad, value=np.inf):
        inst = cat.instantiate("classical_bl", {"measure": ms.gaussian(2)})

        def batch(pts):
            w = np.ones(len(pts))
            w[bad] = value
            return w

        weight = QuadraticFormField(dim=2, batch=batch, name="one bad weight")
        return dataclasses.replace(inst, rhs_weight=weight)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_estimate_rhs_names_the_point(self, value):
        inst = self._instance(1234, value)
        samples = eng.sample_measure(inst.measure, 2000, 7)
        f = eng.default_suite(2, seed=7)[0]
        with pytest.raises(HypothesisViolated) as err:
            eng.estimate_rhs(inst, f, samples)
        assert err.value.hypothesis == "rhs_energy_finite"
        assert np.array_equal(err.value.location, samples[1234])

    def test_rows_become_error_rows(self):
        inst = self._instance(1234)
        report = eng.check_inequality(inst, budget=2000, seed=7)
        assert len(report.rows) == 12
        assert all(r.status == "error" for r in report.rows)
        errors = [k for k in report.attachments if k.endswith(":error")]
        assert len(errors) == 12
        assert all("rhs_energy_finite" in report.attachments[k] for k in errors)


class TestSlackRule:
    def test_pass_fail_threshold(self):
        assert eng._status(1.0, 0.0, 1.0, 0.0, True)[0] == "pass"
        # fails only beyond 3 sigma + 2% of the RHS
        assert eng._status(1.04, 0.01, 1.0, 0.0, True)[0] == "pass"
        assert eng._status(1.2, 0.01, 1.0, 0.0, True)[0] == "fail"
        assert eng._status(5.0, 0.0, 1.0, 0.0, False)[0] == "report-only"


class TestDeterminism:
    def test_same_seed_same_report(self):
        inst = cat.instantiate("classical_bl", {"measure": ms.gaussian(2)})
        a = eng.check_inequality(inst, budget=20000, seed=3)
        b = eng.check_inequality(inst, budget=20000, seed=3)
        assert [r.as_dict() for r in a.rows] == [r.as_dict() for r in b.rows]

    def test_seed_reaches_cone_measure_sampler(self):
        # sum_x, cos1 and cos2 are constant on the facet, so leave them out
        inst = cat.instantiate("cone_variance", {"body": Simplex(4)})
        functions = [f for f in eng.default_suite(4) if f.id in ("x1", "x1*x2")]
        a, b = (
            eng.check_inequality(inst, functions=functions, budget=2000, seed=s)
            for s in (1, 2)
        )
        assert all(x.lhs != y.lhs for x, y in zip(a.rows, b.rows))

    def test_cone_variance_draws_the_cone_measure(self):
        # x1 is 1-Lipschitz, so the check's row is the variance of the first
        # coordinate of exactly these points
        body = Simplex(4)
        inst = cat.instantiate("cone_variance", {"body": body})
        (x1,) = [f for f in eng.default_suite(4) if f.id == "x1"]
        (row,) = eng.check_inequality(inst, functions=[x1], budget=3000, seed=6).rows
        pts = ms.cone_measure(body).sample(3000, 6)
        assert (row.lhs, row.lhs_err) == eng.estimate_lhs(inst, x1, pts)
        assert (row.rhs, row.rhs_err) == (inst.rhs_fixed, 0.0)

    def test_seed_changes_digits_not_statuses(self):
        inst = cat.instantiate("classical_bl", {"measure": ms.gaussian(2)})
        a = eng.check_inequality(inst, budget=50000, seed=3)
        b = eng.check_inequality(inst, budget=50000, seed=4)
        assert [r.status for r in a.rows] == [r.status for r in b.rows]
        assert any(
            x.lhs != y.lhs for x, y in zip(a.rows, b.rows) if not math.isnan(x.lhs)
        )
