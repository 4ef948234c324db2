"""Numerical evaluation of inequality instances.

Both sides are estimated from one point set per check (`sample_points`):
on a product measure, R randomly shifted copies of one rank-1 lattice
(`MeasureSpec.lattice`); on any other measure, i.i.d. samples.  Each
standard error comes from the statistic's influence function over the
points already drawn (the delta method): the sample standard deviation of
the R copy means of the influence values over sqrt(R), which is the i.i.d.
rule sd / sqrt(n) when every copy holds one point.  Boundary terms use
antithetic Monte Carlo on the boundary of a ball.

`spectral_gap_1d` is the exact 1-D spectral-gap oracle: a numpy Lanczos
run on the cumulative-sum inverse of a flux discretization, with the end
nodes where exp(-V) underflows trimmed.

Determinism contract: a report is a pure function of (instance, suite,
budget, seed).  i.i.d. sampling draws a fixed number of logical shards, each
from its own stream spawned from the seed, and concatenates them in shard
order; the shifts of a lattice point set come from one stream of the seed
and a fixed label, and the boundary points from one stream of the seed and
the instance id.
"""

import functools
import math
import zlib
from dataclasses import asdict, dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .bodies import Ball
from .catalog import InequalityInstance
from .errors import (
    BoundaryQuadratureFailure,
    DegenerateSample,
    EigensolveFailure,
    HypothesisViolated,
)
from .fields import cos_sin, project, quad_form, row_dots

REL_TOL = 0.02  # relative slack allowance in the pass/fail rule
SIGMA_FACTOR = 3.0


@dataclass
class TestFunction:
    """A C^1 test function with vectorized value/gradient callbacks."""

    id: str
    fn: Callable  # (n, d) -> (n,)
    grad: Callable  # (n, d) -> (n, d)
    lipschitz_bound: Optional[float] = None


def default_suite(d, seed=0) -> List[TestFunction]:
    """Coordinates, |x|^2, the diagonal direction, a coordinate product,
    low-frequency cosines of the diagonal, and five seeded random cubics;
    constant and cosine gradients are read-only broadcast views.  Projections
    p.v are `fields.project`, cosines and sines `fields.cos_sin`."""
    funcs = []
    sq = math.sqrt(d)
    ones = np.ones(d)

    def coord(i):
        e = np.zeros(d)
        e[i] = 1.0
        return TestFunction(
            id=f"x{i + 1}",
            fn=lambda p: p[:, i],
            grad=lambda p, e=e: np.broadcast_to(e, p.shape),
            lipschitz_bound=1.0,
        )

    funcs.append(coord(0))
    if d > 1:
        funcs.append(coord(d - 1))
    funcs.append(
        TestFunction(
            id="|x|^2",
            fn=lambda p: row_dots(p, p),
            grad=lambda p: 2.0 * p,
        )
    )
    if d > 1:
        diag = np.full(d, 1.0 / sq)
        funcs.append(
            TestFunction(
                id="sum_x",
                fn=lambda p: project(p, diag),
                grad=lambda p: np.broadcast_to(diag, p.shape),
                lipschitz_bound=1.0,
            )
        )
        funcs.append(
            TestFunction(
                id="x1*x2",
                fn=lambda p: p[:, 0] * p[:, 1],
                grad=lambda p: np.stack(
                    [p[:, 1], p[:, 0]] + [np.zeros(len(p))] * (d - 2)
                ).T,
            )
        )
    for k in (1, 2):
        w = k * math.pi / sq
        funcs.append(
            TestFunction(
                id=f"cos{k}",
                fn=lambda p, w=w: cos_sin(w * project(p, ones))[0],
                grad=lambda p, w=w: np.broadcast_to(
                    -w * cos_sin(w * project(p, ones))[1], (d, len(p))
                ).T,
                lipschitz_bound=k * math.pi,
            )
        )
    rng = np.random.default_rng(seed)
    for j in range(5):
        a = rng.standard_normal(d)
        b = rng.standard_normal(d)
        c = rng.standard_normal(d)
        al, be = 0.5 * rng.uniform(), 0.2 * rng.uniform()

        def fn(p, a=a, b=b, c=c, al=al, be=be):
            u = project(p, c)
            return project(p, a) + al * project(p, b) ** 2 + be * (u * u * u)

        def grad(p, abc=np.stack([a, b, c]), al=al, be=be):
            # a + (2 al p.b) b + (3 be (p.c)^2) c as one (d, 3) @ (3, n)
            # product filled in place: broadcast row-by-vector products, and
            # np.stack of fresh rows (new pages on every call), are several times slower
            coef = np.empty((3, len(p)))
            coef[0] = 1.0
            np.multiply(2.0 * al, project(p, abc[1]), out=coef[1])
            pc = project(p, abc[2])
            np.multiply(pc, pc, out=coef[2])
            coef[2] *= 3.0 * be
            return (abc.T @ coef).T

        funcs.append(TestFunction(id=f"poly3_{j}", fn=fn, grad=grad))
    return funcs


def dirichlet_wrap(f: TestFunction, body) -> TestFunction:
    """Multiply by (1 - gauge^2) so the function vanishes on the boundary."""

    def grad(p):
        return _dirichlet_values(f, p, body.gauge(p), body.gauge_grad(p))[1]

    return TestFunction(
        id=f.id + "*(1-p^2)",
        fn=lambda p: (1.0 - body.gauge(p) ** 2) * f.fn(p),
        grad=grad,
    )


def _dirichlet_values(f: TestFunction, points, gauge, gauge_grad):
    """Values and gradients of dirichlet_wrap(f) at the points, given the
    gauge and its gradient there."""
    fv = f.fn(points)
    cut = 1.0 - gauge**2
    grad = (f.grad(points).T * cut - gauge_grad.T * (2.0 * (gauge * fv))).T
    return cut * fv, grad


def lipschitz_normalize(f: TestFunction, points) -> TestFunction:
    """Scale to an (empirically) 1-Lipschitz function over the given region."""
    if f.lipschitz_bound is not None:
        scale = f.lipschitz_bound
    else:
        g = f.grad(np.atleast_2d(points))
        scale = math.sqrt(float(row_dots(g, g).max()))
    scale = max(scale, 1e-12)
    return TestFunction(
        id=f.id + "/L",
        fn=lambda p: f.fn(p) / scale,
        grad=lambda p: f.grad(p) / scale,
        lipschitz_bound=1.0,
    )


# ---------------------------------------------------------------------------
# sampling and estimation
# ---------------------------------------------------------------------------


def sample_measure(spec, n, seed):
    """n i.i.d. points from a MeasureSpec, drawn by `MeasureSpec.sample`."""
    if n < 100:
        raise DegenerateSample(f"budget {n} < 100")
    return spec.sample(n, seed)


def sample_points(spec, n, seed):
    """The point set of a check and its block size: on a product measure
    (one with `coord_densities`) the randomized lattice of
    `MeasureSpec.lattice`, whose blocks are its shifted copies; on any other
    measure `sample_measure`'s n i.i.d. points, each a block of one."""
    if spec.coord_densities is None:
        return sample_measure(spec, n, seed), 1
    if n < 100:
        raise DegenerateSample(f"budget {n} < 100")
    return spec.lattice(n, seed)


def _mean_se(influence, mean=None, block=1):
    """Standard error of a mean from per-point influence values whose
    consecutive blocks of `block` points are independent replicates: the
    sample standard deviation of the block means over sqrt(blocks).  With
    blocks of one point it is bit for bit `influence.std(ddof=1) / sqrt(n)`:
    centred once at `mean` (their mean, computed here if not given), squared
    in place, then one pairwise sum.  Scaled by an exact power of two where
    the squares overflow."""
    if block > 1:
        influence = influence.reshape(-1, block).mean(axis=1)
    n = len(influence)
    with np.errstate(over="ignore"):
        sq = influence - (influence.mean() if mean is None else mean)
        sq *= sq
        sd = math.sqrt(sq.sum() / (n - 1))
    if not math.isfinite(sd):
        scale = 2.0 ** math.frexp(float(np.abs(influence).max()))[1]
        sd = (influence / scale).std(ddof=1) * scale
    return float(sd / math.sqrt(n))


def estimate_lhs(instance: InequalityInstance, f: TestFunction, samples, values=None,
                 block=1):
    """LHS functional (variance, entropy of the square, or L^2 mass) with the
    delta-method standard error of its influence function over the point
    set's blocks (`_mean_se`); entropy recenters f first.  `values` may
    carry f at the samples, computed by the caller.  The variance of i.i.d.
    points carries the factor n/(n - 1); that of a lattice (blocks of more
    than one point) does not, since its plug-in mean is far closer to the
    true one than an i.i.d. mean is."""
    if len(samples) < 100:
        raise DegenerateSample("need at least 100 samples")
    vals = f.fn(samples) if values is None else values
    n = len(vals)
    if instance.lhs_kind == "variance":
        # the squares of vals.var(ddof=0), kept as the influence values
        sq = vals - vals.mean()
        sq *= sq
        mean = sq.sum() / n
        est = float(mean * n / (n - 1) if block == 1 else mean)
        err = _mean_se(sq, mean, block)
    elif instance.lhs_kind == "entropy_of_square":
        vals = vals - vals.mean()
        t = np.clip(vals**2, 1e-300, None)
        log_t = np.log(t)
        m = t.mean()
        est = float((t * log_t).mean() - m * math.log(m))
        # the last term is the influence of recentering at the sample mean
        err = _mean_se(
            t * log_t - (math.log(m) + 1.0) * t - 2.0 * np.mean(vals * log_t) * vals,
            block=block,
        )
    elif instance.lhs_kind == "l2_dirichlet":
        sq = vals**2
        mean = sq.mean()
        est, err = float(mean), _mean_se(sq, mean, block)
    else:
        raise ValueError(f"unknown lhs kind {instance.lhs_kind!r}")
    return instance.lhs_scale * est, instance.lhs_scale * err


def boundary_sample(instance, n, seed):
    """n points on the boundary of the instance's body, the boundary weight
    at them and Surf/Vol, drawn from the stream of (seed, instance id): the
    stream does not depend on the test function, so one draw serves them
    all."""
    term = instance.boundary
    body = term.body
    label = zlib.crc32(f"{instance.id}|bnd".encode())
    rng = np.random.default_rng(np.random.SeedSequence([seed, label]))
    if not isinstance(body, Ball):
        raise BoundaryQuadratureFailure(
            f"no boundary quadrature for body kind {body.kind!r}"
        )
    pts = body.sample_boundary(n, rng)
    scale = body.surface_area() / body.volume()
    return pts, np.asarray(term.weight(pts), dtype=float), scale


def boundary_quadrature(instance, f: TestFunction, n, seed, sample=None):
    """Boundary term: (1/Vol) min_C int w(x) (f-C)^2 dH^{d-1}, with the free
    constant minimized in closed form (C* = int w f / int w).

    There is one stream of boundary points per (instance, seed), shared by
    all test functions: `sample` may carry `boundary_sample(instance, n,
    seed)`, drawn once per check, and is drawn here otherwise.  The body is
    a ball and the points come in antithetic pairs (z, -z); for even n the
    influence values are averaged over each pair before the standard error
    is taken, since the two halves of a pair are not independent."""
    pts, w, scale = boundary_sample(instance, n, seed) if sample is None else sample
    fv = f.fn(pts)
    mw, mwf = w.mean(), (w * fv).mean()
    est = float((w * fv**2).mean() - mwf**2 / mw) * scale
    influence = scale * w * (fv - mwf / mw) ** 2
    if n % 2 == 0:
        influence = 0.5 * (influence[: n // 2] + influence[n // 2:])
    return est, _mean_se(influence)


def estimate_rhs(instance: InequalityInstance, f: TestFunction, samples, seed=0,
                 boundary=None, weight_values=None, grads=None, block=1):
    """Interior weighted Dirichlet energy plus surcharge and boundary terms,
    the interior standard error taken over the point set's blocks.

    The caller may pass work it has already done: `boundary`, the
    `boundary_sample` at (len(samples), seed); `weight_values`, the weights
    at the samples from `rhs_weight.compact`; `grads`, the gradients of f
    at the samples.  An instance with an f-independent RHS returns it, with
    error 0.  Raises HypothesisViolated naming the sample point where the
    weighted energy is not finite or the weight fails PSD.
    """
    if instance.rhs_fixed is not None:
        return instance.rhs_fixed, 0.0
    if grads is None:
        grads = f.grad(samples)
    if weight_values is None:
        weight_values = instance.rhs_weight.compact(samples)
    vals = quad_form(weight_values, grads)
    # one sum and one min screen the energies; the point is sought on failure
    with np.errstate(over="ignore", invalid="ignore"):
        finite = math.isfinite(vals.sum())
    if not finite and not np.isfinite(vals).all():
        i = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise HypothesisViolated("rhs_energy_finite", samples[i], float(vals[i]))
    if vals.min() < -1e-10:
        i = int(np.argmin(vals))
        raise HypothesisViolated("rhs_weight_psd", samples[i], float(vals[i]))
    with np.errstate(over="ignore"):  # a huge constant can overflow the sum
        per_sample = instance.rhs_constant * vals
        if instance.gradient_surcharge:
            per_sample = per_sample + instance.gradient_surcharge * row_dots(
                grads, grads
            )
        mean = per_sample.mean()
    est = float(mean)
    if not math.isfinite(est):
        raise HypothesisViolated("rhs_energy_finite", None, est)
    err = _mean_se(per_sample, mean, block)
    if instance.boundary is not None:
        best, berr = boundary_quadrature(
            instance, f, len(samples), seed, sample=boundary
        )
        est += best
        err = math.hypot(err, berr)
    return est, err


# ---------------------------------------------------------------------------
# 1-D spectral gap oracle
# ---------------------------------------------------------------------------


MIN_NODES = 256  # grid floor of spectral_gap_1d
UNDERFLOW_V = 700.0  # exp(-V) of V - min V above this is treated as zero mass
LANCZOS_STEPS = 400  # Lanczos steps allowed per grid
LANCZOS_RTOL = 1e-14  # stop once the top Ritz value moves by less than this


def spectral_gap_1d(potential, interval, n=4096, richardson=True):
    """First nonzero Neumann eigenvalue of the weighted Laplacian
    -exp(V) d/dx (exp(-V) d/dx) on an interval.

    `potential` is evaluated once per grid, on the whole 1-D array of nodes;
    it returns an array of the same shape or a scalar, which is broadcast.
    The discrete problem is K u = lambda M u on n uniform nodes: the
    three-point flux stiffness K with edge weights exp(-(V_i + V_{i+1})/2)
    and the trapezoid mass M.  Leading and trailing nodes where V - min V
    exceeds UNDERFLOW_V are dropped, as their mass is below exp(-700) of the
    largest; such a node between kept ones is a barrier with no representable
    gap and raises EigensolveFailure.

    lambda_1 is 1/theta, theta the top eigenvalue of the Neumann inverse
    K^+ M (`_neumann_inverse`), found by Lanczos in the M inner product with
    full reorthogonalization (Golub & Van Loan section 10.3) from
    cos(pi (x - a) / L), until theta moves by less than LANCZOS_RTOL
    relative (EigensolveFailure after LANCZOS_STEPS steps).  Richardson
    extrapolation over n and 2n removes the O(h^2) discretization error.
    Nothing is scaled by M^(-1/2), so end masses far below interior ones
    cost no accuracy: on -log cos(pi t) over (-1/2, 1/2), with end masses
    of 3e-20 against 3e-6 inside, n = 4096 gives 2 pi^2 to 1e-12 relative.
    Before extrapolation it agrees with LAPACK on the scaled pencil to
    1e-8 relative on the tested potentials.  Returns (lambda_1, 1/lambda_1).
    """
    a, b = (float(t) for t in interval)
    if not -math.inf < a < b < math.inf:
        raise EigensolveFailure(f"interval ({a}, {b}) is not a finite nonempty interval")
    if n < MIN_NODES:
        raise EigensolveFailure(f"need at least {MIN_NODES} grid points")

    def solve(m):
        x = np.linspace(a, b, m)
        v = np.broadcast_to(np.asarray(potential(x), dtype=float), x.shape)
        low = v.min()
        if not math.isfinite(low):
            raise EigensolveFailure(f"potential minimum {low} on the grid is not finite")
        v = v - low
        kept = np.flatnonzero(v <= UNDERFLOW_V)
        v = v[kept[0]:kept[-1] + 1]
        if len(v) < 3:
            raise EigensolveFailure("exp(-V) is representable at fewer than three nodes")
        if len(v) != len(kept):
            raise EigensolveFailure(
                f"exp(-V) underflows inside the interval: V - min V exceeds "
                f"{UNDERFLOW_V} between nodes where it does not"
            )
        return 1.0 / _top_ritz_value(v, x[1] - x[0])

    lam = solve(n)
    if richardson:
        lam2 = solve(2 * n)
        lam = (4.0 * lam2 - lam) / 3.0
    if lam <= 0:
        raise EigensolveFailure(f"nonpositive spectral gap {lam}")
    return float(lam), float(1.0 / lam)


def _neumann_inverse(v, h):
    """The trapezoid masses of exp(-v) on a grid of step h, and the map
    f -> K^+ M f on the M-complement of constants.

    With flux g = (exp(-V)/h) Du on the edges, K u = M f reads
    g_{j-1} - g_j = (M f)_j, so g is minus the running sum of M f from the
    left end, or the running sum from the right end: both agree when M f
    has mean zero, and each edge takes the sum over whichever side holds
    less mass, so that tail fluxes do not come out as differences of
    near-equal sums.  u is then the running sum of h g / exp(-V) over the
    edges, shifted to M-mean zero."""
    mass = np.full(len(v), h)
    mass[0] = mass[-1] = 0.5 * h
    mass *= np.exp(-v)
    total = np.cumsum(mass)
    left = total[:-1] < 0.5 * total[-1]
    step = h * np.exp(0.5 * (v[1:] + v[:-1]))  # h / midpoint weight

    def apply(f):
        mf = mass * f
        g = np.where(left, -np.cumsum(mf)[:-1], np.cumsum(mf[::-1])[-2::-1])
        u = np.concatenate(([0.0], np.cumsum(step * g)))
        return u - (mass @ u) / total[-1]

    return mass, apply


def _top_ritz_value(v, h):
    """The top eigenvalue theta = 1/lambda_1 of K^+ M on one grid, by
    Lanczos in the M inner product with full reorthogonalization."""
    mass, apply = _neumann_inverse(v, h)
    q = np.cos(np.linspace(0.0, math.pi, len(v)))
    q -= (mass @ q) / mass.sum()
    basis = np.empty((8, len(v)))  # rows 0..k hold the Lanczos vectors so far
    alpha, beta = [], []
    theta = 0.0
    for k in range(LANCZOS_STEPS):
        if k == len(basis):
            basis = np.concatenate([basis, np.empty_like(basis)])
        q = basis[k] = q / math.sqrt(q @ (mass * q))
        w = apply(q)
        alpha.append(float(w @ (mass * q)))
        qs = basis[:k + 1]
        for _ in range(2):  # twice is enough (Parlett, The Symmetric Eigenvalue Problem)
            w -= (qs @ (mass * w)) @ qs
        t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        previous, theta = theta, np.linalg.eigvalsh(t)[-1]
        norm = math.sqrt(w @ (mass * w))
        if abs(theta - previous) <= LANCZOS_RTOL * theta or norm <= LANCZOS_RTOL * theta:
            return theta
        beta.append(norm)
        q = w
    raise EigensolveFailure(
        f"Lanczos did not converge in {LANCZOS_STEPS} steps (top Ritz value {theta})"
    )


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


@dataclass
class ReportRow:
    suite: str
    inequality: str
    dim: int
    function: str
    lhs: float
    lhs_err: float
    rhs: float
    rhs_err: float
    slack: float
    status: str
    seed: int
    n: int

    def as_dict(self):
        return asdict(self)


@dataclass
class VerificationReport:
    rows: List[ReportRow] = field(default_factory=list)
    attachments: dict = field(default_factory=dict)

    def add(self, row):
        self.rows.append(row)

    def extend(self, other):
        self.rows.extend(other.rows)
        self.attachments.update(other.attachments)


def report_row(suite, inequality, dim, seed, n, function, status="error",
               lhs=math.nan, lhs_err=math.nan, rhs=math.nan, rhs_err=math.nan):
    """The one constructor of report rows: the slack is rhs - lhs, and an
    error row (the default status) carries NaN estimates."""
    return ReportRow(suite, inequality, dim, function, lhs, lhs_err, rhs, rhs_err,
                     rhs - lhs, status, seed, n)


def _status(lhs, lhs_err, rhs, rhs_err, constant_known):
    """fail iff rhs - lhs < -(3 sigma + rel_tol * |rhs|); report-only when
    the constant is unknown."""
    if not constant_known:
        return "report-only"
    tol = SIGMA_FACTOR * math.hypot(lhs_err, rhs_err) + REL_TOL * abs(rhs)
    return "pass" if rhs - lhs >= -tol else "fail"


def check_inequality(
    instance: InequalityInstance,
    functions=None,
    budget=200000,
    seed=0,
    suite_name="adhoc",
) -> VerificationReport:
    """One report row per test function, graded by `_status`.

    An instance with no weight field and an unknown constant
    (`reports_poincare_quotient`: l1_type and one_lip_reduction) reports the
    Poincare quotient Var f / mean |grad f|^2 against its fixed RHS (or 0),
    and attaches the largest quotient, a lower bound on the Poincare constant.

    What does not depend on the test function is computed once per check
    and shared: the point set (`sample_points`), the weights at it, the
    boundary points with their weights, and the gauge of a Dirichlet check.
    The `n` of a row is the number of points used, which a lattice point
    set may round down from the budget."""
    report = VerificationReport()
    d = instance.dim
    report.attachments[f"{instance.id}:d={d}:hypotheses"] = dict(
        instance.hypothesis_report
    )

    samples, block = sample_points(instance.measure, budget, seed)
    n = len(samples)

    if functions is None:
        functions = default_suite(d, seed=seed)

    weight_values = boundary = gauge = None
    if instance.rhs_weight is not None:
        weight_values = instance.rhs_weight.compact(samples)
    if instance.boundary is not None:
        boundary = boundary_sample(instance, n, seed)
    if instance.lhs_kind == "l2_dirichlet":
        gauge = (instance.body.gauge(samples), instance.body.gauge_grad(samples))

    poincare = instance.reports_poincare_quotient
    row = functools.partial(report_row, suite_name, instance.id, d, seed, n)
    variances = []
    for f in functions:
        fid, values, grads = f.id, None, None
        if gauge is not None:  # f (1 - p^2): values and gradients, no function
            values, grads = _dirichlet_values(f, samples, *gauge)
            fid, f = f.id + "*(1-p^2)", None
        elif instance.lipschitz_only:
            f = lipschitz_normalize(f, samples[:4096])
            fid = f.id
        try:
            lhs, lhs_err = estimate_lhs(instance, f, samples, values=values, block=block)
            if poincare:
                variances.append(lhs)
                grads = f.grad(samples)
                energy = max(float(row_dots(grads, grads).mean()), 1e-300)
                lhs, lhs_err = lhs / energy, lhs_err / energy
                rhs, rhs_err = instance.rhs_fixed or 0.0, 0.0
            else:
                rhs, rhs_err = estimate_rhs(
                    instance, f, samples, seed=seed, boundary=boundary,
                    weight_values=weight_values, grads=grads, block=block,
                )
            status = _status(lhs, lhs_err, rhs, rhs_err, instance.constant_known)
            report.add(row(fid, status, lhs, lhs_err, rhs, rhs_err))
        except HypothesisViolated as exc:
            report.add(row(fid))
            report.attachments[f"{instance.id}:{fid}:error"] = str(exc)

    if variances:  # every row is a quotient row
        bound = max(r.lhs for r in report.rows)
        base = max(variances) if instance.lipschitz_only else instance.rhs_fixed
        info = {"poincare_lower_bound": bound, "rhs_base": instance.rhs_fixed,
                "fitted_ratio": bound / base if base else None}
        if instance.lipschitz_only:
            info["sup_one_lip_variance"] = base
        report.attachments[f"{instance.id}:d={d}"] = info
    return report
