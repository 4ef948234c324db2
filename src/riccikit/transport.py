"""One-dimensional optimal transport, numerical Legendre transforms, the
entropic curvature criterion, and the 1-D Kahler-Einstein potential.

The monotone rearrangement T = G^{-1} o F between two densities is the 1-D
optimal-transport map; its potential Phi (T = Phi') provides the Hessian
metric used by the refined inequalities.  All CDF work is grid-based with
local quadrature corrections, so map values are good to ~1e-10 well inside
the support of a density whose potential is smooth there.  The cubics and
quadrature rules are this module's own, so no scipy subpackage is loaded.

A raw 1-D potential is batch-first: it is called with a 1-D float array of
abscissae and returns an array of the same shape, or a scalar, which is
broadcast.  A single point is a batch of one.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import (
    CDFInversionFailure,
    DegenerateHessian,
    NoConvergence,
    NonCompactTarget,
    NonNormalizable,
    NotStronglyConvex,
)
from .fields import PotentialField, as_point

_BASE_GRID = 4096
_TAIL_LOG = 42.0  # truncate unbounded supports where the density has fallen
                  # below exp(-42) of its peak (past the 1e-12 quantile)
_KE_GRID = 16385  # KE quadrature nodes, uniform in s, and nodes of the uniform x grid
_KE_S = 14.0  # s range of those nodes: logit levels up to 28
_KE_ROUNDOFF_LOG = 52.0 * math.log(2.0)  # exp(-Phi) below 2^-52 of its peak is roundoff
_PPF_TOL = 1e-13  # CDF residual that `Density1D.ppf` must meet
# unit panel at 0: 5-point Gauss-Lobatto (its ends see any kink), then 3-point GL per half
_GL, _GLW, _LOB = *np.polynomial.legendre.leggauss(3), 0.5 * math.sqrt(3 / 7)
_GL_SPLIT = np.r_[-0.5, -_LOB, 0.0, _LOB, 0.5, (_GL - 1) / 4, (_GL + 1) / 4]
_GL_SPLIT_WEIGHTS = np.r_[1 / 20, 49 / 180, 16 / 45, 49 / 180, 1 / 20, _GLW / 4, _GLW / 4]


# -- piecewise cubics and quadrature rules ---------------------------------------


class PiecewiseCubic:
    """The C^1 cubic with values y and slopes d at knots x, as scipy's
    `CubicHermiteSpline`: c0 s^3 + c1 s^2 + c2 s + c3, s = t - x_j, on piece j.
    `pchip` takes the slopes of scipy 1.17.1's `PchipInterpolator` (Fritsch &
    Carlson 1980) bit for bit, `not_a_knot` those of its `CubicSpline`.  A
    call finds each piece by a guide table (Chen & Asau 1974): a bucket per
    piece width names a piece at or left of the abscissa's, two forward steps
    follow, and abscissae still unresolved (crowded tails) binary-search."""

    def __init__(self, x, y, d):
        h, k = np.diff(x), x.size - 1
        slope = np.diff(y) / h
        t = (d[:-1] + d[1:] - 2 * slope) / h
        # 0.0 + as scipy's evaluation starts from 0.0, which turns -0.0 into 0.0
        self.c = (t / h, (slope - d[:-1]) / h - t, 0.0 + d[:-1], 0.0 + y[:-1])
        self.x, self.scale = x, k / (x[-1] - x[0])
        # guide[b]: the last piece whose left knot lies in a bucket before b
        buckets = np.fmin((x[:-1] - x[0]) * self.scale, k - 1).astype(np.intp)
        self.guide = np.maximum(np.r_[0, np.cumsum(np.bincount(buckets, minlength=k))[:-1]] - 1, 0)
        self.right = np.append(x[1:-1], np.nan)  # the last piece is closed

    @classmethod
    def pchip(cls, x, y):
        """scipy's `_find_derivatives` and `_edge_case`."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            h, m = np.diff(x), np.diff(y) / np.diff(x)
            if x.size == 2:  # scipy's linear case
                return cls(x, y, np.r_[m, m])
            flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
            w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
            d = np.empty_like(y)
            d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
            h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
            e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
            turn = (np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0))
            d[[0, -1]] = np.where(np.sign(e) != np.sign(m0), 0.0, np.where(turn, 3.0 * m0, e))
        if not np.isfinite(d).all():
            raise ValueError("PCHIP slopes beyond float range")
        return cls(x, y, d)

    @classmethod
    def not_a_knot(cls, x, ys):
        """A not-a-knot spline per row of ys (four or more knots), one solve."""
        h = np.diff(x)
        m = np.diff(ys, axis=1) / h
        e0, e1 = x[2] - x[0], x[-1] - x[-3]
        rhs = np.column_stack([((h[0] + 2 * e0) * h[1] * m[:, 0] + h[0] ** 2 * m[:, 1]) / e0,
                               3 * (h[1:] * m[:, :-1] + h[:-1] * m[:, 1:]),
                               (h[-1] ** 2 * m[:, -2] + (2 * e1 + h[-1]) * h[-2] * m[:, -1]) / e1])
        d = _solve_tridiagonal(np.concatenate([[0.0], h[1:], [e1]]),
                               np.concatenate([[h[1]], 2 * (h[:-1] + h[1:]), [h[-2]]]),
                               np.concatenate([[e0], h[:-1], [0.0]]), rhs.T)
        return [cls(x, y, dy) for y, dy in zip(ys, d.T)]

    def __call__(self, t, nu=0):
        """Value (nu = 0) or first derivative (nu = 1) in scipy's order; the end
        pieces extrapolate, and NaN (fmin sends it to the last bucket) stays NaN."""
        x, right, guide = self.x, self.right, self.guide
        shape, t = np.shape(t), np.asarray(t, dtype=float).reshape(-1)
        j = guide[np.fmax(np.fmin((t - x[0]) * self.scale, guide.size - 1), 0).astype(np.intp)]
        j += right[j] <= t
        j += right[j] <= t
        late = right[j] <= t
        if late.any():
            j[late] = np.clip(np.searchsorted(x, t[late], "right") - 1, 0, guide.size - 1)
        s = t - x[j]
        ss = s * s
        c = self.c
        if nu == 0:
            return ((c[3][j] + c[2][j] * s) + c[1][j] * ss + c[0][j] * (ss * s)).reshape(shape)
        return ((c[2][j] + c[1][j] * s * 2.0) + c[0][j] * ss * 3.0).reshape(shape)


def _solve_tridiagonal(lower, diag, upper, rhs):
    """x with lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i] (rhs
    (n, m), lower[0] = upper[-1] = 0) by cyclic reduction: the odd rows absorb
    their even neighbours, are solved alike, and the even unknowns follow."""
    zero = np.zeros((1,) + rhs.shape[1:])
    if diag.size % 2 == 0:  # a decoupled unit row keeps the count odd
        return _solve_tridiagonal(np.append(lower, 0.0), np.append(diag, 1.0),
                                  np.append(upper, 0.0), np.concatenate([rhs, zero]))[:-1]
    if diag.size == 1:
        return rhs / diag[:, None]
    a, g = -lower[1::2] / diag[:-1:2], -upper[1::2] / diag[2::2]
    odd = _solve_tridiagonal(
        a * lower[:-1:2], diag[1::2] + a * upper[:-1:2] + g * lower[2::2], g * upper[2::2],
        rhs[1::2] + a[:, None] * rhs[:-1:2] + g[:, None] * rhs[2::2])
    out = np.empty_like(rhs)
    out[1::2] = odd
    out[::2] = (rhs[::2] - lower[::2, None] * np.concatenate([zero, odd])
                - upper[::2, None] * np.concatenate([odd, zero])) / diag[::2, None]
    return out


def _cumulative_simpson(y, x=None, dx=None):
    """scipy's `cumulative_simpson(y, x=x or dx=dx, initial=0.0)` of three or
    more points, bit for bit: Cartwright's (2017) rule takes an even panel's
    node right of it, an odd panel's and the last one's node left of it."""
    h = np.diff(x) if x is not None else np.full(y.size - 1, float(dx))

    def panels(f, h):  # [t_i, t_{i+1}] with the node t_{i+2}
        if x is None:
            return h[:-1] / 3 * (5 * f[:-2] / 4 + 2 * f[1:-1] - f[2:] / 4)
        r31 = h[:-1] / (h[:-1] + h[1:])
        r = r31 * (h[:-1] / h[1:])
        return h[:-1] / 6 * ((3 - r31) * f[:-2] + (3 + r + r31) * f[1:-1] + (-r) * f[2:])

    fwd, bwd = panels(y, h), panels(y[::-1], h[::-1])[::-1]
    out = np.empty(y.size - 1)
    out[:-1:2], out[1::2], out[-1] = fwd[::2], bwd[::2], bwd[-1]
    return np.concatenate([[0.0], np.cumsum(out) + 0.0])


class Density1D:
    """A probability density exp(-V)/Z on an interval, with cached CDF.

    The working grid has ~4096 base points and is refined where the mass
    concentrates (equal-mass re-gridding); its CDF is cumulative Simpson and
    Z its last node.  `cdf`/`ppf` use the cached grid plus a local
    Gauss-Legendre/Newton correction; the vectorized `cdf_many` / `ppf_many`
    paths interpolate and are meant for sampling.  `ppf_many` evaluates the
    monotone cubic (PCHIP) through the CDF nodes, bit for bit as scipy's
    `PchipInterpolator` does.

    `potential` is the raw (unnormalized) potential V.  It is always called
    with a 1-D float array and returns an array of the same shape, or a
    scalar, which is broadcast; a build evaluates it on whole grids.

    Z, the CDF and the moments are good to ~1e-10 for potentials smooth on
    the support (log Z: gaussian -1.2e-11, exponential -1.0e-10); a kink
    between grid nodes costs more (|t|: log Z 1.5e-7 off, `moment(0)` =
    0.99999985).  Across a jump the grid CDF is off by about 1e-4 (potential
    0 on [0, 1] and [2, 3], 700 between: F(1) = 0.49989, not 0.5); `cdf` is
    not corrected for that, and `ppf` refuses the levels it cannot meet.
    """

    def __init__(self, potential, support, name="density"):
        self.raw_potential = potential
        self.support = (float(support[0]), float(support[1]))
        self.name = name
        self._build()

    # -- construction ---------------------------------------------------------

    def _build(self):
        lo, hi = self._effective_bounds()
        if not (lo < hi and math.isfinite(hi - lo)):
            raise NonNormalizable(f"{self.name}: working interval [{lo}, {hi}] is empty "
                                  "or wider than float range")
        grid = np.linspace(lo, hi, _BASE_GRID)
        vals = self._raw(grid)
        self._vmin = float(vals.min())
        pdf = np.exp(-(vals - self._vmin))
        cdf = np.maximum.accumulate(_cumulative_simpson(pdf, x=grid))
        total = cdf[-1]
        # refine: place half the nodes at equal-mass levels
        levels = np.linspace(0.0, total, _BASE_GRID // 2 + 1)[1:-1]
        extra = np.interp(levels, cdf, grid)
        grid = np.unique(np.concatenate([grid, extra]))
        pdf = np.exp(-(self._raw(grid) - self._vmin))
        cdf = np.maximum.accumulate(_cumulative_simpson(pdf, x=grid))
        self._z = cdf[-1]
        self.grid = grid
        self._pdf_grid = pdf / self._z
        self.cdf_grid = cdf / self._z
        self.log_z = math.log(self._z) - self._vmin
        self._ppf_interp = self._moment_nodes = None
        if not (self._z > 0.0 and np.isfinite(self._z)):
            raise NoConvergence(f"{self.name}: normalization failed")

    def _raw(self, x):
        """Raw potential at a point or an array of points; the potential is
        called once, with the points flattened to a 1-D array (a point is a
        batch of one), and a scalar it returns is broadcast."""
        x = np.asarray(x, dtype=float)
        pts = x.reshape(-1)
        out = np.asarray(self.raw_potential(pts), dtype=float)
        out = np.broadcast_to(out, pts.shape)
        return out.reshape(x.shape) if x.ndim else out[0]

    def _effective_bounds(self):
        a, b = self.support
        if np.isfinite(a) and np.isfinite(b):
            return a, b
        # probe for the mode, then expand until the potential has climbed
        # TAIL_LOG above its minimum
        seed = 0.0
        if np.isfinite(a):
            seed = a + 1.0
        elif np.isfinite(b):
            seed = b - 1.0
        probe = seed + np.linspace(-10.0, 10.0, 201)
        probe = probe[(probe > a) & (probe < b)]
        vp = self._raw(probe)
        x0 = float(probe[np.argmin(vp)])
        vmin = float(vp.min())

        def expand(direction, bound):
            x, step = x0, 1.0
            while True:
                nxt = x + direction * step
                if (direction < 0 and nxt <= bound) or (direction > 0 and nxt >= bound):
                    return bound
                if self._raw(nxt) - vmin > _TAIL_LOG:
                    return nxt
                x, step = nxt, step * 1.5

        lo = a if np.isfinite(a) else expand(-1.0, a)
        hi = b if np.isfinite(b) else expand(+1.0, b)
        return lo, hi

    # -- pointwise queries ----------------------------------------------------

    def potential(self, x):
        """Normalized potential: pdf(x) = exp(-potential(x))."""
        return self._raw(x) + self.log_z

    def pdf(self, x):
        return np.exp(-self.potential(x))

    def cdf(self, x):
        """CDF at the grid node left of x plus the pdf's integral up to x."""
        x = float(x)
        if x <= self.grid[0]:
            return 0.0
        if x >= self.grid[-1]:
            return 1.0
        i = np.searchsorted(self.grid, x) - 1
        corr = self._gauss_legendre(self.grid[i : i + 1], np.array([x]))[1].sum()
        return min(max(self.cdf_grid[i] + corr, 0.0), 1.0)

    def _gauss_legendre(self, a, b):
        """Nodes and weighted pdf of the 3-point Gauss-Legendre rule on the
        halves of each panel [a_i, b_i], the pdf evaluated once per round.  A
        panel where that sum and its 5-point Gauss-Lobatto rule differ by over
        1e-16 (a kink or jump inside) is replaced by its halves, tested alike."""
        kept = []
        while a.size:
            mid, w = 0.5 * (a + b), (b - a)[:, None]
            t = mid[:, None] + w * _GL_SPLIT
            f = self.pdf(t) * (w * _GL_SPLIT_WEIGHTS)
            split = np.abs(f[:, :5].sum(1) - f[:, 5:].sum(1)) > 1e-16
            kept.append((t[~split, 5:], f[~split, 5:]))
            a, b = np.concatenate([a[split], mid[split]]), np.concatenate([mid[split], b[split]])
        return tuple(np.concatenate(v, axis=None) for v in zip(*kept))

    def ppf(self, u):
        """Quantile by bracketed Newton on the corrected CDF.

        Raises CDFInversionFailure in two cases where no quantile exists to
        `_PPF_TOL`: when the cached CDF is flat at level `u` (the level is
        attained on two or more grid nodes, so the density vanishes on that
        stretch of the support and G^{-1}(u) is not defined), and when the
        iteration ends without bringing |cdf(x) - u| below `_PPF_TOL` (as
        next to a jump of the potential, where the grid CDF and the corrected
        CDF disagree).
        """
        u = float(u)
        if not 0.0 < u < 1.0:
            raise ValueError("quantile level must be in (0, 1)")
        left = self._refuse_flat(u)
        # 0 < u < 1 = cdf_grid[-1] and cdf_grid[0] = 0, so 1 <= left <= n - 1
        # and the bracket [grid[i], grid[i + 2]] straddles u
        i = left - 1
        lo, hi = self.grid[i], self.grid[min(i + 2, len(self.grid) - 1)]
        x = float(np.interp(u, self.cdf_grid, self.grid))
        f = self.cdf(x) - u
        for _ in range(60):
            if abs(f) < _PPF_TOL:
                break
            if f > 0:
                hi = x
            else:
                lo = x
            p = self.pdf(x)
            step = f / p if p > 1e-300 else 0.0
            x_new = x - step
            if not lo < x_new < hi or step == 0.0:
                x_new = 0.5 * (lo + hi)
            x = x_new
            f = self.cdf(x) - u
        if not abs(f) < _PPF_TOL:
            raise CDFInversionFailure(
                f"{self.name}: no quantile at level {u:.10g} to tol {_PPF_TOL:.1e}; "
                f"CDF residual {f:.3e} at x = {x:.17g}"
            )
        return x

    def _refuse_flat(self, u):
        """Raise CDFInversionFailure if the cached CDF is flat at level u (the
        level is attained on two or more grid nodes); else return the index
        of the first node at or above u."""
        left = int(np.searchsorted(self.cdf_grid, u, side="left"))
        right = int(np.searchsorted(self.cdf_grid, u, side="right"))
        if right - left >= 2:
            raise CDFInversionFailure(
                f"{self.name}: CDF flat at level {u:.10g} on "
                f"[{self.grid[left]:.6g}, {self.grid[right - 1]:.6g}]; "
                "density vanishes inside support"
            )
        return left

    # -- vectorized paths (sampling accuracy) ---------------------------------

    def cdf_many(self, x):
        return np.interp(np.asarray(x, dtype=float), self.grid, self.cdf_grid)

    def ppf_many(self, u):
        """Quantiles by the PCHIP through the CDF nodes, built once; bit for bit
        scipy's `PchipInterpolator(..., extrapolate=False)` at clipped levels."""
        if self._ppf_interp is None:
            u0, idx = np.unique(self.cdf_grid, return_index=True)
            try:
                self._ppf_interp = PiecewiseCubic.pchip(u0, self.grid[idx])
            except ValueError as exc:  # slopes beyond float range on a vast support
                raise CDFInversionFailure(f"{self.name}: no quantile interpolant: {exc}") from exc
        u = np.clip(np.clip(np.asarray(u, dtype=float), 1e-15, 1.0 - 1e-15),
                    self.cdf_grid[0], self.cdf_grid[-1])
        return np.clip(self._ppf_interp(u), self.grid[0], self.grid[-1])

    def sample(self, n, rng):
        return self.ppf_many(rng.uniform(size=n))

    # -- moments and transforms ------------------------------------------------

    def moment(self, k=1):
        """k-th moment by Gauss-Legendre on panels of four grid steps, nodes and
        weighted pdf kept."""
        if self._moment_nodes is None:
            e = np.append(self.grid[:-1:4], self.grid[-1])
            self._moment_nodes = self._gauss_legendre(e[:-1], e[1:])
        t, wpdf = self._moment_nodes
        return float(wpdf @ t**k)

    def mean(self):
        return self.moment(1)

    def potential_field(self) -> PotentialField:
        """Normalized potential as a 1-D PotentialField, differentiated by
        the finite-difference fallbacks."""
        return PotentialField(fn=lambda x: self.potential(x[..., 0]))


# -- stock densities -----------------------------------------------------------


def uniform_density(a, b):
    return Density1D(lambda t: 0.0, (a, b), name=f"uniform[{a},{b}]")


def cos_density(half_width=0.5):
    """Density proportional to cos(pi x / (2 half_width)) on [-hw, hw]."""
    w = math.pi / (2.0 * half_width)

    def pot(t):
        c = np.cos(w * t)
        return np.where(c > 1e-300, -np.log(np.maximum(c, 1e-300)), 700.0)

    return Density1D(pot, (-half_width, half_width), name="cos")


def gaussian_density(sigma=1.0):
    return Density1D(lambda t: 0.5 * (t / sigma) ** 2, (-np.inf, np.inf), name="gauss")


def exponential_density(rate=1.0):
    return Density1D(lambda t: rate * t, (0.0, np.inf), name="exp")


def power_density(q, c=1.0):
    """exp(-c x^q) on the positive half-line."""
    return Density1D(lambda t: c * t**q, (0.0, np.inf), name=f"power{q}")


# -- optimal transport ----------------------------------------------------------


def monotone_map_1d(mu: Density1D, nu: Density1D, x) -> Tuple[float, float]:
    """Monotone rearrangement T = G^{-1}(F(x)) of mu onto nu and its
    derivative T' = pdf_mu(x) / pdf_nu(T(x)).

    Raises CDFInversionFailure when F(x) rounds to 0 or 1 (x outside the
    support of mu, or so far in its tail that no quantile of nu is defined).
    """
    x = float(np.atleast_1d(x)[0])
    u = mu.cdf(x)
    if not 0.0 < u < 1.0:
        raise CDFInversionFailure(
            f"{mu.name}: F({x}) = {u} rounds to 0 or 1; no interior quantile to map")
    t = nu.ppf(u)
    dens = nu.pdf(t)
    if dens <= 1e-300:
        raise CDFInversionFailure(f"{nu.name}: density vanishes at T({x}) = {t}")
    return t, float(mu.pdf(x)) / float(dens)


def transport_potential_1d(mu: Density1D, nu: Density1D) -> PotentialField:
    """Convex potential Phi with Phi' = monotone map of mu onto nu.

    Built on the interior quantile range of mu; Phi'' comes from the density
    ratio, Phi''' from differencing it.  The callbacks take one point of
    shape (1,) or a column of n points of shape (n, 1), and return the value,
    gradient, Hessian and third derivative with that leading shape.

    Raises CDFInversionFailure when the CDF of nu is flat at a level that the
    map reaches or crosses: the density of nu vanishes on a stretch inside
    its support, so T jumps there and Phi'' is not defined.
    """
    qs = np.linspace(1e-6, 1.0 - 1e-6, 2049)
    xs = mu.ppf_many(qs)
    xs = np.unique(xs)
    us = mu.cdf_many(xs)
    flat = nu.cdf_grid[np.flatnonzero(np.diff(nu.cdf_grid) == 0.0)]
    crossed = flat[(flat >= us[0]) & (flat <= us[-1])]
    if crossed.size:
        nu._refuse_flat(crossed[0])
    ts = nu.ppf_many(us)
    tp = mu.pdf(xs) / np.maximum(nu.pdf(ts), 1e-300)
    rows = np.stack([_cumulative_simpson(ts, x=xs), ts, tp])  # Phi, T = Phi' and T'
    spl, t_spl, tp_spl = PiecewiseCubic.not_a_knot(xs, rows)

    return PotentialField(
        fn=lambda x: spl(x)[..., 0],
        grad=t_spl,
        hess=lambda x: tp_spl(x)[..., None],
        third=lambda x: tp_spl(x, 1)[..., None, None],
        convex=True,
    )


def monge_ampere_residual(phi: PotentialField, v: PotentialField, w: PotentialField, x):
    """Defect of the change of variables: log det D^2 Phi + V - W(grad Phi).

    Vanishes exactly when det D^2 Phi = exp(-V)/exp(-W(grad Phi)) holds at x,
    i.e. when grad Phi transports exp(-V) dx onto exp(-W) dx there.
    """
    x = as_point(x)
    h = phi.hessian(x)
    sign, logdet = np.linalg.slogdet(h)
    if sign <= 0:
        raise DegenerateHessian(f"det D^2 Phi <= 0 at {x}")
    return float(logdet + v.value(x) - w.value(phi.gradient(x)))


# -- Legendre transform -----------------------------------------------------------


@dataclass
class LegendreData:
    """Dual-side grid data of a strongly convex 1-D potential: the x-grid,
    its image y = V'(x), and V* and (V*)'' at y.  (V*)'(y) is the x-grid
    itself."""

    x_grid: np.ndarray
    y_grid: np.ndarray
    vstar: np.ndarray
    ddvstar: np.ndarray
    potential: PotentialField

    def conjugate_value(self, y):
        """V*(y) = sup_x (xy - V(x)) by grid supremum plus Newton refinement
        from an interior maximizer."""
        y = float(y)
        vals = self.x_grid * y - np.array(
            [self.potential.value(t) for t in self.x_grid]
        )
        i = int(np.argmax(vals))
        x = self.x_grid[i]
        if 0 < i < len(self.x_grid) - 1:
            for _ in range(40):
                g = self.potential.gradient([x])[0] - y
                h = self.potential.hessian([x])[0, 0]
                if h <= 0:
                    break
                step = g / h
                x_new = float(
                    np.clip(x - step, self.x_grid[0], self.x_grid[-1])
                )
                if abs(x_new - x) < 1e-14 * (1.0 + abs(x)):
                    x = x_new
                    break
                x = x_new
        return x * y - self.potential.value([x])


def legendre_1d(v: PotentialField, grid) -> LegendreData:
    """Legendre data of a strongly convex potential along an x-grid.

    Dual values come from the exact parametrization y = V'(x): the conjugate
    satisfies V*(V'(x)) = x V'(x) - V(x) and D^2 V*(V') D^2 V = 1.
    """
    grid = np.asarray(grid, dtype=float)
    vv = np.array([v.value([t]) for t in grid])
    d1 = np.array([v.gradient([t])[0] for t in grid])
    d2 = np.array([v.hessian([t])[0, 0] for t in grid])
    if np.any(d2 <= 1e-12):
        raise NotStronglyConvex(
            f"V'' <= 0 on the grid (min {d2.min():.3e}); Legendre data undefined"
        )
    y = d1
    if np.any(np.diff(y) <= 0):
        raise NotStronglyConvex("V' is not strictly increasing on the grid")
    return LegendreData(
        x_grid=grid,
        y_grid=y,
        vstar=grid * y - vv,
        ddvstar=1.0 / d2,
        potential=v,
    )


# -- entropic criterion ------------------------------------------------------------


@dataclass
class DualCriterion:
    """Arrays on a dual grid entering the entropic sufficient condition

        F'' + (1/2d) ((log (V*)'')')^2 >= 2 rho (V*)''   (d = 1 here).
    """

    y_grid: np.ndarray
    ddvstar: np.ndarray
    f_second: np.ndarray
    logd_prime: np.ndarray

    def margin(self, rho, enhanced=True):
        lhs = self.f_second.copy()
        if enhanced:
            lhs = lhs + 0.5 * self.logd_prime**2
        return lhs - 2.0 * rho * self.ddvstar

    def bisect_rho(self, enhanced=False):
        """sup{rho >= 0 : the criterion margin stays non-negative}, to 1e-10
        relative, from a first bracket [0, 64] doubled while it holds."""
        if self.margin(0.0, enhanced).min() < -1e-12:
            return 0.0
        lo, hi = 0.0, 64.0
        while self.margin(hi, enhanced).min() >= 0.0:
            hi *= 2.0
            if hi > 1e9:
                return hi
        while hi - lo > 1e-10 * (1.0 + hi):
            mid = 0.5 * (lo + hi)
            if self.margin(mid, enhanced).min() >= 0.0:
                lo = mid
            else:
                hi = mid
        return lo

    @classmethod
    def from_derivatives(cls, d1, d2, d3, d4):
        """Push V', V'', V''' and V'''' of a strongly convex V, given on an
        x-grid, to the dual side by the chain rule on y = V'(x):
            (V*)'' = 1/V'',   (log (V*)'')'(y) = -V'''/V''^2,
            F''(y) = 2/V'' + r'/V''^2 - (y + r) V'''/V''^3,   r = V'''/V''.
        """
        if np.any(d2 <= 0):
            raise NotStronglyConvex("V'' <= 0 on the criterion grid")
        r = d3 / d2
        rp = (d4 * d2 - d3**2) / d2**2
        f2 = 2.0 / d2 + rp / d2**2 - (d1 + r) * d3 / d2**3
        return cls(y_grid=d1, ddvstar=1.0 / d2, f_second=f2, logd_prime=-d3 / d2**2)


def dual_criterion_from_potential(v: PotentialField, grid) -> DualCriterion:
    """`DualCriterion.from_derivatives` of a 4-times differentiable strongly
    convex V, evaluated one grid node at a time (V''' and V'''' take one
    point)."""
    grid = np.asarray(grid, dtype=float)
    return DualCriterion.from_derivatives(
        np.array([v.gradient([t])[0] for t in grid]),
        np.array([v.hessian([t])[0, 0] for t in grid]),
        np.array([v.third_tensor([t])[0, 0, 0] for t in grid]),
        np.array([v.fourth_1d([t]) for t in grid]),
    )


def entropic_condition_check(v: PotentialField, rho, grid):
    """Pointwise verdict of the (enhanced) entropic sufficient condition at
    level rho.

    Returns a dict with the convexity flag of F, the worst margin over the
    grid, and the grid location where it is attained.
    """
    crit = dual_criterion_from_potential(v, grid)
    m = crit.margin(rho)
    i = int(np.argmin(m))
    return {
        "holds": bool(m[i] >= -1e-9),
        "convex": bool(crit.f_second.min() >= -1e-8),
        "worst_violation": float(m[i]),
        "location": float(np.asarray(grid, dtype=float)[i]),
        "criterion": crit,
    }


# -- the q > 2 construction ----------------------------------------------------------


@dataclass
class FlattenedPowerPotential:
    """Even potential that is quadratic near 0 and |x|^q-like at infinity.

    Defined through its conjugate: (V*)''(y) = min(1, |y|^(p-2))/p with
    p = q/(q-1); everything below is closed form on the primal side.
    """

    q: float

    def __post_init__(self):
        if self.q <= 2.0:
            raise ValueError("construction requires q > 2")
        self.p = self.q / (self.q - 1.0)
        if self.p == 1.0:
            raise NonNormalizable(f"q = {self.q}: its conjugate exponent rounds to 1")
        self.x_knee = 1.0 / self.p  # where |V'| reaches 1

    # primal-side derivatives (x >= 0; extend evenly)

    def _d1_outer(self, x):
        """V'(x) beyond the knee; finite for every x >= 0, since 2 - p > 0."""
        p = self.p
        return (p * (p - 1.0) * x + (2.0 - p)) ** (1.0 / (p - 1.0))

    def d1(self, x):
        x = np.abs(x)
        return np.where(x <= self.x_knee, self.p * x, self._d1_outer(x))

    def d2(self, x):
        p = self.p
        return np.where(np.abs(x) <= self.x_knee, p, p * self.d1(x) ** (2.0 - p))

    def value(self, x):
        p = self.p
        x = np.abs(x)
        # beyond the knee V(x) = x y - V*(y) at y = V'(x)
        y = self._d1_outer(x)
        vstar = (
            0.5 / p
            + (y - 1.0) / p
            + ((y**p - 1.0) / p - (y - 1.0)) / (p * (p - 1.0))
        )
        return np.where(x <= self.x_knee, 0.5 * p * x * x, x * y - vstar)

    def dual_criterion(self, y_grid) -> DualCriterion:
        """Closed-form dual arrays: for |y| <= 1, F'' = 2/p; for |y| > 1,
        F'' = |y|^(p-2) + (p-2)/y^2, (log (V*)'')' = (p-2)/y."""
        y = np.abs(np.asarray(y_grid, dtype=float))
        p = self.p
        inner = y <= 1.0
        ys = np.where(inner, 1.0, y)  # keep the unused branch finite
        dd = np.where(inner, 1.0 / p, ys ** (p - 2.0) / p)
        f2 = np.where(inner, 2.0 / p, ys ** (p - 2.0) + (p - 2.0) / ys**2)
        ld = np.where(inner, 0.0, (p - 2.0) / ys)
        return DualCriterion(y_grid=y, ddvstar=dd, f_second=f2, logd_prime=ld)

    def density(self) -> Density1D:
        return Density1D(self.value, (0.0, np.inf), name=f"flatpower{self.q}")


# -- Kahler-Einstein potential ---------------------------------------------------------


@dataclass
class KESolution:
    """The potential Phi of exp(-Phi) = Phi'' exp(-W(Phi')) with barycenter 0,
    sampled on a uniform grid.  With the target nu = exp(-W) recentred to
    barycenter 0 on [a, b] and y = Phi'(x):

    - exp(-Phi) = G(y), with G(y) = int_y^b t nu(t) dt;
    - Phi'' = G(y) / nu(y);
    - x(y) = int nu / G dy, its constant fixed by E_nu[x(y)] = 0.

    Only the node values are kept, no interpolant.  `iterations` is always 1."""

    grid: np.ndarray
    phi_vals: np.ndarray
    iterations: int
    residual_sup: float

    def interior_mask(self, q_lo=0.005, q_hi=0.995):
        """Nodes between two quantiles of exp(-Phi), by its composite-Simpson CDF."""
        h = self.grid[1] - self.grid[0]
        cdf = np.maximum.accumulate(_cumulative_simpson(np.exp(-self.phi_vals), dx=h))
        return (cdf / cdf[-1] >= q_lo) & (cdf / cdf[-1] <= q_hi)

    def second_derivative(self):
        return _fd5(self.phi_vals, self.grid[1] - self.grid[0], order=2)


def _fd5(vals, h, order):
    """Five-point first or second derivative on a uniform grid; one-sided
    copies at the two boundary nodes on each end."""
    n = len(vals)
    out = np.empty(n)
    v = vals
    if order == 1:
        out[2:-2] = (-v[4:] + 8 * v[3:-1] - 8 * v[1:-3] + v[:-4]) / (12 * h)
    else:
        out[2:-2] = (-v[4:] + 16 * v[3:-1] - 30 * v[2:-2] + 16 * v[1:-3] - v[:-4]) / (
            12 * h * h
        )
    out[:2] = out[2]
    out[-2:] = out[-3]
    return out


def _running_integrals(f, h, tails=False):
    """(int_{s_0}^{s_i} f, int_{s_i}^{s_n} f) at the nodes s_i of a uniform grid
    of step h: trapezoid sums with the Euler-Maclaurin correction h^2/12 f'
    (five-point f'), so the O(h^4) error varies smoothly from node to node.
    With `tails`, each also takes the geometric tail past its end node,
    f_end / lambda with lambda the decay rate over the last two nodes."""
    panels = 0.5 * h * (f[1:] + f[:-1])
    c = h * h / 12.0 * _fd5(f, h, order=1)
    left = np.concatenate([[0.0], np.cumsum(panels)]) - (c - c[0])
    right = np.concatenate([np.cumsum(panels[::-1])[::-1], [0.0]]) - (c[-1] - c)
    if tails:
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = np.log(f[[1, -2]] / f[[0, -1]]) / h
            tail = np.where(rate > 0.0, f[[0, -1]] / rate, 0.0)
        left, right = left + tail[0], right + tail[1]
    return left, right


def _quintic_hermite(x, p, d1, d2, t):
    """At the points t, the C^2 piecewise quintic with values p, slopes d1 and
    second derivatives d2 at the increasing knots x."""
    j = np.clip(np.searchsorted(x, t) - 1, 0, x.size - 2)
    h = x[j + 1] - x[j]
    u = (t - x[j]) / h
    u3 = u * u * u
    w01 = u3 * (10.0 - 15.0 * u + 6.0 * u * u)
    w10 = u - u3 * (6.0 - 8.0 * u + 3.0 * u * u)
    w11 = -u3 * (4.0 - 7.0 * u + 3.0 * u * u)
    w20, w21 = 0.5 * u * u * (1.0 - u) ** 3, 0.5 * u3 * (1.0 - u) ** 2
    # p[j] is added last, so the result is rounded once at its magnitude
    return p[j] + (w01 * (p[j + 1] - p[j]) + h * (w10 * d1[j] + w11 * d1[j + 1])
                   + h * h * (w20 * d2[j] + w21 * d2[j + 1]))


def ke_solve_1d(nu: Density1D, tol=1e-8) -> KESolution:
    """The potential Phi with exp(-Phi) = Phi'' exp(-W(Phi')) and barycenter 0
    for a compactly supported target nu = exp(-W) on [a, b], in closed form.

    Such a Phi makes nu the moment measure of Phi (Cordero-Erausquin and
    Klartag 2015).  With nu recentred to barycenter 0 and y = Phi'(x),
    d exp(-Phi) / dy = -y nu(y), so

    - exp(-Phi) = G(y), G(y) = int_y^b t nu(t) dt, which vanishes at both ends;
    - Phi'' = G(y) / nu(y);
    - x(y) = int nu / G dy, its constant fixed by E_nu[x(y)] = 0, the
      barycenter of exp(-Phi).

    The integrals are running sums (`_running_integrals`) over s, on
    `_KE_GRID` uniform nodes in [-_KE_S, _KE_S]: y + m is the quantile at
    level 1/(1 + exp(-2s)) of the logistic law with nu's quartiles truncated
    to [a, b], m the barycenter.  Like nu's own quantiles at levels uniform in
    logit, these nodes crowd toward the support ends, where nu / G has its
    1/(b - y) singularity, follow the bulk of nu and are near-uniform in x.
    G is summed from the nearer end, so it keeps its relative accuracy in the
    tails; m comes from the same sums, so both ends give one G.  Phi = -log G
    is the quintic Hermite in x with slopes y and second derivatives G/nu,
    sampled on a uniform grid of `_KE_GRID` nodes: [-42/e, 42/e] (e the
    distance from m to the nearer support end), or wider to keep the nodes
    where exp(-Phi) is above 2^-52 of its peak, for a target much narrower
    than its support such as a wide truncated Gaussian; past the outer nodes it is
    the linear asymptote whose slope is the support end.  No iteration and no
    BLAS reduction, so the result does not depend on the BLAS thread count.

    `residual_sup` is sup |Phi'' nu(Phi') - exp(-Phi)|, with five-point
    differences for Phi' and Phi'', over the 0.005-0.995 quantile range of
    exp(-Phi); NoConvergence is raised when it is not below `tol`.
    """
    a, b = nu.support
    if not (np.isfinite(a) and np.isfinite(b)):
        raise NonCompactTarget("the Kahler-Einstein potential needs compact support")
    q1, c, q3 = np.interp([0.25, 0.5, 0.75], nu.cdf_grid, nu.grid)
    sc = (q3 - q1) / (2.0 * math.log(3.0))  # the logistic law with nu's quartiles
    ea, eb = math.exp((a - c) / sc), math.exp((c - b) / sc)
    pa, qb = ea / (1.0 + ea), eb / (1.0 + eb)  # its mass below a and above b
    span = 1.0 - pa - qb
    s, hs = np.linspace(-_KE_S, _KE_S, _KE_GRID, retstep=True)
    u, u_c = 1.0 / (1.0 + np.exp(-2.0 * s)), 1.0 / (1.0 + np.exp(2.0 * s))
    p, q = pa + span * u, qb + span * u_c
    t, dyds = sc * np.log(p / q), 2.0 * sc * span * u * u_c / (p * q)
    f = nu.pdf(c + t) * dyds  # the density of s
    (f_l, f_r), (tf_l, tf_r) = (_running_integrals(k, hs, tails=True) for k in (f, t * f))
    mass = f_l[0] + f_r[0]
    m = (tf_l[0] + tf_r[0]) / mass  # the barycenter, from c
    y = t - m
    g = np.where(y < 0.0, m * f_l - tf_l, tf_r - m * f_r)
    live = np.flatnonzero((f > 0.0) & (g > 0.0))
    y, f, g, dyds = (k[live[0]:live[-1] + 1] for k in (y, f, g, dyds))
    x = _running_integrals(f / g, hs)[0]
    x = x - np.add(*_running_integrals(x * f, hs, tails=True))[0] / mass

    lo, hi = a - c - m, b - c - m
    phi = -np.log(g)
    kept = x[phi - phi.min() <= _KE_ROUNDOFF_LOG]
    half = max(_TAIL_LOG / min(-lo, hi), -kept[0], kept[-1])
    grid, h = np.linspace(-half, half, _KE_GRID, retstep=True)
    out = _quintic_hermite(x, phi, y, g / f * dyds, grid)
    out = np.where(grid < x[0], phi[0] + lo * (grid - x[0]), out)
    out = np.where(grid > x[-1], phi[-1] + hi * (grid - x[-1]), out)

    sol = KESolution(grid=grid, phi_vals=out, iterations=1, residual_sup=math.inf)
    mask = sol.interior_mask()
    d2 = sol.second_derivative()[mask]
    d1 = np.clip(_fd5(out, h, order=1)[mask] + c + m, a + 1e-13, b - 1e-13)
    if d2.min() > 0.0:
        sol.residual_sup = float(np.abs(d2 * nu.pdf(d1) - np.exp(-out[mask])).max())
    if not sol.residual_sup < tol:
        raise NoConvergence(f"KE residual {sol.residual_sup:.3e} is not below {tol:.1e}",
                            residual=sol.residual_sup)
    return sol
