"""One-dimensional optimal transport, numerical Legendre transforms, the
entropic curvature criterion, and the 1-D Kahler-Einstein fixed point.

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
    BarycenterNotZero,
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
_ANDERSON_DEPTH = 5  # difference columns of the KE fixed point's Anderson step
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

    def __init__(self, potential, support, name="density", grid_size=_BASE_GRID):
        self.raw_potential = potential
        self.support = (float(support[0]), float(support[1]))
        self.name = name
        self._build(grid_size)

    # -- construction ---------------------------------------------------------

    def _build(self, grid_size):
        lo, hi = self._effective_bounds()
        if not (lo < hi and math.isfinite(hi - lo)):
            raise NonNormalizable(f"{self.name}: working interval [{lo}, {hi}] is empty "
                                  "or wider than float range")
        grid = np.linspace(lo, hi, grid_size)
        vals = self._raw(grid)
        self._vmin = float(vals.min())
        pdf = np.exp(-(vals - self._vmin))
        cdf = np.maximum.accumulate(_cumulative_simpson(pdf, x=grid))
        total = cdf[-1]
        # refine: place half the nodes at equal-mass levels
        levels = np.linspace(0.0, total, grid_size // 2 + 1)[1:-1]
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

    def ppf(self, u, tol=1e-13):
        """Quantile by bracketed Newton on the corrected CDF.

        Raises CDFInversionFailure in two cases where no quantile exists to
        `tol`: when the cached CDF is flat at level `u` (the level is attained
        on two or more grid nodes, so the density vanishes on that stretch of
        the support and G^{-1}(u) is not defined), and when the iteration ends
        without bringing |cdf(x) - u| below `tol` (as next to a jump of the
        potential, where the grid CDF and the corrected CDF disagree).
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
            if abs(f) < tol:
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
        if not abs(f) < tol:
            raise CDFInversionFailure(
                f"{self.name}: no quantile at level {u:.10g} to tol {tol:.1e}; "
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
        weighted pdf kept (grid Simpson is too coarse for the KE barycenter)."""
        if self._moment_nodes is None:
            e = np.append(self.grid[:-1:4], self.grid[-1])
            self._moment_nodes = self._gauss_legendre(e[:-1], e[1:])
        t, wpdf = self._moment_nodes
        return float(wpdf @ t**k)

    def mean(self):
        return self.moment(1)

    def variance(self):
        m = self.mean()
        return self.moment(2) - m * m

    def shifted(self, delta):
        """Density of X + delta."""
        a, b = self.support
        return Density1D(
            lambda t: self.raw_potential(t - delta),
            (a + delta, b + delta),
            name=f"{self.name}+{delta:.3g}",
            grid_size=len(self.grid) // 2 + 1,
        )

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
    derivative T' = pdf_mu(x) / pdf_nu(T(x))."""
    x = float(np.atleast_1d(x)[0])
    u = mu.cdf(x)
    if not 0.0 < u < 1.0:
        raise ValueError(f"point {x} outside the interior of supp(mu)")
    t = nu.ppf(u)
    dens = nu.pdf(t)
    if dens <= 1e-300:
        raise CDFInversionFailure(f"{nu.name}: density vanishes at T({x}) = {t}")
    return t, float(mu.pdf(x)) / float(dens)


def transport_potential_1d(mu: Density1D, nu: Density1D, n=2049) -> PotentialField:
    """Convex potential Phi with Phi' = monotone map of mu onto nu.

    Built on the interior quantile range of mu; Phi'' comes from the density
    ratio, Phi''' from differencing it.  The callbacks take one point of
    shape (1,) or a column of n points of shape (n, 1), and return the value,
    gradient, Hessian and third derivative with that leading shape.

    Raises CDFInversionFailure when the CDF of nu is flat at a level that the
    map reaches or crosses: the density of nu vanishes on a stretch inside
    its support, so T jumps there and Phi'' is not defined.
    """
    qs = np.linspace(1e-6, 1.0 - 1e-6, n)
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


def monge_ampere_residual(phi: PotentialField, v: PotentialField, w, x):
    """Defect of the change of variables: log det D^2 Phi + V - W(grad Phi).

    Vanishes exactly when det D^2 Phi = exp(-V)/exp(-W(grad Phi)) holds at x,
    i.e. when grad Phi transports exp(-V) dx onto exp(-W) dx there.  `w` may
    be a PotentialField or a plain callable.
    """
    x = as_point(x)
    h = phi.hessian(x)
    sign, logdet = np.linalg.slogdet(h)
    if sign <= 0:
        raise DegenerateHessian(f"det D^2 Phi <= 0 at {x}")
    y = phi.gradient(x)
    wv = w.value(y) if hasattr(w, "value") else float(w(y))
    vv = v.value(x) if hasattr(v, "value") else float(v(x))
    return float(logdet + vv - wv)


# -- Legendre transform -----------------------------------------------------------


@dataclass
class LegendreData:
    """Dual-side grid data of a strongly convex 1-D potential.

    f_vals holds F(y) = y (V*)'(y) - log (V*)''(y); the dual criterion of the
    entropic inequality is expressed through these arrays.
    """

    x_grid: np.ndarray
    y_grid: np.ndarray
    vstar: np.ndarray
    dvstar: np.ndarray
    ddvstar: np.ndarray
    f_vals: np.ndarray
    potential: PotentialField

    def conjugate_value(self, y, refine=True):
        """V*(y) = sup_x (xy - V(x)) by grid supremum plus Newton refinement."""
        y = float(y)
        vals = self.x_grid * y - np.array(
            [self.potential.value(t) for t in self.x_grid]
        )
        i = int(np.argmax(vals))
        x = self.x_grid[i]
        if refine and 0 < i < len(self.x_grid) - 1:
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
    vstar = grid * y - vv
    f_vals = grid * y + np.log(d2)
    return LegendreData(
        x_grid=grid,
        y_grid=y,
        vstar=vstar,
        dvstar=grid.copy(),
        ddvstar=1.0 / d2,
        f_vals=f_vals,
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

    def bisect_rho(self, hi=64.0, tol=1e-10, enhanced=False):
        """sup{rho >= 0 : the criterion margin stays non-negative}."""
        if self.margin(0.0, enhanced).min() < -1e-12:
            return 0.0
        lo = 0.0
        while self.margin(hi, enhanced).min() >= 0.0:
            hi *= 2.0
            if hi > 1e9:
                return hi
        while hi - lo > tol * (1.0 + hi):
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


def entropic_condition_check(v: PotentialField, rho, grid, enhanced=True):
    """Pointwise verdict of the entropic sufficient condition at level rho.

    Returns a dict with the convexity flag of F, the worst margin over the
    grid, and the grid location where it is attained.
    """
    crit = dual_criterion_from_potential(v, grid)
    m = crit.margin(rho, enhanced=enhanced)
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


# -- Kahler-Einstein fixed point -------------------------------------------------------


@dataclass
class KESolution:
    """Fixed point Phi sampled on the solver's uniform grid.  Only the node
    values are kept, no interpolant (there is no `phi` field): read
    `phi_vals`, `second_derivative` and `interior_mask`."""

    grid: np.ndarray
    phi_vals: np.ndarray
    nu: Density1D
    iterations: int
    residual_sup: float

    def interior_mask(self, q_lo=0.005, q_hi=0.995):
        cdf = _grid_cdf(np.exp(-self.phi_vals), self.grid[1] - self.grid[0])
        return (cdf >= q_lo) & (cdf <= q_hi)

    def second_derivative(self):
        return _fd5(self.phi_vals, self.grid[1] - self.grid[0], order=2)


def _grid_cdf(pdf, h):
    """Normalized composite-Simpson CDF of a density on a uniform grid of step h."""
    cdf = np.maximum.accumulate(_cumulative_simpson(pdf, dx=h))
    return cdf / cdf[-1]


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


def _primitive_smooth_symmetric(vals, h):
    """Primitive on a uniform grid by trapezoid with the telescoped
    Euler-Maclaurin endpoint correction, averaged between left-to-right and
    right-to-left accumulation.

    Unlike composite Simpson, the O(h^4) error varies smoothly from node to
    node (no even/odd parity sawtooth), so finite differences of the
    primitive recover the integrand and its derivative cleanly.  Averaging
    the two directions keeps reflection symmetry of the integrand to roundoff
    instead of drifting with the accumulation direction.  The right-to-left
    pass reuses the trapezoid panels reversed and the derivative stencil
    negated, since reversing the grid flips the sign of d/dx.
    """
    panels = 0.5 * h * (vals[1:] + vals[:-1])
    d = _fd5(vals, h, order=1)
    c = h * h / 12.0
    fwd = np.concatenate([[0.0], np.cumsum(panels)]) - c * (d - d[0])
    bwd = np.concatenate([[0.0], np.cumsum(panels[::-1])])[::-1] - c * (d[-1] - d)
    total = 0.5 * (fwd[-1] + bwd[0])
    return 0.5 * (fwd + (total - bwd))


def _normalized_cdf_smooth(vals, h):
    """Smooth CDF of a density sampled on a uniform grid; symmetric densities
    yield CDFs with F(x) + F(-x) = 1 to roundoff."""
    prim = _primitive_smooth_symmetric(vals, h)
    cdf = prim / max(prim[-1], 1e-300)
    return np.maximum.accumulate(np.clip(cdf, 0.0, 1.0))


def _simpson_weights(n, h):
    """Composite Simpson weights h/3 [1, 4, 2, ..., 2, 4, 1] of a uniform grid
    with an odd number n of nodes."""
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def ke_solve_1d(
    nu: Density1D,
    tol=1e-8,
    max_iter=500,
    damping=0.5,
    grid_size=16385,
    recenter=True,
    initial_shift=0.0,
) -> KESolution:
    """Fixed point Phi of exp(-Phi) = Phi'' exp(-W(Phi')) for a compactly
    supported log-concave target exp(-W).

    The Picard map transports exp(-Phi_k) onto nu by monotone
    rearrangement, integrates the map into a new potential, damps, normalizes
    and recenters.  An Anderson step of depth 5 (`_ANDERSON_DEPTH`) mixes it:
    with the differences dX, dF of the last six pairs
    (Phi_j, F_j = map(Phi_j) - Phi_j), kept as rows of two preallocated
    arrays filled round-robin, gamma solves the normal equations
    (dF dF^T) gamma = dF F_k (least squares, for rank-deficient histories) and
    Phi_{k+1} = Phi_k + F_k - gamma (dX + dF), normalized and recentered
    again.  The residual is measured in sup norm over the interior quantile
    range of the solution.

    The grid is uniform with an odd `grid_size`, so every normalizing and
    barycenter integral is one dot product with cached composite-Simpson
    weights, and the normalized density exp(-Phi) of each potential is
    computed once and passed on to the barycenter and the transport.  The
    target quantile is evaluated only at levels strictly inside its clip
    range; the clipped ends take its two end values, computed once.
    """
    a, b = nu.support
    if not (np.isfinite(a) and np.isfinite(b)):
        raise NonCompactTarget("the fixed-point construction needs compact support")
    bary = nu.mean()
    if recenter:
        if abs(bary) > 1e-12:
            nu = nu.shifted(-bary)
            a, b = nu.support
    elif abs(bary) > 1e-10:
        raise BarycenterNotZero(f"barycenter of target = {bary:.3e}")

    edge = min(abs(a), abs(b))
    if edge <= 0.0:
        raise BarycenterNotZero("target support must surround the origin")
    if grid_size % 2 == 0:
        raise ValueError(f"grid_size must be odd for composite Simpson, got {grid_size}")
    half = _TAIL_LOG / edge
    grid = np.linspace(-half, half, grid_size)
    h = grid[1] - grid[0]
    w = _simpson_weights(grid_size, h)
    w_grid = w * grid

    # dense inverse-CDF interpolant of the target, built once; the transport
    # quantile is clipped at 1e-6 where the inverse CDF is well conditioned
    # (far outside the interior range the residual is measured on)
    tg = np.linspace(a, b, 65537)
    t_cdf = _normalized_cdf_smooth(np.asarray(nu.pdf(tg), dtype=float), tg[1] - tg[0])
    uu, idx = np.unique(t_cdf, return_index=True)
    nu_ppf = PiecewiseCubic.pchip(uu, tg[idx])
    u_lo = max(1e-6, float(uu[1]))
    u_hi = 1.0 - u_lo
    t_lo, t_hi = nu_ppf([u_lo, u_hi])

    # Huber-type start: quadratic core, linear tails with the fixed point's
    # true decay rate (the support edge), so nothing underflows on the grid;
    # `initial_shift` translates the start (the solution must not care)
    sigma = math.sqrt(max(nu.variance(), 1e-6))
    s0 = 2.0 * sigma
    g0 = grid - initial_shift
    phi = edge * (np.sqrt(s0 * s0 + g0 * g0) - s0)
    phi = phi + math.log(np.trapezoid(np.exp(-phi), grid))

    def normalize(p):
        """(p + log Z, exp(-p) / Z) with Z the Simpson integral of exp(-p)."""
        m = p.min()
        e = np.exp(-(p - m))
        z = w @ e
        return p + (math.log(z) - m), e / z

    def settle(p):
        p, e = normalize(p)
        if recenter:
            m1 = w_grid @ e
            if abs(m1) > 0.1 * h:
                spl = PiecewiseCubic.not_a_knot(grid, p[None])[0]
                p, e = normalize(spl(grid + m1))
            elif abs(m1) > 1e-15:
                # first-order argument shift: exact to O(m1^2), no resample noise
                p, e = normalize(p + m1 * _fd5(p, h, order=1))
        return p, e

    def transport(e):
        # cdf is nondecreasing: levels at or below u_lo come first, at or
        # above u_hi last
        cdf = _normalized_cdf_smooth(e, h)
        lo = np.searchsorted(cdf, u_lo, side="right")
        hi = np.searchsorted(cdf, u_hi, side="left")
        out = np.empty_like(cdf)
        out[:lo] = t_lo
        out[lo:hi] = nu_ppf(cdf[lo:hi])
        out[hi:] = t_hi
        return out

    w_pot = nu.potential

    def residual(p, e):
        # defect of exp(-Phi) = Phi'' exp(-W(Phi')) with honest finite
        # differences for Phi', Phi''
        d1 = _fd5(p, h, order=1)
        d2 = _fd5(p, h, order=2)
        mask = _grid_cdf(e, h)
        mask = (mask >= 0.005) & (mask <= 0.995)
        if d2[mask].min() <= 0.0:
            return math.inf
        t = np.clip(d1[mask], a + 1e-13, b - 1e-13)
        r = d2[mask] * np.exp(-np.asarray(w_pot(t), dtype=float)) - e[mask]
        return float(np.abs(r).max())

    def picard(p, e):
        # no normalize before damping: settle normalizes the mix anyway
        new = _primitive_smooth_symmetric(transport(e), h)
        return settle((1.0 - damping) * p + damping * new)[0]

    res = math.inf
    iterations = 0
    e = np.exp(-phi)
    # rows of the last _ANDERSON_DEPTH differences, slot (k - 1) % depth
    # written at step k; only the first min(k, depth) rows are ever read
    dxs = np.empty((_ANDERSON_DEPTH, grid_size))
    dfs = np.empty((_ANDERSON_DEPTH, grid_size))
    prev_phi = prev_f = None
    for k in range(max_iter):
        iterations = k + 1
        f = picard(phi, e) - phi
        step = f
        if k > 0:
            slot = (k - 1) % _ANDERSON_DEPTH
            np.subtract(phi, prev_phi, out=dxs[slot])
            np.subtract(f, prev_f, out=dfs[slot])
            used = min(k, _ANDERSON_DEPTH)
            df = dfs[:used]
            gamma = np.linalg.lstsq(df @ df.T, df @ f, rcond=None)[0]
            step = f - gamma @ (dxs[:used] + df)
        prev_phi, prev_f = phi, f
        phi_next, e = settle(phi + step)
        delta = float(np.abs(phi_next - phi).max())
        phi = phi_next
        if delta < 0.25 * tol or (k > 10 and k % 5 == 0):
            res = residual(phi, e)
            if res < tol:
                break
    else:
        res = residual(phi, e)
    if not res < tol:
        raise NoConvergence(
            f"KE iteration stalled at residual {res:.3e} after {iterations} steps",
            residual=res,
        )
    return KESolution(
        grid=grid,
        phi_vals=phi,
        nu=nu,
        iterations=iterations,
        residual_sup=res,
    )
