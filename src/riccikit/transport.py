"""One-dimensional optimal transport, numerical Legendre transforms, the
entropic curvature criterion, and the 1-D Kahler-Einstein potential.

The monotone rearrangement T = G^{-1} o F between two densities is the 1-D
optimal-transport map; its potential Phi (T = Phi') provides the Hessian
metric used by the refined inequalities.  A density is integrated on its
graded nodes by one rule (`_running_integrals`), its CDF from the left end
and its survival function from the right, so each keeps its relative
accuracy into its own tail, from which the map takes each level.  The
cubics and quadrature rules are this module's own: no scipy is loaded.

A raw 1-D potential is batch-first: it is called with a 1-D float array of
abscissae and returns an array of the same shape, or a scalar, which is
broadcast.  A single point is a batch of one.
"""

import functools
import math
from dataclasses import dataclass, field
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

_NODES = 8193  # graded nodes of a density, uniform in s
_S = 14.0  # s range of the nodes: logit levels up to 28
_COVER = 24.0  # the working interval reaches at most this many logistic scales
               # from the centre, leaving 4 logit units of crowding at each end
_TAIL_LOG = 42.0  # cut the working interval where the density has fallen
                  # below exp(-42) of its peak (past the 1e-12 quantile)
_KE_GRID = 16385  # nodes of the uniform x grid of the KE potential
_TINY = np.finfo(float).tiny
_KE_ROUNDOFF_LOG = 52.0 * math.log(2.0)  # exp(-Phi) below 2^-52 of its peak is roundoff
# the Euler-Maclaurin correction h^2/12 f' - h^4/720 f''' at the first two
# nodes of a grid, in units of h/2880, from the six-point one-sided stencils
# of f' and f''' (exact for quintics); at a cut these set the error
_EM_ENDS = np.array([[-531.0, 1129.0, -1082.0, 702.0, -259.0, 41.0],
                     [-41.0, -285.0, 514.0, -262.0, 87.0, -13.0]])


# -- piecewise cubics and quadrature rules ---------------------------------------


class PiecewiseCubic:
    """The C^1 cubic with values y and slopes d at knots x, as scipy's
    `CubicHermiteSpline`: c0 s^3 + c1 s^2 + c2 s + c3, s = t - x_j, on piece j.
    `pchip` takes the slopes of scipy 1.17.1's `PchipInterpolator` (Fritsch &
    Carlson 1980) bit for bit.  A call not given its pieces finds them by a
    guide table (Chen & Asau 1974), built on the first such call: a bucket
    per piece width names a piece at or left of the abscissa's, two forward
    steps follow, and abscissae still unresolved (crowded tails)
    binary-search."""

    def __init__(self, x, y, d):
        h = np.diff(x)
        slope = np.diff(y) / h
        t = (d[:-1] + d[1:] - 2 * slope) / h
        # 0.0 + as scipy's evaluation starts from 0.0, which turns -0.0 into 0.0
        self.c = (t / h, (slope - d[:-1]) / h - t, 0.0 + d[:-1], 0.0 + y[:-1])
        self.x, self.guide = x, None

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

    def __call__(self, t, nu=0, j=None):
        """Value (nu = 0) or first derivative (nu = 1) in scipy's order, on the
        pieces j if given; the end pieces extrapolate, and NaN (fmin sends it
        to the last bucket) stays NaN."""
        x, k = self.x, self.x.size - 1
        shape, t = np.shape(t), np.asarray(t, dtype=float).reshape(-1)
        if j is None:
            if self.guide is None:
                # guide[b]: the last piece whose left knot lies in a bucket before b
                self.scale = k / (x[-1] - x[0])
                b = np.fmin((x[:-1] - x[0]) * self.scale, k - 1).astype(np.intp)
                self.guide = np.maximum(np.cumsum(np.bincount(b + 1, minlength=k + 1))[:-1] - 1, 0)
                self.right = np.append(x[1:-1], np.nan)  # the last piece is closed
            right, guide = self.right, self.guide
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


def _running_integrals(f, h, cut=None):
    """(int_{s_0}^{s_i} f, int_{s_i}^{s_n} f) at the nodes s_i of a uniform grid
    of step h: trapezoid sums with the Euler-Maclaurin corrections h^2/12 f'
    - h^4/720 f''' (five-point differences, six-point one-sided ones at the
    two end nodes), so the O(h^6) error varies smoothly from node to node.
    With a `cut` node no sum straddles it: each side takes its own end
    corrections there, as across a kink of f."""
    if cut is not None:
        (l1, r1), (l2, r2) = _running_integrals(f[:cut + 1], h), _running_integrals(f[cut:], h)
        return np.concatenate([l1, l1[-1] + l2[1:]]), np.concatenate([r1[:-1] + r2[0], r2])
    panels = 0.5 * h * (f[1:] + f[:-1])
    c = np.empty(f.size)
    c[2:-2] = h / 1440.0 * (11.0 * (f[:-4] - f[4:]) + 82.0 * (f[3:-1] - f[1:-3]))
    c[:2] = h / 2880.0 * (_EM_ENDS @ f[:6])
    c[:-3:-1] = -h / 2880.0 * (_EM_ENDS @ f[:-7:-1])
    left = np.concatenate([[0.0], np.cumsum(panels)]) - (c - c[0])
    right = np.concatenate([np.cumsum(panels[::-1])[::-1], [0.0]]) - (c[-1] - c)
    return left, right


def _graded_nodes(lo, hi, c, sc, s):
    """Nodes x(s) and dx/ds: the quantiles of the logistic law (c, sc) cut to
    [lo, hi], at the logistic CDF of 2s rescaled to map the ends of the
    symmetric s onto lo and hi: 2 sc apart per unit of s where that law keeps
    its mass, crowding geometrically toward lo and hi."""
    ea, eb = math.exp((lo - c) / sc), math.exp((c - hi) / sc)
    pa, qb = ea / (1.0 + ea), eb / (1.0 + eb)  # the law's mass below lo and above hi
    e = np.exp(-2.0 * s)
    lam, lam_c = 1.0 / (1.0 + e), e / (1.0 + e)
    w = (1.0 - pa - qb) / (lam[-1] - lam[0])
    p, q = pa + w * (lam - lam[0]), qb + w * (lam_c - lam_c[-1])
    x = c + sc * np.log(p / q)
    x[0], x[-1] = lo, hi
    return x, 2.0 * sc * w * lam * lam_c / (p * q)


def _node_at(lo, hi, c, sc, x0, s):
    """The node j of `_graded_nodes` next to x0 (None within 8 of an end) and
    the centre near c that puts it on x0."""
    law = lambda z: 1.0 / (1.0 + math.exp(-z / sc))  # the logistic CDF at c + z
    lam0 = 1.0 / (1.0 + math.exp(-2.0 * s[0]))
    for step in range(5):
        pa, qb = law(lo - c), law(c - hi)
        w = (1.0 - pa - qb) / (1.0 - 2.0 * lam0)
        if not step:  # the node next to x0, from x0's level under the law
            p0 = lam0 + (law(x0 - c) - pa) / w
            j = int(round((0.5 * math.log(p0 / (1.0 - p0)) - s[0]) / (s[1] - s[0])))
            if not 8 <= j < s.size - 8:
                return None, c
            e = math.exp(-2.0 * s[j])
            u, uc = 1.0 / (1.0 + e) - lam0, e / (1.0 + e) - lam0
        p, q = pa + w * u, qb + w * uc
        dp = -(pa * (1.0 - pa) * uc + qb * (1.0 - qb) * u) / (sc * (u + uc))
        c -= (c + sc * math.log(p / q) - x0) / (1.0 + sc * dp / (p * q))
    return j, c


class Density1D:
    """A probability density exp(-V)/Z on an interval, with its CDF and
    survival function on `_NODES` graded nodes (`grid`, `_graded_nodes`).

    The probe of `_effective_bounds` places the nodes; its minimizer x0 of
    the potential is a node that no running sum straddles, so a kink there
    (|t|) costs nothing.  The node CDF (`cdf_grid`) is `_running_integrals`
    summed from the left end, the survival function (`sf_grid`) from the
    right end, and `moment` sums on the same nodes.  Between the nodes log F
    and log(1 - F) are cubic Hermites in the logit of x over the end nodes,
    with the exact slopes, and F (1 - F) is a cubic in x on its end panel
    (`_log_level`); `cdf` reads F up to the median node and 1 - (1 - F)
    past it (`sf` likewise), and `ppf` inverts from the nearer tail.
    `ppf_many`, the sampling kernel, is the PCHIP through the CDF nodes, bit
    for bit scipy's.  The raw potential V takes a 1-D float array and
    returns one, or a scalar.

    For potentials smooth on the support, or kinked only at x0, log Z and the
    moments are good to ~1e-14 (|t|: log Z 1e-15, E t^2 4e-14 off); `cdf` and
    `sf` to ~1e-11 absolute over the whole node range, and ~1e-12 relative in
    a smooth tail, out to F(-8) and 1 - F(8) on the Gaussian (~1e-7 on the
    first panels next to an end where the density is positive).  Across a
    jump of the potential the node CDF is off by about 1e-4; `ppf` refuses
    the levels in or next to a flat stretch of it.
    """

    def __init__(self, potential, support, name="density"):
        self.raw_potential = potential
        self.support = (float(support[0]), float(support[1]))
        self.name = name
        self._build()

    # -- construction ---------------------------------------------------------

    def _build(self):
        lo, hi, x0, c, sc = self._effective_bounds()
        if not (lo < hi and math.isfinite(hi - lo)):
            raise NonNormalizable(f"{self.name}: working interval [{lo}, {hi}] is empty "
                                  "or wider than float range")
        s, self._hs = np.linspace(-_S, _S, _NODES, retstep=True)
        self._cut, c = _node_at(lo, hi, c, sc, x0, s)  # move the law to put a node on x0
        self.grid, self._dxds = _graded_nodes(lo, hi, c, sc, s)
        if self._cut is not None:
            self.grid[self._cut] = x0
        vals = self._raw(self.grid)
        pdf = np.exp(vals.min() - vals)
        left, right = self._integrate(pdf)
        z = left[-1]
        if not (z > 0.0 and np.isfinite(z)):
            raise NoConvergence(f"{self.name}: normalization failed")
        self._pdf_grid = pdf / z
        self.cdf_grid = np.maximum.accumulate(left) / z
        self.sf_grid = np.minimum.accumulate(right) / z
        self.log_z = math.log(z) - float(vals.min())
        self._median = self.grid[np.searchsorted(self.cdf_grid, 0.5)]
        self._ppf_interp, self._logs = None, [None, None]

    def _integrate(self, vals):
        """Running integrals from both ends of values at the nodes."""
        return _running_integrals(vals * self._dxds, self._hs, self._cut)

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
        """[lo, hi], where the potential is within `_TAIL_LOG` of its minimum
        at x0, x0 and the nodes' logistic law (centre, scale): a compact
        support is probed at 201 points, whose quartiles give the law, an
        unbounded end is stepped out from x0, and the law, centred on the
        interval, reaches both ends within `_COVER` scales."""
        a, b = self.support
        if np.isfinite(a) and np.isfinite(b):
            probe, h = np.linspace(a, b, 201, retstep=True)
            vp = self._raw(probe)
            live = np.flatnonzero(vp - vp.min() <= _TAIL_LOG)
            lo, hi = probe[max(live[0] - 1, 0)], probe[min(live[-1] + 1, 200)]
            mass = np.maximum.accumulate(_running_integrals(np.exp(vp.min() - vp), h)[0])
            q1, c, q3 = np.interp([0.25, 0.5, 0.75], mass / mass[-1], probe)
            sc = max((q3 - q1) / (2.0 * math.log(3.0)), (c - lo) / _COVER, (hi - c) / _COVER)
            return lo, hi, float(probe[np.argmin(vp)]), c, sc
        seed = a + 1.0 if np.isfinite(a) else (b - 1.0 if np.isfinite(b) else 0.0)
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
        return lo, hi, x0, 0.5 * (lo + hi), 0.5 * (hi - lo) / _COVER

    # -- pointwise queries ----------------------------------------------------

    def potential(self, x):
        """Normalized potential: pdf(x) = exp(-potential(x))."""
        return self._raw(x) + self.log_z

    def pdf(self, x):
        return np.exp(-self.potential(x))

    def _logit(self, x):
        """w = log((x - lo) / (hi - x)) between the end nodes (each distance at
        least `_TINY`) and dx/dw: the variable in which log F and log(1 - F)
        stay smooth next to an end where F or 1 - F is a power of x - lo."""
        lo, hi = self.grid[0], self.grid[-1]
        u, v = np.maximum(x - lo, _TINY), np.maximum(hi - x, _TINY)
        return np.log(u / v), u * v / (hi - lo)

    def _log_level(self, x, upper, j=None):
        """log F (log(1 - F) with `upper`) and its slope at x: between the inner
        nodes the cubic Hermite in w with the exact slopes pdf / F dx/dw, which
        keeps their relative accuracy into the tail (on the pieces j if given),
        on the end panel where F is 0 the log of F's cubic Hermite in x."""
        g = self.grid
        if self._logs[upper] is None:
            sign, e = (-1.0, slice(-2, None)) if upper else (1.0, slice(0, 2))
            big, pdf = self.sf_grid if upper else self.cdf_grid, sign * self._pdf_grid
            (w, dxdw), f = self._logit(g[1:-1]), np.maximum(big[1:-1], _TINY)
            self._logs[upper] = (PiecewiseCubic(w, np.log(f), pdf[1:-1] * dxdw / f),
                                 PiecewiseCubic(g[e], big[e], pdf[e]))
        fit, end = self._logs[upper]
        past = (x > g[-2]) if upper else (x < g[1])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            w, dxdw = self._logit(x)
            y, d = fit(w, 0, j), np.asarray(fit(w, 1, j) / dxdw)  # arrays, a point too
            if past.any():  # the end panel
                e = end(x[past])
                y[past], d[past] = np.log(e), end(x[past], 1) / e
        return y, d

    def _hermite(self, x, upper):
        """exp(`_log_level`) at a batch of points; 0 or 1 from the end nodes on."""
        x, g = np.asarray(x, dtype=float), self.grid
        j = np.clip(np.searchsorted(g, x, "right") - 2, 0, g.size - 4)  # pieces of the inner nodes
        with np.errstate(over="ignore"):
            out = np.minimum(np.exp(self._log_level(x, upper, j)[0]), 1.0)
        return np.where(x <= g[0], float(upper), np.where(x >= g[-1], float(not upper), out))

    def cdf(self, x):
        """F at a batch of points, a point being a batch of one: `_hermite` up
        to the median node, 1 minus that of 1 - F past it."""
        right = np.asarray(x) > self._median
        return np.where(right, 1.0 - self._hermite(x, True), self._hermite(x, False))

    def sf(self, x):
        """1 - F at a batch of points, as `cdf`."""
        right = np.asarray(x) > self._median
        return np.where(right, self._hermite(x, True), 1.0 - self._hermite(x, False))

    def _invert(self, level, upper=False):
        """The points where F (1 - F with `upper`) takes the positive levels,
        by Newton on `_log_level` in each level's node panel; raises
        CDFInversionFailure where the node values are flat at or next to a
        level (a dead zone or a jump) and where Newton does not settle."""
        sign = -1.0 if upper else 1.0
        vals = sign * (self.sf_grid if upper else self.cdf_grid)  # increasing
        level, n, g = np.asarray(level, dtype=float), vals.size, self.grid
        k = np.clip(np.searchsorted(vals, sign * level), 1, n - 1)
        near = ((vals[k] == vals[k - 1]) | ((k > 1) & (vals[k - 1] == vals[k - 2]))
                | ((k < n - 1) & (vals[np.minimum(k + 1, n - 1)] == vals[k])))
        if near.any():
            i = int(np.argmax(near))
            raise CDFInversionFailure(
                f"{self.name}: CDF flat at or next to level {level[i]:.10g} on "
                f"[{g[k[i]]:.6g}, {g[min(k[i] + 1, n - 1)]:.6g}]; density vanishes inside support")
        frac = (sign * level - vals[k - 1]) / (vals[k] - vals[k - 1])
        lo = np.maximum(g[k - 1], np.nextafter(g[0], g[1]))  # an ulp inside the end nodes,
        hi = np.minimum(g[k], np.nextafter(g[-1], g[-2]))  # where F (1 - F) is 0
        t = np.clip(lo + (hi - lo) * frac, lo, hi)  # the start, on the chord
        j, target = np.clip(k - 2, 0, n - 4), np.log(level)  # the pieces of the inner nodes
        tol = np.maximum(1e-10 * (hi - lo), np.spacing(2.0 * np.maximum(-lo, hi)))  # or 2 ulps
        for _ in range(60):  # Newton in the panel, until a move is within tol
            y, d = self._log_level(t, upper, j)
            with np.errstate(divide="ignore", invalid="ignore"):
                t, last = np.clip(t - (y - target) / d, lo, hi), t
            if (np.abs(t - last) <= tol).all():
                return t
        raise CDFInversionFailure(f"{self.name}: no quantile at some of the levels "
                                  f"{level[:3]}: Newton does not settle")

    def ppf(self, u):
        """Quantile at level u, from the nearer tail (`_invert`)."""
        u = float(u)
        if not 0.0 < u < 1.0:
            raise ValueError("quantile level must be in (0, 1)")
        return float(self._invert(np.array([min(u, 1.0 - u)]), u > 0.5)[0])

    # -- sampling -------------------------------------------------------------

    def ppf_many(self, u):
        """Quantiles by the PCHIP through the CDF nodes, built once; bit for bit
        scipy's `PchipInterpolator(..., extrapolate=False)` at clipped levels."""
        if self._ppf_interp is None:
            # the node CDF is non-decreasing, so the starts of its runs of
            # equal values are np.unique's values and first indices
            cdf = self.cdf_grid
            idx = np.flatnonzero(np.r_[True, cdf[1:] != cdf[:-1]])
            try:
                self._ppf_interp = PiecewiseCubic.pchip(cdf[idx], self.grid[idx])
            except ValueError as exc:  # slopes beyond float range on a vast support
                raise CDFInversionFailure(f"{self.name}: no quantile interpolant: {exc}") from exc
        u = np.clip(np.clip(np.asarray(u, dtype=float), 1e-15, 1.0 - 1e-15),
                    self.cdf_grid[0], self.cdf_grid[-1])
        return np.clip(self._ppf_interp(u), self.grid[0], self.grid[-1])

    def sample(self, n, rng):
        return self.ppf_many(rng.uniform(size=n))

    # -- moments and transforms ------------------------------------------------

    def moment(self, k=1):
        """k-th moment, summed on the nodes."""
        return float(self._integrate(self._pdf_grid * self.grid**k)[0][-1])

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


def _rearrange(mu: Density1D, nu: Density1D, x, levels, upper):
    """T = G^{-1}(F(x)) and T' = pdf_mu(x) / pdf_nu(T) at points x of mu from
    their levels F(x), or 1 - F(x) where `upper` (nu's survival function)."""
    t = np.empty_like(x)
    for side in (~upper, upper):
        if side.any():
            t[side] = nu._invert(levels[side], upper=side is upper)
    with np.errstate(divide="ignore"):
        return t, mu.pdf(x) / nu.pdf(t)


def monotone_map_1d(mu: Density1D, nu: Density1D, x) -> Tuple[float, float]:
    """Monotone rearrangement T = G^{-1}(F(x)) of mu onto nu and its
    derivative T' = pdf_mu(x) / pdf_nu(T(x)), by F(x) left of mu's median
    node and 1 - F(x) right of it.  Raises CDFInversionFailure when that
    level is 0 (x outside mu's nodes), where nu's CDF is flat at or next to
    it, and where the density of nu vanishes at T(x).  `x` is one point;
    ValueError for more than one."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size > 1:
        raise ValueError(f"monotone_map_1d maps one point, got {x.size}")
    upper = x > mu._median
    level = mu._hermite(x, bool(upper[0]))
    if not level[0] > 0.0:
        raise CDFInversionFailure(
            f"{mu.name}: {'1 - ' if upper[0] else ''}F({x[0]}) = {level[0]} outside the "
            f"nodes [{mu.grid[0]:.6g}, {mu.grid[-1]:.6g}]; no interior quantile to map")
    t, tp = _rearrange(mu, nu, x, level, upper)
    if not np.isfinite(tp[0]):
        raise CDFInversionFailure(f"{nu.name}: density vanishes at T({x[0]}) = {t[0]}")
    return float(t[0]), float(tp[0])


def transport_potential_1d(mu: Density1D, nu: Density1D) -> PotentialField:
    """Convex potential Phi with Phi' = monotone map of mu onto nu.

    Parametrized by level, at the nodes x of mu: T and T' come from
    `_rearrange`, each level from the nearer tail.  Between the nodes T is
    the cubic Hermite with the slopes T', Phi'' is that cubic's slope (T' at
    the nodes), Phi is the cubic Hermite of T's running integral, built on
    its first call, and Phi''' is the finite-difference fallback.  The
    callbacks take a point of shape (1,) or a column of shape (n, 1), and
    return values with that leading shape.  CDFInversionFailure is raised
    outside the nodes of mu whose level and image density are positive
    (nothing is extrapolated), and where nu's CDF is flat at a level the map
    reaches or crosses (T jumps there).

    Between the nodes G(T(x)) matches F(x) to ~1e-9 relative, each from its
    nearer tail, except where T runs into an unbounded tail of nu from an
    end of mu where pdf_mu is positive: T ~ -sqrt(2 log(1/(x - lo))) there,
    and the level is off by 3e-3 on the first panel and 1e-5 by the sixth
    (power 1.5 onto the Gaussian).
    """
    upper = mu.cdf_grid > mu.sf_grid
    levels = np.where(upper, mu.sf_grid, mu.cdf_grid)
    pos = np.flatnonzero(levels > 0.0)
    live = slice(pos[0], pos[-1] + 1)
    for tail in (False, True):  # a dead zone of nu is flat in its CDF or survival function
        vals, ours = (nu.sf_grid, mu.sf_grid[live]) if tail else (nu.cdf_grid, mu.cdf_grid[live])
        flat = vals[np.flatnonzero(np.diff(vals) == 0.0)]
        crossed = flat[(flat > 0.0) & (flat <= 0.5) & (flat >= ours.min()) & (flat <= ours.max())]
        if crossed.size:
            nu._invert(crossed, tail)  # refuses them
    xs, dxds = mu.grid[live], mu._dxds[live]
    ts, tps = _rearrange(mu, nu, xs, levels[live], upper[live])
    ok = np.flatnonzero(np.isfinite(tps))
    xs, ts, tps, dxds = (v[ok[0]:ok[-1] + 1] for v in (xs, ts, tps, dxds))
    t_fit = PiecewiseCubic(xs, ts, tps)
    phi = functools.cache(lambda: PiecewiseCubic(xs, _running_integrals(ts * dxds, mu._hs)[0], ts))

    def inside(x):
        x = np.asarray(x, dtype=float)
        if not ((x >= xs[0]) & (x <= xs[-1])).all():
            raise CDFInversionFailure(f"{mu.name} onto {nu.name}: the map is built on "
                                      f"[{xs[0]:.17g}, {xs[-1]:.17g}] only")
        return x

    return PotentialField(
        fn=lambda x: phi()(inside(x))[..., 0],
        grad=lambda x: t_fit(inside(x)),
        hess=lambda x: t_fit(inside(x), 1)[..., None],
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

    Only node values of Phi and Phi'' are kept, with the normalized CDF of
    exp(-Phi) at the nodes, summed once when the solution is built.
    `iterations` is always 1."""

    grid: np.ndarray
    phi_vals: np.ndarray
    iterations: int
    residual_sup: float
    d2_vals: np.ndarray
    mass_cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cdf = np.maximum.accumulate(
            _running_integrals(np.exp(-self.phi_vals), self.grid[1] - self.grid[0])[0])
        self.mass_cdf = cdf / cdf[-1]

    def interior_mask(self, q_lo=0.005, q_hi=0.995):
        """Nodes between two quantiles of exp(-Phi), read from `mass_cdf`."""
        return (self.mass_cdf >= q_lo) & (self.mass_cdf <= q_hi)

    def second_derivative(self):
        return self.d2_vals


def _fd5(v, h):
    """Five-point first derivative on a uniform grid; one-sided copies at the
    two boundary nodes on each end."""
    out = np.empty(len(v))
    out[2:-2] = (-v[4:] + 8 * v[3:-1] - 8 * v[1:-3] + v[:-4]) / (12 * h)
    out[:2] = out[2]
    out[-2:] = out[-3]
    return out


def _quintic_hermite(x, p, d1, d2, t):
    """At the points t, the C^2 piecewise quintic with values p, slopes d1 and
    second derivatives d2 at the increasing knots x, and its second
    derivative."""
    j = np.clip(np.searchsorted(x, t) - 1, 0, x.size - 2)
    h = x[j + 1] - x[j]
    u = (t - x[j]) / h
    u3 = u * u * u
    w01 = u3 * (10.0 - 15.0 * u + 6.0 * u * u)
    w10 = u - u3 * (6.0 - 8.0 * u + 3.0 * u * u)
    w11 = -u3 * (4.0 - 7.0 * u + 3.0 * u * u)
    w20, w21 = 0.5 * u * u * (1.0 - u) ** 3, 0.5 * u3 * (1.0 - u) ** 2
    dp, e0, e1 = p[j + 1] - p[j], h * d1[j], h * d1[j + 1]
    # p[j] is added last, so the result is rounded once at its magnitude
    value = p[j] + (w01 * dp + w10 * e0 + w11 * e1 + h * h * (w20 * d2[j] + w21 * d2[j + 1]))
    second = (u * (60.0 - 180.0 * u + 120.0 * u * u) * dp
              - u * (36.0 - 96.0 * u + 60.0 * u * u) * e0
              - u * (24.0 - 84.0 * u + 60.0 * u * u) * e1) / (h * h)
    second += ((1.0 - u * (9.0 - 18.0 * u + 10.0 * u * u)) * d2[j]
               + u * (3.0 - 12.0 * u + 10.0 * u * u) * d2[j + 1])
    return value, second


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

    The integrals are running sums (`_running_integrals`) over s on nu's own
    nodes, which crowd toward the support ends, where nu / G has its
    1/(b - y) singularity, follow the bulk of nu and are near-uniform in x.
    G is summed from the nearer end, so it keeps its relative accuracy in the
    tails; the barycenter m comes from the same sums, so both ends give one
    G.  Phi = -log G is the quintic Hermite in x with slopes y and second
    derivatives G/nu, sampled with its second derivative on a uniform grid
    of `_KE_GRID` nodes: [-42/e, 42/e] (e the distance from m to the nearer
    support end), or wider to keep the nodes where exp(-Phi) is above 2^-52
    of its peak, for a target much narrower than its support such as a wide
    truncated Gaussian; past the outer nodes it is the linear asymptote whose
    slope is the support end.  No iteration and no BLAS reduction, so the
    result does not depend on the BLAS thread count.

    `residual_sup` is sup |Phi'' nu(Phi') - exp(-Phi)|, with the quintic's
    Phi'' and five-point differences for Phi', over the 0.005-0.995 quantile
    range of exp(-Phi); NoConvergence is raised when it is not below `tol`.
    """
    a, b = nu.support
    if not (np.isfinite(a) and np.isfinite(b)):
        raise NonCompactTarget("the Kahler-Einstein potential needs compact support")
    c, hs, dyds = 0.5 * (a + b), nu._hs, nu._dxds
    t, f = nu.grid - c, nu._pdf_grid * dyds  # f: the density of s
    (f_l, f_r), (tf_l, tf_r) = nu._integrate(nu._pdf_grid), nu._integrate(t * nu._pdf_grid)
    mass, m = f_l[-1], tf_l[-1] / f_l[-1]  # m: the barycenter, from c
    y = t - m
    g = np.where(y < 0.0, m * f_l - tf_l, tf_r - m * f_r)
    live = np.flatnonzero((f > 0.0) & (g > 0.0))
    y, f, g, dyds = (k[live[0]:live[-1] + 1] for k in (y, f, g, dyds))
    x = _running_integrals(f / g, hs)[0]
    x = x - _running_integrals(x * f, hs)[0][-1] / mass

    lo, hi = a - c - m, b - c - m
    phi = -np.log(g)
    kept = x[phi - phi.min() <= _KE_ROUNDOFF_LOG]
    half = max(_TAIL_LOG / min(-lo, hi), -kept[0], kept[-1])
    grid, h = np.linspace(-half, half, _KE_GRID, retstep=True)
    out, d2 = _quintic_hermite(x, phi, y, g / f * dyds, grid)
    out = np.where(grid < x[0], phi[0] + lo * (grid - x[0]), out)
    out = np.where(grid > x[-1], phi[-1] + hi * (grid - x[-1]), out)

    sol = KESolution(grid=grid, phi_vals=out, iterations=1, residual_sup=math.inf,
                     d2_vals=np.where((grid < x[0]) | (grid > x[-1]), 0.0, d2))
    mask = sol.interior_mask()
    d2 = sol.second_derivative()[mask]
    d1 = np.clip(_fd5(out, h)[mask] + c + m, a + 1e-13, b - 1e-13)
    if d2.min() > 0.0:
        sol.residual_sup = float(np.abs(d2 * nu.pdf(d1) - np.exp(-out[mask])).max())
    if not sol.residual_sup < tol:
        raise NoConvergence(f"KE residual {sol.residual_sup:.3e} is not below {tol:.1e}",
                            residual=sol.residual_sup)
    return sol
