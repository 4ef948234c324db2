"""Convex bodies: gauge functionals, boundary normals and curvature, uniform
and cone-measure sampling, and the diagonality ratios of the boundary normal.

The catalog is closed: balls, axis-aligned boxes, the corner simplex
{x >= 0, sum x_i <= 1}, l_p balls and smooth 2-D star bodies given by a
radial function.  The cone measure is realized exactly as the push-forward
of the uniform measure under x -> x / gauge(x).

`SCHEMA`, beside `CONSTRUCTORS`, gives each body kind's keys with their
types, ranges and defaults; `body_from_spec` fills the defaults.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import (
    NonNormalizable,
    NonPositiveAngle,
    NonSmoothBoundaryPoint,
    RejectionBudgetExceeded,
    UndefinedAtOrigin,
)
from .schema import Key, Schema, fill, number, positive

_CORNER_MARGIN = 1e-8


class ConvexBody:
    """Base class; subclasses fill in gauge/normal/curvature/sampling."""

    dim: int
    kind: str

    def gauge(self, x):
        raise NotImplementedError

    def gauge_many(self, pts):
        return np.array([self.gauge(p) for p in np.atleast_2d(pts)])

    def gauge_grad(self, x):
        raise NotImplementedError

    def gauge_grad_many(self, pts):
        return np.array([self.gauge_grad(p) for p in np.atleast_2d(pts)])

    def normal(self, x):
        """Outer unit normal at the radial projection of x to the boundary."""
        g = self.gauge_grad(x)
        n = np.linalg.norm(g)
        if n <= 0.0:
            raise UndefinedAtOrigin("gauge gradient vanishes")
        return g / n

    def normal_many(self, pts):
        """Outer unit normals for the rows of an (n, d) array of points."""
        g = self.gauge_grad_many(pts)
        norm = np.sqrt(np.vecdot(g, g))
        if np.any(norm <= 0.0):
            raise UndefinedAtOrigin("gauge gradient vanishes")
        return g / norm[:, None]

    def boundary_curvature(self, x):
        raise NotImplementedError

    def sample_uniform(self, n, rng):
        raise NotImplementedError

    def volume(self):
        raise NotImplementedError

    def radius_bound(self):
        """Circumradius about the origin."""
        raise NotImplementedError

    def spec(self):
        return {"kind": self.kind, "dim": self.dim}


def gauge_and_normal(body: ConvexBody, x):
    x = np.asarray(x, dtype=float)
    if np.linalg.norm(x) == 0.0:
        raise UndefinedAtOrigin("gauge direction undefined at the origin")
    return float(body.gauge(x)), body.normal(x)


def boundary_curvature(body: ConvexBody, x):
    return body.boundary_curvature(np.asarray(x, dtype=float))


def polar_map_norm(body: ConvexBody, x):
    """Operator norm of the differential of T(x) = x / gauge(x):
    |x| / (p(x) <x, n(T(x))>)."""
    x = np.asarray(x, dtype=float)
    p = float(body.gauge(x))
    if p <= 0.0:
        raise UndefinedAtOrigin("polar map undefined where the gauge vanishes")
    n = body.normal(x)
    xn = float(x @ n)
    if xn <= 0.0:
        raise NonPositiveAngle(f"<x, n> = {xn:.3e} <= 0")
    return float(np.linalg.norm(x)) / (p * xn)


def diagonality_bounds(body: ConvexBody, samples):
    """Empirical (inf, sup) over boundary samples of <n, e_i>/<n, x>."""
    x = np.atleast_2d(np.asarray(samples, dtype=float))
    n = body.normal_many(x)
    xn = np.vecdot(x, n)
    bad = np.flatnonzero(xn <= 0.0)
    if bad.size:
        i = bad[0]
        raise NonPositiveAngle(f"<x, n> = {xn[i]:.3e} at {x[i]}")
    r = n / xn[:, None]
    return float(r.min()), float(r.max())


@dataclass
class ConeMeasureSampler:
    """i.i.d. draws from the cone measure: uniform in the body, projected to
    the boundary along rays.  `seed` is anything numpy's default_rng takes,
    an int or a SeedSequence."""

    body: ConvexBody
    seed: object = 0

    def __post_init__(self):
        self._rng = np.random.default_rng(self.seed)

    def sample(self, count):
        pts = self.body.sample_uniform(count, self._rng)
        g = self.body.gauge_many(pts)
        return pts / g[:, None]


# ---------------------------------------------------------------------------


class Ball(ConvexBody):
    def __init__(self, dim, radius=1.0, orthant=False):
        self.dim = dim
        self.radius = float(radius)
        self.orthant = orthant
        self.kind = "ball"

    def gauge(self, x):
        return float(np.linalg.norm(x)) / self.radius

    def gauge_many(self, pts):
        return np.linalg.norm(np.atleast_2d(pts), axis=1) / self.radius

    def gauge_grad(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x)
        if r == 0.0:
            raise UndefinedAtOrigin("ball gauge gradient at the origin")
        return x / (r * self.radius)

    def gauge_grad_many(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        # row dot products round like the pointwise np.linalg.norm(x)
        r = np.sqrt(np.vecdot(pts, pts))
        if np.any(r == 0.0):
            raise UndefinedAtOrigin("ball gauge gradient at the origin")
        return pts / (r[:, None] * self.radius)

    def boundary_curvature(self, x):
        n = self.normal(x)
        proj = np.eye(self.dim) - np.outer(n, n)
        return proj / self.radius, (self.dim - 1) / self.radius

    def sample_uniform(self, n, rng):
        z = rng.standard_normal((n, self.dim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        r = self.radius * rng.uniform(size=n) ** (1.0 / self.dim)
        pts = z * r[:, None]
        if self.orthant:
            pts = np.abs(pts)
        return pts

    def sample_boundary(self, n, rng, antithetic=True):
        """Uniform points on the sphere (antithetic +/- pairs by default)."""
        m = (n + 1) // 2 if antithetic else n
        z = rng.standard_normal((m, self.dim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        if antithetic:
            z = np.concatenate([z, -z])[:n]
        pts = self.radius * z
        return np.abs(pts) if self.orthant else pts

    def volume(self):
        full = math.pi ** (self.dim / 2.0) / math.gamma(self.dim / 2.0 + 1.0)
        full *= self.radius**self.dim
        return full / 2**self.dim if self.orthant else full

    def surface_area(self):
        return self.dim * self.volume() / self.radius

    def radius_bound(self):
        return self.radius

    def spec(self):
        return {"kind": "ball", "dim": self.dim, "radius": self.radius,
                "orthant": self.orthant}


class Box(ConvexBody):
    """Axis-aligned box with half-widths a_i, centered at the origin."""

    def __init__(self, half_widths):
        self.a = np.atleast_1d(np.asarray(half_widths, dtype=float))
        self.dim = self.a.size
        self.kind = "box"

    def gauge(self, x):
        return float(np.max(np.abs(np.asarray(x, dtype=float)) / self.a))

    def gauge_many(self, pts):
        return np.max(np.abs(np.atleast_2d(pts)) / self.a, axis=1)

    def _facet(self, x):
        r = np.abs(np.asarray(x, dtype=float)) / self.a
        p = float(r.max())
        if p <= 0.0:
            raise UndefinedAtOrigin("box gauge at the origin")
        hits = np.nonzero(r >= p * (1.0 - _CORNER_MARGIN))[0]
        if len(hits) > 1:
            raise NonSmoothBoundaryPoint(f"edge/corner of the box at {x}")
        return int(hits[0])

    def gauge_grad(self, x):
        j = self._facet(x)
        g = np.zeros(self.dim)
        g[j] = math.copysign(1.0 / self.a[j], x[j])
        return g

    def boundary_curvature(self, x):
        self._facet(x)
        return np.zeros((self.dim, self.dim)), 0.0

    def sample_uniform(self, n, rng):
        return rng.uniform(-self.a, self.a, size=(n, self.dim))

    def volume(self):
        return float(np.prod(2.0 * self.a))

    def radius_bound(self):
        return float(np.linalg.norm(self.a))

    def spec(self):
        return {"kind": "box", "dim": self.dim, "half_widths": self.a.tolist()}


class Simplex(ConvexBody):
    """Corner simplex {x_i >= 0, sum x_i <= scale} in the positive orthant.

    The gauge sum(x)/scale is exact on the closed orthant; the relative
    boundary is the open diagonal facet, where the cone measure is
    Dirichlet(1, ..., 1).
    """

    def __init__(self, dim, scale=1.0):
        self.dim = dim
        self.scale = float(scale)
        self.kind = "simplex"

    def gauge(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < -1e-12):
            raise UndefinedAtOrigin("simplex gauge defined on the orthant cone")
        return float(np.sum(x)) / self.scale

    def gauge_many(self, pts):
        return np.sum(np.atleast_2d(pts), axis=1) / self.scale

    def gauge_grad(self, x):
        return np.full(self.dim, 1.0 / self.scale)

    def gauge_grad_many(self, pts):
        return np.full((len(np.atleast_2d(pts)), self.dim), 1.0 / self.scale)

    def boundary_curvature(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < self.scale * _CORNER_MARGIN):
            raise NonSmoothBoundaryPoint("relative-boundary edge of the facet")
        return np.zeros((self.dim, self.dim)), 0.0

    def sample_uniform(self, n, rng):
        e = rng.standard_exponential(size=(n, self.dim + 1))
        return self.scale * e[:, : self.dim] / e.sum(axis=1, keepdims=True)

    def sample_facet(self, n, rng):
        """Direct Dirichlet(1,...,1) draws on the diagonal facet."""
        e = rng.standard_exponential(size=(n, self.dim))
        return self.scale * e / e.sum(axis=1, keepdims=True)

    def volume(self):
        return self.scale**self.dim / math.factorial(self.dim)

    def facet_area(self):
        return (
            math.sqrt(self.dim)
            * self.scale ** (self.dim - 1)
            / math.factorial(self.dim - 1)
        )

    def radius_bound(self):
        return self.scale

    def spec(self):
        return {"kind": "simplex", "dim": self.dim, "scale": self.scale}


class LpBall(ConvexBody):
    def __init__(self, dim, p, radius=1.0):
        if p <= 1.0:
            raise ValueError("l_p body requires p > 1")
        self.dim = dim
        self.p = float(p)
        self.radius = float(radius)
        self.kind = "lp"

    def gauge(self, x):
        x = np.asarray(x, dtype=float)
        return float(np.sum(np.abs(x) ** self.p) ** (1.0 / self.p)) / self.radius

    def gauge_many(self, pts):
        pts = np.atleast_2d(pts)
        return np.sum(np.abs(pts) ** self.p, axis=1) ** (1.0 / self.p) / self.radius

    def gauge_grad(self, x):
        x = np.asarray(x, dtype=float)
        s = np.sum(np.abs(x) ** self.p)
        if s <= 0.0:
            raise UndefinedAtOrigin("l_p gauge gradient at the origin")
        return (
            s ** (1.0 / self.p - 1.0)
            * np.sign(x)
            * np.abs(x) ** (self.p - 1.0)
            / self.radius
        )

    def gauge_grad_many(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        s = np.sum(np.abs(pts) ** self.p, axis=1)
        if np.any(s <= 0.0):
            raise UndefinedAtOrigin("l_p gauge gradient at the origin")
        return (
            (s ** (1.0 / self.p - 1.0))[:, None]
            * np.sign(pts)
            * np.abs(pts) ** (self.p - 1.0)
            / self.radius
        )

    def _gauge_hess(self, x):
        x = np.asarray(x, dtype=float)
        p = self.p
        s = np.sum(np.abs(x) ** p)
        u = np.sign(x) * np.abs(x) ** (p - 1.0)
        diag = np.diag((p - 1.0) * np.abs(x) ** (p - 2.0))
        return (
            s ** (1.0 / p - 2.0) * ((1.0 - p) * np.outer(u, u) + s * diag)
            / self.radius
        )

    def boundary_curvature(self, x):
        x = np.asarray(x, dtype=float)
        if self.p < 2.0 and np.any(np.abs(x) < _CORNER_MARGIN * self.radius):
            raise NonSmoothBoundaryPoint(
                "l_p curvature blows up on coordinate hyperplanes for p < 2"
            )
        g = self.gauge_grad(x)
        gn = np.linalg.norm(g)
        n = g / gn
        proj = np.eye(self.dim) - np.outer(n, n)
        ii = proj @ self._gauge_hess(x) @ proj / gn
        return ii, float(np.trace(ii))

    def sample_uniform(self, n, rng, budget_factor=None):
        if budget_factor is None:
            # acceptance probability = vol(B_p)/vol(box)
            acc = self.volume() / (2.0 * self.radius) ** self.dim
            budget_factor = max(int(4.0 / acc), 4)
        out = np.empty((n, self.dim))
        have = 0
        tries = 0
        while have < n:
            if tries > budget_factor * n + 1000:
                raise RejectionBudgetExceeded(
                    f"l_p rejection sampler exceeded {tries} proposals for {n} draws"
                )
            m = min(4 * (n - have) + 64, 1 << 20)
            cand = rng.uniform(-self.radius, self.radius, size=(m, self.dim))
            tries += m
            keep = cand[self.gauge_many(cand) <= 1.0]
            k = min(len(keep), n - have)
            out[have : have + k] = keep[:k]
            have += k
        return out

    def volume(self):
        d, p = self.dim, self.p
        return (
            (2.0 * self.radius) ** d
            * math.gamma(1.0 + 1.0 / p) ** d
            / math.gamma(1.0 + d / p)
        )

    def radius_bound(self):
        return self.radius

    def spec(self):
        return {"kind": "lp", "dim": self.dim, "p": self.p, "radius": self.radius}


class Curve2D(ConvexBody):
    """Smooth planar star body from a radial function rho(angle) with two
    derivatives; convexity of the realized boundary is the caller's claim.
    `params` are the keys that rebuild it through `body_from_spec`."""

    def __init__(self, rho, drho, ddrho, kind="curve2d", params=None):
        self.dim = 2
        self.rho = rho
        self.drho = drho
        self.ddrho = ddrho
        self.kind = kind
        self.params = params or {}

    @classmethod
    def ellipse(cls, a, b):
        def rho(t):
            return a * b / math.sqrt((b * math.cos(t)) ** 2 + (a * math.sin(t)) ** 2)

        def drho(t, h=1e-6):
            return (rho(t + h) - rho(t - h)) / (2 * h)

        def ddrho(t, h=1e-5):
            return (rho(t + h) - 2 * rho(t) + rho(t - h)) / h**2

        return cls(rho, drho, ddrho, kind="ellipse", params={"a": a, "b": b})

    def _angle(self, x):
        return math.atan2(x[1], x[0])

    def gauge(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x)
        if r == 0.0:
            raise UndefinedAtOrigin("curve gauge at the origin")
        return float(r / self.rho(self._angle(x)))

    def gauge_grad(self, x):
        # direction = outer normal; magnitude fixed by Euler homogeneity
        # <x, grad p(x)> = p(x)
        x = np.asarray(x, dtype=float)
        n = self.normal(x)
        xn = float(x @ n)
        if xn <= 0.0:
            raise NonPositiveAngle(f"<x, n> = {xn:.3e} along the ray of {x}")
        return n * (self.gauge(x) / xn)

    def normal(self, x):
        t = self._angle(np.asarray(x, dtype=float))
        r, dr = self.rho(t), self.drho(t)
        gamma_p = np.array(
            [dr * math.cos(t) - r * math.sin(t), dr * math.sin(t) + r * math.cos(t)]
        )
        n = np.array([gamma_p[1], -gamma_p[0]])
        n /= np.linalg.norm(n)
        pt = np.array([r * math.cos(t), r * math.sin(t)])
        return n if float(n @ pt) > 0 else -n

    def boundary_curvature(self, x):
        t = self._angle(np.asarray(x, dtype=float))
        r, dr, ddr = self.rho(t), self.drho(t), self.ddrho(t)
        kappa = (r * r + 2.0 * dr * dr - r * ddr) / (r * r + dr * dr) ** 1.5
        n = self.normal(x)
        proj = np.eye(2) - np.outer(n, n)
        return kappa * proj, float(kappa)

    def sample_uniform(self, n, rng, budget_factor=64):
        rmax = max(self.rho(t) for t in np.linspace(0, 2 * math.pi, 720))
        out = np.empty((n, 2))
        have, tries = 0, 0
        while have < n:
            if tries > budget_factor * n + 1000:
                raise RejectionBudgetExceeded("curve2d rejection budget exceeded")
            m = 4 * (n - have) + 64
            cand = rng.uniform(-rmax, rmax, size=(m, 2))
            tries += m
            keep = cand[[self.gauge(c) <= 1.0 for c in cand]]
            k = min(len(keep), n - have)
            out[have : have + k] = keep[:k]
            have += k
        return out

    def volume(self):
        val, _ = integrate.quad(lambda t: 0.5 * self.rho(t) ** 2, 0, 2 * math.pi)
        return val

    def radius_bound(self):
        return max(self.rho(t) for t in np.linspace(0, 2 * math.pi, 720))

    def spec(self):
        return {"kind": self.kind, "dim": self.dim, **self.params}


SCHEMA = Schema({"kind": Key("string")}, select="kind", variants={
    "ball": Schema({"radius": positive(1.0), "orthant": Key("boolean", False)}),
    "box": Schema({"half_widths": positive(shape="d")}),
    "simplex": Schema({"scale": positive(1.0)}),
    "lp": Schema({"p": number(gt=1.0), "radius": positive(1.0)}),
    "ellipse": Schema({"a": positive(2.0), "b": positive(1.0)}, min_dim=2, max_dim=2),
})

CONSTRUCTORS = {
    "ball": lambda s: Ball(s["dim"], s["radius"], s["orthant"]),
    "box": lambda s: Box(s["half_widths"]),
    "simplex": lambda s: Simplex(s["dim"], s["scale"]),
    "lp": lambda s: LpBall(s["dim"], s["p"], s["radius"]),
    "ellipse": lambda s: Curve2D.ellipse(s["a"], s["b"]),
}


def body_from_spec(spec):
    """Build a body from a JSON-style {kind, dim, ...} spec, with the
    defaults of its kind filled in; a body whose volume overflows or
    underflows is not normalizable."""
    kind = spec["kind"]
    if kind not in CONSTRUCTORS:
        raise ValueError(f"unknown body kind {kind!r}")
    body = CONSTRUCTORS[kind](fill(SCHEMA, spec))
    try:
        volume = body.volume()
    except OverflowError:
        volume = math.inf
    if not 0.0 < volume < math.inf:
        raise NonNormalizable(f"{kind} body of dimension {body.dim}: volume {volume}")
    return body
