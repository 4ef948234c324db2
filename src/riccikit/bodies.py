"""Convex bodies: gauge functionals, boundary normals and curvature, uniform
and cone-measure sampling, and the diagonality ratios of the boundary normal.

The catalog is closed: balls, axis-aligned boxes, the corner simplex
{x >= 0, sum x_i <= 1}, l_p balls and smooth 2-D star bodies given by a
radial function.  The cone measure is realized exactly as the push-forward
of the uniform measure under x -> x / gauge(x).

Every body method evaluates a batch: it takes an (n, d) array of points (a
single point is a batch of one) and returns one row per point.  `gauge` is
(n,), `gauge_grad` and `normal` are (n, d), and `boundary_curvature` is the
pair (II_0, H_0) of shapes (n, d, d) and (n,), read at the radial projection
of each point to the boundary.  A point where a quantity is undefined raises
for the whole batch, naming its first bad row.

`SCHEMA`, beside `CONSTRUCTORS`, gives each body kind's keys with their
types, ranges and defaults; `body_from_spec` fills the defaults.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonNormalizable,
    NonPositiveAngle,
    NonSmoothBoundaryPoint,
    RejectionBudgetExceeded,
    UndefinedAtOrigin,
)
from .fields import row_dots
from .schema import Key, Schema, fill, number, positive

_CORNER_MARGIN = 1e-8


def _rows(pts):
    return np.atleast_2d(np.asarray(pts, dtype=float))


def _reject(bad, pts, error, what):
    """Raise `error` naming the first row of `pts` flagged in `bad`."""
    if bad.any():
        i = int(np.argmax(bad))
        raise error(f"{what}: row {i}, {pts[i]}")


def _projector(n):
    """Id - n n^T for each row of n."""
    return np.eye(n.shape[1]) - n[:, :, None] * n[:, None, :]


class ConvexBody:
    """Base class; subclasses fill in gauge/normal/curvature/sampling."""

    dim: int
    kind: str

    def gauge(self, pts):
        raise NotImplementedError

    def gauge_grad(self, pts):
        raise NotImplementedError

    def normal(self, pts):
        """Outer unit normals at the radial projections of the points to the
        boundary."""
        pts = _rows(pts)
        g = self.gauge_grad(pts)
        norm = np.sqrt(row_dots(g, g))
        _reject(norm <= 0.0, pts, UndefinedAtOrigin, "gauge gradient vanishes")
        return (g.T / norm).T

    def boundary_curvature(self, pts):
        raise NotImplementedError

    def sample_uniform(self, n, rng):
        raise NotImplementedError

    def _rejection_sample(self, n, rng, half_width, budget_factor):
        """n uniform draws by rejection from the cube [-half_width,
        half_width]^d, in rounds of 4 (n - have) + 64 proposals (at most
        2^20); RejectionBudgetExceeded once more than budget_factor n + 1000
        proposals have been made."""
        out = np.empty((n, self.dim))
        have = tries = 0
        while have < n:
            if tries > budget_factor * n + 1000:
                raise RejectionBudgetExceeded(
                    f"{self.kind} rejection sampler exceeded {tries} proposals for {n} draws"
                )
            m = min(4 * (n - have) + 64, 1 << 20)
            cand = rng.uniform(-half_width, half_width, size=(m, self.dim))
            tries += m
            keep = cand[self.gauge(cand) <= 1.0]
            k = min(len(keep), n - have)
            out[have : have + k] = keep[:k]
            have += k
        return out

    def volume(self):
        raise NotImplementedError

    def radius_bound(self):
        """Circumradius about the origin."""
        raise NotImplementedError

    def spec(self):
        return {"kind": self.kind, "dim": self.dim}


def polar_map_norm(body: ConvexBody, pts):
    """Operator norm of the differential of T(x) = x / gauge(x) at each row:
    |x| / (p(x) <x, n(T(x))>)."""
    x = _rows(pts)
    p = body.gauge(x)
    _reject(p <= 0.0, x, UndefinedAtOrigin, "polar map undefined where the gauge vanishes")
    xn = np.vecdot(x, body.normal(x))
    _reject(xn <= 0.0, x, NonPositiveAngle, "<x, n> <= 0")
    return np.sqrt(np.vecdot(x, x)) / (p * xn)


def diagonality_bounds(body: ConvexBody, samples):
    """Empirical (inf, sup) over boundary samples of <n, e_i>/<n, x>."""
    x = _rows(samples)
    n = body.normal(x)
    xn = np.vecdot(x, n)
    _reject(xn <= 0.0, x, NonPositiveAngle, "<x, n> <= 0")
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
        return (pts.T / self.body.gauge(pts)).T


# ---------------------------------------------------------------------------


class Ball(ConvexBody):
    def __init__(self, dim, radius=1.0, orthant=False):
        self.dim = dim
        self.radius = float(radius)
        self.orthant = orthant
        self.kind = "ball"

    def gauge(self, pts):
        pts = _rows(pts)
        return np.sqrt(row_dots(pts, pts)) / self.radius

    def gauge_grad(self, pts):
        pts = _rows(pts)
        r = np.sqrt(row_dots(pts, pts))
        _reject(r == 0.0, pts, UndefinedAtOrigin, "ball gauge gradient at the origin")
        return (pts.T / (r * self.radius)).T

    def boundary_curvature(self, pts):
        n = self.normal(pts)
        return _projector(n) / self.radius, np.full(len(n), (self.dim - 1) / self.radius)

    def _directions(self, m, rng):
        """m uniform unit vectors as the columns of a (d, m) array; the
        stream is that of an (m, d) row-major normal draw."""
        z = np.ascontiguousarray(rng.standard_normal((m, self.dim)).T)
        return z / np.sqrt(np.einsum("in,in->n", z, z))

    def sample_uniform(self, n, rng):
        z = self._directions(n, rng)
        z *= self.radius * rng.uniform(size=n) ** (1.0 / self.dim)
        return (np.abs(z) if self.orthant else z).T

    def sample_boundary(self, n, rng):
        """Uniform points on the sphere in antithetic pairs: the first
        ceil(n/2) are drawn and the rest are their negatives."""
        z = self._directions((n + 1) // 2, rng)
        pts = self.radius * np.concatenate([z, -z], axis=1)[:, :n]
        return (np.abs(pts) if self.orthant else pts).T

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

    def gauge(self, pts):
        return np.max(np.abs(_rows(pts)) / self.a, axis=1)

    def gauge_grad(self, pts):
        """+-e_j/a_j on the facet x_j = +-a_j; edges and corners, where two
        facets tie, are rejected."""
        pts = _rows(pts)
        r = np.abs(pts) / self.a
        rows = np.arange(len(pts))
        j = np.argmax(r, axis=1)
        p = r[rows, j]
        _reject(p <= 0.0, pts, UndefinedAtOrigin, "box gauge at the origin")
        ties = np.count_nonzero(r >= (p * (1.0 - _CORNER_MARGIN))[:, None], axis=1)
        _reject(ties > 1, pts, NonSmoothBoundaryPoint, "edge/corner of the box")
        g = np.zeros_like(pts)
        g[rows, j] = np.copysign(1.0 / self.a[j], pts[rows, j])
        return g

    def boundary_curvature(self, pts):
        n = len(self.gauge_grad(pts))  # rejects the origin, edges and corners
        return np.zeros((n, self.dim, self.dim)), np.zeros(n)

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

    The gauge sum(x)/scale is exact on the closed orthant and rejected off
    it; the relative boundary is the open diagonal facet, where the cone
    measure is Dirichlet(1, ..., 1).
    """

    def __init__(self, dim, scale=1.0):
        self.dim = dim
        self.scale = float(scale)
        self.kind = "simplex"

    def gauge(self, pts):
        pts = _rows(pts)
        _reject(np.any(pts < -1e-12, axis=1), pts, UndefinedAtOrigin,
                "simplex gauge defined on the orthant cone")
        return np.sum(pts, axis=1) / self.scale

    def gauge_grad(self, pts):
        return np.full((len(_rows(pts)), self.dim), 1.0 / self.scale)

    def boundary_curvature(self, pts):
        pts = _rows(pts)
        _reject(np.any(pts < self.scale * _CORNER_MARGIN, axis=1), pts,
                NonSmoothBoundaryPoint, "relative-boundary edge of the facet")
        return np.zeros((len(pts), self.dim, self.dim)), np.zeros(len(pts))

    def sample_uniform(self, n, rng):
        # columns of a (d + 1, n) block, drawn as the rows of an (n, d + 1) one
        e = np.ascontiguousarray(rng.standard_exponential(size=(n, self.dim + 1)).T)
        return (self.scale * e[: self.dim] / e.sum(axis=0)).T

    def sample_facet(self, n, rng):
        """Direct Dirichlet(1,...,1) draws on the diagonal facet."""
        e = rng.standard_exponential(size=(n, self.dim))
        return self.scale * e / e.sum(axis=1, keepdims=True)

    def volume(self):
        return self.scale**self.dim / math.factorial(self.dim)

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

    def gauge(self, pts):
        return np.sum(np.abs(_rows(pts)) ** self.p, axis=1) ** (1.0 / self.p) / self.radius

    def gauge_grad(self, pts):
        pts = _rows(pts)
        s = np.sum(np.abs(pts) ** self.p, axis=1)
        _reject(s <= 0.0, pts, UndefinedAtOrigin, "l_p gauge gradient at the origin")
        return (
            (s ** (1.0 / self.p - 1.0))[:, None]
            * np.sign(pts)
            * np.abs(pts) ** (self.p - 1.0)
            / self.radius
        )

    def _gauge_hess(self, pts):
        p = self.p
        a = np.abs(pts)
        s = np.sum(a**p, axis=1)
        u = np.sign(pts) * a ** (p - 1.0)
        h = (1.0 - p) * u[:, :, None] * u[:, None, :]
        diag = np.arange(self.dim)
        h[:, diag, diag] += s[:, None] * ((p - 1.0) * a ** (p - 2.0))
        return (s ** (1.0 / p - 2.0))[:, None, None] * h / self.radius

    def boundary_curvature(self, pts):
        pts = _rows(pts)
        if self.p < 2.0:
            _reject(np.any(np.abs(pts) < _CORNER_MARGIN * self.radius, axis=1), pts,
                    NonSmoothBoundaryPoint,
                    "l_p curvature blows up on coordinate hyperplanes for p < 2")
        g = self.gauge_grad(pts)
        gn = np.sqrt(np.vecdot(g, g))
        proj = _projector(g / gn[:, None])
        ii = proj @ self._gauge_hess(pts) @ proj / gn[:, None, None]
        return ii, np.trace(ii, axis1=1, axis2=2)

    def sample_uniform(self, n, rng, budget_factor=None):
        if budget_factor is None:
            # acceptance probability = vol(B_p)/vol(box)
            acc = self.volume() / (2.0 * self.radius) ** self.dim
            budget_factor = max(int(4.0 / acc), 4)
        return self._rejection_sample(n, rng, self.radius, budget_factor)

    def volume(self):
        d, p = self.dim, self.p
        return (
            (2.0 * self.radius) ** d
            * math.gamma(1.0 + 1.0 / p) ** d
            / math.gamma(1.0 + d / p)
        )

    def radius_bound(self):
        """Circumradius: R for p <= 2, attained on the axes; R d^(1/2 - 1/p)
        for p > 2, attained on the diagonals."""
        return self.radius * self.dim ** max(0.0, 0.5 - 1.0 / self.p)

    def spec(self):
        return {"kind": "lp", "dim": self.dim, "p": self.p, "radius": self.radius}


class Curve2D(ConvexBody):
    """Smooth planar star body from a radial function rho(angle) with two
    derivatives, each a numpy function of an array of angles, and its area;
    convexity of the realized boundary is the caller's claim.  `params` are
    the keys that rebuild it through `body_from_spec`."""

    def __init__(self, rho, drho, ddrho, area, kind="curve2d", params=None):
        self.dim = 2
        self.rho = rho
        self.drho = drho
        self.ddrho = ddrho
        self.area = area
        self.kind = kind
        self.params = params or {}

    @classmethod
    def ellipse(cls, a, b):
        """Semi-axes a, b: rho = ab s^(-1/2) with s = b^2 cos^2 t + a^2 sin^2 t,
        and its derivatives in closed form."""
        k = a * a - b * b  # s' = k sin 2t, s'' = 2k cos 2t

        def s(t):
            return (b * np.cos(t)) ** 2 + (a * np.sin(t)) ** 2

        def rho(t):
            return a * b / np.sqrt(s(t))

        def drho(t):
            return -a * b * k * np.sin(2.0 * t) / (2.0 * s(t) ** 1.5)

        def ddrho(t):
            st = s(t)
            ds, dds = k * np.sin(2.0 * t), 2.0 * k * np.cos(2.0 * t)
            return a * b * (0.75 * ds * ds / st**2.5 - 0.5 * dds / st**1.5)

        return cls(rho, drho, ddrho, math.pi * a * b, kind="ellipse", params={"a": a, "b": b})

    def gauge(self, pts):
        pts = _rows(pts)
        r = np.linalg.norm(pts, axis=1)
        _reject(r == 0.0, pts, UndefinedAtOrigin, "curve gauge at the origin")
        return r / self.rho(np.arctan2(pts[:, 1], pts[:, 0]))

    def gauge_grad(self, pts):
        # direction = outer normal; magnitude fixed by Euler homogeneity
        # <x, grad p(x)> = p(x)
        pts = _rows(pts)
        n = self.normal(pts)
        xn = np.vecdot(pts, n)
        _reject(xn <= 0.0, pts, NonPositiveAngle, "<x, n> <= 0 along the ray")
        return n * (self.gauge(pts) / xn)[:, None]

    def normal(self, pts):
        # the tangent of t -> rho(t) (cos t, sin t) turned clockwise; its
        # pairing with the boundary point is rho^2 > 0, so it points outward
        pts = _rows(pts)
        _reject(~pts.any(axis=1), pts, UndefinedAtOrigin, "curve normal at the origin")
        t = np.arctan2(pts[:, 1], pts[:, 0])
        r, dr = self.rho(t), self.drho(t)
        c, s = np.cos(t), np.sin(t)
        n = np.column_stack([dr * s + r * c, r * s - dr * c])
        return n / np.linalg.norm(n, axis=1)[:, None]

    def boundary_curvature(self, pts):
        pts = _rows(pts)
        _reject(~pts.any(axis=1), pts, UndefinedAtOrigin, "curve curvature at the origin")
        t = np.arctan2(pts[:, 1], pts[:, 0])
        r, dr, ddr = self.rho(t), self.drho(t), self.ddrho(t)
        kappa = (r * r + 2.0 * dr * dr - r * ddr) / (r * r + dr * dr) ** 1.5
        return kappa[:, None, None] * _projector(self.normal(pts)), kappa

    def sample_uniform(self, n, rng, budget_factor=64):
        return self._rejection_sample(n, rng, self.radius_bound(), budget_factor)

    def volume(self):
        return self.area

    def radius_bound(self):
        return float(np.max(self.rho(np.linspace(0, 2 * math.pi, 720))))

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
