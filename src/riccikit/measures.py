"""Measure specifications: normalized potentials, samplers, and moments.

Product measures are built from per-coordinate `Density1D` objects; sampling
goes through the coordinate quantile functions, so a sample set is a
deterministic function of (spec, n, seed).  Uniform measures on bodies defer
to the body's own sampler, and cone measures project its draws to the
boundary.

`SCHEMA`, beside `CONSTRUCTORS`, gives each measure kind's keys with their
types, ranges and defaults; `from_spec` fills the defaults.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from . import bodies
from .bodies import ConvexBody
from .errors import NonNormalizable
from .fields import PotentialField, coord_columns, diag_matrices
from .schema import Key, Schema, fill, number, positive
from .transport import (
    Density1D,
    FlattenedPowerPotential,
    cos_density,
    exponential_density,
    gaussian_density,
    power_density,
    uniform_density,
)

N_SHARDS = 8  # logical sampling shards; the layout fixes the random streams


@dataclass
class MeasureSpec:
    """A sampleable probability measure with derivative access to its
    potential; a measure with no density on the space, such as the cone
    measure, has none (`potential` is None).

    `potential.gradient` and `potential.hessian` take a (d,) point or an
    (n, d) batch and return results of the matching shape.  A product measure
    also carries one callback per coordinate in `coord_d1`/`coord_d2`: each
    takes an array of abscissae and returns V_i' or V_i'' at every entry, or
    a scalar when the derivative is constant (`coord_columns` broadcasts it).
    """

    kind: str
    dim: int
    potential: Optional[PotentialField]
    sampler: Callable
    coord_densities: Optional[List[Density1D]] = None
    coord_d1: Optional[List[Callable]] = None
    coord_d2: Optional[List[Callable]] = None
    unconditional: bool = False
    orthant: bool = False
    params: dict = field(default_factory=dict)

    def sample(self, n, seed):
        """n i.i.d. points as a column-major (n, d) array: shard i draws its
        share from the i-th stream spawned from the root seed, and the shards
        fill the columns of a (d, n) block in order."""
        seqs = np.random.SeedSequence(seed).spawn(N_SHARDS)
        counts = [n // N_SHARDS] * N_SHARDS
        counts[-1] += n - sum(counts)
        out, start = np.empty((self.dim, n)), 0
        for c, s in zip(counts, seqs):
            out[:, start:start + c] = self.sampler(c, np.random.default_rng(s)).T
            start += c
        return out.T

    def hessian_form(self, pts):
        """D^2 V at an (n, d) batch in the compact form its structure allows:
        the (n, d) diagonals V_i''(x_i) of a product measure, else the
        (n, d, d) Hessians."""
        if self.coord_d2 is not None and self.coord_d2[0] is not None:
            return coord_columns(self.coord_d2, pts)
        return self.potential.hessian(pts)

    def coordinate_moment(self, k):
        """Per-coordinate k-th moments (exact quadrature for products), one
        quadrature per distinct coordinate density."""
        if self.coord_densities is None:
            raise NonNormalizable(f"{self.kind}: no coordinate densities")
        out = np.empty(self.dim)
        for dens, cols in distinct_densities(self.coord_densities):
            out[cols] = dens.moment(k)
        return out


def distinct_densities(densities):
    """(density, its coordinates) for each distinct density, in order of
    first appearance."""
    groups = {}
    for i, dens in enumerate(densities):
        groups.setdefault(id(dens), (dens, []))[1].append(i)
    return list(groups.values())


def _product_spec(kind, densities, d1=None, d2=None, **flags):
    """Assemble a product MeasureSpec from per-coordinate densities and
    optional coordinate derivative callbacks d1, d2 (lists or shared)."""
    dim = len(densities)
    d1s = d1 if isinstance(d1, list) else [d1] * dim
    d2s = d2 if isinstance(d2, list) else [d2] * dim

    def fn(x):
        return sum(dens.potential(x[..., i]) for i, dens in enumerate(densities))

    grad = None if d1s[0] is None else (lambda x: coord_columns(d1s, x))
    hess = None if d2s[0] is None else (
        lambda x: diag_matrices(coord_columns(d2s, x))
    )

    groups = distinct_densities(densities)

    def sampler(n, rng):
        # one (d, n) block draws the stream exactly as d column draws in
        # coordinate order would; each distinct density inverts its rows at once
        u = rng.uniform(size=(dim, n))
        out = np.empty((n, dim))
        for dens, cols in groups:
            out[:, cols] = dens.ppf_many(u[cols]).T
        return out

    return MeasureSpec(
        kind=kind,
        dim=dim,
        potential=PotentialField(fn=fn, grad=grad, hess=hess),
        sampler=sampler,
        coord_densities=list(densities),
        coord_d1=d1s,
        coord_d2=d2s,
        **flags,
    )


# -- stock measures ------------------------------------------------------------


def gaussian(d, sigma=1.0):
    dens = gaussian_density(sigma)
    return _product_spec(
        "gaussian",
        [dens] * d,
        d1=lambda t: t / sigma**2,
        d2=lambda t: 1.0 / sigma**2,
        unconditional=True,
        params={"sigma": sigma},
    )


def exp_product(d, rate=1.0):
    """exp(-rate * sum x_i) on the positive orthant."""
    dens = exponential_density(rate)
    return _product_spec(
        "exp_product",
        [dens] * d,
        d1=lambda t: rate,
        d2=lambda t: 0.0,
        orthant=True,
        params={"rate": rate},
    )


def power_product(d, q, c=1.0):
    """mu_q^(x) d = exp(-c sum x_i^q) on the positive orthant, q >= 1."""
    dens = power_density(q, c)
    return _product_spec(
        "power_product",
        [dens] * d,
        d1=lambda t: c * q * t ** (q - 1.0),
        # np.where evaluates both branches, so keep the t <= 0 one finite
        d2=lambda t: np.where(
            t > 0, c * q * (q - 1.0) * np.where(t > 0, t, 1.0) ** (q - 2.0), 0.0
        ),
        orthant=True,
        params={"q": q, "c": c},
    )


def exp_quad_orthant(d, lam=1.0, beta=0.5):
    """exp(-(lam sum x_i + beta |x|^2 / 2)) on the positive orthant."""
    dens = Density1D(
        lambda t: lam * t + 0.5 * beta * t * t, (0.0, np.inf), name="expquad"
    )
    return _product_spec(
        "exp_quad_orthant",
        [dens] * d,
        d1=lambda t: lam + beta * t,
        d2=lambda t: beta,
        orthant=True,
        params={"lam": lam, "beta": beta},
    )


def trunc_gaussian_orthant(d, r_max=1.0):
    """Standard Gaussian conditioned on the box [0, R]^d."""
    dens = Density1D(lambda t: 0.5 * t * t, (0.0, r_max), name="halfgauss")
    return _product_spec(
        "trunc_gaussian_orthant",
        [dens] * d,
        d1=lambda t: t,
        d2=lambda t: 1.0,
        orthant=True,
        params={"R": r_max},
    )


def uniform_box_orthant(d, r_max=1.0):
    dens = Density1D(lambda t: 0.0, (0.0, r_max), name="uniform")
    return _product_spec(
        "uniform_box_orthant",
        [dens] * d,
        d1=lambda t: 0.0,
        d2=lambda t: 0.0,
        orthant=True,
        params={"R": r_max},
    )


def laplace_product(d):
    """Symmetric exponential exp(-sum |x_i|)/2^d on the whole space.

    The potential has a kink at the coordinate hyperplanes; its coordinate
    derivatives are the a.e. ones, sign(t) and 0, so the point mass of V''
    at the kink is not seen.
    """
    dens = Density1D(lambda t: abs(t), (-np.inf, np.inf), name="laplace")
    return _product_spec("laplace_product", [dens] * d, d1=np.sign,
                         d2=lambda t: 0.0, unconditional=True)


def uniform_interval(a=-0.5, b=0.5):
    """Uniform measure on an interval as a 1-D product spec."""
    dens = uniform_density(a, b)
    return _product_spec(
        "uniform_interval", [dens],
        d1=lambda t: 0.0, d2=lambda t: 0.0,
        unconditional=(a == -b),
        params={"a": a, "b": b},
    )


def cos_interval(half_width=0.5):
    """Density proportional to cos(pi x / (2 hw)) on [-hw, hw]."""
    w = math.pi / (2.0 * half_width)
    return _product_spec(
        "cos_interval", [cos_density(half_width)],
        d1=lambda t: w * np.tan(np.clip(w * t, -1.5707, 1.5707)),
        d2=lambda t: w * w / np.cos(np.clip(w * t, -1.5707, 1.5707)) ** 2,
        unconditional=True,
        params={"half_width": half_width},
    )


def trunc_gaussian_sym(d, half_width=1.5):
    dens = Density1D(lambda t: 0.5 * t * t, (-half_width, half_width), name="tgauss")
    return _product_spec(
        "trunc_gaussian_sym",
        [dens] * d,
        d1=lambda t: t,
        d2=lambda t: 1.0,
        unconditional=True,
        params={"half_width": half_width},
    )


def gamma_power_product(d, q, c=1.0):
    """Push-forward of exp(-c sum x_i^q) under t_i = x_i^q: the Gamma(1/q, c)
    product, density proportional to t^(1/q - 1) exp(-c t) per coordinate.

    Sampling goes through the smooth x-side density; the t-side potential is
    singular at the origin, so no coordinate densities are exposed.
    """
    base = power_product(d, q, c)

    def sampler(n, rng):
        return base.sampler(n, rng) ** q

    a = 1.0 / q
    return MeasureSpec(
        kind="gamma_power_product",
        dim=d,
        potential=PotentialField(
            fn=lambda t: float(c * np.sum(t) + (1.0 - a) * np.sum(np.log(t)))
        ),
        sampler=sampler,
        orthant=True,
        params={"q": q, "c": c},
    )


def uniform_body(body: ConvexBody):
    logv = math.log(body.volume())
    d = body.dim
    return MeasureSpec(
        kind="uniform_body",
        dim=d,
        potential=PotentialField(
            fn=lambda x: logv,
            grad=lambda x: np.zeros_like(x),
            hess=lambda x: np.zeros(x.shape + (d,)),
        ),
        sampler=lambda n, rng: body.sample_uniform(n, rng),
        params=body.spec(),
    )


def cone_measure(body: ConvexBody):
    """The cone measure of a body: each shard pushes its uniform draws to the
    boundary along rays through `bodies.ConeMeasureSampler`."""
    sampler = lambda n, rng: bodies.ConeMeasureSampler(body, rng).sample(n)
    return MeasureSpec(kind="cone_measure", dim=body.dim, potential=None,
                       sampler=sampler, params=body.spec())


def density_1d(dens: Density1D, d1=None, d2=None):
    return _product_spec("custom_1d", [dens], d1=d1, d2=d2)


def flat_power_1d(q):
    """The flattened |x|^q-type potential (quadratic near 0) on the
    positive half-line."""
    fp = FlattenedPowerPotential(q)
    return _product_spec(
        "flat_power_1d",
        [fp.density()],
        d1=fp.d1,
        d2=fp.d2,
        orthant=True,
        params={"q": q},
    )


SCHEMA = Schema({"kind": Key("string")}, select="kind", variants={
    "gaussian": Schema({"sigma": positive(1.0)}),
    "exp_product": Schema({"rate": positive(1.0)}),
    "power_product": Schema({"q": positive(), "c": positive(1.0)}),
    "exp_quad_orthant": Schema({"lam": number(1.0), "beta": number(0.5, ge=0.0)}),
    "trunc_gaussian_orthant": Schema({"R": positive(1.0)}),
    "uniform_box_orthant": Schema({"R": positive(1.0)}),
    "laplace_product": Schema(),
    "trunc_gaussian_sym": Schema({"half_width": positive(1.5)}),
    # the constructors of these three ignore d: they exist in one dimension only
    "uniform_interval": Schema({"a": number(-0.5), "b": number(0.5)}, max_dim=1),
    "cos_interval": Schema({"half_width": positive(0.5)}, max_dim=1),
    "flat_power_1d": Schema({"q": number(gt=2.0)}, max_dim=1),
    "uniform_body": Schema({"body": Key("object", schema=bodies.SCHEMA)}),
})

CONSTRUCTORS = {
    "gaussian": lambda d, p: gaussian(d, p["sigma"]),
    "exp_product": lambda d, p: exp_product(d, p["rate"]),
    "power_product": lambda d, p: power_product(d, p["q"], p["c"]),
    "exp_quad_orthant": lambda d, p: exp_quad_orthant(d, p["lam"], p["beta"]),
    "trunc_gaussian_orthant": lambda d, p: trunc_gaussian_orthant(d, p["R"]),
    "uniform_box_orthant": lambda d, p: uniform_box_orthant(d, p["R"]),
    "laplace_product": lambda d, p: laplace_product(d),
    "trunc_gaussian_sym": lambda d, p: trunc_gaussian_sym(d, p["half_width"]),
    "uniform_interval": lambda d, p: uniform_interval(p["a"], p["b"]),
    "cos_interval": lambda d, p: cos_interval(p["half_width"]),
    "flat_power_1d": lambda d, p: flat_power_1d(p["q"]),
    "uniform_body": lambda d, p: uniform_body(
        bodies.body_from_spec({**p["body"], "dim": d})
    ),
}


def from_spec(doc, dim):
    """Build a MeasureSpec from a JSON-style {kind, params...} document, with
    the defaults of its kind filled in."""
    kind = doc["kind"]
    if kind not in CONSTRUCTORS:
        raise NonNormalizable(f"unknown measure kind {kind!r}")
    return CONSTRUCTORS[kind](dim, fill(SCHEMA, doc))
