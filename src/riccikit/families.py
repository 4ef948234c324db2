"""Closed-form generalized Ricci tensors for Hessian, product and conformal
metrics, plus the exact one-dimensional expression.

Hessian-metric data couples a strongly convex potential Phi with the source
potential V and the target potential W of the induced transport problem; the
three are linked by the Monge-Ampere change of variables, and constructors
are provided that derive the missing member of the triple from that identity.
"""

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from . import numdiff
from .errors import (
    DegenerateHessian,
    NonUnitNormal,
    ProfileNotPositive,
    UnknownInequalityId,
)
from .fields import PotentialField, as_point, coord_columns, product_metric
from .schema import Key, Schema, number
from .tensor_core import check_dimension_param

# Above this condition number of D^2 Phi, stencil third derivatives are too
# noisy and analytic callbacks are required.
MAX_STENCIL_CONDITION = 1e6


# ----------------------------------------------------------------------------
# Hessian metrics
# ----------------------------------------------------------------------------


@dataclass
class HessianMetricData:
    """Transport triple (Phi, V, W) behind the metric g = D^2 Phi.

    The target potential enters only through its derivatives composed with
    the transport map, so it is stored as the composed callbacks
    ``w_grad_comp(x) = grad W(grad Phi(x))`` and
    ``w_hess_comp(x) = D^2 W(grad Phi(x))``.
    """

    phi: PotentialField
    v: PotentialField
    w_grad_comp: Callable[[np.ndarray], np.ndarray]
    w_hess_comp: Callable[[np.ndarray], np.ndarray]

    # -- constructors --------------------------------------------------------

    @classmethod
    def direct(cls, phi, v, w: PotentialField):
        return cls(
            phi=phi,
            v=v,
            w_grad_comp=lambda x: w.gradient(phi.gradient(x)),
            w_hess_comp=lambda x: w.hessian(phi.gradient(x)),
        )

    @classmethod
    def from_transport_pair(cls, phi, w: PotentialField, dim):
        """Derive V from (Phi, W): V = W(grad Phi) - log det D^2 Phi."""

        def value(x):
            sign, logdet = np.linalg.slogdet(phi.hessian(x))
            return w.value(phi.gradient(x)) - logdet

        def grad(x):
            g = phi.hessian(x)
            t = phi.third_tensor(x)
            gl = np.einsum("ab,abk->k", np.linalg.inv(g), t)
            return g @ w.gradient(phi.gradient(x)) - gl

        def hess(x):
            g = phi.hessian(x)
            y = phi.gradient(x)
            t = phi.third_tensor(x)
            dw = w.hessian(y)
            tw = np.einsum("ijk,k->ij", t, w.gradient(y))
            return g @ dw @ g + tw - _logdet_hessian(phi, x)

        v = PotentialField(fn=value, grad=grad, hess=hess)
        return cls(
            phi=phi,
            v=v,
            w_grad_comp=lambda x: w.gradient(phi.gradient(x)),
            w_hess_comp=lambda x: w.hessian(phi.gradient(x)),
        )

    @classmethod
    def from_pushforward(cls, phi, v: PotentialField):
        """Derive the W-compositions from (Phi, V) by differentiating the
        Monge-Ampere identity W(grad Phi) = V + log det D^2 Phi."""

        def w_grad_comp(x):
            g = phi.hessian(x)
            t = phi.third_tensor(x)
            gl = np.einsum("ab,abk->k", np.linalg.inv(g), t)
            return np.linalg.solve(g, v.gradient(x) + gl)

        def w_hess_comp(x):
            g = phi.hessian(x)
            ginv = np.linalg.inv(g)
            t = phi.third_tensor(x)
            tw = np.einsum("ijk,k->ij", t, w_grad_comp(x))
            inner = v.hessian(x) + _logdet_hessian(phi, x) - tw
            return ginv @ inner @ ginv

        return cls(phi=phi, v=v, w_grad_comp=w_grad_comp, w_hess_comp=w_hess_comp)

    @classmethod
    def self_transport(cls, v: PotentialField):
        """The Kahler-Einstein-type choice Phi = V."""
        return cls.from_pushforward(v, v)


def _logdet_hessian(phi: PotentialField, x):
    """Euclidean Hessian of log det D^2 Phi."""
    x = as_point(x)
    if phi.fourth is not None:
        g = phi.hessian(x)
        ginv = np.linalg.inv(g)
        t = phi.third_tensor(x)
        h = np.einsum("ab,bci,ce,eaj->ij", ginv, t, ginv, t)
        f4 = np.einsum("ab,abij->ij", ginv, np.asarray(phi.fourth(x), dtype=float))
        return numdiff.symmetrize(f4 - h)

    def logdet(y):
        sign, val = np.linalg.slogdet(phi.hessian(y))
        return val

    return numdiff.symmetrize(
        numdiff.central_hess(logdet, x, numdiff.THIRD_ORDER_STEP)
    )


def _hessian_metric_at(data: HessianMetricData, x):
    g = numdiff.check_psd_metric(data.phi.hessian(x), x)
    cond = np.linalg.cond(g)
    t = data.phi.third_tensor(x, require_analytic=cond > MAX_STENCIL_CONDITION)
    return g, t


def hessian_trace_form(g, third):
    """H_ij = Tr[(D^2 Phi)^-1 D^2 Phi_{x_i} (D^2 Phi)^-1 D^2 Phi_{x_j}]."""
    m = np.linalg.inv(g) @ np.moveaxis(third, 2, 0)
    return np.einsum("iac,jca->ij", m, m)


def hessian_ricci(data: HessianMetricData, x, return_h=False):
    """Generalized Ricci 1/4 H + 1/2 (D^2 V + D^2 Phi D^2 W(grad Phi) D^2 Phi)."""
    x = as_point(x)
    g, t = _hessian_metric_at(data, x)
    h = hessian_trace_form(g, t)
    core = data.v.hessian(x) + g @ np.asarray(data.w_hess_comp(x), dtype=float) @ g
    ric = 0.25 * h + 0.5 * core
    ric = numdiff.symmetrize(ric)
    if return_h:
        return ric, numdiff.symmetrize(h)
    return ric


def log_monge_ampere_gradient(data: HessianMetricData, x):
    """grad V - D^2 Phi grad W(grad Phi) = -grad log det D^2 Phi."""
    x = as_point(x)
    g = numdiff.check_psd_metric(data.phi.hessian(x), x)
    return data.v.gradient(x) - g @ np.asarray(data.w_grad_comp(x), dtype=float)


def hessian_H_lower_bound(data: HessianMetricData, x):
    """(1/d) u tensor u with u = grad V - D^2 Phi grad W(grad Phi); always <= H."""
    x = as_point(x)
    u = log_monge_ampere_gradient(data, x)
    return np.outer(u, u) / x.size


def refined_Q(data: HessianMetricData, x):
    """Transport weight Q = 1/2 D^2 V + 1/2 D^2 Phi D^2 W(grad Phi) D^2 Phi
    + (1/4d) u tensor u; satisfies Ric >= Q."""
    x = as_point(x)
    g = numdiff.check_psd_metric(data.phi.hessian(x), x)
    u = data.v.gradient(x) - g @ np.asarray(data.w_grad_comp(x), dtype=float)
    core = data.v.hessian(x) + g @ np.asarray(data.w_hess_comp(x), dtype=float) @ g
    return numdiff.symmetrize(0.5 * core + np.outer(u, u) / (4.0 * x.size))


# ----------------------------------------------------------------------------
# Product metrics
# ----------------------------------------------------------------------------


@dataclass
class ProductMetricData:
    """Coordinate profiles u_i = 1/sqrt(Phi_i'') as (u, u', u'') callables;
    each takes an array of abscissae (or returns a scalar to broadcast)."""

    profiles: List[Tuple[Callable, Callable, Callable]]

    @property
    def dim(self):
        return len(self.profiles)

    @classmethod
    def power(cls, p, d):
        prof = (
            lambda t: t**p,
            lambda t: p * t ** (p - 1.0),
            lambda t: p * (p - 1.0) * t ** (p - 2.0),
        )
        return cls([prof] * d)

    @classmethod
    def exponential(cls, lams, d=None):
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        if d is not None and lams.size == 1:
            lams = np.full(d, lams[0])
        profs = [
            (
                lambda t, l=l: np.exp(l * t),
                lambda t, l=l: l * np.exp(l * t),
                lambda t, l=l: l * l * np.exp(l * t),
            )
            for l in lams
        ]
        return cls(profs)

    @classmethod
    def euclidean(cls, d):
        prof = (lambda t: 1.0, lambda t: 0.0, lambda t: 0.0)
        return cls([prof] * d)

    @classmethod
    def from_family(cls, family, d):
        """Profiles of a metric family document at dimension d:
        {"type": "product_power", "p": p} gives u_i = x_i^p and
        {"type": "product_exp", "lam": lam} gives u_i = exp(lam x_i)."""
        if family["type"] == "product_power":
            return cls.power(family["p"], d)
        if family["type"] == "product_exp":
            return cls.exponential(family["lam"], d)
        raise UnknownInequalityId(f"product-metric family {family['type']!r}")

    def _profiles_at(self, x):
        """(u, u', u'') at the coordinates of a (d,) point or an (n, d) batch,
        each in the shape of x; raises unless every u is positive (a NaN
        fails too)."""
        if x.shape[-1] != self.dim:
            raise ValueError(f"expected points of dimension {self.dim}, got {x.shape}")
        with np.errstate(invalid="ignore", divide="ignore"):
            u, du, ddu = (
                coord_columns([p[k] for p in self.profiles], x) for k in range(3)
            )
        if not (u > 0.0).all():
            at = tuple(np.argwhere(~(u > 0.0))[0])
            raise ProfileNotPositive(
                f"product-metric profile u_{at[-1]} = {float(u[at])} is not "
                f"positive at x_{at[-1]} = {float(x[at])}"
            )
        return u, du, ddu

    def metric_weights(self, x):
        """Diagonal metric entries g_ii = u_i^{-2}, in the shape of x."""
        return self._profiles_at(as_point(x))[0] ** -2.0

    def metric_field(self):
        """g = diag(u_i^{-2}) with analytic first derivatives -2 u_i'/u_i^3."""
        return product_metric([
            (lambda t, u=u: u(t) ** -2.0,
             lambda t, u=u, du=du: -2.0 * du(t) / u(t) ** 3)
            for u, du, _ in self.profiles
        ])

    def geodesically_convex_orthant(self, grid):
        """Lemma-style check that the metric weights decrease (u_i' >= 0),
        which makes orthant-unconditional subsets geodesically convex."""
        worst = math.inf
        for t in np.atleast_1d(grid):
            for p in self.profiles:
                worst = min(worst, p[1](t))
        return worst >= 0.0, worst


# the metric family documents `ProductMetricData.from_family` reads
FAMILY = Schema({"type": Key("string")}, select="type", variants={
    "product_power": Schema({"p": number()}),
    "product_exp": Schema({"lam": number()}),
})


def product_ricci_diagonal(data: ProductMetricData, grad, x):
    """The metric's diagonal term V_{x_i} u_i'/u_i - u_i''/u_i of the
    product-metric generalized Ricci tensor, in the shape of x, from the
    gradient `grad` of V at the (d,) point or (n, d) batch x."""
    u, du, ddu = data._profiles_at(x)
    return grad * du / u - ddu / u


def product_ricci(data: ProductMetricData, v: PotentialField, x):
    """D^2 V + diag{ V_{x_i} u_i'/u_i - u_i''/u_i } at a (d,) point, (d, d),
    or at each row of an (n, d) batch, (n, d, d)."""
    x = as_point(x)
    ric = v.hessian(x)
    idx = np.arange(data.dim)
    ric[..., idx, idx] += product_ricci_diagonal(data, v.gradient(x), x)
    return ric


def rho_p_bounded(p, r_max):
    """Log-Sobolev constant p(1-p)/R^(2-2p) for bounded orthant supports."""
    return p * (1.0 - p) / r_max ** (2.0 - 2.0 * p)


def rho_p_slope(p, lam):
    """Log-Sobolev constant for V_{x_i} >= lam > 0 and p in [1/2, 1).

    The 0^0 factor at p = 1/2 is taken as 1 (continuous limit), giving lam/2.
    """
    if not 0.5 <= p < 1.0:
        raise ValueError("rho_p_slope requires p in [1/2, 1)")
    if p == 0.5:
        return 0.5 * lam
    return (lam * p / (2.0 - 2.0 * p)) ** (2.0 - 2.0 * p) * (
        p * (1.0 - p) / (2.0 * p - 1.0)
    ) ** (2.0 * p - 1.0)


# ----------------------------------------------------------------------------
# One-dimensional exact expression and the entropic form
# ----------------------------------------------------------------------------


def ric_1d_exact(v: PotentialField, x):
    """V'' + V''''/(2V'') - (3/4)(V'''/V'')^2 - V'V'''/(2V'') at a scalar x."""
    x = as_point(x, 1)
    d2 = v.hessian(x)[0, 0]
    if d2 <= 0.0:
        raise DegenerateHessian(f"V'' = {d2} at x = {x[0]}")
    d1 = v.gradient(x)[0]
    d3 = v.third_tensor(x)[0, 0, 0]
    d4 = v.fourth_1d(x)
    return d2 + 0.5 * d4 / d2 - 0.75 * (d3 / d2) ** 2 - 0.5 * d1 * d3 / d2


def _newton_invert_gradient(v: PotentialField, y, x0):
    """Solve grad V(x) = y for strongly convex V, starting from x0: at most
    60 Newton steps, stopping at residual 1e-13 (1 + |y|)."""
    x = np.array(x0, dtype=float)
    for _ in range(60):
        r = v.gradient(x) - y
        if np.linalg.norm(r) < 1e-13 * (1.0 + np.linalg.norm(y)):
            return x
        h = v.hessian(x)
        try:
            x = x - np.linalg.solve(h, r)
        except np.linalg.LinAlgError as exc:
            raise DegenerateHessian(str(exc)) from exc
    return x


def _dual_potential_value(v: PotentialField, y, x0):
    """F(y) = <y, grad V*(y)> - log det D^2 V*(y), via Newton inversion."""
    z = _newton_invert_gradient(v, y, x0)
    sign, logdet = np.linalg.slogdet(v.hessian(z))
    return float(y @ z) + logdet


def entropic_hessian_ricci(v: PotentialField, x):
    """Generalized Ricci of (Omega, g = D^2 V, exp(-V) dx) expressed through
    the Legendre dual: 1/4 H + 1/2 D^2 V D^2 F(grad V) D^2 V.

    D^2 F is evaluated by Richardson-extrapolated central differences in the
    dual variable, each evaluation backed by a Newton inversion of grad V.
    """
    x = as_point(x)
    g = v.hessian(x)
    if numdiff.min_eigenvalue(g) <= 0.0:
        raise DegenerateHessian(f"D^2 V degenerate at {x}")
    y = v.gradient(x)
    f = lambda yy: _dual_potential_value(v, yy, x)
    h0 = 2e-3 * (1.0 + float(np.linalg.norm(y)))
    coarse = numdiff.central_hess(f, y, h0)
    fine = numdiff.central_hess(f, y, 0.5 * h0)
    d2f = (4.0 * fine - coarse) / 3.0
    t = v.third_tensor(x)
    h = hessian_trace_form(g, t)
    return numdiff.symmetrize(0.25 * h + 0.5 * g @ d2f @ g)


# ----------------------------------------------------------------------------
# Conformal metrics
# ----------------------------------------------------------------------------


@dataclass
class ConformalMetricData:
    """Conformal factor exponent phi for g = exp(2 phi) g_0 over Euclidean g_0."""

    phi: PotentialField

    @classmethod
    def radial(cls, theta, eps, d=None):
        """The radial family phi = -(theta/2) log(|x|^2 + eps); the dimension
        comes from the point, so `d` is not read."""
        if eps < 0.0:
            raise ValueError("eps must be non-negative")

        def fn(x):
            return -0.5 * theta * math.log(float(x @ x) + eps)

        def grad(x):
            return -theta * x / (float(x @ x) + eps)

        def hess(x):
            s = x @ x + eps  # a numpy scalar: far out, s**2 is inf, not an OverflowError
            d_ = x.size
            return -theta * (np.eye(d_) / s - 2.0 * np.outer(x, x) / s**2)

        return cls(phi=PotentialField(fn=fn, grad=grad, hess=hess))


def _n_coefficients(n_param, d):
    """(1/(d-N), N/(d-N), dN/(d-N)) with the N = infinity limits."""
    if math.isinf(n_param):
        return 0.0, -1.0, -float(d)
    den = d - n_param
    return 1.0 / den, n_param / den, d * n_param / den


def conformal_ricci_N(data: ConformalMetricData, v: PotentialField, n_param, x):
    """Closed-form N-dimensional generalized Ricci for g = exp(2 phi) g_0,
    flat base, and mu = exp(-V) dx."""
    x = as_point(x)
    d = x.size
    check_dimension_param(n_param, d, exclude_d=True)
    a1, a2, a3 = _n_coefficients(n_param, d)

    gv = v.gradient(x)
    gp = data.phi.gradient(x)
    hp = data.phi.hessian(x)
    eye = np.eye(d)
    lap_phi = float(np.trace(hp))
    ric = (
        v.hessian(x)
        + float(gv @ gp) * eye
        + a1 * np.outer(gv, gv)
        + a2 * (np.outer(gv, gp) + np.outer(gp, gv))
        + (a3 - 2.0) * np.outer(gp, gp)
        + 2.0 * hp
        + (2.0 * float(gp @ gp) - lap_phi) * eye
    )
    return numdiff.symmetrize(ric)


@dataclass
class RadialEigenvalues:
    """Radial/tangential eigenvalues of the radial-conformal generalized
    Ricci tensor, both at finite eps and in the eps -> 0 limit."""

    radial: float
    tangential: float
    radial_eps: float
    tangential_eps: float


def radial_conformal_eigenvalues(theta, eps, n_param, d, r) -> RadialEigenvalues:
    """Eigenvalues of Ric_{g, lambda_Omega, N} for phi = -(theta/2) log(|x|^2+eps)
    at radius r; tangential multiplicity d-1."""
    if r <= 0.0:
        raise ValueError("radius must be positive")
    _, _, a3 = _n_coefficients(n_param, d)
    r2 = r * r
    tang = theta * (d + 2.0 * theta - 4.0) / r2
    rad = (d * theta + a3 * theta**2) / r2

    s = r2 + eps
    tang_eps = (theta * (d - 2.0) + 2.0 * theta * (theta - 1.0) * r2 / s) / s
    rad_eps = (theta**2 * (a3 - 2.0) + 4.0 * theta) * r2 / s**2 + tang_eps
    return RadialEigenvalues(
        radial=rad, tangential=tang, radial_eps=rad_eps, tangential_eps=tang_eps
    )


def radial_theta_optimal(n_param, d):
    """theta maximizing the radial curvature for N < 0: theta = -(d-N)/(2N)."""
    if n_param >= 0.0:
        raise ValueError("the optimal-theta formula requires N < 0")
    return -(d - n_param) / (2.0 * n_param)


def radial_admissibility(theta, n_param, d):
    """Non-negativity margins (d + 2 theta - 4, 1 + theta N/(d-N)) and the
    margin by which the tangential eigenvalue dominates the radial one."""
    if math.isinf(n_param):
        ratio = -theta
    else:
        ratio = theta * n_param / (d - n_param)
    rad = radial_conformal_eigenvalues(theta, 0.0, n_param, d, 1.0)
    return {
        "tangential_nonneg": d + 2.0 * theta - 4.0,
        "radial_nonneg": 1.0 + ratio,
        "tangential_dominates": rad.tangential - rad.radial,
    }


def conformal_boundary(
    data: ConformalMetricData, v: PotentialField, x, n0, ii0, h0
):
    """Boundary quantities of a hypersurface after the conformal change.

    Returns (II_g, H_{g,mu}, measure_factor) where measure_factor converts
    the Euclidean weighted boundary measure into the g-one.
    """
    x = as_point(x)
    n0 = as_point(n0, x.size)
    if abs(float(n0 @ n0) - 1.0) > 1e-8:
        raise NonUnitNormal(f"|n0| = {np.linalg.norm(n0):.12f}")
    ii0 = np.asarray(ii0, dtype=float)
    phi_val = data.phi.value(x)
    gp = data.phi.gradient(x)
    proj = np.eye(x.size) - np.outer(n0, n0)
    ii0_t = proj @ numdiff.symmetrize(ii0) @ proj
    ii_g = math.exp(phi_val) * (ii0_t + float(gp @ n0) * proj)
    h_gmu = math.exp(-phi_val) * (float(h0) - float((gp + v.gradient(x)) @ n0))
    return ii_g, h_gmu, math.exp(-phi_val)
