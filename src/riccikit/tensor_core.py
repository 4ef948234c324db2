"""Coordinate differential geometry for arbitrary metric fields.

Everything here works from the metric matrix g(x) alone (plus optional
analytic first derivatives), so it doubles as the universal finite-difference
oracle against which the closed-form family formulas are validated.

A generalized Ricci point is one `numdiff.stencil`: one `MetricField.values`
batch (callbacks still run per row), then one batched inv, slogdet and
Christoffel contraction; the symbols at x serve both Ric_g and Hess_g P.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import numdiff
from .errors import InvalidDimensionParameter, NonFiniteConstant
from .fields import MetricField, PotentialField, as_point


@dataclass
class ChristoffelTensor:
    """Gamma[..., m, i, j] = Gamma^m_{ij}, symmetric in (i, j), at a point or
    at each point of a batch."""

    point: np.ndarray
    gamma: np.ndarray


@dataclass
class CurvaturePoint:
    """Geometric and generalized Ricci tensors evaluated at one point.

    ric_gmu_n is the N-dimensional tensor at the extended-real generalized
    dimension N it was computed for; it equals ric_gmu exactly when N is
    infinite.
    """

    x: np.ndarray
    ric_g: np.ndarray
    ric_gmu: np.ndarray
    ric_gmu_n: np.ndarray


def _gamma(ginv, dg):
    """Christoffel symbols from (m, d, d) g^-1 and dg[:, k] = d g / d x_k."""
    # term[:, k, i, j] = d_j g_ki + d_i g_kj - d_k g_ij
    term = np.einsum("njki->nkij", dg) + np.einsum("nikj->nkij", dg) - dg
    return numdiff.symmetrize(0.5 * np.einsum("nmk,nkij->nmij", ginv, term))


def christoffel(metric: MetricField, x, h=None) -> ChristoffelTensor:
    """Gamma^m_{ij} = 1/2 g^{mk} (d_j g_ki + d_i g_kj - d_k g_ij) at a (d,)
    point or at each row of an (m, d) batch.

    Uses analytic metric derivatives when the field supplies them, central
    differences with h = 1e-4*(1+|x|) otherwise.
    """
    x = np.asarray(x, dtype=float)
    gamma = _gamma(np.linalg.inv(metric.values(x)), metric.derivatives(x, h=h))
    return ChristoffelTensor(point=x, gamma=gamma.reshape(x.shape[:-1] + gamma.shape[1:]))


def riemannian_hessian(metric: MetricField, f: PotentialField, x, h=None):
    """(Hess_g f)_ij = d^2_ij f - Gamma^k_ij d_k f."""
    x = as_point(x, metric.dim)
    gam = christoffel(metric, x, h=h).gamma
    return numdiff.symmetrize(f.hessian(x) - np.einsum("kij,k->ij", gam, f.gradient(x)))


def _ricci(gam, h):
    """Ric_jk = d_i Gamma^i_jk - d_j Gamma^i_ik + Gamma^i_im Gamma^m_jk
    - Gamma^i_jm Gamma^m_ik from the symbols at the first 2d + 1 rows of a
    stencil of step h (x +- h e_a, then x), symmetrized."""
    d = gam.shape[-1]
    dgam = numdiff.first_differences(gam[: 2 * d], h)  # dgam[a] = d Gamma / d x_a
    gam0 = gam[2 * d]
    ric = (
        np.einsum("iijk->jk", dgam)
        - np.einsum("jiik->jk", dgam)
        + np.einsum("iim,mjk->jk", gam0, gam0)
        - np.einsum("ijm,mik->jk", gam0, gam0)
    )
    return numdiff.symmetrize(ric)


def geometric_ricci_fd(metric: MetricField, x, h=None):
    """Ricci tensor from central differences of the Christoffel symbols at
    x +- h e_a; the outer step defaults to 1e-3*(1+|x|)."""
    x = as_point(x, metric.dim)
    if h is None:
        h = numdiff.step_second(x)
    centres = numdiff.stencil(x, h, second=True)[: 2 * metric.dim + 1]
    return _ricci(christoffel(metric, centres).gamma, h)


def lebesgue_to_volume_potential(metric: MetricField, v: PotentialField, x):
    """P(x) with exp(-P) vol_g = exp(-V) dx, i.e. P = V + 1/2 log det g."""
    x = as_point(x, metric.dim)
    return v.value(x) + 0.5 * np.linalg.slogdet(metric.value(x))[1]


def check_metric_underflow(metric: MetricField, x):
    """Raise NonFiniteConstant where the metric's derivative along e_a is 0 at
    x, but the metric differs at x +- h e_a (h the outer step of
    `generalized_ricci`) by less than 2h times the smallest normal float: the
    derivatives underflowed, and the finite-difference tensor reads flat."""
    x = as_point(x, metric.dim)
    h = numdiff.step_second(x)
    g = metric.values(numdiff.stencil(x, h, second=True)[: 2 * metric.dim])
    jump = np.abs(g[0::2] - g[1::2]).max(axis=(1, 2))
    flat = ~metric.derivatives(x)[0].any(axis=(1, 2))
    lost = flat & (jump > 0.0) & (jump < 2.0 * h * np.finfo(float).tiny)
    if lost.any():
        axis = int(np.argmax(lost)) + 1
        raise NonFiniteConstant(f"metric derivatives underflow at {x} along e_{axis}")


def check_dimension_param(n_param, d, exclude_d=False):
    """Reject generalized dimensions in [1, d); optionally reject N == d."""
    if math.isinf(n_param):
        return
    if 1.0 <= n_param < d:
        raise InvalidDimensionParameter(
            f"N = {n_param} lies in the forbidden range [1, {d})"
        )
    if exclude_d and n_param == d:
        raise InvalidDimensionParameter(f"N = d = {d} is excluded for this formula")


def generalized_ricci(
    metric: MetricField, v: PotentialField, x, n_param=math.inf
) -> CurvaturePoint:
    """Ric_g + Hess_g P and its N-dimensional variant.

    V is the potential with respect to Lebesgue measure and is converted
    internally to the volume-measure potential P = V + 1/2 log det g; the
    N-variant subtracts (dP tensor dP)/(N - d).  grad P uses tr(g^{-1} dg)
    when the metric has analytic derivatives.
    """
    x = as_point(x, metric.dim)
    d = metric.dim
    check_dimension_param(n_param, d)

    h = numdiff.step_second(x)
    pts = numdiff.stencil(x, h, second=True)
    centres = pts[: 2 * d + 1]  # x +- h e_a, then x
    if metric.deriv is None:
        # the centres' first-order stencils join the batch; x's also serves grad P
        h1 = np.array([numdiff.step_first(c) for c in centres])
        fd = numdiff.stencil(centres, h1)
        g = metric.values(np.concatenate([pts, fd.reshape(-1, d)]))
        dg = numdiff.first_differences(g[len(pts):].reshape(fd.shape[:2] + (d, d)), h1)
    else:
        g = metric.values(pts)
        dg = metric.derivatives(centres)
    ginv = np.linalg.inv(g[: 2 * d + 1])
    gam = _gamma(ginv, dg)
    ric_g = _ricci(gam, h)

    half_logdet = 0.5 * np.linalg.slogdet(g)[1]
    if metric.deriv is None:
        dlogdet = numdiff.first_differences(half_logdet[-2 * d:], h1[-1])
    else:
        dlogdet = 0.5 * np.einsum("ij,kji->k", ginv[-1], dg[-1])
    grad_p = v.gradient(x) + dlogdet
    hess_logdet = numdiff.second_differences(half_logdet[: len(pts)], h)
    hess_p = numdiff.symmetrize(v.hessian(x) + hess_logdet)
    hess_g_p = numdiff.symmetrize(hess_p - np.einsum("kij,k->ij", gam[-1], grad_p))
    ric_gmu = numdiff.symmetrize(ric_g + hess_g_p)
    ric_n = ric_gmu.copy()
    if not math.isinf(n_param):
        ric_n = numdiff.symmetrize(ric_gmu - np.outer(grad_p, grad_p) / (n_param - d))
    return CurvaturePoint(x=x, ric_g=ric_g, ric_gmu=ric_gmu, ric_gmu_n=ric_n)
