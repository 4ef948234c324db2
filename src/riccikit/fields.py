"""Scalar, metric and quadratic-form fields over convex domains.

Conventions:
  * a potential's `gradient` and `hessian` follow the shape of their
    argument: (d,) and (d, d) at a point of shape (d,), (n, d) and (n, d, d)
    at an (n, d) batch.  Analytic callbacks receive the argument as passed,
    so a callback written for one point still serves single points, and the
    finite-difference fallbacks loop over the rows of a batch.  `value`,
    `third_tensor` and `fourth_1d` take one point;
  * metrics take an (m, d) array of points in `values` and `derivatives` and
    call `fn`/`deriv` once per row with a (d,) point; `value` is a batch of
    one.  Only the product metrics take a `domain` predicate;
  * quadratic-form fields take an (n, d) array of points and return their
    weights in one of four compact forms: an (n,) array for s(x) * Id,
    (n, d) for diag(w(x)), (n, d, d) for a full matrix, or a
    ScalarPlusRankOne, S(x) + c u(x) u(x)^T with S in one of the first
    three forms; one point is a batch of one.  `inverse` and `least_eig`
    work in these forms and expand to dense matrices only where no form
    holds the result (see QuadraticFormField);
  * metric derivative arrays have shape (d, d, d) with axis 0 the
    differentiation direction: deriv(x)[k] = d g / d x_k;
  * third-derivative tensors of potentials are fully symmetric (d, d, d)
    arrays T[i, j, k] = d^3 f / dx_i dx_j dx_k;
  * batches are column-major: `MeasureSpec.sample` and a ball's boundary
    points are F-contiguous (n, d).  Per-point reductions are contractions
    (`row_dots`, `project`), per-point scales are `(m.T * s).T`, repeated
    values are read-only `broadcast_to` views: no short-axis broadcasts;
  * a sum over the n points is a pairwise numpy reduction (`sum`, `mean`),
    never a BLAS dot of two n-vectors: OpenBLAS splits such a dot across
    its threads, and its last bit then follows the thread count;
  * sines and cosines at the n points come from one tangent of the half
    angle (`cos_sin`): np.tan is vectorized, np.cos and np.sin on float64
    are not, and cost about ten times as much.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import numdiff
from .errors import EigensolveFailure, MissingThirdDerivatives, StepTooLarge


def as_point(x, dim=None):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if dim is not None and x.size != dim:
        raise ValueError(f"expected a point of dimension {dim}, got shape {x.shape}")
    return x


@dataclass
class PotentialField:
    """A smooth scalar field with optional analytic derivative callbacks.

    Missing callbacks fall back to central differences of the next lower
    order, using the shared step discipline.  `third` returns the symmetric
    (d,d,d) tensor; `fourth` is only consumed through 1-D code paths and may
    return a scalar there.
    """

    fn: Callable[[np.ndarray], float]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess: Optional[Callable[[np.ndarray], np.ndarray]] = None
    third: Optional[Callable[[np.ndarray], np.ndarray]] = None
    fourth: Optional[Callable[[np.ndarray], np.ndarray]] = None
    convex: bool = False

    def value(self, x):
        return float(self.fn(as_point(x)))

    def gradient(self, x):
        """(d,) gradient at a (d,) point, (n, d) gradients at an (n, d) batch."""
        x = as_point(x)
        if self.grad is not None:
            return np.asarray(self.grad(x), dtype=float).reshape(x.shape)
        return _per_row(
            lambda p: numdiff.central_grad(self.fn, p, numdiff.step_first(p)), x
        )

    def hessian(self, x):
        """(d, d) Hessian at a (d,) point, (n, d, d) at an (n, d) batch."""
        x = as_point(x)
        if self.hess is not None:
            h = np.asarray(self.hess(x), dtype=float)
        elif self.grad is not None:
            h = _per_row(
                lambda p: numdiff.central_jacobian(self.grad, p, numdiff.step_first(p)),
                x,
            )
        else:
            h = _per_row(
                lambda p: numdiff.central_hess(self.fn, p, numdiff.step_second(p)), x
            )
        return numdiff.symmetrize(h)

    def third_tensor(self, x, require_analytic=False):
        x = as_point(x)
        if self.third is not None:
            return np.asarray(self.third(x), dtype=float)
        if require_analytic:
            raise MissingThirdDerivatives(
                "analytic third derivatives required at this point"
            )
        jac = numdiff.central_jacobian(self.hessian, x, numdiff.THIRD_ORDER_STEP)
        # jac[k] = d(Hess)/dx_k; re-order to T[i, j, k] and symmetrize i<->j.
        t = np.moveaxis(jac, 0, 2)
        return 0.5 * (t + np.swapaxes(t, 0, 1))

    def fourth_1d(self, x):
        """V'''' at a scalar point; falls back to differencing `third`."""
        x = as_point(x)
        if self.fourth is not None:
            return float(np.asarray(self.fourth(x)).reshape(()))
        third = lambda p: self.third_tensor(p)[0, 0, 0]
        return float(numdiff.central_grad(third, x, numdiff.THIRD_ORDER_STEP)[0])


def _per_row(f, x):
    """f at a (d,) point, or f stacked over the rows of an (n, d) batch."""
    return f(x) if x.ndim == 1 else np.array([f(p) for p in x])


def row_dots(a, b):
    """<a_k, b_k> for each row k of two (n, d) arrays, as one contraction."""
    return np.einsum("ni,ni->n", a, b)


def project(p, v):
    """<p_k, v> for each row k of an (n, d) batch: at d = 1 the column times
    the scalar, bit for bit `p @ v` without the matrix-vector call."""
    return p[:, 0] * v[0] if p.shape[1] == 1 else p @ v


def cos_sin(theta):
    """cos and sin of an array of angles from h = tan(theta / 2), as
    q - 1 and q h with q = 2 / (1 + h^2): within 4.5e-16 of np.cos and
    np.sin, exact at 0, finite wherever theta is."""
    h = np.tan(0.5 * theta)
    q = 2.0 / (1.0 + h * h)
    return q - 1.0, q * h


def coord_columns(fns, x):
    """Array of the shape of x, a (d,) point or an (n, d) batch, whose
    column i is fns[i] called once on column i of x; a scalar a callback
    returns is broadcast."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)  # column-major for a column-major batch
    for i, f in enumerate(fns):
        out[..., i] = f(x[..., i])
    return out


def diag_matrices(w):
    """(..., d, d) diagonal matrices from (..., d) diagonals."""
    d = w.shape[-1]
    out = np.zeros(w.shape + (d,))
    idx = np.arange(d)
    out[..., idx, idx] = w
    return out


def quadratic_potential(a, center=None):
    """V(x) = 0.5 <A (x-c), (x-c)> with all derivatives analytic."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    d = a.shape[0]
    c = np.zeros(d) if center is None else as_point(center, d)

    return PotentialField(
        fn=lambda x: 0.5 * float((x - c) @ a @ (x - c)),
        grad=lambda x: (x - c) @ a.T,
        hess=lambda x: np.zeros(x.shape[:-1] + (d, d)) + a,
        third=lambda x: np.zeros(x.shape[:-1] + (d,) * 3),
        fourth=lambda x: np.zeros(x.shape[:-1] + (d,) * 4),
        convex=numdiff.min_eigenvalue(a) >= 0,
    )


def gaussian_potential(d, sigma=1.0):
    return quadratic_potential(np.eye(d) / sigma**2)


def linear_potential(coeffs):
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    d = c.size
    return PotentialField(
        fn=lambda x: float(c @ x),
        grad=lambda x: np.zeros(x.shape) + c,
        hess=lambda x: np.zeros(x.shape[:-1] + (d, d)),
        third=lambda x: np.zeros(x.shape[:-1] + (d,) * 3),
        fourth=lambda x: np.zeros(x.shape[:-1] + (d,) * 4),
        convex=True,
    )


def separable_potential(f, d1, d2, d3=None, d4=None, dim=1):
    """V(x) = sum_i f(x_i) from array-safe 1-D profile derivatives."""
    idx = np.arange(dim)

    def third(x):
        t = np.zeros(x.shape[:-1] + (dim,) * 3)
        t[..., idx, idx, idx] = coord_columns([d3] * dim, x)
        return t

    def fourth(x):
        t = np.zeros(x.shape[:-1] + (dim,) * 4)
        t[..., idx, idx, idx, idx] = coord_columns([d4] * dim, x)
        return t

    return PotentialField(
        fn=lambda x: float(sum(f(xi) for xi in x)),
        grad=lambda x: coord_columns([d1] * dim, x),
        hess=lambda x: diag_matrices(coord_columns([d2] * dim, x)),
        third=None if d3 is None else third,
        fourth=None if d4 is None else fourth,
    )


def power_potential(c, q, dim=1):
    """V(x) = c * sum x_i^q on the open positive orthant."""
    return separable_potential(
        lambda t: c * t**q,
        lambda t: c * q * t ** (q - 1),
        lambda t: c * q * (q - 1) * t ** (q - 2),
        lambda t: c * q * (q - 1) * (q - 2) * t ** (q - 3),
        lambda t: c * q * (q - 1) * (q - 2) * (q - 3) * t ** (q - 4),
        dim=dim,
    )


@dataclass
class MetricField:
    """Coordinate matrix field g(x) of a Riemannian metric.

    `fn` maps a (d,) point to g(x); `deriv`, when given, supplies the analytic
    first derivatives; `domain` is an optional membership predicate that
    detects a stencil point leaving the domain.
    """

    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    deriv: Optional[Callable[[np.ndarray], np.ndarray]] = None
    domain: Optional[Callable[[np.ndarray], bool]] = None
    name: str = "metric"

    def values(self, points):
        """(m, d, d) metric matrices at an (m, d) array of points: `fn` once per
        row, then one batched symmetrize and PSD check; a row outside `domain`
        raises StepTooLarge naming it."""
        points = np.asarray(points, dtype=float).reshape(-1, self.dim)
        out = [p for p in points if self.domain and not self.domain(p)]
        if out:
            raise StepTooLarge(f"{self.name}: point {out[0]} outside the metric domain")
        g = np.array([self.fn(p) for p in points], dtype=float)
        return numdiff.check_psd_metric(g, points)

    def value(self, x):
        return self.values(as_point(x, self.dim))[0]

    def derivatives(self, points, h=None):
        """(m, d, d, d) arrays d g / d x_k at an (m, d) array of points: `deriv`
        once per row, else one `values` batch over the central-difference
        stencils of all rows (step h, default 1e-4*(1+|x|) per row)."""
        points = np.asarray(points, dtype=float).reshape(-1, self.dim)
        if self.deriv is not None:
            return np.array([self.deriv(p) for p in points], dtype=float)
        steps = [numdiff.step_first(p) for p in points] if h is None else h
        h = np.broadcast_to(np.asarray(steps, dtype=float), len(points))
        g = self.values(numdiff.stencil(points, h))
        return numdiff.first_differences(g.reshape(h.shape + (-1,) + g.shape[1:]), h)


def euclidean_metric(d):
    eye = np.eye(d)
    zero = np.zeros((d, d, d))
    return MetricField(dim=d, fn=lambda x: eye, deriv=lambda x: zero, name="euclidean")


def conformal_metric(phi: PotentialField, d):
    """g = exp(2*phi) * g_0 with analytic first derivatives from phi.grad."""

    def fn(x):
        return np.exp(2.0 * phi.value(x)) * np.eye(d)

    def deriv(x):
        gp = phi.gradient(x)
        scale = 2.0 * np.exp(2.0 * phi.value(x))
        return scale * gp[:, None, None] * np.eye(d)[None, :, :]

    return MetricField(dim=d, fn=fn, deriv=deriv, name="conformal")


def product_metric(profiles, domain=None):
    """g = diag(w_i(x_i)) from 1-D weight profiles (value, derivative) pairs."""
    d = len(profiles)

    def fn(x):
        return np.diag([p[0](x[i]) for i, p in enumerate(profiles)])

    def deriv(x):
        out = np.zeros((d, d, d))
        for i, p in enumerate(profiles):
            out[i, i, i] = p[1](x[i])
        return out

    return MetricField(dim=d, fn=fn, deriv=deriv, domain=domain, name="product")


def power_product_metric(p, d, domain=None):
    """g_ii = x_i^(-2p) on the open positive orthant."""
    prof = (lambda t: t ** (-2.0 * p), lambda t: -2.0 * p * t ** (-2.0 * p - 1.0))
    return product_metric([prof] * d, domain=domain)


def hessian_metric(phi: PotentialField, d):
    """g = D^2 Phi with derivatives from the third-derivative tensor."""

    def deriv(x):
        t = phi.third_tensor(x)
        return np.moveaxis(t, 2, 0)

    # values() symmetrizes the batch, so an analytic `hess` is called bare
    return MetricField(dim=d, fn=phi.hess or phi.hessian, deriv=deriv, name="hessian")


@dataclass(frozen=True)
class ScalarPlusRankOne:
    """Weights S(x) + c u(x) u(x)^T at n points: S = s Id for s of shape
    (n,), S = diag(s) for s of shape (n, d), S = s for s of shape (n, d, d);
    a scalar c and u of shape (n, d)."""

    s: np.ndarray
    c: float
    u: np.ndarray


@dataclass
class QuadraticFormField:
    """Map from points to symmetric matrices (curvature tensors, RHS weights).

    `batch` maps an (n, d) array of points to the weights at all of them in
    their natural form, and the form encodes the structure:
      (n,)               s(x) * Id;
      (n, d)             diag(w(x));
      (n, d, d)          a full matrix (symmetrized on evaluation);
      ScalarPlusRankOne  S(x) + c u(x) u(x)^T, S in one of the forms above.
    `inverse` keeps the scalar and diagonal forms and a rank-one update
    with c > 0 over a positive scalar or diagonal (a scalar at d = 1), and
    inverts the rest densely; `least_eig` reads scalars and diagonals directly and
    takes every other form through its dense matrices.
    """

    dim: int
    batch: Callable[[np.ndarray], np.ndarray]
    name: str = "form"

    def compact(self, points):
        """Weights at an (n, d) array of points in the form `batch` gives."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = self.batch(points)
        n, d = len(points), self.dim
        if isinstance(out, ScalarPlusRankOne):
            out = ScalarPlusRankOne(
                np.asarray(out.s, dtype=float), out.c, np.asarray(out.u, dtype=float)
            )
            shape = (out.s.shape, np.shape(out.c), out.u.shape)
            allowed = [(base, (), (n, d)) for base in ((n,), (n, d), (n, d, d))]
        else:
            out = np.asarray(out, dtype=float)
            shape, allowed = out.shape, [(n,), (n, d), (n, d, d)]
        if shape not in allowed:
            raise ValueError(
                f"{self.name}: weights of shape {shape} at {n} points "
                f"of dimension {d}"
            )
        if isinstance(out, np.ndarray) and out.ndim == 3:
            out = 0.5 * (out + np.swapaxes(out, 1, 2))
        return out

    def values(self, points):
        """(n, d, d) weight matrices at an (n, d) array of points."""
        return as_matrices(self.compact(points), self.dim)


def as_matrices(w, d):
    """(n, d, d) matrices from weights in one of the compact forms of
    QuadraticFormField: (n,) scalars, (n, d) diagonals, (n, d, d) or a
    ScalarPlusRankOne over any of them."""
    if isinstance(w, ScalarPlusRankOne):
        return as_matrices(w.s, d) + w.c * np.einsum("ni,nj->nij", w.u, w.u)
    if w.ndim == 3:
        return w
    return diag_matrices(w if w.ndim == 2 else np.repeat(w[:, None], d, axis=1))


def quad_form(w, vectors):
    """<W(x) v, v> row-wise for compact weights `w` (the forms of
    QuadraticFormField.compact) and an (n, d) array of vectors."""
    if isinstance(w, ScalarPlusRankOne):
        uv = row_dots(w.u, vectors)
        return quad_form(w.s, vectors) + w.c * (uv * uv)
    if w.ndim == 1:
        return w * row_dots(vectors, vectors)
    if w.ndim == 2:
        return np.einsum("ni,ni,ni->n", w, vectors, vectors)
    return row_dots(np.einsum("nij,nj->ni", w, vectors), vectors)


def inverse(w, d):
    """Inverses of compact weights `w`: reciprocals of scalars and diagonals;
    for S + c u u^T the scalar 1/(S + c u^2) at d = 1 and, where c > 0 and S
    is a positive scalar or diagonal, Sherman-Morrison's S^-1 - (S^-1 u)
    (S^-1 u)^T / (1/c + <u, S^-1 u>); everything else densely."""
    if not isinstance(w, ScalarPlusRankOne):
        return 1.0 / w if w.ndim < 3 else np.linalg.inv(w)
    if d == 1:
        return 1.0 / (w.s.reshape(-1) + w.c * (w.u[:, 0] * w.u[:, 0]))
    if w.c > 0.0 and w.s.ndim < 3 and (w.s > 0.0).all():
        su = w.u / (w.s if w.s.ndim == 2 else w.s[:, None])
        q = 1.0 / w.c + np.vecdot(w.u, su)
        return ScalarPlusRankOne(1.0 / w.s, -1.0, su / np.sqrt(q)[:, None])
    return np.linalg.inv(as_matrices(w, d))


def least_eig(w, d):
    """Least eigenvalue of each of the n compact weights `w`: the scalars,
    the row minima of diagonals, else that of the dense matrix.  Non-finite
    entries raise EigensolveFailure."""
    parts = (w.s, w.c, w.u) if isinstance(w, ScalarPlusRankOne) else (w,)
    if not all(np.isfinite(a).all() for a in parts):
        raise EigensolveFailure("least eigenvalue of a matrix with non-finite entries")
    if isinstance(w, np.ndarray) and w.ndim < 3:
        return w if w.ndim == 1 else w.min(axis=1)
    return np.linalg.eigvalsh(as_matrices(w, d))[:, 0]
