"""Central-difference stencils and small linear-algebra helpers.

Step sizes follow a single discipline: h = FIRST_ORDER_SCALE*(1+|x|) for first
derivatives and h = SECOND_ORDER_SCALE*(1+|x|) for second derivatives, which
balances truncation against roundoff at double precision.  Every difference
quotient combines values taken at the rows of one `stencil`.
"""

import numpy as np

from .errors import NonPositiveDefiniteMetric

FIRST_ORDER_SCALE = 1e-4
SECOND_ORDER_SCALE = 1e-3
THIRD_ORDER_STEP = 5e-3

# Relative slack below which a slightly indefinite matrix is treated as PSD
# roundoff and clamped rather than rejected.
PSD_SLACK = 1e-10


def step_first(x):
    return FIRST_ORDER_SCALE * (1.0 + float(np.linalg.norm(x)))


def step_second(x):
    return SECOND_ORDER_SCALE * (1.0 + float(np.linalg.norm(x)))


def symmetrize(a):
    """Symmetric part of a matrix or of each matrix in a stack."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def stencil(x, h, second=False):
    """Rows x + h e_0, x - h e_0, ..., x - h e_{d-1} around a (d,) point x;
    with `second`, then x and x + h (+-e_i +-e_j) for i < j in the sign order
    (+,+), (+,-), (-,+), (-,-).  (m, rows, d) for m centres and m steps."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    eye = np.eye(d)
    offsets = [np.stack([eye, -eye], axis=1).reshape(2 * d, d)]
    if second:
        i, j = np.triu_indices(d, 1)
        pairs = [eye[i] + eye[j], eye[i] - eye[j], eye[j] - eye[i], -eye[i] - eye[j]]
        offsets += [np.zeros((1, d)), np.stack(pairs, axis=1).reshape(-1, d)]
    h = np.asarray(h, dtype=float)[..., None, None]
    return x[..., None, :] + h * np.concatenate(offsets)


def first_differences(f, h):
    """(f(x + h e_k) - f(x - h e_k)) / 2h from values f at the 2d first stencil
    rows, along axis 0 of f (axis 1 with one step per centre)."""
    h, f = np.asarray(h, dtype=float), np.asarray(f, dtype=float)
    pairs = f.reshape(f.shape[: h.ndim] + (-1, 2) + f.shape[h.ndim + 1 :])
    plus, minus = np.moveaxis(pairs, h.ndim + 1, 0)
    return (plus - minus) / (2.0 * h.reshape(h.shape + (1,) * (plus.ndim - h.ndim)))


def second_differences(f, h):
    """Hessian from scalar values f at the rows of `stencil(x, h, second=True)`."""
    f = np.asarray(f, dtype=float)
    d = int(np.sqrt((f.size - 1) // 2))
    axis, f0, quads = f[: 2 * d], f[2 * d], f[2 * d + 1 :].reshape(-1, 4).T
    out = np.empty((d, d))
    out[np.diag_indices(d)] = (axis[0::2] - 2.0 * f0 + axis[1::2]) / h**2
    i, j = np.triu_indices(d, 1)
    out[i, j] = out[j, i] = (quads[0] - quads[1] - quads[2] + quads[3]) / (4.0 * h**2)
    return out


def central_grad(f, x, h):
    """Gradient of a scalar function by central differences."""
    return first_differences([float(f(p)) for p in stencil(x, h)], h)


def central_hess(f, x, h):
    """Hessian of a scalar function by second-order central differences."""
    return second_differences([float(f(p)) for p in stencil(x, h, second=True)], h)


def central_jacobian(F, x, h):
    """Jacobian of a vector- or matrix-valued function; axis 0 indexes the
    differentiation direction."""
    return first_differences([F(p) for p in stencil(x, h)], h)


def min_eigenvalue(a):
    return float(np.linalg.eigvalsh(symmetrize(a))[0])


def check_psd_metric(g, points):
    """Validate the positive-definiteness of a metric value at a point, or of
    (m, d, d) values at the rows of an (m, d) array, with one eigh.

    Eigenvalues above -PSD_SLACK*(1+|g|_F) are attributed to roundoff and the
    matrix is clamped to its PSD part; anything lower, or a non-finite entry
    (reported with a NaN eigenvalue), raises, naming the point.
    """
    g = symmetrize(np.asarray(g, dtype=float))
    stack = g.reshape((-1,) + g.shape[-2:])
    rows = np.reshape(points, (len(stack), -1))
    nonfinite = np.flatnonzero(~np.isfinite(stack).all(axis=(1, 2)))
    if nonfinite.size:
        raise NonPositiveDefiniteMetric(rows[nonfinite[0]], np.nan)
    w, v = np.linalg.eigh(stack)
    for k in np.flatnonzero(w[:, 0] <= 0.0):
        tol = PSD_SLACK * (1.0 + float(np.linalg.norm(stack[k])))
        if w[k, 0] < -tol:
            raise NonPositiveDefiniteMetric(rows[k], w[k, 0])
        stack[k] = (v[k] * np.clip(w[k], tol, None)) @ v[k].T
    return g
