"""Central-difference stencils and small linear-algebra helpers.

Step sizes follow a single discipline: h = FIRST_ORDER_SCALE*(1+|x|) for first
derivatives and h = SECOND_ORDER_SCALE*(1+|x|) for second derivatives, which
balances truncation against roundoff at double precision.
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


def central_grad(f, x, h):
    """Gradient of a scalar function by central differences."""
    x = np.asarray(x, dtype=float)
    d = x.size
    g = np.empty(d)
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def central_hess(f, x, h):
    """Hessian of a scalar function by second-order central differences."""
    x = np.asarray(x, dtype=float)
    d = x.size
    out = np.empty((d, d))
    f0 = f(x)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        out[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / h**2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h
            out[i, j] = out[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h**2)
    return out


def central_jacobian(F, x, h):
    """Jacobian of a vector- or matrix-valued function; axis 0 indexes the
    differentiation direction."""
    x = np.asarray(x, dtype=float)
    d = x.size
    cols = []
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        cols.append((np.asarray(F(x + e)) - np.asarray(F(x - e))) / (2.0 * h))
    return np.array(cols)


def min_eigenvalue(a):
    return float(np.linalg.eigvalsh(symmetrize(a))[0])


def check_psd_metric(g, point):
    """Validate the positive-definiteness of a metric value.

    Eigenvalues above -PSD_SLACK*(1+|g|_F) are attributed to roundoff and the
    matrix is clamped to its PSD part; anything lower raises.
    """
    g = symmetrize(np.asarray(g, dtype=float))
    w, v = np.linalg.eigh(g)
    tol = PSD_SLACK * (1.0 + float(np.linalg.norm(g)))
    if w[0] < -tol:
        raise NonPositiveDefiniteMetric(point, w[0])
    if w[0] <= 0.0:
        w = np.clip(w, tol, None)
        g = (v * w) @ v.T
    return g
