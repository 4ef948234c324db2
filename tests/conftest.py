"""Shared oracles and fixture data for the test suite.

The finite-difference helpers here are deliberately independent of the
package's own stencil code: they are the oracles the implementations are
checked against.
"""

import math

import numpy as np
import pytest
from hypothesis import settings

from riccikit import fields

# property tests draw the same examples on every run and keep no example
# database on disk
settings.register_profile("riccikit", derandomize=True, deadline=None, database=None)
settings.load_profile("riccikit")


def oracle_grad(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for k in range(x.size):
        e = np.zeros(x.size)
        e[k] = h
        out[k] = (f(x + e) - f(x - e)) / (2 * h)
    return out


def oracle_hess(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    d = x.size
    out = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            ei = np.zeros(d)
            ej = np.zeros(d)
            ei[i] = h
            ej[j] = h
            out[i, j] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4 * h * h)
    return out


def oracle_jacobian_opnorm(T, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    d = x.size
    jac = np.empty((d, d))
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        jac[:, k] = (T(x + e) - T(x - e)) / (2 * h)
    return np.linalg.svd(jac, compute_uv=False)[0]


def logcosh_phi(d, alpha=0.4):
    """Phi = |x|^2/2 + alpha sum log cosh(x_i): strongly convex with fully
    analytic derivatives through fourth order."""

    def s2(t):
        return 1.0 / math.cosh(t) ** 2

    def s3(t):
        return -2.0 * math.tanh(t) / math.cosh(t) ** 2

    def s4(t):
        return (4.0 * math.sinh(t) ** 2 - 2.0) / math.cosh(t) ** 4

    def third(x):
        t = np.zeros((d, d, d))
        for i in range(d):
            t[i, i, i] = alpha * s3(x[i])
        return t

    def fourth(x):
        t = np.zeros((d, d, d, d))
        for i in range(d):
            t[i, i, i, i] = alpha * s4(x[i])
        return t

    return fields.PotentialField(
        fn=lambda x: 0.5 * float(x @ x)
        + alpha * sum(math.log(math.cosh(t)) for t in x),
        grad=lambda x: x + alpha * np.tanh(x),
        hess=lambda x: np.eye(d) + alpha * np.diag([s2(t) for t in x]),
        third=third,
        fourth=fourth,
        convex=True,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)
