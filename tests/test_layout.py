"""The column-major batch rule: sample batches are F-contiguous (n, d)
arrays, and the default suite's contractions agree with its row-wise
reference form."""

import math

import numpy as np
import pytest

from riccikit import bodies, catalog as cat, engine as eng, measures as ms

_MEASURE_PARAMS = {"power_product": {"q": 1.5}, "flat_power_1d": {"q": 3.0}}
_BODY_PARAMS = {"box": lambda d: {"half_widths": [1.0 + 0.5 * i for i in range(d)]},
                "lp": lambda d: {"p": 3.0}}


def _dim(schema, default=3):
    return min(default, schema.max_dim) if schema.max_dim is not None else default


def _bodies():
    for kind, schema in bodies.SCHEMA.variants.items():
        d = max(_dim(schema), schema.min_dim)
        extra = _BODY_PARAMS.get(kind, lambda d: {})(d)
        yield kind, bodies.body_from_spec({"kind": kind, "dim": d, **extra})


def _measures():
    for kind, schema in ms.SCHEMA.variants.items():
        if kind == "uniform_body":
            continue
        yield kind, ms.from_spec({"kind": kind, **_MEASURE_PARAMS.get(kind, {})}, _dim(schema))
    for kind, body in _bodies():
        yield f"uniform_body/{kind}", ms.uniform_body(body)
        yield f"cone_measure/{kind}", ms.cone_measure(body)
    yield "gamma_power_product", ms.gamma_power_product(3, 1.5)


_MEASURES = list(_measures())
_PRODUCTS = [(label, spec) for label, spec in _MEASURES if spec.coord_densities is not None]


@pytest.mark.parametrize("label,spec", _MEASURES, ids=[label for label, _ in _MEASURES])
def test_sample_batches_are_column_major(label, spec):
    for n in (100, 1001):
        pts = spec.sample(n, 3)
        assert pts.shape == (n, spec.dim) and pts.flags["F_CONTIGUOUS"], (label, n)
    assert cat._hypothesis_points(spec).flags["F_CONTIGUOUS"]


@pytest.mark.parametrize("label,spec", _PRODUCTS, ids=[label for label, _ in _PRODUCTS])
def test_lattice_batches_are_column_major(label, spec):
    for n in (100, 1001, 5000):
        pts, block = spec.lattice(n, 3)
        assert pts.shape == (len(pts), spec.dim) and pts.flags["F_CONTIGUOUS"], (label, n)
        assert len(pts) % block == 0


@pytest.mark.parametrize("body", [bodies.Ball(3), bodies.Ball(4, radius=2.0, orthant=True)])
@pytest.mark.parametrize("n", [1000, 1001])
def test_boundary_points_are_column_major(body, n):
    inst = cat.instantiate("hardy_boundary", {"body": body, "N": -1.0})
    pts, w, _ = eng.boundary_sample(inst, n, 5)
    assert pts.shape == (n, body.dim) and pts.flags["F_CONTIGUOUS"]
    assert w.shape == (n,)


def _reference_suite(d, seed=0):
    """The default suite in its row-wise form: short-axis sums, column
    broadcasts, repeats, broadcast copies and column stacks."""
    funcs = []
    sq = math.sqrt(d)

    def coord(i):
        e = np.zeros(d)
        e[i] = 1.0
        return (lambda p: p[:, i], lambda p, e=e: np.broadcast_to(e, p.shape).copy())

    funcs.append(coord(0))
    if d > 1:
        funcs.append(coord(d - 1))
    funcs.append((lambda p: np.sum(p**2, axis=1), lambda p: 2.0 * p))
    if d > 1:
        diag = np.full(d, 1.0 / sq)
        funcs.append((lambda p: p @ diag, lambda p: np.broadcast_to(diag, p.shape).copy()))
        funcs.append((
            lambda p: p[:, 0] * p[:, 1],
            lambda p: np.column_stack([p[:, 1], p[:, 0]] + [np.zeros(len(p))] * (d - 2)),
        ))
    for k in (1, 2):
        w = k * math.pi / sq
        funcs.append((
            lambda p, w=w: np.cos(w * p.sum(axis=1)),
            lambda p, w=w: np.repeat(-w * np.sin(w * p.sum(axis=1))[:, None], d, axis=1),
        ))
    rng = np.random.default_rng(seed)
    for _ in range(5):
        a, b, c = (rng.standard_normal(d) for _ in range(3))
        al, be = 0.5 * rng.uniform(), 0.2 * rng.uniform()

        def fn(p, a=a, b=b, c=c, al=al, be=be):
            u = p @ c
            return p @ a + al * (p @ b) ** 2 + be * (u * u * u)

        def grad(p, abc=np.stack([a, b, c]), al=al, be=be):
            pb, pc = p @ abc[1], p @ abc[2]
            ones = np.ones(len(p))
            return np.column_stack([ones, 2.0 * al * pb, 3.0 * be * (pc * pc)]) @ abc

        funcs.append((fn, grad))
    return funcs


@pytest.mark.parametrize("d", range(1, 13))
def test_default_suite_matches_reference(d):
    suite = eng.default_suite(d, seed=11)
    reference = _reference_suite(d, seed=11)
    assert len(suite) == len(reference)
    pts = ms.gaussian(d).sample(4000, 2)
    for f, (fn, grad) in zip(suite, reference):
        for new, old in ((f.fn(pts), fn(pts)), (f.grad(pts), grad(pts))):
            assert new.shape == old.shape, f.id
            assert np.abs(new - old).max() <= 1e-13 * np.abs(old).max(), (f.id, d)
        # a C-ordered batch gives the same numbers
        assert np.abs(f.grad(np.ascontiguousarray(pts)) - grad(pts)).max() <= (
            1e-13 * np.abs(grad(pts)).max()
        ), (f.id, d)
