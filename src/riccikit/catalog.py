"""Catalog of functional inequalities as executable instances.

Each entry turns one theorem into: an LHS functional kind (variance, entropy
of f^2, or Dirichlet L^2 mass), an interior RHS weight field with an explicit
constant, an optional boundary term with a free additive constant, and a set
of named hypothesis margins checked on sample points at instantiation.

Instances whose theorem only asserts an unspecified universal constant are
marked constant_known=False and are evaluated as ratio reports, never
pass/fail.

Each `CatalogEntry` carries the schema of its params (`riccikit.schema`),
with the theorem's window of dimensions; `instantiate` fills its defaults,
so the builders read `params[key]`.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from . import bodies, families, measures, transport
from .bodies import Ball, Box, ConvexBody, LpBall, Simplex
from .errors import HypothesisViolated, NonFiniteConstant, UnknownInequalityId
from .fields import (
    QuadraticFormField,
    ScalarPlusRankOne,
    diag_matrices,
    inverse,
    least_eig,
    row_dots,
)
from .schema import Key, Schema, describe, fill, number, options, positive

_HYPOTHESIS_SEED = 2025
_HYPOTHESIS_SAMPLES = 512
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


@dataclass
class BoundaryTerm:
    """Boundary part of an inequality: integral of weight(x) (f - C)^2 against
    the Hausdorff measure normalized by Vol(body), minimized over the constant
    C.  The body is a ball: `engine.boundary_sample` refuses other kinds."""

    body: ConvexBody
    weight: Callable  # (n, d) boundary points -> (n,) weights


@dataclass(kw_only=True)
class InequalityInstance:
    id: str = ""  # the catalog entry, set by instantiate
    lhs_kind: str  # variance | entropy_of_square | l2_dirichlet
    measure: measures.MeasureSpec
    lhs_scale: float = 1.0
    rhs_weight: Optional[QuadraticFormField] = None
    rhs_constant: float = 1.0
    boundary: Optional[BoundaryTerm] = None
    gradient_surcharge: float = 0.0  # adds c * int |grad f|^2 dmu to the RHS
    rhs_fixed: Optional[float] = None  # f-independent RHS, exact
    constant_known: bool = True  # the catalog entry's, set by instantiate
    lipschitz_only: bool = False
    body: Optional[ConvexBody] = None  # the body of an l2_dirichlet check
    hypothesis_report: dict = field(default_factory=dict)  # set by instantiate
    params: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.measure.dim

    @property
    def reports_poincare_quotient(self):
        """No weight field, unknown constant: a check reports Poincare quotients."""
        return self.rhs_weight is None and not self.constant_known


@dataclass
class CatalogEntry:
    """One theorem: its builder, the specs a config must supply for it
    (`measure`, `target`, `body`), and the schema of its params, which holds
    the theorem's admissibility window of dimensions."""

    id: str
    builder: Callable
    description: str
    constant_known: bool = True
    specs: Tuple[str, ...] = ()
    params: Schema = field(default_factory=Schema)

    min_dim = property(lambda self: self.params.min_dim)
    max_dim = property(lambda self: self.params.max_dim)


def _margin(report, name, value, location=None, tol=1e-9):
    report[name] = float(value)
    if value < -tol:
        raise HypothesisViolated(name, location, float(value))


def _least_eig(report, name, tensor, pts, tol=1e-9):
    """Record the least eigenvalue of `tensor` (points -> compact form) over
    the points `pts` as a margin."""
    eigs = least_eig(tensor(pts), pts.shape[1])
    i = int(np.argmin(eigs))
    _margin(report, name, eigs[i], location=pts[i], tol=tol)


def _hypothesis_points(measure, n=_HYPOTHESIS_SAMPLES):
    return measure.sample(n, _HYPOTHESIS_SEED)


# ---------------------------------------------------------------------------
# tensors and weight fields
# ---------------------------------------------------------------------------
# A tensor maps an (n, d) batch to a compact form (fields.QuadraticFormField);
# on a product measure it keeps the diagonal structure of D^2 V.


def _identity_field(d):
    return QuadraticFormField(dim=d, batch=lambda pts: np.ones(len(pts)), name="Id")


def _inverse_field(tensor, d, name):
    """The RHS weight field tensor^-1."""
    batch = lambda pts: inverse(tensor(pts), d)
    return QuadraticFormField(dim=d, batch=batch, name=name)


def _plus_diagonal(w, diag):
    """An (n, d) diagonal or (n, d, d) full form `w` plus diag(diag)."""
    return w + (diag if w.ndim == 2 else diag_matrices(diag))


def _negdim_tensor(mu):
    """D^2 V + grad V grad V^T / (2d), a rank-one update of D^2 V."""
    c, grad = 1.0 / (2.0 * mu.dim), mu.potential.gradient
    return lambda pts: ScalarPlusRankOne(mu.hessian_form(pts), c, grad(pts))


def _product_ricci_tensor(mu, data):
    """The product-metric generalized Ricci tensor D^2 V + diag(V_i' u_i'/u_i
    - u_i''/u_i), the closed form of `families.product_ricci`."""
    return lambda pts: _plus_diagonal(
        mu.hessian_form(pts),
        families.product_ricci_diagonal(data, mu.potential.gradient(pts), pts),
    )


def _check_product_ricci(measure, data, report, pts):
    """Record ric_positive, the least eigenvalue of the product-metric
    generalized Ricci tensor over pts, and return its inverse as a field."""
    ric = _product_ricci_tensor(measure, data)
    _least_eig(report, "ric_positive", ric, pts, tol=-1e-12)
    return _inverse_field(ric, measure.dim, "Ric^-1")


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _build_classical_bl(params, report):
    mu = params["measure"]
    _least_eig(report, "hess_v_positive", mu.hessian_form, _hypothesis_points(mu),
               tol=-1e-12)
    return InequalityInstance(
        lhs_kind="variance",
        measure=mu,
        rhs_weight=_inverse_field(mu.hessian_form, mu.dim, "(D2V)^-1"),
        rhs_constant=1.0,
    )


def _build_generalized_bl(params, report):
    mu = params["measure"]
    fam = params["family"]
    data = families.ProductMetricData.from_family(fam, mu.dim)
    weight = _check_product_ricci(mu, data, report, _hypothesis_points(mu))
    return InequalityInstance(
        lhs_kind="variance",
        measure=mu,
        rhs_weight=weight,
        rhs_constant=1.0,
        params={"family": fam},
    )


def _refined_q_1d(mu, nu):
    """Vectorized 1-D transport weight Q for the refined inequality."""
    mu_d, nu_d = mu.coord_densities[0], nu.coord_densities[0]
    phi = transport.transport_potential_1d(mu_d, nu_d)
    v1, v2 = mu.coord_d1[0], mu.coord_d2[0]
    w1, w2 = nu.coord_d1[0], nu.coord_d2[0]

    def q_scalar(pts):
        x = pts[:, 0]
        t = phi.grad(pts[:, :1])[:, 0]
        tp = phi.hess(pts[:, :1])[:, 0, 0]
        u = v1(x) - tp * w1(t)
        return 0.5 * v2(x) + 0.5 * tp * tp * w2(t) + 0.25 * u * u

    return q_scalar, phi


def _build_refined_bl(params, report):
    mu, nu = params["measure"], params["target"]
    q_scalar, phi = _refined_q_1d(mu, nu)
    pts = _hypothesis_points(mu)
    _least_eig(report, "q_positive", q_scalar, pts, tol=-1e-12)
    tgrid = nu.coord_densities[0].ppf_many(np.linspace(1e-6, 1.0 - 1e-6, 257))
    wvals = nu.coord_d2[0](tgrid)
    _margin(report, "target_log_concave", float(np.min(wvals)), tol=1e-12)
    return InequalityInstance(
        lhs_kind="variance",
        measure=mu,
        rhs_weight=_inverse_field(q_scalar, 1, "Q^-1"),
        rhs_constant=1.0,
        params={"target": nu.kind},
    )


def _build_negdim_bl(params, report):
    mu = params["measure"]
    pts = _hypothesis_points(mu)
    _least_eig(report, "log_concave", mu.hessian_form, pts)
    tensor = _negdim_tensor(mu)
    _least_eig(report, "weight_positive", tensor, pts, tol=-1e-12)
    return InequalityInstance(
        lhs_kind="variance",
        measure=mu,
        rhs_weight=_inverse_field(tensor, mu.dim, "negdim^-1"),
        rhs_constant=2.0,
    )


def _ball_radius(body):
    """Radius of a Euclidean ball, which the mean-curvature terms read; an l_p
    ball has a radius too, but not the ball's curvature."""
    if not isinstance(body, Ball):
        raise HypothesisViolated(f"ball_like_body ({body.kind})", None, -math.inf)
    return body.radius


def _compact_support_radius(nu):
    a, b = nu.coord_densities[0].support
    if not (np.isfinite(a) and np.isfinite(b)):
        raise HypothesisViolated("compact_support", None, -math.inf)
    return max(abs(a), abs(b))


def _build_compact_bl(params, report):
    nu = params["measure"]
    dens = nu.coord_densities[0]
    _margin(report, "barycenter", -abs(dens.mean()), tol=1e-6)
    r = params["R"] or _compact_support_radius(nu)
    _margin(report, "support_radius", r - _compact_support_radius(nu), tol=1e-12)
    grid = np.linspace(*dens.support, 257)[1:-1, None]
    _margin(report, "log_concave", float(np.min(nu.hessian_form(grid))), tol=1e-12)
    sol = transport.ke_solve_1d(dens, tol=params["ke_tol"])
    _margin(report, "ke_residual", params["ke_tol"] - sol.residual_sup)
    mask = sol.interior_mask(1e-4, 1.0 - 1e-4)
    _margin(
        report,
        "trace_bound",
        2.0 * r * r - float(sol.second_derivative()[mask].max()),
    )
    weight = QuadraticFormField(
        dim=1,
        batch=lambda pts: 1.0 / (1.0 / (2.0 * r * r) + nu.hessian_form(pts)),
        name="(Id/2R^2 + D2W)^-1",
    )
    return InequalityInstance(
        lhs_kind="variance",
        measure=nu,
        rhs_weight=weight,
        rhs_constant=2.0,
        params={"R": r},
    )


def _build_payne_weinberger(params, report):
    nu = params["measure"]
    dens = nu.coord_densities[0]
    _margin(report, "barycenter", -abs(dens.mean()), tol=1e-6)
    r = params["R"] or _compact_support_radius(nu)
    return InequalityInstance(
        lhs_kind="variance",
        measure=nu,
        rhs_weight=_identity_field(nu.dim),
        rhs_constant=2.0 * r * r,
        params={"R": r},
    )


def _build_bakry_emery_lsi(params, report):
    mu = params["measure"]
    fam = params["family"]
    rho = params["rho"]
    d = mu.dim
    data = families.ProductMetricData.from_family(fam, d)
    ric = _product_ricci_tensor(mu, data)
    gap = lambda pts: _plus_diagonal(ric(pts), -rho * data.metric_weights(pts))
    _least_eig(report, "curvature_level", gap, _hypothesis_points(mu), tol=1e-7)
    return InequalityInstance(
        lhs_kind="entropy_of_square",
        measure=mu,
        rhs_weight=_inverse_field(data.metric_weights, d, "g^-1"),
        rhs_constant=2.0 / rho,
        params={"rho": rho, "family": fam},
    )


def _build_entropic_bl(params, report):
    mu = params["measure"]
    dens = mu.coord_densities[0]
    grid = np.linspace(dens.ppf(1e-7), dens.ppf(1.0 - 1e-7), 1025)
    d2 = lambda t: mu.potential.hessian(t[:, None])[:, 0, 0]
    # V''' and V'''' by central differences of V'' on the whole grid
    h3 = 1e-4 * (1.0 + np.abs(grid))
    h4 = 2e-3 * (1.0 + np.abs(grid))
    crit = transport.DualCriterion.from_derivatives(
        mu.potential.gradient(grid[:, None])[:, 0],
        d2(grid),
        (d2(grid + h3) - d2(grid - h3)) / (2.0 * h3),
        (d2(grid + h4) - 2.0 * d2(grid) + d2(grid - h4)) / h4**2,
    )
    rho = params["rho"]
    if rho is None:
        rho = crit.bisect_rho(enhanced=True)
    _margin(report, "criterion_margin", float(crit.margin(rho, enhanced=True).min()),
            tol=1e-8)
    _margin(report, "rho_positive", rho, tol=0.0)
    return InequalityInstance(
        lhs_kind="entropy_of_square",
        measure=mu,
        rhs_weight=_inverse_field(mu.hessian_form, mu.dim, "(D2V)^-1"),
        rhs_constant=2.0 / rho,
        params={"rho": rho},
    )


def _build_muq_lsi(params, report):
    mu = params["measure"]
    if mu.kind != "power_product":
        raise HypothesisViolated(f"power_product_measure ({mu.kind})", None, -math.inf)
    q, c = mu.params["q"], mu.params["c"]
    _margin(report, "q_in_range", min(q - 1.0, 2.0 - q), tol=1e-12)
    weight = QuadraticFormField(
        dim=mu.dim, batch=lambda pts: pts ** (2.0 - q), name="x^(2-q)"
    )
    return InequalityInstance(
        lhs_kind="entropy_of_square",
        measure=mu,
        rhs_weight=weight,
        rhs_constant=4.0 / (c * q * q),
        params={"q": q, "c": c},
    )


def _build_bakry_t_lsi(params, report):
    """Image of the power-measure log-Sobolev bound under t_i = x_i^q.

    The substitution carries its Jacobian into the measure: the image law is
    the Gamma(1/q, c) product, and the transformed Dirichlet form is
    (4/c) int sum t_i f_{t_i}^2.
    """
    q = params["q"]
    c = params["c"]
    d = params["measure"].dim if "measure" in params else params["dim"]
    _margin(report, "q_in_range", min(q - 1.0, 2.0 - q), tol=1e-12)
    mu = measures.gamma_power_product(d, q, c)
    weight = QuadraticFormField(dim=d, batch=lambda pts: pts, name="t")
    return InequalityInstance(
        lhs_kind="entropy_of_square",
        measure=mu,
        rhs_weight=weight,
        rhs_constant=4.0 / c,
        params={"q": q, "c": c},
    )


def _build_qgt2_lsi(params, report):
    q = params["q"]
    mode = params["potential"]
    if q <= 2.0:
        raise HypothesisViolated("q_gt_2", None, q - 2.0)
    report["q_gt_2"] = q - 2.0
    weight = QuadraticFormField(
        dim=1,
        # min(1, x^(2-q)), without the overflow of x^(2-q) near 0
        batch=lambda pts: np.maximum(pts, 1.0) ** (2.0 - q),
        name="min(1,x^(2-q))",
    )
    if mode == "modified":
        mu = measures.flat_power_1d(q)
        fp = transport.FlattenedPowerPotential(q)
        p = fp.p
        # the binding region of the criterion sits just above the knee |y| = 1;
        # capping the exponent keeps ymax^2 finite for large q
        ymax = 50.0 ** min(1.0 / (p - 1.0), 64.0) + 10.0
        ygrid = np.concatenate(
            [np.linspace(0.0, 1.0, 513), 1.0 + np.geomspace(1e-9, ymax - 1.0, 8193)]
        )
        crit = fp.dual_criterion(ygrid)
        rho_max = crit.bisect_rho(enhanced=False)
        _margin(report, "rho_q_positive", rho_max, tol=0.0)
        # F'' decays like |y|^(p-2) past the knee, so its minimum is at the grid's
        # arbitrary end; F'' max(1, |y|)^2 is least at the knee, p - 1
        _margin(report, "f_convex",
                float((crit.f_second * np.maximum(crit.y_grid, 1.0) ** 2).min()), tol=1e-8)
        # the derived weight is (V'')^{-1}; fold its comparison against the
        # stated weight into the effective level rho_q = rho_max / max(K_q, 1),
        # K_q = sup (V'')^{-1} / min(1, x^(2-q)).  With s = p(p-1) x + 2 - p
        # the ratio is (max(1, x) / max(1, s))^(q-2) / p, which rises to the
        # tail value (p(p-1))^(2-q) / p.  K_q leaves the float range near
        # q = 150: the margin is the log headroom of the constant 2 K_q / rho_max
        log_k = max(0.0, (2.0 - q) * math.log(p * (p - 1.0))) - math.log(p)
        _margin(report, "K_q_finite",
                _LOG_FLOAT_MAX - math.log(2.0 / rho_max) - max(log_k, 0.0))
        k_q = math.exp(log_k)
        rho_q = rho_max / max(k_q, 1.0)
        return InequalityInstance(
            lhs_kind="entropy_of_square",
            measure=mu,
            rhs_weight=weight,
            rhs_constant=2.0 / rho_q,
            params={"q": q, "rho_q": rho_q, "rho_max": rho_max, "K_q": k_q,
                    "potential": mode},
        )
    mu = measures.power_product(1, q)
    return InequalityInstance(
        lhs_kind="entropy_of_square",
        measure=mu,
        rhs_weight=weight,
        rhs_constant=1.0,
        params={"q": q, "potential": mode},
    )


def _poly_orthant_checks(mu, report, lam=None, r_max=None):
    pts = _hypothesis_points(mu)
    if not mu.orthant:
        raise HypothesisViolated("orthant_unconditional", None, -1.0)
    report["orthant_unconditional"] = 1.0
    _least_eig(report, "hess_v_psd", mu.hessian_form, pts, tol=1e-10)
    g = mu.potential.gradient(pts)
    level = 0.0 if lam is None else lam
    j = int(np.argmin(g.min(axis=1)))
    _margin(report, "v_xi_lower", float(g.min()) - level, location=pts[j], tol=1e-10)
    if r_max is not None:
        hi = max(d.support[1] for d in mu.coord_densities)
        _margin(report, "support_in_box", r_max - hi, tol=1e-12)
    return pts


def _build_poly_product(params, report):
    mu = params["measure"]
    part = params["part"]
    d = mu.dim
    if part == 1:
        p = params["p"]
        pts = _poly_orthant_checks(mu, report)
        data = families.ProductMetricData.power(p, d)
        weight = _check_product_ricci(mu, data, report, pts)
        return InequalityInstance(
            lhs_kind="variance", measure=mu,
            rhs_weight=weight, rhs_constant=1.0,
            params={"part": 1, "p": p},
        )
    if part == 2:
        _poly_orthant_checks(mu, report)
        weight = QuadraticFormField(dim=d, batch=lambda pts: pts**2, name="x^2")
        return InequalityInstance(
            lhs_kind="variance", measure=mu,
            rhs_weight=weight, rhs_constant=4.0,
            params={"part": 2},
        )
    if part == 3:
        lam = params["lam"]
        _poly_orthant_checks(mu, report, lam=lam)
        weight = QuadraticFormField(dim=d, batch=lambda pts: pts, name="x")
        return InequalityInstance(
            lhs_kind="variance", measure=mu,
            rhs_weight=weight, rhs_constant=1.0 / lam,
            params={"part": 3, "lam": lam},
        )
    p = params["p"]
    if part == 4:
        r_max = params["R"]
        _poly_orthant_checks(mu, report, r_max=r_max)
        _margin(report, "p_in_range", min(p, 1.0 - p), tol=1e-12)
        rho = families.rho_p_bounded(p, r_max)
    elif part == 5:
        lam = params["lam"]
        _poly_orthant_checks(mu, report, lam=lam)
        _margin(report, "p_in_range", min(p - 0.5, 1.0 - p), tol=1e-12)
        rho = families.rho_p_slope(p, lam)
    else:
        raise UnknownInequalityId(f"poly_product part {part}")
    weight = QuadraticFormField(
        dim=d, batch=lambda pts: pts ** (2.0 * p), name="x^(2p)"
    )
    return InequalityInstance(
        lhs_kind="entropy_of_square", measure=mu,
        rhs_weight=weight, rhs_constant=2.0 / rho,
        params={"part": part, "p": p, "rho": rho, **{k: v for k, v in params.items()
                                                     if k in ("lam", "R")}},
    )


def _build_exp_product(params, report):
    mu = params["measure"]
    mode = params["mode"]
    d = mu.dim
    if mode not in ("corollary", "weighted"):
        raise UnknownInequalityId(f"exp_product mode {mode!r}")
    if mode == "corollary":
        lam = params["lam"]
        _poly_orthant_checks(mu, report, lam=lam)
        return InequalityInstance(
            lhs_kind="variance", measure=mu,
            rhs_weight=_identity_field(d),
            rhs_constant=4.0 / lam**2,
            params={"mode": mode, "lam": lam},
        )
    lams = np.atleast_1d(np.asarray(params["lams"], dtype=float))
    if lams.size == 1:
        lams = np.full(d, lams[0])
    pts = _poly_orthant_checks(mu, report)
    g = mu.potential.gradient(pts)
    _margin(report, "v_xi_above_lambda", float((g - lams).min()), tol=1e-10)
    weight = _inverse_field(lambda pts: lams * (mu.potential.gradient(pts) - lams), d,
                            "1/(lam (V_xi - lam))")
    return InequalityInstance(
        lhs_kind="variance", measure=mu,
        rhs_weight=weight, rhs_constant=1.0,
        params={"mode": mode, "lams": lams.tolist()},
    )


def _conditioned_orthant(mu):
    """Condition a symmetric product measure onto the positive orthant; each
    distinct coordinate density is conditioned once and stays shared."""
    densities = list(mu.coord_densities)
    for dens, cols in measures.distinct_densities(densities):
        plus = transport.Density1D(dens.raw_potential, (0.0, dens.support[1]),
                                   name=dens.name + "+")
        for i in cols:
            densities[i] = plus
    return measures._product_spec(
        mu.kind + "_orthant",
        densities,
        d1=mu.coord_d1, d2=mu.coord_d2,
        orthant=True,
    )


def _build_klartag_transfer(params, report):
    mu = params["measure"]
    if not mu.unconditional:
        raise HypothesisViolated("unconditional", None, -1.0)
    report["unconditional"] = 1.0
    mu_plus = _conditioned_orthant(mu)
    base_params = dict(params["base"])
    base_id = base_params.pop("id")
    base = instantiate(base_id, {**base_params, "measure": mu_plus})
    report.update({f"base:{k}": v for k, v in base.hypothesis_report.items()})
    surcharge = float(mu.coordinate_moment(2).max())
    base_weight = base.rhs_weight
    weight = QuadraticFormField(
        dim=mu.dim,
        batch=lambda pts: base_weight.batch(np.abs(pts)),
        name=base_weight.name + "(|x|)",
    )
    return InequalityInstance(
        lhs_kind="variance",
        measure=mu,
        rhs_weight=weight,
        rhs_constant=base.rhs_constant,
        gradient_surcharge=surcharge,
        params={"base": {"id": base_id, **base_params}, "surcharge": surcharge},
    )


def _cone_second_moment_ratio(body):
    """E_sigma |x|^2/<x,n>^2 under the cone measure sigma, in closed form:

    - simplex: 2d/(d+1), the Dirichlet(1, ..., 1) law on the facet;
    - ball: 1, as x and n are parallel;
    - box: facet x_j = +-a_j has mass 1/(2d) and is uniform, which gives
      (1/d) sum_j (1 + sum_{i != j} a_i^2/(3 a_j^2));
    - l_p ball: x = y/|y|_p with |y_i|^p ~ Gamma(1/p) i.i.d. is sigma-distributed
      and independent of |y|_p (Schechtman and Zinn, Proc. AMS 110 (1990)); the
      ratio is |x|^2 sum_i |x_i|^(2p-2), of degree 2p, so its mean is
      [d m(2p) + d(d-1) m(2) m(2p-2)] / [(d/p)(d/p+1)], m(k) = E|y_i|^k =
      Gamma((k+1)/p)/Gamma(1/p)."""
    d = body.dim
    if isinstance(body, Simplex):
        return 2.0 * d / (d + 1.0)
    if isinstance(body, Ball):
        return 1.0
    if isinstance(body, Box):
        a2 = body.a**2
        return float(np.mean(1.0 + (a2.sum() - a2) / (3.0 * a2)))
    if isinstance(body, LpBall):
        p = body.p
        m = lambda k: math.exp(math.lgamma((k + 1.0) / p) - math.lgamma(1.0 / p))
        num = d * m(2.0 * p) + d * (d - 1.0) * m(2.0) * m(2.0 * p - 2.0)
        return num / ((d / p) * (d / p + 1.0))
    raise ValueError(f"no closed-form cone ratio for body kind {body.kind!r}")


def _build_cone_variance(params, report):
    body = params["body"]
    d = body.dim
    _margin(report, "dimension_rule", d - 3.0, tol=1e-12)
    cone = measures.cone_measure(body)
    lam_emp, _ = bodies.diagonality_bounds(body, _hypothesis_points(cone))
    report["diagonality_inf"] = lam_emp
    lam = lam_emp if params["lam"] is None else params["lam"]
    _margin(report, "diagonality_level", lam_emp - lam, tol=1e-9)
    const = 4.0 / (lam**2 * (d - 1.0) * (d - 2.0))
    return InequalityInstance(
        lhs_kind="variance",
        measure=cone,
        rhs_fixed=const * _cone_second_moment_ratio(body),
        lipschitz_only=True,
        params={"lam": lam},
    )


def _uniform_second_moment(body):
    """E|x|^2 under the uniform measure on a simplex, box, ball (orthant or
    not) or l_p ball, in closed form."""
    d = body.dim
    if isinstance(body, Simplex):
        return 2.0 * d / ((d + 1.0) * (d + 2.0)) * body.scale**2
    if isinstance(body, Box):
        return float(np.sum(body.a**2)) / 3.0
    if isinstance(body, Ball):
        return d * body.radius**2 / (d + 2.0)
    if isinstance(body, LpBall):
        p, lg = body.p, math.lgamma
        return d * body.radius**2 * math.exp(
            lg(3.0 / p) + lg(1.0 + d / p) - lg(1.0 / p) - lg(1.0 + (d + 2.0) / p)
        )
    raise ValueError(f"no closed-form second moment for body kind {body.kind!r}")


def _build_l1_type(params, report):
    body = params["body"]
    d = body.dim
    _margin(report, "dimension_rule", d - 3.0, tol=1e-12)
    probe = _hypothesis_points(measures.cone_measure(body))
    lam_emp, lam_sup = bodies.diagonality_bounds(body, probe)
    report["diagonality_inf"] = lam_emp
    report["diagonality_sup"] = lam_sup
    lam = lam_emp if params["lam"] is None else params["lam"]
    i1 = _uniform_second_moment(body)
    i2 = _cone_second_moment_ratio(body)
    rhs_base = (i1 + i2 / lam**2) / d**2
    alt = (1.0 + (d + 2.0) * (lam_sup / lam) ** 2) / d**2 * i1
    return InequalityInstance(
        lhs_kind="variance",
        measure=measures.uniform_body(body),
        rhs_fixed=rhs_base,
        params={"lam": lam, "Lam": lam_sup, "rhs_diagonal_form": alt},
    )


def _radial_weight_field(d, theta, n_param):
    ev = families.radial_conformal_eigenvalues(theta, 0.0, n_param, d, 1.0)
    tc, rc = ev.tangential, ev.radial  # coefficients of 1/|x|^2
    rank_one = 1.0 / rc - 1.0 / tc

    def batch(pts):
        # |x|^2 ((Id - x^ x^T)/tc + x^ x^T/rc) with x^ = x/|x|
        return ScalarPlusRankOne(row_dots(pts, pts) / tc, rank_one, pts)

    return QuadraticFormField(dim=d, batch=batch, name="Ric_N^-1(radial)"), tc, rc


def _ball_boundary_geometry(body, pts):
    r2 = row_dots(pts, pts)
    xn = row_dots(pts, (pts.T / np.sqrt(r2)).T)
    h0 = np.full(len(pts), (body.dim - 1) / body.radius)
    return r2, xn, h0


def _build_dim_bl_boundary(params, report):
    body = params["body"]
    n_param = params["N"]
    part = params["part"]
    d = body.dim
    if not n_param < 0.0:
        raise HypothesisViolated("n_negative", None, -abs(n_param))
    report["n_negative"] = -n_param
    theta = params["theta"] or families.radial_theta_optimal(n_param, d)
    adm = families.radial_admissibility(theta, n_param, d)
    _margin(report, "tangential_nonneg", adm["tangential_nonneg"])
    _margin(report, "radial_nonneg", adm["radial_nonneg"])
    weight, tc, rc = _radial_weight_field(d, theta, n_param)
    _margin(report, "tangential_coef", tc, tol=1e-12)
    _margin(report, "radial_coef", rc, tol=1e-12)
    mu = measures.uniform_body(body)
    lhs_scale = n_param / (n_param - 1.0)
    boundary = None
    if part == 1:

        def bweight(pts):
            r2, xn, h0 = _ball_boundary_geometry(body, pts)
            hgmu = h0 + theta * xn / r2
            return 1.0 / hgmu

        r0 = _ball_radius(body)
        _margin(
            report,
            "boundary_mean_convex",
            (d - 1.0) / r0 + theta / r0,
            tol=1e-12,
        )
        boundary = BoundaryTerm(body=body, weight=bweight)
    elif part == 2:
        # ball: II_0 = Id/R >= theta <x,n>/|x|^2 Id = (theta/R) Id iff theta <= 1
        _ball_radius(body)
        _margin(report, "locally_convex", 1.0 - theta, tol=1e-12)
    elif part != 3:
        raise UnknownInequalityId(f"dim_bl_boundary part {part}")
    return InequalityInstance(
        lhs_kind="l2_dirichlet" if part == 3 else "variance",
        measure=mu,
        lhs_scale=lhs_scale,
        rhs_weight=weight,
        rhs_constant=1.0,
        boundary=boundary,
        body=body,
        params={"N": n_param, "theta": theta, "part": part},
    )


def _build_hardy_boundary(params, report):
    body = params["body"]
    n_param = params["N"]
    d = body.dim
    if n_param > 0.0:
        raise HypothesisViolated("n_nonpositive", None, -n_param)
    report["n_nonpositive"] = -n_param
    _margin(report, "small_cond", (0.5 - _inv_or_zero(n_param)) * d - 3.0)
    mu = measures.uniform_body(body)
    const = 4.0 / (d * (d - n_param))
    weight = QuadraticFormField(
        dim=d, batch=lambda pts: const * row_dots(pts, pts), name="4|x|^2/(d(d-N))"
    )

    def bweight(pts):
        r2, xn, h0 = _ball_boundary_geometry(body, pts)
        return 1.0 / (0.5 * (d - n_param) * xn / r2 - n_param * h0)

    r0 = _ball_radius(body)
    _margin(
        report,
        "boundary_mean_convex",
        0.5 * (d - n_param) / r0 - n_param * (d - 1.0) / r0,
        tol=1e-12,
    )
    return InequalityInstance(
        lhs_kind="variance",
        measure=mu,
        lhs_scale=1.0 / (1.0 - n_param),
        rhs_weight=weight,
        rhs_constant=1.0,
        boundary=BoundaryTerm(body=body, weight=bweight),
        params={"N": n_param},
    )


def _inv_or_zero(n_param):
    return 0.0 if n_param == 0.0 else 1.0 / n_param


def _build_hardy_n0(params, report):
    return _build_hardy_boundary({**params, "N": 0.0}, report)


def _build_hardy_dirichlet(params, report):
    body = params["body"]
    d = body.dim
    report["dirichlet"] = 1.0
    mu = measures.uniform_body(body)
    weight = QuadraticFormField(
        dim=d,
        batch=lambda pts: (4.0 / d**2) * row_dots(pts, pts),
        name="4|x|^2/d^2",
    )
    return InequalityInstance(
        lhs_kind="l2_dirichlet",
        measure=mu,
        rhs_weight=weight,
        rhs_constant=1.0,
        body=body,
        params={},
    )


def _build_strong_boundary(params, report):
    body = params["body"]
    theta = params["theta"]
    mode = params["mode"]
    d = body.dim
    _margin(report, "dimension_rule", d - 8.0, tol=1e-12)
    _margin(report, "theta_range", min(theta, 0.5 - theta), tol=1e-12)
    # II_0 >= theta <x,n>/|x|^2 Id on the boundary (exact on balls)
    r0 = _ball_radius(body)
    _margin(report, "ii_lower", 1.0 / r0 - theta / r0, tol=1e-12)
    mu = measures.uniform_body(body)
    if mode == "variance":
        weight = QuadraticFormField(
            dim=d, batch=lambda pts: row_dots(pts, pts), name="|x|^2"
        )
        const = 2.0 / (d * theta)
        lhs_kind = "variance"
    else:
        weight = QuadraticFormField(
            dim=d,
            batch=lambda pts: row_dots(pts, pts) ** theta,
            name="|x|^(2theta)",
        )
        const = 4.0 * body.radius_bound() ** (2.0 * (1.0 - theta)) / (d * theta)
        lhs_kind = "entropy_of_square"
    return InequalityInstance(
        lhs_kind=lhs_kind,
        measure=mu,
        rhs_weight=weight,
        rhs_constant=const,
        params={"theta": theta, "mode": mode},
    )


def _build_one_lip_reduction(params, report):
    body = params["body"]
    report["convex_body"] = 1.0
    return InequalityInstance(
        lhs_kind="variance",
        measure=measures.uniform_body(body),
        lipschitz_only=True,
        params={"mode": "one_lip"},
    )


_MEASURE, _BODY = ("measure",), ("body",)
_FAMILY = Key("object", schema=families.FAMILY)
# the entries klartag_transfer can transfer: built from a measure alone,
# filled in below once the catalog exists
_BASES = {}

CATALOG = {
    e.id: e
    for e in [
        CatalogEntry("classical_bl", _build_classical_bl,
                     "variance bounded by the inverse-Hessian Dirichlet form",
                     specs=_MEASURE),
        CatalogEntry("generalized_bl", _build_generalized_bl,
                     "variance bound with the generalized Ricci weight",
                     specs=_MEASURE, params=Schema({"family": _FAMILY})),
        CatalogEntry("refined_bl", _build_refined_bl,
                     "transport-refined variance bound (weight Q)",
                     specs=("measure", "target"), params=Schema(max_dim=1)),
        CatalogEntry("negdim_bl", _build_negdim_bl,
                     "negative-dimensional variance bound, constant 2",
                     specs=_MEASURE),
        CatalogEntry("compact_bl", _build_compact_bl,
                     "compact-support variance bound through the 1-D fixed point",
                     specs=_MEASURE, params=Schema(
                         {"R": positive(None), "ke_tol": positive(1e-8)}, max_dim=1)),
        CatalogEntry("payne_weinberger", _build_payne_weinberger,
                     "2R^2 spectral-gap estimate on a ball of radius R",
                     specs=_MEASURE, params=Schema({"R": positive(None)}, max_dim=1)),
        CatalogEntry("bakry_emery_lsi", _build_bakry_emery_lsi,
                     "log-Sobolev from a uniform curvature lower bound",
                     specs=_MEASURE, params=Schema({"family": _FAMILY, "rho": positive()})),
        CatalogEntry("entropic_bl", _build_entropic_bl,
                     "entropic variance bound via the dual convexity criterion",
                     specs=_MEASURE, params=Schema({"rho": positive(None)}, max_dim=1)),
        CatalogEntry("muq_lsi", _build_muq_lsi,
                     "weighted log-Sobolev for exp(-c sum x_i^q), q in [1,2]",
                     specs=_MEASURE),
        CatalogEntry("bakry_t_lsi", _build_bakry_t_lsi,
                     "weighted log-Sobolev for the exponential measure, weight t^(1/q)",
                     params=Schema({"q": number(), "c": positive(1.0)})),
        CatalogEntry("qgt2_lsi", _build_qgt2_lsi,
                     "q > 2 log-Sobolev with flattened potential",
                     constant_known=False, params=Schema(
                         {"q": number(), "potential": Key("string", "modified")},
                         select="potential", variants=options("modified", "original"),
                         max_dim=1)),
        CatalogEntry("poly_product", _build_poly_product,
                     "power-profile product-metric bounds, parts 1-5",
                     specs=_MEASURE, params=Schema(
                         {"part": Key("integer")}, select="part", variants={
                             1: Schema({"p": number(0.5)}),
                             2: Schema(),
                             3: Schema({"lam": positive()}),
                             4: Schema({"p": number(), "R": positive()}),
                             5: Schema({"p": number(), "lam": positive()}),
                         })),
        CatalogEntry("exp_product", _build_exp_product,
                     "exponential-profile product-metric bounds",
                     specs=_MEASURE, params=Schema(
                         {"mode": Key("string", "corollary")}, select="mode", variants={
                             "corollary": Schema({"lam": positive()}),
                             "weighted": Schema({"lams": positive(shape="1|d")}),
                         })),
        CatalogEntry("klartag_transfer", _build_klartag_transfer,
                     "orthant-to-full-space transfer of weighted variance bounds",
                     specs=_MEASURE, params=Schema({"base": Key(
                         "object", {"id": "poly_product", "part": 2},
                         schema=Schema({"id": Key("string")}, select="id", variants=_BASES),
                     )})),
        CatalogEntry("cone_variance", _build_cone_variance,
                     "cone-measure variance of 1-Lipschitz functions",
                     specs=_BODY, params=Schema({"lam": positive(None)}, min_dim=3)),
        CatalogEntry("l1_type", _build_l1_type,
                     "diagonal-boundary Poincare bound",
                     constant_known=False, specs=_BODY,
                     params=Schema({"lam": positive(None)}, min_dim=3)),
        CatalogEntry("dim_bl_boundary", _build_dim_bl_boundary,
                     "dimensional boundary bound via the radial conformal metric",
                     specs=_BODY, params=Schema(
                         {"N": number(), "part": Key("integer", 1), "theta": number(None)},
                         select="part", variants=options(1, 2, 3),
                         min_dim=4)),
        CatalogEntry("hardy_boundary", _build_hardy_boundary,
                     "Hardy-type bound with mean-curvature boundary term",
                     specs=_BODY, params=Schema({"N": number(0.0)}, min_dim=6)),
        CatalogEntry("hardy_dirichlet", _build_hardy_dirichlet,
                     "classical Hardy bound under vanishing boundary data",
                     specs=_BODY),
        CatalogEntry("hardy_n0", _build_hardy_n0,
                     "Hardy-type bound, zero generalized dimension",
                     specs=_BODY, params=Schema(min_dim=6)),
        CatalogEntry("strong_boundary", _build_strong_boundary,
                     "variance/entropy bounds for strongly convex boundaries",
                     specs=_BODY, params=Schema(
                         {"theta": positive(), "mode": Key("string", "variance")},
                         select="mode", variants=options("variance", "entropy"),
                         min_dim=8)),
        CatalogEntry("one_lip_reduction", _build_one_lip_reduction,
                     "Poincare vs worst 1-Lipschitz variance",
                     constant_known=False, specs=_BODY),
    ]
}
_BASES.update({eid: e.params for eid, e in CATALOG.items()
               if set(e.specs) <= {"measure"} and eid != "klartag_transfer"})


def instantiate(inequality_id, params) -> InequalityInstance:
    """Build a fully evaluable instance from params with the entry's
    defaults filled in.  The builder records its hypothesis margins in the
    report it is handed; a failing check raises HypothesisViolated with the
    hypothesis name, location and margin, and a float of the builder that
    overflows or divides by zero raises NonFiniteConstant."""
    entry = CATALOG.get(inequality_id)
    if entry is None:
        raise UnknownInequalityId(inequality_id)
    report = {}
    try:
        inst = entry.builder(fill(entry.params, params), report)
    except ArithmeticError as exc:
        raise NonFiniteConstant(f"{inequality_id}: {exc}") from exc
    inst.id, inst.hypothesis_report = inequality_id, report
    inst.constant_known = entry.constant_known
    return inst


def manifest():
    """Machine-readable catalog manifest: per entry, the specs it needs and
    the schema of its params, with types, bounds, defaults and the
    dimension window."""
    return {
        eid: {
            "description": e.description,
            "constant_known": e.constant_known,
            "specs": list(e.specs),
            "params": describe(e.params),
        }
        for eid, e in sorted(CATALOG.items())
    }
