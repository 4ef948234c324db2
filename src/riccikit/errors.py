"""Exception types shared across the toolkit."""


class RicciKitError(Exception):
    """Base class for all toolkit errors."""


class NonPositiveDefiniteMetric(RicciKitError):
    """Metric failed the positive-definiteness test at an evaluation point."""

    def __init__(self, point, min_eigenvalue):
        self.point = point
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            f"metric not positive definite at {point}: min eigenvalue {min_eigenvalue:.3e}"
        )


class StepTooLarge(RicciKitError):
    """A finite-difference stencil left the metric's domain."""


class InvalidDimensionParameter(RicciKitError):
    """Generalized dimension N is in the forbidden range [1, d) or equals d where excluded."""


class MissingThirdDerivatives(RicciKitError):
    """Analytic third derivatives are required but were not supplied."""


class DegenerateHessian(RicciKitError):
    """A Hessian that must be invertible is (numerically) singular."""


class ProfileNotPositive(RicciKitError):
    """A product-metric profile u_i is non-positive at an evaluation point."""


class NonUnitNormal(RicciKitError):
    """A supplied boundary normal is not of unit length."""


class CDFInversionFailure(RicciKitError):
    """A target CDF could not be inverted (density vanishes inside the support)."""


class NotStronglyConvex(RicciKitError):
    """A potential required to be strongly convex fails V'' > 0 on the working grid."""


class NonCompactTarget(RicciKitError):
    """The Kahler-Einstein potential requires a compactly supported target measure."""


class NoConvergence(RicciKitError):
    """A solver's residual stayed at or above its tolerance."""

    def __init__(self, message, residual=None):
        self.residual = residual
        super().__init__(message)


class UndefinedAtOrigin(RicciKitError):
    """Gauge/normal quantities are undefined at the origin of the cone."""


class NonSmoothBoundaryPoint(RicciKitError):
    """Curvature requested at an edge or corner of the boundary."""


class RejectionBudgetExceeded(RicciKitError):
    """Rejection sampler exceeded its proposal budget."""


class NonPositiveAngle(RicciKitError):
    """Encountered <x, n> <= 0 on a boundary sample (origin not interior to cone hull)."""


class HypothesisViolated(RicciKitError):
    """A theorem hypothesis failed on the checking grid."""

    def __init__(self, hypothesis, location, margin):
        self.hypothesis = hypothesis
        self.location = location
        self.margin = margin
        super().__init__(
            f"hypothesis '{hypothesis}' violated at {location}: margin {margin:.3e}"
        )


class UnknownInequalityId(RicciKitError):
    """Catalog id not found."""


class DegenerateSample(RicciKitError):
    """Too few samples for a meaningful estimate."""


class NonNormalizable(RicciKitError):
    """A measure specification does not define a finite measure."""


class BoundaryQuadratureFailure(RicciKitError):
    """Boundary integral could not be evaluated."""


class EigensolveFailure(RicciKitError):
    """An eigensolver failed, or was handed a matrix with non-finite entries."""


class NonFiniteConstant(RicciKitError):
    """A constant, margin or tensor overflowed, underflowed or divided by zero."""


class SchemaViolation(RicciKitError):
    """Experiment config failed validation; `pointer` is a JSON pointer to the offender."""

    def __init__(self, pointer, message):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


class IOFailure(RicciKitError):
    """Report emission failed."""
