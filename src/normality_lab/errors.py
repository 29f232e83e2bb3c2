"""Exception types raised across the package."""


class NormalityLabError(Exception):
    """Root of the package exception hierarchy."""


class ExprSyntaxError(NormalityLabError):
    """Malformed expression source. Carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class DimensionError(NormalityLabError):
    """Variable index exceeds the declared dimension."""


class MixedRepresentationError(NormalityLabError):
    """Expression mixes velocity and momentum fiber variables."""


class EvalError(NormalityLabError):
    """Domain failure while evaluating: ln of a non-positive value,
    sqrt of a negative value, division by zero, bad power. `node` is
    the failing entry of a batch, named after the `reason`, or None."""

    def __init__(self, reason: str, node: int = None):
        super().__init__(reason if node is None else f"{reason} (node {node})")
        self.reason = reason
        self.node = node


class MissingJets(NormalityLabError):
    """A derivative was requested from a value that carries no
    derivative data at the needed order."""


class SingularMetric(NormalityLabError):
    """Fiber Jacobian of the Legendre map is singular or too
    ill-conditioned to invert (condition number above 1e12)."""


class NonConvergence(NormalityLabError):
    """Newton iteration for the inverse Legendre map failed to reach
    the residual tolerance within the iteration budget."""


class DegeneratePoint(NormalityLabError):
    """Normality fields are undefined here: the scalar square of the
    momentum field is numerically zero."""


class MissingGaugeTensor(NormalityLabError):
    """Operation requires a gauge tensor the system does not define."""


class DegenerateSurface(NormalityLabError):
    """Hypersurface tangent vectors do not span an (n-1)-dimensional
    space at the given parameter value."""


class IntegrationFailure(NormalityLabError):
    """Trajectory integration aborted before reaching the final time."""


class SystemFileError(NormalityLabError):
    """System definition file is missing, unreadable, or malformed."""


class ValidationError(NormalityLabError):
    """System definition violates a structural requirement (wrong
    component count, asymmetric connection, inconsistent inverse, ...)."""


class AsymmetricGauge(ValidationError):
    """Gauge tensor is not symmetric in its lower index pair."""
