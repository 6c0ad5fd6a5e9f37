"""Exception types shared across the package."""


class GeostabError(Exception):
    """Base class for all package-specific errors."""


class ChartDomainError(GeostabError):
    """Coordinates lie outside the open chart domain of a model."""


class ChartExitError(GeostabError):
    """A geodesic left the representable chart region.

    Carries the curve parameter at which the exit was detected, when known.
    """

    def __init__(self, message, parameter=None):
        super().__init__(message)
        self.parameter = parameter


class DegenerateDirectionError(GeostabError):
    """A direction vector too short to normalize was supplied."""


class StationaryPointError(GeostabError):
    """The vector field vanishes at the base point, so no field-aligned
    frame or curvature scale exists there."""


class NoFiniteAlphaError(GeostabError):
    """No finite cocoercivity constant exists: the range of the covariant
    derivative is not orthogonal to its kernel."""


class NotCocoerciveError(GeostabError):
    """A sampled region contains points with non-positive cocoercivity
    constant; no step-size bound applies there."""

    def __init__(self, message, points=None):
        super().__init__(message)
        self.points = points or []


class UnsupportedKernelError(GeostabError):
    """The covariant derivative kernel has dimension above one or does not
    coincide with the field direction."""


class InconsistentConstantsError(GeostabError):
    """Supplied constants violate a relation they must satisfy
    (e.g. an inverse-hyperbolic-cotangent argument below one)."""


class NoBoundError(GeostabError):
    """The constants admit no positive step size (e.g. alpha <= 0)."""


class NonconvergenceError(GeostabError):
    """An iterative solver failed to reach its tolerance.

    The final defect is stored on the exception.
    """

    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect


class BracketError(GeostabError):
    """A root bracket required by a search was invalid."""
