"""Exception types shared across the package."""

from __future__ import annotations


class ClusterReduceError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPointError(ClusterReduceError):
    """A projective point has no nonzero coordinate, or coordinates are malformed."""


class DimensionError(ClusterReduceError):
    """Ambient dimensions of the operands do not match, or a matrix has the wrong shape."""


class SingularMatrixError(ClusterReduceError):
    """A matrix that must be invertible (or of determinant one) is not."""


class NotPositiveDefiniteError(ClusterReduceError):
    """A Hermitian or symmetric matrix fails the positive definiteness requirement."""


class StabilityError(ClusterReduceError):
    """The input cluster is not stable enough for the requested operation.

    Carries the classification and, when available, the violating subspace.
    """

    def __init__(self, message, classification=None, witness=None):
        super().__init__(message)
        self.classification = classification
        self.witness = witness


class ConvergenceError(ClusterReduceError):
    """Iteration budget exhausted; ``best`` holds the best iterate found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class EliminationError(ClusterReduceError):
    """No projection of a curve intersection gives a clean elimination."""


class CommonComponentError(ClusterReduceError):
    """Two curves share a component, so their intersection is not finite."""


class DegeneratePencilError(ClusterReduceError):
    """The quadric pencil violates a genericity precondition."""


class DegeneratePositionError(ClusterReduceError):
    """Points that must be in general position are not."""


class RealityError(ClusterReduceError):
    """An operation requiring a conjugation-fixed input received a complex one."""


class InputFormatError(ClusterReduceError):
    """Input file or text could not be parsed into the expected object."""
