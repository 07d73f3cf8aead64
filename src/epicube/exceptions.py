"""Exception types raised across the toolkit."""


class EpicubeError(Exception):
    """Base class for all toolkit errors."""


class FocalPointProjection(EpicubeError):
    """Attempted to project a camera's own focal point."""


class RankDeficientCamera(EpicubeError):
    """Camera matrix has rank < 3; its center is not well defined."""


class LengthMismatch(EpicubeError):
    """Paired point lists have different lengths."""


class ZeroMatrix(EpicubeError):
    """A matrix that must be nonzero is (numerically) zero."""


class DegenerateCloud(EpicubeError):
    """Point cloud collapses to a single point; normalization impossible."""


class DegenerateInput(EpicubeError):
    """Linear system has the wrong kernel dimension for the estimator.

    Carries the observed kernel dimension.
    """

    def __init__(self, kernel_dim):
        self.kernel_dim = kernel_dim
        super().__init__(f"unexpected kernel dimension {kernel_dim}")


class CoincidentCenters(EpicubeError):
    """Both cameras share a focal point; no fundamental matrix exists."""


class DependentInputs(EpicubeError):
    """Pencil generators are linearly dependent."""


class IdenticallyZeroPencil(EpicubeError):
    """Every member of the matrix pencil is singular."""


class NoRealRoot(EpicubeError):
    """The pencil determinant has no real root (degenerate degree drop)."""


class PencilOfQuadrics(EpicubeError):
    """More than one quadric fits the point configuration."""


class NoQuadric(EpicubeError):
    """No quadric passes through the point configuration."""


class AtInfinity(EpicubeError):
    """Normalization of the last diagonal entry impossible (it vanishes)."""


class DegenerateIntersection(EpicubeError):
    """Three planes fail to meet in a single point."""


class ExhaustedRetries(EpicubeError):
    """Rejection sampling exceeded its retry budget."""
